"""Crawl-engine benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload crawl_wide_sharded --seed 3 --seconds 40 --trace 0

Run from the root of a checkout.  Set-up (Ray start, corpus resolution,
a warm-up pass) is repeated ``SETUP_CYCLES`` times and reported as its
median.  The timed loop then calls the engine until ``--seconds`` are
used, checking every call's output against the single-process reference.
``--trace 1`` alternates untraced and traced calls and reports per-layer
metrics instead of the end-to-end ones (see README.md).

Generated inputs and Ray's session files live under ``.bench_build/`` in
the checkout; nothing is read or written outside it.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 * 1024 * 1024
SETUP_CYCLES = 2
ITERATION_TIMEOUT_S = 120
# AF_UNIX socket paths are limited to 107 bytes; Ray appends ~63 to its
# temp dir ("/session_<date>_<time>_<us>_<pid>/sockets/plasma_store").
_RAY_SOCKET_SUFFIX = 63


def _control_burn() -> float:
    """Fixed single-thread numpy burn: the box's speed right now."""
    import numpy as np

    t0 = time.perf_counter()
    x = np.random.default_rng(0).standard_normal((400, 400))
    for _ in range(30):
        x = x @ x / np.linalg.norm(x)
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    """Driver high-water RSS (VmHWM; ``ru_maxrss`` survives exec)."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _descendants(pid: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def shutdown_ray() -> None:
    """``ray.shutdown()`` and wait until every process Ray started has
    ended (SIGKILL after a grace period)."""
    import ray

    procs = _descendants(os.getpid())
    ray.shutdown()
    deadline = time.monotonic() + 15
    while any(_alive(p) for p in procs) and time.monotonic() < deadline:
        time.sleep(0.05)
    for p in procs:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
    for p in procs:
        try:
            os.waitpid(p, os.WNOHANG)
        except ChildProcessError:
            pass
    while any(_alive(p) for p in procs):
        time.sleep(0.05)


def start_ray(ray_tmp: Path) -> None:
    import ray

    kwargs = dict(address="local", num_cpus=NUM_CPUS,
                  object_store_memory=OBJECT_STORE_BYTES,
                  include_dashboard=False, log_to_driver=False,
                  configure_logging=False)
    if len(str(ray_tmp)) + _RAY_SOCKET_SUFFIX <= 107:
        kwargs["_temp_dir"] = str(ray_tmp)
    ray.init(**kwargs)
    ray.data.DataContext.get_current().enable_progress_bars = False


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout(f"iteration exceeded {ITERATION_TIMEOUT_S} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "deepwebharvester_ray" / "__init__.py").is_file():
        print(f"engine package not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(HERE)]

    import inputs
    import stats
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    build = ROOT / ".bench_build"
    work = build / "perfbench"
    scratch = work / f"run_{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)

    # -- inputs and expected outputs (built once per checkout, untimed) --
    # in a child process, so the build's memory stays out of the driver's
    # VmHWM (driver_peak_rss_mb); a plain subprocess, because a
    # multiprocessing child leaves a resource-tracker process running
    made = subprocess.run([sys.executable, str(HERE / "inputs.py"),
                           str(work)], stdout=sys.stderr)
    if made.returncode != 0:
        print("building the benchmark inputs failed", file=sys.stderr)
        return 1
    corpus_dir = inputs.build_corpus(work)
    ref = inputs.Reference(inputs.build_reference(work, corpus_dir))
    pages = inputs.load_pages(corpus_dir)
    run_inputs = workloads.make_inputs(w, args.seed, ref)
    want = workloads.expected(w, run_inputs, ref, pages)

    # -- set-up, repeated; the last cycle stays up for the timed loop --
    setup_s = []
    try:
        for cycle in range(SETUP_CYCLES):
            t0 = time.monotonic()
            start_ray(build / "ray")
            workloads.warm_up(args.seed, ref, inputs.build_corpus(work),
                              scratch)
            setup_s.append(time.monotonic() - t0)
            if cycle < SETUP_CYCLES - 1:
                shutdown_ray()

        context = {"loadavg1": os.getloadavg()[0],
                   "control_burn_s": _control_burn()}
        traced_ids = set()

        def call(i: int):
            traced = bool(args.trace) and i % 2 == 1
            signal.alarm(ITERATION_TIMEOUT_S)
            try:
                if not traced:
                    return workloads.run_once(w, run_inputs, corpus_dir,
                                              scratch)
                traced_ids.add(i)
                tracer = tracing.Tracer()
                tracing.install_engine_wrappers(tracer)
                try:
                    with tracer.root(f"iteration{i}"):
                        res = workloads.run_once(w, run_inputs, corpus_dir,
                                                 scratch)
                finally:
                    tracer.uninstall()
                res.trace["spans"] = tracer.spans
                if res.run is not None:
                    res.trace["run_bytes"] = {
                        k: workloads.dir_bytes(Path(res.run.run_dir) / k)
                        for k in ("state", "results")}
                return res
            finally:
                signal.alarm(0)

        signal.signal(signal.SIGALRM, _on_alarm)
        tally = stats.measure(
            call, lambda r: workloads.check(r, want), args.seconds,
            duration=lambda r: r.wall_s, min_iterations=1 + args.trace)
        peak_rss = _peak_rss_mb()
    finally:
        shutdown_ray()
        shutil.rmtree(scratch, ignore_errors=True)
        # this run's Ray session directories (named after the driver pid)
        for session in (build / "ray").glob(f"session_*_{os.getpid()}"):
            shutil.rmtree(session, ignore_errors=True)

    done = [it for it in tally.iterations if it.result is not None]
    if not done:
        print("no engine call completed", file=sys.stderr)
        return 1
    plain = [it.result for it in done if it.index not in traced_ids]
    traced = [it.result for it in done if it.index in traced_ids]
    gens = [g for r in plain for g in r.gen_walls]
    context.update({
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "params": w.params, "num_cpus": NUM_CPUS,
        "setup_s_samples": setup_s,
        "wall_s_samples": [r.wall_s for r in plain],
        "generations": len(gens),
        "gen_percentiles": {
            f"p{q:g}": stats.percentile(gens, q)
            for q in stats.supported_percentiles(len(gens))} if gens else {},
        "failed_frac": tally.failed_frac,
        "errors": [it.error for it in tally.iterations if not it.ok],
    })

    if args.trace:
        if not traced or not plain:
            print("traced run needs one traced and one untraced call",
                  file=sys.stderr)
            return 1
        metrics = per_layer(w, traced, plain, pages)
        tracing.dump([r.trace["spans"] for r in traced],
                     work / f"spans_{w.name}_{args.seed}.jsonl")
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": stats.median(setup_s),
            "wall_s": stats.median([r.wall_s for r in plain]),
            "urls_per_s": stats.median([r.urls / r.wall_s for r in plain]),
            # per call first: pooling would put the median on the edge
            # between the first and the later generations of a call
            "gen_p50_s": stats.median([stats.median(r.gen_walls)
                                       for r in plain]),
            "driver_peak_rss_mb": peak_rss,
        }
        units = END_TO_END_UNITS
    print(json.dumps({"context": context}, default=str))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }))
    return 0


END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "urls_per_s": "1/s",
    "gen_p50_s": "s",
    "driver_peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "crawl.gens": "count",
    "crawl.candidates": "count",
    "crawl.fetched": "count",
    "crawl.success": "count",
    "crawl.dup": "count",
    "crawl.failed": "count",
    "crawl.already": "count",
    "crawl.fetch_yield": "ratio",
    "crawl.schedule_yield": "ratio",
    "crawl.frontier_backlog_max": "count",
    "crawl.control_self_s": "s",
    "crawl.checkpoint_bytes": "bytes",
    "crawl.results_bytes": "bytes",
    "raydata.execs": "count",
    "raydata.exec_s": "s",
    "raydata.exec_s_per_exec": "s",
    "raydata.write_s": "s",
    "driver.ray_get_calls": "count",
    "driver.ray_get_self_s": "s",
    "seen.contains_calls": "count",
    "seen.contains_keys": "count",
    "seen.contains_s": "s",
    "seen.insert_keys": "count",
    "seen.insert_s": "s",
    "seen.s_per_call": "s",
    "pqueue.push_entries": "count",
    "pqueue.push_s": "s",
    "pqueue.pop_s": "s",
    "pqueue.commit_staged_s": "s",
    "pqueue.snapshot_s": "s",
    "scheduler.replay_candidates": "count",
    "scheduler.replay_s": "s",
    "extract.pages": "count",
    "extract.html_mb": "MB",
    "extract.links": "count",
    "extract.busy_s": "s",
    "extract.pages_per_s": "1/s",
    "intelligence.pages": "count",
    "intelligence.busy_s": "s",
    "urlops.hash_keys": "count",
    "urlops.hash_s": "s",
    "trace.overhead": "ratio",
}


def _crawl_metrics(res) -> Dict[str, float]:
    import tracing

    ms = res.run.metrics
    fetched = sum(m.fetched for m in ms)
    cands = sum(m.candidates for m in ms)
    success = sum(m.success for m in ms)
    exec_s = sum(s["end"] - s["start"] for s in
                 tracing.top_level(res.trace["spans"], "raydata."))
    return {
        "crawl.gens": res.run.generations,
        "crawl.candidates": cands,
        "crawl.fetched": fetched,
        "crawl.success": success,
        "crawl.dup": sum(m.dup for m in ms),
        "crawl.failed": sum(m.failed for m in ms),
        "crawl.already": sum(m.already for m in ms),
        "crawl.fetch_yield": success / fetched if fetched else 0.0,
        "crawl.schedule_yield": fetched / cands if cands else 0.0,
        "crawl.frontier_backlog_max": max(m.deferred for m in ms),
        "crawl.control_self_s": sum(m.wall_time_s for m in ms) - exec_s,
        "crawl.checkpoint_bytes": res.trace["run_bytes"]["state"],
        "crawl.results_bytes": res.trace["run_bytes"]["results"],
    }


def per_layer(w, traced, plain, pages) -> Dict[str, float]:
    """Median over traced calls of each call's per-layer metrics, plus
    the single-thread layer pass for layers that run in Ray workers."""
    import layers
    import stats
    import tracing
    import workloads

    per_call: List[Dict[str, float]] = []
    for res in traced:
        m = tracing.span_metrics(res.trace["spans"])
        if res.run is not None:
            m.update(_crawl_metrics(res))
        per_call.append(m)
    out = {k: stats.median([m[k] for m in per_call]) for k in per_call[0]}

    res = traced[-1]
    if w.kind == "scan":
        lp = layers.scan_pass(pages, res.inputs["frontier"],
                              w.params["batch_size"])
    else:
        lp = layers.crawl_pass(pages, res.inputs["seeds"],
                               workloads.settings(w.params))
    # seen-set and replay calls made by the driver are timed there; on
    # the sharded path they run in tasks, so the layer pass stands in
    driver_side = {"seen.": out.get("seen.calls", 0),
                   "scheduler.": out.get("scheduler.replay_calls", 0)}
    for k, v in lp.items():
        prefix = k.split(".")[0] + "."
        if driver_side.get(prefix):
            continue
        out[k] = v
    if w.kind != "scan":
        out["pqueue.push_entries"] = lp["pqueue.push_entries"]
    execs = out.get("raydata.execs", 0)
    out["raydata.exec_s_per_exec"] = (out["raydata.exec_s"] / execs
                                      if execs else 0.0)
    calls = out.get("seen.calls", 0)
    out["seen.s_per_call"] = ((out.get("seen.contains_s", 0)
                               + out.get("seen.insert_s", 0)) / calls
                              if calls else 0.0)
    out["trace.overhead"] = (stats.median([r.wall_s for r in traced])
                             / stats.median([r.wall_s for r in plain]))
    return {k: out.get(k, 0.0) for k in PER_LAYER_UNITS}


if __name__ == "__main__":
    sys.exit(main())
