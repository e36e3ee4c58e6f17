"""The three workloads: inputs from a seed, one engine call, output check.

Each workload is a batch job driven as a closed loop with one client: the
driver calls the engine, waits for the complete result on disk, checks it,
and calls again.  Expected outputs come from the single-process reference
(``oracle.crawl_oracle``; ``extract.extract_content`` +
``intelligence.analyze``) and are computed before the timed loop.
"""
from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import pyarrow as pa
import pyarrow.parquet as pq

from inputs import Reference, crawl_seeds, page_digest, scan_frontier

# Columns of the scan output that vary between identical runs.
_VOLATILE = ("crawl_time",)


@dataclass(frozen=True)
class Workload:
    """A named engine call; BENCHMARK.json and README.md say why each
    workload is in the set."""
    name: str
    kind: str                       # "scan" | "crawl"
    params: Dict[str, object]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "extract_scan",
        "scan",
        {"frontier_urls": 2_500, "blocks": 32, "batch_size": 1024},
    ),
    Workload(
        "crawl_wide_sharded",
        "crawl",
        {"n_seeds": 2_048, "max_depth": 1, "max_pages": 1_000_000,
         "seen_shards": 4, "frontier_shards": 4, "max_fetch_per_gen": None},
    ),
    Workload(
        "crawl_paced",
        "crawl",
        {"n_seeds": 64, "max_depth": 3, "max_pages": 1_000_000,
         "seen_shards": 4, "frontier_shards": None, "max_fetch_per_gen": 4},
    ),
)}


@dataclass
class Result:
    """One engine call: wall time, URLs fetched+extracted, per-generation
    turnaround, and the observed output summary the check compares."""
    wall_s: float
    urls: int
    gen_walls: List[float]
    observed: dict
    run: object = None               # CrawlRun for crawls
    inputs: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)  # spans of a traced call


def settings(params: Dict[str, object]):
    from deepwebharvester_ray.config import CrawlSettings

    return CrawlSettings(
        max_depth=params["max_depth"], max_pages=params["max_pages"],
        seen_shards=params["seen_shards"],
        frontier_shards=params["frontier_shards"],
        max_fetch_per_gen=params["max_fetch_per_gen"])


def make_inputs(w: Workload, seed: int, ref: Reference) -> dict:
    p = w.params
    if w.kind == "scan":
        return {"frontier": scan_frontier(seed, p["frontier_urls"], ref.urls)}
    return {"seeds": crawl_seeds(seed, p["n_seeds"])}


def _digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


# -- expected outputs ----------------------------------------------------------


def expected(w: Workload, inputs: dict, ref: Reference,
             pages: Dict[str, bytes]) -> dict:
    """The reference's summary of the correct output for *inputs*."""
    if w.kind == "scan":
        return {"rows": len(inputs["frontier"]),
                "digest": _digest([ref.digest[u] for u in inputs["frontier"]])}
    from deepwebharvester_ray import oracle

    original = oracle.extract_content
    oracle.extract_content = ref.memo_extract
    try:
        trace = oracle.crawl_oracle(pages, inputs["seeds"], settings(w.params))
    finally:
        oracle.extract_content = original
    counters = {k: trace.stats[k]
                for k in ("crawled", "failed", "skipped", "deduplicated")}
    return {"counters": counters,
            "digest": _crawl_digest(w, [(r.url, r.content_hash)
                                        for r in trace.results])}


def _crawl_digest(w: Workload, pairs) -> str:
    """Digest of the accepted pages.  Pacing changes which seed wins a
    duplicate, never the distinct-content set, so a paced crawl is
    checked on content hashes only."""
    if w.params["max_fetch_per_gen"] is not None:
        return _digest(sorted({h for _, h in pairs}))
    return _digest([f"{u}\t{h}" for u, h in pairs])


def check(result: Result, want: dict) -> bool:
    return result.observed == want


# -- one engine call ----------------------------------------------------------


def _scan_observed(out_dir: Path) -> dict:
    digests = []
    for f in sorted(out_dir.rglob("*.parquet")):
        for row in pq.read_table(str(f)).to_pylist():
            for col in _VOLATILE:
                row.pop(col, None)
            digests.append(page_digest(row))
    return {"rows": len(digests), "digest": _digest(digests)}


def run_scan(p: Dict[str, object], inputs: dict, corpus_dir: Path,
             out_dir: Path) -> Result:
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.pipelines import crawl

    shutil.rmtree(out_dir, ignore_errors=True)
    frontier = inputs["frontier"]
    t0 = time.monotonic()
    hashes_ref = crawl.broadcast_frontier_hashes(frontier)
    ds = ray.data.read_parquet(
        str(corpus_dir), columns=["url", "html"],
        override_num_blocks=p["blocks"],
    ).map_batches(
        crawl.fetch_extract_task,
        fn_kwargs={"hashes_ref": hashes_ref, "with_intel": True,
                   "drop_links": True},
        batch_format="pyarrow",
        batch_size=p["batch_size"],
        runtime_env=runtime_env(),
    )
    ds.write_parquet(str(out_dir))
    wall = time.monotonic() - t0
    return Result(wall, len(frontier), [wall], _scan_observed(out_dir),
                  inputs=inputs)


def run_crawl(w: Workload, inputs: dict, corpus_dir: Path,
              run_dir: Path) -> Result:
    from deepwebharvester_ray.pipelines import crawl

    shutil.rmtree(run_dir, ignore_errors=True)
    t0 = time.monotonic()
    run = crawl.run_crawl(str(corpus_dir), inputs["seeds"],
                          cfg=settings(w.params), run_dir=str(run_dir))
    wall = time.monotonic() - t0
    table = run.results_table()
    pairs = zip(table.column("url").to_pylist(),
                table.column("content_hash").to_pylist())
    observed = {
        "counters": {
            "crawled": run.stats["pages_crawled"],
            "failed": run.stats["pages_failed"],
            "skipped": run.stats["pages_skipped"],
            "deduplicated": run.stats["pages_deduplicated"],
        },
        "digest": _crawl_digest(w, list(pairs)),
    }
    return Result(wall, sum(m.fetched for m in run.metrics),
                  [m.wall_time_s for m in run.metrics], observed, run=run,
                  inputs=inputs)


def run_once(w: Workload, inputs: dict, corpus_dir: Path,
             scratch: Path) -> Result:
    if w.kind == "scan":
        return run_scan(w.params, inputs, corpus_dir, scratch / "scan_out")
    return run_crawl(w, inputs, corpus_dir, scratch / "crawl_run")


# Set-up's warm-up pass: a small scan starts the task workers with the
# engine's runtime env, imports the package in them and runs one Dataset.
WARM_PARAMS = {"frontier_urls": 64, "blocks": 4, "batch_size": 1024}


def warm_up(seed: int, ref: Reference, corpus_dir: Path,
            scratch: Path) -> None:
    frontier = scan_frontier(seed, WARM_PARAMS["frontier_urls"], ref.urls)
    run_scan(WARM_PARAMS, {"frontier": frontier}, corpus_dir,
             scratch / "warm_out")


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def table_of(pages: Dict[str, bytes], urls: List[str]) -> pa.Table:
    return pa.table({"url": pa.array(urls, pa.string()),
                     "html": pa.array([pages[u] for u in urls], pa.binary())})
