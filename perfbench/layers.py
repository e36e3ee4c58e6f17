"""Single-thread layer pass: each layer's public functions called
in-process on a workload's actual inputs.

Layers whose work runs inside Ray workers (``extract``, ``intelligence``,
``urlops``, and on the sharded path the task-side seen-set and replay
work) cannot be timed from driver-side wrappers.  This pass re-runs that
work in the driver process, one layer at a time, and doubles as the
single-threaded baseline.  For a crawl it follows the driver-queue
generation loop of ``pipelines.crawl.run_crawl`` over in-process layer
objects (``FrontierQueue``, two ``SeenShard``\\ s, ``replay_generation``),
so it sees the same candidates, mark keys and fetched pages as the engine.
"""
from __future__ import annotations

import time
from typing import Dict, List

from workloads import table_of


class _Clock:
    """Accumulates busy time and work counts per metric prefix."""

    def __init__(self) -> None:
        self.m: Dict[str, float] = {}

    def add(self, key: str, v: float) -> None:
        self.m[key] = self.m.get(key, 0) + v

    def timed(self, prefix: str, n: int, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.add(prefix + "_s", time.perf_counter() - t0)
        self.add(prefix + "_n", n)
        return out


def _extract(c: _Clock, pages: Dict[str, bytes], urls: List[str],
             batch_size: int):
    from deepwebharvester_ray.extract import extract_batch

    outs = []
    for i in range(0, len(urls), batch_size):
        chunk = urls[i:i + batch_size]
        c.add("extract.html_bytes", sum(len(pages[u]) for u in chunk))
        outs.append(c.timed("extract", len(chunk), extract_batch,
                            table_of(pages, chunk)))
    for out in outs:
        c.add("extract.links", sum(out.column("links_found").to_pylist()))
    return outs


def _finish(c: _Clock) -> Dict[str, float]:
    m = c.m
    busy = m.get("extract_s", 0.0)
    out = {
        "extract.pages": m.get("extract_n", 0),
        "extract.html_mb": m.get("extract.html_bytes", 0) / 1e6,
        "extract.links": m.get("extract.links", 0),
        "extract.busy_s": busy,
        "extract.pages_per_s": m.get("extract_n", 0) / busy if busy else 0.0,
        "intelligence.pages": m.get("intelligence_n", 0),
        "intelligence.busy_s": m.get("intelligence_s", 0.0),
        "urlops.hash_keys": m.get("urlops_n", 0),
        "urlops.hash_s": m.get("urlops_s", 0.0),
    }
    for k in ("seen.contains_calls", "seen.contains_keys", "seen.contains_s",
              "seen.insert_keys", "seen.insert_s", "seen.calls",
              "pqueue.push_entries", "scheduler.replay_calls",
              "scheduler.replay_candidates", "scheduler.replay_s"):
        if k in m:
            out[k] = m[k]
    return out


def scan_pass(pages: Dict[str, bytes], frontier: List[str],
              batch_size: int) -> Dict[str, float]:
    """Membership hashes for the frontier and every scanned row, then
    extract + intelligence over the frontier pages."""
    from deepwebharvester_ray.intelligence import intelligence_batch
    from deepwebharvester_ray.urlops import batch_url_hash64

    c = _Clock()
    c.timed("urlops", len(frontier), batch_url_hash64, frontier)
    scanned = list(pages)
    c.timed("urlops", len(scanned), batch_url_hash64, scanned)
    for out in _extract(c, pages, frontier, batch_size):
        c.timed("intelligence", out.num_rows, intelligence_batch, out)
    return _finish(c)


def crawl_pass(pages: Dict[str, bytes], seeds: List[str], cfg
               ) -> Dict[str, float]:
    """The driver-queue generation loop, in-process and single-threaded."""
    from deepwebharvester_ray.state.pqueue import FrontierQueue
    from deepwebharvester_ray.state.scheduler import (
        Candidate,
        SeedState,
        replay_generation,
    )
    from deepwebharvester_ray.state.seen import SeenShard
    from deepwebharvester_ray.urlops import (
        batch_url_hash64,
        is_blacklisted,
        is_valid_onion_url,
        normalize_blacklist,
    )

    c = _Clock()
    blacklist = normalize_blacklist(cfg.blacklist_paths)
    valid = [u for u in seeds if is_valid_onion_url(u)]
    states = {sid: SeedState(seed_id=sid, seed_url=u)
              for sid, u in enumerate(valid)}
    queue = FrontierQueue(max_per_seed=cfg.frontier_max_per_seed)
    marks, hashes = SeenShard(), SeenShard()

    def push(entries):
        c.add("pqueue.push_entries", len(entries))
        queue.push(entries)

    def seen(name: str, shard_call, keys):
        c.timed("urlops", len(keys), batch_url_hash64, keys)  # shard routing
        t0 = time.perf_counter()
        out = shard_call(keys)
        dt = time.perf_counter() - t0
        c.add(f"seen.{name}_keys", len(keys))
        c.add(f"seen.{name}_s", dt)
        c.add("seen.calls", 1)
        if name == "contains":
            c.add("seen.contains_calls", 1)
        return out

    push([(sid, 0, u) for sid, u in enumerate(valid)])
    budgeted = cfg.max_fetch_per_gen is not None
    gen_cap = 1_000_000 if budgeted else cfg.max_depth
    gen = 0
    while len(queue) and gen <= gen_cap:
        popped = queue.pop_budget(cfg.max_fetch_per_gen)
        keys = [f"{sid}|{u}" for sid, _, u in popped]
        marked = seen("contains", marks.contains, keys)
        cands = [e for e, m in zip(popped, marked) if not m]
        active = [e for e in cands
                  if not states[e[0]].exhausted
                  and states[e[0]].pages < cfg.max_pages]
        black = {u for _, _, u in active if is_blacklisted(u, blacklist)}
        fetch = sorted({u for _, _, u in active
                        if u not in black and u in pages})
        extracted = {}
        for out in _extract(c, pages, fetch, cfg.extract_batch_size):
            for u, h, links in zip(out.column("url").to_pylist(),
                                   out.column("content_hash").to_pylist(),
                                   out.column("links").to_pylist()):
                extracted[u] = (h, links)
        candidates = [
            Candidate(seed_id=sid, url=u, depth=d, blacklisted=u in black,
                      fetched=u in extracted,
                      content_hash=extracted[u][0] if u in extracted else None)
            for sid, d, u in active]
        cand_hashes = sorted({x.content_hash for x in candidates
                              if x.content_hash})
        known = seen("contains", hashes.contains, cand_hashes)
        known_set = {h for h, k in zip(cand_hashes, known) if k}
        c.add("scheduler.replay_calls", 1)
        c.add("scheduler.replay_candidates", len(candidates))
        t0 = time.perf_counter()
        replay = replay_generation(candidates, states, known_set, cfg)
        c.add("scheduler.replay_s", time.perf_counter() - t0)
        seen("insert", marks.check_and_insert,
             [f"{s}|{u}" for s, u in replay.new_marks])
        seen("insert", hashes.check_and_insert, list(replay.new_hashes))
        depth = {(sid, u): d for sid, d, u in active}
        entries = sorted(
            (sid, depth[(sid, u)] + 1, link)
            for sid, u in replay.propagate
            if depth[(sid, u)] < cfg.max_depth
            for link in extracted[u][1])
        push(entries)
        gen += 1
    return _finish(c)
