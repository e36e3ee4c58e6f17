"""The crawl's control-state shard, its generation steps, and the two
places the shards live.

Each :class:`CrawlShard` holds its seeds' frontier entries (``seed_id %
n``), those seeds' URL marks (a ``"sid|url"`` key routes by its sid),
and a digest-routed slice of the content-hash set.  Every generation of
``pipelines.crawl.run_crawl`` runs one body (``crawl._generation``):

* :meth:`CrawlShard.pop_prep` — one call per shard: the purge of
  inactive seeds' entries, the budgeted pop, the mark filter against the
  shard's own marks, then the blacklist/robots flags.  It reads only its
  own shard.
* :func:`_fetch_hashes` — the generation's fetch-membership array and
  its lineage digest.
* :func:`_replay` — the generation's one step after the fetch, over the
  candidate tables and the fetch tasks' tables: the reference
  control flow (the UNCHANGED ``state.scheduler.replay_generation``
  core, one call per generation) in canonical order, the checkpoint
  delta files, the results partition (:func:`_write_results`) and the
  propagated pages' links staged onto their frontier shards
  (:func:`_expand`).
* :func:`_commit` — the mark and hash inserts, after the replay
  returned.
* :func:`_restore_delta` — the resume-side seen-set restore.

A placement says where the shards live and how a step is called; the
generation body never branches on it:

* :class:`InProcess` — one in-process ``CrawlShard``.  Steps are plain
  calls; ObjectRef arguments are resolved first, as Ray resolves a
  task's arguments.
* :class:`OnActors` — one ``CrawlShard`` actor per shard, behind a
  ``ShardedFrontierQueue``.  The actors start once per Ray session and
  shard count and are reset at the start of each run
  (:meth:`CrawlShard.reset`), so only a session's first actor-placement
  run pays actor start-up.  Steps run as ``num_cpus=0`` Ray tasks
  (their ``ray.remote`` wrappers are made once per process) whose
  inputs and outputs are ObjectRefs, so the driver holds only counters,
  per-seed states, the distinct fetch hosts and — below the
  scanner-filter cap — the fetch URL list.  No actor method calls
  another actor.

Retry safety (actor placement): a task SIGKILLed and retried by Ray
re-runs from the same input refs.  The replay's file writes are
rewrites of the same files; its staging may land twice, and the
duplicates are dropped by ``commit_staged``'s first-push dedup (an
entry equal to one already pushed is skipped, and a bounded seed's
overflow trim runs once per push, after the dedup), so the frontier and
its drop count come out as from one staging.  Seen-set mutation happens
only in :func:`_commit`, which consumes the replay's outputs and
therefore starts after the replay returned: no same-generation read
observes its inserts, and set inserts are idempotent, so a
killed-and-retried commit is harmless too.
"""
from __future__ import annotations

import hashlib
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import CrawlSettings
from ..intelligence import intelligence_batch
from ..state import call_shards
from ..state.pqueue import ShardedFrontierQueue, _FrontierShard
from ..state.scheduler import BLACKLISTED, Candidate, replay_generation
from ..state.seen import SeenShard, key_digests, pool_contains, pool_insert
from ..urlops import batch_url_hash64, get_host, is_blacklisted

# A generation's fetch-URL list goes into the parquet reader's ``isin``
# filter only up to this size; beyond it the filter expression itself
# would be the bottleneck (the hash-membership filter always applies).
# Measured to pay for itself: without the list, 4 of 4 paired
# crawl_wide_sharded runs (1-core box) were slower — wall_s
# 10.47/9.47/10.25/14.20 s vs 8.53/9.40/8.97/8.71 s, gen_p50_s
# 4.42/3.64/4.00/5.56 s vs 3.02/3.29/3.08/3.03 s.
SCANNER_CAP = 100_000


def hash_lookup(sorted_h: np.ndarray, urls) -> np.ndarray:
    """``found[i]`` iff ``urls[i]``'s url hash is in the sorted uint64
    url-hash array *sorted_h*."""
    bh = batch_url_hash64(urls)
    if not len(sorted_h):
        return np.zeros(len(bh), bool)
    idx = np.minimum(np.searchsorted(sorted_h, bh), len(sorted_h) - 1)
    return sorted_h[idx] == bh


# ── checkpoint deltas ────────────────────────────────────────────────────────


def _write_delta(path: str, keys: List[str]) -> None:
    pq.write_table(pa.table({"key": pa.array(sorted(keys), pa.string())}), path)


def _read_delta(path: str) -> List[str]:
    return pq.read_table(path).column("key").to_pylist()


# ── the control-state shard and the generation steps ─────────────────────────


class CrawlShard(_FrontierShard):
    """One shard of the crawl's control state: its seeds' frontier
    entries, their URL marks, and a digest-routed slice of the
    content-hash set."""

    def __init__(self, max_per_seed: Optional[int] = None) -> None:
        super().__init__(max_per_seed)
        self.marks, self.hashes = SeenShard(), SeenShard()

    def reset(self, max_per_seed: Optional[int]) -> None:
        """Clear every set — frontier heaps and members, staged
        entries, the drop count, marks and hashes — as a fresh shard
        with this capacity: a warm actor taken by a new run."""
        self.__init__(max_per_seed)

    def pop_prep(self, budget, blacklist, robots, inactive_sids):
        """Purge the inactive seeds' entries (exhausted or at their page
        budget: they can never be scheduled), pop this shard's budgeted
        entries and prepare the candidates: the mark filter against this
        shard's marks, then the blacklist/robots flags.

        Returns ``(info, fetch_h, candidates)``; the driver materializes
        only ``info``: the counters (``abandoned`` counts the purged
        entries), the distinct fetch HOSTS (partition pruning; bounded by
        host cardinality) and — iff ≤ :data:`SCANNER_CAP` — the fetch URL
        list.  ``fetch_h`` is the fetch URLs' url hashes; ``candidates``
        is the (sid, depth, url, black, robots) table in canonical
        order."""
        abandoned = self.drop_seeds(inactive_sids)
        entries = self.pop_budget(budget)  # canonical (sid, depth, url)
        marked = self.marks.contains([f"{s}|{u}" for s, _, u in entries])
        cands = [e for e, m in zip(entries, marked) if not m]

        black = [is_blacklisted(u, blacklist) for _, _, u in cands]
        robots_hits = robots.blocked_set(
            {e[2] for e, b in zip(cands, black) if not b})
        rob = [(not b) and (e[2] in robots_hits)
               for e, b in zip(cands, black)]
        fetch_urls = sorted({
            e[2] for e, b, r in zip(cands, black, rob) if not (b or r)})
        info = {
            "already": int(marked.sum()),
            "abandoned": abandoned,
            "n_candidates": len(cands),
            "hosts": sorted({get_host(u) for u in fetch_urls}),
            "fetch_urls_small": (
                fetch_urls if len(fetch_urls) <= SCANNER_CAP else None),
        }
        candidates = pa.table({
            "sid": pa.array([e[0] for e in cands], pa.int32()),
            "depth": pa.array([e[1] for e in cands], pa.int32()),
            "url": pa.array([e[2] for e in cands], pa.string()),
            "black": pa.array(black, pa.bool_()),
            "robots": pa.array(rob, pa.bool_()),
        })
        return info, batch_url_hash64(fetch_urls), candidates

    def insert_marks(self, keys) -> int:
        return self.marks.insert(keys)

    def contains_hash(self, keys) -> np.ndarray:
        return self.hashes.contains(keys)

    def insert_hash(self, keys) -> int:
        return self.hashes.insert(keys)


def _fetch_hashes(*parts):
    """The generation's fetch-membership array from the per-shard url
    hash arrays.

    Returns ``(digest, hashes)``: ``hashes`` is the sorted distinct
    fetch-hash set, broadcast once to the fetch tasks; ``digest`` — the
    lineage id of the generation's fetch set — hashes that set, so it
    does not depend on how many frontier shards the hashes came from.
    Linear in the generation's fetch set, which the politeness token
    budgets bound (hosts × tokens), not the frontier."""
    h = np.unique(np.concatenate(
        [np.asarray(p, np.uint64) for p in parts]))
    return hashlib.sha256(h.tobytes()).hexdigest()[:16], h


def _replay(states: dict, cfg: CrawlSettings, delays, shards,
            marks_delta_path: str, hashes_delta_path: str, out_dir: str,
            with_intel: bool, n_parts: int, *tables):
    """The generation's one step after the fetch.  *tables* are the
    frontier shards' *n_parts* candidate tables, then the fetched blocks
    (one per pruned corpus file).  Restores the canonical (sid, depth,
    url) order across the candidate tables, attaches fetch outcomes by
    exact url, queries prior-generation content hashes, runs
    ``replay_generation``, writes the checkpoint delta files and the
    results partition *out_dir*, and stages the propagated pages' links.
    Returns
    ``(counters, states, accepted, mark_keys, new_hashes,
    fetched_urls)``; the driver materializes the first two (counters,
    ``fetched`` among them, + O(seeds) states).

    The seen-set is NOT mutated here — a killed replay task whose inserts
    had landed would see them as prior-generation state in its Ray retry
    and wrongly deduplicate its own pages.  :func:`_commit` inserts the
    new keys once this step has returned."""
    sub = pa.concat_tables(tables[:n_parts]).sort_by(
        [("sid", "ascending"), ("depth", "ascending"), ("url", "ascending")])
    # a corpus file without fetch rows gives an empty block
    blocks = [b for b in tables[n_parts:] if b.num_rows]
    fetched_urls = pa.chunked_array(
        [b.column("url") for b in blocks], pa.string())
    idx = pc.index_in(sub.column("url"), value_set=fetched_urls)
    fetched_hashes = pa.chunked_array(
        [b.column("content_hash") for b in blocks], pa.string())
    black = sub.column("black").to_pylist()
    robots = sub.column("robots").to_pylist()
    cands = [
        Candidate(
            seed_id=s, url=u, depth=d, blacklisted=b or r,
            fetched=h is not None and not (b or r),
            content_hash=h if not (b or r) else None,
        )
        for s, d, u, b, r, h in zip(
            sub.column("sid").to_pylist(), sub.column("depth").to_pylist(),
            sub.column("url").to_pylist(), black, robots,
            fetched_hashes.take(idx).to_pylist())
    ]
    cand_hashes = sorted({c.content_hash for c in cands if c.content_hash})
    known = pool_contains(shards, cand_hashes, "contains_hash")
    known_hashes = {h for h, k in zip(cand_hashes, known) if k}

    res = replay_generation(cands, states, known_hashes, cfg, delays)

    mark_keys = [f"{s}|{u}" for s, u in res.new_marks]
    if cfg.chaos_kill_marker:
        # fault injection: die after computing the results, before any
        # file write — the retry re-runs from unchanged input refs and
        # the deterministic rewrite must heal the generation
        _chaos_kill_once(cfg.chaos_kill_marker + ".replay")
    _write_delta(marks_delta_path, mark_keys)
    _write_delta(hashes_delta_path, list(res.new_hashes))

    counters = {st: res.status.count(st) for st in set(res.status)}
    # robots split: BLACKLISTED status whose flag source was robots
    counters["robots_blocked"] = sum(
        1 for c, r, st in zip(cands, robots, res.status)
        if r and st == BLACKLISTED)
    counters["fetched"] = len(fetched_urls)

    cand_of = {(c.seed_id, c.url): c for c in cands}
    acc = [cand_of[k] for k in sorted(res.accepted)]
    accepted = pa.table({
        "sid": pa.array([c.seed_id for c in acc], pa.int32()),
        "url": pa.array([c.url for c in acc], pa.string()),
        "depth": pa.array([c.depth for c in acc], pa.int32()),
        "content_hash": pa.array([c.content_hash for c in acc], pa.string()),
    })
    prop = [cand_of[k] for k in sorted(res.propagate)]
    _write_results(accepted, out_dir, with_intel, blocks)
    _expand(cfg.max_depth, prop, shards, blocks)
    return (counters, states, accepted, mark_keys, list(res.new_hashes),
            fetched_urls)


def _chaos_kill_once(marker_path: str) -> None:
    """Fault injection for chaos tests: atomically create the marker and
    SIGKILL this Ray worker process — exactly once per marker (O_EXCL).
    A no-op outside a Ray worker (the in-process placement)."""
    import os
    import signal

    import ray

    if ray.get_runtime_context().worker.mode != ray.WORKER_MODE:
        return
    try:
        os.close(os.open(marker_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        os.kill(os.getpid(), signal.SIGKILL)
    except FileExistsError:
        pass


def _insert(shards, mark_keys, new_hashes) -> int:
    """Insert marks on their seed's shard (``sid % n``, the frontier's
    routing, parsed from the ``"sid|url"`` key) and content hashes on
    their digest's shard."""
    routed: Dict[int, list] = {}
    for k in mark_keys:
        routed.setdefault(int(k.split("|", 1)[0]) % len(shards), []).append(k)
    call_shards(shards, "insert_marks",
                {s: key_digests(ks) for s, ks in routed.items()})
    pool_insert(shards, new_hashes, "insert_hash")
    return len(mark_keys) + len(new_hashes)


def _commit(cfg: CrawlSettings, shards, mark_keys, new_hashes) -> int:
    """Insert the generation's new marks/hashes into the shards.  Its
    key arguments are the replay's outputs, so it starts only after the
    replay returned; nothing reads the seen-set again until the next
    generation's pop+prep, which waits for this call."""
    n = _insert(shards, mark_keys, new_hashes)
    if cfg.chaos_kill_marker:
        # the nastiest window: seen-set mutated, commit unacknowledged —
        # the retry re-inserts the same keys (idempotent) and returns
        _chaos_kill_once(cfg.chaos_kill_marker + ".commit")
    return n


def _write_results(accepted: pa.Table, out_dir: str, with_intel: bool,
                   blocks: List[pa.Table]) -> None:
    """Write the results partition *out_dir* as one parquet file: the
    rows of the fetched *blocks* whose url the replay accepted (exact
    Arrow matching), without ``links``, with ``depth`` and ``seed_id``
    after the extract columns and, when *with_intel*, the intelligence
    columns after those, sorted by ``(seed_id, url)``.  A retry rewrites
    the same file; no accepted row, no file."""
    shutil.rmtree(out_dir, ignore_errors=True)  # idempotent overwrite
    urls = accepted.column("url")
    kept = [b.drop_columns(["links"]).filter(
                pc.is_in(b.column("url"), value_set=urls)) for b in blocks]
    if not sum(t.num_rows for t in kept):
        return
    rows = pa.concat_tables(kept)
    idx = pc.index_in(rows.column("url"), value_set=urls)
    rows = rows.append_column("depth", accepted.column("depth").take(idx))
    rows = rows.append_column("seed_id", accepted.column("sid").take(idx))
    rows = rows.sort_by([("seed_id", "ascending"), ("url", "ascending")])
    if with_intel:  # accepted rows only: the rest of the fetch is dropped
        rows = intelligence_batch(rows)
    Path(out_dir).mkdir(parents=True)
    pq.write_table(rows, str(Path(out_dir) / "part-0.parquet"))


def _expand(max_depth: int, propagate: List[Candidate], shards,
            blocks: List[pa.Table]) -> None:
    """Stage the links of this generation's propagated pages (depth <
    ``max_depth``) onto their frontier shards (``seed_id % n``), read
    straight from the fetched *blocks* — link bytes flow block → shard,
    never through the driver.  The caller's ``commit_staged()`` applies
    them in canonical order."""
    parents: Dict[str, List[Tuple[int, int]]] = {}
    for c in propagate:
        if c.depth < max_depth:
            parents.setdefault(c.url, []).append((c.seed_id, c.depth + 1))
    n = len(shards)
    routed: Dict[int, list] = {}
    for b in blocks:
        urls = b.column("url").to_pylist()
        hit = pa.array([i for i, u in enumerate(urls) if u in parents],
                       pa.int64())
        for i, links in zip(hit.to_pylist(),
                            b.column("links").take(hit).to_pylist()):
            for sid, d in parents[urls[i]]:
                routed.setdefault(sid % n, []).extend(
                    (sid, d, link) for link in links)
    call_shards(shards, "stage", routed)


def _restore_delta(shards, marks_path: str, hashes_path: str) -> int:
    """Resume: insert one generation's mark and hash delta files into
    the shards, routed as :func:`_commit` routes them (on the actor
    placement, a task — keys never transit the driver)."""
    return _insert(shards, _read_delta(marks_path), _read_delta(hashes_path))


# ── placements ───────────────────────────────────────────────────────────────


class InProcess:
    """One :class:`CrawlShard` in this process; steps are plain calls."""

    def __init__(self, cfg: CrawlSettings) -> None:
        self.frontier = CrawlShard(max_per_seed=cfg.frontier_max_per_seed)
        self.shards = [self.frontier]

    def pop_prep(self, budget, *args) -> list:
        return [self.frontier.pop_prep(budget, *args)]

    def run(self, fn, *args, num_returns: int = 1):
        """``fn(*args)``; a multi-output step returns its tuple, so
        ``num_returns`` needs no handling here."""
        import ray

        refs = [a for a in args if isinstance(a, ray.ObjectRef)]
        vals = iter(ray.get(refs))
        return fn(*(next(vals) if isinstance(a, ray.ObjectRef) else a
                    for a in args))

    def get(self, x):
        return x

    def ref(self, x):
        """An ObjectRef to *x* for the fetch tasks' broadcast argument."""
        import ray

        return ray.put(x)

    def release(self) -> None:
        """Nothing outlives the run in process."""


# Warm state kept for the life of the process: the actor placement's
# idle shard-actor sets by (Ray session, shard count), and the Ray task
# wrappers by (function, options).
_SHARD_SETS: Dict[tuple, ShardedFrontierQueue] = {}
_TASKS: dict = {}


def _remote(fn, **options):
    """*fn*'s Ray task wrapper with *options* and the library's runtime
    env, made once per process."""
    import ray

    from .. import runtime_env

    key = (fn, *sorted(options.items()))
    if key not in _TASKS:
        _TASKS[key] = ray.remote(runtime_env=runtime_env(), **options)(fn)
    return _TASKS[key]


def _session() -> tuple:
    import ray

    ctx = ray.get_runtime_context()
    return ctx.get_node_id(), ctx.get_job_id()


class OnActors:
    """One :class:`CrawlShard` actor per shard — started once per Ray
    session and shard count, reset per run; steps run as Ray tasks.

    A run takes the session's idle set out of the cache and resets it;
    :meth:`release` puts it back once the run has returned.  A set whose
    run raised is never put back: tasks of that run may still be
    calling its actors, so the next run starts a new set, as it does
    when a reset finds a shard actor dead."""

    def __init__(self, cfg: CrawlSettings, n_shards: int) -> None:
        import ray

        session = _session()
        for key in [k for k in _SHARD_SETS if k[0] != session]:
            del _SHARD_SETS[key]  # an earlier Ray session's actors
        frontier = _SHARD_SETS.pop((session, n_shards), None)
        if frontier is not None:
            try:
                ray.get([s.reset.remote(cfg.frontier_max_per_seed)
                         for s in frontier.shard_handles])
            except ray.exceptions.RayActorError:
                frontier = None
        if frontier is None:
            frontier = ShardedFrontierQueue(
                n_shards, max_per_seed=cfg.frontier_max_per_seed,
                shard_cls=CrawlShard)
        self.frontier = frontier
        self.shards = frontier.shard_handles

    def release(self) -> None:
        """Keep this run's shard actors for the session's next run."""
        _SHARD_SETS[(_session(), len(self.shards))] = self.frontier

    def pop_prep(self, budget, *args) -> list:
        """Per shard, the three refs of :meth:`CrawlShard.pop_prep`."""
        return self.frontier.pop_budget_refs(budget, "pop_prep", *args,
                                             num_returns=3)

    def run(self, fn, *args, num_returns: int = 1):
        return _remote(fn, num_cpus=0, num_returns=num_returns).remote(*args)

    def get(self, x):
        import ray

        return ray.get(x)

    def ref(self, x):
        return x
