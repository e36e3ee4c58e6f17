"""The generation-loop BFS crawl pipeline (SURVEY §7.2 M4).

Every generation runs one body, :func:`_generation`, over the steps in
pipelines/crawl_plane.py:

    pop + prep (mark filter + blacklist/robots, one call per shard)
      → fetch+extract: one Ray task per corpus file of the fetch hosts'
                       buckets: pq.read_table → fetch_extract_task
                       ← url∈fetch-set filter + HTML extract
      → replay (state.scheduler, reference control flow)
          + results write (accepted rows + intelligence → run_dir/results/gen=K, one file)
          + link expansion (staged onto the frontier)
      → commit (seen-set inserts) → commit_staged (staged links, canonical order)
      → checkpoint (seen-set deltas, frontier snapshot, lineage manifest)

A generation runs no Ray Data execution: each fetch task returns one
Arrow table, whose ref goes straight to the replay, the one step that
reads the fetched rows.  The html stays in the worker that read it.

Where the control state lives — in this process, or on Ray actors with
every step a Ray task — is chosen once per run from the frontier shard
count (:func:`frontier_shard_count`) and pinned in the checkpoint
manifest; the generation body does not branch on it, and both placements
produce identical results, counters and lineage digests.

"Fetch" is a partition-pruned lookup join of the scheduled fetch set
against the page corpus (SURVEY §2.4 J3): the set's sorted url-hash array
(and, up to ``SCANNER_CAP``, its URL list) is broadcast once per
generation via ``ray.put`` and deserialized once per worker — never
re-shipped per task.  A URL absent from the corpus is
a fetch failure and is charged the reference's full retry/backoff cost
in virtual time (crawler.py:123-153).

Checkpoint/resume (SURVEY §7.2 M7): every generation writes results +
seen-set deltas + next frontier + scheduler state + a lineage manifest
entry; ``resume=True`` restores the newest complete generation and
continues without re-fetching any URL.
"""
from __future__ import annotations

import hashlib
import json
import logging
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

import pyarrow as pa
import pyarrow.parquet as pq

from ..config import CrawlSettings
from ..corpus import host_bucket_of
from ..extract import extract_batch
from ..intelligence import intelligence_batch
from ..state.robots import RobotsTable
from ..state.scheduler import SeedState
from ..state.scheduler import replay_generation  # noqa: F401  (public name)
from ..urlops import get_host, is_valid_onion_url, normalize_blacklist
from .crawl_plane import (
    SCANNER_CAP,
    InProcess,
    OnActors,
    _commit,
    _fetch_hashes,
    _replay,
    _remote,
    _restore_delta,
    hash_lookup,
)

logger = logging.getLogger(__name__)

# The checkpoint manifest's layout version.  Layout 2: one body for both
# placements, single-file seen-set deltas, ``frontier_shards_resolved``
# always recorded.  Layout 3: two seen-set settings left CrawlSettings
# when the seen-set became exact-only, which changes the config digest.
# Older manifests are refused on resume.
MANIFEST_LAYOUT = 3

# AUTO placement cutoff: at or above this many valid seeds the control
# state moves onto actors (frontier_shards=None picks per this).  The
# same depth-1 crawl on both placements (4 shards, Ray num_cpus=2, one
# session, placements alternated, every call output-checked, 1-core
# box, loadavg 1.6-3.0) took, in process / on actors: at 2,048 seeds
# 21.42 s (the session's first Ray Data call) / 11.39 s (actor start)
# on the first call and 6.96 / 7.76 s warm; at 8,192 seeds 30.31 /
# 31.24 s first and 28.31 / 27.16 s warm.  Warm actors are about at par,
# but a one-shot run (the CLI) pays actor start-up in its only call, so
# the gate stays.
FRONTIER_AUTO_SEEDS = 5_000


def frontier_shard_count(cfg: CrawlSettings, n_valid_seeds: int) -> int:
    """Resolve ``cfg.frontier_shards`` to a shard count: explicit N → N,
    explicit 0 → in-process placement, None → AUTO (actors once the seed
    list is big enough that link expansion shouldn't transit the driver —
    the scale path is the default where scale begins, not an opt-in)."""
    if cfg.frontier_shards is None:
        return (max(4, cfg.seen_shards)
                if n_valid_seeds >= FRONTIER_AUTO_SEEDS else 0)
    return cfg.frontier_shards


# The fetch set is broadcast as a SORTED uint64 array of url_hash64
# values (~8 bytes/URL), deserialized once per worker
# (broadcast.cached_get); membership is one hash_lookup per batch.  A
# hash collision can only admit an extra corpus row into the fetch (the
# replay consumes only scheduled URLs), never drop a scheduled one.


def broadcast_frontier_hashes(urls) -> "object":
    """ray.put a sorted uint64 hash array for *urls* (broadcast once)."""
    import numpy as np
    import ray

    from ..urlops import batch_url_hash64

    return ray.put(np.sort(batch_url_hash64(list(urls))))


def fetch_extract_task(
    batch: pa.Table, hashes_ref=None, with_intel: bool = False,
    drop_links: bool = False,
) -> pa.Table:
    """Fused task-pool fetch → extract (→ intelligence) stage.

    Single pass per batch: vectorized frontier-membership filter, then HTML
    extraction (and optionally the IOC/threat stage) without intermediate
    Arrow materialization between stages (extract_batch +
    intelligence_batch semantics, fused).
    ``drop_links=True`` drops the link-list column in-task (saves an
    inter-stage — potentially cross-node — block handoff when the caller
    doesn't need the frontier expansion).
    """
    from ..broadcast import cached_get

    mask = hash_lookup(cached_get(hashes_ref),
                       batch.column("url").to_pylist())
    if not mask.all():
        batch = batch.filter(pa.array(mask))
    out = extract_batch(batch)
    if with_intel:
        out = intelligence_batch(out)
    if drop_links:
        out = out.drop_columns(["links"])
    return out


@dataclass
class GenerationMetrics:
    generation: int
    candidates: int = 0
    fetched: int = 0
    success: int = 0
    failed: int = 0
    blacklisted: int = 0
    dup: int = 0
    robots_blocked: int = 0
    deferred: int = 0
    abandoned: int = 0
    already: int = 0
    wall_time_s: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class CrawlRun:
    """Handle over a finished (or resumed) crawl."""

    run_dir: str
    results_path: str
    stats: Dict[str, int]
    states: Dict[int, SeedState]
    metrics: List[GenerationMetrics]
    generations: int
    fetched_urls_per_gen: List[Set[str]] = field(default_factory=list)

    def results_dataset(self):
        """The crawl results as a streaming Ray Dataset."""
        import ray

        if not any(Path(self.results_path).rglob("*.parquet")):
            return ray.data.from_arrow(_empty_results_table())
        return ray.data.read_parquet(self.results_path)

    def results_table(self) -> pa.Table:
        files = sorted(str(p) for p in Path(self.results_path).rglob("*.parquet"))
        if not files:
            return _empty_results_table()
        return pa.concat_tables([pq.read_table(f) for f in files], promote_options="default")


def _empty_results_table() -> pa.Table:
    return pa.table(
        {
            "url": pa.array([], pa.string()),
            "site": pa.array([], pa.string()),
            "title": pa.array([], pa.string()),
            "text": pa.array([], pa.large_string()),
            "content_hash": pa.array([], pa.string()),
            "links_found": pa.array([], pa.int32()),
            "crawl_time": pa.array([], pa.float64()),
            "depth": pa.array([], pa.int32()),
            "seed_id": pa.array([], pa.int32()),
        }
    )


def _config_digest(cfg: CrawlSettings, seeds: Sequence[str]) -> str:
    payload = json.dumps({"cfg": asdict(cfg), "seeds": list(seeds)}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _bucket_paths(corpus_dir: str, buckets) -> List[str]:
    """Partition pruning: the corpus files of the given host buckets."""
    paths: List[str] = []
    for b in buckets:
        p = Path(corpus_dir) / f"host_bucket={b}"
        if p.exists():
            paths.extend(sorted(str(f) for f in p.rglob("*.parquet")))
    return paths


def _fetch_file(path: str, batch_size: int, refs) -> pa.Table:
    """Fetch + extract one corpus file: read its ``url, html`` columns —
    through an ``isin`` scanner filter when the generation's URL list
    was broadcast — then :func:`fetch_extract_task` per *batch_size*
    rows.  *refs* nests the broadcast ``(URL list ref or None, fetch-hash
    ref)`` so that Ray does not resolve them: each worker deserializes
    them once (``broadcast.cached_get``).  A file that holds none of the
    fetch set gives an empty table with ``extract_batch``'s schema."""
    import pyarrow.compute as pc

    from ..broadcast import cached_get

    urls_ref, hashes_ref = refs
    t = pq.read_table(path, columns=["url", "html"], filters=(
        None if urls_ref is None
        else pc.field("url").isin(cached_get(urls_ref))))
    return pa.concat_tables([
        fetch_extract_task(t.slice(i, batch_size), hashes_ref)
        for i in range(0, max(t.num_rows, 1), batch_size)])


def _fetch_extract(corpus_dir: str, cfg: CrawlSettings, pl, infos: list,
                   hash_parts: list):
    """Fetch + extract the generation's fetch set from the shards'
    ``pop_prep`` infos and fetch-hash arrays: one :func:`_fetch_file`
    task per corpus file of the fetch hosts' buckets (partition
    pruning), each filtering by the generation's sorted url-hash array.
    Up to :data:`SCANNER_CAP` fetch URLs the URL list is broadcast too,
    and the scanner drops non-fetch rows before their html is read out.
    Returns ``(refs of the fetched tables, fetch digest)``."""
    import ray

    digest, hashes = pl.run(_fetch_hashes, *hash_parts, num_returns=2)
    paths = _bucket_paths(corpus_dir, sorted(
        {host_bucket_of(h) for i in infos for h in i["hosts"]}))
    if not paths:
        return [], digest
    smalls = [i["fetch_urls_small"] for i in infos]
    urls = (None if None in smalls
            else sorted({u for lst in smalls for u in lst}))
    refs = (ray.put(urls) if urls is not None and len(urls) <= SCANNER_CAP
            else None, pl.ref(hashes))
    task = _remote(_fetch_file)
    return ([task.remote(p, cfg.extract_batch_size, refs) for p in paths],
            digest)


def _checkpoint_generation(
    frontier,
    state_root: Path,
    manifest: dict,
    manifest_path: Path,
    metrics: List["GenerationMetrics"],
    states: Dict[int, SeedState],
    gm: "GenerationMetrics",
    gen: int,
    fetch_digest: str,
    size: int,
    dropped: int,
) -> None:
    """Per-generation checkpoint: frontier snapshot (per-shard files on
    the sharded queue — frontier bytes never transit the driver) + the
    O(1)-per-generation lineage manifest entry, atomically renamed.
    The replay step has already written the seen-set deltas."""
    frontier.snapshot_parquet(str(state_root / f"frontier_gen{gen}.parquet"))
    manifest["generations"] = [
        g for g in manifest["generations"] if g["generation"] < gen
    ]
    manifest["generations"].append(
        {
            "generation": gen,
            "complete": True,
            # lineage: digest of the generation's fetch-hash set
            "fetch_digest": fetch_digest,
            "counts": gm.as_dict(),
            "seed_states": {str(k): v.as_dict() for k, v in states.items()},
            "frontier_size": size,
            "frontier_dropped": dropped,
        }
    )
    manifest["metrics"] = [m.as_dict() for m in metrics]
    tmp = manifest_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(manifest, indent=1))
    tmp.rename(manifest_path)


def _generation(
    corpus_dir: str,
    cfg: CrawlSettings,
    pl,
    states: Dict[int, SeedState],
    seed_delays: Dict[int, float],
    blacklist,
    robots: RobotsTable,
    gm: "GenerationMetrics",
    gen: int,
    results_root: Path,
    state_root: Path,
    with_intel: bool,
    on_page_crawled,
    fetched_urls_per_gen: Optional[List[Set[str]]],
    pop_budget,
) -> "object":
    """One generation on placement *pl* (``crawl_plane.InProcess`` or
    ``crawl_plane.OnActors``).  Fills *gm*, updates *states* and the
    frontier, writes the results partition and the seen-set deltas, and
    returns ``(fetch digest, frontier size, frontier dropped)`` — the two
    counts come from the frontier's ``commit_staged()`` (drops since
    this run began)."""
    inactive = frozenset(
        sid for sid, st in states.items()
        if st.exhausted or st.pages >= cfg.max_pages
    )
    # purge + pop + prep is one call per shard, against that shard's own
    # marks (a single whole-generation prep would itself be the
    # bottleneck at scale); CrawlShard.pop_prep says why it purges
    preps = pl.pop_prep(pop_budget, blacklist, robots, inactive)
    infos = pl.get([p[0] for p in preps])
    gm.already = sum(i["already"] for i in infos)
    gm.candidates = sum(i["n_candidates"] for i in infos)

    fetched, digest = _fetch_extract(
        corpus_dir, cfg, pl, infos, [p[1] for p in preps])
    cand_tables = [p[2] for p in preps]
    counters, new_states, accepted, mark_keys, new_hashes, urls = pl.run(
        _replay, states, cfg, seed_delays, pl.shards,
        str(state_root / f"marks_delta_gen{gen}.parquet"),
        str(state_root / f"hashes_delta_gen{gen}.parquet"),
        str(results_root / f"gen={gen}"), with_intel, len(cand_tables),
        *cand_tables, *fetched, num_returns=6)
    committed = pl.run(_commit, cfg, pl.shards, mark_keys, new_hashes)
    counters, new_states, _, digest = pl.get(
        [counters, new_states, committed, digest])
    states.update(new_states)
    gm.fetched = counters["fetched"]
    gm.success = counters.get("success", 0)
    gm.failed = counters.get("failed", 0)
    gm.dup = counters.get("dup", 0)
    gm.robots_blocked = counters.get("robots_blocked", 0)
    gm.blacklisted = counters.get("blacklisted", 0) - gm.robots_blocked
    gm.abandoned = (counters.get("abandoned", 0)
                    + sum(i["abandoned"] for i in infos))
    if fetched_urls_per_gen is not None:
        # O(total pages) driver memory — conformance/test aid only
        fetched_urls_per_gen.append(set(pl.get(urls).to_pylist()))

    if on_page_crawled is not None:
        # per-record callback contract (reference crawler.py:96): a
        # documented driver pull, gated on the hook being installed
        t = pl.get(accepted)
        for sid, u, d, h in sorted(zip(
                t.column("sid").to_pylist(), t.column("url").to_pylist(),
                t.column("depth").to_pylist(),
                t.column("content_hash").to_pylist())):
            on_page_crawled({"url": u, "seed_id": sid, "depth": d,
                             "content_hash": h})
    return (digest, *pl.frontier.commit_staged())


def run_crawl(
    corpus_dir: str,
    seed_urls: Sequence[str],
    cfg: Optional[CrawlSettings] = None,
    run_dir: Optional[str] = None,
    resume: bool = False,
    with_intel: bool = False,
    on_page_crawled=None,
    track_fetched_urls: bool = False,
) -> CrawlRun:
    """Run (or resume) the full BFS crawl over *corpus_dir*.

    Ray must already be initialised by the caller.  One process runs
    one crawl at a time: the actor placement's shard actors are shared
    by every run in the session (``crawl_plane.OnActors``).

    *on_page_crawled* mirrors the reference's per-record callback hook
    (crawler.py:96, fired crawler.py:252-253): called once per ACCEPTED
    page with a dict ``{url, seed_id, depth, content_hash}``, in canonical
    (seed_id, url) order within each generation.  Driver-side and
    metadata-only — the page body stays in the data plane.
    """
    from ..corpus import corpus_digest

    cfg = cfg or CrawlSettings()
    if not any(Path(corpus_dir).glob("host_bucket=*")):
        # a wrong path would otherwise crawl as every page failed
        raise ValueError(
            f"corpus directory {corpus_dir!r} has no host_bucket=* "
            "partitions")
    run_dir = run_dir or f"/tmp/dwh_run_{int(time.time() * 1e6)}"
    run_path = Path(run_dir)
    results_root = run_path / "results"
    state_root = run_path / "state"
    results_root.mkdir(parents=True, exist_ok=True)
    state_root.mkdir(parents=True, exist_ok=True)

    blacklist = normalize_blacklist(cfg.blacklist_paths)
    robots = (
        RobotsTable.from_texts(cfg.robots_rules)
        if cfg.robots_rules
        else RobotsTable()
    )
    digest = _config_digest(cfg, seed_urls)

    # seed validation (crawler.py:293-299); invalid seeds logged, not marked
    valid_seeds = [u for u in seed_urls if is_valid_onion_url(u)]
    dropped = [u for u in seed_urls if not is_valid_onion_url(u)]
    if dropped:
        logger.warning("Dropping %d invalid seed URL(s): %s", len(dropped), dropped[:3])

    # robots Crawl-delay overrides politeness per seed host
    seed_delays = {
        sid: robots.crawl_delay_for(get_host(u), cfg.crawl_delay)
        for sid, u in enumerate(valid_seeds)
    }
    states: Dict[int, SeedState] = {
        sid: SeedState(seed_id=sid, seed_url=u) for sid, u in enumerate(valid_seeds)
    }
    metrics: List[GenerationMetrics] = []

    manifest_path = run_path / "manifest.json"
    manifest = None
    n_shards = frontier_shard_count(cfg, len(valid_seeds))
    if resume and manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        layout = manifest.get("layout", 1)
        if layout != MANIFEST_LAYOUT:
            raise ValueError(
                f"checkpoint manifest layout {layout} cannot be resumed: "
                f"this engine resumes layout {MANIFEST_LAYOUT} only; start "
                "a fresh run")
        if manifest.get("config_digest") != digest:
            raise ValueError("resume config/seeds mismatch with checkpoint manifest")
        if manifest["corpus_digest"] != corpus_digest(corpus_dir):
            raise ValueError(
                "resume corpus mismatch: checkpoint was built from a "
                "different corpus than the one supplied"
            )
        # a checkpoint's control-state placement is part of its state:
        # resume rebuilds the recorded one even if the AUTO gate moved
        n_shards = int(manifest["frontier_shards_resolved"])

    pl = OnActors(cfg, n_shards) if n_shards else InProcess(cfg)
    frontier = pl.frontier
    # the frontier's (size, dropped) is read here once per run; each
    # generation's commit_staged() returns it after that.  The shards
    # count this run's drops; a resume adds the checkpoint's on top.
    size, dropped = frontier.push(
        [(sid, 0, u) for sid, u in enumerate(valid_seeds)])
    prior_dropped = 0

    start_gen = 0
    if manifest is not None:
        complete = [g for g in manifest["generations"] if g.get("complete")]
        if complete:
            last = complete[-1]
            start_gen = last["generation"] + 1
            # replay the per-generation seen-set deltas 0..last (on the
            # actor placement one task per generation: keys never
            # transit the driver — at a 10^10 frontier the cumulative
            # delta set is the frontier itself)
            pl.get([
                pl.run(_restore_delta, pl.shards,
                       str(state_root / f"marks_delta_gen{g}.parquet"),
                       str(state_root / f"hashes_delta_gen{g}.parquet"))
                for g in range(start_gen)
            ])
            states = {
                int(k): SeedState.from_dict(v)
                for k, v in last["seed_states"].items()
            }
            size, restored = frontier.restore_parquet(
                str(state_root / f"frontier_gen{last['generation']}.parquet")
            )
            dropped = int(last["frontier_dropped"])
            prior_dropped = dropped - restored
            metrics = [GenerationMetrics(**m) for m in manifest["metrics"]]
    else:
        # fresh run: purge stale partitions/state a previous (longer or
        # differently-configured) run may have left in this run_dir —
        # results_table() globs every gen=* dir, so leftovers would
        # silently contaminate the output
        for root in (results_root, state_root):
            shutil.rmtree(root)
            root.mkdir(parents=True)
        manifest = {
            "layout": MANIFEST_LAYOUT,
            "config_digest": digest,
            "corpus_dir": corpus_dir,
            "corpus_digest": corpus_digest(corpus_dir),
            # pin the resolved placement: resume must rebuild the SAME
            # shape even if the AUTO cutoff/formula changes later
            "frontier_shards_resolved": n_shards,
            "generations": [],
            "metrics": [],
        }

    # Without a per-generation fetch budget, generation index == BFS depth
    # and the loop ends at max_depth exactly as the reference does; with a
    # budget, deferred entries extend the run (hard safety cap only).
    budgeted = (cfg.max_fetch_per_gen is not None
                or cfg.gen_wallclock_s is not None)
    gen_cap = 1_000_000 if budgeted else cfg.max_depth
    # Politeness token budgets (per-seed pop caps enforced inside the
    # frontier — shard actors on the actor placement): a host with
    # crawl-delay D schedules ⌊gen_wallclock_s / D⌋ fetches/generation.
    if cfg.gen_wallclock_s is not None:
        pop_budget: object = {}
        for _sid, _delay in seed_delays.items():
            _b = max(1, int(cfg.gen_wallclock_s // max(_delay, 1e-9)))
            if cfg.max_fetch_per_gen is not None:
                _b = min(_b, cfg.max_fetch_per_gen)
            pop_budget[_sid] = _b
    else:
        pop_budget = cfg.max_fetch_per_gen
    fetched_urls_per_gen: List[Set[str]] = []
    if start_gen:
        logger.info("Resuming from generation %d (%d frontier entries)",
                    start_gen, size)
    gen = start_gen
    while size and gen <= gen_cap:
        t_gen = time.monotonic()
        gm = GenerationMetrics(generation=gen)
        fetch_digest, size, dropped = _generation(
            corpus_dir, cfg, pl, states, seed_delays, blacklist, robots,
            gm, gen, results_root, state_root, with_intel, on_page_crawled,
            fetched_urls_per_gen if track_fetched_urls else None,
            pop_budget,
        )
        dropped += prior_dropped
        gm.deferred = size
        gm.wall_time_s = time.monotonic() - t_gen
        metrics.append(gm)
        _checkpoint_generation(
            frontier, state_root, manifest, manifest_path, metrics, states,
            gm, gen, fetch_digest, size, dropped)
        gen += 1
    pl.release()

    stats = {
        "sites_crawled": len(states),
        "pages_crawled": sum(s.crawled for s in states.values()),
        "pages_failed": sum(s.failed for s in states.values()),
        "pages_skipped": sum(s.skipped for s in states.values()),
        "pages_deduplicated": sum(s.deduplicated for s in states.values()),
        "frontier_dropped": dropped,
        "generations": gen,
    }
    return CrawlRun(
        run_dir=run_dir,
        results_path=str(results_root),
        stats=stats,
        states=states,
        metrics=metrics,
        generations=gen,
        fetched_urls_per_gen=fetched_urls_per_gen,
    )
