"""Layered configuration: defaults → YAML → env → explicit overrides.

Mirrors the reference's AppConfig layering (config.py:83-123) minus the
live-Tor fields, plus engine-specific knobs (shard counts, batch sizes).
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, Optional

try:
    import yaml
except ImportError:  # pragma: no cover
    yaml = None

# Range of each bounded setting: field → (lower bound, bound exclusive,
# None allowed).  Checked on every construction, so defaults, YAML, env
# and explicit overrides all pass through it.
_LIMITS = {
    "max_depth": (0, False, False),
    "max_pages": (0, False, False),
    "seen_shards": (1, False, False),
    "frontier_shards": (0, False, True),
    "max_fetch_per_gen": (1, False, True),
    "frontier_max_per_seed": (1, False, True),
    "gen_wallclock_s": (0, True, True),
    "extract_batch_size": (1, False, False),
}


@dataclass(frozen=True)
class CrawlSettings:
    """Crawl behavior settings (reference CrawlerConfig, config.py:34-50)."""

    max_depth: int = 2
    max_pages: int = 20
    crawl_delay: float = 7.0        # virtual seconds between fetches per seed
    request_timeout: int = 30
    retry_count: int = 3
    backoff_factor: float = 4.0     # sleep = backoff * 2^(attempt-1)
    renew_circuit_every: int = 10   # identity-epoch cadence (tor_manager.py:131-171)
    renew_pause: float = 5.0        # virtual pause per renewal (tor_manager.py:161)
    blacklist_paths: List[str] = field(
        default_factory=lambda: ["/register", "/login", "/signup", "/auth"]
    )
    # Per-host robots.txt bodies (host → robots.txt text).  Parsed into a
    # RobotsTable (state/robots.py): Allow/Disallow longest-match rules and
    # Crawl-delay politeness overrides.  None → no robots restrictions
    # (reference behavior; its only robots-like rule is blacklist_paths,
    # extractor.py:40-43).
    robots_rules: Optional[Dict[str, str]] = None

    # ── engine knobs (no reference equivalent — Ray-scale parameters) ──────
    # Feeds only the AUTO shard count (frontier_shards=None at or above
    # FRONTIER_AUTO_SEEDS seeds → max(4, seen_shards) shards).  The seen
    # sets live inside the control-state shards (crawl_plane.CrawlShard),
    # so an explicit frontier_shards=N means N shards whatever this says.
    seen_shards: int = 4
    # Priority-queue frontier (state/pqueue.py).  max_fetch_per_gen caps how
    # many URLs each seed schedules per generation (politeness pacing);
    # overflow DEFERS to later generations instead of the reference's
    # abandon-at-budget.  None → schedule everything (reference semantics).
    max_fetch_per_gen: Optional[int] = None
    # Bounded per-seed frontier capacity; worst-first deterministic drops,
    # counted in queue.dropped.  None → unbounded (reference deque).
    frontier_max_per_seed: Optional[int] = None
    # Politeness-paced generations (SURVEY §4: "tokens = generation
    # wallclock / crawl_delay").  When set, each seed's per-generation
    # pop budget becomes max(1, floor(gen_wallclock_s / crawl_delay)) —
    # robots Crawl-delay overrides the default per host — enforced AT
    # POP TIME inside the frontier queue (per shard actor in the actor
    # placement, zero driver involvement), so a slow-delay host is
    # paced while fast hosts proceed.  min-combines with
    # max_fetch_per_gen.  None → uniform max_fetch_per_gen only.
    gen_wallclock_s: Optional[float] = None
    # Where the crawl's control state lives, resolved once per run
    # (pipelines.crawl.frontier_shard_count) and pinned in the checkpoint
    # manifest: N → the actor placement (N CrawlShard actors, each a
    # frontier slice plus its seeds' URL marks and a slice of the content
    # hashes — N shards, N actors; pop + mark filter is one actor call,
    # every other step runs as a Ray task, and links flow fetch block →
    # shard, never through the driver — the 10^10-frontier path, SURVEY
    # §4); 0 → the in-process placement (one in-process CrawlShard; the
    # same steps called directly); None
    # (default) → AUTO: in-process below FRONTIER_AUTO_SEEDS seeds
    # (actor round-trips cost more than they save on a small run),
    # actors at or above it.  Both placements run the same generation
    # body, so results are identical (pinned by test_crawl).
    frontier_shards: Optional[int] = None
    extract_batch_size: int = 128   # pages per Arrow batch in the extract stage
    # Fault injection (chaos tests only; actor placement): path to a
    # marker file.  The replay task SIGKILLs its own worker after
    # computing its results and before its checkpoint delta writes, and
    # the pool-commit task after its seen/hash inserts and before
    # returning — each once per marker (``<marker>.replay`` /
    # ``<marker>.commit``, created atomically).  Ray's task retries
    # must heal the generation with no re-fetches and an unchanged
    # trace (pinned in test_crawl).  None (default) → no injection.
    chaos_kill_marker: Optional[str] = None

    def __post_init__(self) -> None:
        for name, (low, exclusive, optional) in _LIMITS.items():
            v = getattr(self, name)
            if v is None and optional:
                continue
            if v is None or v < low or (exclusive and v == low):
                raise ValueError(
                    f"CrawlSettings.{name} must be "
                    f"{'None or ' if optional else ''}"
                    f"{'>' if exclusive else '>='} {low}, got {v!r}")


def load_settings(
    config_path: Optional[str] = None, **overrides
) -> CrawlSettings:
    """defaults → YAML ``crawler:`` section → env DWH_* → overrides."""
    cfg = CrawlSettings()
    valid = {f.name for f in fields(CrawlSettings)}

    if config_path:
        path = Path(config_path)
        if yaml is None:
            raise RuntimeError(
                f"config file given ({config_path}) but PyYAML is not installed"
            )
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {config_path}")
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh) or {}
        if not isinstance(data, dict):
            raise ValueError(f"config file must be a YAML mapping: {config_path}")
        section = data.get("crawler", data) or {}
        if not isinstance(section, dict):
            raise ValueError(f"'crawler:' section must be a mapping: {config_path}")
        unknown = sorted(set(section) - valid)
        if unknown:
            # a misspelled setting must FAIL, not silently run with the
            # default (max_dept: 3 → a depth-2 crawl nobody asked for)
            raise ValueError(
                f"unknown crawler setting(s) in {config_path}: {unknown}")
        cfg = replace(cfg, **section)

    env_map = {
        "DWH_MAX_DEPTH": ("max_depth", int),
        "DWH_MAX_PAGES": ("max_pages", int),
        "DWH_CRAWL_DELAY": ("crawl_delay", float),
        "DWH_SEEN_SHARDS": ("seen_shards", int),
        "DWH_GEN_WALLCLOCK_S": ("gen_wallclock_s", float),
    }
    env_overrides = {}
    for env, (name, cast) in env_map.items():
        if os.getenv(env):
            env_overrides[name] = cast(os.environ[env])
    if env_overrides:
        cfg = replace(cfg, **env_overrides)

    if overrides:
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise ValueError(f"unknown crawler setting(s): {unknown}")
        cfg = replace(cfg, **overrides)
    return cfg
