"""Per-seed politeness/budget scheduler and the generation replay.

The reference crawls each seed site in its own thread with a sequential
BFS loop (crawler.py:237-265): pop → visited/budget checks → fetch with
retries → content dedup → enqueue links → sleep(crawl_delay) → maybe renew
circuit.  This engine fetches a whole BFS generation in parallel, then
**replays** the reference's sequential control flow over the (already
known) per-URL outcomes in canonical order to reproduce the exact marks,
budget cutoffs, dedup decisions and counters.  Fetch/extract — the
expensive part — stays fully parallel; only the cheap per-candidate
decision loop is sequential.

Canonical order: within a generation, candidates sorted by
``(seed_id, depth, url)`` — depth is uniform in reference-conformance
mode (no fetch budget), where this reduces to the oracle's
``(seed_id, url)``; in budget mode (cfg.max_fetch_per_gen) deferred
entries mix depths and BFS-first is the defined order.  The reference's
own within-generation order is nondeterministic (links pass through a
Python set, extractor.py:85 — SURVEY §2.9), so the engine and its oracle
both define this sorted order as canonical.

Scale note: this replay is O(candidates) pure-Python with no data access,
so every crawl runs ONE replay call per generation — in the driver for
in-process control state, in one Ray task for the actor placement
(pipelines/crawl_plane.py).  Per-seed state is independent except the
global content-hash set; splitting the replay by seed range would pass
that set's within-generation claims link to link, a chain that is
sequential by construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..config import CrawlSettings

# candidate statuses
ABANDONED = "abandoned"      # seed budget exhausted before this pop (never touched)
ALREADY = "already"          # url already marked → silent skip (crawler.py:240)
BLACKLISTED = "blacklisted"  # skipped + counted (crawler.py:167-171)
FAILED = "failed"            # fetch miss after retries (crawler.py:123-153)
DUP = "dup"                  # content hash seen → dropped, links propagate (crawler.py:184-191)
SUCCESS = "success"


@dataclass
class SeedState:
    """Mutable per-seed crawl state (one reference crawl_site thread)."""

    seed_id: int
    seed_url: str
    pages: int = 0              # successful non-dup pages (budget counter, crawler.py:233)
    exhausted: bool = False
    vclock: float = 0.0         # virtual seconds of politeness/backoff/renewal sleeps
    renew_epochs: int = 0       # circuit-renewal count (identity epochs)
    # counters (CrawlStats, crawler.py:46-60, scoped per seed then summed)
    crawled: int = 0
    failed: int = 0
    skipped: int = 0
    deduplicated: int = 0

    def as_dict(self) -> dict:
        return {
            "seed_id": self.seed_id,
            "seed_url": self.seed_url,
            "pages": self.pages,
            "exhausted": self.exhausted,
            "vclock": self.vclock,
            "renew_epochs": self.renew_epochs,
            "crawled": self.crawled,
            "failed": self.failed,
            "skipped": self.skipped,
            "deduplicated": self.deduplicated,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SeedState":
        return cls(**d)


@dataclass
class Candidate:
    """One (seed, url) scheduled this generation, with its fetch outcome."""

    seed_id: int
    url: str
    depth: int
    blacklisted: bool = False
    fetched: bool = False                 # url present in the corpus
    content_hash: Optional[str] = None


@dataclass
class ReplayResult:
    status: List[str]                     # per candidate, canonical order
    new_marks: List[Tuple[int, str]]      # (seed_id, url) marked this generation
    new_hashes: List[str]                 # content hashes claimed this generation
    accepted: Set[Tuple[int, str]]        # successes → CrawlResult rows
    propagate: Set[Tuple[int, str]]       # success+dup → links feed next frontier


def _retry_cost(cfg: CrawlSettings) -> float:
    """Virtual seconds of backoff sleeps for a URL that fails all attempts.

    The reference sleeps after EVERY failed attempt including the last
    (crawler.py:130-146): sum of backoff * 2^(a-1) for a in 1..retry_count.
    """
    return cfg.backoff_factor * ((1 << cfg.retry_count) - 1)


def replay_generation(
    candidates: Sequence[Candidate],
    states: Dict[int, SeedState],
    known_hashes: Set[str],
    cfg: CrawlSettings,
    seed_delays: Optional[Dict[int, float]] = None,
) -> ReplayResult:
    """Sequentially replay one generation's control flow in canonical order.

    *candidates* must be sorted by (seed_id, url) and pre-deduplicated on
    that key; each already carries its fetch outcome.  ``known_hashes``
    holds prior-generation content hashes for the candidates' hashes only
    (queried from the seen-hash actor pool).  Per-seed marks from prior
    generations must already be filtered out (those pops are side-effect
    free: crawler.py:240 ``continue`` without sleep) — candidates here are
    all unmarked.
    """
    gen_hashes: Set[str] = set(known_hashes)
    status: List[str] = []
    new_marks: List[Tuple[int, str]] = []
    new_hashes: List[str] = []
    accepted: Set[Tuple[int, str]] = set()
    propagate: Set[Tuple[int, str]] = set()

    for cand in candidates:
        st = states[cand.seed_id]
        # loop-top budget check (crawler.py:237): once pages == max_pages the
        # seed's thread exits; everything still queued is abandoned unmarked.
        if st.exhausted or st.pages >= cfg.max_pages:
            st.exhausted = True
            status.append(ABANDONED)
            continue

        # mark-at-schedule (crawler.py:242): url consumed whatever happens next
        new_marks.append((cand.seed_id, cand.url))

        if cand.blacklisted:
            st.skipped += 1
            status.append(BLACKLISTED)
        elif not cand.fetched:
            st.failed += 1
            st.vclock += _retry_cost(cfg)
            status.append(FAILED)
        elif cand.content_hash in gen_hashes:
            st.deduplicated += 1
            status.append(DUP)
            propagate.add((cand.seed_id, cand.url))
        else:
            gen_hashes.add(cand.content_hash)
            new_hashes.append(cand.content_hash)
            st.pages += 1
            st.crawled += 1
            accepted.add((cand.seed_id, cand.url))
            propagate.add((cand.seed_id, cand.url))
            status.append(SUCCESS)

        # politeness sleep after every processed pop (crawler.py:264);
        # robots Crawl-delay overrides the default per seed host
        st.vclock += (
            seed_delays.get(cand.seed_id, cfg.crawl_delay)
            if seed_delays
            else cfg.crawl_delay
        )

        # circuit-renewal cadence incl. the reference's re-fire quirk
        # (crawler.py:205-210: fires on every processed pop while the page
        # count sits on a multiple of renew_circuit_every).  Deviation
        # (documented): the count is per-seed, not the reference's racy
        # cross-thread global counter — SURVEY §2.3 ST5.
        if st.pages > 0 and st.pages % cfg.renew_circuit_every == 0:
            st.renew_epochs += 1
            st.vclock += cfg.renew_pause

    return ReplayResult(status, new_marks, new_hashes, accepted, propagate)
