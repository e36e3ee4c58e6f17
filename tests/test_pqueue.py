"""Frontier priority-queue tests: determinism, budgeted pops, bounded
overflow, snapshot/restore, sharded actor pool, and budget-mode crawl."""
from __future__ import annotations

import pytest

from deepwebharvester_ray.state.pqueue import FrontierQueue, ShardedFrontierQueue


def test_bfs_priority_and_dedup():
    q = FrontierQueue()
    q.push([(0, 2, "http://h/z"), (0, 1, "http://h/b"), (0, 1, "http://h/a")])
    q.push([(0, 3, "http://h/a")])  # dup (seed, url) → first push wins
    assert len(q) == 3
    assert q.pop_budget() == [
        (0, 1, "http://h/a"),
        (0, 1, "http://h/b"),
        (0, 2, "http://h/z"),
    ]
    assert len(q) == 0


def test_budgeted_pop_defers():
    q = FrontierQueue()
    q.push([(0, 1, f"http://h/{i}") for i in range(5)])
    q.push([(1, 1, "http://h/x")])
    first = q.pop_budget(2)
    assert [e for e in first if e[0] == 0] == [(0, 1, "http://h/0"), (0, 1, "http://h/1")]
    assert (1, 1, "http://h/x") in first
    assert len(q) == 3  # seed 0's overflow deferred, not dropped
    assert q.dropped == 0


def test_bounded_overflow_drops_worst():
    q = FrontierQueue(max_per_seed=2)
    q.push([(0, 1, "http://h/a"), (0, 2, "http://h/z"), (0, 1, "http://h/b")])
    assert q.dropped == 1
    assert q.pop_budget() == [(0, 1, "http://h/a"), (0, 1, "http://h/b")]


def test_snapshot_restore_roundtrip(tmp_path):
    q = FrontierQueue()
    q.push([(1, 2, "http://h/c"), (0, 1, "http://h/a")])
    path = str(tmp_path / "fq.parquet")
    q.snapshot_parquet(path)
    q2 = FrontierQueue()
    q2.restore_parquet(path)
    assert q2.snapshot_list() == q.snapshot_list()
    assert q2.pop_budget() == [(0, 1, "http://h/a"), (1, 2, "http://h/c")]


def test_sharded_queue(ray_session):
    q = ShardedFrontierQueue(n_shards=2)
    entries = [(sid, 1, f"http://h/{sid}-{i}") for sid in range(4) for i in range(3)]
    q.push(entries)
    assert len(q) == 12
    popped = q.pop_budget(1)
    assert len(popped) == 4 and popped == sorted(popped)
    assert len(q) == 8
    assert q.commit_staged()[1] == 0


def test_push_and_restore_return_size_and_dropped(ray_session, tmp_path):
    """push, commit_staged and restore_parquet return the queue's
    (size, dropped) after the call, summed over every shard on the
    sharded queue — the crawl reads its starting counts from them."""
    import ray

    entries = [(sid, 1, f"http://h/{sid}-{i}") for sid in range(4)
               for i in range(3)]
    for q in (FrontierQueue(max_per_seed=2),
              ShardedFrontierQueue(n_shards=3, max_per_seed=2)):
        assert q.push(entries[:1]) == (1, 0)
        assert q.push(entries) == (8, 4)
        staged = [(0, 0, "http://h/0-first")]  # seed 0 lives on shard 0
        if isinstance(q, FrontierQueue):
            q.stage(staged)
        else:
            ray.get(q.shard_handles[0].stage.remote(staged))
        assert q.commit_staged() == (8, 5)
        path = str(tmp_path / f"{type(q).__name__}.parquet")
        q.snapshot_parquet(path)
        assert q.restore_parquet(path) == (8, 5)


def _snapshot_entries(q, path: str) -> list:
    """The queue's entries, sorted, read back from its parquet snapshot
    (one file, or one per shard on the sharded queue)."""
    import glob

    from deepwebharvester_ray.state.pqueue import _parquet_to_entries

    q.snapshot_parquet(path)
    return sorted(e for f in glob.glob(f"{path}*")
                  for e in _parquet_to_entries(f))


def test_staging_twice_commits_as_staging_once(ray_session, tmp_path):
    """The same entries staged twice (a retried staging task) commit to
    the same (size, dropped) and the same frontier as one staging, on
    bounded queues where staged entries overflow and drop."""
    import ray

    queued = [(sid, 1, f"http://h/{sid}-{i}") for sid in range(4)
              for i in range(2)]
    staged = [(sid, d, f"http://h/{sid}-s{i}") for sid in range(4)
              for d, i in ((2, 0), (1, 1), (2, 2))]
    kept = sorted(queued + [e for e in staged if e[1] == 1])

    def stage(q):
        if isinstance(q, FrontierQueue):
            q.stage(staged)
        else:  # seed s lives on shard s % 3
            ray.get([h.stage.remote([e for e in staged if e[0] % 3 == s])
                     for s, h in enumerate(q.shard_handles)])

    for make in (lambda: FrontierQueue(max_per_seed=3),
                 lambda: ShardedFrontierQueue(n_shards=3, max_per_seed=3)):
        got = []
        for times in (1, 2):
            q = make()
            assert q.push(queued) == (8, 0)
            for _ in range(times):
                stage(q)
            path = str(tmp_path / f"{type(q).__name__}{times}.parquet")
            got.append((q.commit_staged(), _snapshot_entries(q, path)))
        assert got[0] == ((12, 8), kept)
        assert got[1] == got[0]


def test_crawl_budget_mode_defers_not_abandons(ray_session, smoke_corpus, tmp_path):
    """With max_fetch_per_gen set, a seed schedules ≤ k URLs per generation
    and catches up over extra generations: the final results equal the
    unbudgeted run's results (same pages, later generations)."""
    from deepwebharvester_ray.config import CrawlSettings
    from deepwebharvester_ray.corpus import seed_urls
    from deepwebharvester_ray.pipelines.crawl import run_crawl

    seeds = seed_urls(2)
    base = CrawlSettings(max_depth=2, max_pages=20, seen_shards=2)
    paced = CrawlSettings(max_depth=2, max_pages=20, seen_shards=2,
                          max_fetch_per_gen=3)

    ref = run_crawl(smoke_corpus, seeds, base, run_dir=str(tmp_path / "ref"))
    got = run_crawl(smoke_corpus, seeds, paced, run_dir=str(tmp_path / "paced"))

    ref_rows = {
        (r["seed_id"], r["url"], r["content_hash"])
        for r in ref.results_table().select(["seed_id", "url", "content_hash"]).to_pylist()
    }
    got_rows = {
        (r["seed_id"], r["url"], r["content_hash"])
        for r in got.results_table().select(["seed_id", "url", "content_hash"]).to_pylist()
    }
    assert got_rows == ref_rows
    assert got.generations > ref.generations  # pacing stretched the run
    # per-generation fetch cap respected
    for m in got.metrics:
        per_seed = {}
        # candidates per generation per seed ≤ budget (use metrics proxy)
        assert m.candidates <= 3 * 2  # ≤ budget × seeds


def test_drop_seeds_purges_in_one_step():
    from deepwebharvester_ray.state.pqueue import FrontierQueue

    q = FrontierQueue()
    q.push([(1, 2, f"http://a.onion/{i}") for i in range(100)])
    q.push([(2, 1, "http://b.onion/x"), (3, 1, "http://c.onion/y")])
    assert len(q) == 102
    assert q.drop_seeds([1, 7]) == 100  # absent seed is a no-op
    assert len(q) == 2
    # purged urls are re-pushable (members cleaned up)
    q.push([(1, 5, "http://a.onion/0")])
    assert len(q) == 3
    assert (1, 5, "http://a.onion/0") in q.pop_budget()


def test_bounded_overflow_batch_trim_equals_per_push():
    """Batch trim must keep exactly the max_per_seed smallest of the
    union (what per-push evict-worst kept), with dropped counted and
    members of dropped entries released."""
    from deepwebharvester_ray.state.pqueue import FrontierQueue

    q = FrontierQueue(max_per_seed=3)
    ents = [(0, d, f"http://h.onion/{u}") for d, u in
            [(5, "e"), (1, "a"), (4, "d"), (2, "b"), (3, "c")]]
    q.push(ents)
    assert q.dropped == 2
    kept = q.pop_budget()
    assert [e[1] for e in kept] == [1, 2, 3]
    # dropped urls can re-enter later
    q.push([(0, 9, "http://h.onion/e")])
    assert len(q) == 1


def test_per_seed_budget_map_pops():
    """A dict budget paces each seed independently (politeness tokens):
    seed 0 capped at 1/pop, seed 1 at 3, seed 2 unbudgeted."""
    q = FrontierQueue()
    q.push([(s, 1, f"http://h{s}/p{i}") for s in range(3)
            for i in range(5)])
    got = q.pop_budget({0: 1, 1: 3})
    by_seed = {}
    for sid, _, _ in got:
        by_seed[sid] = by_seed.get(sid, 0) + 1
    assert by_seed == {0: 1, 1: 3, 2: 5}
    assert len(q) == 4 + 2  # deferred remainders of seeds 0 and 1
    # next generation continues the pace
    got2 = q.pop_budget({0: 1, 1: 3})
    by2 = {}
    for sid, _, _ in got2:
        by2[sid] = by2.get(sid, 0) + 1
    assert by2 == {0: 1, 1: 2}


def test_sharded_per_seed_budget_enforced_in_shards(ray_session):
    """The budget map routes to owning shard actors and is enforced AT
    POP TIME inside them — pop_budget and pop_budget_refs agree."""
    import ray

    q = ShardedFrontierQueue(3)
    q.push([(s, 1, f"http://h{s}/p{i}") for s in range(6)
            for i in range(4)])
    budgets = {0: 2, 1: 1, 2: 3, 3: 4, 4: 1}  # seed 5 unbudgeted
    got = q.pop_budget(budgets)
    by_seed = {}
    for sid, _, _ in got:
        by_seed[sid] = by_seed.get(sid, 0) + 1
    assert by_seed == {0: 2, 1: 1, 2: 3, 3: 4, 4: 1, 5: 4}

    q2 = ShardedFrontierQueue(3)
    q2.push([(s, 1, f"http://h{s}/p{i}") for s in range(6)
             for i in range(4)])
    parts = ray.get(q2.pop_budget_refs(budgets))
    got2 = sorted(tuple(e) for p in parts for e in p)
    assert got2 == sorted(got)


def test_politeness_tokens_pace_sharded_pops(ray_session, smoke_corpus,
                                             tmp_path):
    """gen_wallclock_s politeness tokens: a host with a robots
    Crawl-delay of 30 s schedules ⌊35/30⌋ = 1 fetch/generation while
    default-delay (7 s) hosts schedule ⌊35/7⌋ = 5 — enforced at pop
    time inside the sharded frontier's actors; pacing changes WHEN
    pages are crawled, never WHAT."""
    from deepwebharvester_ray.config import CrawlSettings
    from deepwebharvester_ray.corpus import seed_urls
    from deepwebharvester_ray.pipelines.crawl import run_crawl
    from deepwebharvester_ray.urlops import get_host

    seeds = seed_urls(4)
    slow = get_host(seeds[0])
    robots = {slow: "User-agent: *\nCrawl-delay: 30\n"}
    base = dict(max_depth=2, seen_shards=2, frontier_shards=2,
                robots_rules=robots)
    full = run_crawl(smoke_corpus, seeds, CrawlSettings(**base),
                     run_dir=str(tmp_path / "full"))
    paced = run_crawl(smoke_corpus, seeds,
                      CrawlSettings(**base, gen_wallclock_s=35.0),
                      run_dir=str(tmp_path / "paced"))
    assert paced.generations > full.generations  # pacing stretched it
    # aggregate per-generation schedule bound: 1 (slow) + 5 × 3 (fast)
    for m in paced.metrics:
        assert m.candidates <= 1 + 5 * 3
    # Pacing reorders cross-seed content-dedup CLAIMS (a duplicate
    # page's winning seed can legitimately change — exactly as the
    # reference's thread timings would), so compare the invariants:
    # the same distinct CONTENT is crawled, the same number of pages,
    # and every aggregate counter matches.
    ref_t = full.results_table().select(["content_hash"])
    got_t = paced.results_table().select(["content_hash"])
    assert (set(got_t.column("content_hash").to_pylist())
            == set(ref_t.column("content_hash").to_pylist()))
    assert got_t.num_rows == ref_t.num_rows
    assert paced.stats == full.stats | {
        "generations": paced.stats["generations"]}
