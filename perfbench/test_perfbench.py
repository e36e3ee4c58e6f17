"""Tests of the benchmark's own logic on a 200-page corpus (no Ray).

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import sys
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

N_SMALL = 200


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    corpus_dir = inputs.build_corpus(work, N_SMALL)
    ref = inputs.Reference(inputs.build_reference(work, corpus_dir))
    return corpus_dir, ref, inputs.load_pages(corpus_dir)


# -- percentile support ---------------------------------------------------------


@pytest.mark.parametrize("n, want", [
    (1, [50.0]),
    (99, [50.0]),
    (100, [50.0, 90.0]),
    (999, [50.0, 90.0]),
    (1000, [50.0, 90.0, 99.0]),
    (10_000, [50.0, 90.0, 99.0, 99.9]),
])
def test_percentile_needs_ten_samples_beyond(n, want):
    assert stats.supported_percentiles(n) == want
    xs = list(range(n))
    for q in want[1:]:
        assert sum(x > stats.percentile(xs, q) for x in xs) >= stats.MIN_BEYOND


# -- failure counting -------------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_raises_and_bad_outputs_count_as_failed():
    clock = _FakeClock()

    def run(i):
        clock.t += 1.0
        if i == 1:
            raise RuntimeError("engine died")
        return "bad" if i == 2 else "good"

    tally = stats.measure(run, lambda r: r == "good", seconds=5.5,
                          duration=lambda r: 1.0, clock=clock)
    assert tally.attempted == 5
    assert tally.failed == 2
    assert tally.failed_frac == pytest.approx(0.4)
    assert [it.ok for it in tally.iterations] == [True, False, False, True,
                                                   True]
    assert len(tally.completed()) == 4


def test_check_that_raises_counts_as_failed():
    clock = _FakeClock()

    def run(i):
        clock.t += 1.0
        return i

    def check(r):
        raise KeyError("missing column")

    tally = stats.measure(run, check, seconds=1.5, duration=lambda r: 1.0,
                          clock=clock, min_iterations=2)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_loop_stops_before_a_call_it_cannot_finish():
    clock = _FakeClock()

    def run(i):
        clock.t += 4.0
        return i

    tally = stats.measure(run, lambda r: True, seconds=10.0,
                          duration=lambda r: 4.0, clock=clock)
    assert tally.attempted == 2  # a third call would end at 12 s


# -- output checks ------------------------------------------------------------------


def _engine_scan_output(pages, frontier, out_dir: Path) -> None:
    """What the scan pipeline writes: extract + intelligence per page."""
    from deepwebharvester_ray.extract import extract_batch
    from deepwebharvester_ray.intelligence import intelligence_batch

    out = intelligence_batch(extract_batch(workloads.table_of(pages, frontier)))
    out_dir.mkdir(parents=True, exist_ok=True)
    pq.write_table(out.drop_columns(["links"]), str(out_dir / "part.parquet"))


def test_scan_check_accepts_engine_output_and_detects_perturbation(
        small, tmp_path):
    _, ref, pages = small
    w = workloads.WORKLOADS["extract_scan"]
    frontier = inputs.scan_frontier(7, 50, ref.urls)
    want = workloads.expected(w, {"frontier": frontier}, ref, pages)
    _engine_scan_output(pages, frontier, tmp_path / "out")
    got = workloads.Result(1.0, len(frontier), [1.0],
                           workloads._scan_observed(tmp_path / "out"))
    assert workloads.check(got, want)

    flipped = want["digest"][:-1] + ("0" if want["digest"][-1] != "0" else "1")
    assert not workloads.check(got, dict(want, digest=flipped))

    # one wrong output value is caught too
    t = pq.read_table(str(tmp_path / "out" / "part.parquet"))
    titles = t.column("title").to_pylist()
    titles[3] = titles[3] + "!"
    t = t.set_column(t.schema.get_field_index("title"), "title",
                     pa.array(titles, pa.string()))
    pq.write_table(t, str(tmp_path / "out" / "part.parquet"))
    bad = workloads.Result(1.0, len(frontier), [1.0],
                           workloads._scan_observed(tmp_path / "out"))
    assert not workloads.check(bad, want)


def test_memoized_oracle_matches_plain_oracle(small):
    from deepwebharvester_ray.oracle import crawl_oracle

    _, ref, pages = small
    w = workloads.WORKLOADS["crawl_wide_sharded"]
    seeds = inputs.crawl_seeds(5, 16, n_pages=N_SMALL)
    want = workloads.expected(w, {"seeds": seeds}, ref, pages)
    trace = crawl_oracle(pages, seeds, workloads.settings(w.params))
    assert want["counters"] == {k: trace.stats[k] for k in want["counters"]}
    assert want["digest"] == workloads._crawl_digest(
        w, [(r.url, r.content_hash) for r in trace.results])
    assert want["counters"]["crawled"] > 0


def test_paced_digest_ignores_which_url_wins_a_duplicate():
    wide = workloads.WORKLOADS["crawl_wide_sharded"]
    paced = workloads.WORKLOADS["crawl_paced"]
    a = [("http://x/1", "h1"), ("http://x/2", "h2")]
    b = [("http://x/1", "h1"), ("http://x/9", "h2")]
    assert workloads._crawl_digest(paced, a) == workloads._crawl_digest(paced, b)
    assert workloads._crawl_digest(wide, a) != workloads._crawl_digest(wide, b)


def test_inputs_depend_only_on_seed(small):
    _, ref, _ = small
    assert inputs.scan_frontier(3, 20, ref.urls) == inputs.scan_frontier(
        3, 20, ref.urls)
    assert inputs.scan_frontier(3, 20, ref.urls) != inputs.scan_frontier(
        4, 20, ref.urls)
    assert inputs.make_texts(30) == inputs.make_texts(30)
