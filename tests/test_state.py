"""Cuckoo filter + sharded seen-set pool."""
import numpy as np
import pytest

from deepwebharvester_ray.state.cuckoo import CuckooFilter
from deepwebharvester_ray.state.seen import SeenShard


def test_cuckoo_basic():
    cf = CuckooFilter(capacity=10_000)
    keys = list(range(100, 5000, 7))
    for k in keys:
        assert cf.add(k)
    assert all(cf.contains(k) for k in keys)
    assert len(cf) == len(keys)


def test_cuckoo_fp_rate():
    rng = np.random.default_rng(7)
    cf = CuckooFilter(capacity=50_000)
    present = rng.integers(0, 2**63, 40_000, dtype=np.uint64)
    for k in present:
        cf.add(int(k))
    absent = rng.integers(0, 2**63, 20_000, dtype=np.uint64)
    present_set = set(int(x) for x in present)
    fps = sum(
        1 for k in absent if int(k) not in present_set and cf.contains(int(k))
    )
    # 16-bit fingerprints, 4 slots → expected fp ≈ 0.012%; allow 10x slack
    assert fps / len(absent) < 0.005


def test_cuckoo_vectorized_matches_scalar():
    """_mix_vec is bit-identical to _mix; bulk_add places every key
    retrievably (no false negatives) with the same membership answers
    as scalar adds; contains_batch equals per-key contains including
    near-full filters with a populated stash."""
    from deepwebharvester_ray.state.cuckoo import _mix, _mix_vec

    rng = np.random.default_rng(11)
    keys = rng.integers(0, 2**63, 5_000, dtype=np.uint64)
    assert [_mix(int(k)) for k in keys[:200]] == \
        _mix_vec(keys[:200]).astype(object).tolist()

    # bulk vs scalar filters over the same keys
    bulk = CuckooFilter(capacity=6_000)
    failed = bulk.bulk_add(keys)
    assert failed == 0
    assert bulk.contains_batch(keys).all()
    scalar = CuckooFilter(capacity=6_000)
    for k in keys:
        assert scalar.add(int(k))
    probe = rng.integers(0, 2**63, 5_000, dtype=np.uint64)
    # identical membership answers on a fresh probe set (both filters
    # hold exactly `keys`; fingerprint/bucket derivation is shared)
    assert (bulk.contains_batch(probe)
            == scalar.contains_batch(probe)).all()
    assert [bulk.contains(int(k)) for k in probe[:300]] == \
        bulk.contains_batch(probe[:300]).tolist()

    # overfilled filter: bulk_add reports the spill count, everything
    # it DID accept stays retrievable (no false negatives ever)
    tiny = CuckooFilter(capacity=1_000)
    many = rng.integers(0, 2**63, 20_000, dtype=np.uint64)
    n_failed = tiny.bulk_add(many)
    assert n_failed > 0
    got = tiny.contains_batch(many)
    # at least everything counted as inserted must answer True; the
    # failed ones are the caller's exact-spill responsibility
    assert int(got.sum()) >= len(many) - n_failed


def test_cuckoo_delete_and_snapshot():
    cf = CuckooFilter(capacity=1000)
    cf.add(42)
    assert cf.contains(42)
    st = cf.state()
    assert cf.delete(42)
    assert not cf.contains(42)
    cf.restore(st)
    assert cf.contains(42)


def test_seen_shard_exact():
    s = SeenShard("exact")
    mask = s.check_and_insert(["a", "b", "a", "c"])
    assert mask == [True, True, False, True]
    assert s.contains(["a", "d"]) == [True, False]
    s.insert(["d"])
    assert s.size() == 4
    assert s.snapshot_keys() == ["a", "b", "c", "d"]


def test_seen_shard_cuckoo():
    s = SeenShard("cuckoo", capacity=10_000)
    keys = [f"url-{i}" for i in range(2000)]
    mask = s.check_and_insert(keys)
    assert all(mask)
    assert all(s.contains(keys))
    mask2 = s.check_and_insert(keys[:100])
    assert not any(mask2)


@pytest.mark.usefixtures("ray_session")
def test_seen_pool_sharded(tmp_path):
    from deepwebharvester_ray.state.seen import SeenSetPool

    pool = SeenSetPool(num_shards=3, mode="exact")
    keys = [f"k{i}" for i in range(500)]
    mask = pool.check_and_insert(keys)
    assert mask.all()
    mask2 = pool.check_and_insert(keys + ["new1", "new2"])
    assert mask2.sum() == 2
    assert pool.size() == 502
    # snapshot / restore round-trip
    snap = tmp_path / "snap.parquet"
    pool.snapshot_parquet(str(snap))
    pool2 = SeenSetPool(num_shards=2, mode="exact")  # different shard count OK
    n = pool2.restore_parquet(str(snap))
    assert n == 502
    assert pool2.contains(["k0", "new1", "absent"]).tolist() == [True, True, False]


def test_cuckoo_overfill_no_false_negatives():
    """Kick-loop failures must never drop a resident key (victim stash)."""
    from deepwebharvester_ray.state.cuckoo import CuckooFilter
    from deepwebharvester_ray.urlops import url_hash64

    f = CuckooFilter(capacity=256)
    accepted = []
    for i in range(2000):  # way past capacity → forces kick failures
        h = url_hash64(f"key-{i}")
        if f.add(h):
            accepted.append(h)
    assert len(accepted) > 256  # some inserts landed via stash
    missing = [h for h in accepted if not f.contains(h)]
    assert missing == []


def test_seen_pool_cuckoo_snapshot_restores_filter(ray_session, tmp_path):
    """Cuckoo-mode checkpoint must carry the FILTER contents, not just the
    exact spill set (resume would otherwise re-fetch nearly everything)."""
    from deepwebharvester_ray.state.seen import SeenSetPool

    pool = SeenSetPool(num_shards=2, mode="cuckoo")
    keys = [f"http://h{i % 7}.onion/p/{i}" for i in range(5000)]
    pool.insert(keys)
    path = str(tmp_path / "seen.parquet")
    pool.snapshot_parquet(path)

    restored = SeenSetPool(num_shards=2, mode="cuckoo")
    restored.restore_parquet(path)
    assert restored.contains(keys).all()

    # shard-count change across resume is rejected, not silently wrong
    import pytest as _pytest

    other = SeenSetPool(num_shards=3, mode="cuckoo")
    with _pytest.raises(ValueError):
        other.restore_parquet(path)


def test_cuckoo_low_entropy_keys_spread():
    """Sequential ids below 2^32 must spread across buckets: an unmixed
    high-bits index maps them ALL to bucket 0, collapsing the filter to
    its stash (the degenerate-hash class of the bucketed-layout bug)."""
    from deepwebharvester_ray.state.cuckoo import CuckooFilter

    f = CuckooFilter(capacity=1 << 14)
    keys = list(range(10_000))
    ok = sum(f.add(k) for k in keys)
    assert ok == len(keys), "filter saturated on low-entropy keys"
    assert all(f.contains(k) for k in keys)
    assert f.load_factor < 0.95


def test_seen_insert_spilled_key_not_recounted():
    """insert() must apply the same compound (filter OR exact-spill)
    membership rule as contains()/check_and_insert()."""
    from deepwebharvester_ray.state.seen import SeenShard

    s = SeenShard(mode="cuckoo", capacity=1 << 12)
    s._exact.add("http://spilled.onion/x")  # simulate an earlier spill
    assert s.insert(["http://spilled.onion/x"]) == 0
    assert s.insert(["http://new.onion/y"]) == 1
    assert s.insert(["http://new.onion/y"]) == 0
