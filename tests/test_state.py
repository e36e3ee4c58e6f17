"""Exact sharded seen-set: sorted 16-byte key digests per shard."""
import numpy as np
import pytest

from deepwebharvester_ray.state.seen import SeenShard


def test_seen_shard_exact():
    s = SeenShard()
    mask = s.check_and_insert(["a", "b", "a", "c"])
    assert mask.tolist() == [True, True, False, True]
    assert s.contains(["a", "d"]).tolist() == [True, False]
    assert s.insert(["d", "a", "d"]) == 1
    assert s.size() == 4
    assert s.check_and_insert(["d", "e"]).tolist() == [False, True]


def test_seen_shard_exact_at_scale():
    """100k inserted keys, 100k disjoint probes: no false positive, no
    false negative, and exactly 16 stored bytes per distinct key."""
    s = SeenShard()
    n = 100_000
    keys = [f"{i % 512}|http://h{i % 97}.onion/p/{i}" for i in range(n)]
    for lo in range(0, n, 25_000):  # batched, as generations insert
        assert s.insert(keys[lo:lo + 25_000]) == 25_000
    assert s.insert(keys[:1000]) == 0
    assert s.contains(keys).all()
    probe = [f"{i % 512}|http://h{i % 97}.onion/p/{i}"
             for i in range(n, 2 * n)]
    assert not s.contains(probe).any()
    assert s.size() == n
    assert s.keys.dtype == np.dtype("S16")
    assert s.keys.nbytes == s.nbytes() == 16 * n
    assert (s.keys[:-1] < s.keys[1:]).all()  # sorted and distinct


@pytest.mark.usefixtures("ray_session")
def test_seen_pool_sharded():
    import ray

    from deepwebharvester_ray.state.seen import SeenSetPool

    pool = SeenSetPool(num_shards=3)
    keys = [f"k{i}" for i in range(500)]
    assert pool.insert(keys) == 500
    assert pool.contains(keys).all()
    assert pool.insert(keys + ["new1", "new2", "new1"]) == 2
    assert pool.contains(["k0", "new1", "absent"]).tolist() == [
        True, True, False]
    # each key is stored once, on one shard
    assert sum(ray.get([h.size.remote() for h in pool.shard_handles])) == 502
