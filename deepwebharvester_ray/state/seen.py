"""Sharded seen-set: the crawl's cross-generation membership state.

Replaces the reference's lock-guarded in-process sets
(``Crawler._global_hashes`` crawler.py:111-112 for content dedup,
per-site ``crawled`` crawler.py:230 for URL marks) with a pool of
shards: in-process :class:`SeenShard` objects or Ray actors
(:class:`SeenSetPool`).  All calls are **batched**: :func:`pool_contains`
/ :func:`pool_insert` group a generation's keys by shard and make one
call per shard (SURVEY §2.3 ST1/ST2).

One exact representation: each key (a url mark, a content hash) is hashed
once to a 16-byte blake2b digest (:func:`key_digests`), and a shard keeps
its digests in one sorted numpy ``S16`` array — 16 bytes per key, probed
with one vectorized ``searchsorted`` per batch.  The digest's first 8
bytes route the key to its shard.  Membership is exact up to a 128-bit
collision: at 10^10 keys the expected number of colliding pairs is about
n²/2^129 ≈ 10^-19.
"""
from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Union

import numpy as np

from . import call_shards

Keys = Union[Sequence[str], np.ndarray]


def key_digests(keys: Keys) -> np.ndarray:
    """16-byte blake2b digest of each key, as an ``S16`` array (an ``S16``
    array is taken as already hashed)."""
    if isinstance(keys, np.ndarray) and keys.dtype == np.dtype("S16"):
        return keys
    b2 = hashlib.blake2b
    return np.frombuffer(
        b"".join(b2(k.encode("utf-8"), digest_size=16).digest()
                 for k in keys), "S16")


class SeenShard:
    """One shard's membership state (plain class; wrapped as a Ray actor):
    the sorted, distinct digests of every key inserted so far.

    Each method takes key strings or their :func:`key_digests`."""

    def __init__(self) -> None:
        self.keys = np.empty(0, "S16")

    def contains(self, keys: Keys) -> np.ndarray:
        d = key_digests(keys)
        i = np.searchsorted(self.keys, d)
        hit = i < len(self.keys)
        hit[hit] = self.keys[i[hit]] == d[hit]
        return hit

    def insert(self, keys: Keys) -> int:
        """Insert keys; returns the number newly inserted."""
        d = np.unique(key_digests(keys))
        d = d[~self.contains(d)]
        self.keys = np.insert(self.keys, np.searchsorted(self.keys, d), d)
        return len(d)

    def check_and_insert(self, keys: Keys) -> np.ndarray:
        """Atomic membership-test-then-insert; True where the key was NEW.

        Duplicate keys within the batch: first occurrence wins (matches the
        reference's sequential check-then-add under lock, crawler.py:184-191).
        """
        d = key_digests(keys)
        new = np.zeros(len(d), bool)
        new[np.unique(d, return_index=True)[1]] = True
        new &= ~self.contains(d)
        self.insert(d[new])
        return new

    def size(self) -> int:
        return len(self.keys)

    def nbytes(self) -> int:
        return int(self.keys.nbytes)


def _route(d: np.ndarray, n: int) -> Dict[int, np.ndarray]:
    """Digest positions by owning shard: the first 8 digest bytes, as a
    little-endian uint64, mod ``n``."""
    if n == 1:
        return {0: np.arange(len(d))} if len(d) else {}
    owner = np.ascontiguousarray(d).view("<u8")[::2] % np.uint64(n)
    return {int(s): np.flatnonzero(owner == s) for s in np.unique(owner)}


def _scatter(shards, method: str, keys: Keys):
    """Hash and route *keys*, then one batched ``method`` call per owning
    shard.  Returns ``(positions by shard, results by shard)``."""
    d = key_digests(keys)
    groups = _route(d, len(shards))
    return groups, call_shards(
        shards, method, {s: d[idx] for s, idx in groups.items()})


def pool_contains(shards, keys: Keys, method: str = "contains"
                  ) -> np.ndarray:
    """Batched membership over seen shards — in-process objects or their
    actor handles; *method* names the shard's membership call."""
    groups, res = _scatter(shards, method, keys)
    out = np.zeros(len(keys), bool)
    for s, idx in groups.items():
        out[idx] = res[s]
    return out


def pool_insert(shards, keys: Keys, method: str = "insert") -> int:
    """Batched insert; returns the number of keys newly inserted."""
    return sum(_scatter(shards, method, keys)[1].values())


class SeenSetPool:
    """Driver-side handle over N SeenShard actors, routed by key digest.

    ``num_shards`` should be O(cluster cores / 4) on a real cluster so no
    single actor bottlenecks an all-to-all generation barrier; each RPC
    carries that shard's whole digest batch.
    """

    def __init__(self, num_shards: int = 4) -> None:
        import ray

        from .. import runtime_env

        # num_cpus=0: these are tiny metadata actors (one sorted array); a
        # fractional CPU reservation can consume the whole logical-CPU
        # budget on small clusters and DEADLOCK the data plane (read tasks
        # never schedule).  Control plane must never starve the data plane.
        actor_cls = ray.remote(num_cpus=0, runtime_env=runtime_env())(SeenShard)
        self._shards = [actor_cls.remote() for _ in range(num_shards)]

    @property
    def shard_handles(self) -> List:
        """Actor handles for tasks to pass to :func:`pool_contains` /
        :func:`pool_insert` directly."""
        return list(self._shards)

    def contains(self, keys: Keys) -> np.ndarray:
        return pool_contains(self._shards, keys)

    def insert(self, keys: Keys) -> int:
        return pool_insert(self._shards, keys)
