"""Sharded seen-set: the crawl's cross-generation membership state.

Replaces the reference's lock-guarded in-process sets
(``Crawler._global_hashes`` crawler.py:111-112 for content dedup,
per-site ``crawled`` crawler.py:230 for URL marks) with a pool of Ray
shards keyed by a stable 64-bit key hash: in-process :class:`SeenShard`
objects or Ray actors (:class:`SeenSetPool`).  All calls are **batched**:
:func:`pool_contains` / :func:`pool_insert` group a generation's keys by
shard and make one call per shard (SURVEY §2.3 ST1/ST2).

Modes:

* ``exact``  — per-shard Python set of keys (strings).  Used for
  conformance runs; memory O(keys).
* ``cuckoo`` — per-shard :class:`CuckooFilter` over 64-bit key hashes,
  with an exact spill set for keys the filter cannot place (filter-full).
  Approximate-membership semantics (SURVEY §7.5 hard part 4, quantified
  alternative): a false positive (rate ≈ 0.012%, tests/test_state.py
  measures it) makes the engine treat an unseen URL as seen and skip it —
  a bounded, quantified URL-loss rate.  False NEGATIVES never occur (the
  filter stashes kick-failure victims).  This is the 10^10-scale path:
  ~2 bytes/key instead of ~100.
"""
from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..urlops import url_hash64
from . import call_shards
from .cuckoo import CuckooFilter


class SeenShard:
    """One shard's membership state (plain class; wrapped as a Ray actor)."""

    def __init__(self, mode: str = "exact", capacity: int = 1 << 20) -> None:
        assert mode in ("exact", "cuckoo")
        self.mode = mode
        self._exact: set = set()
        self._cuckoo = CuckooFilter(capacity) if mode == "cuckoo" else None

    # keys arrive as a list of strings (urls / hex hashes / scoped keys)
    def contains(self, keys: List[str]) -> List[bool]:
        if self.mode == "exact":
            s = self._exact
            return [k in s for k in keys]
        out = []
        for k in keys:
            h = url_hash64(k)
            out.append(self._cuckoo.contains(h) or k in self._exact)
        return out

    def insert(self, keys: List[str]) -> int:
        """Insert keys; returns number newly inserted (exact mode)."""
        if self.mode == "exact":
            before = len(self._exact)
            self._exact.update(keys)
            return len(self._exact) - before
        n = 0
        for k in keys:
            h = url_hash64(k)
            # compound membership — same rule as contains()/
            # check_and_insert(): a previously-SPILLED key must not be
            # re-counted as new or re-added to the filter
            if not (self._cuckoo.contains(h) or k in self._exact):
                if not self._cuckoo.add(h):
                    self._exact.add(k)  # filter full → exact spill
                n += 1
        return n

    def check_and_insert(self, keys: List[str]) -> List[bool]:
        """Atomic membership-test-then-insert; True where the key was NEW.

        Duplicate keys within the batch: first occurrence wins (matches the
        reference's sequential check-then-add under lock, crawler.py:184-191).
        """
        out = []
        if self.mode == "exact":
            s = self._exact
            for k in keys:
                if k in s:
                    out.append(False)
                else:
                    s.add(k)
                    out.append(True)
            return out
        for k in keys:
            h = url_hash64(k)
            if self._cuckoo.contains(h) or k in self._exact:
                out.append(False)
            else:
                if not self._cuckoo.add(h):
                    self._exact.add(k)
                out.append(True)
        return out

    def size(self) -> int:
        if self.mode == "exact":
            return len(self._exact)
        return len(self._cuckoo) + len(self._exact)

    # -- snapshot / restore (checkpointing) ---------------------------------
    def snapshot_keys(self) -> List[str]:
        """Exact-set keys only (full state incl. filter: snapshot_state)."""
        return sorted(self._exact)

    def restore_keys(self, keys: List[str]) -> None:
        if self.mode == "exact":
            self._exact.update(keys)
            return
        # cuckoo mode: keys live in the FILTER (that is the memory bound);
        # only filter-full overflow spills to the exact set
        for k in keys:
            if not self._cuckoo.add(url_hash64(k)):
                self._exact.add(k)

    def snapshot_state(self) -> dict:
        """Complete shard state: exact keys + (cuckoo mode) filter state."""
        return {
            "exact": sorted(self._exact),
            "cuckoo": self._cuckoo.state() if self._cuckoo is not None else None,
        }

    def restore_state(self, state: dict) -> None:
        self._exact = set(state["exact"])
        if self.mode == "cuckoo" and state.get("cuckoo") is not None:
            self._cuckoo.restore(state["cuckoo"])


def _route(keys: Sequence[str], n: int) -> Dict[int, List[int]]:
    """Key positions by owning shard: ``url_hash64(key) % n``."""
    if n == 1:
        return {0: list(range(len(keys)))} if len(keys) else {}
    groups: Dict[int, List[int]] = {}
    for i, k in enumerate(keys):
        groups.setdefault(url_hash64(k) % n, []).append(i)
    return groups


def _scatter_gather(shards, method: str, keys: Sequence[str]) -> List:
    """One batched ``method`` call per owning shard; per-key results in
    key order (None where the method returns a count, not a list)."""
    keys = list(keys)
    groups = _route(keys, len(shards))
    res = call_shards(shards, method, {
        s: [keys[i] for i in idxs] for s, idxs in groups.items()})
    out: List = [None] * len(keys)
    for s, vals in res.items():
        if isinstance(vals, list):
            for i, v in zip(groups[s], vals):
                out[i] = v
    return out


def pool_contains(shards, keys: Sequence[str]) -> np.ndarray:
    """Batched membership over seen shards — in-process
    :class:`SeenShard` objects or their actor handles."""
    return np.array(_scatter_gather(shards, "contains", keys), dtype=bool)


def pool_insert(shards, keys: Sequence[str]) -> None:
    _scatter_gather(shards, "insert", keys)


class SeenSetPool:
    """Driver-side handle over N SeenShard actors, routed by key hash.

    ``num_shards`` should be O(cluster cores / 4) on a real cluster so no
    single actor bottlenecks an all-to-all generation barrier; each RPC
    carries that shard's whole key batch.
    """

    def __init__(self, num_shards: int = 4, mode: str = "exact",
                 capacity_per_shard: int = 1 << 20) -> None:
        import ray

        from .. import runtime_env

        self._n = num_shards
        # num_cpus=0: these are tiny metadata actors (a hash set + filter); a
        # fractional CPU reservation can consume the whole logical-CPU
        # budget on small clusters and DEADLOCK the data plane (read tasks
        # never schedule).  Control plane must never starve the data plane.
        actor_cls = ray.remote(num_cpus=0, runtime_env=runtime_env())(SeenShard)
        self._shards = [
            actor_cls.remote(mode, capacity_per_shard) for _ in range(num_shards)
        ]

    @property
    def shard_handles(self):
        """Actor handles for tasks to pass to :func:`pool_contains` /
        :func:`pool_insert` directly."""
        return list(self._shards)

    def contains(self, keys: Sequence[str]) -> np.ndarray:
        return pool_contains(self._shards, keys)

    def check_and_insert(self, keys: Sequence[str]) -> np.ndarray:
        return np.array(
            _scatter_gather(self._shards, "check_and_insert", keys),
            dtype=bool)

    def insert(self, keys: Sequence[str]) -> None:
        pool_insert(self._shards, keys)

    def size(self) -> int:
        import ray

        return sum(ray.get([s.size.remote() for s in self._shards]))

    # -- checkpoint ----------------------------------------------------------
    def snapshot_parquet(self, path: str) -> None:
        """Write complete pool state: exact keys in the parquet, plus (in
        cuckoo mode) a per-shard filter-state sidecar ``<path>.cuckoo.npz``
        — without the sidecar the filter contents (where nearly every key
        lives) would be lost across resume."""
        import ray

        states = ray.get([s.snapshot_state.remote() for s in self._shards])
        keys: List[str] = []
        for st in states:
            keys.extend(st["exact"])
        keys.sort()
        pq.write_table(pa.table({"key": pa.array(keys, pa.string())}), path)
        if any(st["cuckoo"] is not None for st in states):
            arrays: Dict[str, np.ndarray] = {"n_shards": np.array([self._n])}
            for i, st in enumerate(states):
                cs = st["cuckoo"]
                arrays[f"table_{i}"] = cs["table"]
                arrays[f"count_{i}"] = np.array([cs["count"]])
                arrays[f"stash_{i}"] = np.array(
                    cs["stash"], dtype=np.int64
                ).reshape(-1, 2)
            np.savez_compressed(path + ".cuckoo.npz", **arrays)

    def restore_parquet(self, path: str) -> int:
        import os

        import ray

        keys = pq.read_table(path).column("key").to_pylist()
        sidecar = path + ".cuckoo.npz"
        if os.path.exists(sidecar):
            data = np.load(sidecar)
            if int(data["n_shards"][0]) != self._n:
                raise ValueError(
                    "seen-set shard count changed across resume; "
                    "cannot restore cuckoo filter state"
                )
            groups = _route(keys, self._n)
            futs = []
            for i in range(self._n):
                state = {
                    "exact": [keys[j] for j in groups.get(i, [])],
                    "cuckoo": {
                        "table": data[f"table_{i}"],
                        "count": int(data[f"count_{i}"][0]),
                        "stash": data[f"stash_{i}"].tolist(),
                    },
                }
                futs.append(self._shards[i].restore_state.remote(state))
            ray.get(futs)
            return len(keys)
        _scatter_gather(self._shards, "restore_keys", keys)
        return len(keys)
