"""Frontier priority queue (north-rule component: "priority queue").

Holds not-yet-scheduled frontier entries ``(seed_id, depth, url)`` with
deterministic priority ``(depth, url)`` per seed — BFS order first, then
lexicographic URL (the engine's canonical order, SURVEY §2.9).  Supports

* per-seed **budgeted pops** (politeness: schedule at most k URLs per seed
  per generation, defer the rest — the reference instead abandons overflow
  at the ``max_pages`` cutoff, crawler.py:237),
* **bounded capacity** per seed with deterministic worst-first overflow
  drops (bounded per-actor queues from the north star; drops are counted,
  never silent),
* **snapshot / restore** for checkpointing alongside the seen-set shards.

``FrontierQueue`` is the single-process core; ``ShardedFrontierQueue``
wraps it in a Ray actor pool sharded by ``seed_id`` (at 10^10-frontier
scale: by ``hash(host)``, co-partitioned with the corpus buckets so a
shard's pops feed its own fetch partition — SURVEY §7.4).
"""
from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Set, Tuple

import pyarrow as pa
import pyarrow.parquet as pq

from . import call_shards

Entry = Tuple[int, int, str]  # (seed_id, depth, url)


def _entries_to_parquet(rows: List[Entry], path: str) -> None:
    pq.write_table(
        pa.table(
            {
                "seed_id": pa.array([r[0] for r in rows], pa.int32()),
                "depth": pa.array([r[1] for r in rows], pa.int32()),
                "url": pa.array([r[2] for r in rows], pa.string()),
            }
        ),
        path,
    )


def _parquet_to_entries(path: str) -> List[Entry]:
    t = pq.read_table(path)
    return list(
        zip(
            t.column("seed_id").to_pylist(),
            t.column("depth").to_pylist(),
            t.column("url").to_pylist(),
        )
    )


def _sum_pairs(pairs) -> Tuple[int, int]:
    """Shards' ``(size, dropped)`` pairs, summed."""
    sizes, dropped = zip(*pairs)
    return sum(sizes), sum(dropped)


class FrontierQueue:
    """Deterministic per-seed priority queue over frontier entries."""

    def __init__(self, max_per_seed: Optional[int] = None) -> None:
        self._heaps: Dict[int, List[Tuple[int, str]]] = {}
        self._members: Set[Tuple[int, str]] = set()
        self._max = max_per_seed
        self._staged: List[Entry] = []
        self.dropped = 0

    def __len__(self) -> int:
        return sum(len(h) for h in self._heaps.values())

    def push(self, entries: Iterable[Entry]) -> Tuple[int, int]:
        """Push entries; returns ``(size, dropped)``: the queue's length
        and its overflow-drop count after the push."""
        over: Set[int] = set()
        for sid, depth, url in entries:
            key = (sid, url)
            if key in self._members:
                continue  # frontier dedup: first push wins (lowest depth)
            heap = self._heaps.setdefault(sid, [])
            heapq.heappush(heap, (depth, url))
            self._members.add(key)
            if self._max is not None and len(heap) > self._max:
                over.add(sid)
        # Bounded-capacity overflow: trim ONCE per batch per seed.
        # Keeping the max_per_seed SMALLEST of the union is
        # order-independent and equals per-push evict-worst, but costs
        # O(n log n) per batch instead of O(cap) scan + O(cap) heapify
        # per push (quadratic under sustained mega-host ingestion inside
        # a num_cpus=0 control-plane actor).  Callers push canonically
        # sorted batches (commit()/the driver loop), so the shallowest
        # duplicate of a url still wins the first-push dedup above.
        for sid in over:
            srt = sorted(self._heaps[sid])
            keep, drop = srt[: self._max], srt[self._max:]
            self._heaps[sid] = keep  # ascending list IS a valid heap
            for _, u in drop:
                self._members.discard((sid, u))
            self.dropped += len(drop)
        return len(self), self.dropped

    def stage(self, entries: Iterable[Entry]) -> None:
        """Buffer entries for :meth:`commit_staged` (staging calls may
        arrive in any order)."""
        self._staged.extend(tuple(e) for e in entries)

    def commit_staged(self) -> Tuple[int, int]:
        """Push the staged entries in canonical (seed_id, depth, url)
        order — the shallowest discovery of a url wins the first-push
        dedup however the staging calls interleaved.  Returns
        :meth:`push`'s ``(size, dropped)``."""
        staged, self._staged = sorted(self._staged), []
        return self.push(staged)

    def pop_budget(
        self, budget_per_seed: Optional[int] | Dict[int, int] = None
    ) -> List[Entry]:
        """Pop up to *budget_per_seed* entries per seed (all if None), in
        canonical (seed_id, depth, url) order.

        A ``dict`` budget maps seed_id → that seed's budget (politeness
        tokens: a host with crawl-delay D gets ⌊generation_wallclock/D⌋
        scheduled fetches per generation — SURVEY §4); seeds absent from
        the map are unbudgeted.  The budget is enforced HERE, at pop
        time, so on the sharded queue each shard actor paces its own
        hosts without any driver involvement."""
        out: List[Entry] = []
        is_map = isinstance(budget_per_seed, dict)
        for sid in sorted(self._heaps):
            heap = self._heaps[sid]
            b = budget_per_seed.get(sid) if is_map else budget_per_seed
            n = len(heap) if b is None else min(b, len(heap))
            for _ in range(n):
                depth, url = heapq.heappop(heap)
                self._members.discard((sid, url))
                out.append((sid, depth, url))
            if not heap:
                del self._heaps[sid]
        out.sort()
        return out

    def drop_seeds(self, sids: Iterable[int]) -> int:
        """Remove ALL queued entries for the given seeds in one step (an
        exhausted seed's entries can never be scheduled — draining them
        at budget pace would cost O(queue/budget) no-op generations,
        each paying a full frontier checkpoint).  Returns the number
        removed; callers count them as abandoned."""
        n = 0
        for sid in sids:
            heap = self._heaps.pop(sid, None)
            if heap:
                for _, u in heap:
                    self._members.discard((sid, u))
                n += len(heap)
        return n

    def snapshot_list(self) -> List[Entry]:
        out: List[Entry] = []
        for sid, heap in self._heaps.items():
            out.extend((sid, d, u) for d, u in heap)
        out.sort()
        return out

    def restore_list(self, entries: Iterable[Entry]) -> Tuple[int, int]:
        self._heaps.clear()
        self._members.clear()
        return self.push([tuple(e) for e in entries])

    def snapshot_parquet(self, path: str) -> None:
        _entries_to_parquet(self.snapshot_list(), path)

    def restore_parquet(self, path: str) -> Tuple[int, int]:
        return self.restore_list(_parquet_to_entries(path))


class _FrontierShard(FrontierQueue):
    """Actor body of one :class:`ShardedFrontierQueue` shard: the queue
    plus the accessors a remote caller needs."""

    def size(self) -> int:
        return len(self)


class ShardedFrontierQueue:
    """Ray-actor shard pool over :class:`FrontierQueue` (cluster path).

    Sharded by ``seed_id % n_shards``.  The actor body is ``shard_cls``,
    a :class:`_FrontierShard` subclass that may hold more per-shard
    state (the crawl's ``crawl_plane.CrawlShard`` adds its seen-set
    slices).  All actor calls are batched; pops merge-sort across
    shards deterministically.

    **Staged pushes** are the data-plane link-expansion protocol: tasks
    call ``stage()`` on shard handles concurrently (arrival order is
    nondeterministic), and the driver's ``commit_staged()`` barrier has
    each shard apply its staging buffer in canonical sorted order
    (:meth:`FrontierQueue.commit_staged`).  Link entries therefore flow
    worker→shard as batches; the driver sees only counts.

    **Checkpointing is per-shard**: ``snapshot_parquet(path)`` has every
    shard write its own ``<path>.shard<i>`` file — frontier bytes never
    transit the driver (at a 10^10 frontier a driver gather would be the
    dominant checkpoint cost).
    """

    def __init__(self, n_shards: int = 2, max_per_seed: Optional[int] = None,
                 shard_cls: type = _FrontierShard) -> None:
        import ray

        from .. import runtime_env

        actor_cls = ray.remote(num_cpus=0, runtime_env=runtime_env())(
            shard_cls)
        self._n = n_shards
        self._shards = [actor_cls.remote(max_per_seed) for _ in range(n_shards)]

    @property
    def shard_handles(self):
        """Actor handles for tasks to ``stage()`` against (route by
        ``seed_id % n_shards``)."""
        return list(self._shards)

    def _each(self, method: str, *args) -> list:
        import ray

        return ray.get([getattr(s, method).remote(*args) for s in self._shards])

    def push(self, entries: Iterable[Entry]) -> Tuple[int, int]:
        """Push each entry onto its shard (``seed_id % n_shards``);
        returns the shards' ``(size, dropped)`` summed."""
        routed: Dict[int, list] = {s: [] for s in range(self._n)}
        for e in entries:
            routed[e[0] % self._n].append(e)
        return _sum_pairs(call_shards(self._shards, "push", routed).values())

    def commit_staged(self) -> Tuple[int, int]:
        """``(size, dropped)`` summed over the shards."""
        return _sum_pairs(self._each("commit_staged"))

    def snapshot_parquet(self, path: str) -> None:
        import ray

        ray.get([s.snapshot_parquet.remote(f"{path}.shard{i}")
                 for i, s in enumerate(self._shards)])

    def restore_parquet(self, path: str) -> Tuple[int, int]:
        import glob as _glob

        import ray

        files = sorted(_glob.glob(f"{path}.shard*"))
        if len(files) != self._n:
            raise ValueError(
                f"frontier shard count changed across resume: "
                f"{len(files)} snapshot files for {self._n} shards"
            )
        return _sum_pairs(ray.get([
            s.restore_parquet.remote(f"{path}.shard{i}")
            for i, s in enumerate(self._shards)]))

    def _split_budget(self, budget):
        """Route a per-seed budget map to owning shards (whole scalar /
        None passes through) so each RPC carries only its shard's
        entries."""
        if not isinstance(budget, dict):
            return [budget] * self._n
        parts: List[Dict[int, int]] = [{} for _ in range(self._n)]
        for sid, b in budget.items():
            parts[sid % self._n][sid] = b
        return parts

    def pop_budget(
        self, budget_per_seed: Optional[int] | Dict[int, int] = None
    ) -> List[Entry]:
        import ray

        parts = ray.get(self.pop_budget_refs(budget_per_seed))
        return sorted(tuple(e) for part in parts for e in part)

    def pop_budget_refs(
        self, budget_per_seed: Optional[int] | Dict[int, int] = None,
        method: str = "pop_budget", *args, num_returns: int = 1,
    ):
        """Per-shard budgeted pops as ObjectRefs: popped entries never
        transit the driver.  Per-seed budget maps (politeness tokens)
        are enforced INSIDE each shard actor.  *method* names the
        shard's pop — ``pop_budget``, or a ``shard_cls`` method that
        pops and processes its entries in place, called as
        ``method(budget, *args)`` with *num_returns* refs per shard."""
        split = self._split_budget(budget_per_seed)
        return [getattr(s, method).options(num_returns=num_returns).remote(
            b, *args) for s, b in zip(self._shards, split)]

    def __len__(self) -> int:
        return sum(self._each("size"))
