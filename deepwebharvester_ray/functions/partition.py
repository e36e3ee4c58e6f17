"""Skew handling: salted repartitioning for hot keys.

North-star requirement: "skew from mega-hosts is handled by salted
repartitioning of the frontier and bounded per-actor queues".  Bounded
queues live in state/pqueue.py; this module provides the salting side.

The pattern: a handful of keys (mega-hosts) dominate row counts, so any
key-partitioned stage (per-host fetch gateways, per-host politeness
scheduling, a key-grouped aggregate) would serialize on them.  Salting
splits each hot key's rows across ``n_salts`` sub-partitions via a stable
per-row hash; downstream stages key on ``(key, salt)`` instead of ``key``
alone.  Per-host ORDERING guarantees are preserved by keeping salting off
the control-plane scheduler (which stays strictly per-host) and applying
it only to order-free stages (fetch/extract/aggregate) — SURVEY §4 skew
row.
"""
from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
import pyarrow as pa

from .. import runtime_env
from ..broadcast import cached_get
from ..urlops import batch_url_hash64


def pa_type_of(t):
    """Arrow type from a Dataset.schema() entry — which reports a numpy
    dtype for pandas-block datasets (object dtype → string payload).
    Shared by the as-of and interval join operators."""
    if isinstance(t, pa.DataType):
        return t
    try:
        return pa.from_numpy_dtype(t)
    except (pa.ArrowNotImplementedError, pa.ArrowInvalid, TypeError):
        return pa.string()


def coalesce_by_bytes(ds, target_bytes: int = 32 << 20):
    """Materialize *ds* and coalesce to ``ceil(bytes / target_bytes)``
    blocks when the current block count is more than 2× that.

    Guard for partitioned parquet writes (``partition_cols``): the writer
    emits one file per (block × partition-value), so a small dataset Ray
    split into hundreds of execution blocks explodes into hundreds of
    KB-sized files per cell — and every later probed read pays one file
    open per fragment.  Sizing blocks by DATA bytes (the same discipline
    as the query layer's ``_shuffle_parts``) keeps output files at
    ~``target_bytes`` regardless of the executor's block count, at any
    scale: a 100 TB corpus still writes thousands of full-sized files
    per cell, a 4 MB test table writes one."""
    ds = ds.materialize()
    nbytes = ds.size_bytes() or 0
    want = max(1, -(-nbytes // target_bytes))
    try:
        have = ds.num_blocks()
    except Exception:
        return ds.repartition(want)
    if have > 2 * want:
        return ds.repartition(want)
    return ds


def tree_merge_blobs(parts, column: str, merge, fanin: int = 8):
    """Associative tree-reduce over a Dataset of fixed-size binary
    partials (bloom bitmaps, CMS matrices, any mergeable sketch blob):
    repeated ``map_batches(batch_size=fanin)`` levels merge ``fanin``
    blobs per TASK until ≤ ``fanin`` rows remain, which the driver
    folds.  No single process ever holds O(blocks) blobs — the r03
    VERDICT fix for the sequential ``iter_rows`` driver reduce: at
    100× block counts the old fold serialized every 1 MiB bitmap
    through one process; here each level is embarrassingly parallel
    and the reduction depth is log_fanin(blocks).

    ``merge`` is ``fn(list[bytes]) -> bytes`` and must be associative
    and commutative (bitwise OR, elementwise sum) so the tree shape is
    irrelevant — results stay bit-identical to any sequential fold.
    Returns the merged blob, or ``None`` for an empty input."""

    def level(batch: pa.Table) -> pa.Table:
        blobs = batch.column(column).to_pylist()
        return pa.table(
            {column: pa.array([merge(blobs)], pa.large_binary())})

    parts = parts.materialize()
    n = parts.count()
    while n > fanin:
        parts = parts.map_batches(
            level, batch_format="pyarrow", batch_size=fanin,
            runtime_env=runtime_env(),
        ).materialize()
        new_n = parts.count()
        if new_n >= n:  # bundling made no progress; driver-fold the rest
            break
        n = new_n
    final = [row[column] for row in parts.iter_rows()]
    return merge(final) if final else None


def coalesce_nonempty(ds, rows_per_block: int = 65536):
    """Materialize *ds* and ensure NO block is empty; returns ``None``
    for a 0-row dataset.

    Guard for Ray 2.49's hash-shuffle JOIN: an empty Arrow block in
    either join input reaches the per-partition aggregator as a
    zero-column table and acero fails with "No match … for key field".
    Sparse datasets (candidate pairs behind a sort, a previous join's
    output) routinely carry empty blocks; callers must coalesce them
    before joining.

    The emptiness check is metadata-only on the materialized dataset —
    the (common) all-blocks-nonempty case pays no extra pass.  Otherwise
    repartition(ceil(rows / rows_per_block)) splits rows evenly, so
    every block is non-empty."""
    ds = ds.materialize()
    n = ds.count()
    if n == 0:
        return None
    try:
        sizes = [
            meta.num_rows
            for bundle in ds.iter_internal_ref_bundles()
            for meta in bundle.metadata
        ]
        if sizes and all(s and s > 0 for s in sizes):
            return ds
    except Exception:  # metadata unavailable → take the safe path
        pass
    return ds.repartition(max(1, -(-n // rows_per_block)))


def add_salt_column(
    batch: pa.Table,
    key_column: str,
    hot_keys_ref=None,
    hot_keys: Optional[frozenset] = None,
    salt_column: str = "salt",
    n_salts: int = 8,
    row_id_column: Optional[str] = None,
) -> pa.Table:
    """Append ``salt`` ∈ [0, n_salts): stable per-row hash for hot keys,
    0 for everything else (cold keys keep a single partition)."""
    hot = hot_keys if hot_keys is not None else (
        cached_get(hot_keys_ref) if hot_keys_ref is not None else frozenset()
    )
    keys = batch.column(key_column).to_pylist()
    if row_id_column is not None:
        # stable per-row identity (e.g. url) → globally uniform salts
        basis = [str(x) for x in batch.column(row_id_column).to_pylist()]
    else:
        # fallback: per-batch index.  Only uniform when blocks are large;
        # pass row_id_column whenever a natural row id exists.
        basis = [f"{k}#{i}" for i, k in enumerate(keys)]
    hashes = batch_url_hash64(basis)
    salts = (hashes % np.uint64(n_salts)).astype(np.int32)
    is_hot = np.fromiter((k in hot for k in keys), dtype=bool, count=len(keys))
    salts = np.where(is_hot, salts, 0).astype(np.int32)
    return batch.append_column(salt_column, pa.array(salts, pa.int32()))


def detect_hot_keys(ds, key_column: str, threshold_fraction: float = 0.05):
    """Keys holding more than *threshold_fraction* of all rows.

    Fully distributed census: the combiner grouped count stays in the
    cluster (O(distinct keys) rows — a 10^10-URL frontier has ~10^7
    hosts, which must never land on the driver), the total is the count
    table's own sum, and only the ≤ 1/threshold_fraction hot keys
    themselves reach the driver.  ``n > floor(total·f)`` on integer
    counts is exactly the strict ``n/total > f`` rule."""
    from .agg import grouped_agg

    counts = grouped_agg(ds.select_columns([key_column]), [key_column],
                         [("n", "", "count")]).materialize()
    total = counts.sum("n") or 0
    if total == 0:
        return frozenset()
    cutoff = int(total * threshold_fraction)
    return frozenset(
        r[key_column]
        for r in counts.filter(expr=f"n > {cutoff}").take_all()
    )


def salted_repartition(
    ds,
    key_column: str,
    hot_keys: Iterable[str],
    n_salts: int = 8,
    row_id_column: Optional[str] = None,
):
    """Repartition *ds* by ``(key, salt)`` so each hot key spreads across
    ``n_salts`` partitions.  Returns the salted Dataset (with the salt
    column kept for downstream ``groupby([key, salt])`` stages)."""
    import ray

    hot_ref = ray.put(frozenset(hot_keys))
    salted = ds.map_batches(
        lambda b: add_salt_column(
            b, key_column, hot_keys_ref=hot_ref, n_salts=n_salts,
            row_id_column=row_id_column,
        ),
        batch_format="pyarrow",
        runtime_env=runtime_env(),
    )
    return salted


# Below this many FACT rows (the census total — measured, no extra
# pass) the cold half routes through the sort-merge join instead of
# the native hash join: one range-partitioned sort, no per-query
# aggregator-actor ramp (~1-3 s per native join at small scale,
# CLAUDE.md).  Above it, the hash exchange amortizes its ramp and
# avoids the sort.
SKEW_COLD_MERGE_CUTOFF = 20_000_000


def skew_join(
    left,
    right,
    left_key: str,
    right_key: str,
    hot_fraction: float = 0.01,
    num_partitions: int = 8,
    cold_strategy: str = "auto",
):
    """INNER equi-join of a fact table against a UNIQUE-KEYED dimension,
    robust to hot fact keys (the web-scale reality: one mega-host /
    power-law user owns a double-digit share of the rows, and a plain
    hash-shuffle join lands that entire share on one join partition).

    Plan:

    * exact hot census, fully distributed — one combiner grouped count
      (``grouped_agg`` — the count table never lands on the driver) and
      a filter at ``hot_fraction`` of the measured total; only the ≤
      ``1/hot_fraction`` hot keys themselves reach the driver;
    * HOT rows join map-side: the dimension rows for hot keys (≤ #hot
      rows, since the dimension is unique-keyed) broadcast once and
      attach via vectorized ``searchsorted`` inside ``map_batches`` —
      the hot share never enters a shuffle;
    * COLD rows join by a size-gated strategy (``cold_strategy``):
      ``"auto"`` picks the sort-merge join below
      :data:`SKEW_COLD_MERGE_CUTOFF` measured fact rows (no
      aggregator-actor ramp) and the native hash-shuffle join above
      (inputs routed through ``coalesce_nonempty`` per the empty-block
      join rule); ``"merge"`` / ``"hash"`` force a path (tests);
    * union of the two halves, schemas aligned by column selection.

    The dimension must be unique on ``right_key`` (asserted against the
    hot subset); payload columns are every non-key column of ``right``.
    """
    import ray

    from .agg import grouped_agg

    # the census table is materialized once and yields BOTH the total
    # (its sum — no separate full pass over the fact table) and the hot
    # set; it stays distributed (O(distinct keys) rows, never the corpus)
    counts = grouped_agg(left.select_columns([left_key]), [left_key],
                         [("n", "", "count")]).materialize()
    total = counts.sum("n") or 0
    cutoff = int(total * hot_fraction)
    hot = sorted(
        r[left_key] for r in counts.filter(expr=f"n > {cutoff}").take_all()
    )
    payload_cols = None

    if hot:
        hot_arr = np.asarray(hot, dtype=np.int64)
        hot_ref = ray.put(hot_arr)

        def dim_mask(batch: pa.Table) -> pa.Table:
            keys = batch.column(right_key).combine_chunks().to_numpy(
                zero_copy_only=False)
            h = cached_get(hot_ref)
            pos = np.searchsorted(h, keys)
            pos[pos >= len(h)] = len(h) - 1
            return batch.filter(pa.array(h[pos] == keys))

        # materialized first: to_arrow_refs() on a lazy dataset runs an
        # extra limit(1) pass to learn the schema, and that pass cancels
        # the rest of its tasks when it stops
        dim_hot = pa.concat_tables(
            ray.get(right.map_batches(
                dim_mask, batch_format="pyarrow", runtime_env=runtime_env()
            ).materialize().to_arrow_refs())
        )
        if dim_hot.num_rows == 0:
            # hot fact keys absent from the dimension: inner semantics
            # drop them anyway, and the cold join does that for free —
            # fall through to the plain path with NOTHING split off
            hot = []
            dkeys = None
        else:
            dkeys = dim_hot.column(right_key).combine_chunks().to_numpy(
                zero_copy_only=False)

    if hot:
        assert len(np.unique(dkeys)) == len(dkeys), \
            "skew_join: dimension not unique on right_key"
        order = np.argsort(dkeys)
        payload_cols = [c for c in dim_hot.column_names if c != right_key]
        dim_ref = ray.put((dkeys[order],
                           dim_hot.select(payload_cols).take(
                               pa.array(order))))

        def fact_mask(batch: pa.Table, keep_hot: bool) -> pa.Table:
            keys = batch.column(left_key).combine_chunks().to_numpy(
                zero_copy_only=False)
            h = cached_get(hot_ref)
            pos = np.searchsorted(h, keys)
            pos[pos >= len(h)] = len(h) - 1
            is_hot = h[pos] == keys
            return batch.filter(pa.array(is_hot if keep_hot else ~is_hot))

        def attach(batch: pa.Table) -> pa.Table:
            keys = batch.column(left_key).combine_chunks().to_numpy(
                zero_copy_only=False)
            dk, dpay = cached_get(dim_ref)
            pos = np.searchsorted(dk, keys)
            pos[pos >= len(dk)] = len(dk) - 1
            ok = dk[pos] == keys  # inner semantics: drop unmatched
            batch = batch.filter(pa.array(ok))
            picked = dpay.take(pa.array(pos[ok]))
            for c in picked.column_names:
                batch = batch.append_column(c, picked.column(c))
            return batch

        hot_half = left.map_batches(
            fact_mask, fn_kwargs={"keep_hot": True},
            batch_format="pyarrow", runtime_env=runtime_env(),
        ).map_batches(attach, batch_format="pyarrow",
                      runtime_env=runtime_env())
        cold_left = left.map_batches(
            fact_mask, fn_kwargs={"keep_hot": False},
            batch_format="pyarrow", runtime_env=runtime_env(),
        )
    else:
        hot_half = None
        cold_left = left

    cl = coalesce_nonempty(cold_left)
    cr = coalesce_nonempty(right)
    use_merge = (cold_strategy == "merge"
                 or (cold_strategy == "auto"
                     and total <= SKEW_COLD_MERGE_CUTOFF))
    if cl is None or cr is None:
        cold_half = None
    elif use_merge:
        from .mergejoin import merge_join

        rr = cr
        if right_key != left_key:
            rr = cr.map_batches(
                lambda b: b.rename_columns([
                    left_key if c == right_key else c
                    for c in b.column_names]),
                batch_format="pyarrow", runtime_env=runtime_env())
        # column names from the materialized inputs: schema() on the
        # lazy ones would run a limit(1) pass
        lcols = [c for c in cl.schema().names if c != left_key]
        rcols = [c for c in cr.schema().names if c != right_key]
        cold_half = merge_join(cl, rr, left_key, lcols, rcols,
                               shuffle_partitions=num_partitions)
    else:
        cold_half = cl.join(cr, "inner", num_partitions=num_partitions,
                            on=(left_key,), right_on=(right_key,))

    if hot_half is None:
        return cold_half
    if cold_half is None:
        return hot_half
    # attach() appends the payload columns to the fact columns, which
    # the cold side's materialized cl carries in the same order
    cols = cl.schema().names + payload_cols
    return hot_half.union(cold_half.select_columns(cols))
