"""Distributed sort-merge equijoin — the third join strategy beside the
broadcast attach (small side) and Ray's native hash-shuffle join
(large×large).  Its niche: ONE range-partitioned sort instead of a
hash exchange + aggregator-actor pool, no per-query actor ramp-up
(~1-3 s per native join at small scale, CLAUDE.md), and immunity to
the Ray 2.49 empty-block Acero crash class by construction — at the
cost of a sort (range partitioner) instead of a hash partitioner.

Composition (the asof_join/upsert_apply discipline):

1. tag each side and union (absent columns carried as TYPED nulls so
   the union schema is consistent) — no join shuffle, both sides ride
   ONE all-to-all on the join key;
2. sort on the KEY ALONE (equal keys land in one block — the
   single-key co-location rule; a composite sort could split a key's
   run across blocks);
3. one vectorized block pass: runs grouped by their (m, n) left/right
   shape class (one argsort — the ngram size-class idiom), each class
   emitting all its m×n pair gathers with two numpy ops — zero
   per-run Python for the common 1:1 / 1:few joins.

Skew contract: a single key's output is m·n rows materialized in one
block, so a hot key (a power-law host, a default value) can blow the
block.  ``max_key_product`` fails loudly (the no-silent-caps rule)
with the offending key; the fix is salting that key or routing it
through the broadcast path.
"""
from __future__ import annotations

from typing import List

import numpy as np
import pyarrow as pa

from .. import runtime_env


def merge_join(
    left_ds,
    right_ds,
    key: str,
    left_cols: List[str],
    right_cols: List[str],
    max_key_product: int = 25_000_000,
    shuffle_partitions: int = None,
):
    """INNER equijoin of two datasets on int64 ``key``; returns
    ``[key] + left_cols + right_cols`` (null-key rows dropped — they
    never match, the asof_join contract).  Exact multiplicity: a key
    with m left and n right rows emits m·n output rows."""
    overlap = sorted((set(left_cols) & set(right_cols))
                     | ({key} & set(left_cols + right_cols)))
    if overlap:
        # tag() would overwrite a shared name with the other side's nulls
        raise ValueError(
            f"merge_join: payload columns overlap between sides: {overlap}")
    l_schema = left_ds.schema()
    r_schema = right_ds.schema()
    l_types = {c: l_schema.base_schema.field(c).type for c in left_cols}
    r_types = {c: r_schema.base_schema.field(c).type for c in right_cols}

    def tag(side: int, cols: List[str], other_types: dict):
        def fn(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            batch = batch.filter(pc.is_valid(batch.column(key)))
            out = {key: batch.column(key).cast(pa.int64())}
            out["__side"] = pa.array(
                np.full(batch.num_rows, side, np.int8), pa.int8())
            for c in cols:
                out[c] = batch.column(c)
            for c, t in other_types.items():
                out[c] = pa.nulls(batch.num_rows, type=t)
            # canonical column ORDER on both sides — a union of
            # differently-ordered schemas trips Ray's RefBundle schema
            # check and is a latent hazard for downstream consumers
            order = [key, "__side"] + left_cols + right_cols
            return pa.table({c: out[c] for c in order})
        return fn

    lt = left_ds.map_batches(tag(0, left_cols, r_types),
                             batch_format="pyarrow",
                             runtime_env=runtime_env())
    rt = right_ds.map_batches(tag(1, right_cols, l_types),
                              batch_format="pyarrow",
                              runtime_env=runtime_env())
    both = lt.union(rt)
    if shuffle_partitions:
        both = both.repartition(shuffle_partitions)
    srt = both.sort(key)

    def emit(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {key: pa.array([], pa.int64()),
             **{c: pa.nulls(0, type=l_types[c]) for c in left_cols},
             **{c: pa.nulls(0, type=r_types[c]) for c in right_cols}}
        )
        if batch.num_rows == 0:
            return empty
        k = batch.column(key).combine_chunks().to_numpy(
            zero_copy_only=False)
        side = batch.column("__side").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        # in-block (key, side) lexsort: per-key runs become [left rows,
        # right rows] segments
        order = np.lexsort((side, k))
        k_s, side_s = k[order], side[order]
        starts = np.flatnonzero(np.r_[True, k_s[1:] != k_s[:-1]])
        ends = np.r_[starts[1:], len(k_s)]
        n_right = np.add.reduceat(side_s, starts)      # side-1 rows/run
        m_left = (ends - starts) - n_right
        live = (m_left > 0) & (n_right > 0)
        if not live.any():
            return empty
        s_l, m_l, n_l = starts[live], m_left[live], n_right[live]
        prod = m_l * n_l
        if prod.max() > max_key_product:
            bad = int(k_s[s_l[np.argmax(prod)]])
            raise RuntimeError(
                f"merge_join: key {bad} would emit {int(prod.max())} "
                "rows — salt it or broadcast that side")
        # group runs by (m, n) shape class: one argsort, then each
        # class emits all its runs' m×n gathers with two numpy ops
        shape_key = m_l * (int(n_l.max()) + 1) + n_l
        cls_order = np.argsort(shape_key, kind="stable")
        sk_s = shape_key[cls_order]
        c_starts = np.flatnonzero(np.r_[True, sk_s[1:] != sk_s[:-1]])
        c_ends = np.r_[c_starts[1:], len(sk_s)]
        li_all, ri_all = [], []
        for cs, ce in zip(c_starts.tolist(), c_ends.tolist()):
            runs = cls_order[cs:ce]
            m = int(m_l[runs[0]])
            n = int(n_l[runs[0]])
            base = s_l[runs]
            li_mat = base[:, None] + np.arange(m)[None, :]      # (R, m)
            ri_mat = base[:, None] + m + np.arange(n)[None, :]  # (R, n)
            li_all.append(np.repeat(li_mat, n, axis=1).ravel())
            ri_all.append(np.tile(ri_mat, (1, m)).ravel())
        li = order[np.concatenate(li_all)]
        ri = order[np.concatenate(ri_all)]
        lrows = batch.take(pa.array(li))
        rrows = batch.take(pa.array(ri))
        return pa.table(
            {key: lrows.column(key),
             **{c: lrows.column(c) for c in left_cols},
             **{c: rrows.column(c) for c in right_cols}}
        )

    return srt.map_batches(emit, batch_format="pyarrow",
                           batch_size=None, runtime_env=runtime_env())
