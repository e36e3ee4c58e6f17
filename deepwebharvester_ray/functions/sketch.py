"""Mergeable cardinality sketch (HyperLogLog) for distinct counts at
scales where an exact ``unique()`` shuffle is off the table (10^10 URLs,
10^9-token vocabularies).

Shape: each batch collapses to a fixed 2^p-byte register array (one
vectorized pass — blake2b-hashed values, register = top ``p`` hash bits,
rho = leading-zero count of the rest); partials are element-wise-max
merged.  One 4 KiB row per block reaches the driver — the same
O(#blocks) driver-state bound as the prefix-scan — and the estimator is
the standard HLL with linear-counting fallback for the small range.
Relative error ≈ 1.04/sqrt(2^p) (~1.6 % at p=12).
"""
from __future__ import annotations

import math
from typing import Iterable

import numpy as np
import pyarrow as pa

from .. import runtime_env
from .dedup import _run_bounds
from .dedup import _word_hashes  # canonical blake2b->uint64 (memoized)

HLL_P = 12
_M = 1 << HLL_P
_HLL_REST_BITS = 60 - HLL_P          # 48 value bits below the register index
_HLL_RHO_SCALE = _HLL_REST_BITS + 1  # rho ∈ 1..49; S in units of 2^-49


def _hash64(values: Iterable[str]) -> np.ndarray:
    return _word_hashes(list(values))


# ── md5-derived 60-bit hash: the engine↔SQL parity hash (CLAUDE.md
# idiom — DuckDB parses md5 hex to the identical integer) used by the
# HLL and CMS sketches so their register state is SQL-reproducible
# (vocab_hll / approx_users_by_type / token_freq_cms oracles).  The
# MG / streaming-dedup shard routing keeps the blake2b ``_hash64``.

_MD5_MEMO: dict = {}
_MD5_MEMO_CAP = 1 << 20


def _md5_hash60(w: str) -> int:
    import hashlib

    h = _MD5_MEMO.get(w)
    if h is None:
        h = int(hashlib.md5(w.encode()).hexdigest()[:15], 16)
        if len(_MD5_MEMO) >= _MD5_MEMO_CAP:
            _MD5_MEMO.clear()
        _MD5_MEMO[w] = h
    return h


def _hash60(values: Iterable[str]) -> np.ndarray:
    vals = list(values)
    return np.fromiter((_md5_hash60(v) for v in vals), dtype=np.uint64,
                       count=len(vals))


def hll_registers(hashes: np.ndarray) -> np.ndarray:
    """(2^p,) uint8 register array from md5-derived 60-bit hashes
    (:func:`_hash60`), vectorized: register = top ``p`` of the 60 bits,
    rho = leading zeros of the remaining 48 + 1 (∈ 1..49).  Bit length
    via ``np.frexp`` — exact, the 48-bit rest is < 2^53."""
    regs = np.zeros(_M, dtype=np.uint8)
    if not len(hashes):
        return regs
    idx = (hashes >> np.uint64(_HLL_REST_BITS)).astype(np.int64)
    rest = hashes & np.uint64((1 << _HLL_REST_BITS) - 1)
    bitlen = np.frexp(rest.astype(np.float64))[1]  # 0 for rest == 0
    rho = (_HLL_RHO_SCALE - bitlen).astype(np.uint8)
    np.maximum.at(regs, idx, rho)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with linear-counting small-range fallback.
    The harmonic sum is EXACT integer arithmetic (every 2^-rho is a
    dyadic rational — summed in units of 2^-49 the total fits int64),
    so the whole finish is one float division + the same literal
    expression order as the SQL oracle (vocab_hll): bit-identical
    across engines."""
    m = float(_M)
    alpha = 0.7213 / (1 + 1.079 / m)
    s_int = int((np.int64(1) << (np.int64(_HLL_RHO_SCALE)
                                 - regs.astype(np.int64))).sum())
    est = alpha * m * m * float(1 << _HLL_RHO_SCALE) / float(s_int)
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        return m * math.log(m / zeros)  # linear counting, small range
    return float(est)


def hll_distinct(ds, extract, label: str = "n_distinct_est") -> pa.Table:
    """Approximate distinct count of ``extract(batch) -> Iterable[str]``
    over the whole dataset; returns a one-row table {label: int64}."""

    def partial(batch: pa.Table) -> pa.Table:
        # registers depend only on DISTINCT values (max is idempotent) —
        # dedupe before hashing so cost is per-batch vocabulary, not
        # occurrences
        regs = hll_registers(_hash60(set(extract(batch))))
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    rows = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=None,
        runtime_env=runtime_env(),
    ).take_all()  # one 2^p-byte row per block
    merged = np.zeros(_M, dtype=np.uint8)
    for r in rows:
        merged = np.maximum(merged, np.frombuffer(r["regs"], dtype=np.uint8))
    return pa.table({label: pa.array([int(np.floor(hll_estimate(merged) + 0.5))],
                                     pa.int64())})


def grouped_hll_distinct(ds, key_column: str, value_column: str,
                         label: str = "n_distinct_est"):
    """Per-group approximate distinct count: ``(key, ≈|distinct values|)``
    for every key — the sketch form of ``COUNT(DISTINCT v) GROUP BY k``
    when the exact per-group shuffle of raw values is off the table
    (distinct users per event type over 10^10 events).

    Combiner shape: each batch collapses to one 2^p-byte register blob
    PER KEY IN THE BATCH (so the shuffle moves O(blocks × keys) 4 KiB
    rows, never values); one sort on the key co-locates each key's
    partials, and a run pass max-merges + estimates.  Per-run Python is
    bounded by distinct keys per block — this operator is for
    bounded-cardinality keys (enums, hours, hosts); a 10^7-key distinct
    count wants the exact grouped_agg path instead."""

    def _key_type(batch: pa.Table):
        # canonical key type for EVERY output block: empty and non-empty
        # blocks must agree or the downstream sort fails on mismatched
        # schemas (a dictionary-encoded parquet key would otherwise emit
        # dictionary-typed empties and plain-typed non-empties)
        kt = batch.schema.field(key_column).type
        return kt.value_type if pa.types.is_dictionary(kt) else kt

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {key_column: pa.array([], _key_type(batch)),
                 "regs": pa.array([], pa.binary())}
            )
        keys = np.asarray(batch.column(key_column).to_pylist(), dtype=object)
        vals = np.asarray(batch.column(value_column).to_pylist(), dtype=object)
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], vals[order]
        starts, ends = _run_bounds(keys)
        blobs = [
            hll_registers(_hash60(set(vals[s:e]))).tobytes()
            for s, e in zip(starts, ends)
        ]
        return pa.table(
            {
                key_column: pa.array(keys[starts].tolist(),
                                     type=_key_type(batch)),
                "regs": pa.array(blobs, pa.binary()),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=None,
        runtime_env=runtime_env(),
    )

    def merge(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {key_column: pa.array([], _key_type(batch)),
                 label: pa.array([], pa.int64())}
            )
        keys = np.asarray(batch.column(key_column).to_pylist(), dtype=object)
        blobs = batch.column("regs").to_pylist()
        starts, ends = _run_bounds(keys)
        out_keys, out_est = [], []
        for s, e in zip(starts, ends):
            regs = np.frombuffer(blobs[s], dtype=np.uint8)
            for i in range(s + 1, e):
                regs = np.maximum(
                    regs, np.frombuffer(blobs[i], dtype=np.uint8)
                )
            out_keys.append(keys[s])
            out_est.append(int(np.floor(hll_estimate(regs) + 0.5)))
        return pa.table(
            {
                key_column: pa.array(out_keys, type=_key_type(batch)),
                label: pa.array(out_est, pa.int64()),
            }
        )

    return parts.sort(key_column).map_batches(
        merge, batch_format="pyarrow", batch_size=None,
        runtime_env=runtime_env(),
    )


# ── Count-Min sketch (frequency estimation) ──────────────────────────────────

CMS_DEPTH = 5
_CMS_A = np.array([
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
    0xD6E8FEB86659FD93, 0xA24BAED4963EE407,
], dtype=np.uint64)
_CMS_B = np.array([
    0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0,
    0x082EFA98EC4E6C89, 0x452821E638D01377,
], dtype=np.uint64)


def _cms_positions(hashes: np.ndarray, width: int) -> np.ndarray:
    """(depth, n) column indices: an AFFINE map mod 2^64 per depth over
    the md5-derived 60-bit hash — uint64 wraparound on the engine,
    HUGEINT ``((a*h + b) % 2^64) % width`` in SQL (the bootstrap_means
    parity idiom), so every cell index is SQL-reproducible."""
    with np.errstate(over="ignore"):
        return np.stack(
            [
                ((_CMS_A[d] * hashes + _CMS_B[d])
                 % np.uint64(width)).astype(np.int64)
                for d in range(CMS_DEPTH)
            ]
        )


def cms_build(ds, value_column: str, width: int = 1 << 14) -> np.ndarray:
    """(depth, width) int64 Count-Min matrix over a string column's
    OCCURRENCES.  Combiner shape: per-block partial matrices summed —
    addition is associative, so the merge order (a log-depth parallel
    tree, fanin matrices per task) is irrelevant and results are
    bit-identical to any fold.  Overestimate bound: est ≤ true + e/width · N with
    probability 1 - e^-depth per query; never underestimates."""

    def partial(batch: pa.Table) -> pa.Table:
        mat = np.zeros((CMS_DEPTH, width), dtype=np.int64)
        vals = batch.column(value_column).to_pylist()
        if vals:
            pos = _cms_positions(_hash60(vals), width)
            for d in range(CMS_DEPTH):
                np.add.at(mat[d], pos[d], 1)
        return pa.table({"m": pa.array([mat.tobytes()], pa.large_binary())})

    parts = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=None,
        runtime_env=runtime_env(),
    )

    def merge(blobs):
        acc = np.frombuffer(blobs[0], dtype=np.int64).copy()
        for b in blobs[1:]:
            acc += np.frombuffer(b, dtype=np.int64)
        return acc.tobytes()

    # associative tree sum-reduce (partition.tree_merge_blobs): fanin
    # matrices per task, log-depth; driver folds only the last ≤fanin
    from .partition import tree_merge_blobs

    blob = tree_merge_blobs(parts, "m", merge)
    if blob is None:
        return np.zeros((CMS_DEPTH, width), dtype=np.int64)
    return np.frombuffer(blob, dtype=np.int64).reshape(
        CMS_DEPTH, width).copy()


def cms_estimate(mat: np.ndarray, values) -> np.ndarray:
    """Estimated occurrence counts for ``values`` (min over depth rows)."""
    values = list(values)
    if not values:
        return np.zeros(0, dtype=np.int64)
    pos = _cms_positions(_hash60(values), mat.shape[1])
    return np.min(
        np.stack([mat[d, pos[d]] for d in range(mat.shape[0])]), axis=0
    )


# ── relative-error quantile sketch (DDSketch-style log histogram) ────────────
#
# Mergeable approximate quantiles for unbounded value domains (the exact
# value-domain histogram of agg.grouped_quantiles assumes a bounded
# integer domain like cents; this sketch trades exactness for a
# RELATIVE-error guarantee on arbitrary positive magnitudes).  Buckets
# are geometric: value v > 0 lands in bucket ceil(log_gamma(v)) with
# gamma = (1+alpha)/(1-alpha), so reporting a bucket boundary is within
# relative error alpha of the true quantile value (DDSketch, Masson et
# al. 2019 — public algorithm).  Per-block partial = (bucket, count)
# rows; merge = grouped sum; quantile pick = one cumsum over the sorted
# tiny bucket table.


_DD_POS_BASE = 1 << 41  # |log_gamma| indices stay < 2^40 for any float64


def _libm_log(vals: np.ndarray) -> np.ndarray:
    """Elementwise ``math.log`` (glibc libm): numpy's SIMD ``np.log``
    differs from libm — and therefore from DuckDB's ``ln`` — by 1 ulp
    on ~23% of inputs (measured over the events table), which would
    make the DDSketch bucket state engine-dependent.  The scalar loop
    is ~20 ms per 100k values — irrelevant next to the shuffle."""
    import math

    return np.fromiter((math.log(x) for x in vals), np.float64,
                       count=len(vals))


def dd_bucket_indices(vals: np.ndarray, alpha: float) -> np.ndarray:
    """Geometric bucket index per value, encoded so that
    ENCODED order == VALUE order: negatives map to ``-BASE - c``
    (< 0 for every magnitude), zero to the reserved bucket 0, positives
    to ``BASE + c`` (> 0 for every magnitude), with
    ``c = ceil(log_gamma |v|)``.  An unshifted positive index would
    collide with the zero bucket for v ∈ (1/gamma, 1] (c == 0) and sort
    sub-unit positives (c < 0) BEFORE zero, breaking the cumulative
    quantile walk.  All float ops are libm scalars so the bucket state
    is bit-identical to the SQL oracle (value_quantiles_sketch)."""
    import math

    gamma = (1.0 + alpha) / (1.0 - alpha)
    lg = math.log(gamma)
    out = np.zeros(len(vals), dtype=np.int64)
    pos = vals > 0
    out[pos] = (np.ceil(_libm_log(vals[pos]) / lg).astype(np.int64)
                + _DD_POS_BASE)
    neg = vals < 0
    out[neg] = (-np.ceil(_libm_log(-vals[neg]) / lg).astype(np.int64)
                - _DD_POS_BASE)
    return out


def dd_bucket_value(idx: np.ndarray, alpha: float) -> np.ndarray:
    """Representative value of each bucket (geometric midpoint;
    ``2·gamma^c/(1+gamma)`` is within relative error alpha of every
    value in bucket c).  ``math.pow`` not ``**``: numpy's pow differs
    from libm/DuckDB by 1 ulp on some inputs (same class as
    :func:`_libm_log`); the arrays here are quantile-pick sized."""
    import math

    gamma = (1.0 + alpha) / (1.0 - alpha)
    out = np.zeros(len(idx), dtype=np.float64)
    pos = idx > 0
    out[pos] = np.fromiter(
        (2.0 * math.pow(gamma, float(c)) / (1.0 + gamma)
         for c in (idx[pos] - _DD_POS_BASE)),
        np.float64, count=int(pos.sum()))
    neg = idx < 0
    if neg.any():
        out[neg] = np.fromiter(
            (-(2.0 * math.pow(gamma, float(c)) / (1.0 + gamma))
             for c in (-idx[neg] - _DD_POS_BASE)),
            np.float64, count=int(neg.sum()))
    return out


def dd_quantiles(ds, value_column: str, ps, alpha: float = 0.01):
    """Approximate quantiles of a numeric column with relative error
    ≤ ``alpha``: one combiner pass to (bucket, count) rows, one tiny
    grouped sum (bucket cardinality ~ log_gamma(max/min) ≈ a few
    thousand regardless of row count), one driver cumsum pick.
    Returns {q_<p>: value} as a one-row table."""
    from .agg import grouped_agg

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column(value_column).combine_chunks().to_numpy(
            zero_copy_only=False
        ).astype(np.float64)
        idx = dd_bucket_indices(v, alpha)
        u, c = np.unique(idx, return_counts=True)
        return pa.table(
            {
                "bucket": pa.array(u, pa.int64()),
                "n": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    hist = grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None,
                       runtime_env=runtime_env()),
        ["bucket"], [("n", "n", "sum")], final_mode="single",
    ).take_all()  # bucket table is tiny by construction
    buckets = np.fromiter((r["bucket"] for r in hist), np.int64, len(hist))
    counts = np.fromiter((r["n"] for r in hist), np.int64, len(hist))
    # grouped_agg output is bucket-sorted; negative-shifted buckets sort
    # first, so cumulative order == value order
    cum = np.cumsum(counts)
    total = cum[-1] if len(cum) else 0
    cols = {}
    for p in ps:
        if total == 0:
            cols[f"q_{p}"] = [float("nan")]
            continue
        i = int(np.searchsorted(cum, p * total, side="left"))
        i = min(i, len(buckets) - 1)
        cols[f"q_{p}"] = [float(dd_bucket_value(
            np.asarray([buckets[i]]), alpha)[0])]
    return pa.table({k: pa.array(v, pa.float64()) for k, v in cols.items()})


# ── mergeable heavy hitters (Misra–Gries / Space-Saving family) ──────────────
#
# Deterministic frequency summary with k counters: every stream item's
# estimate satisfies ``true - err_ub <= est <= true`` and every item with
# frequency > err_ub is GUARANTEED present (Misra–Gries 1982; merge rule
# from Agarwal et al., "Mergeable Summaries", PODS 2012 — public
# algorithms).  The exact top_tokens path shuffles the full vocabulary;
# this sketch bounds per-block AND merged state at k counters, the
# right tool when the vocabulary itself is unshuffleable (10^9+ tokens)
# and only the heavy tail matters.
#
# Distributed shape (two prune levels): each block collapses to its
# local np.unique counts pruned to k (one subtraction — the MG
# reduction), partials merge by a grouped SUM at ≤ blocks×k rows, and
# ONE final prune returns k counters.  Each prune level decrements any
# item by at most N_level/(k+1), so the hierarchical bound is
# err_ub ≤ 2·N/(k+1) (vs N/(k+1) for a flat single-pass MG) — the
# factor-2 price of a one-round tree merge, pinned in tests.


def mg_prune(tokens: np.ndarray, counts: np.ndarray, k: int):
    """The Misra–Gries reduction: subtract the (k+1)-th largest count
    from every counter and keep the positive ones (≤ k survive).
    Returns (tokens, counts, decrement) — decrement is the error this
    prune adds to every surviving/deleted estimate."""
    if len(tokens) <= k:
        return tokens, counts, 0
    kth = np.partition(counts, len(counts) - (k + 1))[len(counts) - (k + 1)]
    kept = counts > kth
    return tokens[kept], counts[kept] - kth, int(kth)


def mg_topk(ds, value_column: str, k: int = 64) -> pa.Table:
    """k-counter mergeable heavy-hitters summary of a string column's
    occurrences.  Output: (token, est_n, err_ub, n_total) sorted by
    est_n desc — ``est_n ≤ true ≤ est_n + err_ub`` for present tokens,
    ``true ≤ err_ub`` for absent ones, and every token with true
    frequency > err_ub is guaranteed present.

    The per-block prune decrements and the block weights ride the SAME
    grouped merge as the counters (one sentinel row per block), so the
    driver never sees anything bigger than the ≤ blocks×k merged
    summary; ``err_ub = Σ block decrements + final decrement ≤
    2·N/(k+1)``.
    """
    from .agg import grouped_agg

    META = "\x00meta"

    def partial(batch: pa.Table) -> pa.Table:
        vals = batch.column(value_column).to_pylist()
        if not vals:
            return pa.table({"token": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "dec": pa.array([], pa.int64()),
                             "w": pa.array([], pa.int64())})
        uniq, cnt = np.unique(np.asarray(vals, dtype=object),
                              return_counts=True)
        toks, cnts, dec = mg_prune(uniq, cnt.astype(np.int64), k)
        return pa.table({
            "token": pa.array(toks.tolist() + [META], pa.string()),
            "n": pa.array(np.concatenate([cnts, [0]]), pa.int64()),
            "dec": pa.array(
                np.concatenate([np.zeros(len(toks), np.int64), [dec]]),
                pa.int64()),
            "w": pa.array(
                np.concatenate([np.zeros(len(toks), np.int64),
                                [len(vals)]]), pa.int64()),
        })

    merged = grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None,
                       runtime_env=runtime_env()),
        ["token"],
        [("n", "n", "sum"), ("dec", "dec", "sum"), ("w", "w", "sum")],
        final_mode="single",
    ).take_all()  # ≤ blocks×k + 1 rows by construction
    toks = np.asarray([r["token"] for r in merged], dtype=object)
    ns = np.fromiter((r["n"] for r in merged), np.int64, len(merged))
    decs = np.fromiter((r["dec"] for r in merged), np.int64, len(merged))
    ws = np.fromiter((r["w"] for r in merged), np.int64, len(merged))
    meta = toks == META
    total_dec = int(decs[meta].sum())
    total_w = int(ws[meta].sum())
    toks, ns = toks[~meta], ns[~meta]
    toks2, ns2, dec2 = mg_prune(toks, ns, k)
    err_ub = total_dec + dec2
    order = np.lexsort((toks2, -ns2))
    return pa.table({
        "token": pa.array(toks2[order].tolist(), pa.string()),
        "est_n": pa.array(ns2[order], pa.int64()),
        "err_ub": pa.array(np.full(len(toks2), err_ub, np.int64),
                           pa.int64()),
        "n_total": pa.array(np.full(len(toks2), total_w, np.int64),
                            pa.int64()),
    })


def grouped_dd_quantiles(ds, key_column: str, value_column: str, ps,
                         alpha: float = 0.01):
    """Per-GROUP approximate quantiles with relative error ≤ ``alpha``
    — the grouped member of the DDSketch family
    (:func:`dd_quantiles` is global; ``agg.grouped_quantiles`` is exact
    but assumes a bounded integer value domain like cents; this serves
    unbounded float domains per group).  Returns one row per key with
    a ``q_<p>`` column per requested quantile.

    Scale shape: per-block (key, bucket, count) partials (one
    vectorized lexsort + reduceat — never per-group Python), ONE
    combiner grouped sum at key×bucket cardinality (each group
    contributes ≤ log_gamma(max/min) bucket rows regardless of its row
    count), a single-key sort on the group key, and an in-block
    per-group cumsum pick (the encoded bucket order == value order, so
    the lexsort secondary key IS the quantile walk)."""
    from .agg import grouped_agg
    from .. import runtime_env

    _empty = pa.table({
        key_column: pa.array([], pa.string()),
        "bucket": pa.array([], pa.int64()),
        "n": pa.array([], pa.int64()),
    })

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty
        keys = np.asarray(batch.column(key_column).to_pylist(), object)
        v = batch.column(value_column).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.float64)
        idx = dd_bucket_indices(v, alpha)
        order = np.lexsort((idx, keys))
        keys, idx = keys[order], idx[order]
        change = np.ones(len(keys), bool)
        change[1:] = (keys[1:] != keys[:-1]) | (idx[1:] != idx[:-1])
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], len(keys))
        return pa.table({
            key_column: pa.array(keys[starts].tolist(), pa.string()),
            "bucket": pa.array(idx[starts], pa.int64()),
            "n": pa.array((ends - starts).astype(np.int64), pa.int64()),
        })

    hist = grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None,
                       runtime_env=runtime_env()),
        [key_column, "bucket"], [("n", "n", "sum")],
        sorted_output=False,
    )

    out_cols = [f"q_{p}" for p in ps]
    _empty_out = pa.table(
        {key_column: pa.array([], pa.string()),
         **{c: pa.array([], pa.float64()) for c in out_cols}})

    def pick(batch: pa.Table) -> pa.Table:
        # single-key sort on the group key ⇒ whole groups co-locate;
        # the in-block lexsort orders buckets (encoded order == value
        # order) for the cumulative walk
        if batch.num_rows == 0:
            return _empty_out
        keys = np.asarray(batch.column(key_column).to_pylist(), object)
        bkt = batch.column("bucket").combine_chunks().to_numpy(
            zero_copy_only=False)
        cnt = batch.column("n").combine_chunks().to_numpy(
            zero_copy_only=False)
        order = np.lexsort((bkt, keys))
        keys, bkt, cnt = keys[order], bkt[order], cnt[order]
        change = np.ones(len(keys), bool)
        change[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], len(keys))
        cols = {key_column: pa.array(keys[starts].tolist(), pa.string())}
        outs = {c: [] for c in out_cols}
        for s, e in zip(starts, ends):
            cum = np.cumsum(cnt[s:e])
            total = cum[-1]
            for p, c in zip(ps, out_cols):
                i = min(int(np.searchsorted(cum, p * total, "left")),
                        e - s - 1)
                outs[c].append(float(dd_bucket_value(
                    np.asarray([bkt[s + i]]), alpha)[0]))
        for c in out_cols:
            cols[c] = pa.array(outs[c], pa.float64())
        return pa.table(cols)

    return hist.sort(key_column).map_batches(
        pick, batch_format="pyarrow", batch_size=None,
        runtime_env=runtime_env())
