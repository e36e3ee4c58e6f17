"""Scale-evidence smokes (one JSON line each; run per-case in a fresh
process so ru_maxrss is a clean per-run peak).

  python tools/stress_scale.py minhash --dup 1      # baseline driver RSS
  python tools/stress_scale.py minhash --dup 10     # 10x-duplicated corpus
      → candidate pairs grow ~45x, driver RSS must stay ~flat (the
        verification is a distributed double-join, VERDICT r1 #1)
  python tools/stress_scale.py frontier --seeds 10000 --shards 8
  python tools/stress_scale.py frontier --seeds 10000 --driver
      → sharded vs driver-queue control plane on the same 80k-page
        corpus: driver RSS drops when links stop transiting the driver;
        also prints the largest generation's candidates and fetches,
        and each generation's wall time (gen_walls_s)
  python tools/stress_scale.py seen --n 10000000 --shards 4
      → exact seen-set envelope: 16 bytes/key, 0 false positives on a
        disjoint probe range
  python tools/stress_scale.py highcard --n 10000000
      → 10^7-distinct-key grouped_agg exercises the native final merge
        (functions/agg.py SINGLE_BLOCK_CUTOFF switch) without OOM
  python tools/stress_scale.py extract --corpus DIR [--n N]
      → extract_content over the first N pages of a (url, html) parquet
        corpus, no Ray: pages/s on the fast paths and on the all-stdlib
        reference, the share of pages the tokenizer takes and of hrefs
        the resolver's fast path takes, and whether every output equals
        the reference's
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def _rss_mb() -> float:
    """Peak driver RSS.  /proc VmHWM preferred: ru_maxrss is NOT reset
    by execve on Linux, so a subprocess launched from a fat parent
    (bench.py's sf1_smokes after a full query suite) inherits the
    parent's high-water mark and reports it as its own (observed:
    four cases all 'peaking' at exactly the parent's 540 MB).  VmHWM
    belongs to the post-exec mm and measures THIS process."""
    try:
        for line in open("/proc/self/status"):
            if line.startswith("VmHWM"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_minhash(dup: int, sf_dir: str) -> dict:
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.functions.dedup import minhash_lsh_pairs

    import pyarrow as pa

    def replicate(batch: pa.Table, n: int) -> pa.Table:
        # dup replicas synthesized IN ONE MAP over one read: the
        # previous 32-branch read+shift+union materialized 2048 tiny
        # blocks (the read splits the file into ~78-row pieces per
        # branch) and spent ~27 s of pure task-scheduling overhead
        # before any shingle ran — the many-tiny-blocks hazard
        # CLAUDE.md documents, planted by the harness itself
        import pyarrow.compute as pc

        i = batch.schema.get_field_index("doc_id")
        return pa.concat_tables([
            batch.set_column(i, "doc_id",
                             pc.add(batch.column("doc_id"),
                                    k * 1_000_000))
            for k in range(n)
        ])

    ds = ray.data.read_parquet(
        str(Path(sf_dir) / "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(replicate, fn_kwargs={"n": dup},
                  batch_format="pyarrow", runtime_env=runtime_env())
    import ray as _ray

    width = max(8, int(_ray.cluster_resources().get("CPU", 8)))
    # split the replicated INPUT to ≥4 tasks/core before the shingle
    # map (per-block Python+regex work is the pipeline's dominant
    # cost; coarse blocks cap parallelism, tiny blocks pay scheduling)
    ds = ds.repartition(width * 4)

    t0 = time.monotonic()
    # cutoff 0 forces the DISTRIBUTED double-join verification — this
    # smoke is specifically the evidence that the join path keeps the
    # driver flat while candidates grow.  Shuffle width scales with the
    # CLUSTER, not a constant: a hard-coded 8 capped the band sort and
    # verify joins at 8-way on a 32-CPU 4-node cluster (measured: zero
    # 1→4-node speedup), exactly the partition-sizing rule
    # _shuffle_parts documents.
    pairs = minhash_lsh_pairs(ds, threshold=0.8,
                              shuffle_partitions=width,
                              verify_broadcast_cutoff=0)
    n_pairs = pairs.count()
    return {
        "case": "minhash", "dup": dup, "pairs": n_pairs,
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_frontier(seeds: int, shards: int | None, sf_dir: str,
                 factor: int = 4, depth: int = 2) -> dict:
    import shutil

    from deepwebharvester_ray.config import CrawlSettings
    from deepwebharvester_ray.corpus import corpus_from_documents, seed_urls
    from deepwebharvester_ray.pipelines.crawl import run_crawl

    corpus_dir = corpus_from_documents(sf_dir, factor=factor)
    cfg = CrawlSettings(
        max_depth=depth, max_pages=1_000_000, seen_shards=8,
        frontier_shards=shards,
    )
    run_dir = "/tmp/dwh_stress_frontier"
    if Path(run_dir).exists():
        shutil.rmtree(run_dir)
    t0 = time.monotonic()
    run = run_crawl(corpus_dir, seed_urls(seeds), cfg=cfg, run_dir=run_dir)
    wall = time.monotonic() - t0
    shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "case": "frontier", "seeds": seeds, "factor": factor, "depth": depth,
        "frontier_shards": shards, "pages": run.stats["pages_crawled"],
        "generations": run.generations,
        # the largest generation's fetch traffic: what any fetch-path
        # size gate would have to be measured against
        "max_gen_candidates": max((m.candidates for m in run.metrics),
                                  default=0),
        "max_gen_fetched": max((m.fetched for m in run.metrics), default=0),
        "wall_s": round(wall, 2),
        # each generation's wall_time_s: where the run's time went
        "gen_walls_s": [round(m.wall_time_s, 2) for m in run.metrics],
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_seen(n: int, shards: int = 8, batch: int = 500_000) -> dict:
    """Seen-set memory envelope: load n distinct url-mark keys
    (``"sid|url"`` strings) in batches into a SeenSetPool of SeenShard
    actors, then report stored bytes/key, the load wall time, false
    negatives over every inserted key and false positives over a
    disjoint probe range of n keys — both counts must be 0."""
    import ray

    from deepwebharvester_ray.state.seen import SeenSetPool

    def keys(start: int, count: int) -> list:
        return [f"{i % 4096}|http://h{i % 997}.onion/p/{i}"
                for i in range(start, start + count)]

    def hits(start: int, count: int) -> int:
        end = start + count
        return sum(int(pool.contains(keys(off, min(batch, end - off))).sum())
                   for off in range(start, end, batch))

    pool = SeenSetPool(shards)
    handles = pool.shard_handles
    ray.get([h.size.remote() for h in handles])  # actor start-up
    t0 = time.monotonic()
    inserted = sum(pool.insert(keys(off, min(batch, n - off)))
                   for off in range(0, n, batch))
    load_wall = time.monotonic() - t0
    stored = sum(ray.get([h.size.remote() for h in handles]))
    stored_bytes = sum(ray.get([h.nbytes.remote() for h in handles]))

    t0 = time.monotonic()
    present = hits(0, n)
    probe_wall = time.monotonic() - t0
    false_pos = hits(n, n)  # keys n..2n-1: never inserted
    return {
        "case": "seen", "keys": n, "shards": shards, "batch": batch,
        "inserted": inserted, "stored": stored,
        "bytes_per_key": round(stored_bytes / max(stored, 1), 3),
        "load_wall_s": round(load_wall, 2),
        "insert_keys_per_s": int(n / load_wall),
        "probe_keys_per_s": int(n / probe_wall),
        "false_negatives": n - present,  # must be 0
        "false_positives": false_pos,    # must be 0
        "probe_keys": n,
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_highcard(n: int) -> dict:
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.functions.agg import grouped_agg

    def tokens(batch: pa.Table) -> pa.Table:
        s = pc.cast(batch.column("id"), pa.string())
        return pa.table(
            {"token": pc.binary_join_element_wise("t", s, "")}
        )

    ds = ray.data.range(n).map_batches(
        tokens, batch_format="pyarrow", runtime_env=runtime_env()
    )
    t0 = time.monotonic()
    out = grouped_agg(ds, ["token"], [("n", "", "count")])
    rows = out.count()
    assert rows == n, (rows, n)
    return {
        "case": "highcard", "distinct_keys": rows,
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_interval(dup: int, sf_dir: str) -> dict:
    """Interval join on a dup×-replicated events table: left points and
    right windows both grow dup×, output pairs ~dup² — wall must grow
    like the OUTPUT (the join's own lower bound), driver RSS stay flat
    (nothing driver-resident in the bucketed sort-merge)."""
    import pyarrow as pa
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.functions.interval import (
        US_PER_DAY, interval_join,
    )

    base = ray.data.read_parquet(
        str(Path(sf_dir) / "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type"],
    )

    def shift(batch: pa.Table, off: int) -> pa.Table:
        import pyarrow.compute as pc

        return batch.set_column(
            batch.schema.get_field_index("event_id"), "event_id",
            pc.add(batch.column("event_id"), off),
        )

    parts = [base] + [
        base.map_batches(shift, fn_kwargs={"off": k * 10_000_000},
                         batch_format="pyarrow", runtime_env=runtime_env())
        for k in range(1, dup)
    ]
    ev = (parts[0] if dup == 1 else parts[0].union(*parts[1:])).materialize()

    def clicks(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return b.filter(pc.equal(b.column("event_type"), "click")) \
                .drop_columns(["event_type"])

    def views(b: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        b = b.filter(pc.equal(b.column("event_type"), "view"))
        s = (b.column("ts").combine_chunks().cast(pa.timestamp("us"))
             .cast(pa.int64()).to_numpy(zero_copy_only=False))
        eid = b.column("event_id").to_numpy(zero_copy_only=False)
        e = s + (1 + eid % 7) * US_PER_DAY
        return pa.table({
            "view_id": b.column("event_id"),
            "user_id": b.column("user_id"),
            "s": b.column("ts").combine_chunks().cast(pa.timestamp("us")),
            "e": pa.array(e, pa.int64()).cast(pa.timestamp("us")),
        })

    t0 = time.monotonic()
    out = interval_join(
        ev.map_batches(clicks, batch_format="pyarrow",
                       runtime_env=runtime_env()),
        ev.map_batches(views, batch_format="pyarrow",
                       runtime_env=runtime_env()),
        key="user_id", ts="ts", start="s", end="e",
        left_cols=["event_id"], right_cols=["view_id"],
        shuffle_partitions=16,
    )
    rows = out.count()
    return {
        "case": "interval", "dup": dup, "pairs": rows,
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_pagerank(n: int, force_join: bool) -> dict:
    """PageRank on a synthetic n-node graph (3 deterministic offsets per
    node — the corpus link shape at arbitrary n).  ``--join`` forces the
    hash-join propagation path (the >2M-node regime) at any n, so both
    paths are evidenced at the same size and must agree on sum(score)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.functions.graph import pagerank

    def edges_of(batch: pa.Table) -> pa.Table:
        d = batch.column("id").combine_chunks().to_numpy(
            zero_copy_only=False)
        offs = np.array([1, 17, 64], np.int64)
        src = np.repeat(d, 3)
        dst = (np.repeat(d, 3) + np.tile(offs, len(d))) % n
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    nodes = ray.data.range(n).map_batches(
        lambda b: pa.table({"id": b.column("id")}),
        batch_format="pyarrow", runtime_env=runtime_env(),
    )
    edges = ray.data.range(n).map_batches(
        edges_of, batch_format="pyarrow", runtime_env=runtime_env(),
    )
    t0 = time.monotonic()
    scores = pagerank(edges, nodes, iters=3,
                      broadcast_below=0 if force_join else 2_000_000,
                      shuffle_partitions=16)
    total = scores.sum("score")
    rows = scores.count()
    assert rows == n, (rows, n)
    return {
        "case": "pagerank", "n": n,
        "path": "join" if force_join else "broadcast",
        "score_sum": int(total),
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_resolve(n: int, force_join: bool) -> dict:
    """Redirect-chain resolution at scale: n/1000 chains of length 1000
    (node i → i−1 unless i % 1000 == 0).  Pointer doubling must finish
    in ceil(log2 999)+1 = 11 rounds REGARDLESS of n — max_rounds=12
    pins that (a one-step follower would need 1000 rounds).  ``--join``
    forces the hash-join lookup path (the ≥2M-state regime) at any n.
    The per-row invariants (final_id == id − hops, final_id % 1000 == 0,
    hops == id % 1000) are checked DISTRIBUTEDLY via a violation-count
    aggregate — nothing but scalars reach the driver."""
    import numpy as np
    import pyarrow as pa
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.functions.graph import resolve_pointers

    L = 1000

    def edges_of(batch: pa.Table) -> pa.Table:
        d = batch.column("id").combine_chunks().to_numpy(
            zero_copy_only=False)
        src = d[(d % L) != 0]
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(src - 1, pa.int64())})

    edges = ray.data.range(n).map_batches(
        edges_of, batch_format="pyarrow", runtime_env=runtime_env(),
    )
    t0 = time.monotonic()
    out = resolve_pointers(
        edges, broadcast_below=0 if force_join else 2_000_000,
        max_rounds=12)

    def viol(batch: pa.Table) -> pa.Table:
        i = batch.column("id").combine_chunks().to_numpy(
            zero_copy_only=False)
        f = batch.column("final_id").combine_chunks().to_numpy(
            zero_copy_only=False)
        h = batch.column("hops").combine_chunks().to_numpy(
            zero_copy_only=False)
        bad = (f != i - h) | (f % L != 0) | (h != i % L)
        return pa.table({"bad": pa.array([int(bad.sum())], pa.int64())})

    nbad = out.map_batches(viol, batch_format="pyarrow",
                           runtime_env=runtime_env()).sum("bad")
    rows = out.count()
    assert rows == n - (n + L - 1) // L, (rows, n)
    assert nbad == 0, nbad
    return {
        "case": "resolve", "n": n,
        "path": "join" if force_join else "broadcast",
        "chains": n // L, "rows": rows,
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_semdedup(dup: int, sf_dir: str) -> dict:
    """Semantic dedup on a ``dup``×-replicated embedding table (shifted
    ids → every vector gains dup-1 exact copies, cos 1.0).  Pairs grow
    O(dup²) per clone group BY CONSTRUCTION; the evidence is that the
    driver stays flat — the k-means sample is bounded, assignment is a
    broadcast matmul, and pair emission happens inside the sorted cell
    blocks."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.functions.dedup import semantic_dedup_pairs

    def shift(batch: pa.Table, off: int) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("vec_id"), "vec_id",
            pc.add(batch.column("vec_id"), off))

    parts = []
    for k in range(dup):
        dsk = ray.data.read_parquet(
            str(Path(sf_dir) / "embeddings.parquet"),
            columns=["vec_id", "embedding"])
        if k:
            dsk = dsk.map_batches(shift, fn_kwargs={"off": k * 1_000_000},
                                  batch_format="pyarrow",
                                  runtime_env=runtime_env())
        parts.append(dsk)
    ds = parts[0] if dup == 1 else parts[0].union(*parts[1:])
    t0 = time.monotonic()
    pairs = semantic_dedup_pairs(ds, threshold=0.95, n_cells=64,
                                 shuffle_partitions=8)
    n_pairs = pairs.count()
    return {
        "case": "semdedup", "dup": dup, "pairs": n_pairs,
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_embedlsh(dup: int, sf_dir: str) -> dict:
    """embedding_neardup_lsh on a ``dup``×-replicated embedding table
    (shifted ids → every vector gains dup-1 exact cos-1.0 copies).
    Candidate pairs grow O(dup²) per clone group BY CONSTRUCTION; the
    evidence is a flat driver — banding is a per-block map, buckets
    co-locate via one sort, and the exact verify runs size-gated over
    candidates only (never all-pairs)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.functions.dedup import embedding_neardup_lsh

    def shift(batch: pa.Table, off: int) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("vec_id"), "vec_id",
            pc.add(batch.column("vec_id"), off))

    parts = []
    for k in range(dup):
        dsk = ray.data.read_parquet(
            str(Path(sf_dir) / "embeddings.parquet"),
            columns=["vec_id", "embedding"])
        if k:
            dsk = dsk.map_batches(shift, fn_kwargs={"off": k * 1_000_000},
                                  batch_format="pyarrow",
                                  runtime_env=runtime_env())
        parts.append(dsk)
    ds = parts[0] if dup == 1 else parts[0].union(*parts[1:])
    t0 = time.monotonic()
    pairs = embedding_neardup_lsh(ds, threshold=0.95,
                                  shuffle_partitions=8)
    n_pairs = pairs.count()
    return {
        "case": "embedlsh", "dup": dup, "pairs": n_pairs,
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_passage(dup: int, sf_dir: str) -> dict:
    """passage_dup_profile on a ``dup``×-replicated corpus — with dup>1
    EVERY window sits in a cross-doc run (the all-boilerplate worst
    case that would be O(m²) for pair emitters).  Evidence: wall grows
    ~linearly in dup and the driver stays flat (run marking is two
    reduceats; coverage is an in-block interval union)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.functions.dedup import passage_dup_profile

    def shift(batch: pa.Table, off: int) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("doc_id"), "doc_id",
            pc.add(batch.column("doc_id"), off))

    parts = []
    for k in range(dup):
        dsk = ray.data.read_parquet(
            str(Path(sf_dir) / "documents.parquet"),
            columns=["doc_id", "text"])
        if k:
            dsk = dsk.map_batches(shift, fn_kwargs={"off": k * 1_000_000},
                                  batch_format="pyarrow",
                                  runtime_env=runtime_env())
        parts.append(dsk)
    ds = parts[0] if dup == 1 else parts[0].union(*parts[1:])
    t0 = time.monotonic()
    prof = passage_dup_profile(ds, k=8, shuffle_partitions=8)
    agg = prof.map_batches(
        lambda b: pa.table({
            "rows": pa.array([b.num_rows], pa.int64()),
            "dup_tok": pa.array(
                [pc.sum(b.column("tokens_dup")).as_py() or 0], pa.int64()),
        }),
        batch_format="pyarrow", batch_size=None, runtime_env=runtime_env(),
    ).take_all()
    return {
        "case": "passage", "dup": dup,
        "rows": sum(r["rows"] for r in agg),
        "tokens_dup": sum(r["dup_tok"] for r in agg),
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_containment(dup: int, sf_dir: str) -> dict:
    """containment_pairs on a ``dup``×-replicated corpus: every replica
    pair is 100%-contained both ways, so output pairs grow
    O(dup²·docs-with-grams) while the driver must stay flat — the
    shared-count grouped_agg, the window-count attaches and the τ
    filter are all in the data plane (the attach gate broadcasts only
    the docs×dup window-count table, a sliver of the pair stream)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.functions.dedup import containment_pairs

    def shift(batch: pa.Table, off: int) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("doc_id"), "doc_id",
            pc.add(batch.column("doc_id"), off))

    parts = []
    for k in range(dup):
        dsk = ray.data.read_parquet(
            str(Path(sf_dir) / "documents.parquet"),
            columns=["doc_id", "text"])
        if k:
            dsk = dsk.map_batches(shift, fn_kwargs={"off": k * 1_000_000},
                                  batch_format="pyarrow",
                                  runtime_env=runtime_env())
        parts.append(dsk)
    ds = parts[0] if dup == 1 else parts[0].union(*parts[1:])
    t0 = time.monotonic()
    pairs = containment_pairs(ds, k=8, tau_pct=50,
                              max_bucket=4096, shuffle_partitions=8)
    n = pairs.count()
    return {
        "case": "containment", "dup": dup, "pairs": n,
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_knn(n: int) -> dict:
    """knn_graph on n synthetic 16-dim vectors split into ~1 MB blocks:
    output is EXACTLY n·k rows whatever n is, per-task memory is two
    blocks, and wall grows ~quadratically (exact all-pairs is O(n²) by
    definition — the smoke documents the inherent cost the partial
    top-k does NOT hide, while RSS stays flat because the O(n²) sim
    matrices never leave the tasks)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.ann import knn_graph

    rng = np.random.default_rng(1)
    dim, k = 16, 3
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
        "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
    })
    ds = ray.data.from_arrow(t)
    t0 = time.monotonic()
    out = knn_graph(ds, k=k, target_block_bytes=1 << 20)
    rows = out.count()
    assert rows == n * k, (rows, n * k)
    return {
        "case": "knn", "n": n, "rows": rows,
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_bpe(dup: int, sf_dir: str) -> dict:
    """bpe_pair_counts on a ``dup``×-replicated corpus — the text is
    identical across copies, so the DISTINCT-WORD table (the only thing
    the pair stage ever sees) must stay CONSTANT while corpus tokens
    grow dup×.  Evidence: vocab_rows and pair_rows flat across dup,
    driver RSS flat, wall grows ~linearly only in the explode stage."""
    import pyarrow as pa
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.functions.agg import grouped_agg
    from deepwebharvester_ray.functions.textops import WORD_RE

    parts = []
    for _ in range(dup):
        parts.append(ray.data.read_parquet(
            str(Path(sf_dir) / "documents.parquet"), columns=["text"]))
    ds = parts[0] if dup == 1 else parts[0].union(*parts[1:])

    def explode(batch: pa.Table) -> pa.Table:
        toks = []
        for t in batch.column("text").to_pylist():
            toks.extend(WORD_RE.findall((t or "").lower()))
        return pa.table({"w": pa.array(toks, pa.string())})

    t0 = time.monotonic()
    words = grouped_agg(
        ds.map_batches(explode, batch_format="pyarrow",
                       runtime_env=runtime_env()),
        ["w"], [("n", "", "count")],
    ).materialize()
    vocab_rows = words.count()

    def pair_explode(batch: pa.Table) -> pa.Table:
        ws = batch.column("w").to_pylist()
        ns = batch.column("n").combine_chunks().to_numpy(
            zero_copy_only=False)
        pairs, weights = [], []
        for w, n in zip(ws, ns):
            for i in range(len(w) - 1):
                pairs.append(w[i:i + 2])
                weights.append(n)
        t = pa.table({"pair": pa.array(pairs, pa.string()),
                      "n": pa.array(weights, pa.int64())})
        return t.group_by(["pair"]).aggregate([("n", "sum")]).select(
            ["pair", "n_sum"]).rename_columns(["pair", "n"])

    pair_counts = grouped_agg(
        words.map_batches(pair_explode, batch_format="pyarrow",
                          batch_size=None, runtime_env=runtime_env()),
        ["pair"], [("n", "n", "sum")],
    ).materialize()
    return {
        "case": "bpe", "dup": dup,
        "vocab_rows": vocab_rows,
        "pair_rows": pair_counts.count(),
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_skewagg(n: int, plain: bool) -> dict:
    """Grouped SUM under a planted 50%-share hot key at n rows: the
    combiner (grouped_agg) collapses the hot key inside every block
    before the exchange, so the shuffle ships O(distinct × blocks) rows
    regardless of skew; ``--plain`` runs Ray's native groupby().sum()
    directly, whose hash partitioner lands the hot key's entire row
    share in ONE reduce task.  Same planted distribution as skewjoin."""
    import pyarrow as pa
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.functions.agg import grouped_agg

    n_keys = 1000
    blocks = 64

    def gen(batch: pa.Table) -> pa.Table:
        import numpy as np

        i0 = batch.column("b").to_numpy(zero_copy_only=False)[0]
        rows = n // blocks
        rng_idx = (np.arange(rows, dtype=np.int64) + i0 * rows)
        hot = (rng_idx % 2) == 0                # 50% share on key 0
        keys = np.where(hot, 0, rng_idx % n_keys)
        return pa.table({
            "k": pa.array(keys, pa.int64()),
            "v": pa.array(rng_idx % 97, pa.int64()),
        })

    ds = ray.data.from_arrow(pa.table({"b": pa.array(range(blocks),
                                                     pa.int64())}))
    ds = ds.repartition(blocks).map_batches(
        gen, batch_format="pyarrow", batch_size=None,
        runtime_env=runtime_env())
    t0 = time.monotonic()
    if plain:
        out = ds.groupby("k").sum("v").materialize()
        rows = out.count()
    else:
        out = grouped_agg(ds, ["k"], [("s", "v", "sum"),
                                      ("c", "", "count")]).materialize()
        rows = out.count()
    return {
        "case": "skewagg", "n": n, "plain": plain, "groups": rows,
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_stream(dup: int, sf_dir: str) -> dict:
    """streaming_sessionize on a ``dup``×-extended event stream (copy k
    shifts users by 10⁶·k and times by k hours, so the populations'
    sessions interleave): emitted rows grow dup× while the max OPEN
    state across the run stays bounded by the concurrently-active user
    count — the watermark-eviction contract."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.functions.streaming import (
        streaming_sessionize,
    )

    def shift(batch: pa.Table, k: int) -> pa.Table:
        return pa.table({
            "user_id": pc.add(batch.column("user_id"), 1_000_000 * k),
            "ts": pc.add(batch.column("ts").cast(pa.int64()),
                         3_600_000_000 * k).cast(pa.timestamp("us")),
        })

    parts = []
    for k in range(dup):
        dsk = ray.data.read_parquet(
            str(Path(sf_dir) / "events.parquet"),
            columns=["user_id", "ts"])
        parts.append(dsk.map_batches(shift, fn_kwargs={"k": k},
                                     batch_format="pyarrow",
                                     runtime_env=runtime_env()))
    ds = parts[0] if dup == 1 else parts[0].union(*parts[1:])
    t0 = time.monotonic()
    out, stats = streaming_sessionize(ds, evict_every=1,
                                      return_stats=True)
    rows = out.count()
    return {
        "case": "stream", "dup": dup, "rows": rows,
        "max_open_state": stats["max_open_state_rows"],
        "emitted_partials": stats["emitted_partials"],
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_skewjoin(n: int, plain: bool) -> dict:
    """Fact⋈dim under a planted 40%-share hot key at n rows: the case
    skew_join exists for.  ``--plain`` runs the native hash join instead
    — its hot partition serializes on one task, so wall diverges as n
    grows while skew_join's hot share stays map-side."""
    import numpy as np
    import pyarrow as pa
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.functions.partition import (coalesce_nonempty,
                                                          skew_join)

    n_dim = 1000

    def fact_of(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").combine_chunks().to_numpy(
            zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        k = np.where(h < np.uint64(int(0.4 * 2**64)), np.int64(7),
                     (ids % n_dim).astype(np.int64))
        # a ~160-byte payload per row: join skew is a BYTES problem —
        # the plain hash join must ship the hot key's whole payload
        # share into one aggregator
        pay = (np.arange(20, dtype=np.int64)[None, :]
               + ids[:, None]).astype("<i8").tobytes()
        payload = pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(160), len(ids), [None, pa.py_buffer(pay)])
        return pa.table({
            "k": pa.array(k, pa.int64()),
            "v": pa.array(ids, pa.int64()),
            "payload": payload,
        })

    fact = ray.data.range(n).map_batches(
        fact_of, batch_format="pyarrow", runtime_env=runtime_env())
    dim = ray.data.from_arrow(pa.table({
        "dk": pa.array(np.arange(n_dim, dtype=np.int64)),
        "name": pa.array([f"d{i}" for i in range(n_dim)], pa.string()),
    }))
    t0 = time.monotonic()
    if plain:
        fl = coalesce_nonempty(fact)
        dl = coalesce_nonempty(dim)
        joined = fl.join(dl, "inner", num_partitions=16,
                         on=("k",), right_on=("dk",))
    else:
        joined = skew_join(fact, dim, "k", "dk", hot_fraction=0.05,
                           num_partitions=16)
    rows = joined.count()
    return {
        "case": "skewjoin", "n": n, "path": "plain" if plain else "skew",
        "rows": rows,
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_bloomjoin(n: int, plain: bool) -> dict:
    """Runtime Bloom join filter at n fact rows against a 2%-selective
    build side: the pruned plan broadcasts a constant-size bitmap and
    drops non-candidate fact rows MAP-SIDE, so the aggregation exchange
    sees ~2% of the fact (+<1% Bloom false hits); ``--plain`` aggregates
    the FULL fact first and filters after — the exchange ships every
    row.  Both plans end in the same exact semi-join, identical output."""
    import pyarrow as pa
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.functions.agg import grouped_agg
    from deepwebharvester_ray.functions.bloom import bloom_build, bloom_probe
    from deepwebharvester_ray.functions.dedup import semi_join_ids

    n_keys = 1_000_000
    sel_mod = 50                      # build side = 2% of the key space
    blocks = 64

    def gen(batch: pa.Table) -> pa.Table:
        import numpy as np

        i0 = batch.column("b").to_numpy(zero_copy_only=False)[0]
        rows = n // blocks
        idx = np.arange(rows, dtype=np.int64) + i0 * rows
        return pa.table({
            "k": pa.array(idx % n_keys, pa.int64()),
            "v": pa.array(idx % 97, pa.int64()),
        })

    fact = ray.data.from_arrow(pa.table({"b": pa.array(range(blocks),
                                                       pa.int64())}))
    fact = fact.repartition(blocks).map_batches(
        gen, batch_format="pyarrow", batch_size=None,
        runtime_env=runtime_env())
    import numpy as np

    build = ray.data.from_arrow(pa.table({
        "k": pa.array(np.arange(0, n_keys, sel_mod, dtype=np.int64)),
    }))

    t0 = time.monotonic()
    if plain:
        agg = grouped_agg(fact, ["k"], [("s", "v", "sum")])
        exchange_rows = n
    else:
        words_ref = ray.put(bloom_build(build, "k"))

        def probe(batch: pa.Table) -> pa.Table:
            from deepwebharvester_ray.broadcast import cached_get

            keys = batch.column("k").combine_chunks().to_numpy(
                zero_copy_only=False)
            hit = bloom_probe(cached_get(words_ref), keys)
            return batch.filter(pa.array(hit))

        survivors = fact.map_batches(
            probe, batch_format="pyarrow",
            runtime_env=runtime_env()).materialize()
        exchange_rows = survivors.count()
        agg = grouped_agg(survivors, ["k"], [("s", "v", "sum")])
    out = semi_join_ids(agg, build, id_column="k",
                        keep_column="k").materialize()
    return {
        "case": "bloomjoin", "n": n, "plain": plain,
        "exchange_rows": exchange_rows, "groups": out.count(),
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_fuzzy(n: int) -> dict:
    """edit1_pairs over an n-token decimal vocabulary: candidate stream
    O(V · avg_len), pairs grow ~linearly with V — wall must grow ~
    linearly and driver RSS stay flat (everything but the final count
    lives in the data plane)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.fuzzy import edit1_pairs

    toks = np.char.mod("%d", np.arange(n))
    ds = ray.data.from_arrow(
        pa.table({"token": pa.array(toks)})
    ).repartition(32)
    t0 = time.monotonic()
    n_pairs = edit1_pairs(ds, col="token").count()
    return {
        "case": "fuzzy", "n": n, "pairs": n_pairs,
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_skyline(n: int) -> dict:
    """skyline2d over n random 2-D int points: the per-block
    partial-frontier combiner keeps the merge O(blocks · frontier)
    (~log n for random data) — driver RSS flat, wall ~linear, while the
    SQL NOT EXISTS equivalent is O(n²)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.skyline import skyline2d

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        x = (h >> np.uint64(34)).astype(np.int64)          # 30-bit
        h2 = (h ^ (h >> np.uint64(31))) * np.uint64(0xBF58476D1CE4E5B9)
        y = (h2 >> np.uint64(34)).astype(np.int64)
        return pa.table({"x": pa.array(x, pa.int64()),
                         "y": pa.array(y, pa.int64())})

    from deepwebharvester_ray import runtime_env

    ds = ray.data.range(n, override_num_blocks=64).map_batches(
        gen, batch_format="pyarrow", runtime_env=runtime_env()
    )
    t0 = time.monotonic()
    rows = skyline2d(ds, x_col="x", y_col="y").count()
    return {
        "case": "skyline", "n": n, "frontier": rows,
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_cosine(n: int) -> dict:
    """cosine_pairs_exact over n docs with a REALISTIC geometric df
    spectrum (doc slot k draws from a 2^k vocabulary, k=0..13 — slot-0
    tokens are universal/zero-weight, slot-13 near-unique), plus a
    planted near-dup per 10 docs.  Evidence that the probe–index
    prefix filter holds when rare tokens EXIST (the synthetic sf
    tables are the degenerate all-common-vocabulary case): pairs and
    wall must grow ~linearly with n and driver RSS stay flat."""
    import numpy as np
    import pyarrow as pa
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.functions.dedup import cosine_pairs_exact

    SLOTS = 14

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_numpy(zero_copy_only=False)
        eff = np.where((ids > 0) & (ids % 10 == 7), ids - 1, ids)
        texts = []
        for e in eff:
            toks = []
            for k in range(SLOTS):
                h = (int(e) * 2654435761 + k * 40503 + 11) % (1 << 61)
                toks.append(f"t{k}x{h % (1 << k)}")
            texts.append(" ".join(toks))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )

    ds = ray.data.range(n, override_num_blocks=32).map_batches(
        gen, batch_format="pyarrow", runtime_env=runtime_env()
    )
    t0 = time.monotonic()
    n_pairs = cosine_pairs_exact(
        ds, tau=(4, 5), n_docs=n, shuffle_partitions=32
    ).count()
    return {
        "case": "cosine", "n": n, "pairs": n_pairs,
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_gscan(n: int) -> dict:
    """grouped_prefix_scan over n rows x 20 interleaved groups: ONE sort
    on the unique key, driver state O(blocks x groups) tiny rows — wall
    ~linear in n, driver RSS flat (the per-group window scan never
    materializes a window or sorts on the 20-value group key)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.functions.scan import grouped_prefix_scan

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        return pa.table({
            "k": pa.array(h.astype(np.int64), pa.int64()),  # unique key
            "g": pa.array((ids % 20).astype(np.int64), pa.int64()),
            "v": pa.array(np.ones(len(ids), np.int64), pa.int64()),
        })

    ds = ray.data.range(n, override_num_blocks=64).map_batches(
        gen, batch_format="pyarrow", runtime_env=runtime_env()
    )
    t0 = time.monotonic()
    out = grouped_prefix_scan(ds, key="k", group="g", value_col="v")
    # checksum: sum of per-group running counts = sum over groups of
    # n_g*(n_g+1)/2 — exact, verifies the scan without materializing it
    total = out.sum("running")
    import collections
    cnt = collections.Counter(i % 20 for i in range(n))
    expect = sum(c * (c + 1) // 2 for c in cnt.values())
    assert total == expect, (total, expect)
    return {
        "case": "gscan", "n": n,
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_aa(n: int) -> dict:
    """adamic_adar over a synthetic n-node corpus-rule link graph (the
    real q_adamic_adar against a /tmp documents table of n doc_ids):
    wedge volume and pair table grow ~linearly (3-regular graph), and
    the DRIVER footprint is only the documented broadcast envelope
    (degree map + packed edge keys, ~32 B/node) — RSS must grow far
    slower than the wedge volume, and the top-50 stays 50 rows."""
    import shutil
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from deepwebharvester_ray.pipelines.queries import q_adamic_adar

    tmp = tempfile.mkdtemp(prefix="dwh_aa_stress_")
    try:
        pq.write_table(pa.table({
            "doc_id": pa.array(range(n), pa.int64()),
        }), str(Path(tmp) / "documents.parquet"))
        t0 = time.monotonic()
        out = q_adamic_adar(tmp).take_all()
        assert len(out) == 50
        return {
            "case": "aa", "n": n,
            "rows": len(out),
            "wall_s": round(time.monotonic() - t0, 2),
            "driver_rss_mb": round(_rss_mb(), 1),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_xsubstr(dup: int, sf_dir: str) -> dict:
    """remove_dup_spans on a ``dup``×-replicated corpus — with dup > 1
    EVERY window of every replica sits in a cross-doc run (the
    all-boilerplate worst case that would be O(m²) for pair emitters;
    the run pass stays O(m) — marking is reduceats + a first-row drop).
    Exactness at scale shape: every SHIFTED replica with ≥ k tokens must
    come back FULLY excised (its every window loses to the original's
    canonical occurrence), asserted over the whole output; wall should
    grow ~linearly in dup with a flat driver (only per-block scalar
    rollups are pulled)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.functions.dedup import remove_dup_spans

    def shift(batch: pa.Table, off: int) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("doc_id"), "doc_id",
            pc.add(batch.column("doc_id"), off))

    parts = []
    for j in range(dup):
        dsk = ray.data.read_parquet(
            str(Path(sf_dir) / "documents.parquet"),
            columns=["doc_id", "text"])
        if j:
            dsk = dsk.map_batches(shift, fn_kwargs={"off": j * 1_000_000},
                                  batch_format="pyarrow",
                                  runtime_env=runtime_env())
        parts.append(dsk)
    ds = parts[0] if dup == 1 else parts[0].union(*parts[1:])
    t0 = time.monotonic()
    out = remove_dup_spans(ds, k=8, shuffle_partitions=8)

    def rollup(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        tot = b.column("tokens_total").to_numpy(zero_copy_only=False)
        rem = b.column("tokens_removed").to_numpy(zero_copy_only=False)
        rep = ids >= 1_000_000            # shifted replicas
        bad = int((rep & (tot >= 8) & (rem != tot)).sum())
        return pa.table({
            "rows": pa.array([len(ids)], pa.int64()),
            "removed": pa.array([int(rem.sum())], pa.int64()),
            "bad_replica": pa.array([bad], pa.int64()),
        })

    agg = out.map_batches(rollup, batch_format="pyarrow", batch_size=None,
                          runtime_env=runtime_env()).take_all()
    rows = sum(r["rows"] for r in agg)
    bad = sum(r["bad_replica"] for r in agg)
    assert bad == 0, f"{bad} replicas not fully excised"
    return {
        "case": "xsubstr", "dup": dup, "rows": rows,
        "tokens_removed": sum(r["removed"] for r in agg),
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_incdedup(n: int) -> dict:
    """dedup_index build/probe at a ``n``-doc base: build the bucketed
    fingerprint index once, then probe a FIXED 2 000-doc delta (half
    dups, half new) — the evidence that probe wall is delta-
    proportional, not base-proportional (run with --n 100000 and --n
    400000: build wall grows ~linearly, probe wall stays ~flat)."""
    import shutil
    import tempfile

    import pyarrow as pa
    import ray

    from deepwebharvester_ray.functions.dedup import (dedup_index_build,
                                                      dedup_index_probe)

    texts = pa.array([f"page body {i} {(i * 31) % 977} filler words"
                      for i in range(n)], pa.string())
    base = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(n), pa.int64()), "text": texts,
    })).repartition(16).materialize()
    d_ids = list(range(n, n + 20))
    d_txt = [(f"page body {i - n} {((i - n) * 31) % 977} filler words"
              if (i % 2 == 0) else f"fresh delta content {i}")
             for i in d_ids]
    delta = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(d_ids, pa.int64()),
        "text": pa.array(d_txt, pa.string()),
    })).materialize()

    idx = tempfile.mkdtemp(prefix="dwh_incdedup_", dir="/tmp")
    try:
        t0 = time.monotonic()
        dedup_index_build(base, idx, n_buckets=512)
        build_s = time.monotonic() - t0
        t0 = time.monotonic()
        out = dedup_index_probe(delta, idx).take_all()
        probe_s = time.monotonic() - t0
        n_dup = sum(r["is_dup"] for r in out)
        assert len(out) == 20 and n_dup == 10, (len(out), n_dup)
        return {
            "case": "incdedup", "base_docs": n, "delta_docs": 20,
            "n_dup": n_dup,
            "build_s": round(build_s, 2), "probe_s": round(probe_s, 2),
            "wall_s": round(build_s + probe_s, 2),
            "driver_rss_mb": round(_rss_mb(), 1),
        }
    finally:
        shutil.rmtree(idx, ignore_errors=True)


def run_spans(n: int) -> dict:
    """quote_span_pairs over a synthetic n-doc corpus where every 10th
    doc shares a 40-token verbatim run with its neighbor: pairs = n/10
    with span exactly 40 and 33 matched windows each — output
    cardinality, positioned-gram volume and both all-to-alls grow
    linearly with n, and the operator ships NOTHING to the driver —
    measured ru_maxrss growth is the smoke's own in-driver corpus
    synthesis (n × ~1 KB Python text strings), not operator state.
    Measured (idle box): 20k docs → 5.0 s, 80k → 10.8 s (4× input,
    2.1× wall — scheduling floor amortizing)."""
    import shutil
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from deepwebharvester_ray.functions.dedup import quote_span_pairs
    import ray

    tmp = tempfile.mkdtemp(prefix="dwh_spans_stress_")
    try:
        texts = []
        for i in range(n):
            toks = [f"d{i}w{j}" for j in range(100)]
            if i % 10 == 0 and i + 1 < n:
                toks[30:70] = [f"s{i}x{j}" for j in range(40)]
            elif i % 10 == 1:
                toks[5:45] = [f"s{i-1}x{j}" for j in range(40)]
            texts.append(" ".join(toks))
        pq.write_table(pa.table({
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }), str(Path(tmp) / "documents.parquet"))
        ds = ray.data.read_parquet(str(Path(tmp) / "documents.parquet"))
        t0 = time.monotonic()
        out = quote_span_pairs(ds, k=8).take_all()
        expect = len([i for i in range(n) if i % 10 == 0 and i + 1 < n])
        assert len(out) == expect, (len(out), expect)
        assert all(r["span_tokens"] == 40 and r["n_matches"] == 33
                   for r in out)
        return {
            "case": "spans", "n": n,
            "pairs": len(out),
            "wall_s": round(time.monotonic() - t0, 2),
            "driver_rss_mb": round(_rss_mb(), 1),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_sdedup(n: int, distinct: int) -> dict:
    """streaming_dedup over an n-row dup-heavy stream with `distinct`
    unique contents: emitted rows == distinct, per-shard state O(its
    partition of distinct) regardless of stream length — the live
    seen-set boundedness claim measured."""
    import numpy as np
    import pyarrow as pa
    import ray

    from deepwebharvester_ray import runtime_env
    from deepwebharvester_ray.functions.streaming import streaming_dedup

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = ids.astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
        content = (h % np.uint64(distinct)).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array([f"content {c}" for c in content.tolist()],
                             pa.string()),
        })

    ds = ray.data.range(n, override_num_blocks=32).map_batches(
        gen, batch_format="pyarrow", runtime_env=runtime_env()
    )
    # expected distinct = the hash's ACTUAL residue coverage (the
    # stride map need not hit every residue class)
    ids = np.arange(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        expect = len(np.unique((ids * np.uint64(0xBF58476D1CE4E5B9))
                               % np.uint64(distinct)))
    t0 = time.monotonic()
    out, stats = streaming_dedup(ds, micro_batch=8192, return_stats=True)
    assert out.num_rows == expect, (out.num_rows, expect)
    return {
        "case": "sdedup", "n": n, "distinct": expect,
        "emitted": out.num_rows, "state_rows": stats["state_rows"],
        "wall_s": round(time.monotonic() - t0, 2),
        "driver_rss_mb": round(_rss_mb(), 1),
    }


def run_extract(corpus_dir: str, n: int) -> dict:
    import statistics

    import pyarrow.parquet as pq

    from deepwebharvester_ray import extract

    pages = [(r["url"], r["html"].decode("utf-8", errors="replace"))
             for f in sorted(Path(corpus_dir).rglob("*.parquet"))
             for r in pq.read_table(f, columns=["url", "html"]).to_pylist()
             ][:n]
    all_equal = all(extract.extract_content(h, u)
                    == extract._extract_stdlib(h, u) for u, h in pages)

    def pages_per_s(fn) -> float:
        walls = []
        for _ in range(3):
            t0 = time.perf_counter()
            for u, h in pages:
                fn(h, u)
            walls.append(time.perf_counter() - t0)
        return round(len(pages) / statistics.median(walls), 1)

    # hrefs that reach the urljoin chain from _resolve_href missed its
    # fast path (skipped '#'/javascript:/mailto: hrefs included)
    joined = 0
    join_href = extract._join_href

    def counting_join(base_url: str, href: str):
        nonlocal joined
        joined += 1
        return join_href(base_url, href)

    hrefs = [(u, extract._parse(h).hrefs) for u, h in pages]
    extract._join_href = counting_join
    try:
        for u, hs in hrefs:
            extract.extract_links(u, hs)
    finally:
        extract._join_href = join_href
    n_hrefs = sum(len(hs) for _, hs in hrefs)
    taken = sum(extract._scan(h) is not None for _, h in pages)
    return {
        "case": "extract", "corpus": corpus_dir, "pages": len(pages),
        "hrefs": n_hrefs,
        "fast_pages_per_s": pages_per_s(extract.extract_content),
        "stdlib_pages_per_s": pages_per_s(extract._extract_stdlib),
        "tokenizer_share": round(taken / max(len(pages), 1), 4),
        "resolver_fast_share": round(1 - joined / max(n_hrefs, 1), 4),
        "all_equal": all_equal,
    }


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("case", choices=["seen",
                                    "minhash", "frontier", "highcard",
                                    "interval", "pagerank", "semdedup",
                                    "passage", "skewjoin", "bpe",
                                    "stream", "skewagg", "bloomjoin",
                                    "containment", "knn", "fuzzy",
                                    "skyline", "cosine", "gscan",
                                    "sdedup", "aa", "spans",
                                    "xsubstr", "incdedup", "resolve",
                                    "embedlsh", "extract"])
    p.add_argument("--dup", type=int, default=1)
    p.add_argument("--seeds", type=int, default=10_000)
    p.add_argument("--shards", type=int, default=None)
    p.add_argument("--driver", action="store_true",
                   help="frontier: use the driver-local queue")
    p.add_argument("--n", type=int, default=10_000_000)
    p.add_argument("--factor", type=int, default=4,
                   help="frontier: corpus duplication factor (pages = docs x factor)")
    p.add_argument("--depth", type=int, default=2,
                   help="frontier: crawl depth (max_depth)")
    p.add_argument("--join", action="store_true",
                   help="pagerank: force the hash-join propagation path")
    p.add_argument("--plain", action="store_true",
                   help="skewjoin: use the plain native hash join")
    p.add_argument("--sf", default="/root/testdata/sf0.01")
    p.add_argument("--corpus", help="extract: a (url, html) parquet corpus")
    p.add_argument("--cpus", type=int, default=16)
    p.add_argument("--nodes", type=int, default=0,
                   help="simulated multi-node cluster (ray.cluster_utils): "
                   "N nodes x --cpus CPUs each, own raylet + object "
                   "store per node so cross-node transfer is real "
                   "(loopback network) - the bench.py --scaling-nodes "
                   "idiom for shuffle-heavy operators")
    args = p.parse_args()
    if args.case == "extract":
        if not args.corpus:
            p.error("extract needs --corpus DIR")
        print(json.dumps(run_extract(args.corpus, args.n)))
        return

    import ray

    cluster = None
    if args.nodes > 0:
        from ray.cluster_utils import Cluster

        store = 8 * 1024**3
        cluster = Cluster(
            initialize_head=True,
            head_node_args={"num_cpus": args.cpus,
                            "object_store_memory": store},
        )
        for _ in range(args.nodes - 1):
            cluster.add_node(num_cpus=args.cpus, object_store_memory=store)
        ray.init(address=cluster.address, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False)
    else:
        ray.init(address="local", num_cpus=args.cpus,
                 include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False)
    try:
        if args.case == "seen":
            out = run_seen(args.n, args.shards or 8)
        elif args.case == "minhash":
            out = run_minhash(args.dup, args.sf)
        elif args.case == "frontier":
            shards = 0 if args.driver else (args.shards or 8)
            out = run_frontier(args.seeds, shards, args.sf, args.factor,
                               args.depth)
        elif args.case == "interval":
            out = run_interval(args.dup, args.sf)
        elif args.case == "pagerank":
            out = run_pagerank(args.n, args.join)
        elif args.case == "semdedup":
            out = run_semdedup(args.dup, args.sf)
        elif args.case == "passage":
            out = run_passage(args.dup, args.sf)
        elif args.case == "skewjoin":
            out = run_skewjoin(args.n, args.plain)
        elif args.case == "bpe":
            out = run_bpe(args.dup, args.sf)
        elif args.case == "stream":
            out = run_stream(args.dup, args.sf)
        elif args.case == "skewagg":
            out = run_skewagg(args.n, args.plain)
        elif args.case == "bloomjoin":
            out = run_bloomjoin(args.n, args.plain)
        elif args.case == "containment":
            out = run_containment(args.dup, args.sf)
        elif args.case == "knn":
            out = run_knn(args.n)
        elif args.case == "fuzzy":
            out = run_fuzzy(args.n)
        elif args.case == "skyline":
            out = run_skyline(args.n)
        elif args.case == "gscan":
            out = run_gscan(args.n)
        elif args.case == "sdedup":
            out = run_sdedup(args.n, max(1, args.n // 10))
        elif args.case == "aa":
            out = run_aa(args.n)
        elif args.case == "resolve":
            out = run_resolve(args.n, args.join)
        elif args.case == "spans":
            out = run_spans(args.n)
        elif args.case == "xsubstr":
            out = run_xsubstr(args.dup, args.sf)
        elif args.case == "incdedup":
            out = run_incdedup(args.n)
        elif args.case == "embedlsh":
            out = run_embedlsh(args.dup, args.sf)
        elif args.case == "cosine":
            out = run_cosine(args.n)
        else:
            out = run_highcard(args.n)
    finally:
        ray.shutdown()
        if cluster is not None:
            cluster.shutdown()
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main() or 0)
