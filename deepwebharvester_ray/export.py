"""Export / archive CLI: the round-2 surfaces as user commands.

``python -m deepwebharvester_ray.export <cmd> …`` with:

* ``warc``      — a page corpus as WARC (``--wet`` for conversion/WET)
  shards + CDX indexes;
* ``wds``       — a page corpus as WebDataset ``.tar`` training shards;
* ``sitemap``   — the corpus URL set as sharded urlsets + index;
* ``cdx-diff``  — two WARC archive dirs diffed from their CDX indexes
  alone (prints JSON status counts; no payload bytes read).

Owns its Ray session (the CLI contract: only bench.py, the CLIs and the
test fixture init Ray).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import numpy as np
import pyarrow as pa

from . import runtime_env


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="deepwebharvester-ray-export",
        description="Archive / training-export commands over a Parquet "
        "page corpus")
    sub = p.add_subparsers(dest="cmd", required=True)

    w = sub.add_parser("warc", help="export corpus as WARC shards + CDX")
    w.add_argument("--corpus", required=True)
    w.add_argument("--out", required=True)
    w.add_argument("--shards", type=int, default=16)
    w.add_argument("--wet", action="store_true",
                   help="conversion (extracted-text) records instead of "
                   "response records")

    d = sub.add_parser("wds", help="export corpus as WebDataset shards")
    d.add_argument("--corpus", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--shards", type=int, default=16)

    s = sub.add_parser("sitemap", help="publish corpus URLs as sitemaps")
    s.add_argument("--corpus", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--shards", type=int, default=4)
    s.add_argument("--base-url", default="")

    c = sub.add_parser("cdx-diff",
                       help="diff two WARC archives from CDX only")
    c.add_argument("--old", required=True)
    c.add_argument("--new", required=True)
    return p


def _ray_init():
    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, runtime_env=runtime_env())


def _read_pages(corpus: str):
    import ray

    return ray.data.read_parquet(corpus)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    _ray_init()

    if args.cmd == "warc":
        from .warc import write_warc

        cols = (["url", "warc_ts", "text"] if args.wet
                else ["url", "warc_ts", "html"])
        import ray

        pages = ray.data.read_parquet(args.corpus, columns=cols)
        stats = write_warc(pages, args.out,
                           record_type="conversion" if args.wet
                           else "response",
                           n_shards=args.shards)
        print(json.dumps(stats))
        return 0

    if args.cmd == "wds":
        from .sinks import write_wds_shards
        from .urlops import url_hash64

        pages = _read_pages(args.corpus)

        def add_key(batch: pa.Table) -> pa.Table:
            ids = np.asarray(
                [url_hash64(u) for u in
                 batch.column("url").to_pylist()],
                np.uint64)
            # clear the sign bit (NOT np.abs: abs folds x/-x together,
            # halving the keyspace, and abs(int64.min) stays negative,
            # breaking the fixed-width {rid:012d} stem)
            ids = (ids & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
            return pa.table({
                "doc_id": pa.array(ids, pa.int64()),
                "text": batch.column("text"),
                "url": batch.column("url"),
                "lang": batch.column("lang"),
            })

        stats = write_wds_shards(
            pages.map_batches(add_key, batch_format="pyarrow"),
            args.out, n_shards=args.shards)
        print(json.dumps(stats))
        return 0

    if args.cmd == "sitemap":
        from .sitemap import write_sitemaps

        import ray

        pages = ray.data.read_parquet(args.corpus,
                                      columns=["url", "warc_ts"])

        def prep(batch: pa.Table) -> pa.Table:
            return pa.table({
                "url": batch.column("url"),
                "lastmod_us": batch.column("warc_ts").combine_chunks()
                .cast(pa.timestamp("us")).cast(pa.int64()),
            })

        stats = write_sitemaps(
            pages.map_batches(prep, batch_format="pyarrow"),
            args.out, base_url=args.base_url, n_shards=args.shards)
        print(json.dumps(stats))
        return 0

    if args.cmd == "cdx-diff":
        from .warc import read_cdx

        def idx(path: str) -> dict:
            out = {}
            for r in read_cdx(path).take_all():  # index-sized only
                out[r["urlkey"]] = r["digest"]
            return out

        old, new = idx(args.old), idx(args.new)
        counts = {"added": 0, "removed": 0, "changed": 0, "same": 0}
        for k, dg in new.items():
            if k not in old:
                counts["added"] += 1
            elif old[k] != dg:
                counts["changed"] += 1
            else:
                counts["same"] += 1
        counts["removed"] = sum(1 for k in old if k not in new)
        print(json.dumps(counts))
        return 0

    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
