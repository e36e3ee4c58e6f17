"""Deterministic synthetic page-corpus generator.

The live Tor network of the reference is replaced (per BASELINE.json
``input_hint``) by a Parquet table of Common-Crawl-style pages::

    url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string

This module derives such a corpus *deterministically from the driver's
``documents`` table* (so DuckDB oracles can recompute every expected output
from the same ``documents`` view via pure SQL — no sidecar files), and can
expand it by an integer factor for benchmarking.  No external data.

Corpus structure (all formulas are SQL-expressible):

* ``HOSTS = 64`` synthetic v3 .onion hosts; page *d* lives on host
  ``d % 64`` at path ``/d/{d}``.
* Every page embeds links exercising each extractor branch
  (reference extractor.py:74-93, FIXTURES.md §1.1): absolute same/cross
  host, a ``#fragment`` duplicate, an uppercase-host + trailing-slash link
  (canonicalization), a relative link, a link to a URL absent from the
  corpus (fetch-failure path), a ``/login`` blacklisted link, plus
  ``javascript:``/``mailto:``/``#``/clearweb noise links and ``<script>``/
  ``<style>``/``<noscript>`` noise content.
* Pages with ``d % 10 == 7`` (and d > 0) are **mirrors**: their body is the
  byte-identical content of page ``d-1`` → exercises global content-hash
  dedup with links-still-propagate semantics (reference crawler.py:184-191).

Link targets of page *d* (``eff = d-1`` for mirrors, else ``d``):
``t1=(eff+1)%N`` absolute, ``t2=(eff+17)%N`` uppercase+slash,
``t3=(eff+64)%N`` relative.  For N > 101 the page always has exactly
5 distinct valid .onion links (t1, t2, t3, /missing/{eff}, /login).
"""
from __future__ import annotations

import base64
import hashlib
import html as html_mod
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Sequence

import pyarrow as pa
import pyarrow.parquet as pq

HOSTS = 64
N_BUCKETS = 16          # host-hash partition dirs in the written corpus
LINK_OFFSETS = (1, 17, 64)
DUP_MOD = 10
DUP_REMAINDER = 7
BASE_TS = datetime(2024, 1, 1, tzinfo=timezone.utc)
FORMAT_VERSION = 2      # bump to invalidate /tmp corpus caches

_CORPUS_CACHE = Path(os.environ.get("DWH_CORPUS_CACHE", "/tmp/dwh_corpus"))


def host_bucket_of(host: str) -> int:
    """Partition bucket for a host string — computable by any consumer
    (the fetch stage prunes its corpus read to the frontier's buckets)."""
    from .urlops import url_hash64

    return url_hash64(host) % N_BUCKETS


def host_name(idx: int) -> str:
    """Deterministic 56-char base32 v3 onion label for host *idx*."""
    digest = hashlib.blake2b(f"dwh-host-{idx}".encode(), digest_size=35).digest()
    return base64.b32encode(digest).decode().lower()


def host_of(doc_id: int) -> str:
    return host_name(doc_id % HOSTS) + ".onion"


def doc_url(doc_id: int) -> str:
    """Canonical URL of page *doc_id* (already in canonical form)."""
    return f"http://{host_of(doc_id)}/d/{doc_id}"


def effective_doc(doc_id: int) -> int:
    """Mirror pages (d%10==7, d>0) serve the content of page d-1."""
    if doc_id > 0 and doc_id % DUP_MOD == DUP_REMAINDER:
        return doc_id - 1
    return doc_id


def link_targets(eff: int, n_docs: int) -> List[int]:
    return [(eff + off) % n_docs for off in LINK_OFFSETS]


def page_html(doc_id: int, n_docs: int, text: str) -> str:
    """Render page *doc_id*'s HTML (body content keyed by the effective doc)."""
    eff = effective_doc(doc_id)
    t1, t2, t3 = link_targets(eff, n_docs)
    t2_href = f"HTTP://{host_of(t2).upper()}/d/{t2}/"
    login_host = host_of((eff + 1) % HOSTS)
    return (
        f"<html><head><title>Doc {eff}</title>"
        '<meta charset="utf-8"/>'
        "<script>var x = 1;</script>"
        "<style>body { color: black; }</style>"
        "</head><body>\n"
        f"<h1>Doc {eff}</h1>\n"
        f"<p>{html_mod.escape(text, quote=False)}</p>\n"
        "<ul>\n"
        f'<li><a href="{doc_url(t1)}">L{t1}</a></li>\n'
        f'<li><a href="{doc_url(t1)}#frag">F{t1}</a></li>\n'
        f'<li><a href="{t2_href}">L{t2}</a></li>\n'
        f'<li><a href="/d/{t3}">L{t3}</a></li>\n'
        f'<li><a href="/missing/{eff}">M{eff}</a></li>\n'
        f'<li><a href="http://{login_host}/login">LOGIN</a></li>\n'
        '<li><a href="javascript:void(0)">JS</a></li>\n'
        '<li><a href="mailto:user@example.com">MAIL</a></li>\n'
        '<li><a href="#">TOP</a></li>\n'
        '<li><a href="https://example.com/page">EXT</a></li>\n'
        "</ul>\n"
        "<noscript>NOSCRIPT-CONTENT</noscript>\n"
        "</body></html>"
    )


def expected_text(doc_id: int, n_docs: int, text: str) -> str:
    """Ground-truth extracted text of page *doc_id* — by construction,
    independent of the engine's HTML parser.  *text* is the EFFECTIVE doc's
    body text."""
    eff = effective_doc(doc_id)
    t1, t2, t3 = link_targets(eff, n_docs)
    body = text.strip()
    import re as _re

    body = _re.sub(r"\n{3,}", "\n\n", body)
    parts = [f"Doc {eff}"]
    if body:
        parts.append(body)
    parts += [f"L{t1}", f"F{t1}", f"L{t2}", f"L{t3}", f"M{eff}",
              "LOGIN", "JS", "MAIL", "TOP", "EXT"]
    return "\n".join(parts)


def expected_links(doc_id: int, n_docs: int) -> List[str]:
    """Ground-truth canonical link set of page *doc_id* (sorted).

    The relative links resolve against the page's OWN host (which differs
    from the effective doc's host on mirror pages).
    """
    eff = effective_doc(doc_id)
    t1, t2, t3 = link_targets(eff, n_docs)
    own = host_of(doc_id)
    links = {
        doc_url(t1),
        doc_url(t2),
        f"http://{own}/d/{t3}",
        f"http://{own}/missing/{eff}",
        f"http://{host_of((eff + 1) % HOSTS)}/login",
    }
    return sorted(links)


def build_pages_table(texts: Sequence[str], langs: Sequence[str] | None = None) -> pa.Table:
    """Build the pages table for ``len(texts)`` docs (doc i ↔ texts[i])."""
    n = len(texts)
    langs = langs if langs is not None else ["en"] * n
    urls, tss, htmls, out_texts, buckets = [], [], [], [], []
    base_us = int(BASE_TS.timestamp() * 1_000_000)
    for d in range(n):
        eff = effective_doc(d)
        urls.append(doc_url(d))
        tss.append(base_us + d * 1_000_000)
        htmls.append(page_html(d, n, texts[eff]).encode("utf-8"))
        out_texts.append(texts[eff])
        buckets.append(host_bucket_of(host_of(d)))
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(out_texts, pa.string()),
            "lang": pa.array(list(langs), pa.string()),
            "host_bucket": pa.array(buckets, pa.int32()),
        }
    )


def seed_urls(n_seeds: int) -> List[str]:
    """Seed URLs = pages 0..n_seeds-1 (each on a distinct host for n≤64)."""
    return [doc_url(d) for d in range(n_seeds)]


def _write_corpus(table: pa.Table, out_dir: Path) -> None:
    """Write the corpus partitioned by host_bucket (resumable layout)."""
    import shutil

    # NOT with_suffix: cache keys embed dotted sf names ("sf0.01_x1_…")
    # and with_suffix replaces everything after the FIRST dot, collapsing
    # every key to the same tmp dir — concurrent builds (pytest + bench)
    # would rmtree each other's in-progress writes
    tmp = out_dir.parent / (out_dir.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    pq.write_to_dataset(table, root_path=str(tmp), partition_cols=["host_bucket"])
    if out_dir.exists():
        # stale partial cache (crashed before _SUCCESS): replace it
        shutil.rmtree(out_dir)
    tmp.rename(out_dir)


def _read_documents(sf_dir: str) -> Dict[str, list]:
    t = pq.read_table(
        str(Path(sf_dir) / "documents.parquet"), columns=["doc_id", "text", "lang"]
    ).sort_by("doc_id")
    return {
        "doc_id": t.column("doc_id").to_pylist(),
        "text": t.column("text").to_pylist(),
        "lang": t.column("lang").to_pylist(),
    }


def corpus_from_documents(sf_dir: str, factor: int = 1) -> str:
    """Derive (and cache) the pages corpus from ``{sf_dir}/documents.parquet``.

    doc ids must be contiguous 0..N-1 (verified).  With ``factor`` > 1 the
    texts are cycled with a version salt so content hashes stay distinct
    across copies (bench-scale corpus, still fully deterministic).

    Returns the corpus directory path (partitioned Parquet dataset).
    """
    sf_name = Path(sf_dir).name or "sf"
    # cache key includes a digest of the SOURCE file identity (abs path +
    # size + mtime) so a different dataset with the same basename — or a
    # regenerated documents.parquet — never reuses a stale corpus
    src = Path(sf_dir) / "documents.parquet"
    st = src.stat()
    src_digest = hashlib.blake2b(
        f"{src.resolve()}|{st.st_size}|{st.st_mtime_ns}".encode(), digest_size=6
    ).hexdigest()
    out_dir = _CORPUS_CACHE / f"{sf_name}_x{factor}_v{FORMAT_VERSION}_{src_digest}"
    if (out_dir / "_SUCCESS").exists():
        return str(out_dir)
    docs = _read_documents(sf_dir)
    n = len(docs["doc_id"])
    assert docs["doc_id"] == list(range(n)), "documents doc_id must be 0..N-1"
    if factor == 1:
        texts = docs["text"]
        langs = docs["lang"]
    else:
        texts = [
            docs["text"][i % n] + f" v{i // n}" for i in range(n * factor)
        ]
        langs = [docs["lang"][i % n] for i in range(n * factor)]
    table = build_pages_table(texts, langs)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    _write_corpus(table, out_dir)
    (out_dir / "_SUCCESS").touch()
    return str(out_dir)


def corpus_digest(corpus_dir: str) -> str:
    """Cheap lineage digest of a corpus dir (file names + sizes).  A
    directory with no parquet files is refused: its digest would be the
    empty-input one, shared by every missing or empty directory."""
    files = sorted(Path(corpus_dir).rglob("*.parquet"))
    if not files:
        raise ValueError(
            f"corpus directory {corpus_dir!r} holds no parquet files")
    parts = [f"{p.relative_to(corpus_dir)}:{p.stat().st_size}"
             for p in files]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]
