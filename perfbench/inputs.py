"""Benchmark inputs: the synthetic page corpus, its reference extraction
table, and the per-seed workload inputs.

Everything is generated here, deterministically, and cached under the
work directory (``.bench_build/perfbench`` in the checkout by default):

* the corpus is :func:`deepwebharvester_ray.corpus.build_pages_table`
  over synthetic document texts — 64 hosts, 16 host-bucket partitions,
  every tenth page a byte-identical mirror (content-dedup path), link
  offsets +1/+17/+64 plus the missing-page, blacklisted and noise links;
* the reference table holds, per corpus page, the single-process
  ``extract.extract_content`` + ``intelligence.analyze`` output the
  output checks compare against (computed once per corpus, outside every
  timed region).

The corpus is fixed; a workload seed only picks which part of it a run
uses (frontier sample, seed offsets).
"""
from __future__ import annotations

import hashlib
import json
import random
import shutil
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import pyarrow as pa
import pyarrow.parquet as pq

N_PAGES = 20_000
CORPUS_SEED = 20_240_101
# bump when the generator or the reference table layout changes
INPUT_VERSION = 1

_WORDS = (
    "data crawl page index market forum thread reply post vendor shop price "
    "order listing escrow wallet payment shipping delivery member board topic "
    "community mirror archive service hidden network relay node circuit onion "
    "server client update release notes guide manual support contact about "
    "news report leak database dump account password login username breach "
    "malware exploit payload botnet loader stealer ransom decrypt keylogger "
    "vulnerability zero-day ddos booter remote access web shell passport visa "
    "identity scan mixer tumbler monero exchange swap bitcoin the a of and to"
).split()


def _ioc_token(rng: random.Random) -> str:
    kind = rng.randrange(6)
    if kind == 0:
        return f"user{rng.randrange(10_000)}@mail{rng.randrange(50)}.com"
    if kind == 1:
        return ".".join(str(rng.randrange(11, 250)) for _ in range(4))
    if kind == 2:
        return f"CVE-20{rng.randrange(10, 25)}-{rng.randrange(1000, 99999)}"
    if kind == 3:
        alphabet = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
        return "1" + "".join(rng.choice(alphabet) for _ in range(30))
    if kind == 4:
        return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz234567")
                       for _ in range(56)) + ".onion"
    return f"http://site{rng.randrange(500)}.example.org/p/{rng.randrange(1000)}"


def make_texts(n: int, seed: int = CORPUS_SEED) -> List[str]:
    """*n* distinct synthetic document texts: 30-90 words drawn from a
    crawl/threat vocabulary (so the threat classifier scores pages) with
    0-3 IOC tokens (so every IOC regex family matches somewhere)."""
    rng = random.Random(seed)
    texts = []
    for d in range(n):
        words = [rng.choice(_WORDS) for _ in range(rng.randrange(30, 91))]
        for _ in range(rng.randrange(4)):
            words.insert(rng.randrange(len(words) + 1), _ioc_token(rng))
        words.append(f"ref{d}")  # distinct content per document
        texts.append(" ".join(words))
    return texts


def _atomic_dir(out_dir: Path, build) -> Path:
    """Build *out_dir* through a temp sibling + rename, marked complete
    by a ``_SUCCESS`` file; an existing complete directory is reused."""
    if (out_dir / "_SUCCESS").exists():
        return out_dir
    tmp = out_dir.parent / (out_dir.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    build(tmp)
    (tmp / "_SUCCESS").touch()
    shutil.rmtree(out_dir, ignore_errors=True)
    tmp.rename(out_dir)
    return out_dir


def build_corpus(work: Path, n_pages: int = N_PAGES) -> Path:
    """The partitioned page corpus (``host_bucket=<b>/`` directories, the
    layout the crawl's partition pruning expects)."""
    from deepwebharvester_ray.corpus import build_pages_table

    def build(tmp: Path) -> None:
        table = build_pages_table(make_texts(n_pages))
        pq.write_to_dataset(table, root_path=str(tmp / "pages"),
                            partition_cols=["host_bucket"])

    out = work / f"corpus_n{n_pages}_v{INPUT_VERSION}"
    return _atomic_dir(out, build) / "pages"


def page_digest(row: dict) -> str:
    """Digest of one extracted+analyzed page: every output column of the
    scan except the per-page timing ``crawl_time``."""
    payload = json.dumps(row, sort_keys=True, separators=(",", ":"),
                         ensure_ascii=False, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def reference_row(url: str, html: bytes) -> Tuple[dict, List[str]]:
    """The scan's expected output row for one page, from the
    single-process leaf functions, and the page's link list."""
    from deepwebharvester_ray.extract import extract_content
    from deepwebharvester_ray.intelligence import analyze
    from deepwebharvester_ray.urlops import get_base_domain

    title, text, chash, links = extract_content(
        html.decode("utf-8", errors="replace"), url)
    row = {
        "url": url,
        "site": get_base_domain(url),
        "title": title,
        "text": text,
        "content_hash": chash,
        "links_found": len(links),
    }
    intel = analyze(url, text)
    intel.pop("url")
    intel["keyword_hits"] = json.dumps(intel["keyword_hits"], sort_keys=True)
    row.update(intel)
    return row, links


def load_pages(corpus_dir: Path) -> Dict[str, bytes]:
    """url → html over the whole corpus."""
    files = sorted(corpus_dir.rglob("*.parquet"))
    t = pa.concat_tables(pq.read_table(f, columns=["url", "html"])
                         for f in files)
    return dict(zip(t.column("url").to_pylist(), t.column("html").to_pylist()))


def build_reference(work: Path, corpus_dir: Path) -> Path:
    """Per-page reference table: url, title, text, content_hash, links
    (the crawl oracle's extraction) and the scan's page digest."""

    def build(tmp: Path) -> None:
        cols: Dict[str, list] = {k: [] for k in (
            "url", "title", "text", "content_hash", "links", "digest")}
        for url, html in sorted(load_pages(corpus_dir).items()):
            row, links = reference_row(url, html)
            cols["url"].append(url)
            cols["title"].append(row["title"])
            cols["text"].append(row["text"])
            cols["content_hash"].append(row["content_hash"])
            cols["links"].append(links)
            cols["digest"].append(page_digest(row))
        pq.write_table(pa.table(cols), str(tmp / "reference.parquet"))

    out = work / f"reference_{corpus_dir.parent.name}"
    return _atomic_dir(out, build) / "reference.parquet"


class Reference:
    """In-memory view of the reference table."""

    def __init__(self, path: Path) -> None:
        t = pq.read_table(str(path))
        urls = t.column("url").to_pylist()
        self.urls: List[str] = urls
        self.digest: Dict[str, str] = dict(
            zip(urls, t.column("digest").to_pylist()))
        self.extracted: Dict[str, Tuple[str, str, str, List[str]]] = {
            u: (ti, tx, h, ls) for u, ti, tx, h, ls in zip(
                urls, t.column("title").to_pylist(),
                t.column("text").to_pylist(),
                t.column("content_hash").to_pylist(),
                t.column("links").to_pylist())
        }

    def memo_extract(self, html: str, url: str):
        """Drop-in for ``extract_content`` on corpus pages (the table was
        built by that function from the same bytes)."""
        return self.extracted[url]


def scan_frontier(seed: int, n_urls: int, urls: Sequence[str]) -> List[str]:
    """A seeded sample of *n_urls* corpus URLs, sorted."""
    rng = random.Random(seed)
    return sorted(rng.sample(list(urls), n_urls))


def crawl_seeds(seed: int, n_seeds: int, n_pages: int = N_PAGES) -> List[str]:
    """*n_seeds* contiguous page URLs (mod corpus size) from a seeded
    offset; page d lives on host d % 64, so 64 seeds sit on 64 hosts."""
    from deepwebharvester_ray.corpus import doc_url

    offset = random.Random(seed).randrange(n_pages)
    return [doc_url((offset + i) % n_pages) for i in range(n_seeds)]


if __name__ == "__main__":
    # python3 perfbench/inputs.py WORK_DIR: build the corpus and reference
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    work_dir = Path(sys.argv[1])
    build_reference(work_dir, build_corpus(work_dir))
