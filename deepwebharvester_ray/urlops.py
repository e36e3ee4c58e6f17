"""URL operations: validation, blacklist, canonicalization, hashing.

Semantics mirror the reference exactly (cited per function); the batch
hash variant serves ``Dataset.map_batches`` membership filters.

Reference: /root/reference/deepwebharvester/extractor.py:17-70.
"""
from __future__ import annotations

import hashlib
import re
from typing import Iterable, List, Sequence
from urllib.parse import parse_qsl, urlencode, urlparse, urlunparse

import numpy as np

# Tor v3 onion hostnames: 56 base32 chars (reference extractor.py:17).
_ONION_V3_RE = re.compile(r"^https?://[a-z2-7]{56}\.onion(/|$)", re.IGNORECASE)


def is_valid_onion_url(url: str) -> bool:
    """True for valid Tor v3 .onion URLs (reference extractor.py:36-38)."""
    return bool(_ONION_V3_RE.match(url))


def normalize_blacklist(blacklist_paths: Iterable[str] | None) -> List[str]:
    """Lowercase + strip trailing slash (reference extractor.py:32)."""
    return [p.lower().rstrip("/") for p in (blacklist_paths or [])]


def is_blacklisted(url: str, blacklist: Sequence[str]) -> bool:
    """Path equals or ends with a blacklist entry (reference extractor.py:40-43).

    ``blacklist`` must already be normalized via :func:`normalize_blacklist`.
    """
    path = urlparse(url).path.lower().rstrip("/")
    return any(path == bl or path.endswith(bl) for bl in blacklist)


def get_base_domain(url: str) -> str:
    """``scheme://netloc`` (reference extractor.py:45-49)."""
    parsed = urlparse(url)
    return f"{parsed.scheme}://{parsed.netloc}"


def get_host(url: str) -> str:
    """Bare netloc — the partition key for per-host scheduling."""
    return urlparse(url).netloc.lower()


def canonicalize_url(url: str) -> str:
    """Canonical URL form (reference extractor.py:51-70).

    Lowercase scheme+host, drop fragment, strip trailing slash on non-root
    paths, sort query params alphabetically, drop empty-valued params.
    """
    parsed = urlparse(url)
    scheme = parsed.scheme.lower()
    netloc = parsed.netloc.lower()
    path = parsed.path.rstrip("/") or "/"
    query_pairs = [(k, v) for k, v in parse_qsl(parsed.query) if v]
    query = urlencode(sorted(query_pairs))
    return urlunparse((scheme, netloc, path, "", query, ""))


def url_hash64(url: str) -> int:
    """Stable 64-bit hash of a URL string.

    Uses blake2b (stdlib, unkeyed → stable across processes and runs, unlike
    Python's seed-randomized ``hash()``).  This is the range-partitioning and
    seen-set key for the 10^10-entry frontier.
    """
    return int.from_bytes(hashlib.blake2b(url.encode("utf-8"), digest_size=8).digest(), "big")


def content_hash_hex(text: str) -> str:
    """sha256 hex of text with utf-8 errors=replace (reference extractor.py:128)."""
    return hashlib.sha256(text.encode("utf-8", errors="replace")).hexdigest()


# ── Batch variant ────────────────────────────────────────────────────


def batch_url_hash64(urls: Sequence[str]) -> np.ndarray:
    """Stable 64-bit hashes for a batch of URLs (unsigned)."""
    b2 = hashlib.blake2b
    return np.fromiter(
        (
            int.from_bytes(b2(u.encode("utf-8"), digest_size=8).digest(), "big")
            for u in urls
        ),
        dtype=np.uint64,
        count=len(urls),
    )


_UNRESERVED = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~")
_HEX = frozenset("0123456789abcdefABCDEF")


def _norm_percent(s: str) -> str:
    """RFC 3986 §6.2.2 percent-encoding normalization: decode triplets
    for UNRESERVED characters (``%7E`` → ``~`` — two spellings of one
    URL must compare equal), uppercase the hex of every triplet that
    must stay encoded (``%2f`` → ``%2F``), and leave malformed ``%``
    sequences untouched (lenient, like browsers)."""
    out = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if (c == "%" and i + 2 < n and s[i + 1] in _HEX
                and s[i + 2] in _HEX):
            ch = chr(int(s[i + 1:i + 3], 16))
            if ch in _UNRESERVED:
                out.append(ch)
            else:
                out.append("%" + s[i + 1:i + 3].upper())
            i += 3
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 §5.2.4 — the output-stack algorithm verbatim:
    ``/a/./b/../c`` → ``/a/c``, leading ``..`` segments at root are
    dropped (cannot climb above root)."""
    out = []
    for seg in path.split("/"):
        if seg == ".":
            continue
        if seg == "..":
            if len(out) > 1:
                out.pop()
            continue
        out.append(seg)
    # preserve a trailing "/." or "/.." collapsing to a directory slash
    if path.endswith(("/.", "/..")) and (not out or out[-1] != ""):
        out.append("")
    return "/".join(out)


_DEFAULT_PORTS = {"http": ":80", "https": ":443"}


def normalize_url_rfc3986(url: str) -> str:
    """Full RFC 3986 syntax-based normalization (§6.2.2–6.2.3) — the
    SPEC-level normalizer beneath :func:`canonicalize_url`'s
    reference-semantics cleanup: lowercase scheme/host, drop the
    scheme's default port, percent-encoding normalization on path and
    query (unreserved decoded, retained triplets upper-hexed), dot-
    segment removal, empty path → ``/``.  Two spellings of the same
    resource must hash to the same frontier key or the crawler fetches
    it twice — this is a dedup primitive, not cosmetics."""
    from urllib.parse import urlsplit, urlunsplit

    p = urlsplit(url)
    scheme = p.scheme.lower()
    netloc = p.netloc.lower()
    dp = _DEFAULT_PORTS.get(scheme)
    if dp and netloc.endswith(dp):
        netloc = netloc[: -len(dp)]
    path = _remove_dot_segments(_norm_percent(p.path)) or "/"
    if not path.startswith("/"):
        path = "/" + path
    return urlunsplit((scheme, netloc, path, _norm_percent(p.query), ""))
