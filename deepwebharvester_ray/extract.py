"""HTML content extraction: title, visible text, content hash, links.

Re-implements the reference extraction semantics
(/root/reference/deepwebharvester/extractor.py:95-133) on the standard
library ``html.parser`` (bs4/lxml are not available in this environment):

* title = first ``<title>`` text, stripped, else ``"No Title"``
  (extractor.py:116-118)
* visible text = document-order text nodes OUTSIDE the noise tags
  ``script, style, noscript, head, meta, link`` (extractor.py:20,121-122),
  each node ``strip()``-ed, empties dropped, joined with ``"\\n"``
  (bs4 ``get_text(separator="\\n", strip=True)`` semantics,
  extractor.py:123), then runs of 3+ newlines collapsed to a blank line
  (extractor.py:125)
* content_hash = sha256 of the utf-8 (errors=replace) encoded text
  (extractor.py:128)
* links = ``<a href>`` outside noise tags; drop ``#``/``javascript:``/
  ``mailto:`` prefixes; urljoin against the page URL; strip fragment; keep
  valid .onion; canonicalize; dedupe (extractor.py:74-93).  The reference
  returns a Python ``set`` (iteration order depends on PYTHONHASHSEED —
  SURVEY §2.9); this engine defines the canonical order as **sorted**, a
  documented deterministic deviation.

:func:`extract_content` is the crawl's per-page hot path: every fetch task
runs :func:`extract_batch` over the pages of its corpus file.  Two exact
fast paths sit in front of the stdlib code, which stays both the fallback
and the reference the differential tests compare against:

* :func:`_scan` tokenizes a strict subset of HTML (plain tags and
  attributes, end tags, comments, doctype, script/style raw text) with
  C-speed regex matches and returns ``html.parser``'s event sequence, or
  ``None`` for anything outside the subset — then the page is parsed by
  ``HTMLParser.feed`` on a fresh parser.  Both feed the same
  :class:`_PageParser` handlers, so the title/noise/segment rules have one
  implementation.
* :func:`_resolve_href` builds the canonical link of a plain
  ``http(s)://host/path`` or ``/path`` href directly; every other href
  goes through the ``urljoin`` → ``canonicalize_url`` chain
  (:func:`_join_href`).

:func:`_extract_stdlib` is the all-stdlib reference.
"""
from __future__ import annotations

import re
import time
from html import unescape
from html.parser import HTMLParser
from typing import Dict, List, Tuple
from urllib.parse import urljoin

import pyarrow as pa

from .urlops import (
    canonicalize_url,
    content_hash_hex,
    get_base_domain,
    is_valid_onion_url,
)

# Tags whose content is discarded entirely (reference extractor.py:20).
# meta/link are void elements — handled as attribute-only tags below.
_NOISE_CONTAINERS = frozenset({"script", "style", "noscript", "head"})

# HTML void elements: never pushed on the open-tag stack.
_VOID = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

_BLANKS_RE = re.compile(r"\n{3,}")


class _PageParser(HTMLParser):
    """Single-pass HTML parser collecting title, text segments and hrefs.

    Text segments break at every tag boundary (matching bs4's per-NavigableString
    stripping in ``get_text``); consecutive character data (including entity
    refs) coalesces into one segment.
    """

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.segments: List[str] = []
        self.hrefs: List[str] = []
        self.title: str | None = None
        self._noise = 0          # depth inside noise containers
        self._in_title = False
        self._title_buf: List[str] = []
        self._buf: List[str] = []

    # -- helpers ------------------------------------------------------------
    def _flush(self) -> None:
        if self._buf:
            seg = "".join(self._buf).strip()
            self._buf.clear()
            if seg:
                self.segments.append(seg)

    def updatepos(self, i: int, j: int) -> int:
        # the stock line/offset bookkeeping only feeds getpos(), which
        # nothing here calls; the parser uses only the returned index
        return j

    # -- parser callbacks ---------------------------------------------------
    def handle_starttag(self, tag: str, attrs) -> None:
        self._flush()
        if tag == "body":
            # Browsers (and lxml) implicitly close <head> at <body>; guards
            # against a missing </head> leaking head content into the body.
            self._noise = 0
        if tag in _NOISE_CONTAINERS:
            self._noise += 1
        if tag == "title" and self.title is None:
            self._in_title = True
            self._title_buf = []
        if tag == "a" and self._noise == 0:
            for name, value in attrs:
                if name == "href" and value is not None:
                    self.hrefs.append(value)
                    break

    def handle_startendtag(self, tag: str, attrs) -> None:
        # a self-closing tag opens AND closes: undo any state the start
        # handler toggled (noise depth, title capture) or the rest of the
        # page would be swallowed into the wrong buffer
        self.handle_starttag(tag, attrs)
        if tag not in _VOID and tag in _NOISE_CONTAINERS:
            self._noise -= 1
        if tag == "title" and self._in_title:
            self._in_title = False
            if self.title is None:
                self.title = "".join(self._title_buf)

    def handle_endtag(self, tag: str) -> None:
        self._flush()
        if tag in _NOISE_CONTAINERS and self._noise > 0:
            self._noise -= 1
        if tag == "title" and self._in_title:
            self._in_title = False
            if self.title is None:
                self.title = "".join(self._title_buf)

    def handle_data(self, data: str) -> None:
        if self._in_title:
            self._title_buf.append(data)
        elif self._noise == 0:
            self._buf.append(data)

    def close(self) -> None:
        super().close()
        self._flush()


# ── Strict-subset tokenizer ──────────────────────────────────────────────────
#
# Each construct below is one that the installed ``html.parser`` parses
# exactly as written here; anything else makes _scan return None.  The
# subset, against html/parser.py (tagfind_tolerant, attrfind_tolerant,
# locatestarttagend_tolerant, endtagfind) and _markupbase.parse_comment:
#
# * tag names are [a-zA-Z][a-zA-Z0-9]* followed by [\t\n\r\f ], '/>' or
#   '>': the stdlib's name runs to the next [\t\n\r\f />\x00], and its
#   separators are the wider \s, so \x0b or U+00A0 after a name would
#   change the name;
# * attributes are preceded by [\t\n\r\f ]+ and named
#   [a-zA-Z_:][-a-zA-Z0-9_:.]*; a value is '...', "..." or an unquoted
#   run of characters that are neither \s nor any of "'=<>` ; one '=',
#   with [\t\n\r\f ]* on either side.  All quantifiers are possessive, so
#   the attribute match is the first-choice one in _TOKEN_RE and _ATTR_RE
#   alike;
# * end tags are exactly </name>;
# * comments end at the first --\s*> after '<!--' (parse_comment), a
#   doctype at the first '>' after '<!doctype' (parse_html_declaration);
# * script/style raw text runs to the stdlib's own end-tag pattern
#   (HTMLParser.set_cdata_mode).
#
# A text run is unescaped as one piece, as HTMLParser.goahead does with
# convert_charrefs.  The final text run falls back when it holds an '&':
# goahead holds such a run back as a possibly cut charref and close()
# emits it, in this release as the same one piece, so the rule only
# guards against a release that changes the hold-back.  '<?', '<![',
# bogus comments, a '<' that starts no construct and every unterminated
# construct fall back too.

_WS = r"[\t\n\r\f ]"
_ATTR = (r"([a-zA-Z_:][-a-zA-Z0-9_:.]*+)"
         rf"(?:{_WS}*+(=){_WS}*+"
         r"""(?:"([^"]*+)"|'([^']*+)'|([^\s"'=<>`]++)))?+""")
_ATTR_RE = re.compile(_ATTR)
_TOKEN_RE = re.compile(
    r"(?P<text>[^<]++)"
    rf"|<(?P<tag>[a-zA-Z][a-zA-Z0-9]*+)(?P<attrs>(?:{_WS}++{_ATTR})*+)"
    rf"{_WS}*+(?P<slash>/?)>"
    r"|</(?P<end>[a-zA-Z][a-zA-Z0-9]*+)>"
    r"|<!--.*?--\s*+>"
    r"|<![dD][oO][cC][tT][yY][pP][eE][^>]*+>",
    re.S)
_RAW_END = {tag: re.compile(r"</\s*%s\s*>" % tag, re.I)
            for tag in HTMLParser.CDATA_CONTENT_ELEMENTS}

# event kinds: the _PageParser handler each one is dispatched to
_DATA, _START, _STARTEND, _END = range(4)


def _scan(html: str) -> List[tuple] | None:
    """``html.parser``'s event sequence for *html* — ``(_DATA, text)``,
    ``(_START, tag, attrs)``, ``(_STARTEND, tag, attrs)``, ``(_END, tag)``
    — or ``None`` when *html* leaves the strict subset above.  Comments
    and the doctype produce no event (``_PageParser`` ignores them)."""
    events: List[tuple] = []
    append = events.append
    match = _TOKEN_RE.match
    pos, n = 0, len(html)
    while pos < n:
        m = match(html, pos)
        if m is None:
            return None
        pos = m.end()
        kind = m.lastgroup
        if kind == "text":
            text = m.group(1)
            if "&" in text:
                if pos == n:
                    return None
                text = unescape(text)
            append((_DATA, text))
        elif kind == "slash":
            tag = m.group("tag").lower()
            attrs = []
            if m.group("attrs"):
                for name, eq, dq, sq, uq in _ATTR_RE.findall(m.group("attrs")):
                    value = (dq or sq or uq) if eq else None
                    if value and "&" in value:
                        value = unescape(value)
                    attrs.append((name.lower(), value))
            if m.group("slash"):
                append((_STARTEND, tag, attrs))
                continue
            append((_START, tag, attrs))
            raw_end = _RAW_END.get(tag)
            if raw_end is not None:
                e = raw_end.search(html, pos)
                if e is None:
                    return None
                if e.start() > pos:
                    append((_DATA, html[pos:e.start()]))
                append((_END, tag))
                pos = e.end()
        elif kind == "end":
            append((_END, m.group("end").lower()))
    return events


def _parse(html: str) -> _PageParser:
    """A :class:`_PageParser` that has seen all of *html*: fed the
    :func:`_scan` events, or — outside the subset — the whole document
    through ``HTMLParser.feed`` on a fresh parser."""
    events = _scan(html)
    if events is None:
        return _parse_stdlib(html)
    parser = _PageParser()
    data = parser.handle_data
    start = parser.handle_starttag
    startend = parser.handle_startendtag
    end = parser.handle_endtag
    for ev in events:
        kind = ev[0]
        if kind == _DATA:
            data(ev[1])
        elif kind == _START:
            start(ev[1], ev[2])
        elif kind == _END:
            end(ev[1])
        else:
            startend(ev[1], ev[2])
    parser._flush()
    return parser


def _parse_stdlib(html: str) -> _PageParser:
    """A :class:`_PageParser` fed *html* by ``HTMLParser`` itself."""
    parser = _PageParser()
    try:
        parser.feed(html)
        parser.close()
    except Exception:
        # Malformed beyond recovery: keep whatever was collected (lxml is
        # similarly lenient; it never raises on bad HTML).
        pass
    return parser


# ── Href resolution ──────────────────────────────────────────────────────────

_SKIP_PREFIXES = ("#", "javascript:", "mailto:")

# The fast path: an http(s)://host/path href (scheme in any case) or a
# /path href, over an http(s)://host base — ASCII hosts, no port,
# userinfo or brackets, so urlsplit can neither raise nor rewrite them.
# The path holds only RFC 3986 pchars minus '%' and ';' (so no query,
# params, whitespace, control or non-ASCII characters: nothing urlsplit
# strips or splits) and, checked below, no dot segment.  Its canonical
# link is then scheme.lower()://host.lower() + (path.rstrip('/') or '/'),
# with the href's own scheme and host when it has them: urljoin returns
# an absolute href unchanged (another scheme) or re-joined from its own
# parts (the base's), keeps a root path's segments as they are, and
# canonicalize_url only lowercases and strips.
_FAST_HREF_RE = re.compile(
    r"(?:([hH][tT][tT][pP][sS]?)://([a-zA-Z0-9.-]++)|(?!//))"
    r"(/[-A-Za-z0-9._~!$&'()*+,:=@/]*+)(?:#.*)?", re.S)
_FAST_BASE_RE = re.compile(
    r"([hH][tT][tT][pP][sS]?)://([a-zA-Z0-9.-]++)(?:[/?#]|\Z)")


def _join_href(base_url: str, href: str) -> str | None:
    """The reference chain (extractor.py:74-93): canonical link of *href*
    on the page *base_url*, or ``None`` when it is skipped or not a valid
    .onion URL."""
    href = href.strip()
    if not href or href.startswith(_SKIP_PREFIXES):
        return None
    full_url = urljoin(base_url, href).split("#")[0]
    if is_valid_onion_url(full_url):
        return canonicalize_url(full_url)
    return None


def _resolve_href(base_url: str, href: str) -> str | None:
    """:func:`_join_href`, without urllib for plain hrefs."""
    m = _FAST_HREF_RE.fullmatch(href)
    if m is not None and "/." not in m.group(3):
        b = _FAST_BASE_RE.match(base_url)
        if b is not None:
            scheme, host = m.group(1, 2) if m.group(1) else b.group(1, 2)
            link = (f"{scheme.lower()}://{host.lower()}"
                    f"{m.group(3).rstrip('/') or '/'}")
            return link if is_valid_onion_url(link) else None
    return _join_href(base_url, href)


def _links(base_url: str, hrefs: List[str], resolve) -> List[str]:
    return sorted({link for href in hrefs
                   if (link := resolve(base_url, href)) is not None})


def extract_links(base_url: str, hrefs: List[str]) -> List[str]:
    """Resolve + filter + canonicalize harvested hrefs (extractor.py:74-93).

    Returns canonically **sorted** unique links (deterministic deviation from
    the reference's set order).
    """
    return _links(base_url, hrefs, _resolve_href)


class _AnchorParser(HTMLParser):
    """Minimal single-pass ``<a href>`` + inner-text collector for the
    anchor-text aggregation stage.  Deliberately separate from
    :class:`_PageParser` (whose segment/title behavior is byte-pinned by
    the content-hash oracle): one open anchor at a time (nested anchors
    are invalid HTML — a new ``<a href>`` implicitly closes a dangling
    one, matching browser tree-building), text whitespace-collapsed."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.pairs: List[Tuple[str, str]] = []
        self._href: str | None = None
        self._buf: List[str] = []

    def _emit(self) -> None:
        if self._href is not None:
            self.pairs.append(
                (self._href, " ".join("".join(self._buf).split())))
        self._href, self._buf = None, []

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag == "a":
            self._emit()
            for name, value in attrs:
                if name == "href" and value is not None:
                    self._href = value
                    self._buf = []
                    break

    def handle_data(self, data: str) -> None:
        if self._href is not None:
            self._buf.append(data)

    def handle_endtag(self, tag: str) -> None:
        if tag == "a":
            self._emit()

    def close(self) -> None:
        super().close()
        self._emit()


def extract_anchors(base_url: str, html: str) -> List[Tuple[str, str]]:
    """Per-ELEMENT (canonical target url, anchor text) pairs of a page —
    the same resolve/filter/canonicalize steps as :func:`extract_links`
    but keeping every anchor occurrence (anchor text votes are counted
    per element, not per distinct target; Brin & Page 1998 §2.2 — anchor
    text describes the TARGET page, the signal link-based indexing and
    link-context training data mine)."""
    parser = _AnchorParser()
    try:
        parser.feed(html)
        parser.close()
    except Exception:
        pass
    return [(link, text) for href, text in parser.pairs
            if (link := _resolve_href(base_url, href)) is not None]


def anchor_pairs_batch(batch: pa.Table) -> pa.Table:
    """map_batches fn: ``(url, html)`` → one row per anchor element
    ``(dst_url, anchor)``."""
    urls = batch.column("url").to_pylist()
    html_col = batch.column("html")
    if pa.types.is_binary(html_col.type) or pa.types.is_large_binary(
            html_col.type):
        htmls = [(b.decode("utf-8", errors="replace") if b is not None
                  else "") for b in html_col.to_pylist()]
    else:
        htmls = [(h if h is not None else "") for h in html_col.to_pylist()]
    dsts: List[str] = []
    texts: List[str] = []
    for url, html in zip(urls, htmls):
        for dst, text in extract_anchors(url, html):
            dsts.append(dst)
            texts.append(text)
    return pa.table({
        "dst_url": pa.array(dsts, pa.string()),
        "anchor": pa.array(texts, pa.string()),
    })


def _page(parser: _PageParser, url: str,
          resolve) -> Tuple[str, str, str, List[str]]:
    title = "No Title"
    if parser.title is not None:
        stripped = parser.title.strip()
        if stripped:
            title = stripped

    raw_text = "\n".join(parser.segments)
    text = _BLANKS_RE.sub("\n\n", raw_text)
    chash = content_hash_hex(text)
    return title, text, chash, _links(url, parser.hrefs, resolve)


def extract_content(html: str, url: str) -> Tuple[str, str, str, List[str]]:
    """Parse *html* → ``(title, text, content_hash, links)``.

    Mirrors reference ``PageExtractor.extract_content`` (extractor.py:95-133)
    with sorted canonical link order.
    """
    return _page(_parse(html), url, _resolve_href)


def _extract_stdlib(html: str, url: str) -> Tuple[str, str, str, List[str]]:
    """:func:`extract_content` on ``html.parser`` and ``urljoin`` alone —
    the reference its fast paths must reproduce byte for byte."""
    return _page(_parse_stdlib(html), url, _join_href)


# ── Ray Data batch stage ─────────────────────────────────────────────────────

def extract_batch(batch: pa.Table) -> pa.Table:
    """map_batches fn: ``(url, html[, …])`` → extracted page columns.

    ``html`` may be binary (decoded utf-8, errors=replace — matching the
    reference's ``resp.text`` lenient decode) or string.  Extra input columns
    are passed through (e.g. ``depth`` from the frontier).
    """
    urls = batch.column("url").to_pylist()
    html_col = batch.column("html")
    if pa.types.is_binary(html_col.type) or pa.types.is_large_binary(html_col.type):
        htmls = [
            (b.decode("utf-8", errors="replace") if b is not None else "")
            for b in html_col.to_pylist()
        ]
    else:
        htmls = [(h if h is not None else "") for h in html_col.to_pylist()]

    titles: List[str] = []
    texts: List[str] = []
    hashes: List[str] = []
    links_col: List[List[str]] = []
    sites: List[str] = []
    crawl_times: List[float] = []
    clock = time.monotonic
    for url, html in zip(urls, htmls):
        t0 = clock()
        title, text, chash, links = extract_content(html, url)
        crawl_times.append(clock() - t0)
        titles.append(title)
        texts.append(text)
        hashes.append(chash)
        links_col.append(links)
        sites.append(get_base_domain(url))

    out: Dict[str, pa.Array] = {
        "url": pa.array(urls, pa.string()),
        "site": pa.array(sites, pa.string()),
        "title": pa.array(titles, pa.string()),
        "text": pa.array(texts, pa.large_string()),
        "content_hash": pa.array(hashes, pa.string()),
        "links": pa.array(links_col, pa.large_list(pa.string())),
        "links_found": pa.array([len(l) for l in links_col], pa.int32()),
        "crawl_time": pa.array(crawl_times, pa.float64()),
    }
    # Pass through any extra frontier columns (depth, seed_id, …).
    for name in batch.column_names:
        if name not in out and name != "html":
            out[name] = batch.column(name)
    return pa.table(out)


_CHARSET_IN_CONTENT_RE = re.compile(r"charset\s*=\s*([^\s;]+)", re.I)


class _MetaParser(HTMLParser):
    """head-metadata collector: charset (both the HTML5 ``<meta
    charset>`` form and the legacy ``http-equiv=Content-Type`` form),
    the robots meta directives, and the canonical link.  html.parser
    lowercases attribute NAMES and resolves single/double/un-quoted
    values, so the quoting/case variants real pages ship never reach
    this code — only the semantic rules live here: first occurrence
    wins, ``rel`` is a space-separated token LIST (``rel="stylesheet
    canonical"`` counts), robots directives are comma-separated
    case-insensitive tokens where ``none`` ≡ ``noindex, nofollow``
    (the Robots Meta Tag spec)."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.charset: str | None = None
        self.robots: str | None = None
        self.canonical: str | None = None

    def handle_starttag(self, tag: str, attrs) -> None:
        a = dict(attrs)
        if tag == "meta":
            if self.charset is None and a.get("charset"):
                self.charset = a["charset"].strip().lower()
            elif (self.charset is None
                  and (a.get("http-equiv") or "").lower()
                  == "content-type"):
                m = _CHARSET_IN_CONTENT_RE.search(a.get("content") or "")
                if m:
                    self.charset = m.group(1).strip().lower()
            if (self.robots is None
                    and (a.get("name") or "").lower() == "robots"):
                self.robots = a.get("content") or ""
        elif tag == "link":
            rels = (a.get("rel") or "").lower().split()
            if self.canonical is None and "canonical" in rels:
                self.canonical = (a.get("href") or "").strip()


def parse_html_meta(html: str):
    """``(charset, noindex, nofollow, canonical)`` from a page's head
    metadata — the crawl-POLICY surface robots.txt does not cover: a
    page may opt out of indexing (``noindex``) or link following
    (``nofollow``) via its own meta robots tag, and declare its
    canonical URL (the dedup hint).  Absent values → ``("", False,
    False, "")``."""
    p = _MetaParser()
    try:
        p.feed(html or "")
    except Exception:  # pragma: no cover - html.parser is lenient
        pass
    tokens = [t.strip() for t in (p.robots or "").lower().split(",")]
    noindex = "noindex" in tokens or "none" in tokens
    nofollow = "nofollow" in tokens or "none" in tokens
    return (p.charset or "", noindex, nofollow, p.canonical or "")


def html_meta_batch(batch: pa.Table,
                    html_column: str = "html") -> pa.Table:
    """map_batches fn: attach (charset, noindex, nofollow, canonical)
    via :func:`parse_html_meta`; binary html decoded utf-8/replace
    like :func:`extract_batch`."""
    col = batch.column(html_column)
    htmls = [
        (h.decode("utf-8", errors="replace") if isinstance(h, bytes)
         else (h or ""))
        for h in col.to_pylist()
    ]
    cs, ni, nf, cn = [], [], [], []
    for h in htmls:
        a, b, c, d = parse_html_meta(h)
        cs.append(a)
        ni.append(b)
        nf.append(c)
        cn.append(d)
    out = {n: batch.column(n) for n in batch.column_names
           if n != html_column}
    out["charset"] = pa.array(cs, pa.string())
    out["noindex"] = pa.array([1 if v else 0 for v in ni], pa.int64())
    out["nofollow"] = pa.array([1 if v else 0 for v in nf], pa.int64())
    out["canonical"] = pa.array(cn, pa.string())
    return pa.table(out)
