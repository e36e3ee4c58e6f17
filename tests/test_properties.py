"""Property-based robustness tests (hypothesis) for the pure-Python
kernels: canonicalization idempotence, extraction determinism, similarity
bounds, membership-structure guarantees.  No Ray needed."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from deepwebharvester_ray.extract import extract_content
from deepwebharvester_ray.functions.dedup import (
    jaccard,
    shingle_set,
    simhash64,
    token_set,
)
from deepwebharvester_ray.intelligence import classify_threat, extract_iocs
from deepwebharvester_ray.state.seen import SeenShard
from deepwebharvester_ray.urlops import canonicalize_url, url_hash64

URLS = st.builds(
    lambda scheme, host, path, q, frag: f"{scheme}://{host}{path}{q}{frag}",
    scheme=st.sampled_from(["http", "HTTP", "https"]),
    host=st.from_regex(r"[A-Za-z0-9.\-]{1,30}", fullmatch=True),
    path=st.from_regex(r"(/[A-Za-z0-9._~%\-]{0,10}){0,4}/?", fullmatch=True),
    q=st.sampled_from(["", "?a=1", "?b=2&a=1", "?x=&a=1", "?a=1&a=2"]),
    frag=st.sampled_from(["", "#f", "#frag ment"]),
)

TEXTS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=400
)


@settings(max_examples=200, deadline=None)
@given(URLS)
def test_canonicalize_idempotent(url):
    c1 = canonicalize_url(url)
    assert canonicalize_url(c1) == c1


@settings(max_examples=100, deadline=None)
@given(URLS)
def test_url_hash_stable_and_64bit(url):
    h = url_hash64(url)
    assert h == url_hash64(url)
    assert 0 <= h < (1 << 64)


@settings(max_examples=100, deadline=None)
@given(TEXTS)
def test_extract_deterministic_and_total(text):
    """extract_content never raises on arbitrary 'HTML' and is
    deterministic (title/text/hash/links)."""
    html = f"<html><title>t</title><body><p>{text}</p></body></html>"
    a = extract_content(html, "http://x.onion/p")
    b = extract_content(html, "http://x.onion/p")
    assert a == b
    assert len(a[2]) == 64  # sha256 hex


@settings(max_examples=100, deadline=None)
@given(TEXTS)
def test_extract_arbitrary_bytes_no_crash(text):
    # malformed markup, stray brackets, partial tags
    a = extract_content(text + "<a href='", "http://x.onion/")
    assert isinstance(a[0], str) and isinstance(a[1], str)


# ── Extraction fast paths vs the stdlib (differential) ──────────────────────
#
# extract._scan and extract._resolve_href must reproduce the INSTALLED
# html.parser / urllib exactly; a CPython release that changes either
# shows up here as a failing example.

ONION = "a" * 56 + ".onion"


def _start_tags(seps, names, attr_names, around_eq, values, closes):
    attrs = st.builds(
        lambda name, pre, eq, post, value: (
            name + (pre + "=" + post + value if eq else "")),
        name=st.sampled_from(attr_names),
        pre=st.sampled_from(around_eq),
        eq=st.booleans(),
        post=st.sampled_from(around_eq),
        value=st.sampled_from(values),
    )
    return st.builds(
        lambda name, attrs, seps, close: (
            "<" + name + "".join(s + a for s, a in zip(seps, attrs))
            + seps[-1] + close),
        name=st.sampled_from(names),
        attrs=st.lists(attrs, max_size=3),
        seps=st.lists(st.sampled_from(seps), min_size=4, max_size=4),
        close=st.sampled_from(closes),
    )


# inside the tokenizer's subset: [\t\n\r\f ] separators, upper-case
# names, quoted/unquoted/empty/valueless attributes, charrefs in values
_TAG_NAMES = ["a", "A", "p", "DIV", "title", "TITLE", "script", "SCRIPT",
              "style", "Style", "head", "body", "noscript", "br", "meta",
              "h1"]
_ATTR_NAMES = ["href", "HREF", "class", "data-x", "x:y", "id", "_u", "a.b"]
_VALUES = ['"/a"', "'/b'", "/c", '""', "''", "x&amp;y", "&amp", "&#x41",
           '"a>b"', "'&amp;'", "/d/", f'"http://{ONION}/p"', "x/",
           '"&#65;&lt"', "\"a'b\"", '"\xe9\n"', "\xe9"]
_CLEAN_TAGS = _start_tags(
    [" ", "\t", "\n", "\r", "\x0c", "  ", " \n "], _TAG_NAMES, _ATTR_NAMES,
    ["", "", " ", "\t\n"], _VALUES, [">", ">", "/>", " />", "\x0c>"])
_CLEAN_PIECES = [
    "hello", " world ", "\n\n\n\n", "&amp;", "&amp", "&#x41", "&#65;", "&",
    "a&b", "&lt;x", "\u3000", "\xa0", "\x00", "\xe9", "\r\n", "</a>", "</A>",
    "</p>", "</title>", "</script>", "</script >", "</SCRIPT>",
    "</ScRiPt\n>", "</style>", "</head>", "<!-- c -->", "<!-- -- >",
    "<!-- --!> -->", "<!--->", "<!-->", "<!---->", "<!DOCTYPE html>",
    "<!doctype x>", "<script>", "<style>", "<title>", "<head>", "<body>",
    f'<a href="http://{ONION}/x">', '<a href="/rel/p">',
    '<a href="HTTP://' + ONION.upper() + '/u/">',
]
# outside it: \x0b/NUL/Unicode spaces in tags, '=' and quote in names,
# CDATA, PIs, bogus comments, stray '<', unterminated constructs
_ADVERSARIAL_TAGS = _start_tags(
    ["", " ", "\t", "\n", "\x0c", "\x0b", "\x00", "\u3000", "\xa0", "/"],
    _TAG_NAMES + ["my-el", "x\xe9"], _ATTR_NAMES + ["=", "'q", "a\xe9"],
    ["", " ", "\x0b", "\xa0", "="], _VALUES + ["v=w", 'u"v', "`"],
    [">", "/>", " />", "", "/"])
_BAD_PIECES = [
    "</ a>", "</>", "</a x>", "<!--", "<!DOCTYPE", "<![CDATA[x]]>",
    "<?xml?>", "<?pi", "<!bogus>", "<", "< p", "<3", "<a",
]
HTML_DOCS = st.one_of(
    st.lists(st.one_of(st.sampled_from(_CLEAN_PIECES), _CLEAN_TAGS),
             max_size=25).map("".join),
    st.lists(st.one_of(st.sampled_from(_CLEAN_PIECES + _BAD_PIECES),
                       _ADVERSARIAL_TAGS), max_size=25).map("".join),
)
# pieces the strict-subset tokenizer takes
_SUBSET_PIECES = st.sampled_from([
    "hello", " x ", "\n", "&amp;", "&#65; y", "<p>", "</p>", "<br/>",
    "<title>", "</title>", "<head>", "</head>", "<body>", "<!-- c -->",
    "<!DOCTYPE html>", "<script>a<b</script >", "<STYLE x=1>p{}</style>",
    f'<a href="http://{ONION}/x" class=c>', "<a href='/r/s'>", "</a>",
    "<noscript>", "</noscript>", "<meta charset=utf-8>", "<img src=/i/>",
])
# out of the subset whatever follows them
_TAILS = st.sampled_from([
    "< x", "<?pi?>", "<![CDATA[x]]>", "<!x>", "<a href=", "</ a>",
    "<p\x0bclass=x>", "<a\xa0href=x>",
])


def _events(html):
    """html.parser's starttag/startendtag/endtag/data events."""
    from html.parser import HTMLParser

    from deepwebharvester_ray import extract

    class Recorder(HTMLParser):
        def __init__(self):
            super().__init__(convert_charrefs=True)
            self.events = []

        def handle_starttag(self, tag, attrs):
            self.events.append((extract._START, tag, attrs))

        def handle_startendtag(self, tag, attrs):
            self.events.append((extract._STARTEND, tag, attrs))

        def handle_endtag(self, tag):
            self.events.append((extract._END, tag))

        def handle_data(self, data):
            self.events.append((extract._DATA, data))

    r = Recorder()
    r.feed(html)
    r.close()
    return r.events


_PAGE_URLS = st.sampled_from([f"http://{ONION}/d/1", f"https://{ONION}/",
                              f"http://{ONION.upper()}", "http://x.onion/"])


@settings(max_examples=400, deadline=None)
@given(HTML_DOCS, _PAGE_URLS)
def test_scan_matches_stdlib_parser(html, url):
    """On adversarial markup the tokenizer returns the stdlib's event
    sequence or falls back, and extraction equals the all-stdlib path."""
    from deepwebharvester_ray import extract

    events = extract._scan(html)
    if events is not None:
        assert events == _events(html)
    assert extract_content(html, url) == extract._extract_stdlib(html, url)


@settings(max_examples=150, deadline=None)
@given(st.lists(_SUBSET_PIECES, max_size=20).map("".join), _TAILS,
       st.lists(st.sampled_from(_CLEAN_PIECES + _BAD_PIECES),
                max_size=5).map("".join))
def test_scan_subset_prefix_then_fallback(prefix, tail, rest):
    """A document inside the subset is taken by the tokenizer; the same
    document with an out-of-subset tail falls back as a whole (no partly
    fed parser) and still gives the stdlib's output."""
    from deepwebharvester_ray import extract

    url = f"http://{ONION}/d/2"
    assert extract._scan(prefix + "<br>") == _events(prefix + "<br>")
    # tails out of the subset wherever they stand, then ones out of it
    # only at the end of the document
    ends = ("a final &amp", "<script>never closed", "<!-- open", "<")
    for html in [prefix + tail + rest] + [prefix + end for end in ends]:
        assert extract._scan(html) is None
        assert (extract_content(html, url)
                == extract._extract_stdlib(html, url))


def _urls(schemes, hosts, paths, queries=("",), frags=("",),
          leads=("",), trails=("",)):
    return st.builds(
        lambda lead, scheme, host, segs, query, frag, trail: (
            lead + scheme + (host if scheme.endswith("//") else "")
            + "".join("/" + s for s in segs) + query + frag + trail),
        lead=st.sampled_from(leads), scheme=st.sampled_from(schemes),
        host=st.sampled_from(hosts),
        segs=st.lists(st.sampled_from(paths), max_size=4),
        query=st.sampled_from(queries), frag=st.sampled_from(frags),
        trail=st.sampled_from(trails))


_HOSTS = [ONION, ONION.upper(), "example.com"]
_BAD_HOSTS = ["user@" + ONION, "u:p@" + ONION, ONION + ":8080", "[::1]",
              "[::1]:80", "[::1", "[x", "b\xfccher.onion", ONION + "\t"]
_SEGS = ["a", "", "i.html", "~", "a:b", "@", "d-1"]
_BAD_SEGS = [".", "..", ".h", "b;p", "%2f", "%41", "x y", "\x01", "\xe9",
             "a\\b"]
# bases and hrefs the fast path takes (mixed-case schemes, //, fragments,
# trailing whitespace) and ones it must leave to urljoin
_BASES = st.one_of(
    _urls(["http://", "https://", "HTTP://"], _HOSTS, _SEGS + _BAD_SEGS,
          ["", "?q=1"], ["", "#f"]),
    _urls(["http://", "Https://", "ftp://", "//", "x:"], _HOSTS + _BAD_HOSTS,
          _SEGS + _BAD_SEGS + [";p"], ["", "?a=&b=1"], ["", "#f"],
          ["", " "]),
)
_HREFS = st.one_of(
    _urls(["", "", "http://", "https://", "HTTP://", "hTtPs://"], _HOSTS,
          _SEGS, frags=["", "#frag", "#", "#a b", "#x/../y"],
          trails=["", " ", "\n"]),
    _urls(["", "//", "http://", "https://", "HTTP://", "ftp://",
           "javascript:", "mailto:", "#", ".", "..", "x"],
          _HOSTS + _BAD_HOSTS, _SEGS + _BAD_SEGS,
          ["", "?a=&b=1", "?", "?b=2&a=1"], ["", "#frag", "#a b"],
          ["", " ", "\t", "\x01"], ["", " ", "\n", "\u3000"]),
)


def _outcome(fn, base, href):
    try:
        return fn(base, href)
    except ValueError as exc:       # urlsplit on a bad IPv6 netloc
        return ("ValueError", str(exc))


@settings(max_examples=600, deadline=None)
@given(_BASES, _HREFS)
def test_resolve_href_matches_urljoin_chain(base, href):
    from deepwebharvester_ray import extract

    assert (_outcome(extract._resolve_href, base, href)
            == _outcome(extract._join_href, base, href))


@settings(max_examples=100, deadline=None)
@given(TEXTS, TEXTS)
def test_jaccard_bounds_and_symmetry(t1, t2):
    a, b = set(token_set(t1)), set(token_set(t2))
    j = jaccard(a, b)
    assert 0.0 <= j <= 1.0
    assert j == jaccard(b, a)
    assert jaccard(a, a) == 1.0


@settings(max_examples=60, deadline=None)
@given(TEXTS)
def test_shingles_sorted_unique(text):
    sh = shingle_set(text, k=3)
    assert sh == sorted(set(sh))
    assert all(0 <= x < (1 << 64) for x in sh)


@settings(max_examples=60, deadline=None)
@given(TEXTS)
def test_simhash_in_range_and_deterministic(text):
    s = simhash64(text)
    assert 0 <= s < (1 << 64)
    assert s == simhash64(text)


@settings(max_examples=60, deadline=None)
@given(TEXTS)
def test_intelligence_total_functions(text):
    iocs = extract_iocs(text)
    assert iocs["ioc_total"] >= 0
    assert len(iocs["urls"]) <= 50
    th = classify_threat(text)
    assert 0.0 <= th["risk_score"] <= 10.0
    assert th["risk_label"] in {"Low", "Medium", "High", "Critical"}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.text(max_size=12), max_size=60), max_size=6))
def test_seen_shard_matches_python_set(batches):
    """SeenShard answers exactly as a Python set fed the same batches:
    check_and_insert is True on a key's first occurrence only."""
    shard, ref = SeenShard(), set()
    for keys in batches:
        assert shard.contains(keys).tolist() == [k in ref for k in keys]
        want = []
        for k in keys:
            want.append(k not in ref)
            ref.add(k)
        assert shard.check_and_insert(keys).tolist() == want
    assert shard.size() == len(ref)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=8), max_size=200),
       st.integers(min_value=0, max_value=199))
def test_hll_merge_property(values, split):
    import numpy as np

    from deepwebharvester_ray.functions import sketch

    h = sketch._hash60(values)
    whole = sketch.hll_registers(h)
    split = min(split, len(h))
    merged = np.maximum(sketch.hll_registers(h[:split]),
                        sketch.hll_registers(h[split:]))
    assert np.array_equal(whole, merged)
    assert sketch.hll_estimate(whole) >= 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet="ab", min_size=1, max_size=3),
                max_size=30))
def test_gram_keys_unique_and_deterministic(words):
    import numpy as np

    from deepwebharvester_ray.functions.dedup import _gram_keys, _word_hashes

    u1 = _word_hashes(words)
    with np.errstate(over="ignore"):
        h1a, h2a = _gram_keys(u1, 4)
        h1b, h2b = _gram_keys(u1, 4)
    assert np.array_equal(h1a, h1b) and np.array_equal(h2a, h2b)
    n_windows = max(0, len(words) - 3)
    assert len(h1a) <= n_windows
    # (h1, h2) pairs are unique within a doc
    pairs = set(zip(h1a.tolist(), h2a.tolist()))
    assert len(pairs) == len(h1a)


@settings(max_examples=100, deadline=None)
@given(TEXTS)
def test_clean_text_idempotent(text):
    """Cleaning is a normal form: applying it twice changes nothing."""
    import pyarrow as pa

    from deepwebharvester_ray.functions.textops import clean_text_batch

    once = clean_text_batch(pa.table({"id": [1], "text": [text]}))
    c1 = once.column("clean")[0].as_py()
    twice = clean_text_batch(pa.table({"id": [1], "text": [c1]}))
    assert twice.column("clean")[0].as_py() == c1
    assert twice.column("n_chars_before")[0].as_py() == \
        twice.column("n_chars_after")[0].as_py() == len(c1)


@settings(max_examples=100, deadline=None)
@given(TEXTS)
def test_line_filter_invariants(text):
    """Every kept line satisfies the keep rule verbatim; counts bounded."""
    import pyarrow as pa

    from deepwebharvester_ray.functions.textops import (
        LINE_BANNED, LINE_MIN_WORDS, LINE_TERMINALS, TOKEN_RE,
        line_filter_batch)

    out = line_filter_batch(pa.table({"id": [1], "text": [text]}))
    kept = out.column("kept_text")[0].as_py()
    n_lines = out.column("n_lines")[0].as_py()
    n_kept = out.column("n_kept")[0].as_py()
    assert 0 <= n_kept <= n_lines == len(text.split("\n"))
    if kept:
        for ln in kept.split("\n"):
            assert len(TOKEN_RE.findall(ln)) >= LINE_MIN_WORDS
            assert ln.rstrip().endswith(LINE_TERMINALS)
            assert LINE_BANNED not in ln.lower()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2**40), min_size=1, max_size=20, unique=True),
       st.integers(1, 4))
def test_hash_normals_batch_independent(ids, split):
    """Noise for a given (vec_id, copy, dim) must not depend on which
    batch the row arrived in — the determinism contract of the planted
    corpus."""
    import numpy as np

    from deepwebharvester_ray.pipelines.queries import _hash_normals

    arr = np.asarray(ids, dtype=np.int64)
    whole = _hash_normals(arr, 3, 8)
    cut = min(split, len(arr))
    parts = np.concatenate(
        [_hash_normals(arr[:cut], 3, 8), _hash_normals(arr[cut:], 3, 8)]
        if cut < len(arr) else [whole])
    assert np.array_equal(whole, parts)
    # and it is (approximately) standard normal in aggregate
    assert abs(float(whole.mean())) < 1.5


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abc123 ", max_size=30), min_size=1,
                max_size=6), st.randoms())
def test_hashed_scorer_is_a_bag(texts, rnd):
    """The linear score is a bag-of-words functional: permuting tokens
    within a doc never changes it."""
    import pyarrow as pa

    from deepwebharvester_ray.functions.textops import (WORD_RE,
                                                        HashedLinearScorer)

    scorer = HashedLinearScorer()
    base = scorer(pa.table({"id": list(range(len(texts))),
                            "text": texts})).column("score").to_pylist()
    shuffled = []
    for t in texts:
        toks = WORD_RE.findall(t.lower())
        rnd.shuffle(toks)
        shuffled.append(" ".join(toks))
    again = scorer(pa.table({"id": list(range(len(texts))),
                             "text": shuffled})).column("score").to_pylist()
    assert base == again


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 20)), min_size=1,
             max_size=60),
    st.lists(st.booleans(), min_size=12, max_size=12),
    st.randoms(),
)
def test_streaming_sessionize_kernel_equals_batch(pairs, evict_flags, rnd):
    """Any event-time-ordered chunking of a stream, with arbitrary
    watermark evictions between chunks, sums to the batch gap-session
    answer — the invariant the streaming operator's exactness rests on.
    Timestamps are in units of GAP/2 so boundaries (== gap, > gap) are
    exercised densely."""
    from collections import defaultdict

    import numpy as np

    from deepwebharvester_ray.functions.streaming import (SESSION_GAP_US,
                                                          _ShardState)

    unit = SESSION_GAP_US // 2
    events = sorted((u, t * unit) for u, t in pairs)
    events.sort(key=lambda e: e[1])  # event-time-ordered stream

    # reference batch answer
    per_user = defaultdict(list)
    for u, t in events:
        per_user[u].append(t)
    want = {}
    for u, ts in per_user.items():
        ts.sort()
        sess = 1 + sum(1 for a, b in zip(ts, ts[1:])
                       if b - a > SESSION_GAP_US)
        want[u] = (len(ts), sess)

    # streamed with random chunk boundaries + optional evictions
    st_state = _ShardState()
    totals = defaultdict(lambda: [0, 0])

    def drain(tbl):
        for u, ne, ns in zip(tbl.column("user_id").to_pylist(),
                             tbl.column("n_events").to_pylist(),
                             tbl.column("n_sessions").to_pylist()):
            totals[u][0] += ne
            totals[u][1] += ns

    i, chunk_idx = 0, 0
    while i < len(events):
        j = rnd.randint(i + 1, len(events))
        chunk = events[i:j]
        st_state.ingest(np.array([u for u, _ in chunk], np.int64),
                        np.array([t for _, t in chunk], np.int64))
        if evict_flags[chunk_idx % len(evict_flags)]:
            drain(st_state.evict(chunk[-1][1]))
        i, chunk_idx = j, chunk_idx + 1
    drain(st_state.finalize())

    assert {u: tuple(v) for u, v in totals.items()} == want


@given(st.lists(st.floats(min_value=-1e12, max_value=1e12,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_dd_bucket_encoding_order_and_error(vals):
    """DDSketch bucket encoding: ENCODED order == VALUE order (zeros
    between negatives and positives), and every nonzero value is within
    relative error alpha of its bucket's representative."""
    import numpy as np

    from deepwebharvester_ray.functions.sketch import (
        dd_bucket_indices,
        dd_bucket_value,
    )

    alpha = 0.01
    v = np.asarray(vals, dtype=np.float64)
    idx = dd_bucket_indices(v, alpha)
    order = np.argsort(v, kind="stable")
    assert (np.diff(idx[order]) >= 0).all()
    rep = dd_bucket_value(idx, alpha)
    nz = v != 0
    if nz.any():
        rel = np.abs(rep[nz] - v[nz]) / np.abs(v[nz])
        assert (rel <= alpha + 1e-9).all()
    assert (rep[~nz] == 0).all()


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 50),
                          st.integers(0, 30)),
                min_size=1, max_size=120),
       st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_frontier_queue_cap_model(entries, cap):
    """Bounded FrontierQueue == reference model: after any batch split,
    each seed holds exactly the cap smallest (depth, url) pairs of the
    distinct urls pushed (first push fixing a url's depth), pops come in
    canonical order, and dropped is the complement count."""
    from deepwebharvester_ray.state.pqueue import FrontierQueue

    ents = [(s, d, f"http://h{s}.onion/{u}") for s, d, u in entries]
    q = FrontierQueue(max_per_seed=cap)
    # model: first occurrence of (sid, url) fixes its depth
    seen, model = set(), {}
    for sid, d, u in ents:
        if (sid, u) not in seen:
            seen.add((sid, u))
            model.setdefault(sid, []).append((d, u))
    q.push(ents)
    expect = []
    n_drop = 0
    for sid, lst in model.items():
        lst.sort()
        expect.extend((sid, d, u) for d, u in lst[:cap])
        n_drop += max(0, len(lst) - cap)
    assert q.dropped == n_drop
    assert q.pop_budget() == sorted(expect)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=0,
                max_size=40))
def test_size_grouped_index_partitions_runs(sizes):
    """_size_grouped_index (shared by six pair/wedge emitters) must
    yield every selected run exactly once: the union of all idx rows is
    a permutation of the runs' position blocks, each (m, idx) group is
    rectangular with the right width, and no position appears twice."""
    import numpy as np

    from deepwebharvester_ray.functions.dedup import _size_grouped_index

    sz = np.asarray(sizes, np.int64)
    starts = np.concatenate(([0], np.cumsum(sz)[:-1])) if len(sz) else \
        np.empty(0, np.int64)
    seen = []
    for m, idx in _size_grouped_index(starts, sz):
        assert idx.ndim == 2 and idx.shape[1] == m
        for row in idx:
            assert list(row) == list(range(row[0], row[0] + m))
            seen.append((int(row[0]), m))
    expect = sorted((int(s), int(n)) for s, n in zip(starts, sz))
    assert sorted(seen) == expect


# ── round-2 parser layer ─────────────────────────────────────────────────────


@settings(max_examples=200, deadline=None)
@given(URLS)
def test_rfc3986_normalize_idempotent(url):
    from deepwebharvester_ray.urlops import normalize_url_rfc3986 as f

    n1 = f(url)
    assert f(n1) == n1
    # dot segments never survive, paths always rooted
    path = n1.split("://", 1)[-1].split("?", 1)[0]
    path = path[path.find("/"):] if "/" in path else "/"
    assert "/../" not in path + "/" and "/./" not in path + "/"


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300))
def test_norm_percent_idempotent_on_junk(b):
    from deepwebharvester_ray.urlops import _norm_percent

    s = b.decode("latin-1")
    n1 = _norm_percent(s)
    assert _norm_percent(n1) == n1


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(
    st.from_regex(r"http://[a-z0-9.]{1,15}/[a-z0-9/]{0,20}",
                  fullmatch=True),
    st.integers(min_value=0, max_value=2**50),
    st.binary(max_size=200)), max_size=8))
def test_warc_record_roundtrip_property(rows):
    """write ∘ parse is the identity for ARBITRARY payload bytes and
    timestamps — the WARC framing must never be confused by payloads
    containing CRLF pairs, WARC/1.1 magic, or header-like lines."""
    from deepwebharvester_ray.warc import _parse_records, _record_bytes

    blob = b"".join(_record_bytes(u, ts, payload, "conversion")
                    for u, ts, payload in rows)
    got = _parse_records(blob)
    assert [(g[0], g[1]) for g in got] == [(u, ts) for u, ts, _ in rows]
    assert [g[5] for g in got] == [
        p.decode("utf-8", errors="replace") for _, _, p in rows]


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=400))
def test_container_parsers_never_crash(b):
    """Fuzz: the image/audio/video header parsers must reject or parse
    arbitrary bytes — never raise (the quarantine path depends on
    that)."""
    from deepwebharvester_ray.functions.multimodal import (image_dims,
                                                           mp4_meta,
                                                           wav_meta)

    for fn in (image_dims, wav_meta, mp4_meta):
        out = fn(b)
        assert isinstance(out, tuple)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
               max_size=300))
def test_policy_parsers_never_crash(s):
    from deepwebharvester_ray.extract import parse_html_meta
    from deepwebharvester_ray.state.robots import (parse_http_policy,
                                                   parse_link_header)

    cs, ni, nf, cn = parse_html_meta(s)
    assert isinstance(cs, str) and isinstance(cn, str)
    p = parse_http_policy(s)
    assert set(p) == {"noindex", "nofollow", "max_age_s",
                      "retry_after_s"}
    for tgt, rel in parse_link_header(s):
        assert isinstance(tgt, str) and isinstance(rel, str)


@settings(max_examples=150, deadline=None)
@given(st.from_regex(r"https?://[A-Za-z0-9.\-]{1,20}(:[0-9]{1,4})?"
                     r"(/[A-Za-z0-9._~%\-]{0,8}){0,4}(\?[a-z=&%0-9]{0,12})?",
                     fullmatch=True))
def test_surt_deterministic_and_sortable(url):
    from deepwebharvester_ray.warc import surt

    k = surt(url)
    assert surt(url) == k          # deterministic
    assert ")" in k                # host/path separator always present
    # same-host urls share the key prefix up to ')'
    host_part = k.split(")", 1)[0]
    assert host_part == host_part.lower()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.integers(min_value=0, max_value=20)),
                min_size=1, max_size=120),
       st.integers(min_value=1, max_value=10))
def test_window_shard_state_partition_invariance(events, n_chunks):
    """_WindowShardState: any micro-batch partitioning of an event-time
    ordered (type, hour) stream emits the same closed+flushed window
    multiset as one batch fold — the plan-equivalence kernel behind
    the tumbling/hopping twins."""
    import pyarrow as pa

    from deepwebharvester_ray.functions.streaming import (
        _WindowShardState)

    events = sorted(events, key=lambda e: e[1])

    def run(chunks):
        st_ = _WindowShardState(window_ms=1, key_name="w",
                                with_cents=False)
        got = {}
        for chunk in chunks:
            if not chunk:
                continue
            wm_us = max(h for _, h in chunk) * 1000
            types = [t for t, _ in chunk]
            hours = [h for _, h in chunk]
            ns = [1] * len(chunk)
            out = st_.ingest(types, hours, ns, None, wm_us)
            for r in out.to_pylist():
                k = (r["event_type"], r["w"])
                got[k] = got.get(k, 0) + r["n_events"]
        for r in st_.flush().to_pylist():
            k = (r["event_type"], r["w"])
            got[k] = got.get(k, 0) + r["n_events"]
        return got

    one = run([events])
    size = max(1, len(events) // n_chunks)
    many = run([events[i:i + size]
                for i in range(0, len(events), size)])
    want = {}
    for t, h in events:
        want[(t, h)] = want.get((t, h), 0) + 1
    assert one == want and many == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2**63 - 1), min_size=0, max_size=300),
       st.integers(1, 30), st.data())
def test_min_k_hash_shard_state_partition_invariant(vals, k, data):
    """_MinKHashShardState: folding ANY micro-batch partitioning of a
    value stream yields the same k-smallest state as one batch fold —
    the plan-equivalence kernel behind the sample_k streaming twin."""
    import numpy as np

    from deepwebharvester_ray.functions.streaming import _MinKHashShardState

    ids = np.asarray(vals, np.int64)
    with np.errstate(over="ignore"):
        hv = ids.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)

    whole = _MinKHashShardState(k)
    whole.ingest(hv, ids)

    split = _MinKHashShardState(k)
    i = 0
    while i < len(ids):
        j = i + data.draw(st.integers(1, max(1, len(ids) - i)),
                          label="chunk")
        split.ingest(hv[i:j], ids[i:j])
        i = j
    assert np.array_equal(whole.hv, split.hv)
    assert np.array_equal(whole.ids, split.ids)
    assert len(split.hv) <= k              # state never exceeds k


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12),
                min_size=0, max_size=400),
       st.data())
def test_dd_register_shard_state_partition_invariant(vals, data):
    """_DDRegisterShardState: register addition commutes — any
    micro-batch split and any shard routing reproduce the single-fold
    bucket counts exactly (the streaming-DDSketch equivalence
    kernel)."""
    import numpy as np

    from deepwebharvester_ray.functions.sketch import dd_bucket_indices
    from deepwebharvester_ray.functions.streaming import (
        _DDRegisterShardState)

    v = np.asarray(vals, np.float64)
    idx = dd_bucket_indices(v, 0.01)
    u, c = np.unique(idx, return_counts=True)

    whole = _DDRegisterShardState()
    whole.ingest(u, c.astype(np.int64))

    split = _DDRegisterShardState()
    i = 0
    while i < len(v):
        j = i + data.draw(st.integers(1, max(1, len(v) - i)),
                          label="chunk")
        su, sc = np.unique(dd_bucket_indices(v[i:j], 0.01),
                           return_counts=True)
        split.ingest(su, sc.astype(np.int64))
        i = j
    assert np.array_equal(whole.buckets, split.buckets)
    assert np.array_equal(whole.counts, split.counts)
    assert int(split.counts.sum()) == len(v)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(st.characters(min_codepoint=97, max_codepoint=102),
                        min_size=1, max_size=3),
                min_size=0, max_size=60),
       st.lists(st.text(st.characters(min_codepoint=97, max_codepoint=102),
                        min_size=1, max_size=3),
                min_size=0, max_size=60),
       st.integers(2, 4))
def test_remove_dup_spans_rewrite_kernel(tok_a, tok_b, k):
    """The ExactSubstr rewrite math (mark every non-first occurrence of
    a cross-doc window → interval union via the diff/cumsum kernel →
    excise) on a two-doc corpus over a tiny alphabet (dense window
    collisions): the operator's vectorized kernel equals a brute
    per-position reference."""
    import numpy as np

    docs = {0: tok_a, 1: tok_b}

    def brute(docs):
        occ = {}
        for i, ts in sorted(docs.items()):
            for q in range(len(ts) - k + 1):
                occ.setdefault(tuple(ts[q:q + k]), []).append((i, q))
        out = {}
        for i, ts in docs.items():
            cov = np.zeros(len(ts), bool)
            for g, os_ in occ.items():
                if len({a for a, _ in os_}) >= 2:
                    first = min(os_)
                    for a, q in os_:
                        if a == i and (a, q) != first:
                            cov[q:q + k] = True
            out[i] = ([w for w, c in zip(ts, cov) if not c],
                      int(cov.sum()))
        return out

    exp = brute(docs)
    occ = {}
    for i, ts in sorted(docs.items()):
        for q in range(len(ts) - k + 1):
            occ.setdefault(tuple(ts[q:q + k]), []).append((i, q))
    for i, ts in docs.items():
        marked = sorted(q for g, os_ in occ.items()
                        if len({a for a, _ in os_}) >= 2
                        for a, q in os_
                        if a == i and (a, q) != min(os_))
        n = len(ts)
        diff = np.zeros(n + 1, np.int32)
        p = np.asarray(marked, np.int64)
        if len(p):
            np.add.at(diff, p, 1)
            np.add.at(diff, np.minimum(p + k, n), -1)
        covered = np.cumsum(diff[:n]) > 0
        kept = [w for w, c in zip(ts, covered) if not c]
        assert (kept, int(covered.sum())) == exp[i]


# ── multimodal codec round-trip properties ──────────────────────────────────


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 9), st.integers(1, 9),
    st.sampled_from([1, 2, 3, 4]),
    st.lists(st.integers(0, 4), min_size=1, max_size=9),
    st.integers(0, 2**32 - 1),
)
def test_png_roundtrip_property(h, w, ch, filters, seed):
    """Any raster × any per-row filter sequence round-trips bit-exact
    through the pure-stdlib PNG codec."""
    import numpy as np

    from deepwebharvester_ray.functions.multimodal import (
        png_decode, png_encode,
    )

    rng = np.random.RandomState(seed % (2**32))
    img = rng.randint(0, 256, (h, w, ch), dtype=np.uint8)
    blob = png_encode(img, filters=lambda y: filters[y % len(filters)])
    assert np.array_equal(png_decode(blob), img)


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=4000))
def test_gif_lzw_roundtrip_property(data):
    """Arbitrary byte strings survive the GIF-flavor LZW codec —
    including width growth, KwKwK phrases and pathological runs."""
    import numpy as np

    from deepwebharvester_ray.functions.multimodal import (
        _gif_lzw_decode, _gif_lzw_encode,
    )

    arr = np.frombuffer(data, np.uint8)
    assert _gif_lzw_decode(_gif_lzw_encode(arr, 8), 8) == data


@settings(max_examples=60, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=50), min_size=1,
                max_size=30),
       st.integers(1, 8))
def test_mp4_demux_roundtrip_property(frames, chunk_size):
    """Any sample list × any chunk grouping round-trips byte-exact
    through the MP4 sample-table encode/demux pair."""
    from deepwebharvester_ray.functions.multimodal import (
        mp4_encode_samples, mp4_samples,
    )

    blob = mp4_encode_samples(frames, chunk_size=chunk_size)
    got = [blob[o:o + s] for o, s in mp4_samples(blob)]
    assert got == frames
