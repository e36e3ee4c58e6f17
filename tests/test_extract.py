"""Extraction semantics (reference extractor.py:95-133) + corpus ground truth."""
import pyarrow as pa

from deepwebharvester_ray import corpus, urlops
from deepwebharvester_ray.extract import extract_batch, extract_content

HOST = "a" * 56 + ".onion"
BASE = f"http://{HOST}/index"

SAMPLE = f"""
<html><head><title>  My Title  </title>
<script>var hidden = 1;</script>
<style>p {{ color: red }}</style>
</head>
<body>
<h1>Header</h1>
<p>Some &amp; text</p>
<noscript>INVISIBLE</noscript>
<a href="http://{HOST}/a">A</a>
<a href="/rel">R</a>
<a href="http://{HOST}/a#frag">AF</a>
<a href="#">top</a>
<a href="javascript:void(0)">js</a>
<a href="mailto:x@example.com">mail</a>
<a href="https://clearweb.example.com/x">ext</a>
</body></html>
"""


def test_title_and_text():
    title, text, chash, links = extract_content(SAMPLE, BASE)
    assert title == "My Title"
    assert "Header" in text and "Some & text" in text
    assert "hidden" not in text
    assert "color" not in text
    assert "INVISIBLE" not in text
    assert "My Title" not in text  # head content excluded from body text
    # segments joined by single newlines
    assert "Header\nSome & text" in text


def test_links_filtered_canonical_sorted():
    _, _, _, links = extract_content(SAMPLE, BASE)
    assert links == sorted(links)
    assert f"http://{HOST}/a" in links
    assert f"http://{HOST}/rel" in links
    assert all(".onion" in l for l in links)
    assert len(links) == 2  # fragment dup collapses into /a


def test_no_title():
    title, _, _, _ = extract_content("<html><body>x</body></html>", BASE)
    assert title == "No Title"
    title, _, _, _ = extract_content("<html><head><title>  </title></head><body>x</body></html>", BASE)
    assert title == "No Title"


def test_hash_deterministic_and_distinct():
    _, _, h1, _ = extract_content(SAMPLE, BASE)
    _, _, h2, _ = extract_content(SAMPLE, BASE)
    _, _, h3, _ = extract_content(SAMPLE + "<p>more</p>", BASE)
    assert h1 == h2
    assert h1 != h3
    assert len(h1) == 64


def test_blank_line_collapse():
    html = "<body><p>a</p>\n\n\n\n<p>b</p></body>"
    _, text, _, _ = extract_content(html, BASE)
    assert text == "a\nb"  # whitespace-only node dropped entirely
    # runs inside one text node collapse to a single blank line
    html2 = "<body><pre>a\n\n\n\nb</pre></body>"
    _, text2, _, _ = extract_content(html2, BASE)
    assert text2 == "a\n\nb"


def test_corpus_ground_truth():
    """Engine extraction must reproduce the generator's expected outputs."""
    texts = [f"body text {i}\nline two {i}" for i in range(200)]
    n = len(texts)
    for d in [0, 1, 7, 17, 63, 64, 65, 107, 199]:
        eff = corpus.effective_doc(d)
        html = corpus.page_html(d, n, texts[eff])
        title, text, chash, links = extract_content(html, corpus.doc_url(d))
        assert title == f"Doc {eff}", d
        assert text == corpus.expected_text(d, n, texts[eff]), d
        assert links == corpus.expected_links(d, n), d
        assert chash == urlops.content_hash_hex(text)


def test_mirror_pages_share_hash():
    texts = [f"t{i}" for i in range(200)]
    h_orig = extract_content(corpus.page_html(6, 200, texts[6]), corpus.doc_url(6))[2]
    h_mirror = extract_content(corpus.page_html(7, 200, texts[6]), corpus.doc_url(7))[2]
    assert h_orig == h_mirror


def test_extract_batch_arrow():
    texts = [f"text {i}" for i in range(120)]
    table = corpus.build_pages_table(texts)
    out = extract_batch(table.select(["url", "html"]).slice(0, 20))
    assert out.num_rows == 20
    assert out.column("links_found").to_pylist() == [5] * 20
    assert out.column("title").to_pylist()[0] == "Doc 0"
    sites = out.column("site").to_pylist()
    assert sites[0] == "http://" + corpus.host_of(0)


def test_malformed_html_no_crash():
    for bad in ["", "<", "<<<>>>", "<a href=", "<html><body><p>x", "\x00\x01"]:
        title, text, chash, links = extract_content(bad, BASE)
        assert isinstance(text, str) and len(chash) == 64


def test_self_closing_title_does_not_swallow_body():
    from deepwebharvester_ray.extract import extract_content

    title, text, _, _ = extract_content(
        "<html><head><title/></head><body><p>Hello world body</p></body></html>",
        "http://x.onion/",
    )
    assert text == "Hello world body"
    assert title == "No Title"


def test_self_closing_noise_tag_does_not_mute_page():
    from deepwebharvester_ray.extract import extract_content

    _, text, _, _ = extract_content(
        "<html><body><script/><p>visible</p></body></html>", "http://x.onion/"
    )
    assert "visible" in text


def test_extract_anchors_per_element():
    """Anchor pairs keep every element (two anchors to one canonical
    target), apply the harvester's filters, collapse whitespace, and an
    unclosed <a> is implicitly closed by the next one."""
    from deepwebharvester_ray.extract import extract_anchors

    host = "a" * 56 + ".onion"
    html = (
        f'<a href="http://{host}/x">First  Link</a>'
        f'<a href="http://{host}/x#frag"> First\nLink </a>'
        f'<a href="/rel">Rel</a>'
        '<a href="javascript:void(0)">JS</a>'
        '<a href="#">Top</a>'
        '<a href="mailto:u@e">Mail</a>'
        '<a href="https://clear.example/p">Ext</a>'
        f'<a href="http://{host}/open">Dangling'
        f'<a href="http://{host}/y">Y</a>'
    )
    got = extract_anchors(f"http://{host}/base", html)
    assert got == [
        (f"http://{host}/x", "First Link"),
        (f"http://{host}/x", "First Link"),
        (f"http://{host}/rel", "Rel"),
        (f"http://{host}/open", "Dangling"),
        (f"http://{host}/y", "Y"),
    ]


def test_parser_without_position_tracking_matches_stock(smoke_corpus,
                                                        monkeypatch):
    """``_PageParser.updatepos`` skips the stdlib's line/offset
    bookkeeping.  Extraction equals the stock parser's on every smoke
    corpus page, the generator's pages and the fixtures above, plus
    declarations, comments and tags that span lines."""
    from pathlib import Path

    import _markupbase
    import pyarrow.parquet as pq

    from deepwebharvester_ray import extract

    pages = [(r["url"], r["html"].decode("utf-8", errors="replace"))
             for f in sorted(Path(smoke_corpus).rglob("*.parquet"))
             for r in pq.read_table(f, columns=["url", "html"]).to_pylist()]
    texts = [f"body text {i}\nline two {i}" for i in range(200)]
    pages += [(corpus.doc_url(d),
               corpus.page_html(d, 200, texts[corpus.effective_doc(d)]))
              for d in range(200)]
    pages += [(BASE, h) for h in [
        SAMPLE, "", "<", "<<<>>>", "<a href=", "<html><body><p>x",
        "\x00\x01",
        "<html><head><title/></head><body><p>Hello world body</p></body>",
        "<html><body><script/><p>visible</p></body></html>",
        "<!DOCTYPE html>\n<!-- a\ncomment --><![CDATA[x\ny]]><?pi\n?>"
        f'<p\nclass="c">one\ntwo</p><a\nhref="/l">l</a><br/>\n&amp;\n',
    ]]
    assert len(pages) > 400
    fast = [extract.extract_content(h, u) for u, h in pages]

    class Stock(extract._PageParser):
        updatepos = _markupbase.ParserBase.updatepos

    probe = Stock()
    probe.feed("<p>\nx</p>")
    assert probe.getpos() != (1, 0)  # the stock bookkeeping runs
    monkeypatch.setattr(extract, "_PageParser", Stock)
    assert [extract.extract_content(h, u) for u, h in pages] == fast
