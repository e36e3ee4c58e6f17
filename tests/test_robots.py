"""Robots rule-table tests: REP parsing, longest-match semantics,
crawl-delay overrides, and end-to-end crawl conformance with robots."""
from __future__ import annotations

from deepwebharvester_ray.state.robots import (
    HostRules,
    RobotsTable,
    parse_robots_txt,
)

ROBOTS = """
# comment
User-agent: evilbot
Disallow: /

User-agent: *
Disallow: /private/
Disallow: /tmp
Allow: /private/ok
Crawl-delay: 2.5

User-agent: otherbot
Disallow: /other
"""


def test_parse_star_group_only():
    rules, delay = parse_robots_txt(ROBOTS)
    assert ("/private/", False) in rules
    assert ("/tmp", False) in rules
    assert ("/private/ok", True) in rules
    assert ("/", False) not in rules       # evilbot group ignored
    assert ("/other", False) not in rules  # otherbot group ignored
    assert delay == 2.5


def test_longest_match_allow_wins():
    hr = HostRules(rules=[("/private/", False), ("/private/ok", True)])
    assert not hr.allowed("/private/x")
    assert hr.allowed("/private/ok")
    assert hr.allowed("/private/okay")     # prefix match
    assert hr.allowed("/")                 # default allow


def test_wildcard_and_anchor():
    hr = HostRules(rules=[("/*.pdf$", False), ("/docs/", False), ("/docs/pub", True)])
    assert not hr.allowed("/x/file.pdf")
    assert hr.allowed("/x/file.pdfx")      # $ anchor
    assert not hr.allowed("/docs/secret")
    assert hr.allowed("/docs/pub/a")


def test_table_host_scoping_and_delay():
    t = RobotsTable.from_texts({"A.example.onion": "User-agent: *\nDisallow: /d/\nCrawl-delay: 1"})
    assert not t.is_allowed("http://a.example.onion/d/5")
    assert t.is_allowed("http://a.example.onion/ok")
    assert t.is_allowed("http://other.onion/d/5")      # unknown host → allowed
    assert t.crawl_delay_for("a.example.onion", 7.0) == 1.0
    assert t.crawl_delay_for("other.onion", 7.0) == 7.0
    assert t.blocked_set(["http://a.example.onion/d/1", "http://b.onion/x"]) == {
        "http://a.example.onion/d/1",
    }


def test_crawl_with_robots_conformance(ray_session, smoke_corpus, tmp_path):
    """Robots rules block their paths in BOTH the engine and the oracle;
    traces stay identical (blocked URLs counted as skipped, still marked)."""
    from deepwebharvester_ray.config import CrawlSettings
    from deepwebharvester_ray.corpus import host_of, seed_urls
    from deepwebharvester_ray.oracle import crawl_oracle, load_corpus_map
    from deepwebharvester_ray.pipelines.crawl import run_crawl

    # block /d/ pages on seed 0's host entirely; slow-crawl seed 1's host
    rules = {
        host_of(0): "User-agent: *\nDisallow: /d/",
        host_of(1): "User-agent: *\nCrawl-delay: 1.0",
    }
    cfg = CrawlSettings(max_depth=2, max_pages=5, robots_rules=rules,
                        seen_shards=2)
    seeds = seed_urls(3)

    run = run_crawl(str(smoke_corpus), seeds, cfg=cfg,
                    run_dir=str(tmp_path / "run"))
    oracle = crawl_oracle(load_corpus_map(str(smoke_corpus)), seeds, cfg)

    mine = run.results_table()
    got = {(r["seed_id"], r["url"]) for r in mine.select(["seed_id", "url"]).to_pylist()}
    want = {(r.seed_id, r.url) for r in oracle.results}
    assert got == want
    # no page on the blocked host was ever fetched as a result for seed 0
    assert all(host_of(0) not in u for _, u in got if _ == 0)
    # robots blocks surfaced in metrics
    assert sum(m.robots_blocked for m in run.metrics) > 0
    # engine counters match oracle counters (skipped includes robots blocks)
    assert run.stats["pages_skipped"] == oracle.stats["skipped"]
    assert run.stats["pages_crawled"] == oracle.stats["crawled"]
    # engine virtual clocks (incl. the crawl-delay override) match the oracle
    for sid, st in run.states.items():
        assert abs(st.vclock - oracle.vclock[sid]) < 1e-9


def test_query_string_rules_enforced():
    """RFC 9309 matches path+query: 'Disallow: /*?print=' must block a
    query-targeted URL (a path-only matcher silently never enforces it)."""
    from deepwebharvester_ray.state.robots import RobotsTable

    t = RobotsTable.from_texts({
        "h.onion": "User-agent: *\nDisallow: /*?print=1\n",
    })
    assert not t.is_allowed("http://h.onion/page?print=1")
    assert t.is_allowed("http://h.onion/page")
    assert t.is_allowed("http://h.onion/page?x=2")


def test_parse_http_policy_scoping_and_hints():
    """X-Robots-Tag agent scoping (scoped lines ignored unless WE are
    that agent), repeated-line combining, none expansion, first
    max-age wins, HTTP-date Retry-After ignored."""
    from deepwebharvester_ray.state.robots import parse_http_policy

    h = ("HTTP/1.1 200 OK\r\n"
         "X-ROBOTS-TAG: googlebot: noindex\r\n"
         "x-robots-tag: NOFOLLOW\r\n"
         "Cache-Control: private, max-age=3600, must-revalidate\r\n"
         "cache-control: max-age=10\r\n"
         "Retry-After: 120\r\n")
    p = parse_http_policy(h)
    assert (p["noindex"], p["nofollow"]) == (False, True)
    assert p["max_age_s"] == 3600  # first max-age wins
    assert p["retry_after_s"] == 120
    # the scoped directive APPLIES when we are that agent
    p = parse_http_policy(h, agent="Googlebot")
    assert p["noindex"] is True
    # none ≡ noindex, nofollow; HTTP-date Retry-After → -1
    p = parse_http_policy("X-Robots-Tag: none\r\n"
                          "Retry-After: Wed, 21 Oct 2015 07:28:00 GMT\r\n")
    assert p["noindex"] and p["nofollow"] and p["retry_after_s"] == -1
    # directive list containing a colon-free head of several words is
    # NOT an agent scope ("max-snippet:-1"-style values stay unscoped)
    p = parse_http_policy("X-Robots-Tag: noindex, nofollow\r\n")
    assert p["noindex"] and p["nofollow"]
    assert parse_http_policy("")["max_age_s"] == -1


def test_parse_link_header_grammar():
    from deepwebharvester_ray.state.robots import parse_link_header

    # quoted params hide commas; multi-token rel; case-variant rel name
    got = parse_link_header(
        '<http://e/p?a,b>; rel="next prefetch"; title="x, y", '
        "<http://e/q>; REL=PREV, <malformed")
    assert got == [("http://e/p?a,b", "next"),
                   ("http://e/p?a,b", "prefetch"),
                   ("http://e/q", "prev")]
    # RFC 8288: only the FIRST rel param of a link-value counts
    assert parse_link_header('<u>; rel="a"; rel="b"') == [("u", "a")]
    assert parse_link_header("") == []
    assert parse_link_header("<u>; title=no-rel") == []
