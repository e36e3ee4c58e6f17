"""Per-host robots.txt rule tables (north-rule extension).

The reference's only "robots-like" mechanism is the global
``blacklist_paths`` suffix filter (/root/reference/deepwebharvester/
extractor.py:40-43); this engine adds real per-host Robots Exclusion
Protocol rules on top, as a broadcastable rule table applied inside the
vectorized frontier-filter stage.

Semantics (standard REP, RFC 9309 subset):

* Only ``User-agent: *`` groups are honored (the engine sends no
  distinguishing agent string).
* ``Allow`` / ``Disallow`` are path PREFIXES; the longest matching rule
  wins; on equal length Allow wins; no matching rule → allowed.
* Empty ``Disallow:`` lines are ignored (allow-all idiom).
* ``Crawl-delay`` overrides the engine's politeness delay for that host.
* ``$`` end-anchor and ``*`` wildcards are supported (common extension).

At 10^10-frontier scale the table is ``ray.put`` once per generation and
read through the worker-local broadcast cache; rules for ~10^7 hosts at a
few prefixes each stay well under a gigabyte.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple
from urllib.parse import urlparse

Rule = Tuple[str, bool]  # (path pattern, is_allow)


def parse_robots_txt(text: str) -> Tuple[List[Rule], Optional[float]]:
    """Parse the ``User-agent: *`` groups of a robots.txt body.

    Returns (rules, crawl_delay); rules keep file order.
    """
    rules: List[Rule] = []
    delay: Optional[float] = None
    applies = False
    seen_agent_line = False
    for raw in (text or "").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        key, _, val = line.partition(":")
        key = key.strip().lower()
        val = val.strip()
        if key == "user-agent":
            # a new agent block begins; successive user-agent lines stack
            if seen_agent_line:
                applies = applies or val == "*"
            else:
                applies = val == "*"
            seen_agent_line = True
            continue
        seen_agent_line = False
        if not applies:
            continue
        if key == "disallow" and val:
            rules.append((val, False))
        elif key == "allow" and val:
            rules.append((val, True))
        elif key == "crawl-delay":
            try:
                delay = float(val)
            except ValueError:
                pass
    return rules, delay


def _rule_regex(pattern: str) -> re.Pattern:
    """REP pattern → anchored regex (* wildcard, $ end anchor)."""
    anchored = pattern.endswith("$")
    if anchored:
        pattern = pattern[:-1]
    parts = [re.escape(p) for p in pattern.split("*")]
    body = ".*".join(parts)
    return re.compile("^" + body + ("$" if anchored else ""))


@dataclass
class HostRules:
    rules: List[Rule] = field(default_factory=list)
    crawl_delay: Optional[float] = None
    _compiled: List[Tuple[re.Pattern, int, bool]] = field(
        default_factory=list, repr=False
    )

    def __post_init__(self) -> None:
        self._compiled = [
            (_rule_regex(p), len(p.rstrip("$")), allow) for p, allow in self.rules
        ]

    def allowed(self, path: str) -> bool:
        """Longest-match wins; Allow wins length ties; default allow."""
        best_len = -1
        best_allow = True
        for rx, plen, allow in self._compiled:
            if rx.match(path):
                if plen > best_len or (plen == best_len and allow and not best_allow):
                    best_len = plen
                    best_allow = allow
        return best_allow


@dataclass
class RobotsTable:
    """host → rules; host absent ⇒ everything allowed."""

    hosts: Dict[str, HostRules] = field(default_factory=dict)

    @classmethod
    def from_texts(cls, texts: Dict[str, str]) -> "RobotsTable":
        out: Dict[str, HostRules] = {}
        for host, body in (texts or {}).items():
            rules, delay = parse_robots_txt(body)
            out[host.lower()] = HostRules(rules=rules, crawl_delay=delay)
        return cls(hosts=out)

    def is_allowed(self, url: str) -> bool:
        parsed = urlparse(url)
        hr = self.hosts.get(parsed.netloc.lower())
        if hr is None:
            return True
        # RFC 9309 matches rules against path-AND-query (the common
        # 'Disallow: /*?session=' idiom targets the query string — a
        # path-only match would silently never enforce it)
        target = parsed.path or "/"
        if parsed.query:
            target = f"{target}?{parsed.query}"
        return hr.allowed(target)

    def crawl_delay_for(self, host: str, default: float) -> float:
        hr = self.hosts.get(host.lower())
        if hr is None or hr.crawl_delay is None:
            return default
        return hr.crawl_delay

    def blocked_set(self, urls: Iterable[str]) -> set:
        return {u for u in urls if not self.is_allowed(u)}


_MAX_AGE_RE = re.compile(r"(?:^|[,\s])max-age\s*=\s*(\d+)", re.I)


def parse_http_policy(headers_text: str, agent: str = "") -> dict:
    """Crawl-policy fields from a raw HTTP response header block — the
    THIRD robots surface (robots.txt rules files, the meta robots tag
    rules one page, ``X-Robots-Tag`` rules any response INCLUDING
    non-HTML: PDFs, images, API payloads — only the header can opt
    those out), plus the freshness hints a recrawl scheduler consumes.

    Rules implemented (RFC 9110 / Robots Meta Tag spec):

    * header NAMES are case-insensitive; values of repeated
      ``X-Robots-Tag`` lines COMBINE;
    * an ``X-Robots-Tag: someagent: noindex`` value is scoped to that
      user agent and must be IGNORED by everyone else (unscoped values
      apply to all) — the trap naive substring checks fail;
    * ``none`` ≡ ``noindex, nofollow``;
    * ``Cache-Control: ..., max-age=N`` → recrawl TTL seconds;
      ``Retry-After: N`` → politeness backoff seconds (the delta-
      seconds form; HTTP-date form is out of scope and yields -1).

    Returns ``{noindex, nofollow, max_age_s, retry_after_s}`` with -1
    for absent numeric hints."""
    robots_vals = []
    max_age = -1
    retry_after = -1
    for raw in (headers_text or "").split("\n"):
        line = raw.rstrip("\r")
        if ":" not in line:
            continue
        name, _, value = line.partition(":")
        name = name.strip().lower()
        value = value.strip()
        if name == "x-robots-tag":
            robots_vals.append(value)
        elif name == "cache-control":
            m = _MAX_AGE_RE.search(value)
            if m and max_age < 0:
                max_age = int(m.group(1))
        elif name == "retry-after":
            if value.isdigit() and retry_after < 0:
                retry_after = int(value)
    tokens = []
    me = (agent or "").lower()
    for v in robots_vals:
        # agent scoping: "agent: directives" — applies only to that
        # agent; a directive list never contains ':', which is how the
        # two forms are told apart
        head, sep, rest = v.partition(":")
        if sep and "," not in head and " " not in head.strip():
            if head.strip().lower() != me:
                continue
            v = rest
        tokens.extend(t.strip().lower() for t in v.split(","))
    noindex = "noindex" in tokens or "none" in tokens
    nofollow = "nofollow" in tokens or "none" in tokens
    return {"noindex": noindex, "nofollow": nofollow,
            "max_age_s": max_age, "retry_after_s": retry_after}


def parse_link_header(value: str) -> list:
    """RFC 8288 ``Link`` header → ``[(target, rel), …]`` with one pair
    per rel TOKEN (``rel="next prefetch"`` yields two pairs) — the
    pagination-discovery primitive (``rel=next`` is how a crawler walks
    a paginated listing without guessing URL templates).  Handles the
    grammar traps: comma-separated link-values whose QUOTED params may
    themselves contain commas/semicolons, unquoted rel tokens, params
    other than rel ignored, case-insensitive rel comparison, whitespace
    anywhere.  Malformed link-values are skipped (lenient)."""
    out = []
    s = value or ""
    i, n = 0, len(s)
    while i < n:
        # find the <target>
        lt = s.find("<", i)
        if lt < 0:
            break
        gt = s.find(">", lt)
        if gt < 0:
            break
        target = s[lt + 1:gt].strip()
        # params run to the next top-level comma (quotes hide commas)
        j = gt + 1
        in_q = False
        while j < n and (in_q or s[j] != ","):
            if s[j] == '"':
                in_q = not in_q
            j += 1
        params = s[gt + 1:j]
        rels = []
        for p in params.split(";"):
            name, _, v = p.partition("=")
            if name.strip().lower() != "rel":
                continue
            v = v.strip()
            if v.startswith('"') and v.endswith('"') and len(v) >= 2:
                v = v[1:-1]
            rels = v.lower().split()
            break  # RFC 8288: first rel param wins, rest ignored
        for r in rels:
            if target:
                out.append((target, r))
        i = j + 1
    return out
