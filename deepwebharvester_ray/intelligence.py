"""IOC extraction + threat classification as a vectorizable batch stage.

Behavior mirrors the reference IntelligenceExtractor
(/root/reference/deepwebharvester/intelligence.py):

* 11 IOC regex families + private-IP exclusion, per-field dedupe + sort,
  URL list capped at 50 (intelligence.py:239-271)
* keyword-density threat scoring:
  ``score = min(hits/(words/1000), 1) * weight * 10`` per category, risk =
  max category score capped at 10, labels Low<4≤Medium<7≤High<9≤Critical,
  categories kept when score > 1.0 sorted by score desc
  (intelligence.py:275-337)

All regexes and the keyword KB are module-level constants → compiled once
per worker process at import; the batch fn is stateless, so it runs as plain
Ray tasks (no actor pool needed — SURVEY §2.3 ST8).
"""
from __future__ import annotations

import json
import re
from typing import Dict, List, Tuple

import pyarrow as pa

# ── IOC patterns (behavioral parity with reference intelligence.py:26-57) ────

IOC_PATTERNS: Dict[str, re.Pattern] = {
    "ipv4": re.compile(
        r"\b(?:(?:25[0-5]|2[0-4]\d|[01]?\d\d?)\.){3}(?:25[0-5]|2[0-4]\d|[01]?\d\d?)\b"
    ),
    "emails": re.compile(r"\b[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}\b"),
    "md5": re.compile(r"\b[0-9a-fA-F]{32}\b"),
    "sha1": re.compile(r"\b[0-9a-fA-F]{40}\b"),
    "sha256": re.compile(r"\b[0-9a-fA-F]{64}\b"),
    "cves": re.compile(r"\bCVE-\d{4}-\d{4,7}\b", re.IGNORECASE),
    "btc_addresses": re.compile(
        r"\b(?:bc1[ac-hj-np-z02-9]{6,87}|[13][a-km-zA-HJ-NP-Z1-9]{25,34})\b"
    ),
    "xmr_addresses": re.compile(r"\b4[0-9AB][1-9A-HJ-NP-Za-km-z]{93}\b"),
    "onion_addresses": re.compile(r"\b[a-z2-7]{56}\.onion\b", re.IGNORECASE),
    "domains": re.compile(
        r"\b(?:[a-z0-9](?:[a-z0-9\-]{0,61}[a-z0-9])?\.)"
        r"+(?:com|net|org|io|ru|cn|de|uk|fr|it|es|gov|edu|mil|co)\b",
        re.IGNORECASE,
    ),
    "urls": re.compile(r"https?://[^\s\"'<>]{8,200}", re.IGNORECASE),
}
PGP_RE = re.compile(r"-----BEGIN PGP")
PRIVATE_PREFIXES: Tuple[str, ...] = ("127.", "10.", "192.168.", "169.254.", "::1")
URL_CAP = 50  # reference intelligence.py:269

IOC_FIELDS: List[str] = list(IOC_PATTERNS.keys())

# ── Threat KB (reference intelligence.py:64-125) ─────────────────────────────

CATEGORIES: Dict[str, List[str]] = {
    "Credentials & Leaks": [
        "password", "credentials", "login", "username", "leaked", "breach",
        "database dump", "combo list", "fullz", "account", "shell access",
        "rdp", "ssh login", "ftp", "vpn access", "admin panel",
    ],
    "Marketplace": [
        "buy", "sell", "price", "vendor", "shipping", "escrow", "market",
        "shop", "store", "listing", "order", "payment", "wallet", "checkout",
        "in stock", "out of stock", "delivery",
    ],
    "Malware & Ransomware": [
        "malware", "ransomware", "trojan", "botnet", "keylogger", "exploit",
        "payload", "c2", "command and control", "dropper", "cryptolocker",
        "ransom", "decrypt", "encryption key", "rat ", "loader", "stealer",
        "infostealer", "spyware",
    ],
    "Financial Fraud": [
        "credit card", "cvv", "carding", "dump", "bin", "cashout",
        "money laundering", "bank account", "wire transfer", "western union",
        "paypal", "swift", "iban", "routing number", "skimmer",
        "counterfeit", "fake bills",
    ],
    "Illicit Substances": [
        "cocaine", "heroin", "fentanyl", "mdma", "methamphetamine",
        "cannabis", "weed", "lsd", "ketamine", "opioid", "pills",
        "narcotics", "stimulant", "psychedelic", "benzodiazepine",
    ],
    "Hacking Services": [
        "ddos", "dos attack", "hack for hire", "zero-day", "0day",
        "vulnerability", "cve-", "exploit kit", "stresser", "booter",
        "spear phishing", "social engineering", "remote access",
        "web shell", "privilege escalation",
    ],
    "Identity Documents": [
        "passport", "id card", "driver license", "ssn", "social security",
        "birth certificate", "kyc bypass", "identity", "national id",
        "residence permit", "visa", "scan", "fake id",
    ],
    "Forum & Community": [
        "forum", "thread", "reply", "post", "member", "moderator",
        "register", "join", "discussion", "topic", "board", "community",
    ],
    "Cryptocurrency Services": [
        "mixer", "tumbler", "coin swap", "monero", "privacy coin",
        "exchange", "no kyc", "anonymous transfer", "clean btc",
        "crypto laundry",
    ],
}

CATEGORY_RISK: Dict[str, float] = {
    "Credentials & Leaks": 0.85,
    "Marketplace": 0.55,
    "Malware & Ransomware": 0.95,
    "Financial Fraud": 0.90,
    "Illicit Substances": 0.80,
    "Hacking Services": 0.90,
    "Identity Documents": 0.85,
    "Forum & Community": 0.20,
    "Cryptocurrency Services": 0.70,
}

# The keyword lists lower-cased once: classify_threat counts them in the
# lower-cased text of every page.
_CATEGORY_KEYWORDS: Tuple[Tuple[str, Tuple[str, ...]], ...] = tuple(
    (category, tuple(kw.lower() for kw in keywords))
    for category, keywords in CATEGORIES.items())


# ── Row functions (parity-testable) ──────────────────────────────────────────


def extract_iocs(text: str) -> Dict[str, object]:
    """IOC dict for one text (reference intelligence.py:239-271).

    Returns the 11 sorted/deduped list fields + ``pgp_present`` +
    ``ioc_total``.
    """
    out: Dict[str, object] = {}
    for name, pat in IOC_PATTERNS.items():
        if name == "ipv4":
            raw = set(pat.findall(text))
            out[name] = sorted(
                ip for ip in raw if not any(ip.startswith(p) for p in PRIVATE_PREFIXES)
            )
        elif name == "cves":
            out[name] = sorted({m.upper() for m in pat.findall(text)})
        elif name == "urls":
            out[name] = sorted(set(pat.findall(text)))[:URL_CAP]
        else:
            out[name] = sorted(set(pat.findall(text)))
    out["pgp_present"] = bool(PGP_RE.search(text))
    out["ioc_total"] = sum(len(out[f]) for f in IOC_FIELDS)
    return out


def classify_threat(text: str) -> Dict[str, object]:
    """Threat assessment for one text (reference intelligence.py:275-337)."""
    text_lower = text.lower()
    word_count = max(len(text_lower.split()), 1)
    category_scores: Dict[str, float] = {}
    keyword_hits: Dict[str, int] = {}

    for category, keywords in _CATEGORY_KEYWORDS:
        hits = sum(text_lower.count(kw) for kw in keywords)
        if hits == 0:
            continue
        density = min(hits / (word_count / 1000.0), 1.0)
        weight = CATEGORY_RISK.get(category, 0.5)
        category_scores[category] = density * weight * 10.0
        keyword_hits[category] = hits

    if not category_scores:
        return {
            "categories": [],
            "risk_score": 0.0,
            "risk_label": "Low",
            "keyword_hits": {},
        }

    sorted_cats = sorted(category_scores.items(), key=lambda x: x[1], reverse=True)
    top_cats = [cat for cat, score in sorted_cats if score > 1.0]
    risk = min(max(category_scores.values()), 10.0)
    if risk >= 9.0:
        label = "Critical"
    elif risk >= 7.0:
        label = "High"
    elif risk >= 4.0:
        label = "Medium"
    else:
        label = "Low"
    return {
        "categories": top_cats,
        "risk_score": round(risk, 2),
        "risk_label": label,
        "keyword_hits": keyword_hits,
    }


def analyze(url: str, text: str) -> Dict[str, object]:
    """Combined per-page intelligence (reference intelligence.py:341-356)."""
    out = {"url": url}
    out.update(extract_iocs(text))
    out.update(classify_threat(text))
    return out


# ── Ray Data batch stage ─────────────────────────────────────────────────────


def intelligence_batch(batch: pa.Table, text_column: str = "text") -> pa.Table:
    """map_batches fn adding IOC list columns + threat columns to *batch*.

    Single pass over each text (IOCs + threat computed together, matching
    the reference's ``analyze``).  ``keyword_hits`` is serialized to a JSON
    string column (the reference stores IOC data as JSON TEXT,
    storage.py:127-129).
    """
    texts = batch.column(text_column).to_pylist()
    cols: Dict[str, List] = {f: [] for f in IOC_FIELDS}
    pgp: List[bool] = []
    totals: List[int] = []
    categories: List[List[str]] = []
    risk_scores: List[float] = []
    risk_labels: List[str] = []
    hits_json: List[str] = []

    for text in texts:
        text = text or ""
        iocs = extract_iocs(text)
        threat = classify_threat(text)
        for f in IOC_FIELDS:
            cols[f].append(iocs[f])
        pgp.append(iocs["pgp_present"])
        totals.append(iocs["ioc_total"])
        categories.append(threat["categories"])
        risk_scores.append(threat["risk_score"])
        risk_labels.append(threat["risk_label"])
        hits_json.append(json.dumps(threat["keyword_hits"], sort_keys=True))

    out = {name: batch.column(name) for name in batch.column_names}
    for f in IOC_FIELDS:
        out[f] = pa.array(cols[f], pa.large_list(pa.string()))
    out["pgp_present"] = pa.array(pgp, pa.bool_())
    out["ioc_total"] = pa.array(totals, pa.int32())
    out["categories"] = pa.array(categories, pa.large_list(pa.string()))
    out["risk_score"] = pa.array(risk_scores, pa.float64())
    out["risk_label"] = pa.array(risk_labels, pa.string())
    out["keyword_hits"] = pa.array(hits_json, pa.string())
    return pa.table(out)
