"""deepwebharvester_ray — a Ray-Data-native rebuild of the
servais1983/deepwebharvester crawl→extract→intelligence engine.

The reference is a thread-pool BFS crawler over live Tor HTTP
(`/root/reference/deepwebharvester/crawler.py`).  This package re-expresses
the same semantics as Ray Data pipelines over Parquet corpora of
Common-Crawl-style pages:

* ``urlops``        — URL validation / canonicalization / hashing (extractor.py:17-70)
* ``extract``       — HTML → title/text/content_hash/links   (extractor.py:95-133)
* ``intelligence``  — IOC regexes + threat scoring           (intelligence.py:239-337)
* ``corpus``        — deterministic synthetic page-corpus generator
* ``oracle``        — single-process reference-semantics BFS oracle (crawler.py:214-273)
* ``state``         — exact sharded seen-set (sorted 16-byte key digests) + frontier + scheduler
* ``pipelines``     — the generation-loop crawl pipeline + driver queries
* ``functions``     — training-data ops: dedup, ANN, text analysis, multimodal
* ``sinks``         — Parquet (primary) + JSON/CSV/SQLite parity sinks (storage.py)

Nothing in this package calls ``ray.init()``; the caller owns the session.
"""

__version__ = "0.1.0"

import os as _os
from pathlib import Path as _Path

REPO_ROOT = str(_Path(__file__).resolve().parent.parent)


def runtime_env() -> dict:
    """Runtime env ensuring Ray workers can import this package even when
    the driver's cwd / sys.path doesn't include the repo root (the package
    is path-imported, not pip-installed).

    Empty when the current job (or, inside a task, the task's own
    runtime env) already puts the repo root on ``PYTHONPATH``: an empty
    env inherits it.  A task-level env that differs from the job's runs
    on its own worker pool, so a session started with
    ``ray.init(runtime_env=runtime_env())`` keeps one pool for its own
    and Ray Data's internal tasks instead of starting and killing
    workers of both kinds in turn."""
    if _inherits_repo_path():
        return {}
    existing = _os.environ.get("PYTHONPATH", "")
    path = REPO_ROOT if not existing else f"{REPO_ROOT}:{existing}"
    return {"env_vars": {"PYTHONPATH": path}}


def _inherits_repo_path() -> bool:
    import ray

    if not ray.is_initialized():
        return False
    env = ray.get_runtime_context().runtime_env or {}
    path = (env.get("env_vars") or {}).get("PYTHONPATH", "")
    return REPO_ROOT in path.split(":")
