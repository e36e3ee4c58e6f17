"""Spans around the calls the driver makes into each layer.

The benchmark does not edit the engine: a :class:`Tracer` replaces public
callables (module functions, class methods, ``ray.get``) with wrappers
that record one span per call — name, start, end, parent span, and the
size of the call's batch — and restores the originals on exit.  Spans
stay in memory; :func:`dump` writes them out once the run ends.

Only calls on the main thread are recorded: the crawl loop runs there,
while Ray Data's executor thread makes its own ``ray.get`` calls that are
part of a Dataset execution, not driver waits.
"""
from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple


def _n_first(args, kwargs) -> int:
    """Batch size of a wrapped call: the length of its first argument."""
    if not args:
        return 0
    try:
        return len(args[0])
    except TypeError:
        return 0


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._main = threading.main_thread()

    # -- spans ---------------------------------------------------------------
    def begin(self, name: str, n: int = 0) -> Optional[dict]:
        if threading.current_thread() is not self._main:
            return None
        span = {"id": len(self.spans), "name": name, "n": n,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.monotonic(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: Optional[dict]) -> None:
        if span is None:
            return
        span["end"] = time.monotonic()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A whole-iteration root span."""
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    # -- wrappers ------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             count: Callable = _n_first) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        Plain functions stored on a class are wrapped as functions too, so
        methods keep their ``self`` binding (``args[0]``); the batch size
        then comes from the first argument after ``self``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_method = isinstance(owner, type)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            call_args = args[1:] if is_method else args
            span = tracer.begin(name, count(call_args, kwargs))
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def dump(span_lists, path) -> None:
    """Write the spans of each traced call as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for call, spans in enumerate(span_lists):
            for span in spans:
                fh.write(json.dumps(dict(span, call=call)) + "\n")


def install_engine_wrappers(tracer: Tracer) -> None:
    """Wrap the driver-side entry points of every layer."""
    import ray
    import ray.data

    from deepwebharvester_ray.pipelines import crawl
    from deepwebharvester_ray.state.pqueue import (
        FrontierQueue,
        ShardedFrontierQueue,
    )
    from deepwebharvester_ray.state.seen import SeenSetPool

    none = lambda args, kwargs: 0  # noqa: E731
    tracer.wrap(crawl, "replay_generation", "scheduler.replay")
    tracer.wrap(crawl, "broadcast_frontier_hashes", "urlops.broadcast")
    tracer.wrap(SeenSetPool, "contains", "seen.contains")
    tracer.wrap(SeenSetPool, "insert", "seen.insert")
    tracer.wrap(FrontierQueue, "push", "pqueue.push")
    tracer.wrap(FrontierQueue, "pop_budget", "pqueue.pop", none)
    tracer.wrap(FrontierQueue, "snapshot_parquet", "pqueue.snapshot", none)
    tracer.wrap(ShardedFrontierQueue, "push", "pqueue.push")
    tracer.wrap(ShardedFrontierQueue, "commit_staged", "pqueue.commit_staged",
                none)
    tracer.wrap(ShardedFrontierQueue, "pop_budget_refs", "pqueue.pop", none)
    tracer.wrap(ShardedFrontierQueue, "snapshot_parquet", "pqueue.snapshot",
                none)
    tracer.wrap(ray.data.Dataset, "materialize", "raydata.exec", none)
    tracer.wrap(ray.data.Dataset, "take_all", "raydata.exec", none)
    tracer.wrap(ray.data.Dataset, "write_parquet", "raydata.write", none)
    tracer.wrap(ray, "get", "ray.get", none)


# -- span arithmetic ----------------------------------------------------------


def _ancestors(spans: List[dict], span: dict):
    p = span["parent"]
    while p is not None:
        yield spans[p]
        p = spans[p]["parent"]


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def top_level(spans: List[dict], prefix: str) -> List[dict]:
    """Spans named ``prefix*`` with no ``prefix*`` ancestor."""
    return [s for s in spans if s["name"].startswith(prefix)
            and not any(a["name"].startswith(prefix)
                        for a in _ancestors(spans, s))]


def span_metrics(spans: List[dict]) -> Dict[str, float]:
    """Per-layer counts and times from one traced iteration's spans."""
    def total(name: str) -> Tuple[int, int, float]:
        hits = top_level(spans, name)
        return (len(hits), sum(s["n"] for s in hits),
                sum(_dur(s) for s in hits))

    execs = top_level(spans, "raydata.")
    writes = [s for s in execs if s["name"] == "raydata.write"]
    roots = [s for s in spans if s["parent"] is None]
    root_ids = {s["id"] for s in roots}
    # driver waits: ray.get directly under the iteration root — not inside
    # a Dataset execution or another layer's call (those are that layer's)
    gets = [s for s in spans if s["name"] == "ray.get"
            and s["parent"] in root_ids]
    c_calls, c_keys, c_s = total("seen.contains")
    i_calls, i_keys, i_s = total("seen.insert")
    _, push_n, push_s = total("pqueue.push")
    r_calls, r_cands, r_s = total("scheduler.replay")
    out = {
        "raydata.execs": len(execs),
        "raydata.exec_s": sum(_dur(s) for s in execs),
        "raydata.write_s": sum(_dur(s) for s in writes),
        "driver.ray_get_calls": len(gets),
        "driver.ray_get_self_s": sum(_dur(s) for s in gets),
        "seen.contains_calls": c_calls,
        "seen.contains_keys": c_keys,
        "seen.contains_s": c_s,
        "seen.insert_keys": i_keys,
        "seen.insert_s": i_s,
        "seen.calls": c_calls + i_calls,
        "pqueue.push_entries": push_n,
        "pqueue.push_s": push_s,
        "pqueue.pop_s": total("pqueue.pop")[2],
        "pqueue.commit_staged_s": total("pqueue.commit_staged")[2],
        "pqueue.snapshot_s": total("pqueue.snapshot")[2],
        "scheduler.replay_calls": r_calls,
        "scheduler.replay_candidates": r_cands,
        "scheduler.replay_s": r_s,
    }
    return out
