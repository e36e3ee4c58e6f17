"""The benchmark's tracer wraps engine methods by name from each class's
own ``__dict__``; a refactor that moves or drops one of them must fail
here, not only in a traced benchmark run.  No Ray session is needed."""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_uninstalls_engine_wrappers():
    import ray

    from deepwebharvester_ray.pipelines.crawl_plane import CrawlShard
    from deepwebharvester_ray.state.pqueue import FrontierQueue
    from deepwebharvester_ray.state.seen import SeenSetPool

    tracing = _tracing()
    before = (dict(vars(FrontierQueue)), dict(vars(SeenSetPool)), ray.get)
    tracer = tracing.Tracer()
    tracing.install_engine_wrappers(tracer)
    try:
        assert FrontierQueue.push is not before[0]["push"]
        assert SeenSetPool.contains is not before[1]["contains"]
        # the in-process placement's shard reaches the wrapped methods
        shard = CrawlShard()
        with tracer.root("call"):
            shard.push([(0, 0, "http://a.onion/"), (1, 0, "http://b.onion/")])
            assert len(shard.pop_budget(None)) == 2
    finally:
        tracer.uninstall()
    assert dict(vars(FrontierQueue)) == before[0]
    assert dict(vars(SeenSetPool)) == before[1]
    assert ray.get is before[2]
    assert [s["name"] for s in tracer.spans] == [
        "call", "pqueue.push", "pqueue.pop"]
    assert tracer.spans[1]["n"] == 2
