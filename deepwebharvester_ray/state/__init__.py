"""Stateful pieces of the crawl engine: frontier, seen-set shards, scheduler."""


def call_shards(shards, method: str, args_by_shard: dict) -> dict:
    """Call ``method`` once on each shard named in ``args_by_shard`` with
    that shard's argument, and return the results by shard index.

    ``shards`` holds either in-process objects (plain calls) or Ray actor
    handles (one RPC per shard, issued together, then gathered) — the one
    routing layer both control-state placements share."""
    bound = {s: getattr(shards[s], method) for s in args_by_shard}
    if not bound or not hasattr(next(iter(bound.values())), "remote"):
        return {s: m(args_by_shard[s]) for s, m in bound.items()}
    import ray

    futs = {s: m.remote(args_by_shard[s]) for s, m in bound.items()}
    return dict(zip(futs, ray.get(list(futs.values()))))
