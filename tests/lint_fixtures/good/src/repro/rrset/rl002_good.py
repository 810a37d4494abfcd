"""RL002 fixture: ctx-threading patterns that must lint clean."""

from repro.engine import EngineContext, ensure_context, is_batched


def spread(graph, k, ctx=None, rng=None):
    # Execution state arrives as ctx= (or a plain rng= riding into one).
    ctx = ensure_context(ctx, rng=rng, caller="spread")
    if ctx.is_batched:
        return _batched(graph, k, ctx)
    return _sequential(graph, k, ctx)


def legacy_constructor(graph, backend=None):
    ctx = EngineContext.create(backend=backend)
    return graph, ctx


def capability(backend):
    return is_batched(backend)


def _batched(graph, k, ctx):
    return graph, k, ctx


def _sequential(graph, k, ctx):
    return graph, k, ctx
