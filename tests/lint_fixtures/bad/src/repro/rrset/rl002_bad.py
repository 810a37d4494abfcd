"""RL002 fixture: every ctx-threading violation class."""

import os


def spread_with_knob(graph, k, backend="sequential", seed=None):
    # line 7-9: working backend kwarg + raw comparison + env re-read
    if backend != "sequential":
        batched = True
    else:
        batched = False
    fallback = os.environ.get("REPRO_RR_BACKEND", "batched")
    from repro.engine.context import resolve_backend

    resolved = resolve_backend(None)
    return batched, fallback, resolved, seed


def silently_ignored(graph, backend=None):
    # 'backend' accepted but never read: a no-op execution-state kwarg.
    return graph


def spread(graph, k, ctx=None, backend=None, seed=None):
    # Tombstone: kwargs kept only to be rejected.  Python already rejects
    # an undeclared keyword, so a shim like this is dead weight.
    from repro.engine import ensure_context

    ctx = ensure_context(ctx, backend=backend, seed=seed, caller="spread")
    return graph, k, ctx
