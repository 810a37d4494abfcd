"""RL002 — ctx-threading: execution state flows through EngineContext.

The EngineContext migration (DESIGN.md §5) made ``ctx=`` the one spelling
of backend/seed/triggering state.  This rule keeps it that way:

* **params** — functions under ``rrset/``, ``diffusion/``, ``baselines/``
  and ``store/`` may not (re)introduce working ``backend=`` / ``seed=``
  keywords.  A parameter with those names is allowed only as an engine
  hand-off: every read of it must be an argument to
  ``EngineContext.create``, ``is_batched`` or ``SeedSequence``.  A
  parameter kept only to be rejected is flagged too — Python already
  rejects a keyword the signature does not declare.
* **resolution** — no call to ``resolve_backend`` and no read/write of
  ``os.environ["REPRO_RR_BACKEND"]`` outside ``repro.engine``: backend
  resolution happens exactly once, at context construction.
* **capability checks** — raw ``backend != "sequential"`` string
  comparisons must go through ``EngineContext.is_batched`` (or the
  module-level ``repro.engine.is_batched`` for bare backend names).
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.lint._ast_utils import (
    arg_nodes,
    call_name,
    walk_functions,
)
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import LintFile, Rule, rule

_CTX_DIRS = (
    "src/repro/rrset/",
    "src/repro/diffusion/",
    "src/repro/baselines/",
    "src/repro/store/",
)

#: Callees a backend=/seed= parameter may legitimately flow into: the
#: engine's context constructor and capability helpers.
_ALLOWED_SINKS = {
    "create",  # EngineContext.create
    "is_batched",
    "SeedSequence",  # np.random.SeedSequence lineage roots
}

_BACKEND_ENV_NAME = "REPRO_RR_BACKEND"


def _in_engine(rel_path: str) -> bool:
    return rel_path.startswith("src/repro/engine/")


@rule
class CtxThreadingRule(Rule):
    rule_id = "RL002"
    title = "backend/seed state must thread through EngineContext"

    def scope(self, rel_path: str) -> bool:
        return rel_path.startswith("src/repro/") and not _in_engine(rel_path)

    def check(self, file: LintFile) -> Iterable[Diagnostic]:
        in_ctx_dirs = file.rel_path.startswith(_CTX_DIRS)
        if in_ctx_dirs:
            yield from self._check_params(file)
            yield from self._check_sequential_compares(file)
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Call):
                name = call_name(node) or ""
                if name.rsplit(".", maxsplit=1)[-1] == "resolve_backend":
                    yield file.diagnostic(
                        self.rule_id,
                        node,
                        "resolve_backend() outside repro.engine re-reads "
                        "$REPRO_RR_BACKEND after context construction; "
                        "build an EngineContext and use ctx.backend",
                    )
            yield from self._check_environ(file, node)

    # ------------------------------------------------------------------
    # (a) backend=/seed= parameters
    # ------------------------------------------------------------------
    def _check_params(self, file: LintFile) -> Iterable[Diagnostic]:
        for func in walk_functions(file.tree):
            args = func.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            for param in params:
                if param.arg not in ("backend", "seed"):
                    continue
                bad = self._disallowed_loads(file, func, param.arg)
                if bad is None:
                    yield file.diagnostic(
                        self.rule_id,
                        param,
                        f"{func.name}() accepts {param.arg}= but never "
                        "routes it through the engine — a silently "
                        "ignored execution-state kwarg",
                    )
                elif bad:
                    yield file.diagnostic(
                        self.rule_id,
                        param,
                        f"{func.name}() reintroduces a working "
                        f"{param.arg}= kwarg (read at line "
                        f"{bad[0].lineno}); execution state must arrive "
                        "as ctx= and resolve via EngineContext",
                    )

    def _disallowed_loads(
        self, file: LintFile, func: ast.AST, name: str
    ) -> "List[ast.Name] | None":
        """Loads of ``name`` in ``func`` that bypass the engine.

        Returns ``None`` when the parameter is never read at all (its own
        kind of violation), else the list of offending Name loads.
        """
        loads = [
            node
            for node in ast.walk(func)
            if isinstance(node, ast.Name)
            and node.id == name
            and isinstance(node.ctx, ast.Load)
        ]
        if not loads:
            return None
        return [load for load in loads if not self._load_allowed(file, load)]

    def _load_allowed(self, file: LintFile, load: ast.Name) -> bool:
        for ancestor in file.ancestors(load):
            if isinstance(ancestor, ast.Call):
                callee = (call_name(ancestor) or "").rsplit(".", maxsplit=1)[-1]
                if callee in _ALLOWED_SINKS and any(
                    load is arg or load in ast.walk(arg)
                    for arg in arg_nodes(ancestor)
                ):
                    return True
        return False

    # ------------------------------------------------------------------
    # (c) $REPRO_RR_BACKEND access
    # ------------------------------------------------------------------
    def _check_environ(self, file: LintFile, node: ast.AST) -> Iterable[Diagnostic]:
        def is_backend_key(expr: ast.AST) -> bool:
            if isinstance(expr, ast.Constant):
                return expr.value == _BACKEND_ENV_NAME
            return isinstance(expr, ast.Name) and expr.id == "BACKEND_ENV"

        if isinstance(node, ast.Subscript):
            target = call_name_like(node.value)
            if target in ("os.environ", "environ") and is_backend_key(node.slice):
                yield file.diagnostic(
                    self.rule_id,
                    node,
                    "os.environ[$REPRO_RR_BACKEND] outside repro.engine; "
                    "the environment is read exactly once, at "
                    "EngineContext construction",
                )
        elif isinstance(node, ast.Call):
            name = call_name(node) or ""
            if name in (
                "os.environ.get",
                "environ.get",
                "os.environ.pop",
                "environ.pop",
                "os.environ.setdefault",
                "environ.setdefault",
                "os.getenv",
                "getenv",
            ) and any(is_backend_key(arg) for arg in node.args[:1]):
                yield file.diagnostic(
                    self.rule_id,
                    node,
                    "os.environ access to $REPRO_RR_BACKEND outside "
                    "repro.engine; the environment is read exactly once, "
                    "at EngineContext construction",
                )

    # ------------------------------------------------------------------
    # (d) raw backend string comparisons
    # ------------------------------------------------------------------
    def _check_sequential_compares(self, file: LintFile) -> Iterable[Diagnostic]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left] + list(node.comparators)
            if any(
                isinstance(op, ast.Constant) and op.value == "sequential"
                for op in operands
            ):
                yield file.diagnostic(
                    self.rule_id,
                    node,
                    'raw backend == "sequential" comparison; use '
                    "ctx.is_batched / repro.engine.is_batched so "
                    "capability checks have one definition",
                )


def call_name_like(node: ast.AST) -> str:
    """Dotted rendering of a Name/Attribute chain ('' when neither)."""
    from repro.lint._ast_utils import dotted_name

    return dotted_name(node) or ""
