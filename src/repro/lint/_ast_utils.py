"""Small AST helpers shared by the rule implementations."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

__all__ = [
    "arg_nodes",
    "call_name",
    "dotted_name",
    "root_name",
    "walk_functions",
]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call's callee (``np.random.default_rng``)."""
    return dotted_name(node.func)


def root_name(node: ast.AST) -> Optional[str]:
    """Base identifier of a Name/Attribute/Subscript chain.

    ``graph.members[3:5]`` -> ``graph``; used for taint roots.
    """
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def arg_nodes(call: ast.Call) -> Iterator[ast.AST]:
    """Every argument expression of a call (positional + keyword)."""
    yield from call.args
    for kw in call.keywords:
        yield kw.value


def walk_functions(tree: ast.Module) -> Iterator[ast.AST]:
    """All function definitions (sync and async), at any nesting depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
