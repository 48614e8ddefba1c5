"""RL004 — degraded results must never enter the stage cache.

The resilience layer (PR 1) degrades rather than fails: a failed
acceleration structure falls back to a brute-force scan and records
the event on a :class:`DegradationReport`.  The staged pipeline (PR 2)
then promises that such tainted outputs are **never cached** — a
degraded answer is acceptable once, but serving it from the warm path
to every future query (and every other session) silently converts one
transient fault into permanent wrong-ish results.

Two syntactic shapes are flagged:

1. a ``*cache*.put(...)`` whose arguments reference a
   :class:`DegradationReport` (or a value copied from one);
2. a ``*cache*.put(...)`` reached under a *positive* taint guard
   (``if degraded: cache.put(...)``) — the exact inversion of the
   required ``if not degraded`` gate.
"""

from __future__ import annotations

import ast
from typing import Any

from repro.tools.reprolint.base import (
    Checker,
    call_name,
    dotted_name,
    iter_functions,
    names_read,
    register,
)

__all__ = ["DegradationTaintChecker"]


def _is_cache_put(call: ast.Call) -> bool:
    parts = call_name(call).split(".")
    return len(parts) >= 2 and parts[-1] == "put" and parts[-2].endswith("cache")


def _flag_parity(test: ast.expr, flags: set[str]) -> set[str]:
    """Taint-flag names appearing in ``test`` under an even number of
    ``not`` operators (i.e. tested *positively*)."""
    positive: set[str] = set()

    def walk(node: ast.AST, negated: bool) -> None:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            walk(node.operand, not negated)
            return
        if isinstance(node, ast.Name) and node.id in flags and not negated:
            positive.add(node.id)
        for child in ast.iter_child_nodes(node):
            walk(child, negated)

    walk(test, False)
    return positive


@register
class DegradationTaintChecker(Checker):
    rule = "RL004"
    summary = (
        "DegradationReports / degraded outputs must never flow into "
        "StageCache.put — a tainted result cached once poisons every "
        "future hit"
    )
    default_options: dict[str, Any] = {
        "taint_classes": ("DegradationReport",),
        "taint_flags": ("degraded", "tainted", "dep_tainted", "is_degraded"),
    }

    def check(self, tree: ast.AST) -> list:
        """Check every function for tainted flows into cache.put."""
        for fn, _cls in iter_functions(tree):
            self._check_function(fn)
        return self.findings

    def _tainted_names(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        taint_classes = set(self.options["taint_classes"])
        tainted: set[str] = set()
        args = list(fn.args.args) + list(fn.args.kwonlyargs) + list(fn.args.posonlyargs)
        for arg in args:
            if arg.annotation is not None:
                # alias-resolved: `import …resilience as r` + `r.DegradationReport`
                # and `… import DegradationReport as DR` both canonicalize
                ann = self.resolve(dotted_name(arg.annotation)).split(".")[-1]
                if ann in taint_classes:
                    tainted.add(arg.arg)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            source_tainted = False
            if isinstance(value, ast.Call):
                if self.resolved_call_name(value).split(".")[-1] in taint_classes:
                    source_tainted = True
            elif isinstance(value, (ast.Name, ast.Attribute)):
                # direct aliasing only: `x = report` / `x = report.events`;
                # arbitrary call results are NOT propagated (a function
                # that merely receives the report is not itself tainted)
                root = dotted_name(value).split(".")[0]
                if root in tainted:
                    source_tainted = True
            if source_tainted:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
        return tainted

    def _check_function(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        tainted = self._tainted_names(fn)
        flags = set(self.options["taint_flags"])

        def walk(stmts: list[ast.stmt], guards: set[str]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(stmt, ast.If):
                    positive = _flag_parity(stmt.test, flags)
                    self._scan_expr(stmt.test, tainted, guards)
                    walk(stmt.body, guards | positive)
                    walk(stmt.orelse, guards)
                    continue
                # scan only this statement's own expressions; nested
                # blocks recurse below so guard context stays correct
                for field_name, value in ast.iter_fields(stmt):
                    if field_name in ("body", "orelse", "finalbody", "handlers"):
                        continue
                    for expr in _exprs(value):
                        self._scan_expr(expr, tainted, guards)
                for block in ("body", "orelse", "finalbody"):
                    inner = getattr(stmt, block, None)
                    if inner:
                        walk(inner, guards)
                for handler in getattr(stmt, "handlers", []) or []:
                    walk(handler.body, guards)

        walk(fn.body, set())

    def _scan_expr(
        self, expr: ast.AST, tainted: set[str], guards: set[str]
    ) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call) and _is_cache_put(node):
                self._check_put(node, tainted, guards)

    def _check_put(
        self, call: ast.Call, tainted: set[str], guards: set[str]
    ) -> None:
        refs = set()
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            refs |= names_read(arg)
        hit = refs & tainted
        if hit:
            self.add(
                call,
                f"cache.put() argument references degradation state "
                f"{sorted(hit)!r}: tainted values must never enter the stage "
                "cache — gate the insertion on `not degraded`",
            )
        elif guards:
            self.add(
                call,
                f"cache.put() reached under positive taint guard "
                f"{sorted(guards)!r}: this caches exactly the degraded "
                "outputs the ladder promises never to cache — invert the "
                "guard",
            )


def _exprs(value: Any) -> list[ast.AST]:
    """Expression nodes inside one statement field (list or single)."""
    if isinstance(value, ast.AST):
        return [value]
    if isinstance(value, list):
        return [v for v in value if isinstance(v, ast.AST)]
    return []
