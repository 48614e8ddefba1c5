"""RL010 — values from different epoch pins never meet in one operation.

PR 7/8 made every query run against one immutable :class:`EpochSnapshot`
(dataset + pyramid + engine pinned together).  Correctness depends on
*provenance*: rows gathered through one snapshot's pyramid must never be
combined with masks, indexes, or tables resolved from a different pin —
across a rollover those describe different physical arenas, and mixing
them yields silently-wrong answers (the exact bug class the mid-rollover
chaos test hunts dynamically).

This rule checks it statically: taint tags are seeded at snapshot
resolution sites (``_pin_active()``, ``arena.attach()``,
``from_handle()``), propagated through assignments, attribute loads,
calls, and returns (per-function summaries make the flow
interprocedural), and a finding fires wherever one operation sees two
or more distinct tags.  ``.epoch`` attribute loads strip taint — the
epoch *number* is identity, and comparing it is the legitimate
staleness probe — and comparisons never mix.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.tools.reprolint.base import ProgramChecker, register
from repro.tools.reprolint.model import ChainHop, Finding
from repro.tools.reprolint.program.dataflow import Tag, TaintAnalysis

if TYPE_CHECKING:  # pragma: no cover
    from repro.tools.reprolint.program.analysis import ProgramAnalysis


def _call_dotted(call: ast.Call) -> str | None:
    parts: list[str] = []
    cur: ast.AST = call.func
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


@register
class EpochProvenanceChecker(ProgramChecker):
    rule = "RL010"
    summary = (
        "values derived from different EpochSnapshot/StoreClient pins "
        "must not flow into one operation together"
    )
    default_options = {
        # method names / canonical callables that resolve a snapshot
        "seed_methods": ("_pin_active", "from_handle"),
        "seed_calls": ("repro.store.arena.attach",),
        # identity attributes whose loads strip taint
        "strip_attrs": ("epoch",),
    }

    def check_program(self, analysis: "ProgramAnalysis") -> list[Finding]:
        """Tag every snapshot pin site and report operations where two
        distinct pins' values meet, both origins in the chain."""
        seed_methods = tuple(self.options["seed_methods"])
        seed_calls = tuple(self.options["seed_calls"])
        counter = [0]

        def seed_for_call(call: ast.Call, scope) -> Tag | None:
            dotted = _call_dotted(call)
            if dotted is None:
                return None
            canonical = scope.mod.resolve(dotted)
            last = canonical.rsplit(".", 1)[-1]
            if last in seed_methods or canonical in seed_calls:
                counter[0] += 1
                return Tag(
                    ident=f"pin#{counter[0]}",
                    path=scope.fn.path,
                    line=call.lineno,
                    note=f"snapshot pinned via {dotted}()",
                )
            return None

        taint = TaintAnalysis(
            analysis.project,
            seed_for_call=seed_for_call,
            strip_attrs=tuple(self.options["strip_attrs"]),
        )
        for mix in taint.run():
            real = [t for t in mix.tags if t.ident.startswith("pin#")]
            if len(real) < 2:
                # mixes of synthetic param tags surface via summaries
                # at a call site with real tags; alone they are noise
                continue
            chain: list[ChainHop] = []
            for tag in sorted(real, key=lambda t: (t.path, t.line)):
                hops = mix.tags[tag] or (ChainHop(tag.path, tag.line, tag.note),)
                chain.extend(ChainHop(h.path, h.line, h.note) for h in hops)
            chain.append(ChainHop(mix.path, mix.line, f"mixed here: {mix.note}"))
            origins = " and ".join(
                f"{t.path}:{t.line}" for t in sorted(
                    real, key=lambda t: (t.path, t.line)
                )
            )
            self.add_at(
                mix.path,
                mix.line,
                f"operation mixes values pinned from different epoch "
                f"snapshots (pins at {origins}); resolve everything the "
                f"operation needs from one pinned snapshot, or rebind "
                f"before combining",
                chain=tuple(chain),
            )
        self.findings.sort()
        return self.findings
