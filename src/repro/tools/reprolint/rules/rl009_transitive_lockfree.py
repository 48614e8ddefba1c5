"""RL009 — declared-lock-free methods stay lock-free *transitively*.

PR 7 removed the service lock from the query path and RL003 enforces
that the declared methods (`DatasetService.active_epoch`/`_pin_active`,
`SessionView.run_query`) acquire no lock **in their own bodies**.  This
rule closes the remaining hole: a helper three calls deep can acquire a
lock, sleep, fsync, create/unlink shared memory, or republish
``_active`` — and a per-file check will never see it.

RL009 walks the conservative call graph from every declared root and
flags any reachable operation of those kinds, rendering the offending
call chain (file:line per hop) in the finding.  Findings land at the
root method's definition site: the *declaration* is what the chain
violates.

The ``allowed`` option lists reviewed exceptions by qualname/module
prefix — by-design bounded primitives whose rationale lives in
DESIGN.md §14 (the stage cache's one micro-mutex, the guarded obs facade,
the session-private journal append).  Chains are pruned at an allowed
callee: nothing it reaches is attributed to the root.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.tools.reprolint.base import ProgramChecker, register
from repro.tools.reprolint.model import ChainHop, Finding

if TYPE_CHECKING:  # pragma: no cover
    from repro.tools.reprolint.program.analysis import ProgramAnalysis
    from repro.tools.reprolint.program.callgraph import Edge

_OP_WHAT = {
    "lock": "acquires a lock",
    "blocking": "makes a blocking call",
    "shm-create": "creates shared memory",
    "shm-unlink": "unlinks shared memory",
    "active-write": "mutates the published `_active` snapshot",
}


@register
class TransitiveLockFreeChecker(ProgramChecker):
    rule = "RL009"
    summary = (
        "declared-lock-free query-path methods must not transitively "
        "reach lock acquisition, blocking I/O, shm lifecycle ops, or "
        "`_active` mutation"
    )
    default_options = {
        # class name → methods declared lock-free (mirrors RL003's
        # lockfree_methods plus the engine query path the service pins
        # snapshots for)
        "roots": {
            "DatasetService": ("active_epoch", "_pin_active"),
            "SessionView": ("run_query",),
            "SharedQueryEngine": ("query", "query_all_colors"),
            "EpochSnapshot": ("try_pin", "unpin"),
        },
        # reviewed exceptions, matched by qualname prefix after the
        # module segment — see DESIGN.md §14 for each rationale
        "allowed": (
            "repro.obs",
            "repro.core.plan.cache",
            "repro.core.session.SessionJournal.append",
        ),
    }

    def _is_allowed(self, qualname: str) -> bool:
        for prefix in self.options["allowed"]:
            if qualname == prefix or qualname.startswith(prefix + "."):
                return True
        return False

    def check_program(self, analysis: "ProgramAnalysis") -> list[Finding]:
        """BFS each declared lock-free root through the call graph and
        report the first forbidden op on each path, chain attached."""
        roots = analysis.resolve_roots(self.options["roots"])
        for root_qual, root_fn in sorted(roots.items()):
            if self.rule in root_fn.exempt or self._is_allowed(root_qual):
                continue
            self._check_root(analysis, root_qual, root_fn)
        return self.findings

    def _check_root(self, analysis, root_qual: str, root_fn) -> None:
        # BFS with chain reconstruction, pruned at allowed callees
        paths: dict[str, list["Edge"]] = {root_qual: []}
        queue = [root_qual]
        reported: set[tuple[str, int]] = set()
        while queue:
            cur = queue.pop(0)
            fn = analysis.project.function_index.get(cur)
            if fn is None:
                continue
            if self.rule not in fn.exempt:
                for op in analysis.ops_of(fn):
                    key = (op.path, op.line)
                    if key in reported:
                        continue
                    reported.add(key)
                    self._report(root_fn, paths[cur], fn, op)
            for edge in analysis.graph.callees(cur):
                if edge.callee in paths:
                    continue
                if self._is_allowed(edge.callee):
                    continue
                callee_fn = analysis.project.function_index.get(edge.callee)
                if callee_fn is not None and self.rule in callee_fn.exempt:
                    continue
                paths[edge.callee] = paths[cur] + [edge]
                queue.append(edge.callee)

    def _report(self, root_fn, edges: list["Edge"], op_fn, op) -> None:
        chain = [
            ChainHop(
                path=root_fn.path,
                line=root_fn.lineno,
                note=f"declared lock-free: {root_fn.qualname}",
            )
        ]
        for edge in edges:
            chain.append(
                ChainHop(
                    path=edge.site.path,
                    line=edge.site.line,
                    note=(
                        f"calls {edge.callee}"
                        + (" (receiver-heuristic)" if edge.heuristic else "")
                    ),
                )
            )
        chain.append(
            ChainHop(
                path=op.path,
                line=op.line,
                note=f"{_OP_WHAT[op.kind]}: {op.detail}",
            )
        )
        hops = " -> ".join(
            h.note.split(": ", 1)[-1] for h in chain[1:-1]
        )
        via = f" via {hops}" if hops else ""
        self.add_at(
            root_fn.path,
            root_fn.lineno,
            f"lock-free method {root_fn.qualname} transitively "
            f"{_OP_WHAT[op.kind]} at {op.path}:{op.line}{via}; move the "
            f"operation off the query path, or allowlist it with a "
            f"reviewed rationale in DESIGN.md §14",
            chain=tuple(chain),
        )
