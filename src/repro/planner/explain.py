"""EXPLAIN — render a physical plan as an annotated tree.

:func:`explain` plans an expression and renders the chosen operators
with their cost estimates; with ``analyze=True`` it also *executes*
the plan and prints observed row counts and timings next to the
estimates, so estimate quality is visible at a glance. Pushed-down
operators render inside their fused scan leaf, in application order::

    Plan  (normalized 3 → 2 nodes, planning 0.1 ms)
    └─ FusedScan[EMP ∩ Lifespan([10, 20]) | τ Lifespan([10, 20])]  (est rows≈34, cost≈122.6)

(``ANALYZE`` runs the recording executor, which materializes at every
node boundary so each operator's rows and milliseconds are its own —
see :mod:`repro.planner.executor`.)

The same renderer backs the HRQL ``EXPLAIN [ANALYZE] <query>``
statement and :meth:`repro.database.database.HistoricalDatabase.explain`.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from repro.algebra import expr as E
from repro.core.lifespan import Lifespan
from repro.core.relation import HistoricalRelation
from repro.planner import plan as P
from repro.planner.executor import execute
from repro.planner.planner import Planner


class PlanExplanation:
    """The result of EXPLAIN: a plan, its rendering, and (optionally)
    the answer computed while measuring actual costs."""

    def __init__(self, plan: P.Plan, analyzed: bool,
                 result: Optional[Union[HistoricalRelation, Lifespan]] = None):
        self.plan = plan
        self.analyzed = analyzed
        #: The query answer, present only after EXPLAIN ANALYZE.
        self.result = result

    @property
    def text(self) -> str:
        """The rendered plan tree."""
        return render_plan(self.plan)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        mode = "analyzed" if self.analyzed else "estimated"
        return f"PlanExplanation({self.plan.root.label()}, {mode})"


class RemoteExplanation:
    """An ``EXPLAIN [ANALYZE]`` answer rendered in another process.

    Only the rendering crosses the wire — the physical plan objects
    stay server-side — so this mirrors just the displayable part of
    :class:`PlanExplanation`.
    """

    def __init__(self, text: str):
        self.text = text

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"RemoteExplanation({self.text.splitlines()[0]!r}...)"


def _node_line(node: P.PhysicalNode) -> str:
    parts = [f"est rows≈{node.est_rows:.1f}", f"cost≈{node.est_cost:.1f}"]
    annotation = f"({', '.join(parts)})"
    if node.actual_rows is not None:
        actual = f"(actual rows={node.actual_rows}"
        if node.actual_ms is not None:
            actual += f", {node.actual_ms:.2f} ms"
        annotation += "  " + actual + ")"
    return f"{node.label()}  {annotation}"


def _render_tree(node: P.PhysicalNode, prefix: str, is_last: bool,
                 lines: list[str]) -> None:
    connector = "└─ " if is_last else "├─ "
    lines.append(prefix + connector + _node_line(node))
    child_prefix = prefix + ("   " if is_last else "│  ")
    kids = node.children()
    for i, child in enumerate(kids):
        _render_tree(child, child_prefix, i == len(kids) - 1, lines)


def render_plan(plan: P.Plan) -> str:
    """Render the whole plan: a header plus the operator tree."""
    before = E.size(plan.logical)
    after = E.size(plan.normalized)
    header = (f"Plan  (normalized {before} → {after} nodes, "
              f"planning {plan.planning_ms:.1f} ms)")
    lines = [header]
    _render_tree(plan.root, "", True, lines)
    return "\n".join(lines)


def explain(expr: E.Expr, env: Mapping[str, object], *, when: bool = False,
            analyze: bool = False) -> PlanExplanation:
    """Plan *expr* (optionally execute it) and package the explanation.

    Parameters
    ----------
    expr:
        The logical algebra expression to explain.
    env:
        Name → relation environment (in-memory or stored).
    when:
        True when the query is a top-level ``WHEN (...)``.
    analyze:
        Execute the plan and record actual rows / times per node.
    """
    return explain_plan(Planner().plan(expr, env, when=when), env, analyze)


def explain_plan(plan: P.Plan, env: Mapping[str, object],
                 analyze: bool = False) -> PlanExplanation:
    """Package an existing *plan*; with *analyze*, execute it and record.

    ``ANALYZE`` stamps actual rows and times onto the nodes it runs, so
    it runs a fresh translation of the plan (:meth:`Planner.replan`),
    never *plan* itself: a plan that other callers hold — a cached one —
    must not start reporting one run's actuals as its estimates.
    """
    if not analyze:
        return PlanExplanation(plan, False)
    fresh = Planner().replan(plan, env)
    return PlanExplanation(fresh, True, execute(fresh.root, env, record=True))
