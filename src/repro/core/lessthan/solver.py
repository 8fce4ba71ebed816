"""The worklist constraint solver (Section 3.4 of the paper).

Every constrained variable starts at the top of the lattice P(V) (the set of
all program variables — represented lazily by the ``TOP`` marker so that we
never materialise the full set).  Constraints are then re-evaluated until a
fixed point; by Lemma 3.6 of the paper the sets only shrink, so termination
is guaranteed by the finiteness of the lattice.

The worklist holds whole constraints: a seed pass queues every constraint
once, and whenever a constraint shrinks the LT set of its target, every
constraint that reads that variable is queued again (a constraint already
pending is not queued twice).  The descending chaotic iteration of this
monotone system converges to one fixed point regardless of evaluation
order.

The solver records the statistics the paper reports in Section 4.2: number
of constraints, number of constraint (re-)evaluations, and the
visits-per-constraint ratio (the paper measures about 2.1 visits per
constraint over SPEC plus the LLVM test suite, which is the observation
backing the "linear in practice" claim).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence

from repro.core.lessthan.constraints import Constraint, LTState, TOP
from repro.ir.values import Value
from repro.obs import TRACER
from repro.util.worklist import SolverInfo, Worklist


class SolverStatistics:
    """Counters describing one constraint-solving run.

    ``worklist_pops`` counts constraint evaluations (the paper's "visits per
    constraint" metric).
    """

    def __init__(self) -> None:
        self.constraint_count = 0
        self.variable_count = 0
        self.worklist_pops = 0
        self.solve_time_seconds = 0.0

    def solver_info(self) -> SolverInfo:
        """These counters as a mergeable cross-solver :class:`SolverInfo`.

        Every pop is one constraint evaluation (there is no widening on the
        finite LT lattice).
        """
        return SolverInfo(evaluations=self.worklist_pops,
                          pops=self.worklist_pops)

    @property
    def pops_per_constraint(self) -> float:
        if self.constraint_count == 0:
            return 0.0
        return self.worklist_pops / self.constraint_count

    def as_dict(self) -> Dict[str, float]:
        return {
            "constraints": self.constraint_count,
            "variables": self.variable_count,
            "worklist_pops": self.worklist_pops,
            "pops_per_constraint": self.pops_per_constraint,
            "solve_time_seconds": self.solve_time_seconds,
        }

    def __repr__(self) -> str:
        return "<SolverStatistics constraints={} pops={} ({:.2f}/constraint)>".format(
            self.constraint_count, self.worklist_pops, self.pops_per_constraint)


class ConstraintSolver:
    """Solves a system of less-than constraints to a fixed point."""

    def __init__(self, constraints: Sequence[Constraint]) -> None:
        self.constraints: List[Constraint] = list(constraints)
        self.statistics = SolverStatistics()
        # Dependency map: which constraints must be re-evaluated when the LT
        # set of a given variable changes.
        self._dependents: Dict[Value, List[Constraint]] = {}
        for constraint in self.constraints:
            for source in constraint.sources():
                self._dependents.setdefault(source, []).append(constraint)

    def solve(self) -> Dict[Value, FrozenSet[Value]]:
        """Run the fixed-point iteration and return the final LT sets."""
        state: LTState = {}
        with TRACER.timer("lt.solve",
                          constraints=len(self.constraints)) as timer:
            for constraint in self.constraints:
                state[constraint.target] = TOP
            self._iterate(state)
        self.statistics.constraint_count = len(self.constraints)
        self.statistics.variable_count = len(state)
        self.statistics.solve_time_seconds = timer.seconds
        # Any variable still at TOP belongs to a degenerate cycle never fed by
        # a concrete definition (only possible in unreachable code); report it
        # as the empty set so that no unsound ordering is ever claimed.
        result: Dict[Value, FrozenSet[Value]] = {}
        for value, lt_set in state.items():
            result[value] = frozenset() if lt_set is TOP else lt_set  # type: ignore[assignment]
        return result

    def _iterate(self, state: LTState) -> None:
        """Re-evaluate queued constraints until no LT set shrinks."""
        worklist: Worklist[Constraint] = Worklist(self.constraints)
        while worklist:
            constraint = worklist.pop()
            evaluated = constraint.evaluate(state)
            current = state.get(constraint.target, TOP)
            updated = self._meet(current, evaluated)
            if updated != current:
                state[constraint.target] = updated
                for dependent in self._dependents.get(constraint.target, []):
                    worklist.push(dependent)
        self.statistics.worklist_pops = worklist.pops

    @staticmethod
    def _meet(current: object, evaluated: object) -> object:
        """Greatest lower bound of the current and the freshly evaluated set.

        Taking the meet (instead of overwriting) guarantees the monotonically
        decreasing behaviour that the termination proof of the paper relies
        on, independently of the evaluation order of the worklist.
        """
        if current is TOP:
            return evaluated
        if evaluated is TOP:
            return current
        return current & evaluated  # type: ignore[operator]
