"""Exact solver for the binary reconciliation program.

solve() hands the whole program to the HiGHS MIP solver through
scipy.optimize.milp.  The relative gap is set to 0, so a solution reported as
proven optimal is exact (up to HiGHS's absolute gap of 1e-6, which milp does
not expose).  HiGHS enforces the time limit inside the solve.  Among equal
optima the one returned is HiGHS's choice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import Infeasible
from .model import N_LABELS, BinaryProgram
from .relations import RelType

FEAS_TOL = 1e-7
OBJ_TOL = 1e-9


@dataclass
class SolverStats:
    """Effort of one solve; solve() leaves lp_iterations 0 (milp omits it)."""

    nodes_explored: int = 0
    lp_iterations: int = 0
    wall_time: float = 0.0
    rows: int = 0
    cols: int = 0


@dataclass
class Solution:
    assignment: Dict[int, RelType]  # arc index -> label
    objective_value: float
    proven_optimal: bool
    stats: SolverStats = field(default_factory=SolverStats)


def _objective_of(program: BinaryProgram, chosen: Sequence[int]) -> float:
    return float(program.objective[list(chosen)].sum()) if len(chosen) else 0.0


def _assignment_from_vars(chosen: Sequence[int]) -> Dict[int, RelType]:
    assignment = {}
    for v in chosen:
        assignment[v // N_LABELS] = RelType(v % N_LABELS + 1)
    return assignment


def solve(program: BinaryProgram, time_limit: float = 300.0) -> Solution:
    """Optimal solution (proven_optimal=True) or best incumbent on timeout.

    Raises Infeasible when no feasible assignment exists (possible only for
    hand-built programs or strict mode), and RuntimeError when the time limit
    passes before any incumbent is found or HiGHS fails.
    """
    if time_limit <= 0:
        raise ValueError("time_limit must be positive")
    t0 = time.monotonic()
    stats = SolverStats(rows=program.num_rows, cols=program.num_vars)
    if program.num_vars == 0:
        stats.wall_time = time.monotonic() - t0
        return Solution({}, 0.0, True, stats)

    constraints = [LinearConstraint(program.a_eq, 1, 1)]
    if program.a_ub.shape[0]:
        constraints.append(LinearConstraint(program.a_ub, -np.inf, 1))
    res = milp(-program.objective, integrality=1, bounds=Bounds(0, 1),
               constraints=constraints,
               options={"mip_rel_gap": 0.0, "time_limit": time_limit})
    stats.nodes_explored = res.mip_node_count
    stats.wall_time = time.monotonic() - t0
    if res.status == 2:
        raise Infeasible("no feasible assignment exists")
    if res.status == 1 and res.x is None:
        raise RuntimeError("time limit reached before any incumbent was found")
    if res.status not in (0, 1):
        raise RuntimeError(f"MIP solve failed: {res.message}")
    chosen = np.flatnonzero(res.x > 0.5).tolist()
    return Solution(
        assignment=_assignment_from_vars(chosen),
        objective_value=_objective_of(program, chosen),
        proven_optimal=res.status == 0,
        stats=stats,
    )


def violations(program: BinaryProgram, solution: Solution) -> List[str]:
    """Human-readable list of violated rows / objective mismatches."""
    x = np.zeros(program.num_vars)
    for arc, rel in solution.assignment.items():
        x[arc * N_LABELS + rel.value - 1] = 1.0
    problems = []
    totals = program.a_eq @ x
    for i in np.flatnonzero(np.abs(totals - 1.0) > FEAS_TOL):
        problems.append(
            f"partition row p{i} sums to {totals[i]:g}, expected 1")
    lhs = program.a_ub @ x
    for i in np.flatnonzero(lhs > 1.0 + FEAS_TOL):
        problems.append(
            f"triangle row {program.row_name(i)} violated: lhs {lhs[i]:g} > 1")
    recomputed = float(program.objective @ x)
    if abs(recomputed - solution.objective_value) > OBJ_TOL:
        problems.append(
            f"objective mismatch: stored {solution.objective_value!r}, "
            f"recomputed {recomputed!r}"
        )
    return problems


def verify(program: BinaryProgram, solution: Solution) -> bool:
    """True iff all rows hold and the stored objective matches recomputation."""
    return not violations(program, solution)
