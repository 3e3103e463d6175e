"""Exact solver for the binary reconciliation program.

solve() separates the triangle rows lazily (cutting-plane inference).  Round 1
keeps only the partition rows, whose optimum is each arc's highest-weighted
label; among equal weights it takes the lowest ordinal, and no MIP solver is
called.  Each later round finds the triangle rows the current answer violates
(one product with a_ub), activates every triangle that owns one, and re-solves
with the HiGHS MIP solver through scipy.optimize.milp over the partition rows
plus all rows of the active triangles.  The loop stops at the first answer
that violates no row of the full program: it is feasible for the full program
and optimal for a relaxation of it, so it is optimal.  Among equal optima of a
re-solve the one returned is HiGHS's choice.

Every re-solve sets the relative gap to 0, so a solution reported as proven
optimal is exact (up to HiGHS's absolute gap of 1e-6, which milp does not
expose).  The time limit bounds the whole loop: each re-solve gets the time
that is left, and HiGHS enforces it inside the solve.
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
NO_INCUMBENT = "time limit reached before any incumbent was found"
DEFAULT_TIME_LIMIT = 300.0  # seconds per document


@dataclass
class SolverStats:
    """Effort of one solve; solve() leaves lp_iterations 0 (milp omits it).

    rounds counts the argmax round plus one per milp re-solve, and
    active_triangles the triangles whose rows reached the last re-solve.
    """

    nodes_explored: int = 0
    lp_iterations: int = 0
    wall_time: float = 0.0
    rows: int = 0
    cols: int = 0
    rounds: int = 0
    active_triangles: int = 0


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


def solve(program: BinaryProgram, time_limit: float = DEFAULT_TIME_LIMIT) -> Solution:
    """Optimal solution (proven_optimal=True) or best incumbent on timeout.

    Raises Infeasible when no feasible assignment exists (possible only for
    hand-built programs), and RuntimeError when the time limit passes before
    an incumbent that satisfies the full program is found, when HiGHS fails,
    or when it returns a point that breaks one of its own rows.
    """
    if not time_limit > 0:  # also rejects NaN
        raise ValueError("time_limit must be positive")
    t0 = time.monotonic()
    stats = SolverStats(rows=program.num_rows, cols=program.num_vars)
    # Round 1: the partition rows alone; argmax takes the lowest ordinal among
    # an arc's equal maximal weights.
    best = program.objective.reshape(-1, N_LABELS).argmax(axis=1)
    x = np.zeros(program.num_vars)
    x[np.arange(len(best)) * N_LABELS + best] = 1.0
    stats.rounds = 1
    triangle_of_row = program.row_keys[:, 0]
    active = np.zeros(triangle_of_row.max(initial=-1) + 1, dtype=bool)
    proven = True
    while True:
        violated = np.flatnonzero(program.a_ub @ x > 1.0 + FEAS_TOL)
        if not violated.size:
            break
        if not proven:  # the last re-solve hit the time limit
            raise RuntimeError(NO_INCUMBENT)
        new = np.unique(triangle_of_row[violated])
        new = new[~active[new]]
        if not new.size:
            raise RuntimeError("MIP solve returned a point that violates its "
                               f"own row {program.row_name(violated[0])}")
        active[new] = True
        remaining = time_limit - (time.monotonic() - t0)
        if remaining <= 0:
            raise RuntimeError(NO_INCUMBENT)
        rows = np.flatnonzero(active[triangle_of_row])
        res = milp(-program.objective, integrality=1, bounds=Bounds(0, 1),
                   constraints=[LinearConstraint(program.a_eq, 1, 1),
                                LinearConstraint(program.a_ub[rows], -np.inf, 1)],
                   options={"mip_rel_gap": 0.0, "time_limit": remaining})
        stats.rounds += 1
        if res.status == 2:
            raise Infeasible("no feasible assignment exists")
        if res.status == 1 and res.x is None:
            raise RuntimeError(NO_INCUMBENT)
        if res.status not in (0, 1):
            raise RuntimeError(f"MIP solve failed: {res.message}")
        stats.nodes_explored += res.mip_node_count
        proven = res.status == 0
        x = (res.x > 0.5).astype(float)
    stats.active_triangles = int(active.sum())
    stats.wall_time = time.monotonic() - t0
    chosen = np.flatnonzero(x).tolist()
    return Solution(
        assignment=_assignment_from_vars(chosen),
        objective_value=_objective_of(program, chosen),
        proven_optimal=proven,
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
