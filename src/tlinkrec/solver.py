"""Exact solvers for the binary reconciliation program.

solve() hands the whole program to the HiGHS MIP solver through
scipy.optimize.milp.  The relative gap is set to 0, so a solution reported as
proven optimal is exact (up to HiGHS's absolute gap of 1e-6, which milp does
not expose).  HiGHS enforces the time limit inside the solve.  Among equal
optima the one returned is HiGHS's choice.  brute_force_solve() is the
validation oracle for tiny instances; it never touches a solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import DataError, Infeasible
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
    raw_values: Optional[np.ndarray] = None  # set for externally read solutions


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


def _arc_candidates(program: BinaryProgram) -> List[List[int]]:
    """Allowed variables per arc, taken from the partition rows."""
    n_arcs = program.num_vars // N_LABELS
    per_arc: List[Optional[Tuple[int, ...]]] = [None] * n_arcs
    for row in program.a_eq.tolil().rows:
        arcs = {v // N_LABELS for v in row}
        if len(arcs) != 1:
            raise ValueError("brute force requires one partition row per arc")
        arc = arcs.pop()
        if per_arc[arc] is not None:
            raise ValueError(f"multiple partition rows for arc {arc}")
        per_arc[arc] = tuple(sorted(row))
    if any(c is None for c in per_arc):
        raise ValueError("every arc needs a partition row")
    return [list(c) for c in per_arc]


def brute_force_solve(program: BinaryProgram) -> Solution:
    """Exhaustive optimum for instances with at most 8 arcs.

    Depth-first over per-arc label choices with an admissible remaining-weight
    bound; among equal optima the lexicographically smallest assignment vector
    (arc order, then ordinal) wins.
    """
    t0 = time.monotonic()
    stats = SolverStats(rows=program.num_rows, cols=program.num_vars)
    n_arcs = program.num_vars // N_LABELS
    if n_arcs > 8:
        raise ValueError(f"instance too large for brute force: {n_arcs} arcs")
    if n_arcs == 0:
        stats.wall_time = time.monotonic() - t0
        return Solution({}, 0.0, True, stats)

    candidates = _arc_candidates(program)
    obj = program.objective
    suffix_max = [0.0] * (n_arcs + 1)
    for arc in range(n_arcs - 1, -1, -1):
        suffix_max[arc] = suffix_max[arc + 1] + max(obj[v] for v in candidates[arc])

    # Group rows by their pair of plus arcs so that feasibility at a node is
    # one dict lookup per triangle instead of a scan over every row: a row is
    # violated exactly when both plus variables are chosen and none of its
    # minus variables is.
    groups: Dict[Tuple[int, int], Dict[Tuple[int, int], frozenset]] = {}
    rows = program.a_ub.tolil()
    for cols, coeffs in zip(rows.rows, rows.data):
        plus = tuple(v for v, c in zip(cols, coeffs) if c == 1.0)
        minus = frozenset(v for v, c in zip(cols, coeffs) if c == -1.0)
        if len(plus) != 2 or len(plus) + len(minus) != len(cols):
            raise ValueError("brute force requires triangle rows with two +1 "
                             "entries and otherwise -1 entries")
        key = (plus[0] // N_LABELS, plus[1] // N_LABELS)
        groups.setdefault(key, {})[plus] = minus
    groups_by_arc: List[List] = [[] for _ in range(n_arcs)]
    for (a0, a1), table in groups.items():
        last = max((a0, a1) + tuple(v // N_LABELS
                                    for minus in table.values() for v in minus))
        groups_by_arc[last].append((a0, a1, table))

    chosen = [-1] * n_arcs  # var index per arc

    def node_ok(arc: int) -> bool:
        for a0, a1, table in groups_by_arc[arc]:
            minus = table.get((chosen[a0], chosen[a1]))
            if minus is not None and not any(
                chosen[v // N_LABELS] == v for v in minus
            ):
                return False
        return True

    best = {"val": -np.inf, "vars": None}

    def find_value(arc: int, acc: float) -> None:
        """Best-first pass: establishes the optimal objective value."""
        if acc + suffix_max[arc] <= best["val"] + 1e-12 and best["vars"] is not None:
            return
        if arc == n_arcs:
            if acc > best["val"] or best["vars"] is None:
                best["val"] = acc
                best["vars"] = list(chosen)
            return
        for v in sorted(candidates[arc], key=lambda u: (-obj[u], u)):
            chosen[arc] = v
            if node_ok(arc):
                find_value(arc + 1, acc + obj[v])
            chosen[arc] = -1

    def find_lex(arc: int, acc: float) -> Optional[List[int]]:
        """Ordinal-order pass: first completion hitting the optimum is the
        lexicographically smallest optimal assignment."""
        if acc + suffix_max[arc] < best["val"] - 1e-12:
            return None
        if arc == n_arcs:
            return list(chosen) if abs(acc - best["val"]) <= 1e-12 else None
        for v in candidates[arc]:
            chosen[arc] = v
            if node_ok(arc):
                hit = find_lex(arc + 1, acc + obj[v])
                if hit is not None:
                    chosen[arc] = -1
                    return hit
            chosen[arc] = -1
        return None

    find_value(0, 0.0)
    if best["vars"] is None:
        raise Infeasible("no feasible assignment exists")
    final_vars = find_lex(0, 0.0) or best["vars"]
    val = _objective_of(program, final_vars)
    stats.wall_time = time.monotonic() - t0
    return Solution(_assignment_from_vars(final_vars), val, True, stats)


def violations(program: BinaryProgram, solution: Solution) -> List[str]:
    """Human-readable list of violated rows / objective mismatches."""
    x = np.zeros(program.num_vars)
    if solution.raw_values is not None:
        x[: len(solution.raw_values)] = solution.raw_values
    else:
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


def read_solution_file(program: BinaryProgram, stream: TextIO) -> Solution:
    """Escape hatch for external solvers: `<var_name> <0|1>` per line."""
    values = np.zeros(program.num_vars)
    for lineno, raw in enumerate(stream, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DataError(f"solution line {lineno}: expected '<var> <0|1>'")
        try:
            v = BinaryProgram.var_index(parts[0])
        except (ValueError, IndexError):
            raise DataError(f"solution line {lineno}: bad variable {parts[0]!r}")
        if not 0 <= v < program.num_vars:
            raise DataError(f"solution line {lineno}: variable {parts[0]!r} out of range")
        if parts[1] not in ("0", "1"):
            raise DataError(f"solution line {lineno}: value must be 0 or 1")
        values[v] = float(parts[1])
    chosen = sorted(np.nonzero(values > 0.5)[0].tolist())
    return Solution(
        assignment=_assignment_from_vars(chosen),
        objective_value=_objective_of(program, chosen),
        proven_optimal=False,
        stats=SolverStats(rows=program.num_rows, cols=program.num_vars),
        raw_values=values,
    )
