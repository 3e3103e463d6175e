"""Exact solver for the binary reconciliation program.

solve() separates the triangle rows lazily (cutting-plane inference).  Each
arc gets a domain of labels.  In the default mode NONE breaks no row in any
position, so moving an arc from label l to NONE keeps every row and changes
the objective by alpha[e, NONE] - alpha[e, l]; a label that weighs no more
than NONE is never needed, and the domain is NONE plus the labels that
outweigh it (at most 4 of the 15 with 3 members).  Some optimum of the full
program lies inside the domains, so the optimum over the domains is the full
program's.  In strict mode a NONE on pr can break a row, so the domain is
all 15 labels.

Round 1 keeps only the partition rows, whose optimum is each arc's
highest-weighted label in its domain; no MIP solver is called.  In the
default mode an arc whose labels all weigh no more than NONE gets NONE, and
among equal weights above NONE the lowest ordinal wins; strict mode takes the
lowest ordinal among the arc's equal maximal weights over all 15 labels.
Each later round looks up, in the label table allowed, the row (a, b) that
the current labels break in each broken triangle.  In the default mode it
activates every row of that triangle that labels inside the domains can
break (BinaryProgram.binding_rows), so the triangle cannot break again.  In
strict mode it activates the one broken row: whole triangles over 15 labels
made a strict reconcile of the benchmark's 50 small documents 1.6 to 2.5
times slower on 2 vCPUs (medians of 95 -> 253 ms and 104 -> 169-238 ms in
two measurements).  It then re-solves with the HiGHS MIP solver through
scipy.optimize.milp.  Two arcs are connected when they share an active row's
triangle, and the relaxation separates into the connected components of the
program's arcs.  A re-solve gets only the components that hold a newly
active row, all of them in one milp call: the domain columns of their arcs,
one partition row per arc over them, and the active rows restricted to those
columns.  An untouched component has the same rows as when it was last
solved, so its labels are still optimal for it; an arc in no active row is a
component of its own and keeps its round-1 label, its optimum in the
relaxation.  The loop stops at the first answer that violates no row of the
full program: it is feasible for the full program and optimal for a
relaxation of it, so it is optimal.  Among equal optima of a re-solve the one
returned is HiGHS's choice on its components.  violations() checks a solution
against every triangle through the same table.

Several documents are solved in one call by stacking their programs
(model.stack_programs) and splitting the answer (split_solution).  Documents
share no arc, so their components never connect, and each part is optimal
for its own program.

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
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .model import N_LABELS, BinaryProgram, partition_rows, row_name
from .relations import RelType

OBJ_TOL = 1e-9
NO_INCUMBENT = "time limit reached before any incumbent was found"
DEFAULT_TIME_LIMIT = 300.0  # seconds per document


@dataclass
class SolverStats:
    """Effort of one solve; solve() leaves lp_iterations 0 (milp omits it).

    rows and cols are the full program's; rounds counts the argmax round plus
    one per milp re-solve; active_rows counts the triangle rows active at the
    end and coupled_arcs the arcs of their triangles, over every component;
    milp_cols sums the columns handed to milp over the re-solves.
    For a stacked program these count every document of the stack.
    """

    nodes_explored: int = 0
    lp_iterations: int = 0
    wall_time: float = 0.0
    rows: int = 0
    cols: int = 0
    rounds: int = 0
    active_rows: int = 0
    coupled_arcs: int = 0
    milp_cols: int = 0


class OwnRowViolated(RuntimeError):
    """milp returned a point that breaks one of the rows it was given; key is
    that row's (k, a, b)."""

    def __init__(self, key: Sequence[int], prefix: str = ""):
        self.key = tuple(int(v) for v in key)
        super().__init__(f"{prefix}MIP solve returned a point that violates "
                         f"its own row {row_name(*self.key)}")


@dataclass
class Solution:
    assignment: Dict[int, RelType]  # arc index -> label
    objective_value: float
    proven_optimal: bool
    stats: SolverStats = field(default_factory=SolverStats)


def _solution(program: BinaryProgram, labels: np.ndarray, proven: bool,
              stats: SolverStats) -> Solution:
    """The Solution of per-arc labels (ordinal - 1), objective recomputed."""
    chosen = np.arange(len(labels)) * N_LABELS + labels
    return Solution(
        assignment={arc: RelType(label + 1) for arc, label in enumerate(labels.tolist())},
        objective_value=float(program.objective[chosen].sum()),
        proven_optimal=proven,
        stats=stats,
    )


def solve(program: BinaryProgram, time_limit: float = DEFAULT_TIME_LIMIT) -> Solution:
    """Optimal solution (proven_optimal=True) or best incumbent on timeout.

    Raises RuntimeError when the time limit passes before an incumbent that
    satisfies the full program is found or when HiGHS fails, and
    OwnRowViolated when it returns a point that breaks one of its own rows.
    """
    if not time_limit > 0:  # also rejects NaN
        raise ValueError("time_limit must be positive")
    t0 = time.monotonic()
    stats = SolverStats(rows=program.num_rows, cols=program.num_vars, rounds=1)
    domain = program.domain()
    # Round 1: the partition rows alone; argmax over the domain takes the
    # lowest ordinal among an arc's equal maximal weights, and in the default
    # mode NONE only when no label outweighs it.
    labels = np.where(domain, program.objective.reshape(-1, N_LABELS),
                      -np.inf).argmax(axis=1)
    keys = np.empty((0, 3), dtype=np.int64)  # active rows (k, a, b)
    proven = True
    while True:
        broken = program.broken_rows(labels)
        if not broken.size:
            break
        # A re-solve that hit the time limit was given all the time left, so
        # no component is solved again after it: the answer stays unproven,
        # and a row it still breaks cannot be mended.
        if not proven:
            raise RuntimeError(NO_INCUMBENT)
        again = (broken[:, None] == keys).all(axis=2).any(axis=1)
        if again.any():
            raise OwnRowViolated(broken[again][0])
        # Default mode: every row of a broken triangle that can bind inside
        # the domains; strict mode: the one broken row.
        new = (broken if program.none_breaks_triangles
               else program.binding_rows(broken[:, 0], domain))
        keys = np.concatenate((keys, new))
        remaining = time_limit - (time.monotonic() - t0)
        if remaining <= 0:
            raise RuntimeError(NO_INCUMBENT)
        # Components of the program's arcs joined by the active rows; an arc
        # in no active row is a component of its own and never touched.  The
        # touched ones hold a newly active row.
        tri = program.triangles[keys[:, 0]]
        graph = csr_matrix((np.ones(2 * len(tri)),
                            (tri[:, :2].ravel(), tri[:, 1:].ravel())),
                           shape=(len(labels),) * 2)
        component = connected_components(graph, directed=False)[1]
        touched = np.isin(component, component[tri[-len(new):, 0]])
        # The program restricted to the touched components' arcs and their
        # domains: those columns, one partition row per arc and the active
        # rows.
        arcs = np.flatnonzero(touched)
        inside = domain[arcs]
        cols = (arcs[:, None] * N_LABELS + np.arange(N_LABELS))[inside]
        rows = program.rows(keys[touched[tri[:, 0]]])[:, cols]
        res = milp(-program.objective[cols], integrality=1, bounds=Bounds(0, 1),
                   constraints=[LinearConstraint(partition_rows(inside.sum(axis=1)), 1, 1),
                                LinearConstraint(rows, -np.inf, 1)],
                   options={"mip_rel_gap": 0.0, "time_limit": remaining})
        stats.rounds += 1
        stats.milp_cols += len(cols)
        if res.status == 1 and res.x is None:
            raise RuntimeError(NO_INCUMBENT)
        if res.status not in (0, 1):
            raise RuntimeError(f"MIP solve failed: {res.message}")
        stats.nodes_explored += res.mip_node_count
        proven = proven and res.status == 0
        x = np.zeros(inside.shape)
        x[inside] = res.x
        labels[arcs] = x.argmax(axis=1)
        stats.active_rows, stats.coupled_arcs = len(keys), len(np.unique(tri))
    stats.wall_time = time.monotonic() - t0
    return _solution(program, labels, proven, stats)


def split_solution(solution: Solution,
                   programs: Sequence[BinaryProgram]) -> List[Solution]:
    """The solution of model.stack_programs(programs) as one Solution per
    program, with the program's arcs numbered from 0 and its own objective.

    Every part carries the whole solve's proven_optimal and stats: the
    pooled solve proves all parts optimal or none, and its effort is not
    split by document.
    """
    labels = np.array([solution.assignment[arc].value - 1
                       for arc in range(len(solution.assignment))], dtype=np.int64)
    ends = np.cumsum([p.num_vars // N_LABELS for p in programs])[:-1]
    return [_solution(p, part, solution.proven_optimal, solution.stats)
            for p, part in zip(programs, np.split(labels, ends))]


def violations(program: BinaryProgram, solution: Solution) -> List[str]:
    """Violated rows and objective mismatches; triangles are checked only
    when every arc carries a label."""
    labels, x = np.full(program.num_vars // N_LABELS, -1), np.zeros(program.num_vars)
    for arc, rel in solution.assignment.items():
        labels[arc] = rel.value - 1
        x[arc * N_LABELS + rel.value - 1] = 1.0
    problems = [f"partition row p{i} sums to 0, expected 1"
                for i in np.flatnonzero(labels < 0)]
    if not problems:
        problems = [f"triangle row {row_name(*key)} violated: lhs 2 > 1"
                    for key in program.broken_rows(labels)]
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
