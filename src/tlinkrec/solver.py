"""Exact solver for the binary reconciliation program.

solve() separates the triangle rows lazily (cutting-plane inference).  An
arc's winning labels are NONE and the labels that outweigh it
(BinaryProgram.winning, at most 4 of the 15 with 3 members); its domain is
the labels milp may give it.  In the default mode NONE breaks no row in any
position, so moving an arc from label l to NONE keeps every row and changes
the objective by alpha[e, NONE] - alpha[e, l]: some optimum of the full
program uses only winning labels, which are the domain.  In strict mode a
NONE on pr can break a row, so the domain is all 15 labels.

Round 1 keeps only the partition rows, whose optimum is each arc's
highest-weighted label; no MIP solver is called.  NONE wins any tie at the
top and the lowest ordinal any other, so an arc whose labels all weigh no
more than NONE gets NONE, and every label lies in its arc's domain.  Each
later round finds the triangles that the current labels break through the
label table allowed, and activates every row of a broken triangle that can
bind over each arc's winning labels plus the label it holds now
(BinaryProgram.binding_rows).  The broken row is one of them, so every round
activates a new row; in the default mode the labels held are winning ones,
so a triangle whose rows are active cannot break again.  The round then
re-solves with the HiGHS MIP solver through scipy.optimize.milp.  Two arcs
are connected when they share an active row's triangle, and the relaxation
separates into the connected components of the program's arcs.  A re-solve
gets only the components that hold a newly active row, all of them in one
milp call: the domain columns of their arcs, one partition row per arc over
them, and the active rows restricted to those columns.  An untouched
component has the same rows as when it was last solved, so its labels are
still optimal for it; an arc in no active row is a component of its own and
keeps its round-1 label, its optimum in the relaxation.  The loop stops at
the first answer that violates no row of the full program: it is feasible
for the full program and optimal for a relaxation of it, so it is optimal.
Among equal optima of a re-solve the one returned is HiGHS's choice on its
components.  violations() checks a solution against every triangle through
the same table.

solve_documents() solves several programs as one: it stacks them (each
program's arcs in order, each triangle array offset by the arcs before it),
solves the stack under the parts' pooled time limit and splits the answer
into one Solution per part.  A part is one document's program, for one
ensemble: reconcile stacks its documents, and an experiment stacks every
(ensemble, document) program of all its ensembles.  Parts share no arc, so
their components never connect, and each part is optimal for its own
program.  It is the one place that knows the stack's offsets: a RowError
from the stack names its part and that part's own row.

Every re-solve sets the relative gap to 0, so a solution reported as proven
optimal is exact (up to HiGHS's absolute gap of 1e-6, which milp does not
expose).  The time limit bounds the whole loop: each re-solve gets the time
that is left, and HiGHS enforces it inside the solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Sequence

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
    For a stacked program these count every part of the stack: every
    document of a reconcile, every ensemble's documents of an experiment.
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


class RowError(RuntimeError):
    """A solve that stopped at a row; key is that row's (k, a, b).  The
    message is prefix plus the subclass's text, with the row's name."""

    text: str

    def __init__(self, key: Sequence[int], prefix: str = ""):
        self.key = tuple(int(v) for v in key)
        super().__init__(prefix + self.text.format(row=row_name(*self.key)))


class OwnRowViolated(RowError):
    """milp returned a point that breaks one of the rows it was given."""

    text = "MIP solve returned a point that violates its own row {row}"


class NoIncumbent(RowError):
    """The time limit passed while the row was still broken."""

    text = NO_INCUMBENT + "; row {row} is still broken"


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

    Raises NoIncumbent when the time limit passes before an incumbent that
    satisfies the full program is found, OwnRowViolated when HiGHS returns a
    point that breaks one of its own rows, and RuntimeError when it fails.
    """
    if not time_limit > 0:  # also rejects NaN
        raise ValueError("time_limit must be positive")
    t0 = time.monotonic()
    stats = SolverStats(rows=program.num_rows, cols=program.num_vars, rounds=1)
    domain, winning = program.domain(), program.winning()
    # Round 1: the partition rows alone, the argmax with the labels in the
    # order NONE, BEFORE, AFTER, ... so that ties go to NONE first and then
    # to the lowest ordinal.  A label that outweighs NONE is a winning one,
    # and otherwise NONE wins, so the argmax lies in the domain.
    order = np.roll(np.arange(N_LABELS), 1)
    labels = order[program.objective.reshape(-1, N_LABELS)[:, order].argmax(axis=1)]
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
            raise NoIncumbent(broken[0])
        again = (broken[:, None] == keys).all(axis=2).any(axis=1)
        if again.any():
            raise OwnRowViolated(broken[again][0])
        # Every row of each broken triangle that can bind over each arc's
        # winning labels plus the label it holds now; the broken row is one.
        mask = winning | (np.arange(N_LABELS) == labels[:, None])
        new = program.binding_rows(broken[:, 0], mask)
        keys = np.concatenate((keys, new))
        remaining = time_limit - (time.monotonic() - t0)
        if remaining <= 0:
            raise NoIncumbent(broken[0])
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
        # HiGHS presolve stays on; switching it off is not a blind win (2
        # vCPUs).  In the default mode switching it off helps: reconcile-dense
        # wall_s went 51.7 -> 36.6 ms (medians of 4 alternated pairs).  In
        # strict mode it hurts: on 2 documents of 100-110 events at density
        # 0.4 (content seed 7), milp calls went 7 -> 15 and reconcile
        # 2.08 -> 5.06 s (median of 3), at the same objective.  The round
        # count follows which of the equal optima HiGHS returns, and presolve
        # changes that choice.
        res = milp(-program.objective[cols], integrality=1, bounds=Bounds(0, 1),
                   constraints=[LinearConstraint(partition_rows(inside.sum(axis=1)), 1, 1),
                                LinearConstraint(rows, -np.inf, 1)],
                   options={"mip_rel_gap": 0.0, "time_limit": remaining})
        stats.rounds += 1
        stats.milp_cols += len(cols)
        if res.status == 1 and res.x is None:
            raise NoIncumbent(broken[0])
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


def solve_documents(programs: Mapping[Hashable, BinaryProgram],
                    time_limit: float = DEFAULT_TIME_LIMIT) -> Dict[Hashable, Solution]:
    """One Solution per part of programs, from one solve() of their stack.

    A part is keyed by its document, or by anything that names it through
    str().  The stack gets time_limit per part, pooled; a mapping with no
    part solves nothing.  Every part is numbered from arc 0, keeps its own
    objective and carries the whole solve's proven_optimal and stats: the
    pooled solve proves all parts optimal or none, and its effort is not
    split by part.  A RowError is raised again with the failing row
    numbered as its part's program numbers it, prefixed "<part>: ".
    """
    modes = {p.none_breaks_triangles for p in programs.values()}
    if len(modes) > 1:
        raise ValueError("solve_documents needs programs of one mode")
    if not programs:
        return {}
    keys, parts = list(programs), list(programs.values())
    arcs = np.cumsum([0] + [p.num_vars // N_LABELS for p in parts])
    triangles = np.cumsum([0] + [len(p.triangles) for p in parts])
    stack = BinaryProgram(np.concatenate([p.objective for p in parts]),
                          np.concatenate([p.triangles + s for p, s in zip(parts, arcs)]),
                          modes.pop())
    try:  # through the module name, so a wrapper set on solver.solve sees it
        whole = solve(stack, time_limit=time_limit * len(parts))
    except RowError as err:
        k, a, b = err.key
        i = int(np.searchsorted(triangles, k, side="right")) - 1
        raise type(err)((k - triangles[i], a, b), f"{keys[i]}: ") from err
    labels = np.array([whole.assignment[arc].value - 1 for arc in range(arcs[-1])],
                      dtype=np.int64)
    return {key: _solution(p, labels[lo:hi], whole.proven_optimal, whole.stats)
            for key, p, lo, hi in zip(keys, parts, arcs, arcs[1:])}


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
