"""Exact solver for the binary reconciliation program.

solve() separates the triangle rows lazily (cutting-plane inference).  An
arc's winning labels are NONE and the labels that outweigh it
(BinaryProgram.winning, at most 4 of the 15 with 3 members); its domain is
the labels a re-solve may give it.  In the default mode NONE breaks no row in any
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
so a triangle whose rows are active cannot break again.  Two arcs are
connected when they share an active row's triangle, and the relaxation
separates into the connected components of the program's arcs.  The round
then re-solves only the components that hold a newly active row.  A
labelling of a component gives each of its arcs one domain label, so it has
as many as the product of its arcs' domain widths.  A touched component of
at most ENUMERATION_BOUND labellings is solved exactly by enumeration
(_first_optimum), over its partition rows and its active rows, which is the
relaxation milp would see; among equal optima it takes the first labelling
in arc order, each domain ordered NONE first and then by ascending ordinal,
which is round 1's tie rule, so its answer depends on that component alone.
The larger touched components go to one call of the HiGHS MIP solver through
scipy.optimize.milp: the domain columns of their arcs, one partition row per
arc over them, and the active rows restricted to those columns.  A round
with no large touched component calls no milp, and among equal optima of a
milp call the one returned is HiGHS's choice over all its components.  An
untouched component has the same rows as when it was last solved, so its
labels are still optimal for it; an arc in no active row is a component of
its own and keeps its round-1 label, its optimum in the relaxation.  The
loop stops at the first answer that violates no row of the full program: it
is feasible for the full program and optimal for a relaxation of it, so it
is optimal.  violations() checks a solution against every triangle through
the same table.

solve_documents() solves several programs as one: it stacks them (each
program's arcs in order, each triangle array offset by the arcs before it),
solves the stack under the parts' pooled time limit and splits the answer
into one Solution per part.  A part is one document's program, for one
ensemble: reconcile stacks its documents, and an experiment stacks every
(ensemble, document) program of all its ensembles.  Parts share no arc, so
their components never connect, and each part is optimal for its own
program.  A part whose components are all enumerated gets the same labels in
any stack; one with a component that reaches milp can get another of its
equal optima.  It is the one place that knows the stack's offsets: a
RowError from the stack names its part and that part's own row.

Every milp call sets the relative gap to 0, so a solution reported as proven
optimal is exact (up to HiGHS's absolute gap of 1e-6, which milp does not
expose); enumeration is exact.  The time limit bounds the whole loop: each
milp call gets the time that is left, and HiGHS enforces it inside the
solve.  Enumeration takes no time limit; ENUMERATION_BOUND bounds its work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Sequence

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .model import N_LABELS, BinaryProgram, _allowed, partition_rows, row_name
from .relations import RelType

OBJ_TOL = 1e-9
NO_INCUMBENT = "time limit reached before any incumbent was found"
DEFAULT_TIME_LIMIT = 300.0  # seconds per document
# A touched component with at most this many labellings is solved by
# enumeration, a larger one by milp.  Measured on 225 components of the
# benchmark's three corpora and a 30-document dense one, both modes (2 vCPUs,
# best of 7 runs): milp alone on one component never took under 0.88 ms
# (about 5 ms when presolve could not remove the model), and the slowest
# enumeration took 0.77 ms at up to 2^17 labellings and 1.27 ms at up to
# 2^18.  2^17 is the largest power of two at which enumeration was never
# slower than milp on the same component; its value array is 1 MB.
ENUMERATION_BOUND = 1 << 17
# Label indices (ordinal - 1) in tie order: NONE first, then ascending.
_NONE_FIRST = np.roll(np.arange(N_LABELS), 1)


@dataclass
class SolverStats:
    """Effort of one solve; solve() leaves lp_iterations 0 (milp omits it).

    rows and cols are the full program's; rounds counts the argmax round plus
    one per re-solve, whether it enumerated, called milp or both;
    active_rows counts the triangle rows active at the end and coupled_arcs
    the arcs of their triangles, over every component.  milp_cols and
    nodes_explored count HiGHS's work only: the columns handed to milp and
    its branch-and-bound nodes, summed over the milp calls.
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


def _by_owner(values: np.ndarray, owner: np.ndarray) -> List[np.ndarray]:
    """values split by owner, in ascending owner order, each kept in order;
    no values, no parts."""
    order = np.argsort(owner, kind="stable")
    parts = np.split(values[order], np.flatnonzero(np.diff(owner[order])) + 1)
    return parts if len(values) else []


def _first_optimum(program: BinaryProgram, domain: np.ndarray, arcs: np.ndarray,
                   keys: np.ndarray) -> np.ndarray:
    """Labels (ordinal - 1) of one component's arcs, ascending, in its first
    optimal labelling under the active rows keys.

    value has one axis per arc, in arc order, over the arc's domain ordered
    NONE first, then by ascending ordinal; each entry is its labelling's
    weight summed in arc order, or -inf where a row of keys breaks.  argmax
    returns the first maximum in that order, the tie rule's labelling.
    All-NONE breaks no row, so some entry is finite.
    """
    choices = [_NONE_FIRST[inside] for inside in domain[arcs][:, _NONE_FIRST]]
    value = np.zeros(())
    for arc, choice in zip(arcs.tolist(), choices):
        value = value[..., None] + program.objective[arc * N_LABELS + choice]
    axis = {arc: i for i, arc in enumerate(arcs.tolist())}
    allowed = _allowed(program.none_breaks_triangles)
    for (_, a, b), tri in zip(keys.tolist(), program.triangles[keys[:, 0]].tolist()):
        # Row (a, b) breaks where pq holds a, qr holds b and pr a label that
        # allowed[a, b] forbids: the product of those three index sets.
        pq, qr, pr = (axis[arc] for arc in tri)
        where = [slice(None)] * value.ndim
        where[pq] = np.flatnonzero(choices[pq] == a - 1)[:, None, None]
        where[qr] = np.flatnonzero(choices[qr] == b - 1)[:, None]
        where[pr] = np.flatnonzero(~allowed[a - 1, b - 1, choices[pr]])
        value[tuple(where)] = -np.inf
    best = np.unravel_index(np.argmax(value), value.shape)
    return np.array([choice[i] for choice, i in zip(choices, best)], dtype=np.int64)


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
    alpha = program.objective.reshape(-1, N_LABELS)
    labels = _NONE_FIRST[alpha[:, _NONE_FIRST].argmax(axis=1)]
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
        # A component has as many labellings as the product of its arcs'
        # domain widths, summed as log2 and rounded back so that none
        # overflows.  Every arc of an active row has a label besides NONE in
        # its domain, so a small component has at most log2(ENUMERATION_BOUND)
        # arcs, one axis each in _first_optimum.
        labellings = np.rint(np.exp2(np.minimum(
            np.bincount(component, np.log2(domain.sum(axis=1))), 62)))
        small = (labellings <= ENUMERATION_BOUND)[component]
        enumerated = touched & small
        held = enumerated[tri[:, 0]]  # the active rows inside them
        for arcs, rows in zip(_by_owner(np.flatnonzero(enumerated), component[enumerated]),
                              _by_owner(keys[held], component[tri[held, 0]])):
            labels[arcs] = _first_optimum(program, domain, arcs, rows)
        stats.rounds += 1
        stats.active_rows, stats.coupled_arcs = len(keys), len(np.unique(tri))
        large = touched & ~small
        if not large.any():
            continue
        # The program restricted to the large touched components' arcs and
        # their domains: those columns, one partition row per arc and the
        # active rows.
        arcs = np.flatnonzero(large)
        inside = domain[arcs]
        cols = (arcs[:, None] * N_LABELS + np.arange(N_LABELS))[inside]
        rows = program.rows(keys[large[tri[:, 0]]])[:, cols]
        # HiGHS presolve stays on; switching it off is not a blind win (2
        # vCPUs).  These numbers were taken when every touched component went
        # to milp, before enumeration took the small ones.  In the default
        # mode switching it off helped: reconcile-dense wall_s went 51.7 ->
        # 36.6 ms (medians of 4 alternated pairs).  In strict mode it hurt: on
        # 2 documents of 100-110 events at density 0.4 (content seed 7), milp
        # calls went 7 -> 15 and reconcile 2.08 -> 5.06 s (median of 3), at
        # the same objective.  The round count follows which of the equal
        # optima HiGHS returns, and presolve changes that choice.
        res = milp(-program.objective[cols], integrality=1, bounds=Bounds(0, 1),
                   constraints=[LinearConstraint(partition_rows(inside.sum(axis=1)), 1, 1),
                                LinearConstraint(rows, -np.inf, 1)],
                   options={"mip_rel_gap": 0.0, "time_limit": remaining})
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
