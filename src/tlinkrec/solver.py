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
then re-solves only the components that hold a newly active row.

A touched component is solved exactly over its partition rows and its
active triangles, the triangles of its active rows, by max-sum bucket
elimination (Dechter 1999, "Bucket elimination: a unifying framework for
reasoning").  Its factors are one weight vector per arc over its domain,
ordered NONE first and then by ascending ordinal, and one mask per active
triangle: its label table over its arcs' domains, -inf where allowed forbids
the labels of pq, qr and pr and 0 elsewhere.  In the default mode the
triangle's active rows are every row that can bind over the domains, so the
mask forbids exactly the cells they forbid.  In strict mode they bind over
the winning and held labels only, and the mask also forbids the cells the
triangle's other rows forbid: a tighter relaxation of the same program, so
an answer that breaks no row of the full program is still optimal.  A mask
is a factor like any other: adding 0 leaves a finite sum as it was, and
-inf absorbs it.  The planner (_plan) is the one place that
works out the elimination.  It reads only the arcs' domain widths and the
triangles' arcs, builds no table, and returns a list of steps, each (arcs,
others): the arcs that the step's bucket eliminates and the bucket's other
arcs, whose table spans both.  It takes the first of three ways whose
largest table has at most ENUMERATION_BOUND entries:
1. one step over every arc and no others, when the product of the domain
   widths fits; its first maximum is the first optimal labelling in arc
   order, round 1's tie rule;
2. one step per arc in min-degree order, the arc with the fewest neighbours
   left first and the lower arc index on a tie, decoded in reverse
   elimination order: the first optimal labelling in that decode order;
3. milp, when that order does not fit; the planner gives up at its first
   bucket table over the bound.
_eliminate carries a plan out with one list of factors per step, its
bucket: a factor or message goes to the bucket of the first step that
eliminates one of its arcs.  Each bucket is summed once, to its step's
table, and decoding reads the tables kept, so a plan holds all of them
until it is decoded.  Every table spans a step's arcs and others, so the
bound the planner checks bounds every table.  The first two ways depend on
the component alone, and so do their labels.  The components that neither
table way fits go to one call of the HiGHS MIP solver through
scipy.optimize.milp: the
domain columns of their arcs, one partition row per arc over them, and the
active rows restricted to those columns.  milp gets the active rows, not
every row of the active triangles: on 2 documents of 100-110 events at
density 0.4 (content seed 7), whose wide components reach milp, whole
triangles took strict reconcile from 3.3-4.4 s to 13.9-14.5 s (3 runs each,
2 vCPUs), in 3 rounds instead of 7 but with larger milp calls.  A round in
which every touched component has a plan calls no milp, and among equal
optima of a milp call the one returned is HiGHS's choice over all its
components.  An untouched
component has the same rows as when it was last solved, so its labels are
still optimal for it; an arc in no active row is a component of its own and
keeps its round-1 label, its optimum in the relaxation.  The loop stops at the first answer that
violates no row of the full program: it is feasible for the full program
and optimal for a relaxation of it, so it is optimal.  violations() checks
a solution against every triangle through the same table.

solve_documents() solves several programs as one: it stacks them (each
program's arcs in order, each triangle array offset by the arcs before it),
solves the stack under the parts' pooled time limit and splits the answer
into one Solution per part.  A part is one document's program, for one
ensemble: reconcile stacks its documents, and an experiment stacks every
(ensemble, document) program of all its ensembles.  Parts share no arc, so
their components never connect, and each part is optimal for its own
program.  A part whose components all have a plan gets the same labels in
any stack; one with a component that reaches milp can get another of its
equal optima.  It is the one place that knows the stack's offsets: a
RowError from the stack names its part and that part's own row.

Every milp call sets the relative gap to 0, so a solution reported as proven
optimal is exact (up to HiGHS's absolute gap of 1e-6, which milp does not
expose); elimination is exact.  The time limit bounds the whole loop: each
milp call gets the time that is left, and HiGHS enforces it inside the
solve.  Elimination takes no time limit; ENUMERATION_BOUND bounds each table
it builds.

Components are found in numpy (relations._components, which also finds the
closure kernel's '=' classes), and scipy is imported only for a milp call:
milp imports scipy.optimize on its first call, and the rows it is given are
built by BinaryProgram.rows and partition_rows, which import scipy.sparse.  A
solve in which every touched component has a plan imports no scipy module.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import SolveError
from .model import N_LABELS, BinaryProgram, _allowed, partition_rows, row_name
from .relations import RelType, _components

OBJ_TOL = 1e-9
NO_INCUMBENT = "time limit reached before any incumbent was found"
DEFAULT_TIME_LIMIT = 300.0  # seconds per document
# The one bound, on the largest table that any plan builds: a touched
# component is solved by the first plan whose tables all have at most this
# many entries, and by milp when no plan fits.  Measured per component, with
# the bound raised to 2^22, on 368 components of the benchmark's three
# corpora and a 30-document dense one, both modes (2 vCPUs, best of 5 runs of
# each): on the 281 whose largest table had at most 2^17 entries, one-table
# and bucket plans among them, elimination with its planning never took
# longer than milp alone on the same component, which took at least 1.4
# times as long.  Above 2^17 elimination was slower on 16 of 87, and on all 6
# above 2^20.  A table of 2^17 entries is 1 MB.
ENUMERATION_BOUND = 1 << 17
# Label indices (ordinal - 1) in tie order: NONE first, then ascending.
_NONE_FIRST = np.roll(np.arange(N_LABELS), 1)
# The labels by index: a tuple lookup, where RelType(ordinal) is an enum call.
_LABELS = tuple(RelType)
# A plan's step: the arcs its bucket eliminates and the bucket's other arcs.
Step = Tuple[Tuple[int, ...], Tuple[int, ...]]
# A factor, weights, mask or message: its scope, in arc order, and its
# table, one axis per arc.
Factor = Tuple[Tuple[int, ...], np.ndarray]


@dataclass
class SolverStats:
    """Effort of one solve; solve() leaves lp_iterations 0 (milp omits it).

    rows and cols are the full program's; rounds counts the argmax round plus
    one per re-solve, whether it eliminated, called milp or both;
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


class RowError(SolveError):
    """A solve that stopped at a row; key is that row's (k, a, b).  The
    message is prefix plus the subclass's text, with the row's name."""

    text: str

    def __init__(self, key: Sequence[int], prefix: str = ""):
        self.key = tuple(int(v) for v in key)
        super().__init__(prefix + self.text.format(row=row_name(*self.key)))


class OwnRowViolated(RowError):
    """A re-solve, by milp or elimination, returned labels that break one
    of the rows it was given."""

    text = "re-solve returned a labelling that violates its own row {row}"


class NoIncumbent(RowError):
    """The time limit passed while the row was still broken."""

    text = NO_INCUMBENT + "; row {row} is still broken"


@dataclass
class Solution:
    assignment: Dict[int, RelType]  # arc index -> label
    objective_value: float
    proven_optimal: bool
    stats: SolverStats = field(default_factory=SolverStats)

    def ordinals(self, arcs: int) -> np.ndarray:
        """The (arcs,) ordinals of the labels of arcs 0..arcs-1, 0 for an
        arc that assignment leaves out; other keys are not read."""
        # RelType is an IntEnum, so each label converts to its ordinal in C.
        return np.fromiter(map(self.assignment.get, range(arcs), repeat(0)), np.int64, arcs)


def _solution(program: BinaryProgram, labels: np.ndarray, proven: bool,
              stats: SolverStats) -> Solution:
    """The Solution of per-arc labels (ordinal - 1), objective recomputed."""
    chosen = np.arange(len(labels)) * N_LABELS + labels
    return Solution(
        assignment={arc: _LABELS[label] for arc, label in enumerate(labels.tolist())},
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


def milp(*args, **kwargs):
    """scipy.optimize.milp, imported when first called, so that a solve in
    which every touched component has a plan imports no scipy."""
    from scipy.optimize import milp as highs

    return highs(*args, **kwargs)


def _plan(widths: Sequence[int], scopes: np.ndarray) -> Optional[List[Step]]:
    """The steps that solve one component, or None when neither way's
    tables fit ENUMERATION_BOUND.

    widths are the domain widths of the component's arcs and scopes its
    active triangles, both numbering the arcs in arc order.  A step is
    (arcs, others): its bucket table spans the arcs it eliminates and then
    the others, in arc order, and has the product of their widths entries.
    The plan is one step ((0, ..., n - 1), ()) when the product of every
    width fits, and else one step ((arc,), others) per arc in min-degree
    order: the arc with the fewest neighbours left, the lower index on a
    tie.  An arc's neighbours are the arcs that share an active triangle
    with it, and its others are its neighbours left; eliminating it joins
    those neighbours, as its message to the others does, so the order and
    every bucket's scope are followed on the scopes alone, up to the first
    bucket table over the bound.
    """
    if math.prod(widths) <= ENUMERATION_BOUND:
        return [(tuple(range(len(widths))), ())]
    neighbours: List[Set[int]] = [set() for _ in widths]
    for scope in scopes.tolist():
        for arc in scope:
            neighbours[arc].update(scope)
    for arc, around in enumerate(neighbours):
        around.discard(arc)
    queue = [(len(around), arc) for arc, around in enumerate(neighbours)]
    heapq.heapify(queue)
    done = [False] * len(widths)
    steps: List[Step] = []
    for _ in widths:
        # An entry is stale once its arc is done or joined.
        degree, arc = heapq.heappop(queue)
        while done[arc] or degree != len(neighbours[arc]):
            degree, arc = heapq.heappop(queue)
        around = neighbours[arc]
        if widths[arc] * math.prod(widths[other] for other in around) > ENUMERATION_BOUND:
            return None
        for other in around:
            neighbours[other] |= around
            neighbours[other] -= {other, arc}
            heapq.heappush(queue, (len(neighbours[other]), other))
        done[arc] = True
        steps.append(((arc,), tuple(sorted(around))))
    return steps


def _factor_tables(program: BinaryProgram, arcs: np.ndarray, choices: np.ndarray,
                   widths: Sequence[int], scopes: np.ndarray) -> List[Factor]:
    """One component's factors: ((arc,), weights) for each arc, its weights
    over its domain, and then ((pq, pr, qr), mask) for each active triangle,
    its label table over its arcs' domains: -inf where _allowed(mode)[a, b,
    c] is False for the labels a of pq, b of qr and c of pr, and 0 elsewhere.

    Row i of choices holds the domain labels of arcs[i] in its first
    widths[i] places.  Row t of scopes numbers triangle t's (pq, pr, qr) in
    arcs, which is ascending, and its mask's axes follow that order.
    """
    inside = choices[:, :max(widths)]
    a, c, b = inside[scopes.T]  # labels of pq, pr and qr
    masks = np.where(_allowed(program.none_breaks_triangles)[
        a[:, :, None, None], b[:, None, None, :], c[:, None, :, None]], 0.0, -np.inf)
    weights = program.objective.reshape(-1, N_LABELS)[arcs[:, None], inside]
    return ([((arc,), row[:width]) for arc, (row, width) in enumerate(zip(weights, widths))]
            + [((pq, pr, qr), mask[:widths[pq], :widths[pr], :widths[qr]])
               for mask, (pq, pr, qr) in zip(masks, scopes.tolist())])


def _bucket_table(axes: Sequence[int], factors: Sequence[Factor]) -> np.ndarray:
    """The sum of factors, each a (scope, table) pair with its scope in arc
    order, on one axis per arc of axes, in that order.

    The factors are added in the order of the position of each one's last
    arc in axes, and in the order given among those that share it: each is
    added once that axis is in place, so a table over every arc in arc order
    sums the arcs' weights in arc order.  A mask holds only 0 and -inf, so
    wherever it is added it leaves every finite sum as it was and makes -inf
    each cell where it is -inf.
    """
    at = {arc: i for i, arc in enumerate(axes)}
    placed = sorted((([at[arc] for arc in scope], table) for scope, table in factors),
                    key=lambda factor: max(factor[0]))
    value = np.zeros(())
    for where, table in placed:
        # table on axes up to its scope's last, 1 wide off its scope
        shape = [1] * (max(where) + 1)
        for i, width in zip(where, table.shape):
            shape[i] = width
        if where != sorted(where):
            table = table.transpose(np.argsort(where))
        term = table.reshape(shape)
        value = value.reshape(value.shape + (1,) * (term.ndim - value.ndim)) + term
    return value


def _eliminate(factors: Sequence[Factor], steps: Sequence[Step]) -> List[int]:
    """Each arc's position in its domain in an optimum of the sum of the
    factors, _factor_tables's weights and masks.

    steps is _plan's, and each step keeps one list of factors, its bucket.
    A factor goes to the bucket of the first step that eliminates one of
    its arcs.  A step's table is its bucket's sum over its arcs and then its
    others, and the maximum over its arc is a message, a new factor on the
    others, which goes to the first later step among them; only the last
    step has no others, and only it may hold more than one arc.  Decoding
    runs through the steps in reverse and reads the tables kept: each
    step's arcs take the first maximum, in C order, of its table at the
    positions decoded for its others.  Those cells are the bucket's sum
    there, so decoding sums no factor.
    """
    step_of = {arc: i for i, (arcs, _) in enumerate(steps) for arc in arcs}
    buckets: List[List[Factor]] = [[] for _ in steps]
    for factor in factors:
        buckets[min(map(step_of.__getitem__, factor[0]))].append(factor)
    tables = []
    for (arcs, others), bucket in zip(steps, buckets):
        tables.append(_bucket_table((*arcs, *others), bucket))
        if others:
            buckets[min(map(step_of.__getitem__, others))].append(
                (others, tables[-1].max(axis=0)))
    position: Dict[int, int] = {}
    for (arcs, others), table in zip(steps[::-1], tables[::-1]):
        sub = table[(..., *map(position.__getitem__, others))]
        position.update(zip(arcs, np.unravel_index(sub.argmax(), sub.shape)))
    return [position[arc] for arc in range(len(position))]


def solve(program: BinaryProgram, time_limit: float = DEFAULT_TIME_LIMIT) -> Solution:
    """Optimal solution (proven_optimal=True) or best incumbent on timeout.

    Raises NoIncumbent when the time limit passes before an incumbent that
    satisfies the full program is found, OwnRowViolated when a re-solve
    returns labels that break one of its own rows, and SolveError, their
    base, when HiGHS fails.
    """
    if not time_limit > 0:  # also rejects NaN
        raise ValueError("time_limit must be positive")
    t0 = time.monotonic()
    stats = SolverStats(rows=program.num_rows, cols=program.num_vars, rounds=1)
    domain, winning = program.domain(), program.winning()
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
        # Components of the program's arcs joined by the active triangles, the
        # triangles of the active rows; an arc in no active row is a component
        # of its own and never touched.  The touched ones hold a newly active
        # row.
        active = np.unique(keys[:, 0])
        tri = program.triangles[active]
        component = _components(len(labels), tri)
        touched = np.isin(component, component[program.triangles[new[:, 0], 0]])
        wide = np.zeros(len(labels), dtype=bool)
        held = touched[tri[:, 0]]  # the active triangles inside them
        for arcs, k in zip(_by_owner(np.flatnonzero(touched), component[touched]),
                           _by_owner(active[held], component[tri[held, 0]])):
            # Each of the component's triangles' (pq, pr, qr), ascending in
            # arc order, numbered in arcs.
            scopes = np.searchsorted(arcs, program.triangles[k][:, [0, 2, 1]])
            ordered = domain[arcs][:, _NONE_FIRST]
            widths = ordered.sum(axis=1).tolist()
            steps = _plan(widths, scopes)
            if steps is None:
                wide[arcs] = True
                continue
            # Each arc's domain labels first, NONE first and then ascending.
            choices = _NONE_FIRST[np.argsort(~ordered, axis=1, kind="stable")]
            factors = _factor_tables(program, arcs, choices, widths, scopes)
            labels[arcs] = choices[np.arange(len(arcs)), _eliminate(factors, steps)]
        stats.rounds += 1
        stats.active_rows, stats.coupled_arcs = len(keys), len(np.unique(tri))
        if not wide.any():
            continue
        from scipy.optimize import Bounds, LinearConstraint

        # The program restricted to the wide touched components' arcs and
        # their domains: those columns, one partition row per arc and the
        # active rows.
        arcs = np.flatnonzero(wide)
        inside = domain[arcs]
        cols = (arcs[:, None] * N_LABELS + np.arange(N_LABELS))[inside]
        rows = program.rows(keys[wide[program.triangles[keys[:, 0], 0]]])[:, cols]
        # HiGHS presolve stays on.  Only wide components get here, such as
        # those of 2 documents of 100-110 events at density 0.4 (content seed
        # 7), and on them switching it off hurt in strict mode (2 vCPUs):
        # milp calls went 7 -> 15 and reconcile 2.08 -> 5.06 s (median of 3),
        # at the same objective.  The round count follows which of the equal
        # optima HiGHS returns, and presolve changes that choice.
        res = milp(-program.objective[cols], integrality=1, bounds=Bounds(0, 1),
                   constraints=[LinearConstraint(partition_rows(inside.sum(axis=1)), 1, 1),
                                LinearConstraint(rows, -np.inf, 1)],
                   options={"mip_rel_gap": 0.0, "time_limit": remaining})
        stats.milp_cols += len(cols)
        if res.status == 1 and res.x is None:
            raise NoIncumbent(broken[0])
        if res.status not in (0, 1):
            raise SolveError(f"MIP solve failed: {res.message}")
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
    labels = whole.ordinals(arcs[-1]) - 1
    return {key: _solution(p, labels[lo:hi], whole.proven_optimal, whole.stats)
            for key, p, lo, hi in zip(keys, parts, arcs, arcs[1:])}


def violations(program: BinaryProgram, solution: Solution) -> List[str]:
    """Violated rows and objective mismatches.

    An assignment that is not a map from arcs 0..|A|-1 to labels is not
    read further: each key that is not an arc, and each value that is not a
    label, is a problem.  Triangles are checked only when every arc carries
    a label, and the objective is recomputed from the arcs that carry one.
    """
    arcs, assignment = program.num_vars // N_LABELS, solution.assignment
    problems = [f"key {key!r} is not an arc 0..{arcs - 1}"
                for key in sorted(assignment.keys() - range(arcs), key=repr)]
    if set(map(type, assignment.values())) - {RelType}:
        problems += [f"arc {arc!r} holds {rel!r}, which is not a label"
                     for arc, rel in assignment.items() if type(rel) is not RelType]
    if problems:
        return problems
    labels = solution.ordinals(arcs) - 1
    problems = [f"partition row p{i} sums to 0, expected 1" for i in np.flatnonzero(labels < 0)]
    if not problems:
        problems = [f"triangle row {row_name(*key)} violated: lhs 2 > 1"
                    for key in program.broken_rows(labels)]
    chosen = (np.arange(arcs) * N_LABELS + labels)[labels >= 0]
    recomputed = float(program.objective[chosen].sum())
    if not abs(recomputed - solution.objective_value) <= OBJ_TOL:  # a NaN too
        problems.append(
            f"objective mismatch: stored {solution.objective_value!r}, "
            f"recomputed {recomputed!r}"
        )
    return problems


def verify(program: BinaryProgram, solution: Solution) -> bool:
    """True iff all rows hold and the stored objective matches recomputation."""
    return not violations(program, solution)
