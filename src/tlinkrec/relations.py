"""TimeML relation vocabulary, interval-algebra composition, and closure.

The 14 TimeML relation labels (plus an artificial NONE) are grounded in the
interval algebra: every label maps to a basic interval relation, expressed as
order constraints between the four interval endpoints.  The composition table
is generated from those endpoint constraints once, at import, as one dict of
(a, b) -> label mask that every reader shares, so no entry is hand-typed.
SIMULTANEOUS/IDENTITY and IS_INCLUDED/DURING (and their inverses) denote the
same interval relation; composition results are emitted in canonical form
(SIMULTANEOUS, IS_INCLUDED, INCLUDES), and consistency checks collapse the
synonyms before testing membership.

closure() works on the same endpoint constraints, not on the composition
table: it decides consistency and entailment exactly by reachability between
endpoints.  TimeML has no label for two overlapping intervals, so a pair that
may overlap is entailed no label, and an unlabelled pair is never assumed
not to overlap.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

import numpy as np


class RelType(enum.IntEnum):
    """The 14 TimeML relation labels plus NONE; values are the 1..15 ordinals."""

    BEFORE = 1
    AFTER = 2
    IBEFORE = 3
    IAFTER = 4
    INCLUDES = 5
    IS_INCLUDED = 6
    DURING = 7
    DURING_INV = 8
    BEGINS = 9
    BEGUN_BY = 10
    ENDS = 11
    ENDED_BY = 12
    SIMULTANEOUS = 13
    IDENTITY = 14
    NONE = 15


NON_NONE = tuple(r for r in RelType if r is not RelType.NONE)

_INVERSE = {
    RelType.BEFORE: RelType.AFTER,
    RelType.AFTER: RelType.BEFORE,
    RelType.IBEFORE: RelType.IAFTER,
    RelType.IAFTER: RelType.IBEFORE,
    RelType.INCLUDES: RelType.IS_INCLUDED,
    RelType.IS_INCLUDED: RelType.INCLUDES,
    RelType.DURING: RelType.DURING_INV,
    RelType.DURING_INV: RelType.DURING,
    RelType.BEGINS: RelType.BEGUN_BY,
    RelType.BEGUN_BY: RelType.BEGINS,
    RelType.ENDS: RelType.ENDED_BY,
    RelType.ENDED_BY: RelType.ENDS,
    RelType.SIMULTANEOUS: RelType.SIMULTANEOUS,
    RelType.IDENTITY: RelType.IDENTITY,
    RelType.NONE: RelType.NONE,
}

# Synonyms collapse onto the canonical label carrying the same interval relation.
_COLLAPSE = {
    RelType.DURING: RelType.IS_INCLUDED,
    RelType.DURING_INV: RelType.INCLUDES,
    RelType.IDENTITY: RelType.SIMULTANEOUS,
}

CANONICAL_LABELS = tuple(
    r for r in NON_NONE if r not in _COLLAPSE
)


def invert(r: RelType) -> RelType:
    """Converse label; total over all 15 labels and involutive."""
    return _INVERSE[r]


def collapse(r: RelType) -> RelType:
    """Map a label onto its canonical synonym (identity for most labels)."""
    return _COLLAPSE.get(r, r)


def synonyms(r: RelType) -> Tuple[RelType, ...]:
    """All labels denoting the same interval relation as canonical label r."""
    extra = tuple(k for k, v in _COLLAPSE.items() if v is r)
    return (r,) + extra


# --- endpoint semantics ----------------------------------------------------
#
# Each basic interval relation between intervals x = (x1, x2) and y = (y1, y2)
# is a 2x2 grid of point relations: entry [i][k] relates endpoint x_{i+1} to
# endpoint y_{k+1}, each one of '<', '=', '>'.

_ALLEN_ENDPOINTS: Dict[str, Tuple[Tuple[str, str], Tuple[str, str]]] = {
    "b":  (("<", "<"), ("<", "<")),
    "bi": ((">", ">"), (">", ">")),
    "m":  (("<", "<"), ("=", "<")),
    "mi": ((">", "="), (">", ">")),
    "o":  (("<", "<"), (">", "<")),
    "oi": ((">", "<"), (">", ">")),
    "s":  (("=", "<"), (">", "<")),
    "si": (("=", "<"), (">", ">")),
    "d":  ((">", "<"), (">", "<")),
    "di": (("<", "<"), (">", ">")),
    "f":  ((">", "<"), (">", "=")),
    "fi": (("<", "<"), (">", "=")),
    "eq": (("=", "<"), (">", "=")),
}

# Interval relations with no TimeML label (overlap and its converse) simply
# contribute nothing when a composition result is decoded back to labels.
_ALLEN_TO_TIMEML = {
    "b": RelType.BEFORE,
    "bi": RelType.AFTER,
    "m": RelType.IBEFORE,
    "mi": RelType.IAFTER,
    "di": RelType.INCLUDES,
    "d": RelType.IS_INCLUDED,
    "s": RelType.BEGINS,
    "si": RelType.BEGUN_BY,
    "f": RelType.ENDS,
    "fi": RelType.ENDED_BY,
    "eq": RelType.SIMULTANEOUS,
}

_TIMEML_TO_ALLEN = {
    r: name for name, canon in _ALLEN_TO_TIMEML.items() for r in synonyms(canon)
}


def _point_compose(x: str, y: str) -> frozenset:
    """Relations possible between points u, w given u x v and v y w."""
    if x == "=":
        return frozenset(y)
    if y in ("=", x):
        return frozenset(x)
    return frozenset("<=>")


def _allen_compose(a: str, b: str) -> frozenset:
    """Basic-relation composition derived from endpoint constraints.

    Point relations between the endpoints of p and r are composed through the
    shared interval q; a candidate relation is possible iff its endpoint grid
    agrees with every composed constraint.
    """
    ga, gb = _ALLEN_ENDPOINTS[a], _ALLEN_ENDPOINTS[b]
    grid = [[None, None], [None, None]]
    for i in range(2):
        for k in range(2):
            allowed = frozenset("<=>")
            for j in range(2):
                allowed &= _point_compose(ga[i][j], gb[j][k])
            grid[i][k] = allowed
    out = set()
    for cand, gc in _ALLEN_ENDPOINTS.items():
        if all(gc[i][k] in grid[i][k] for i in range(2) for k in range(2)):
            out.add(cand)
    return frozenset(out)


def relation_from_intervals(x: Tuple[int, int], y: Tuple[int, int]) -> Optional[RelType]:
    """Canonical TimeML label holding between two concrete intervals.

    Returns None when the intervals overlap in the one configuration TimeML
    cannot express (Allen overlaps / overlapped-by).
    """
    if not (x[0] < x[1] and y[0] < y[1]):
        raise ValueError("intervals must have positive extent")

    def cmp(u, v):
        return "<" if u < v else (">" if u > v else "=")

    grid = ((cmp(x[0], y[0]), cmp(x[0], y[1])), (cmp(x[1], y[0]), cmp(x[1], y[1])))
    for name, g in _ALLEN_ENDPOINTS.items():
        if g == grid:
            return _ALLEN_TO_TIMEML.get(name)
    raise AssertionError("unreachable: endpoint grid matches no basic relation")


# --- label masks -----------------------------------------------------------
#
# Composition results are sets of canonical labels held as 14-bit masks
# (bit = ordinal - 1); they never leave this module.

_BIT = {r: 1 << (r.value - 1) for r in NON_NONE}


def _labels(mask: int) -> Tuple[RelType, ...]:
    """The labels of a mask, in ordinal order."""
    return tuple(r for r in NON_NONE if mask & _BIT[r])


# --- composition table ------------------------------------------------------
#
# Entries hold canonical labels only; synonym arguments share the entry of
# their canonical label.

_COMPOSITION: Dict[Tuple[RelType, RelType], int] = {
    (a, b): sum(
        _BIT[_ALLEN_TO_TIMEML[name]]
        for name in _allen_compose(_TIMEML_TO_ALLEN[a], _TIMEML_TO_ALLEN[b])
        if name in _ALLEN_TO_TIMEML
    )
    for a in NON_NONE
    for b in NON_NONE
}


def compose(a: RelType, b: RelType) -> FrozenSet[RelType]:
    """Set of labels consistent with a(p,q) and b(q,r); canonical labels only."""
    if a is RelType.NONE or b is RelType.NONE:
        raise ValueError("composition with NONE is undefined")
    return frozenset(_labels(_COMPOSITION[(a, b)]))


def dump_table() -> str:
    """Hand-auditable 14x14 grid, rows/cols in ordinal order.

    Cells are comma-separated label names; '-' marks an empty cell.
    """
    lines = ["\t".join(["."] + [r.name for r in NON_NONE])]
    for a in NON_NONE:
        cells = [",".join(r.name for r in _labels(_COMPOSITION[(a, b)])) or "-"
                 for b in NON_NONE]
        lines.append("\t".join([a.name] + cells))
    return "\n".join(lines) + "\n"


# --- event graphs -----------------------------------------------------------


class _Inconsistent:
    """Type of the INCONSISTENT sentinel that closure returns; compare with `is`."""

    def __repr__(self):
        return "INCONSISTENT"


INCONSISTENT = _Inconsistent()


class EventGraph:
    """Undirected storage of labeled entity pairs, one edge per unordered pair.

    Edges are stored with endpoints in lexicographic order; reading an edge
    against its stored direction yields the inverted label.  No self-loops.
    """

    def __init__(self, nodes: Iterable[str] = ()):
        self.nodes = set(nodes)
        self._edges: Dict[Tuple[str, str], RelType] = {}

    def set_relation(self, p: str, q: str, rel: RelType) -> None:
        if p == q:
            raise ValueError(f"self-loop on {p!r}")
        self.nodes.add(p)
        self.nodes.add(q)
        if p < q:
            self._edges[(p, q)] = rel
        else:
            self._edges[(q, p)] = invert(rel)

    def get(self, p: str, q: str) -> Optional[RelType]:
        """Label read in direction p -> q, or None if the pair is unlabeled."""
        if p < q:
            return self._edges.get((p, q))
        rel = self._edges.get((q, p))
        return None if rel is None else invert(rel)

    def edges(self) -> Iterator[Tuple[str, str, RelType]]:
        for (p, q), rel in sorted(self._edges.items()):
            yield p, q, rel

    def __len__(self) -> int:
        return len(self._edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EventGraph)
            and self.nodes == other.nodes
            and self._edges == other._edges
        )


# What closure returns.  Not typing.Union: typing caches that object for the
# process, and it would keep this module's globals alive after a re-import.
Closure = EventGraph | _Inconsistent


# Endpoint relations as codes: 0 is "not entailed", and 1, 2, 3 are <, =, >.
# A label's grid is the four codes of x1?y1, x1?y2, x2?y1, x2?y2; as base-4
# digits they give the grid one number, which _GRID_LABEL decodes to the
# label's ordinal, or to 0 for a grid with no label (overlaps, or a cell not
# entailed).
_POINT_CODE = {"<": 1, "=": 2, ">": 3}
_LABEL_CELLS = np.zeros((len(RelType) + 1, 4), dtype=np.int64)
for _r in NON_NONE:
    _LABEL_CELLS[_r] = [_POINT_CODE[c] for row in _ALLEN_ENDPOINTS[_TIMEML_TO_ALLEN[_r]]
                        for c in row]
_GRID_LABEL = np.zeros(4 ** 4, dtype=np.int64)
for _r in CANONICAL_LABELS:
    _GRID_LABEL[_LABEL_CELLS[_r] @ 4 ** np.arange(3, -1, -1)] = _r


def closure(g: EventGraph) -> Closure:
    """The labels g entails, or INCONSISTENT.

    Each label is one interval relation, that is, four relations between the
    endpoints of its pair, each one of <, = and >.  The endpoint graph has a
    start and an end node per entity, a strict edge from each start to its
    end, and per labelled pair (NONE labels nothing) a strict edge for each
    endpoint < and a non-strict edge each way for each endpoint =.  With
    reach the reflexive-transitive closure of all edges, u strictly precedes
    v iff a path from u to v takes a strict edge: reach . strict . reach.
    These constraints lie in the point algebra without !=, where paths give
    the minimal network (Vilain & Kautz 1986; van Beek 1992): g is
    INCONSISTENT iff some node strictly precedes itself, and otherwise each
    endpoint pair is entailed to be < or >, entailed = when each reaches the
    other, and else may take either of two relations.  A pair of entities
    is pinned to a label iff all four of its endpoint relations are entailed
    and their grid is a label's; the overlap grids pin nothing, and no
    unlabelled pair is assumed not to overlap.

    reach is the fixpoint of repeated squaring, in float32: a product sums
    0/1 entries over at most 2n nodes, which stays exact below 2**24.
    """
    nodes = sorted(g.nodes)
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    linked = np.array([(index[p], index[q], rel) for p, q, rel in g.edges()
                       if rel is not RelType.NONE], dtype=np.int64).reshape(-1, 3)
    # node i is entity i's start and node n + i its end
    strict = np.zeros((2 * n, 2 * n), dtype=np.float32)
    strict[np.arange(n), np.arange(n, 2 * n)] = 1
    reach = np.eye(2 * n, dtype=np.float32)
    # cell c of a pair's grid relates endpoint c // 2 of p to endpoint c % 2 of q
    cells = _LABEL_CELLS[linked[:, 2]]
    x = linked[:, :1] + n * np.array([0, 0, 1, 1])
    y = linked[:, 1:2] + n * np.array([0, 1, 0, 1])
    lt, eq, gt = cells == 1, cells == 2, cells == 3
    strict[x[lt], y[lt]] = strict[y[gt], x[gt]] = 1
    reach[x[eq], y[eq]] = reach[y[eq], x[eq]] = 1
    reach = np.maximum(reach, strict)
    while True:
        squared = np.minimum(reach @ reach, 1)
        if np.array_equal(squared, reach):
            break
        reach = squared
    before = reach @ strict @ reach > 0
    if before.diagonal().any():
        return INCONSISTENT

    reach = reach > 0
    point = before + 2 * (reach & reach.T) + 3 * before.T
    grid = (64 * point[:n, :n] + 16 * point[:n, n:]
            + 4 * point[n:, :n] + point[n:, n:])
    labels = np.triu(_GRID_LABEL[grid], 1)
    out = EventGraph(g.nodes)
    i, j = np.nonzero(labels)
    for p, q, r in zip(i.tolist(), j.tolist(), labels[i, j].tolist()):
        out.set_relation(nodes[p], nodes[q], RelType(r))
    return out
