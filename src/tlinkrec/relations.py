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
"""

from __future__ import annotations

import enum
import functools
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
# Closure works on sets of canonical labels held as 14-bit masks
# (bit = ordinal - 1); they never leave this module except to the test
# referee.

_BIT = {r: 1 << (r.value - 1) for r in NON_NONE}
_CANONICAL_MASK = 0
for _r in CANONICAL_LABELS:
    _CANONICAL_MASK |= _BIT[_r]
_SINGLE = {_BIT[r]: r for r in CANONICAL_LABELS}
_CANONICAL_BITS = np.array([_BIT[r] for r in CANONICAL_LABELS], dtype=np.uint16)


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


_BLOCK_CELLS = 1 << 16  # cells a closure sweep builds or gathers at a time


@functools.cache
def _label_rows() -> np.ndarray:
    """rows[a, y]: the mask of compose over CANONICAL_LABELS[a] and every label
    of mask y, for all 2**14 masks y."""
    rows = np.zeros((len(CANONICAL_LABELS), 1 << 14), dtype=np.uint16)
    for b, label in enumerate(NON_NONE):  # masks y < 2**b are done: add bit b
        composed = np.array([_COMPOSITION[(a, label)] for a in CANONICAL_LABELS],
                            dtype=np.uint16)
        rows[:, 1 << b:2 << b] = rows[:, :1 << b] | composed[:, None]
    rows.flags.writeable = False
    return rows


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


def closure(g: EventGraph) -> Closure:
    """The labels g entails, or INCONSISTENT.

    Every pair starts at the full canonical set, or at its collapsed label if
    g labels it (NONE labels nothing), and each node relates to itself by
    SIMULTANEOUS, the identity of composition.  Whole-array sweeps then set
    every pair (i, j) to the intersection over all nodes k of the composition
    along i -> k -> j, until a sweep changes nothing; any empty pair makes g
    INCONSISTENT.  The sweep is monotone and never enlarges a pair, so it
    reaches the same greatest fixpoint as revising one pair at a time in any
    order.  The result holds each pair the fixpoint pins to one canonical
    label.

    A sweep composes the u distinct masks present into a u x u table and
    gathers it for a block of rows i at a time, over all (k, j), before
    reducing over k.  The table is built and gathered in blocks of at most
    _BLOCK_CELLS cells (one row if a row alone has more), so besides a few
    n x n arrays and the table a sweep holds at most 10 bytes per block cell:
    a gather index and its uint16 masks.
    """
    nodes = sorted(g.nodes)
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    m = np.full((n, n), _CANONICAL_MASK, dtype=np.uint16)
    np.fill_diagonal(m, _BIT[RelType.SIMULTANEOUS])
    for p, q, rel in g.edges():
        if rel is not RelType.NONE:
            m[index[p], index[q]] = _BIT[collapse(rel)]
            m[index[q], index[p]] = _BIT[invert(collapse(rel))]

    rows = _label_rows()
    block = max(1, _BLOCK_CELLS // max(1, n * n))
    while True:
        masks = np.unique(m)
        u, at = len(masks), np.searchsorted(masks, m)
        # table[s, t] = compose(masks[s], masks[t]): over the labels a of
        # masks[s], the union of rows[a, masks[t]]
        labels_of = (masks[:, None, None] & _CANONICAL_BITS[:, None]) != 0
        composed, table = rows[:, masks], np.empty((u, u), dtype=np.uint16)
        step = max(1, _BLOCK_CELLS // max(1, composed.size))
        for s in range(0, u, step):
            table[s:s + step] = np.bitwise_or.reduce(
                np.where(labels_of[s:s + step], composed, 0), axis=1)
        flat, row_at = table.ravel(), at * u
        swept = np.empty_like(m)
        for r in range(0, n, block):
            # cell [i, k, j] composes m[i, k] with m[k, j]
            swept[r:r + block] = np.bitwise_and.reduce(
                flat.take(row_at[r:r + block, :, None] + at[None]), axis=1)
            if not swept[r:r + block].all():
                return INCONSISTENT
        if np.array_equal(swept, m):
            break
        m = swept

    out = EventGraph(g.nodes)
    i, j = np.nonzero((m & (m - 1)) == 0)  # pairs pinned to one label
    for i, j in zip(i[i < j].tolist(), j[i < j].tolist()):
        out.set_relation(nodes[i], nodes[j], _SINGLE[int(m[i, j])])
    return out
