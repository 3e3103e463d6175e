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
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple, Union


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
# (bit = ordinal - 1); they never leave this module.

_BIT = {r: 1 << (r.value - 1) for r in NON_NONE}
_CANONICAL_MASK = 0
for _r in CANONICAL_LABELS:
    _CANONICAL_MASK |= _BIT[_r]
_SINGLE = {_BIT[r]: r for r in CANONICAL_LABELS}


def _labels(mask: int) -> Tuple[RelType, ...]:
    """The labels of a mask, in ordinal order."""
    return tuple(r for r in NON_NONE if mask & _BIT[r])


@lru_cache(maxsize=None)
def _invert_mask(mask: int) -> int:
    out = 0
    for r in _labels(mask):
        out |= _BIT[_INVERSE[r]]
    return out


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


@lru_cache(maxsize=None)
def _compose_masks(mask_a: int, mask_b: int) -> int:
    out = 0
    for a in _labels(mask_a):
        for b in _labels(mask_b):
            out |= _COMPOSITION[(a, b)]
    return out


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


def closure(g: EventGraph) -> Union[EventGraph, _Inconsistent]:
    """The labels g entails, or INCONSISTENT.

    Every pair starts at the full canonical set, or at its collapsed label if
    g labels it (NONE labels nothing); every pair is then repeatedly
    intersected with the composition along each two-edge path until
    fixpoint.  The result holds each pair the fixpoint pins to one canonical
    label.  Naive triple iteration; documents here have at most a few
    hundred nodes.
    """
    nodes = sorted(g.nodes)
    n = len(nodes)
    m = [[_CANONICAL_MASK] * n for _ in range(n)]
    index = {node: i for i, node in enumerate(nodes)}
    for p, q, rel in g.edges():
        if rel is not RelType.NONE:
            i, j = index[p], index[q]
            m[i][j] = _BIT[collapse(rel)]
            m[j][i] = _invert_mask(m[i][j])

    changed = True
    while changed:
        changed = False
        for i in range(n):
            mi = m[i]
            for j in range(i + 1, n):
                cur = mi[j]
                for k in range(n):
                    if k == i or k == j:
                        continue
                    cur &= _compose_masks(mi[k], m[k][j])
                    if cur == 0:
                        return INCONSISTENT
                if cur != mi[j]:
                    mi[j] = cur
                    m[j][i] = _invert_mask(cur)
                    changed = True

    out = EventGraph(g.nodes)
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] in _SINGLE:
                out.set_relation(nodes[i], nodes[j], _SINGLE[m[i][j]])
    return out
