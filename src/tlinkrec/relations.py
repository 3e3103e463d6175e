"""TimeML relation vocabulary, interval-algebra composition, and closure.

The 14 TimeML relation labels (plus an artificial NONE) are grounded in the
interval algebra: every label maps to a basic interval relation, expressed as
order constraints between the four interval endpoints.  One table,
_ALLEN_ENDPOINTS, gives each label that grid of four relations, and the rest
of the vocabulary is derived from it: labels that share a grid are synonyms
(SIMULTANEOUS/IDENTITY, IS_INCLUDED/DURING and INCLUDES/DURING_INV), the
lowest ordinal among them canonical, and a label's converse has the grid
that swaps the two intervals.  Composition results are emitted in canonical
form (SIMULTANEOUS, IS_INCLUDED, INCLUDES).

Everything else is read off endpoint graphs, through one kernel,
_endpoint_order, which gives reachability and the INCONSISTENT flags for a
stack of labelled graphs; strict precedence is reach that does not go back.
At import it builds TRIANGLE[a, b, c], the label triples that three
intervals p, q, r can realise on pq, qr and pr: a graph of three entities is
realisable iff no endpoint strictly precedes itself (Allen 1983; Vilain &
Kautz 1986).  compose, dump_table and the program's label table read
TRIANGLE, so no entry is hand-typed.  entailed_labels() runs the kernel on a
stack of event graphs, as pair_stack() numbers them, and decides consistency
and entailment exactly; closure() is its one-graph form.  TimeML has no
label for two overlapping intervals, so a pair that may overlap is entailed
no label, and an unlabelled pair is never assumed not to overlap.
"""

from __future__ import annotations

import enum
from itertools import chain
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Sequence, Tuple

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

# --- endpoint semantics ----------------------------------------------------
#
# Each label is one basic interval relation between x = (x1, x2) and
# y = (y1, y2): the relations x1?y1, x1?y2, x2?y1 and x2?y2, each one of <, =
# and >.  This grid table is the one place the labels are defined; NONE has
# no grid, and Allen's overlaps and overlapped-by have no label.  Labels that
# share a grid are synonyms, and the lowest ordinal among them is canonical.
# A label's converse has the grid that swaps x and y: cells 1 and 2 change
# places, and < and > turn around.  It is that grid's canonical label if the
# label is canonical, and its synonym if not; NONE is its own converse.

_ALLEN_ENDPOINTS = {
    RelType.BEFORE: "<<<<",
    RelType.AFTER: ">>>>",
    RelType.IBEFORE: "<<=<",
    RelType.IAFTER: ">=>>",
    RelType.INCLUDES: "<<>>",
    RelType.IS_INCLUDED: "><><",
    RelType.DURING: "><><",
    RelType.DURING_INV: "<<>>",
    RelType.BEGINS: "=<><",
    RelType.BEGUN_BY: "=<>>",
    RelType.ENDS: "><>=",
    RelType.ENDED_BY: "<<>=",
    RelType.SIMULTANEOUS: "=<>=",
    RelType.IDENTITY: "=<>=",
}

# Each grid's labels in ordinal order, so the canonical one first.
_SHARING: Dict[str, list] = {}
for _r in NON_NONE:
    _SHARING.setdefault(_ALLEN_ENDPOINTS[_r], []).append(_r)
CANONICAL_LABELS = tuple(same[0] for same in _SHARING.values())
_INVERSE = {RelType.NONE: RelType.NONE}
_CANONICAL = {}
for _grid, _same in _SHARING.items():
    _turned = (_grid[0] + _grid[2] + _grid[1] + _grid[3]).translate(str.maketrans("<>", "><"))
    for _r, _converse in zip(_same, _SHARING[_turned], strict=True):
        _INVERSE[_r], _CANONICAL[_r] = _converse, _same[0]


def invert(r: RelType) -> RelType:
    """Converse label; total over all 15 labels and involutive."""
    return _INVERSE[r]


def collapse(r: RelType) -> RelType:
    """Map a label onto its canonical synonym (identity for most labels)."""
    return _CANONICAL.get(r, r)


# The endpoint relations as codes: 0 is "not entailed" (or NONE's, which
# relates nothing), and 1, 2, 3 are <, =, >.  As base-4 digits a grid's four
# codes give it one number, which _GRID_LABEL decodes to the label's ordinal,
# or to 0 for a grid with no label (overlaps, or a cell not entailed).
_LABEL_CELLS = np.zeros((len(RelType) + 1, 4), dtype=np.int8)
for _r in NON_NONE:
    _LABEL_CELLS[_r] = [" <=>".index(c) for c in _ALLEN_ENDPOINTS[_r]]
_GRID_LABEL = np.zeros(4 ** 4, dtype=np.int64)
for _r in CANONICAL_LABELS:
    _GRID_LABEL[_LABEL_CELLS[_r] @ 4 ** np.arange(3, -1, -1)] = _r


def relation_from_intervals(x: Tuple[int, int], y: Tuple[int, int]) -> Optional[RelType]:
    """Canonical TimeML label holding between two concrete intervals.

    Returns None when the intervals overlap in the one configuration TimeML
    cannot express (Allen overlaps / overlapped-by).
    """
    if not (x[0] < x[1] and y[0] < y[1]):
        raise ValueError("intervals must have positive extent")
    grid = 0
    for u in x:
        for v in y:
            grid = 4 * grid + 2 + (u > v) - (u < v)
    label = _GRID_LABEL.item(grid)
    return RelType(label) if label else None


def _components(n: int, rows: np.ndarray) -> np.ndarray:
    """Each of n nodes' component, as its least node index; two nodes are
    connected when they share a row of rows, an (m, w) array of node indices.

    A label is never above its node and always names a node of its component.
    Each round lowers, for every row, the label of each label its nodes hold
    to the row's least label, and then replaces every label by its label's
    (pointer jumping), which halves the chains of labels; it stops at the
    first round that changes nothing.  Then every label is its own label and
    a row's nodes hold one label, so a component holds one, its least node.
    """
    # Flat, column by column: ufunc.at with a value array of the index's
    # shape takes numpy's fast path, and a broadcast value does not (at
    # numpy 2.4.6, a (3, m) index with an (m,) value also crashed once m
    # passed a few thousand).
    width = rows.shape[1]
    label, nodes = np.arange(n), rows.T.ravel()
    while True:
        low, held = label.copy(), label[nodes]
        np.minimum.at(low, held, np.tile(np.minimum.reduce(held.reshape(width, -1)), width))
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


def _endpoint_order(n: int, linked: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reachability in a stack of endpoint graphs, and which are INCONSISTENT.

    linked is (k, m, 3): graph g's m rows (i, j, ordinal) label pairs of its
    entities 0..n-1.  Node i is entity i's start and node n + i its end.  A
    graph has a strict edge from each start to its end, and per labelled
    pair (NONE labels nothing) a strict edge for each endpoint < and a
    non-strict edge each way for each endpoint =.  Returns reach, the
    (c, 2n, 2n) bool reflexive-transitive closure of the edges of the c
    graphs that are not INCONSISTENT, in stack order, and the (k,) flags of
    the INCONSISTENT graphs, those where a strict edge (u, v) has
    reach[v, u], that is, lies on a cycle.  Every non-strict edge goes both
    ways, so in the other graphs u strictly precedes v iff reach[u, v] and
    not reach[v, u].

    Nodes joined by '=' edges are merged into classes first (_components),
    numbered from 0 within each graph, and the stack is padded to the most
    classes of any graph left in it.  The class graph's edges are all
    strict, and its reach is the fixpoint of repeated squaring, in float32:
    a product sums 0/1 entries over at most 2n classes, which stays exact
    below 2**24.  Reach only grows, so a cycle found early is a real one:
    the flags are checked before the first squaring (where a strict edge
    inside one class shows) and after each, and a graph leaves the stack
    once it is flagged.
    """
    k, size = len(linked), 2 * n
    # Node g * size + u is node u of graph g.  Cell c of a pair's grid
    # relates endpoint c // 2 of i, x, to endpoint c % 2 of j, y.
    cells = _LABEL_CELLS[linked[..., 2]]
    offset = np.arange(k)[:, None, None] * size
    x = offset + linked[..., :1] + n * np.array([0, 0, 1, 1])
    y = offset + linked[..., 1:2] + n * np.array([0, 1, 0, 1])
    # The strict edges tail -> head, each in graph owner: each start to its
    # end, each < (code 1) as x -> y and each > (code 3) as y -> x.  When n
    # is 0 there are none, so owner divides no edge by size 0.
    gt, strict, eq = cells == 3, cells % 2 == 1, cells == 2
    starts = (offset[:, 0] + np.arange(n)).ravel()
    tail = np.concatenate([starts, np.where(gt, y, x)[strict]])
    head = np.concatenate([starts + n, np.where(gt, x, y)[strict]])
    owner = tail // size
    # Each node's class, numbered from 0 within its graph.
    label = _components(k * size, np.stack([x[eq], y[eq]], axis=1))
    del x, y  # (k, m, 4) each: on a dense stack, nearly reach's size
    root = label == np.arange(k * size)
    classes = root.reshape(k, size).sum(axis=1)
    number = (np.cumsum(root) - 1)[label] - np.repeat(np.cumsum(classes) - classes, size)
    tail, head = number[tail], number[head]
    width = classes.max(initial=0)
    reach = np.zeros((k, width, width), dtype=np.float32)
    reach[:, np.arange(width), np.arange(width)] = 1
    reach[owner, tail, head] = 1
    alive = np.arange(k)  # the graph of each layer of reach
    inconsistent = np.zeros(k, dtype=bool)
    while True:
        cyclic = np.zeros(len(alive), dtype=bool)
        cyclic[owner[reach.reshape(-1)[(owner * width + head) * width + tail] > 0]] = True
        if cyclic.any():
            inconsistent[alive[cyclic]] = True
            kept = ~cyclic
            alive = alive[kept]
            width = classes[alive].max(initial=0)
            reach = reach[kept, :width, :width]
            on = kept[owner]
            owner, tail, head = (np.cumsum(kept) - 1)[owner[on]], tail[on], head[on]
        # Clipped in place: a stack holds k of each (width, width) float32
        # array, so every live temporary counts.
        squared = reach @ reach
        np.minimum(squared, 1, out=squared)
        if np.array_equal(squared, reach):
            break
        reach = squared
    # reach[g, u, v] is the class reach at (class of u, class of v): rows
    # gathered, then columns, as the rows of the transpose.
    graph, node_class = np.arange(len(alive))[:, None], number.reshape(k, size)[alive]
    reach = (reach > 0)[graph, node_class].transpose(0, 2, 1)[graph, node_class]
    return reach.transpose(0, 2, 1), inconsistent


def _triangle_table() -> np.ndarray:
    """TRIANGLE[a, b, c] (ordinals - 1): a on pq, b on qr and c on pr are
    jointly realisable, that is, their endpoint graph has no strict cycle.

    A synonym has its canonical label's grid, so the graphs are built over
    the 11 canonical labels and NONE only, and each label reads its
    canonical synonym's entries.  The 12 ** 3 graphs are closed in six
    stacks, two pq grids each: one stack of them all would raise the
    import's peak memory by about 1 MB, and each kernel call has a fixed
    cost, which one stack per pq grid would pay twelve times.
    """
    grids = [*CANONICAL_LABELS, RelType.NONE]
    size = len(grids)
    # Graph i links p, q, r = 0, 1, 2 by pq, qr and pr with the i-th triple
    # of grids, in C order.
    linked = np.empty((size ** 3, 3, 3), dtype=np.int64)
    linked[:, :, :2] = [[0, 1], [1, 2], [0, 2]]
    linked[:, :, 2] = np.array(grids)[np.indices((size,) * 3).reshape(3, -1).T]
    inconsistent = np.concatenate([_endpoint_order(3, stack)[1]
                                   for stack in np.split(linked, 6)])
    at = [grids.index(collapse(r)) for r in RelType]
    table = ~inconsistent.reshape((size,) * 3)[np.ix_(at, at, at)]
    table.flags.writeable = False  # one copy for every reader
    return table


TRIANGLE = _triangle_table()


def compose(a: RelType, b: RelType) -> FrozenSet[RelType]:
    """Set of labels consistent with a(p,q) and b(q,r); canonical labels only."""
    if a is RelType.NONE or b is RelType.NONE:
        raise ValueError("composition with NONE is undefined")
    return frozenset(c for c in CANONICAL_LABELS if TRIANGLE[a - 1, b - 1, c - 1])


def dump_table() -> str:
    """Hand-auditable 14x14 grid, rows/cols in ordinal order.

    Cells are comma-separated label names; '-' marks an empty cell.
    """
    lines = ["\t".join(["."] + [r.name for r in NON_NONE])]
    for a in NON_NONE:
        cells = [",".join(r.name for r in sorted(compose(a, b))) or "-"
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


def pair_stack(graphs: Sequence[EventGraph], indexes: Sequence[Dict[str, int]]) -> np.ndarray:
    """The (k, m, 3) rows (i, j, ordinal) of k graphs' edges, each graph's
    nodes numbered by its index in indexes, for _endpoint_order; m is the
    most edges of any graph, and the rows a graph lacks are (0, 0, NONE),
    which relates nothing."""
    sizes = [len(g) for g in graphs]
    linked = np.zeros((len(graphs), max(sizes, default=0), 3), dtype=np.int64)
    linked[..., 2] = RelType.NONE
    # Every graph's edges in one pass each for endpoints and labels, filling
    # graph k's first sizes[k] rows.
    filled = np.arange(linked.shape[1]) < np.array(sizes, dtype=np.int64)[:, None]
    ends = chain.from_iterable(map(index.__getitem__, chain.from_iterable(g._edges))
                               for g, index in zip(graphs, indexes))
    linked[filled, :2] = np.fromiter(ends, np.int64, 2 * sum(sizes)).reshape(-1, 2)
    linked[filled, 2] = np.fromiter(chain.from_iterable(g._edges.values() for g in graphs),
                                    np.int64, sum(sizes))
    return linked


def entailed_labels(n: int, linked: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The labels a stack of graphs entails, and which graphs are INCONSISTENT.

    linked is _endpoint_order's (k, m, 3) stack over entities 0..n-1.  Each
    label is one interval relation, that is, four relations between the
    endpoints of its pair, each one of <, = and >.  These constraints lie in
    the point algebra without !=, where paths give the minimal network
    (Vilain & Kautz 1986; van Beek 1992): a graph is INCONSISTENT iff some
    node strictly precedes itself, and otherwise each endpoint pair is
    entailed to be < or >, entailed = when each reaches the other, and else
    may take either of two relations.  A pair of entities is pinned to a
    label iff all four of its endpoint relations are entailed and their grid
    is a label's; the overlap grids pin nothing, and no unlabelled pair is
    assumed not to overlap.

    Returns the (k, n, n) ordinals entailed on each ordered pair, 0 for none
    (an entity is SIMULTANEOUS with itself), and the (k,) INCONSISTENT
    flags; an INCONSISTENT graph's ordinals are all 0.
    """
    reach, inconsistent = _endpoint_order(n, linked)
    back = reach.transpose(0, 2, 1)
    before = reach & ~back
    # Codes and grid numbers (at most 4 ** 4 - 1) fit uint8: small temporaries.
    point = (before.view(np.uint8) + np.uint8(2) * (reach & back)
             + np.uint8(3) * before.transpose(0, 2, 1))
    grid = (64 * point[:, :n, :n] + 16 * point[:, :n, n:]
            + 4 * point[:, n:, :n] + point[:, n:, n:])
    labels = np.zeros((len(linked), n, n), dtype=_GRID_LABEL.dtype)
    labels[~inconsistent] = _GRID_LABEL[grid]
    return labels, inconsistent


def closure(g: EventGraph) -> EventGraph | _Inconsistent:
    """The labels g entails (see entailed_labels), or INCONSISTENT."""
    nodes = sorted(g.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    (labels,), (inconsistent,) = entailed_labels(len(nodes), pair_stack([g], [index]))
    if inconsistent:
        return INCONSISTENT
    out = EventGraph(g.nodes)
    i, j = np.nonzero(np.triu(labels, 1))
    for p, q, r in zip(i.tolist(), j.tolist(), labels[i, j].tolist()):
        out.set_relation(nodes[p], nodes[q], RelType(r))
    return out
