import random
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tlinkrec.relations import (
    CANONICAL_LABELS,
    EventGraph,
    INCONSISTENT,
    NON_NONE,
    RelType,
    closure,
    collapse,
    compose,
    dump_table,
    entailed_labels,
    invert,
    pair_stack,
    relation_from_intervals,
)
from tlinkrec.relations import _GRID_LABEL, _LABEL_CELLS, _endpoint_order

from point_oracle import oracle_composition_table, oracle_inverse_table, rel_between
from referees import (is_consistent_labeling, model_closure,
                      path_consistency_closure)


def to_names(rs):
    return {r.name for r in rs}


def inverted(rs):
    return frozenset(invert(r) for r in rs)


# The converse and synonym facts, typed out once here, so that a change in
# how relations.py gets them shows as a changed label.
CONVERSES = {
    "BEFORE": "AFTER", "AFTER": "BEFORE",
    "IBEFORE": "IAFTER", "IAFTER": "IBEFORE",
    "INCLUDES": "IS_INCLUDED", "IS_INCLUDED": "INCLUDES",
    "DURING": "DURING_INV", "DURING_INV": "DURING",
    "BEGINS": "BEGUN_BY", "BEGUN_BY": "BEGINS",
    "ENDS": "ENDED_BY", "ENDED_BY": "ENDS",
    "SIMULTANEOUS": "SIMULTANEOUS", "IDENTITY": "IDENTITY",
    "NONE": "NONE",
}
SYNONYMS = {"DURING": "IS_INCLUDED", "DURING_INV": "INCLUDES",
            "IDENTITY": "SIMULTANEOUS"}

intervals = st.lists(st.integers(0, 7), min_size=2, max_size=2,
                     unique=True).map(sorted).map(tuple)


class TestVocabulary:
    def test_every_converse(self):
        assert {r.name: invert(r).name for r in RelType} == CONVERSES

    def test_synonyms_and_canonical_labels(self):
        assert {r.name: collapse(r).name for r in RelType
                if collapse(r) is not r} == SYNONYMS
        assert [r.name for r in CANONICAL_LABELS] == [
            r.name for r in NON_NONE if r.name not in SYNONYMS]

    @pytest.mark.parametrize("r", list(RelType))
    def test_collapse_commutes_with_invert(self, r):
        assert collapse(invert(r)) is invert(collapse(r))

    @settings(max_examples=200)
    @given(intervals, intervals)
    def test_swapped_intervals_give_the_converse(self, x, y):
        rel = relation_from_intervals(x, y)
        back = relation_from_intervals(y, x)
        if rel is None:  # overlaps and overlapped-by have no label
            assert back is None
        else:
            assert back is invert(rel)


class TestInvert:
    def test_before_after(self):
        assert invert(RelType.BEFORE) is RelType.AFTER

    def test_simultaneous_fixed(self):
        assert invert(RelType.SIMULTANEOUS) is RelType.SIMULTANEOUS
        assert invert(RelType.IDENTITY) is RelType.IDENTITY
        assert invert(RelType.NONE) is RelType.NONE

    def test_begins(self):
        assert invert(RelType.BEGINS) is RelType.BEGUN_BY

    @pytest.mark.parametrize("r", list(RelType))
    def test_involution(self, r):
        assert invert(invert(r)) is r

    def test_matches_point_oracle(self):
        # The oracle works on canonical labels; synonyms must agree with it
        # up to the collapse mapping.
        oracle = oracle_inverse_table()
        for r in NON_NONE:
            assert collapse(invert(r)).name == oracle[collapse(r).name]


class TestCompose:
    def test_before_before(self):
        assert to_names(compose(RelType.BEFORE, RelType.BEFORE)) == {"BEFORE"}

    def test_identity_is_neutral(self):
        for r in NON_NONE:
            assert to_names(compose(RelType.IDENTITY, r)) == {collapse(r).name}
            assert to_names(compose(r, RelType.IDENTITY)) == {collapse(r).name}

    def test_before_after_full(self):
        assert compose(RelType.BEFORE, RelType.AFTER) == set(CANONICAL_LABELS)

    def test_none_rejected(self):
        with pytest.raises(ValueError):
            compose(RelType.NONE, RelType.BEFORE)
        with pytest.raises(ValueError):
            compose(RelType.BEFORE, RelType.NONE)

    def test_full_table_matches_point_oracle(self):
        oracle = oracle_composition_table()
        for a in NON_NONE:
            for b in NON_NONE:
                expected = oracle[collapse(a).name][collapse(b).name]
                assert to_names(compose(a, b)) == expected, (a, b)

    def test_converse_composition_duality(self):
        for a in NON_NONE:
            for b in NON_NONE:
                lhs = compose(a, b)
                rhs = inverted(compose(invert(b), invert(a)))
                assert lhs == rhs, (a, b)

    def test_synonyms_share_entries(self):
        assert compose(RelType.DURING, RelType.BEFORE) == \
            compose(RelType.IS_INCLUDED, RelType.BEFORE)
        assert compose(RelType.BEFORE, RelType.DURING_INV) == \
            compose(RelType.BEFORE, RelType.INCLUDES)


class TestRelationFromIntervals:
    def test_every_placement_on_four_points_matches_point_oracle(self):
        placements = 0
        for x1, x2, y1, y2 in product(range(4), repeat=4):
            if x1 < x2 and y1 < y2:
                rel = relation_from_intervals((x1, x2), (y1, y2))
                assert (rel and rel.name) == rel_between(x1, x2, y1, y2)
                placements += 1
            else:  # zero or negative extent
                with pytest.raises(ValueError, match="positive extent"):
                    relation_from_intervals((x1, x2), (y1, y2))
        assert placements == 36


def chain_graph(*labels):
    g = EventGraph()
    for i, rel in enumerate(labels):
        g.set_relation(f"n{i}", f"n{i + 1}", rel)
    return g


class TestClosure:
    def test_before_chain_infers_before(self):
        g = chain_graph(RelType.BEFORE, RelType.BEFORE)
        closed = closure(g)
        assert closed is not INCONSISTENT
        assert closed.get("n0", "n2") is RelType.BEFORE

    def test_empty_graph(self):
        assert closure(EventGraph()) == EventGraph()

    def test_before_cycle_inconsistent(self):
        g = chain_graph(RelType.BEFORE, RelType.BEFORE)
        g.set_relation("n2", "n0", RelType.BEFORE)
        assert closure(g) is INCONSISTENT

    def test_idempotent(self):
        rng = random.Random(4)
        for _ in range(25):
            g = random_model_graph(rng, rng.randint(3, 6), density=0.7)
            closed = closure(g)
            assert closed is not INCONSISTENT
            assert closure(closed) == closed

    def test_monotone_never_enlarges(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_model_graph(rng, rng.randint(3, 6), density=0.7)
            closed = closure(g)
            for p, q, rel in g.edges():
                assert closed.get(p, q) is collapse(rel)

    def test_none_edges_are_unconstrained(self):
        g = chain_graph(RelType.BEFORE, RelType.BEFORE)
        g.set_relation("n0", "n2", RelType.NONE)
        closed = closure(g)
        assert closed.get("n0", "n2") is RelType.BEFORE

    def test_long_chain_spans_several_row_blocks(self):
        n = 120
        chain = chain_graph(*[RelType.BEFORE] * (n - 1))
        closed = closure(chain)
        assert closed is not INCONSISTENT
        assert len(closed) == 7140
        assert all(closed.get(f"n{i}", f"n{j}") is RelType.BEFORE
                   for i, j in combinations(range(n), 2))

    def test_long_cycle_inconsistent(self):
        cycle = chain_graph(*[RelType.BEFORE] * 119)
        cycle.set_relation("n119", "n0", RelType.BEFORE)
        assert closure(cycle) is INCONSISTENT

    def test_sound_on_interval_models(self):
        # Every entailed label is the relation the model's intervals have,
        # also where intervals may overlap: such a pair is left unlabelled.
        for avoid_overlap in (True, False):
            rng = random.Random(8)
            entailed = 0
            for _ in range(300):
                intervals, g = random_model(rng, rng.randint(3, 9),
                                            density=rng.choice((0.3, 0.5, 0.7)),
                                            avoid_overlap=avoid_overlap)
                closed = closure(g)
                assert closed is not INCONSISTENT, (avoid_overlap, intervals)
                for p, q, rel in closed.edges():
                    x, y = intervals[int(p[1:])], intervals[int(q[1:])]
                    assert rel is relation_from_intervals(x, y), (p, q, rel)
                    entailed += 1
            assert entailed > 2000

    def test_counterexample_begun_by_then_ends_is_consistent(self):
        # (1, 4), (1, 2), (0, 2) realise both links; the label-mask closure
        # assumed n0 and n2 do not overlap and called the graph INCONSISTENT.
        x, y, z = (1, 4), (1, 2), (0, 2)
        assert relation_from_intervals(x, y) is RelType.BEGUN_BY
        assert relation_from_intervals(y, z) is RelType.ENDS
        assert relation_from_intervals(x, z) is None  # they overlap
        closed = closure(chain_graph(RelType.BEGUN_BY, RelType.ENDS))
        assert closed is not INCONSISTENT
        assert closed.get("n0", "n2") is None

    def test_counterexample_ended_by_is_included_ends_entails_no_label(self):
        # (0, 6), (4, 6), (2, 10), (1, 10) realise the three links while n0
        # and n3 overlap; the label-mask closure entailed n0 IS_INCLUDED n3.
        intervals = [(0, 6), (4, 6), (2, 10), (1, 10)]
        labels = (RelType.ENDED_BY, RelType.IS_INCLUDED, RelType.ENDS)
        for i, rel in enumerate(labels):
            assert relation_from_intervals(intervals[i], intervals[i + 1]) is rel
        assert relation_from_intervals(intervals[0], intervals[3]) is None
        closed = closure(chain_graph(*labels))
        assert closed is not INCONSISTENT
        assert closed.get("n0", "n3") is None
        assert closed.get("n1", "n3") is RelType.IS_INCLUDED


@st.composite
def perturbed_model_graphs(draw):
    """0-14 nodes over random intervals; some pairs labelled with the
    intervals' relation, and up to three of those relabelled NONE, with a
    synonym, or with any label, which may break consistency."""
    n = draw(st.integers(0, 14))
    intervals = [(s, s + d) for s, d in draw(st.lists(
        st.tuples(st.integers(0, 19), st.integers(1, 6)), min_size=n, max_size=n))]
    g = EventGraph(f"n{i}" for i in range(n))
    for i, j in combinations(range(n), 2):
        rel = relation_from_intervals(intervals[i], intervals[j])
        if rel is not None and draw(st.booleans()):
            g.set_relation(f"n{i}", f"n{j}", rel)
    edges = list(g.edges())
    if edges:
        for k in draw(st.lists(st.integers(0, len(edges) - 1), max_size=3)):
            p, q, _ = edges[k]
            g.set_relation(p, q, draw(st.sampled_from(
                (RelType.NONE, RelType.DURING, RelType.DURING_INV,
                 RelType.IDENTITY) + NON_NONE)))
    return g


@settings(max_examples=300, deadline=None)
@given(perturbed_model_graphs())
def test_closure_matches_naive_closure(g):
    closed = closure(g)
    assert closed == path_consistency_closure(g)  # INCONSISTENT equals only itself
    if len(g.nodes) <= 4:
        assert closed == model_closure(g)


def test_path_consistency_referee_matches_model_enumerator():
    rng = random.Random(10)
    inconsistent = 0
    for _ in range(150):
        _, g = random_model(rng, rng.randint(1, 4),
                            density=rng.choice((0.5, 0.8, 1.0)), avoid_overlap=False)
        for p, q, _ in list(g.edges())[:rng.randint(0, 2)]:
            g.set_relation(p, q, rng.choice(NON_NONE))
        expected = model_closure(g)
        inconsistent += expected is INCONSISTENT
        assert path_consistency_closure(g) == expected, list(g.edges())
    assert 10 < inconsistent < 140


def stacked(graphs, nodes):
    """entailed_labels of the graphs, stacked, over the sorted nodes."""
    index = {node: i for i, node in enumerate(nodes)}
    return entailed_labels(len(nodes), pair_stack(graphs, [index] * len(graphs)))


def before_cycle(n=3):
    g = chain_graph(*[RelType.BEFORE] * (n - 1))
    g.set_relation(f"n{n - 1}", "n0", RelType.BEFORE)
    return g


class TestStackedDecode:
    def test_stack_equals_one_call_per_graph(self):
        rng = random.Random(21)
        graphs = [random_model_graph(rng, rng.randint(0, 7), density=0.7)
                  for _ in range(10)] + [before_cycle(4), EventGraph()]
        graphs[3].set_relation("n0", "n1", RelType.NONE)
        rng.shuffle(graphs)
        nodes = sorted(set().union(*(g.nodes for g in graphs)))
        labels, inconsistent = stacked(graphs, nodes)
        assert inconsistent.sum() == 1
        for g, own, flag in zip(graphs, labels, inconsistent):
            (alone,), (alone_flag,) = stacked([g], nodes)
            assert np.array_equal(own, alone) and flag == alone_flag
            closed = closure(g)
            assert flag == (closed is INCONSISTENT)
            if not flag:
                for (i, p), (j, q) in combinations(enumerate(nodes), 2):
                    assert closed.get(p, q) is (RelType(own[i, j]) if own[i, j] else None)
                    assert closed.get(q, p) is (RelType(own[j, i]) if own[j, i] else None)

    def test_padding_rows_and_isolated_nodes_change_no_label(self):
        rng = random.Random(22)
        for _ in range(10):
            g = random_model_graph(rng, 5, density=0.8)
            nodes = sorted(g.nodes)
            (plain,), _ = stacked([g], nodes)
            wider = sorted(nodes + ["a", "n2x", "z"])
            index = {node: i for i, node in enumerate(wider)}
            padded = np.concatenate([pair_stack([g], [index]),
                                     np.tile([0, 0, RelType.NONE], (1, 4, 1))], axis=1)
            (labels,), (flag,) = entailed_labels(len(wider), padded)
            at = [index[node] for node in nodes]
            assert not flag
            assert np.array_equal(labels[np.ix_(at, at)], plain)
            extra = [index[node] for node in ("a", "n2x", "z")]
            off_diagonal = ~np.eye(len(wider), dtype=bool)
            assert not (labels[extra] * off_diagonal[extra]).any()
            assert not (labels[:, extra] * off_diagonal[:, extra]).any()

    def test_inconsistent_graph_decodes_to_zeros_beside_its_neighbours(self):
        # A strict cycle gives codes off the label grid; they must not reach it.
        neighbours = [chain_graph(RelType.BEFORE, RelType.INCLUDES, RelType.ENDS),
                      chain_graph(RelType.IBEFORE, RelType.IDENTITY)]
        nodes = ["n0", "n1", "n2", "n3"]
        labels, inconsistent = stacked([neighbours[0], before_cycle(), neighbours[1]],
                                       nodes)
        assert inconsistent.tolist() == [False, True, False]
        assert not labels[1].any()
        for own, g in zip(labels[::2], neighbours):
            assert np.array_equal(own, stacked([g], nodes)[0][0])
            assert own.any()


def squaring_endpoint_order(n, linked):
    """The closure kernel before '=' classes and early drops, copied verbatim
    (as _endpoint_order) as the referee for the kernel that replaced it:
    reach and before = reach . strict . reach, over every graph."""
    size = 2 * n
    strict = np.zeros((len(linked), size, size), dtype=np.float32)
    strict[:, np.arange(n), np.arange(n, size)] = 1
    # Cell c of a pair's grid relates endpoint c // 2 of i to endpoint c % 2
    # of j; xy and yx index the cell's edge each way in the flattened stack.
    cells = _LABEL_CELLS[linked[..., 2]]
    x = linked[..., :1] + n * np.array([0, 0, 1, 1])
    y = linked[..., 1:2] + n * np.array([0, 1, 0, 1])
    graph = np.arange(len(linked))[:, None, None] * size * size
    xy, yx = graph + x * size + y, graph + y * size + x
    lt, eq, gt = cells == 1, cells == 2, cells == 3
    strict.flat[xy[lt]] = strict.flat[yx[gt]] = 1
    reach = np.maximum(np.eye(size, dtype=np.float32), strict)
    reach.flat[xy[eq]] = reach.flat[yx[eq]] = 1
    # Clipped in place, and strict dropped once used: a stack holds k of
    # each (2n, 2n) float32 array, so every live temporary counts.
    settled = False
    while not settled:
        squared = reach @ reach
        np.minimum(squared, 1, out=squared)
        settled = np.array_equal(squared, reach)
        reach = squared
    before = reach @ strict
    del strict
    return reach > 0, before @ reach > 0


def squaring_entailed_labels(n, linked):
    """entailed_labels over squaring_endpoint_order, copied verbatim."""
    reach, before = squaring_endpoint_order(n, linked)
    inconsistent = before.diagonal(axis1=1, axis2=2).any(axis=1)
    # Codes and grid numbers (at most 4 ** 4 - 1) fit uint8: small temporaries.
    point = (before.view(np.uint8) + np.uint8(2) * (reach & reach.transpose(0, 2, 1))
             + np.uint8(3) * before.transpose(0, 2, 1))
    # A strict cycle makes some pair both < and >, a code off the grid.
    point[inconsistent] = 0
    grid = (64 * point[:, :n, :n] + 16 * point[:, :n, n:]
            + 4 * point[:, n:, :n] + point[:, n:, n:])
    return _GRID_LABEL[grid], inconsistent


STRICT_LABELS = [r for r in RelType if r not in (RelType.SIMULTANEOUS, RelType.IDENTITY,
                                                 RelType.NONE)]


@st.composite
def linked_stacks(draw):
    """(n, linked): a stack of 0-5 graphs over n = 0-7 entities, as
    pair_stack builds it, with 0-2 padding rows (0, 0, NONE) past the most
    rows of any graph.  A graph is random labelled pairs, possibly
    INCONSISTENT, after one of: nothing; a pure '=' cycle, a chain of
    SIMULTANEOUS or IDENTITY closed back to its start; or such a chain with
    another label between two of its entities, a strict edge inside an '='
    class, which is INCONSISTENT."""
    n = draw(st.integers(0, 7))
    graphs = []
    for _ in range(draw(st.integers(0, 5))):
        rows = []
        shape = draw(st.sampled_from(["random", "equal cycle", "strict in class"]))
        if n >= 2 and shape != "random":
            chain = draw(st.permutations(range(n)))[:draw(st.integers(2, n))]
            rows += [(p, q, draw(st.sampled_from([RelType.SIMULTANEOUS, RelType.IDENTITY])))
                     for p, q in zip(chain, chain[1:])]
            ends = draw(st.permutations(chain))[:2]
            rows.append((chain[-1], chain[0], RelType.SIMULTANEOUS) if shape == "equal cycle"
                        else (*ends, draw(st.sampled_from(STRICT_LABELS))))
        if n >= 2:
            pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda pq: pq[0] != pq[1])
            rows += [(p, q, rel) for (p, q), rel in draw(st.lists(
                st.tuples(pair, st.sampled_from(list(RelType))), max_size=8))]
        graphs.append(draw(st.permutations(rows)))
    linked = np.zeros((len(graphs), max(map(len, graphs), default=0)
                       + draw(st.integers(0, 2)), 3), dtype=np.int64)
    linked[..., 2] = RelType.NONE
    for g, rows in enumerate(graphs):
        linked[g, :len(rows)] = np.reshape(rows, (-1, 3))
    return n, linked


@settings(max_examples=400, deadline=None)
@given(linked_stacks())
@example((0, np.zeros((0, 0, 3), dtype=np.int64)))
@example((3, np.zeros((0, 2, 3), dtype=np.int64)))
@example((0, np.full((2, 1, 3), RelType.NONE, dtype=np.int64)))
@example((3, np.array([[[0, 1, RelType.SIMULTANEOUS], [1, 2, RelType.IDENTITY],
                        [2, 0, RelType.SIMULTANEOUS]],
                       [[0, 1, RelType.SIMULTANEOUS], [1, 2, RelType.SIMULTANEOUS],
                        [0, 2, RelType.BEGINS]]])))
def test_kernel_matches_the_squaring_kernel(stack):
    """The same labels and flags as the kernel that squared every graph's
    whole endpoint graph; and on every graph that is not INCONSISTENT, its
    reach, and its before as the reach that does not go back."""
    n, linked = stack
    labels, inconsistent = entailed_labels(n, linked)
    old_labels, old_inconsistent = squaring_entailed_labels(n, linked)
    assert labels.dtype == old_labels.dtype and labels.shape == (len(linked), n, n)
    assert np.array_equal(labels, old_labels)
    assert np.array_equal(inconsistent, old_inconsistent)
    reach, flags = _endpoint_order(n, linked)
    old_reach, old_before = squaring_endpoint_order(n, linked)
    assert np.array_equal(flags, inconsistent)
    assert np.array_equal(reach, old_reach[~flags])
    assert np.array_equal(reach & ~reach.transpose(0, 2, 1), old_before[~flags])


def random_model_graph(rng, n_nodes, density=0.6, avoid_overlap=True):
    """Single-labeled graph sampled from a concrete interval model."""
    return random_model(rng, n_nodes, density, avoid_overlap)[1]


def random_model(rng, n_nodes, density=0.6, avoid_overlap=True):
    """Intervals for nodes n0, n1, ... and a graph of some of their relations."""
    intervals = []
    while len(intervals) < n_nodes:
        s = rng.randrange(20)
        cand = (s, s + rng.randrange(1, 7))
        if avoid_overlap and any(
            (x[0] < cand[0] < x[1] < cand[1]) or (cand[0] < x[0] < cand[1] < x[1])
            for x in intervals
        ):
            continue
        intervals.append(cand)
    g = EventGraph(f"n{i}" for i in range(n_nodes))
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() >= density:
                continue
            rel = relation_from_intervals(intervals[i], intervals[j])
            if rel is not None:
                g.set_relation(f"n{i}", f"n{j}", rel)
    return intervals, g


class TestConsistentLabeling:
    def test_before_triangle(self):
        g = chain_graph(RelType.BEFORE, RelType.BEFORE)
        g.set_relation("n0", "n2", RelType.BEFORE)
        assert is_consistent_labeling(g)

    def test_no_triangle_is_vacuous(self):
        assert is_consistent_labeling(chain_graph(RelType.BEFORE))

    def test_bad_triangle(self):
        g = chain_graph(RelType.BEFORE, RelType.BEFORE)
        g.set_relation("n0", "n2", RelType.AFTER)
        assert not is_consistent_labeling(g)

    def test_identity_satisfies_simultaneous(self):
        g = chain_graph(RelType.IDENTITY, RelType.IDENTITY)
        g.set_relation("n0", "n2", RelType.SIMULTANEOUS)
        assert is_consistent_labeling(g)

    def test_none_exempts_triangle(self):
        g = chain_graph(RelType.BEFORE, RelType.NONE)
        g.set_relation("n0", "n2", RelType.AFTER)
        assert is_consistent_labeling(g)

    def test_consistent_closure_implies_triangle_consistency(self):
        rng = random.Random(6)
        for _ in range(30):
            g = random_model_graph(rng, rng.randint(3, 6))
            if closure(g) is not INCONSISTENT:
                assert is_consistent_labeling(g)

    def test_complete_consistent_graphs_close(self):
        # On complete single-labeled graphs, triangle consistency is enough
        # for a consistent closure (not true with missing edges: a label-free
        # 4-cycle can be triangle-consistent yet globally inconsistent).
        rng = random.Random(7)
        for _ in range(30):
            g = random_model_graph(rng, rng.randint(3, 6), density=1.0)
            if all(g.get(p, q) for p in sorted(g.nodes) for q in sorted(g.nodes)
                   if p < q):
                assert is_consistent_labeling(g)
                assert closure(g) is not INCONSISTENT


class TestDumpAndDot:
    def test_dump_is_total_grid(self):
        lines = dump_table().splitlines()
        assert len(lines) == 15
        header = lines[0].split("\t")
        assert header[1:] == [r.name for r in NON_NONE]
        for line in lines[1:]:
            assert len(line.split("\t")) == 15

    def test_dump_known_cells(self):
        lines = dump_table().splitlines()
        before_row = lines[1].split("\t")
        assert before_row[0] == "BEFORE"
        assert before_row[1] == "BEFORE"
        begun_by_row = lines[RelType.BEGUN_BY.value].split("\t")
        assert begun_by_row[RelType.ENDS.value] == "-"


class TestEventGraph:
    def test_canonical_direction(self):
        g = EventGraph()
        g.set_relation("b", "a", RelType.BEFORE)
        assert g.get("a", "b") is RelType.AFTER
        assert g.get("b", "a") is RelType.BEFORE
        assert list(g.edges()) == [("a", "b", RelType.AFTER)]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            EventGraph().set_relation("a", "a", RelType.BEFORE)

    def test_one_edge_per_pair(self):
        g = EventGraph()
        g.set_relation("a", "b", RelType.BEFORE)
        g.set_relation("b", "a", RelType.BEFORE)
        assert len(g) == 1
        assert g.get("a", "b") is RelType.AFTER


@settings(max_examples=50)
@given(st.sampled_from(NON_NONE), st.sampled_from(NON_NONE))
def test_duality_property(a, b):
    assert compose(a, b) == inverted(compose(invert(b), invert(a)))


class TestGoldenDump:
    GOLDEN = Path(__file__).parent / "data" / "composition_table.txt"

    def test_matches_frozen_grid(self):
        assert dump_table() == self.GOLDEN.read_text()

    def test_frozen_grid_matches_point_oracle(self):
        # The frozen artifact itself is re-derived from endpoint semantics,
        # so a regression in dump() and in compose() cannot cancel out.
        oracle = oracle_composition_table()
        lines = self.GOLDEN.read_text().splitlines()
        header = lines[0].split("\t")[1:]
        for line in lines[1:]:
            row_label, *cells = line.split("\t")
            for col_label, cell in zip(header, cells):
                expected = oracle[collapse(RelType[row_label]).name][
                    collapse(RelType[col_label]).name]
                got = set() if cell == "-" else set(cell.split(","))
                assert got == expected, (row_label, col_label)
