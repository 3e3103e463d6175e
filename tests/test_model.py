import hashlib
import io
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tlinkrec.model import (
    N_LABELS,
    BinaryProgram,
    VoteTable,
    _allowed,
    build_ip,
    collect_arcs,
    enumerate_triangles,
    export_lp,
    row_name,
)
from tlinkrec.relations import RelType, compose, synonyms
from tlinkrec.solver import Solution, violations
from tlinkrec.timeml import CanonicalArc, ClassifierRun, EntityKind, EntityRef, TLink


def ev(i):
    return EntityRef(EntityKind.EVENT_INSTANCE, f"ei{i}", "doc")


def arc(i, j):
    return CanonicalArc(ev(i), ev(j))


def run_of(name, weight, links):
    return ClassifierRun(name, weight, {"doc": links})


class TestCollectArcs:
    def test_same_label_weights_sum(self):
        r1 = run_of("cleartk-2", 0.3624, [TLink(ev(1), ev(2), RelType.BEFORE)])
        r2 = run_of("UT-4", 0.2882, [TLink(ev(1), ev(2), RelType.BEFORE)])
        votes = collect_arcs([r1, r2], "doc")
        assert votes.arcs == [arc(1, 2)]
        assert votes.alpha[0, RelType.BEFORE.value - 1] == pytest.approx(0.6506)

    def test_disagreeing_labels_stay_separate(self):
        r1 = run_of("a", 0.5, [TLink(ev(1), ev(2), RelType.BEFORE)])
        r2 = run_of("b", 0.25, [TLink(ev(1), ev(2), RelType.AFTER)])
        votes = collect_arcs([r1, r2], "doc")
        assert votes.alpha[0, RelType.BEFORE.value - 1] == 0.5
        assert votes.alpha[0, RelType.AFTER.value - 1] == 0.25

    def test_union_includes_single_voter_arcs(self):
        r1 = run_of("a", 0.5, [TLink(ev(1), ev(2), RelType.BEFORE)])
        r2 = run_of("b", 0.25, [TLink(ev(2), ev(3), RelType.AFTER)])
        votes = collect_arcs([r1, r2], "doc")
        assert votes.arcs == [arc(1, 2), arc(2, 3)]
        assert (votes.alpha > 0).sum() == 2

    def test_reversed_votes_merge_onto_one_arc(self):
        r1 = run_of("a", 0.5, [TLink(ev(1), ev(2), RelType.BEFORE)])
        r2 = run_of("b", 0.25, [TLink(ev(2), ev(1), RelType.AFTER)])
        votes = collect_arcs([r1, r2], "doc")
        assert votes.arcs == [arc(1, 2)]
        assert votes.alpha[0, RelType.BEFORE.value - 1] == 0.75

    def test_weight_conservation(self):
        r1 = run_of("a", 0.5, [TLink(ev(1), ev(2), RelType.BEFORE),
                               TLink(ev(1), ev(3), RelType.INCLUDES)])
        r2 = run_of("b", 0.25, [TLink(ev(1), ev(2), RelType.AFTER)])
        votes = collect_arcs([r1, r2], "doc")
        sums = votes.alpha.sum(axis=1)
        assert sums[list(votes.arcs).index(arc(1, 2))] == pytest.approx(0.75)
        assert sums[list(votes.arcs).index(arc(1, 3))] == pytest.approx(0.5)

    def test_empty_document(self):
        votes = collect_arcs([run_of("a", 0.5, [])], "doc")
        assert votes.arcs == [] and votes.alpha.shape == (0, 15)


class TestEnumerateTriangles:
    def test_single_triangle(self):
        tri = enumerate_triangles([arc(1, 2), arc(2, 3), arc(1, 3)])
        assert tri.tolist() == [[0, 1, 2]]  # (pq, qr, pr) arc indices

    def test_open_path_has_no_triangle(self):
        tri = enumerate_triangles([arc(1, 2), arc(2, 3)])
        assert tri.shape == (0, 3)

    def test_four_clique(self):
        arcs = [arc(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
        tri = enumerate_triangles(arcs)
        assert len(tri) == 4

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 9).flatmap(lambda n: st.tuples(
        st.lists(st.sampled_from(list(EntityKind)), min_size=n, max_size=n),
        st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True)
        if n >= 2 else st.just([]),
    )), st.randoms(use_true_random=False))
    def test_matches_the_triple_loop(self, drawn, rnd):
        """Every p < q < r in entity-key order with all three arcs present, as
        (pq, qr, pr) rows in (p, q, r) order, whatever the order of the arcs."""
        kinds, pairs = drawn
        entities = sorted((EntityRef(kind, f"x{i}", "doc")
                           for i, kind in enumerate(kinds)), key=lambda e: e.key)
        arcs = [CanonicalArc(entities[i], entities[j]) for i, j in pairs]
        rnd.shuffle(arcs)
        index = {(a.lo, a.hi): k for k, a in enumerate(arcs)}
        expected = [(index[p, q], index[q, r], index[p, r])
                    for p, q, r in combinations(entities, 3)
                    if {(p, q), (q, r), (p, r)} <= index.keys()]
        tri = enumerate_triangles(arcs)
        assert tri.dtype == np.int64 and tri.shape == (len(expected), 3)
        assert tri.tolist() == [list(t) for t in expected]


def simple_votes(n_arcs=3, triangle=True):
    if triangle:
        arcs = [arc(1, 2), arc(1, 3), arc(2, 3)][:n_arcs]
    else:
        arcs = [arc(i, i + 1) for i in range(1, n_arcs + 1)]
    alpha = np.zeros((len(arcs), N_LABELS))
    alpha[:, 0] = 0.5
    return VoteTable("doc", arcs, alpha)


def full_rows(program):
    """Every triangle's rows, as the LP export and the referees build them."""
    return program.rows(program.row_keys())


def rows_of(program):
    """{row name: (plus columns, minus columns)} of the full triangle matrix,
    named as the LP export names them."""
    rows = full_rows(program).tolil()
    names = [row_name(*key) for key in program.row_keys().tolist()]
    assert len(names) == len(rows.rows)
    out = {}
    for name, cols, coeffs in zip(names, rows.rows, rows.data):
        assert set(coeffs) <= {1.0, -1.0}
        out[name] = (
            tuple(v for v, c in zip(cols, coeffs) if c == 1.0),
            tuple(v for v, c in zip(cols, coeffs) if c == -1.0),
        )
    assert len(out) == len(rows.rows)  # row names are unique
    return out


class TestBuildIp:
    def test_dimension_law(self):
        for n in (1, 2, 3):
            votes = simple_votes(n)
            program = build_ip(votes)
            assert program.num_vars == 15 * n

    def test_realistic_document_dimensions(self):
        # Real-corpus-sized documents: 19 arcs -> 285 vars, 169 arcs -> 2535 vars.
        for n_arcs, dim in ((19, 285), (169, 2535)):
            arcs = [arc(1, j) for j in range(2, n_arcs + 2)]
            alpha = np.zeros((n_arcs, N_LABELS))
            alpha[:, 0] = 0.5
            assert build_ip(VoteTable("doc", arcs, alpha)).num_vars == dim

    def test_partition_rows_cover_arc_blocks(self):
        program = build_ip(simple_votes(3))
        assert np.array_equal(program.a_eq.toarray(),
                              np.kron(np.eye(3), np.ones(15)))

    def test_objective_is_flattened_alpha(self):
        votes = simple_votes(2)
        program = build_ip(votes)
        assert np.array_equal(program.objective, votes.alpha.reshape(-1))

    def test_before_before_row(self):
        program = build_ip(simple_votes(3))
        b = RelType.BEFORE.value
        plus, minus = rows_of(program)[f"t0_{b}_{b}"]
        # arcs sorted: (1,2)=0, (1,3)=1, (2,3)=2; traversal 1->2->3, pr = arc 1
        assert plus == (0 * 15 + b - 1, 2 * 15 + b - 1)
        assert minus == (15 + b - 1, 15 + RelType.NONE.value - 1)

    def test_synonyms_expanded_in_minus(self):
        program = build_ip(simple_votes(3))
        ib = RelType.IS_INCLUDED.value
        _, minus = rows_of(program)[f"t0_{ib}_{ib}"]
        minus_labels = {RelType(v % 15 + 1) for v in minus}
        assert {RelType.IS_INCLUDED, RelType.DURING, RelType.NONE} <= minus_labels
        assert RelType.BEFORE not in minus_labels

    def test_vacuous_rows_suppressed_by_default(self):
        program = build_ip(simple_votes(3))
        names = set(rows_of(program))
        b, a = RelType.BEFORE.value, RelType.AFTER.value
        assert f"t0_{b}_{a}" not in names  # compose(BEFORE, AFTER) is the full set
        assert f"t0_{b}_{b}" in names

    def test_strict_mode_keeps_vacuous_rows_and_drops_none(self):
        program = build_ip(simple_votes(3), none_breaks_triangles=True)
        rows = rows_of(program)
        assert len(rows) == 14 * 14
        for _, minus in rows.values():
            assert all(RelType(v % 15 + 1) is not RelType.NONE for v in minus)

    def test_default_rows_match_composition(self):
        program = build_ip(simple_votes(3))
        for name, (plus, minus) in rows_of(program).items():
            a = RelType(plus[0] % 15 + 1)
            b = RelType(plus[1] % 15 + 1)
            assert name == f"t0_{a.value}_{b.value}"
            expected = set()
            for c in compose(a, b):
                expected.update(synonyms(c))
            expected.add(RelType.NONE)
            assert {RelType(v % 15 + 1) for v in minus} == expected

    def test_no_triangles_no_rows(self):
        program = build_ip(simple_votes(2, triangle=False))
        assert program.triangles.shape == (0, 3)
        assert full_rows(program).shape == (0, 30)
        assert program.num_rows == 2

    @pytest.mark.parametrize("strict", [False, True])
    def test_num_rows_counts_every_row(self, strict):
        program = build_ip(simple_votes(3), none_breaks_triangles=strict)
        assert program.num_rows == 3 + full_rows(program).shape[0]


class TestLabelTable:
    """The label table that separation and verification read, against the
    rows that the LP export, the referees and HiGHS are given."""

    @pytest.mark.parametrize("strict", [False, True])
    def test_table_is_the_rows(self, strict):
        # One triangle: arcs (1, 2) = 0, (1, 3) = 1, (2, 3) = 2, so
        # (pq, qr, pr) = (0, 2, 1).  Column (a, b, c) of x is the 0/1 point
        # with a on pq, b on qr and c on pr.
        program = build_ip(simple_votes(3), none_breaks_triangles=strict)
        a, b, c = np.indices((N_LABELS,) * 3).reshape(3, -1)
        x = np.zeros((3 * N_LABELS, len(a)))
        cols = np.arange(len(a))
        x[a, cols] = x[2 * N_LABELS + b, cols] = x[N_LABELS + c, cols] = 1.0
        satisfies_every_row = (full_rows(program) @ x <= 1.0).all(axis=0)
        allowed = _allowed(strict)
        assert allowed.shape == (N_LABELS,) * 3
        assert np.array_equal(allowed.reshape(-1), satisfies_every_row)
        # The same table, read through the helper that solve and verify call.
        broken = [len(program.broken_rows(np.array([a[i], c[i], b[i]]))) > 0
                  for i in range(len(a))]
        assert broken == list(~satisfies_every_row)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 6).flatmap(lambda n: st.lists(
        st.sampled_from(list(combinations(range(1, n + 1), 2))),
        min_size=3, unique=True)), st.booleans(), st.data())
    def test_rows_of_any_keys_are_rows_of_the_full_matrix(self, pairs, strict,
                                                          data):
        votes = VoteTable("doc", [arc(i, j) for i, j in sorted(pairs)],
                          np.zeros((len(pairs), N_LABELS)))
        program = build_ip(votes, none_breaks_triangles=strict)
        all_keys = program.row_keys()
        picked = np.array(data.draw(st.lists(st.integers(0, len(all_keys) - 1)))
                          if len(all_keys) else [], dtype=np.int64)
        sub = program.rows(all_keys[picked])
        full = full_rows(program)[picked]
        assert sub.shape == full.shape == (len(picked), program.num_vars)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(sub, attr), getattr(full, attr))


class TestDomain:
    """The labels solve() keeps per arc, and the rows they can break."""

    def test_default_domain_is_none_and_the_labels_that_outweigh_it(self):
        alpha = np.zeros((3, N_LABELS))
        alpha[0, [0, 4]] = 0.5, 0.25  # BEFORE, INCLUDES
        alpha[1, [0, 14]] = 0.25, 0.25  # BEFORE ties NONE
        program = build_ip(VoteTable("doc", [arc(1, 2), arc(1, 3), arc(2, 3)], alpha))
        domain = program.domain()
        assert [np.flatnonzero(row).tolist() for row in domain] == [[0, 4, 14], [14], [14]]
        strict = build_ip(VoteTable("doc", [arc(1, 2)], alpha[:1]),
                          none_breaks_triangles=True)
        assert strict.domain().all() and strict.domain().shape == (1, N_LABELS)

    @pytest.mark.parametrize("strict", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sets(st.integers(0, N_LABELS - 1), min_size=1, max_size=4),
                    min_size=3, max_size=3))
    def test_binding_rows_are_the_rows_a_domain_point_breaks(self, strict, labels):
        # One triangle, (pq, qr, pr) = (0, 2, 1): every triple of labels
        # inside the domains, run through broken_rows.
        program = build_ip(simple_votes(3), none_breaks_triangles=strict)
        domain = np.zeros((3, N_LABELS), dtype=bool)
        for i, allowed in enumerate(labels):
            domain[i, sorted(allowed)] = True
        broken = {tuple(key) for pq in labels[0] for qr in labels[2] for pr in labels[1]
                  for key in program.broken_rows(np.array([pq, pr, qr])).tolist()}
        got = program.binding_rows(np.array([0]), domain)
        assert [tuple(key) for key in got.tolist()] == sorted(broken)


@st.composite
def labeled_documents(draw):
    """Arcs on 4-5 nodes with at least two triangles, plus one label per arc."""
    n_nodes = draw(st.integers(4, 5))
    pairs = list(combinations(range(1, n_nodes + 1), 2))
    chosen = sorted(draw(st.lists(st.sampled_from(pairs), min_size=5,
                                  unique=True)))
    triangles = [t for t in combinations(range(1, n_nodes + 1), 3)
                 if {(t[0], t[1]), (t[1], t[2]), (t[0], t[2])} <= set(chosen)]
    assume(len(triangles) >= 2)
    labels = draw(st.lists(st.sampled_from(list(RelType)),
                           min_size=len(chosen), max_size=len(chosen)))
    return chosen, triangles, labels


class TestTriangleRowsProperty:
    """Each triangle's rows sit on that triangle's own arcs, at every k."""

    @settings(max_examples=60, deadline=None)
    @given(labeled_documents(), st.booleans())
    def test_violated_rows_are_the_inconsistent_triangles(self, doc, strict):
        pairs, triangles, labels = doc
        votes = VoteTable("doc", [arc(i, j) for i, j in pairs],
                          np.zeros((len(pairs), N_LABELS)))
        program = build_ip(votes, none_breaks_triangles=strict)
        label_of = dict(zip(pairs, labels))
        expected = []
        for k, (p, q, r) in enumerate(triangles):  # enumeration order
            a, b, c = label_of[p, q], label_of[q, r], label_of[p, r]
            if RelType.NONE in (a, b):
                continue
            allowed = {s for rel in compose(a, b) for s in synonyms(rel)}
            if not strict:
                allowed.add(RelType.NONE)
            if c not in allowed:
                expected.append(f"triangle row t{k}_{a.value}_{b.value} "
                                "violated: lhs 2 > 1")
        solution = Solution(dict(enumerate(labels)), 0.0, False)
        assert violations(program, solution) == expected


class TestExportLp:
    def rendered(self, program):
        sink = io.BytesIO()
        export_lp(program, sink)
        return sink.getvalue().decode()

    def test_empty_program(self):
        text = self.rendered(build_ip(VoteTable("doc", [], np.zeros((0, 15)))))
        assert text.splitlines() == ["Maximize", " obj:", "Subject To",
                                     "Binaries", "End"]

    def test_single_arc(self):
        votes = simple_votes(1)
        text = self.rendered(build_ip(votes))
        lines = text.splitlines()
        assert "Maximize" in lines and "End" in lines
        assert sum(line.lstrip().startswith("p0:") for line in lines) == 1
        assert text.count("x_0_") >= 15  # all binaries declared
        assert "= 1" in text

    def test_lf_endings_and_fixed_point(self):
        text = self.rendered(build_ip(simple_votes(3)))
        assert "\r" not in text
        assert "+ 0.500000 x_0_1" in text

    def test_deterministic(self):
        program = build_ip(simple_votes(3))
        assert self.rendered(program) == self.rendered(program)

    @pytest.mark.parametrize("strict, digest", [
        (False, "671e99f5abe02f38530ef5a5ef937bc1329c1ecc33327c3824bcae0f042aed4e"),
        (True, "fa88487bee02e3e0c3c0ac62e5b6f27fb38f659823a23f273c78ce05ee47f89a"),
    ], ids=["default", "strict"])
    def test_pinned_bytes(self, strict, digest):
        # Row order, row names and term order are part of the interchange
        # format; any change to them shows up here.
        program = build_ip(simple_votes(3), none_breaks_triangles=strict)
        text = self.rendered(program).encode("utf-8")
        assert hashlib.sha256(text).hexdigest() == digest


class TestVarNames:
    def test_format(self):
        assert BinaryProgram.var_name(0) == "x_0_1"
        assert BinaryProgram.var_name(29) == "x_1_15"
