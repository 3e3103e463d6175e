import io

import numpy as np
import pytest

from tlinkrec.model import (
    N_LABELS,
    BinaryProgram,
    VoteTable,
    build_ip,
    collect_arcs,
    enumerate_triangles,
    export_lp,
)
from tlinkrec.relations import RelSet, RelType, compose, synonyms
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
        assert len(tri) == 1
        t = tri[0]
        assert (t.pq, t.qr, t.pr) == (0, 1, 2)

    def test_open_path_has_no_triangle(self):
        tri = enumerate_triangles([arc(1, 2), arc(2, 3)])
        assert tri == []

    def test_four_clique(self):
        arcs = [arc(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
        tri = enumerate_triangles(arcs)
        assert len(tri) == 4


def simple_votes(n_arcs=3, triangle=True):
    if triangle:
        arcs = [arc(1, 2), arc(1, 3), arc(2, 3)][:n_arcs]
    else:
        arcs = [arc(i, i + 1) for i in range(1, n_arcs + 1)]
    alpha = np.zeros((len(arcs), N_LABELS))
    alpha[:, 0] = 0.5
    return VoteTable("doc", arcs, alpha)


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
        assert program.partition_rows == [
            tuple(range(i * 15, (i + 1) * 15)) for i in range(3)
        ]

    def test_objective_is_flattened_alpha(self):
        votes = simple_votes(2)
        program = build_ip(votes)
        assert np.array_equal(program.objective, votes.alpha.reshape(-1))

    def test_before_before_row(self):
        program = build_ip(simple_votes(3))
        b = RelType.BEFORE.value
        row = next(r for r in program.triangle_rows if r.name == f"t0_{b}_{b}")
        # arcs sorted: (1,2)=0, (1,3)=1, (2,3)=2; traversal 1->2->3, pr = arc 1
        assert row.plus == (0 * 15 + b - 1, 2 * 15 + b - 1)
        assert row.minus == (15 + b - 1, 15 + RelType.NONE.value - 1)

    def test_synonyms_expanded_in_minus(self):
        program = build_ip(simple_votes(3))
        ib = RelType.IS_INCLUDED.value
        row = next(r for r in program.triangle_rows if r.name == f"t0_{ib}_{ib}")
        minus_labels = {RelType(v % 15 + 1) for v in row.minus}
        assert {RelType.IS_INCLUDED, RelType.DURING, RelType.NONE} <= minus_labels
        assert RelType.BEFORE not in minus_labels

    def test_vacuous_rows_suppressed_by_default(self):
        program = build_ip(simple_votes(3))
        names = {r.name for r in program.triangle_rows}
        b, a = RelType.BEFORE.value, RelType.AFTER.value
        assert f"t0_{b}_{a}" not in names  # compose(BEFORE, AFTER) is the full set
        assert f"t0_{b}_{b}" in names

    def test_strict_mode_keeps_vacuous_rows_and_drops_none(self):
        program = build_ip(simple_votes(3), none_breaks_triangles=True)
        assert len(program.triangle_rows) == 14 * 14
        for row in program.triangle_rows:
            assert all(RelType(v % 15 + 1) is not RelType.NONE for v in row.minus)

    def test_default_rows_match_composition(self):
        program = build_ip(simple_votes(3))
        for row in program.triangle_rows:
            a = RelType(row.plus[0] % 15 + 1)
            b = RelType(row.plus[1] % 15 + 1)
            expected = set()
            for c in compose(a, b):
                expected.update(synonyms(c))
            expected.add(RelType.NONE)
            assert {RelType(v % 15 + 1) for v in row.minus} == expected

    def test_no_triangles_no_rows(self):
        program = build_ip(simple_votes(2, triangle=False))
        assert program.triangle_rows == []


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


class TestVarNames:
    def test_roundtrip(self):
        for v in (0, 14, 15, 44):
            assert BinaryProgram.var_index(BinaryProgram.var_name(v)) == v

    def test_format(self):
        assert BinaryProgram.var_name(0) == "x_0_1"
        assert BinaryProgram.var_name(29) == "x_1_15"

    def test_bad_ordinal(self):
        with pytest.raises(ValueError):
            BinaryProgram.var_index("x_0_16")
