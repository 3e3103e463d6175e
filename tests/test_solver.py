import itertools
import random
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, milp
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import tlinkrec.solver as solver
from tlinkrec.model import N_LABELS, BinaryProgram, VoteTable, _allowed, build_ip
from tlinkrec.relations import NON_NONE, RelType
from tlinkrec.solver import (ENUMERATION_BOUND, OBJ_TOL, Solution, solve, solve_documents,
                             verify, violations)
from tlinkrec.timeml import CanonicalArc, EntityKind, EntityRef

from referees import brute_force_solve, full_milp_solve


def ev(i):
    return EntityRef(EntityKind.EVENT_INSTANCE, f"ei{i:02d}", "doc")


def arc(i, j):
    return CanonicalArc(ev(i), ev(j))


def votes_of(arcs, weights):
    """weights: {arc index: {RelType: alpha}}"""
    alpha = np.zeros((len(arcs), N_LABELS))
    for i, per_label in weights.items():
        for rel, w in per_label.items():
            alpha[i, rel.value - 1] = w
    return VoteTable("doc", list(arcs), alpha)


def random_instance(rng):
    """Random document-shaped instance, at most 8 arcs, dyadic weights."""
    n_nodes = rng.randint(3, 5)
    pairs = [(i, j) for i in range(1, n_nodes + 1)
             for j in range(i + 1, n_nodes + 1)]
    rng.shuffle(pairs)
    pairs = sorted(pairs[: rng.randint(1, min(8, len(pairs)))])
    arcs = [arc(i, j) for i, j in pairs]
    weights = {}
    for i in range(len(arcs)):
        labels = rng.sample([r for r in RelType if r is not RelType.NONE],
                            rng.randint(1, 3))
        weights[i] = {rel: rng.randrange(1, 64) / 64.0 for rel in labels}
    strict = rng.random() < 0.25
    return build_ip(votes_of(arcs, weights), none_breaks_triangles=strict)


def triangle_program():
    """Arcs 0 = (1, 2), 1 = (1, 3), 2 = (2, 3): one triangle (pq, qr, pr) =
    (0, 2, 1), which the per-arc argmax GREEDY violates."""
    return build_ip(votes_of(
        [arc(1, 2), arc(1, 3), arc(2, 3)],
        {0: {RelType.BEFORE: 0.5},
         1: {RelType.AFTER: 0.25, RelType.BEFORE: 0.125},
         2: {RelType.BEFORE: 0.5}},
    ))


GREEDY = {0: RelType.BEFORE, 1: RelType.AFTER, 2: RelType.BEFORE}
OPTIMUM = {0: RelType.BEFORE, 1: RelType.BEFORE, 2: RelType.BEFORE}
FEASIBLE_NOT_OPTIMAL = {0: RelType.BEFORE, 1: RelType.AFTER, 2: RelType.NONE}


def point_of(program, assignment):
    """The milp point of assignment over the columns solve() hands to milp:
    the domain columns of the assignment's arcs, in arc order."""
    domain = program.domain()
    x = np.zeros(domain.shape)
    for a, rel in assignment.items():
        assert domain[a, rel.value - 1], (a, rel)
        x[a, rel.value - 1] = 1.0
    arcs = sorted(assignment)
    return x[arcs][domain[arcs]]


def domain_cols(program, arcs):
    """Column indices of the arcs' domain labels, in arc order."""
    arcs = np.asarray(arcs)
    cols = arcs[:, None] * N_LABELS + np.arange(N_LABELS)
    return cols[program.domain()[arcs]]


class TestSolveBasics:
    def test_single_arc_argmax(self):
        program = build_ip(votes_of([arc(1, 2)], {0: {RelType.BEFORE: 0.5}}))
        sol = solve(program)
        assert sol.assignment == {0: RelType.BEFORE}
        assert sol.objective_value == 0.5
        assert sol.proven_optimal
        assert verify(program, sol)

    def test_empty_program(self):
        program = build_ip(votes_of([], {}))
        sol = solve(program)
        assert sol.assignment == {} and sol.objective_value == 0.0

    def test_triangle_overrides_greedy(self):
        # Greedy argmax picks BEFORE/BEFORE/AFTER, violating the composition
        # {BEFORE}; the optimum must back off to a consistent labeling.
        program = triangle_program()
        sol = solve(program)
        assert sol.assignment[1] is RelType.BEFORE
        assert sol.objective_value == 1.125
        ref = brute_force_solve(program)
        assert ref.objective_value == sol.objective_value

    def test_arc_with_no_label_above_none_gets_none(self):
        # Voted only by a weight-0 member: every label weighs what NONE
        # weighs, and NONE wins the tie in both modes.
        votes = votes_of([arc(1, 2)], {0: {RelType.AFTER: 0.0}})
        sol = solve(build_ip(votes))
        assert sol.assignment == {0: RelType.NONE} and sol.objective_value == 0.0
        strict = solve(build_ip(votes, none_breaks_triangles=True))
        assert strict.assignment == {0: RelType.NONE}
        # The same next to a triangle that milp re-solves: arc 3 = (3, 4) has
        # no label above NONE, and its triangle (1, 3, 4) shares arc 1 with
        # the broken one.  Its domain is NONE alone, so that triangle can
        # never break and arc 3 keeps NONE.
        weights = {0: {RelType.BEFORE: 0.5},
                   1: {RelType.AFTER: 0.25, RelType.BEFORE: 0.125},
                   2: {RelType.BEFORE: 0.5}, 3: {RelType.BEFORE: 0.0},
                   4: {RelType.BEFORE: 0.5}}
        program = build_ip(votes_of(
            [arc(1, 2), arc(1, 3), arc(2, 3), arc(3, 4), arc(1, 4)], weights))
        sol = solve(program)
        assert sol.assignment == {**OPTIMUM, 3: RelType.NONE, 4: RelType.BEFORE}
        assert sol.objective_value == brute_force_solve(program).objective_value

    def test_both_modes_activate_the_whole_broken_triangle(self, monkeypatch):
        # pq may be BEFORE or IBEFORE, and each composes with BEFORE on qr to
        # BEFORE only, so both rows can bind against AFTER on pr.  Both modes
        # activate both rows in their one re-solve; strict mode hands milp
        # all 15 columns of each arc, with the triangle routed to milp.
        monkeypatch.setattr(solver, "ENUMERATION_BOUND", 0)
        b, ib, a = RelType.BEFORE, RelType.IBEFORE, RelType.AFTER
        votes = votes_of([arc(1, 2), arc(1, 3), arc(2, 3)],
                         {0: {b: 0.5, ib: 0.375}, 1: {a: 0.5, b: 0.125}, 2: {b: 0.5}})
        default = solve(build_ip(votes))
        assert default.stats.rounds == 2 and default.stats.active_rows == 2
        assert default.stats.milp_cols == 3 + 3 + 2
        strict = solve(build_ip(votes, none_breaks_triangles=True))
        assert strict.stats.rounds == 2 and strict.stats.active_rows == 2
        assert strict.stats.milp_cols == 3 * N_LABELS
        assert default.assignment == strict.assignment == OPTIMUM
        assert default.objective_value == strict.objective_value == 1.125

    def test_strict_mode_activates_rows_over_a_held_unvoted_label(self):
        # Arcs 0 = (1, 2), 1 = (1, 3), 2 = (1, 4), 3 = (2, 3), 4 = (3, 4):
        # triangles (pq, qr, pr) = (0, 3, 1) and (1, 4, 2).  Arc 1 has no
        # vote, so its winning labels are NONE alone.  Round 1 gives it NONE,
        # which strict mode forbids under BEFORE, BEFORE; the re-solve gives
        # it BEFORE, the only label the first triangle then allows.  That
        # BEFORE on pq breaks the second triangle's row (BEFORE, BEFORE)
        # against AFTER on pr, and only arc 1's held label puts that row
        # among the activated ones: without it no row would be added, and
        # the loop would re-solve the same rows until the time limit.
        b, a = RelType.BEFORE, RelType.AFTER
        program = build_ip(votes_of(
            [arc(1, 2), arc(1, 3), arc(1, 4), arc(2, 3), arc(3, 4)],
            {0: {b: 1.0}, 2: {a: 0.75}, 3: {b: 1.0}, 4: {b: 0.5}}),
            none_breaks_triangles=True)
        assert not program.winning()[1, b.value - 1]
        sol = solve(program, time_limit=5.0)
        assert sol.proven_optimal and verify(program, sol)
        assert sol.stats.rounds == 3
        assert sol.objective_value == full_milp_solve(program).objective_value == 2.75

    def test_bad_time_limit(self):
        program = build_ip(votes_of([arc(1, 2)], {0: {RelType.BEFORE: 0.5}}))
        with pytest.raises(ValueError):
            solve(program, time_limit=0)

    def test_nan_time_limit(self):
        assert solve(triangle_program(), time_limit=float("inf")).proven_optimal
        with pytest.raises(ValueError):
            solve(triangle_program(), time_limit=float("nan"))

    def test_determinism(self):
        rng = random.Random(99)
        for _ in range(10):
            program = random_instance(rng)
            a = solve(program)
            b = solve(program)
            assert a.assignment == b.assignment
            assert a.objective_value == b.objective_value

    def test_stats_populated(self):
        program = build_ip(votes_of([arc(1, 2)], {0: {RelType.BEFORE: 0.5}}))
        sol = solve(program)
        assert sol.stats.cols == 15
        assert sol.stats.rows == 1
        assert sol.stats.wall_time >= 0
        assert sol.stats.lp_iterations == 0  # milp omits it; perfbench reads it
        assert sol.stats.milp_cols == 0  # the argmax round calls no milp


class TestMilpStatusMapping:
    """solve() against a stand-in for scipy's milp returning fixed results.

    The program is test_triangle_overrides_greedy's: its argmax violates the
    one triangle, so solve() reaches milp in its second round once
    ENUMERATION_BOUND is 0, which no table fits, so that every component goes
    to milp.
    """

    @pytest.fixture(autouse=True)
    def no_elimination(self, monkeypatch):
        monkeypatch.setattr(solver, "ENUMERATION_BOUND", 0)

    def program(self):
        return triangle_program()

    def fake_milp(self, monkeypatch, *results):
        """results: one (status, x, nodes) per call, in call order."""
        calls = []
        pending = iter(results)

        def fake(c, **kwargs):
            calls.append({"c": c, **kwargs})
            status, x, nodes = next(pending)
            return OptimizeResult(status=status, x=x, mip_node_count=nodes,
                                  message=f"fake status {status}")

        monkeypatch.setattr(solver, "milp", fake)
        return calls

    def test_time_limit_with_incumbent_is_unproven(self, monkeypatch):
        # Feasible but not optimal: NONE on arc 2 leaves no row to break.
        self.fake_milp(monkeypatch, (1, point_of(self.program(), FEASIBLE_NOT_OPTIMAL), 7))
        sol = solve(self.program())
        assert not sol.proven_optimal
        assert sol.assignment == FEASIBLE_NOT_OPTIMAL
        assert sol.objective_value == 0.75
        assert verify(self.program(), sol)

    def test_time_limit_without_incumbent_raises(self, monkeypatch):
        self.fake_milp(monkeypatch, (1, None, 7))
        with pytest.raises(RuntimeError, match="before any incumbent"):
            solve(self.program())

    def test_time_limit_with_violating_incumbent_raises(self, monkeypatch):
        self.fake_milp(monkeypatch, (1, point_of(self.program(), GREEDY), 7))
        with pytest.raises(RuntimeError, match="before any incumbent"):
            solve(self.program())

    def test_budget_spent_before_a_resolve_raises(self, monkeypatch):
        calls = self.fake_milp(monkeypatch, (0, point_of(self.program(), OPTIMUM), 7))
        clock = iter([0.0, 12.5])
        monkeypatch.setattr(solver, "time",
                            SimpleNamespace(monotonic=lambda: next(clock)))
        with pytest.raises(RuntimeError, match="before any incumbent"):
            solve(self.program(), time_limit=12.5)
        assert calls == []

    def test_other_status_raises_with_message(self, monkeypatch):
        self.fake_milp(monkeypatch, (4, None, 7))
        with pytest.raises(RuntimeError, match="fake status 4"):
            solve(self.program())

    def test_point_violating_an_active_row_raises(self, monkeypatch):
        # The greedy point breaks the triangle whose rows the call was given;
        # solve() must raise rather than hand the same rows over again.
        calls = self.fake_milp(monkeypatch, (0, point_of(self.program(), GREEDY), 7),
                               (0, point_of(self.program(), GREEDY), 7))
        with pytest.raises(RuntimeError, match="violates its own row t0_1_1"):
            solve(self.program())
        assert len(calls) == 1

    def test_one_exact_call_with_caller_time_limit(self, monkeypatch):
        calls = self.fake_milp(monkeypatch, (0, point_of(self.program(), OPTIMUM), 7))
        sol = solve(self.program(), time_limit=12.5)
        assert sol.proven_optimal
        assert sol.assignment == OPTIMUM
        assert sol.stats.nodes_explored == 7
        assert sol.stats.rounds == 2 and sol.stats.active_rows == 1
        assert sol.stats.coupled_arcs == 3
        assert sol.stats.milp_cols == len(calls[0]["c"]) == 2 + 3 + 2
        assert len(calls) == 1
        for call in calls:
            assert call["options"]["mip_rel_gap"] == 0
            assert 0 < call["options"]["time_limit"] <= 12.5
        solve(build_ip(votes_of([], {})))
        solve(build_ip(votes_of([arc(1, 2)], {0: {RelType.BEFORE: 0.5}})))
        assert len(calls) == 1

    def test_nodes_summed_over_rounds(self, monkeypatch):
        # Arcs 0 = (1, 2), 1 = (1, 3), 2 = (2, 3), 3 = (2, 4), 4 = (3, 4): two
        # triangles, (pq, qr, pr) = (0, 2, 1) and (2, 4, 3), sharing arc 2.
        # The argmax breaks only row (BEFORE, BEFORE) of the first.  The first
        # call's point, an equal optimum of its three arcs, moves arc 2 to
        # AFTER, which breaks row (AFTER, AFTER) of the second.
        b, a = RelType.BEFORE, RelType.AFTER
        program = build_ip(votes_of(
            [arc(1, 2), arc(1, 3), arc(2, 3), arc(2, 4), arc(3, 4)],
            {0: {b: 0.5}, 1: {a: 0.25, b: 0.125}, 2: {b: 0.5, a: 0.375},
             3: {b: 0.5}, 4: {a: 0.5}}))
        first = {0: b, 1: a, 2: a}
        optimum = {0: b, 1: b, 2: b, 3: b, 4: a}
        calls = self.fake_milp(monkeypatch, (0, point_of(program, first), 7),
                               (0, point_of(program, optimum), 5))
        sol = solve(program, time_limit=12.5)
        assert sol.proven_optimal and sol.assignment == optimum
        assert sol.stats.nodes_explored == 12
        assert sol.stats.rounds == 3 and sol.stats.active_rows == 2
        assert sol.stats.coupled_arcs == 5
        # Each call gets exactly the rows broken so far, on the domain
        # columns of the arcs of their triangles.  Each triangle has one row
        # that can bind inside the domains, so the whole-triangle activation
        # adds one row per round.
        keys = np.array([[0, b.value, b.value], [1, a.value, a.value]])
        assert np.array_equal(program.binding_rows(np.array([0, 1]), program.domain()),
                              keys)
        for call, n_keys, n_arcs in zip(calls, (1, 2), (3, 5)):
            cols = domain_cols(program, range(n_arcs))
            got = call["constraints"][1].A
            expected = program.rows(keys[:n_keys])[:, cols]
            assert got.shape == expected.shape == (n_keys, len(cols))
            assert (got != expected).nnz == 0
            assert np.array_equal(call["constraints"][0].A.toarray(),
                                  program.a_eq[:n_arcs][:, cols].toarray())
            assert np.array_equal(call["c"], -program.objective[cols])
        assert sol.stats.milp_cols == (2 + 3 + 3) + (2 + 3 + 3 + 2 + 2)
        assert all(call["options"]["time_limit"] <= 12.5 for call in calls)

    def test_only_touched_components_resolved(self, monkeypatch):
        # A copy of triangle_program() on nodes 1-3 (arcs 0-2, triangle
        # (0, 2, 1)) and test_nodes_summed_over_rounds's two triangles on
        # nodes 4-7 (arcs 3-7, triangles (3, 5, 4) and (5, 7, 6), sharing arc
        # 5).  The argmax breaks row (BEFORE, BEFORE) of the first two
        # triangles, so the first call gets both components and the third
        # triangle's arcs 6 and 7 stay out.  Its point is feasible on the
        # first component and moves arc 5 to AFTER, which breaks row (AFTER,
        # AFTER) of the third triangle, so the second call gets only the
        # second component, now arcs 3-7.
        b, a = RelType.BEFORE, RelType.AFTER
        weights = {0: {b: 0.5}, 1: {a: 0.25, b: 0.125}, 2: {b: 0.5}}
        program = build_ip(votes_of(
            [arc(1, 2), arc(1, 3), arc(2, 3),
             arc(4, 5), arc(4, 6), arc(5, 6), arc(5, 7), arc(6, 7)],
            {**weights, 3: {b: 0.5}, 4: {a: 0.25, b: 0.125},
             5: {b: 0.5, a: 0.375}, 6: {b: 0.5}, 7: {a: 0.5}}))
        assert program.triangles.tolist() == [[0, 2, 1], [3, 5, 4], [5, 7, 6]]
        first = {**FEASIBLE_NOT_OPTIMAL, 3: b, 4: a, 5: a}
        second = {3: b, 4: b, 5: b, 6: b, 7: a}
        calls = self.fake_milp(monkeypatch, (0, point_of(program, first), 7),
                               (0, point_of(program, second), 5))
        sol = solve(program)
        assert [len(call["c"]) for call in calls] == [
            len(domain_cols(program, range(6))), len(domain_cols(program, range(3, 8)))]
        cols = domain_cols(program, range(3, 8))
        keys = np.array([[1, b.value, b.value], [2, a.value, a.value]])
        got = calls[1]["constraints"][1].A
        expected = program.rows(keys)[:, cols]
        assert got.shape == expected.shape == (2, len(cols))
        assert (got != expected).nnz == 0
        assert np.array_equal(calls[1]["constraints"][0].A.toarray(),
                              program.a_eq[3:][:, cols].toarray())
        assert np.array_equal(calls[1]["c"], -program.objective[cols])
        # The untouched component keeps the first call's labels, not its
        # argmax.
        assert sol.assignment == {**FEASIBLE_NOT_OPTIMAL, **second}
        assert sol.proven_optimal and sol.stats.nodes_explored == 12
        assert sol.stats.rounds == 3 and sol.stats.active_rows == 3
        assert sol.stats.coupled_arcs == 8

    def test_arc_outside_every_active_row_keeps_its_argmax(self, monkeypatch):
        # triangle_program() plus arc 3 = (3, 4), which shares node 3 but
        # lies in no triangle; its weights tie, so its label is the lowest
        # ordinal, INCLUDES, and milp, run for real, never sees its columns:
        # it gets the domain columns of arcs 0-2, two, three and two.
        program = build_ip(votes_of(
            [arc(1, 2), arc(1, 3), arc(2, 3), arc(3, 4)],
            {0: {RelType.BEFORE: 0.5},
             1: {RelType.AFTER: 0.25, RelType.BEFORE: 0.125},
             2: {RelType.BEFORE: 0.5},
             3: {RelType.ENDED_BY: 0.5, RelType.INCLUDES: 0.5}}))
        assert len(program.triangles) == 1
        widths = []

        def recording(c, **kwargs):
            widths.append(len(c))
            return milp(c, **kwargs)

        monkeypatch.setattr(solver, "milp", recording)
        sol = solve(program)
        assert widths == [len(domain_cols(program, range(3)))] == [2 + 3 + 2]
        assert sol.assignment == {**OPTIMUM, 3: RelType.INCLUDES}
        assert sol.objective_value == 1.625
        assert sol.objective_value == brute_force_solve(program).objective_value


@st.composite
def vote_tables(draw, max_nodes=5, max_arcs=8, min_arcs=1):
    """Small document-shaped vote tables with dyadic weights, so that sums
    of weights are exact in floating point whatever their order; min_arcs=0
    also draws documents on which no member has a TLINK.  A weight may be 0,
    a vote of a weight-0 member, so an arc may have no label above NONE."""
    n_nodes = draw(st.integers(3, max_nodes))
    pairs = [(i, j) for i in range(1, n_nodes + 1)
             for j in range(i + 1, n_nodes + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=min_arcs,
                           max_size=max_arcs, unique=True))
    arcs = [arc(i, j) for i, j in sorted(chosen)]
    weights = {}
    for i in range(len(arcs)):
        labels = draw(st.lists(st.sampled_from(NON_NONE), min_size=1,
                               max_size=3, unique=True))
        weights[i] = {rel: draw(st.integers(0, 63)) / 64.0 for rel in labels}
    return votes_of(arcs, weights)


class TestMetamorphic:
    @settings(max_examples=40, deadline=None)
    @given(vote_tables())
    def test_doubling_weights_doubles_objective(self, votes):
        doubled = VoteTable(votes.document, votes.arcs, votes.alpha * 2)
        assert solve(build_ip(doubled)).objective_value == \
            2 * solve(build_ip(votes)).objective_value

    @settings(max_examples=40, deadline=None)
    @given(vote_tables())
    def test_reversed_arc_order_keeps_objective(self, votes):
        reversed_votes = VoteTable(votes.document, votes.arcs[::-1],
                                   votes.alpha[::-1].copy())
        assert solve(build_ip(reversed_votes)).objective_value == \
            solve(build_ip(votes)).objective_value


class TestBruteForce:
    def test_empty(self):
        sol = brute_force_solve(build_ip(votes_of([], {})))
        assert sol.assignment == {} and sol.objective_value == 0.0

    def test_size_cap(self):
        arcs = [arc(1, j) for j in range(2, 12)]
        program = build_ip(votes_of(arcs, {i: {RelType.BEFORE: 0.5}
                                           for i in range(10)}))
        with pytest.raises(ValueError, match="too large"):
            brute_force_solve(program)

    def test_lexicographic_tie_break(self):
        program = build_ip(votes_of(
            [arc(1, 2)], {0: {RelType.BEFORE: 0.5, RelType.AFTER: 0.5}}))
        sol = brute_force_solve(program)
        assert sol.assignment == {0: RelType.BEFORE}

    def test_rejects_rows_not_made_of_unit_entries(self):
        program = triangle_program()
        program.rows = lambda keys: BinaryProgram.rows(program, keys) * 2.0
        with pytest.raises(ValueError, match="two \\+1 entries"):
            brute_force_solve(program)


class TestVerify:
    def base(self):
        return build_ip(votes_of(
            [arc(1, 2), arc(1, 3), arc(2, 3)],
            {0: {RelType.BEFORE: 0.5}, 1: {RelType.BEFORE: 0.5},
             2: {RelType.BEFORE: 0.5}},
        ))

    def test_solver_output_verifies(self):
        program = self.base()
        assert verify(program, solve(program))

    def test_two_labels_on_one_arc(self):
        # A partition row must sum to exactly 1; an assignment that leaves
        # arc 1 out sums to 0 there.  BEFORE then AFTER composes to every
        # label, so no triangle row applies.
        program = self.base()
        sol = Solution({0: RelType.BEFORE, 2: RelType.AFTER},
                       float(program.objective[[0, 30 + 1]].sum()), False)
        assert not verify(program, sol)
        assert violations(program, sol) == [
            "partition row p1 sums to 0, expected 1"]

    def test_triangle_violation_identified(self):
        program = self.base()
        sol = Solution(
            {0: RelType.BEFORE, 1: RelType.AFTER, 2: RelType.BEFORE},
            float(program.objective[[0, 15 + 1, 30]].sum()), False)
        problems = violations(program, sol)
        assert any(p.startswith("triangle row t0_1_1") for p in problems)

    def test_objective_mismatch(self):
        program = self.base()
        sol = solve(program)
        bad = Solution(sol.assignment, sol.objective_value + 0.5, True)
        assert any("objective mismatch" in v for v in violations(program, bad))

    def test_nan_objective_is_a_mismatch(self):
        program = self.base()
        bad = Solution(solve(program).assignment, float("nan"), True)
        assert not verify(program, bad)
        assert violations(program, bad)[0].startswith("objective mismatch")


class TestVerifyAssignmentShape:
    """An assignment must map arcs 0..|A|-1 to labels; anything else is
    refused, and never read as another arc's label."""

    def triangle(self):
        """The arcs pq, qr and pr, given in that order, each voted BEFORE."""
        return build_ip(votes_of([arc(1, 2), arc(2, 3), arc(1, 3)],
                                 {i: {RelType.BEFORE: 1.0} for i in range(3)}))

    def test_negative_key_does_not_wrap_onto_the_last_arc(self):
        # Read as an index, -1 is arc 2, where BEFORE mends the triangle and
        # weighs 1 more: the objective 3 matched that reading.
        program = self.triangle()
        bad = Solution({0: RelType.BEFORE, 1: RelType.BEFORE, 2: RelType.AFTER,
                        -1: RelType.BEFORE}, 3.0, True)
        assert not verify(program, bad)
        assert violations(program, bad) == ["key -1 is not an arc 0..2"]

    @pytest.mark.parametrize("key", [3, 10 ** 6, "0", 1.5, None])
    def test_key_past_the_arcs_or_not_an_int_is_a_problem(self, key):
        program = self.triangle()
        assignment = {i: RelType.BEFORE for i in range(3)}
        assignment[key] = RelType.BEFORE
        assert violations(program, Solution(assignment, 3.0, True)) == [
            f"key {key!r} is not an arc 0..2"]

    @pytest.mark.parametrize("value", ["BEFORE", 1, None, 1.0])
    def test_value_that_is_not_a_label_is_a_problem(self, value):
        program = self.triangle()
        assignment = {0: RelType.BEFORE, 1: value, 2: RelType.BEFORE, 7: RelType.AFTER}
        assert violations(program, Solution(assignment, 3.0, True)) == [
            "key 7 is not an arc 0..2", f"arc 1 holds {value!r}, which is not a label"]


class TestLazySeparationProperty:
    """solve() against the full program's referees, on tables up to 7 nodes
    and 12 arcs, where separation can take several rounds."""

    @pytest.mark.parametrize("strict", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(votes=vote_tables(max_nodes=7, max_arcs=12))
    def test_matches_full_program(self, votes, strict):
        program = build_ip(votes, none_breaks_triangles=strict)
        sol = solve(program)
        assert sol.proven_optimal
        assert verify(program, sol)
        assert sol.objective_value == full_milp_solve(program).objective_value
        if len(votes.arcs) <= 8:
            assert sol.objective_value == \
                brute_force_solve(program).objective_value


class TestStackedPrograms:
    """Several documents' programs solved as one stack by solve_documents:
    each part is its own program's optimum."""

    @pytest.mark.parametrize("strict", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(tables=st.lists(vote_tables(min_arcs=0), min_size=1, max_size=4))
    def test_each_part_is_its_programs_optimum(self, tables, strict):
        programs = {f"d{i}": build_ip(votes, none_breaks_triangles=strict)
                    for i, votes in enumerate(tables)}
        parts = solve_documents(programs)
        assert list(parts) == list(programs)
        stats = parts["d0"].stats
        for doc, program in programs.items():
            part = parts[doc]
            assert part.proven_optimal and part.stats is stats
            assert verify(program, part)
            assert part.objective_value == full_milp_solve(program).objective_value
            assert part.objective_value == brute_force_solve(program).objective_value

    def test_programs_of_two_modes_are_not_stacked(self):
        program = triangle_program()
        strict = BinaryProgram(program.objective, program.triangles, True)
        with pytest.raises(ValueError, match="one mode"):
            solve_documents({"d0": program, "d1": strict})

    def test_no_documents_no_milp_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(solver, "milp", lambda *args, **kw: calls.append(args))
        assert solve_documents({}) == {}
        assert calls == []


@st.composite
def arc_triangles(draw):
    """An arc count and rows of three distinct arcs among them."""
    n = draw(st.integers(3, 40))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=3, max_size=3,
                                  unique=True), max_size=30))
    return n, np.array(rows, dtype=np.int64).reshape(-1, 3)


def chain(length, descending):
    """length triangles (a_i, b_i, a_i+1) in a row, numbered along the chain
    or against it, so that the least arc sits at one end."""
    n = 2 * length + 1
    rows = np.array([(2 * i, 2 * i + 1, 2 * i + 2) for i in range(length)])
    return n, (n - 1 - rows if descending else rows)


class TestComponents:
    """_components against scipy's connected_components, which numbers the
    components in the order of their least arcs: each arc gets its
    component's least arc, in the same order."""

    @staticmethod
    def check(n, tri):
        graph = csr_matrix((np.ones(2 * len(tri)), (tri[:, :2].ravel(), tri[:, 1:].ravel())),
                           shape=(n, n))
        expected = connected_components(graph, directed=False)[1]
        least = np.full(expected.max(initial=-1) + 1, n)
        np.minimum.at(least, expected, np.arange(n))
        got = solver._components(n, tri)
        assert np.array_equal(got, least[expected])
        assert np.array_equal(np.unique(got, return_inverse=True)[1].ravel(), expected)

    @settings(max_examples=200, deadline=None)
    @given(case=arc_triangles())
    def test_matches_scipy(self, case):
        self.check(*case)

    @pytest.mark.parametrize("n, tri", [
        (0, np.empty((0, 3), dtype=np.int64)),  # no arc
        (5, np.empty((0, 3), dtype=np.int64)),  # no active triangle
        (10, np.array([[7, 2, 5], [9, 5, 8]])),  # arcs in no triangle
        chain(200, descending=False),
        chain(200, descending=True),
        (3000, np.random.default_rng(0).integers(0, 3000, (6000, 3))),  # large-tier sized
    ], ids=["no arc", "no triangle", "arcs in no triangle", "chain", "chain descending",
            "many rows"])
    def test_fixed_cases(self, n, tri):
        self.check(n, tri)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestEnumeration:
    """A touched component of at most ENUMERATION_BOUND labellings is solved
    as one table, whose first optimum in arc order is the answer."""

    @pytest.mark.parametrize("strict", [False, True])
    def test_first_of_two_optima_in_arc_order(self, strict):
        # Arcs 0 = (1, 2), 1 = (1, 3), 2 = (2, 3): one triangle (pq, qr, pr)
        # = (0, 2, 1), which the argmax BEFORE, AFTER, BEFORE breaks.  NONE
        # on arc 0 or on arc 2 mends it, both at 1.5; arc 0's NONE comes
        # before its BEFORE, so NONE, AFTER, BEFORE is the first optimum.
        b, a, none = RelType.BEFORE, RelType.AFTER, RelType.NONE
        program = build_ip(votes_of([arc(1, 2), arc(1, 3), arc(2, 3)],
                                    {0: {b: 0.5}, 1: {a: 1.0}, 2: {b: 0.5}}),
                           none_breaks_triangles=strict)
        other = Solution({0: b, 1: a, 2: none}, 1.5, True)
        assert violations(program, other) == []
        sol = solve(program)
        assert sol.assignment == {0: none, 1: a, 2: b}
        assert sol.objective_value == 1.5 == brute_force_solve(program).objective_value
        assert sol.proven_optimal and sol.stats.milp_cols == 0


def hub_votes(weights=(0.5,) * 8):
    """Arcs 0 = (1, 2), 1 = (1, 4), 2 = (1, 5), 3 = (2, 4), 4 = (2, 5),
    5 = (3, 4), 6 = (3, 5) and 7 = (4, 5): triangles (pq, qr, pr) =
    (0, 3, 1), (0, 4, 2), (1, 7, 2), (3, 7, 4) and (5, 7, 6).  Each arc has
    one vote, weighted as weights gives, and the argmax breaks all five
    triangles, so the re-solve gets one component of the eight arcs.
    Min-degree order eliminates 5, 6, 0, 1, 2, 3, 4, 7, and its largest
    bucket, arc 0's, spans arcs 0-4.  With widths of 2 (the default mode) the
    one table has 2 ** 8 entries and min-degree order's largest 2 ** 5; with
    15 (strict mode) those are 15 ** 8 and 15 ** 5.
    """
    a, b, i, ii = RelType.AFTER, RelType.BEFORE, RelType.INCLUDES, RelType.IS_INCLUDED
    arcs = [arc(1, 2), arc(1, 4), arc(1, 5), arc(2, 4), arc(2, 5), arc(3, 4), arc(3, 5),
            arc(4, 5)]
    return votes_of(arcs, {k: {rel: w} for k, (rel, w) in
                           enumerate(zip([a, i, b, i, ii, a, i, i], weights))})


def chain_votes():
    """Arcs 0 = (1, 2), 1 = (1, 3), 2 = (2, 3), 3 = (2, 4), 4 = (3, 4): two
    triangles that share arc 2 and both break.  Min-degree order eliminates
    the arcs in arc order, and its largest bucket, arc 0's, spans arcs 0-2:
    with widths of 2 (the default mode) the one table has 2 ** 5 entries and
    that bucket 2 ** 3; with 15 (strict mode) 15 ** 5 and 15 ** 3."""
    b, a = RelType.BEFORE, RelType.AFTER
    return votes_of([arc(1, 2), arc(1, 3), arc(2, 3), arc(2, 4), arc(3, 4)],
                    {0: {b: 0.5}, 1: {a: 0.25}, 2: {b: 0.5}, 3: {a: 0.25}, 4: {b: 0.5}})


def way_of(steps):
    """Which way _plan's steps solve a component."""
    if steps is None:
        return "milp"
    if len(steps) == 1:
        return "one table"
    return "min-degree"


def solve_with_bound(programs, bound):
    """solve_documents(programs) with ENUMERATION_BOUND at bound, and the
    way and steps of each component that the solve planned, in order."""
    plan, ways = solver._plan, []

    def recording(widths, scopes):
        steps = plan(widths, scopes)
        ways.append((way_of(steps), steps))
        return steps

    with patch.object(solver, "ENUMERATION_BOUND", bound), \
            patch.object(solver, "_plan", recording):
        return solve_documents(programs), ways


@st.composite
def buckets(draw):
    """(axes, widths, factors) for _bucket_table: 1-5 arcs of 1-4 labels on
    axes in a drawn order, never arc order when there are two or more, and
    factors over random scopes in arc order, the first over every arc so
    that its axes are out of order.  A factor is a weight table of mixed
    magnitudes, or a 0/-inf mask."""
    n = draw(st.integers(1, 5))
    widths = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    axes = draw(st.permutations(range(n)))
    if n > 1 and axes == sorted(axes):
        axes = axes[::-1]
    scopes = [tuple(range(n))] + draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=1).map(sorted).map(tuple), max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    factors = []
    for scope in scopes:
        shape = [widths[arc] for arc in scope]
        if draw(st.booleans()):
            table = np.where(rng.random(shape) < 0.3, -np.inf, 0.0)
        else:
            table = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        factors.append((scope, table))
    return axes, widths, factors


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestElimination:
    """A touched component is solved by the first plan whose largest table
    fits ENUMERATION_BOUND: one table, or buckets in min-degree order; with
    neither, by milp."""

    @settings(max_examples=200, deadline=None)
    @given(bucket=buckets(), presorted=st.booleans())
    def test_bucket_table_sums_its_factors_in_list_order(self, bucket, presorted):
        # The factors are given in the drawn order or already sorted, and
        # either way they are summed in the stable sorted order of the list,
        # by the position of each factor's last arc in axes.  A mask adds 0
        # or -inf, so each finite cell is the weights' sum in that order, bit
        # for bit, and a cell is -inf exactly where some mask is.
        axes, widths, factors = bucket
        at = {arc: i for i, arc in enumerate(axes)}
        ordered = sorted(factors, key=lambda factor: max(at[arc] for arc in factor[0]))
        table = solver._bucket_table(axes, ordered if presorted else factors)
        assert table.shape == tuple(widths[arc] for arc in axes)
        for cell in itertools.product(*map(range, table.shape)):
            label = {arc: cell[at[arc]] for arc in axes}
            total, masked = 0.0, False
            for scope, factor in ordered:
                value = factor[tuple(label[arc] for arc in scope)]
                if np.isfinite(factor).all():
                    total = total + value
                else:
                    masked = masked or value == -np.inf
            assert np.float64(-np.inf if masked else total).tobytes() == \
                table[cell].tobytes()

    # Bounds at which the stack of test_every_plan_matches_brute_force takes
    # each way: the hub's one table and min-degree order, then milp, in the
    # default mode; in strict mode the chain's min-degree order, the
    # triangle's one table and the hub's milp, then the hub's min-degree
    # order, then milp.
    BOUNDS = {False: [1 << 17, 2 ** 5, 0], True: [15 ** 3, 15 ** 5, 0]}

    @pytest.mark.parametrize("strict", [False, True])
    @settings(max_examples=20, deadline=None)
    @given(tables=st.lists(vote_tables(min_arcs=0), max_size=3))
    def test_every_plan_matches_brute_force(self, tables, strict):
        programs = {f"d{i}": build_ip(votes, none_breaks_triangles=strict)
                    for i, votes in enumerate([*tables, chain_votes(), hub_votes()])}
        triangle = triangle_program()
        programs["triangle"] = BinaryProgram(triangle.objective, triangle.triangles, strict)
        exact = {doc: brute_force_solve(p).objective_value for doc, p in programs.items()}
        seen = set()
        for bound in self.BOUNDS[strict]:
            with patch.object(solver, "milp", wraps=milp) as highs:
                parts, ways = solve_with_bound(programs, bound)
            seen |= {way for way, _ in ways}
            assert highs.called == ("milp" in {way for way, _ in ways})
            for doc, program in programs.items():
                assert parts[doc].proven_optimal and verify(program, parts[doc])
                assert abs(parts[doc].objective_value - exact[doc]) <= OBJ_TOL
        assert seen == {"one table", "min-degree", "milp"}

    # Two optima of the hub at 3.25: NONE on arcs 1, 4 and 5, or on arcs 1,
    # 4 and 6.  Arc 5 comes first in arc order, arc 6 in min-degree order's
    # decoding (7, 4, 3, 2, 1, 0, 6, 5).
    TIED = (0.75, 0.25, 0.5, 0.75, 0.75, 0.25, 0.25, 1.0)

    def test_min_degree_takes_the_first_optimum_in_decode_order(self):
        program = build_ip(hub_votes(self.TIED))
        (table, table_ways), (parts, ways) = (solve_with_bound({"hub": program}, bound)
                                              for bound in (2 ** 8, 2 ** 5))
        assert [way for way, _ in table_ways] == ["one table"]
        assert ways == [("min-degree", [((5,), (6, 7)), ((6,), (7,)), ((0,), (1, 2, 3, 4)),
                                        ((1,), (2, 3, 4, 7)), ((2,), (3, 4, 7)), ((3,), (4, 7)),
                                        ((4,), (7,)), ((7,), ())])]
        for solution, none in ((table["hub"], [1, 4, 5]), (parts["hub"], [1, 4, 6])):
            assert [k for k, rel in solution.assignment.items() if rel is RelType.NONE] == none
            assert solution.objective_value == 3.25 and solution.stats.milp_cols == 0
        assert brute_force_solve(program).objective_value == 3.25

    def test_chain_takes_min_degree_at_the_shipped_bound(self):
        # In strict mode the chain's one table has 15 ** 5 entries, over
        # ENUMERATION_BOUND, and min-degree order's largest bucket 15 ** 3.
        program = build_ip(chain_votes(), none_breaks_triangles=True)
        parts, ways = solve_with_bound({"chain": program}, ENUMERATION_BOUND)
        assert ways == [("min-degree", [((0,), (1, 2)), ((1,), (2,)), ((2,), (3, 4)),
                                        ((3,), (4,)), ((4,), ())])]
        assert parts["chain"].objective_value == 1.5 == \
            brute_force_solve(program).objective_value
        assert parts["chain"].proven_optimal and parts["chain"].stats.milp_cols == 0

    @pytest.mark.parametrize("strict", [False, True])
    @settings(max_examples=20, deadline=None)
    @given(tables=st.lists(vote_tables(min_arcs=0), max_size=3))
    def test_every_table_is_its_planned_step(self, tables, strict):
        # The bound _plan checks is the bound on every table built: each
        # bucket table spans its step's arcs and then its others, at their
        # domain widths, one table per step in plan order.
        programs = {f"d{i}": build_ip(votes, none_breaks_triangles=strict)
                    for i, votes in enumerate([*tables, chain_votes(), hub_votes()])}
        plan, bucket_table = solver._plan, solver._bucket_table
        for bound in self.BOUNDS[strict]:
            planned, built = [], []

            def recording_plan(widths, scopes):
                steps = plan(widths, scopes)
                for arcs, others in steps or ():
                    axes = (*arcs, *others)
                    planned.append((axes, tuple(widths[arc] for arc in axes)))
                return steps

            def recording_table(axes, factors):
                table = bucket_table(axes, factors)
                built.append((tuple(axes), table.shape))
                return table

            with patch.object(solver, "ENUMERATION_BOUND", bound), \
                    patch.object(solver, "_plan", recording_plan), \
                    patch.object(solver, "_bucket_table", recording_table):
                solve_documents(programs)
            assert built == planned
            assert bool(built) == (bound > 0)  # the chain and hub always re-solve
            assert all(np.prod(shape) <= bound for _, shape in built)

    @pytest.mark.parametrize("strict", [False, True])
    @settings(max_examples=20, deadline=None)
    @given(tables=st.lists(vote_tables(), max_size=3))
    def test_every_mask_is_the_label_table_over_the_domains(self, tables, strict):
        # A triangle's mask is -inf exactly where allowed forbids the labels
        # a of pq, b of qr and c of pr, and 0 elsewhere.  In the default mode
        # an arc holds only domain labels, so the triangle's rows that can
        # bind over the domains forbid the same cells.
        allowed, factor_tables = _allowed(strict), solver._factor_tables
        checked = 0
        for votes in [*tables, chain_votes(), hub_votes()]:
            program = build_ip(votes, none_breaks_triangles=strict)
            index = {tuple(t): k for k, t in enumerate(program.triangles.tolist())}
            calls = []

            def recording(*args):
                factors = factor_tables(*args)
                calls.append((*args[1:4], factors))  # arcs, choices, widths
                return factors

            with patch.object(solver, "_factor_tables", recording):
                solve(program)
            for arcs, choices, widths, factors in calls:
                for scope, mask in factors:
                    if len(scope) < 3:
                        continue
                    pq, pr, qr = (choices[arc, :widths[arc]] for arc in scope)
                    a, c, b = pq[:, None, None], pr[None, :, None], qr[None, None, :]
                    forbidden = ~allowed[a, b, c]
                    assert np.array_equal(mask == -np.inf, forbidden)
                    assert (mask[~forbidden] == 0).all()
                    if not strict:
                        k = index[tuple(arcs[[scope[0], scope[2], scope[1]]].tolist())]
                        rows = program.binding_rows(np.array([k]), program.domain())
                        binding = np.zeros((N_LABELS, N_LABELS), dtype=bool)
                        binding[rows[:, 1] - 1, rows[:, 2] - 1] = True
                        assert np.array_equal(mask == -np.inf, binding[a, b] & forbidden)
                    checked += 1
        assert checked  # the chain's and hub's triangles always re-solve

    def test_labels_breaking_an_active_row_raise(self):
        # Elimination that returned the greedy labels, which break the row it
        # was given, is caught by the same guard as such a milp point.
        program = triangle_program()
        domain = program.domain()
        greedy = [[rel for rel in (RelType.NONE, *NON_NONE) if domain[a, rel.value - 1]]
                  .index(GREEDY[a]) for a in sorted(GREEDY)]
        with patch.object(solver, "_eliminate", side_effect=[greedy]) as eliminate, \
                patch.object(solver, "milp") as highs, \
                pytest.raises(solver.OwnRowViolated, match="violates its own row t0_1_1$"):
            solve(program)
        assert eliminate.call_count == 1 and not highs.called

    def test_wide_component_builds_no_table(self):
        # In strict mode the hub's best order needs a table of 15 ** 5
        # entries, over the bound: it goes to milp whole, with no factor table
        # built for it.
        assert 15 ** 5 > ENUMERATION_BOUND
        program = build_ip(hub_votes(), none_breaks_triangles=True)
        with patch.object(solver, "_factor_tables", wraps=solver._factor_tables) as tables, \
                patch.object(solver, "milp", wraps=milp) as highs:
            sol = solve(program)
        assert not tables.called and highs.call_count == 1
        assert sol.stats.milp_cols == 8 * N_LABELS
        assert sol.proven_optimal and verify(program, sol)
        assert sol.objective_value == brute_force_solve(program).objective_value


class TestAllNoneFeasible:
    """In either mode every +1 entry of a triangle row sits on a non-NONE
    label, so labelling every arc NONE satisfies every row: a program that
    build_ip makes is never infeasible."""

    @pytest.mark.parametrize("strict", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(votes=vote_tables(max_nodes=7, max_arcs=12))
    def test_all_none_violates_no_row(self, votes, strict):
        program = build_ip(votes, none_breaks_triangles=strict)
        all_none = {i: RelType.NONE for i in range(len(votes.arcs))}
        objective = float(votes.alpha[:, RelType.NONE.value - 1].sum())
        assert violations(program, Solution(all_none, objective, True)) == []


class TestOracleEquivalence:
    def test_random_instances(self):
        rng = random.Random(2024)
        for trial in range(60):
            program = random_instance(rng)
            exact = brute_force_solve(program)
            sol = solve(program)
            assert sol.objective_value == exact.objective_value, trial
            assert verify(program, sol)
            assert verify(program, exact)
