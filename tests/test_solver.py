import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, milp

import tlinkrec.solver as solver
from tlinkrec.model import N_LABELS, BinaryProgram, VoteTable, build_ip, stack_programs
from tlinkrec.relations import NON_NONE, RelType
from tlinkrec.solver import Solution, solve, split_solution, verify, violations
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
        # weighs.  Strict mode keeps the lowest-ordinal argmax over all 15
        # labels.
        votes = votes_of([arc(1, 2)], {0: {RelType.AFTER: 0.0}})
        sol = solve(build_ip(votes))
        assert sol.assignment == {0: RelType.NONE} and sol.objective_value == 0.0
        strict = solve(build_ip(votes, none_breaks_triangles=True))
        assert strict.assignment == {0: RelType.BEFORE}
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

    def test_default_mode_activates_the_whole_broken_triangle(self):
        # pq may be BEFORE or IBEFORE, and each composes with BEFORE on qr to
        # BEFORE only, so both rows can bind against AFTER on pr.  The
        # default mode activates both in its one re-solve.  Strict mode
        # activates the broken row only, and re-solves again once pq moves
        # to IBEFORE.
        b, ib, a = RelType.BEFORE, RelType.IBEFORE, RelType.AFTER
        votes = votes_of([arc(1, 2), arc(1, 3), arc(2, 3)],
                         {0: {b: 0.5, ib: 0.375}, 1: {a: 0.5, b: 0.125}, 2: {b: 0.5}})
        default = solve(build_ip(votes))
        assert default.stats.rounds == 2 and default.stats.active_rows == 2
        assert default.stats.milp_cols == 3 + 3 + 2
        strict = solve(build_ip(votes, none_breaks_triangles=True))
        assert strict.stats.rounds == 3 and strict.stats.active_rows == 2
        assert strict.stats.milp_cols == 2 * 3 * N_LABELS
        assert default.assignment == strict.assignment == OPTIMUM
        assert default.objective_value == strict.objective_value == 1.125

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
    one triangle, so solve() reaches milp in its second round.
    """

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
    """Several programs solved as one stack and split again: each part is
    its own program's optimum."""

    @pytest.mark.parametrize("strict", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(tables=st.lists(vote_tables(min_arcs=0), min_size=1, max_size=4))
    def test_each_part_is_its_programs_optimum(self, tables, strict):
        programs = [build_ip(votes, none_breaks_triangles=strict) for votes in tables]
        whole = solve(stack_programs(programs))
        parts = split_solution(whole, programs)
        assert len(parts) == len(programs)
        for program, part in zip(programs, parts):
            assert part.proven_optimal and part.stats is whole.stats
            assert verify(program, part)
            assert part.objective_value == full_milp_solve(program).objective_value
            assert part.objective_value == brute_force_solve(program).objective_value
        assert sum(part.objective_value for part in parts) == whole.objective_value

    def test_programs_of_two_modes_are_not_stacked(self):
        program = triangle_program()
        strict = BinaryProgram(program.objective, program.triangles, True)
        with pytest.raises(ValueError, match="one mode"):
            stack_programs([program, strict])
        with pytest.raises(ValueError, match="one mode"):
            stack_programs([])


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
