import csv
import io
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tlinkrec import scoring
from tlinkrec.relations import EventGraph, RelType, entailed_labels, relation_from_intervals
from tlinkrec.scoring import (
    ScoreReport,
    f1_score,
    format_score_table,
    score_run,
    score_runs,
    temporal_awareness,
    write_csv,
)
from tlinkrec.timeml import ClassifierRun, EntityKind, EntityRef, LinkTable, TLink

from referees import awareness_referee
from tables import table_graph
from test_relations import random_model, random_model_graph


def ev(i, doc="d1"):
    return EntityRef(EntityKind.EVENT_INSTANCE, f"ei{i}", doc)


def graph_of(*edges):
    g = EventGraph()
    for p, q, rel in edges:
        g.set_relation(p, q, rel)
    return g


class TestF1:
    def test_harmonic_mean(self):
        assert f1_score(0.5, 0.5) == 0.5
        assert f1_score(1.0, 0.5) == pytest.approx(2 / 3)

    def test_zero_guard(self):
        assert f1_score(0.0, 0.0) == 0.0


def side(run, doc):
    """The graph of run's table for doc, or an empty graph if it has none."""
    return table_graph(run.documents[doc]) if doc in run.documents else EventGraph()


class TestTableSides:
    """A run's document is scored as its link table's rows, by entity id."""

    @staticmethod
    def counts(reference_links, system_links):
        reference = run_of("ref", {"d": LinkTable.from_links(reference_links)})
        system = run_of("sys", {"d": LinkTable.from_links(system_links)})
        return score_run(reference, system).per_document["d"]

    def test_basic(self):
        counts = self.counts([TLink(ev(1), ev(2), RelType.BEFORE)],
                             [TLink(ev(2), ev(1), RelType.AFTER)])
        assert (counts.verified_sys, counts.total_sys) == (1, 1)
        assert (counts.verified_ref, counts.total_ref) == (1, 1)

    def test_none_row_counts_but_never_verifies(self):
        # As an event graph's NONE edge does in temporal_awareness.
        counts = self.counts([TLink(ev(1), ev(2), RelType.NONE)],
                             [TLink(ev(1), ev(2), RelType.NONE)])
        assert (counts.verified_sys, counts.total_sys) == (0, 1)
        assert (counts.verified_ref, counts.total_ref) == (0, 1)

    def test_duplicate_last_wins(self):
        counts = self.counts([TLink(ev(1), ev(2), RelType.BEFORE),
                              TLink(ev(2), ev(1), RelType.BEFORE)],
                             [TLink(ev(1), ev(2), RelType.AFTER)])
        assert (counts.verified_sys, counts.total_sys) == (1, 1)


class TestTemporalAwareness:
    def test_self_comparison_is_perfect(self):
        g = graph_of(("a", "b", RelType.BEFORE), ("b", "c", RelType.INCLUDES))
        counts = temporal_awareness(g, g)
        assert (counts.precision, counts.recall, counts.f1) == (1.0, 1.0, 1.0)

    def test_inferred_relation_verifies(self):
        # System asserts only a BEFORE c; the reference closure entails it,
        # so precision is 1, but neither reference edge is entailed by the
        # single system edge, so recall is 0.
        ref = graph_of(("a", "b", RelType.BEFORE), ("b", "c", RelType.BEFORE))
        sys = graph_of(("a", "c", RelType.BEFORE))
        counts = temporal_awareness(ref, sys)
        assert counts.verified_sys == 1 and counts.total_sys == 1
        assert counts.verified_ref == 0 and counts.total_ref == 2
        assert counts.precision == 1.0 and counts.recall == 0.0

    def test_orientation_invariance(self):
        ref = graph_of(("a", "b", RelType.BEFORE))
        flipped = graph_of(("b", "a", RelType.AFTER))
        counts = temporal_awareness(ref, flipped)
        assert counts.precision == 1.0 and counts.recall == 1.0

    def test_identity_collapses_by_default(self):
        ref = graph_of(("a", "b", RelType.SIMULTANEOUS))
        sys = graph_of(("a", "b", RelType.IDENTITY))
        counts = temporal_awareness(ref, sys)
        assert counts.precision == 1.0 and counts.recall == 1.0

    def test_identity_strict_switch(self):
        ref = graph_of(("a", "b", RelType.SIMULTANEOUS))
        sys = graph_of(("a", "b", RelType.IDENTITY))
        counts = temporal_awareness(ref, sys, collapse_identity=False)
        assert counts.verified_sys == 0  # IDENTITY not stored in reference
        assert counts.verified_ref == 1  # SIMULTANEOUS still collapses

    def test_identity_strict_exact_match(self):
        g = graph_of(("a", "b", RelType.IDENTITY))
        counts = temporal_awareness(g, g, collapse_identity=False)
        assert counts.precision == 1.0 and counts.recall == 1.0

    def test_unrelated_pair_not_verified(self):
        ref = graph_of(("a", "b", RelType.BEFORE))
        sys = graph_of(("a", "c", RelType.BEFORE))
        counts = temporal_awareness(ref, sys)
        assert counts.verified_sys == 0

    def test_inconsistent_reference_falls_back_to_raw(self):
        ref = graph_of(("a", "b", RelType.BEFORE), ("b", "c", RelType.BEFORE),
                       ("c", "a", RelType.BEFORE))
        sys = graph_of(("a", "b", RelType.BEFORE))
        counts = temporal_awareness(ref, sys)
        assert counts.inconsistent_ref and not counts.inconsistent_sys
        assert counts.verified_sys == 1  # stored label matches
        assert counts.verified_ref == 1  # only a-b matches in system

    def test_inconsistent_system_flagged(self):
        sys = graph_of(("a", "b", RelType.BEFORE), ("b", "c", RelType.BEFORE),
                       ("c", "a", RelType.BEFORE))
        counts = temporal_awareness(graph_of(("a", "b", RelType.BEFORE)), sys)
        assert counts.inconsistent_sys

    def test_overlap_realisable_system_not_flagged(self):
        # a BEGUN_BY b, b ENDS c holds for (1, 4), (1, 2), (0, 2), where a
        # and c overlap, so the system graph is consistent.
        sys = graph_of(("a", "b", RelType.BEGUN_BY), ("b", "c", RelType.ENDS))
        counts = temporal_awareness(graph_of(("a", "b", RelType.BEGUN_BY)), sys)
        assert not counts.inconsistent_sys
        assert counts.verified_ref == 1

    def test_none_edge_counts_but_never_verifies(self):
        g = graph_of(("a", "b", RelType.BEFORE), ("b", "c", RelType.NONE))
        counts = temporal_awareness(g, g)
        assert (counts.verified_sys, counts.total_sys) == (1, 2)
        assert (counts.verified_ref, counts.total_ref) == (1, 2)
        # An inconsistent side entails its stored labels, but still not NONE.
        g = graph_of(("a", "b", RelType.BEFORE), ("b", "c", RelType.BEFORE),
                     ("c", "a", RelType.BEFORE), ("c", "d", RelType.NONE))
        counts = temporal_awareness(g, g)
        assert counts.inconsistent_sys and counts.inconsistent_ref
        assert (counts.verified_sys, counts.total_sys) == (3, 4)
        assert (counts.verified_ref, counts.total_ref) == (3, 4)

    def test_empty_system(self):
        ref = graph_of(("a", "b", RelType.BEFORE))
        counts = temporal_awareness(ref, EventGraph())
        assert counts.precision == 0.0 and counts.recall == 0.0
        assert counts.f1 == 0.0

    def test_random_self_scores_are_perfect(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_model_graph(rng, rng.randint(3, 6), density=0.7)
            counts = temporal_awareness(g, g)
            assert counts.precision == 1.0 and counts.recall == 1.0

    def test_swapping_sides_swaps_counts(self):
        # One rule scores both sides, so scoring the reference against the
        # system mirrors every count and flag of the system against the
        # reference.  Half the first graphs carry arbitrary labels, so many
        # are inconsistent; the second graph relabels some of the first's
        # pairs, often to IDENTITY or SIMULTANEOUS, so both identity modes
        # decide some counts.
        rng = random.Random(12)
        labels = list(RelType) + [RelType.IDENTITY, RelType.SIMULTANEOUS] * 3

        def any_graph(n):
            if rng.random() < 0.5:
                return random_model_graph(rng, n, density=0.7)
            g = EventGraph(f"n{i}" for i in range(n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.6:
                        g.set_relation(f"n{i}", f"n{j}", rng.choice(labels))
            return g

        def relabel(g):
            h = EventGraph(g.nodes)
            for p, q, rel in g.edges():
                if rng.random() < 0.8:
                    h.set_relation(p, q, rel if rng.random() < 0.6 else rng.choice(labels))
            return h

        inconsistent = 0
        for _ in range(200):
            a = any_graph(rng.randint(3, 6))
            b = relabel(a)
            collapse_identity = rng.random() < 0.5
            ab = temporal_awareness(a, b, collapse_identity=collapse_identity)
            ba = temporal_awareness(b, a, collapse_identity=collapse_identity)
            assert (ab.verified_sys, ab.total_sys, ab.inconsistent_sys) == \
                (ba.verified_ref, ba.total_ref, ba.inconsistent_ref)
            assert (ab.verified_ref, ab.total_ref, ab.inconsistent_ref) == \
                (ba.verified_sys, ba.total_sys, ba.inconsistent_sys)
            inconsistent += ab.inconsistent_ref + ab.inconsistent_sys
        assert inconsistent > 50


# A canonical label's synonym, for sides that say the same thing another way.
SYNONYM = {RelType.IS_INCLUDED: RelType.DURING, RelType.INCLUDES: RelType.DURING_INV,
           RelType.SIMULTANEOUS: RelType.IDENTITY}


@st.composite
def scored_graph_stacks(draw, systems):
    """A reference graph and a list of `systems` system graphs over up to 6
    entities placed as intervals.

    Each side labels each pair: not at all, with the intervals' label (none
    when they overlap), with that label's synonym, with NONE, or with any
    label, which may make the side INCONSISTENT; a system may also copy the
    reference's label.  Any side may hold an entity the others lack.
    """
    n = draw(st.integers(0, 6))
    intervals = [(s, s + d) for s, d in draw(st.lists(
        st.tuples(st.integers(0, 5), st.integers(1, 3)), min_size=n, max_size=n))]
    reference, *stack = (EventGraph(f"n{i}" for i in range(n) if draw(st.booleans()))
                         for _ in range(1 + systems))
    for i, j in combinations(range(n), 2):
        model = relation_from_intervals(intervals[i], intervals[j])
        for g in (reference, *stack):
            choice = draw(st.sampled_from(
                ["skip", "model", "synonym", "none", "any", "copy"]))
            rel = (draw(st.sampled_from(list(RelType))) if choice == "any"
                   else SYNONYM.get(model, model) if choice == "synonym"
                   else model if choice == "model"
                   else RelType.NONE if choice == "none"
                   else reference.get(f"n{i}", f"n{j}") if choice == "copy" else None)
            if rel is not None:
                g.set_relation(f"n{i}", f"n{j}", rel)
    return reference, stack


def scored_graph_pairs():
    """A reference graph and one system graph, drawn as scored_graph_stacks."""
    return scored_graph_stacks(1).map(lambda drawn: (drawn[0], drawn[1][0]))


@settings(max_examples=300, deadline=None)
@given(scored_graph_pairs(), st.booleans())
@example((graph_of(("a", "b", RelType.BEFORE), ("b", "c", RelType.BEFORE),
                   ("c", "a", RelType.BEFORE), ("c", "d", RelType.NONE)),
          graph_of(("a", "b", RelType.IDENTITY), ("b", "c", RelType.DURING),
                   ("a", "c", RelType.SIMULTANEOUS), ("d", "c", RelType.NONE),
                   ("e", "d", RelType.NONE))), False)
@example((graph_of(("a", "b", RelType.IDENTITY), ("b", "c", RelType.DURING)),
          graph_of(("a", "b", RelType.SIMULTANEOUS), ("a", "c", RelType.IS_INCLUDED),
                   ("c", "b", RelType.BEFORE), ("b", "a", RelType.BEFORE))), True)
def test_counts_match_the_per_edge_referee(graphs, collapse_identity):
    reference, system = graphs
    assert temporal_awareness(reference, system, collapse_identity=collapse_identity) \
        == awareness_referee(reference, system, collapse_identity=collapse_identity)


def run_of(name, docs):
    return ClassifierRun(name, 1.0, docs)


def links_of(g):
    """g's labelled pairs as the table of TLinks between event instances,
    NONE included."""
    def entity(name):
        return EntityRef(EntityKind.EVENT_INSTANCE, name)
    return LinkTable.from_links(TLink(entity(p), entity(q), rel) for p, q, rel in g.edges())


@st.composite
def scored_run_stacks(draw):
    """A reference run and 1-4 system runs over 1-3 documents.  Each
    document's graphs are drawn by scored_graph_stacks, so the systems' node
    sets differ, and each system lacks a document one time in five."""
    systems = [run_of(f"s{s}", {}) for s in range(draw(st.integers(1, 4)))]
    reference = run_of("ref", {})
    for doc in (f"d{d}" for d in range(draw(st.integers(1, 3)))):
        ref_graph, sys_graphs = draw(scored_graph_stacks(len(systems)))
        reference.documents[doc] = links_of(ref_graph)
        for run, g in zip(systems, sys_graphs):
            if draw(st.integers(0, 4)):
                run.documents[doc] = links_of(g)
    return reference, systems


# An INCONSISTENT reference (a BEFORE cycle) against an INCONSISTENT
# system, a consistent system on other nodes, and a system that lacks d1.
CYCLE = graph_of(("a", "b", RelType.BEFORE), ("b", "c", RelType.BEFORE),
                 ("c", "a", RelType.BEFORE), ("c", "d", RelType.IDENTITY))
STACK_EXAMPLE = (
    run_of("ref", {"d1": links_of(CYCLE),
                   "d2": links_of(graph_of(("a", "b", RelType.IDENTITY)))}),
    [run_of("s0", {"d1": links_of(graph_of(("a", "b", RelType.BEFORE),
                                           ("b", "c", RelType.BEFORE),
                                           ("a", "c", RelType.AFTER))),
                   "d2": links_of(graph_of(("a", "b", RelType.SIMULTANEOUS)))}),
     run_of("s1", {"d1": links_of(graph_of(("c", "d", RelType.IDENTITY),
                                           ("d", "e", RelType.DURING))),
                   "d2": links_of(graph_of(("b", "a", RelType.IDENTITY)))}),
     run_of("s2", {"d2": links_of(graph_of(("a", "b", RelType.BEFORE)))})])


def test_stack_example_flags_both_sides():
    reference, systems = STACK_EXAMPLE
    d1 = [report.per_document["d1"] for report in score_runs(reference, systems)]
    assert [(c.inconsistent_ref, c.inconsistent_sys) for c in d1] == \
        [(True, True), (True, False), (True, False)]
    assert d1[2].total_sys == 0


@settings(max_examples=200, deadline=None)
@given(scored_run_stacks(), st.booleans())
@example(STACK_EXAMPLE, True)
@example(STACK_EXAMPLE, False)
def test_stacked_counts_match_the_per_edge_referee(runs, collapse_identity):
    reference, systems = runs
    reports = score_runs(reference, systems, collapse_identity=collapse_identity)
    assert len(reports) == len(systems)
    for doc in reference.documents:
        ref = side(reference, doc)
        for system, report in zip(systems, reports):
            assert report.per_document[doc] == awareness_referee(
                ref, side(system, doc), collapse_identity=collapse_identity)


class TestScoreRun:
    def two_doc_runs(self):
        # d1: system gets 2 of 3 edges; d2: 2 of 3 -> micro P = 4/6.
        ref = {
            "d1": [TLink(ev(1), ev(2), RelType.BEFORE),
                   TLink(ev(2), ev(3), RelType.BEFORE),
                   TLink(ev(3), ev(4), RelType.INCLUDES)],
            "d2": [TLink(ev(1, "d2"), ev(2, "d2"), RelType.BEFORE),
                   TLink(ev(2, "d2"), ev(3, "d2"), RelType.AFTER),
                   TLink(ev(1, "d2"), ev(4, "d2"), RelType.SIMULTANEOUS)],
        }
        sys = {
            "d1": [TLink(ev(1), ev(2), RelType.BEFORE),
                   TLink(ev(2), ev(3), RelType.BEFORE),
                   TLink(ev(3), ev(4), RelType.AFTER)],
            "d2": [TLink(ev(1, "d2"), ev(2, "d2"), RelType.BEFORE),
                   TLink(ev(2, "d2"), ev(3, "d2"), RelType.AFTER),
                   TLink(ev(1, "d2"), ev(4, "d2"), RelType.BEFORE)],
        }
        return (run_of("ref", {doc: LinkTable.from_links(links) for doc, links in ref.items()}),
                run_of("sys", {doc: LinkTable.from_links(links) for doc, links in sys.items()}))

    def test_micro_average(self):
        ref, sys = self.two_doc_runs()
        report = score_run(ref, sys)
        assert report.precision == pytest.approx(4 / 6)
        assert report.recall == pytest.approx(4 / 6)

    def test_macro_average(self):
        ref, sys = self.two_doc_runs()
        report = score_run(ref, sys, average="macro")
        assert report.precision == pytest.approx((2 / 3 + 2 / 3) / 2)

    def test_doc_filter(self):
        ref, sys = self.two_doc_runs()
        report = score_run(ref, sys, doc_filter={"d1"})
        assert list(report.per_document) == ["d1"]

    def test_missing_system_doc_scores_zero(self):
        ref, _ = self.two_doc_runs()
        empty = run_of("sys", {})
        report = score_run(ref, empty)
        assert report.precision == 0.0 and report.recall == 0.0

    def test_unknown_filter_doc_rejected(self):
        ref, sys = self.two_doc_runs()
        with pytest.raises(ValueError, match="not in reference"):
            score_run(ref, sys, doc_filter={"nope"})

    def test_bad_average_rejected(self):
        ref, sys = self.two_doc_runs()
        with pytest.raises(ValueError, match="averaging"):
            score_run(ref, sys, average="median")

    def test_no_systems_no_reports(self):
        ref, _ = self.two_doc_runs()
        assert score_runs(ref, []) == []

    def test_unknown_filter_doc_rejected_for_a_stack(self):
        ref, sys = self.two_doc_runs()
        for systems in ([], [sys, sys]):
            with pytest.raises(ValueError, match="not in reference"):
                score_runs(ref, systems, doc_filter={"d1", "nope"})

    @pytest.mark.parametrize("average", ["micro", "macro"])
    def test_stack_averages_match_one_run_each(self, average):
        ref, sys = self.two_doc_runs()
        systems = [sys, ref, run_of("empty", {}), run_of("d2 only", {"d2": sys.documents["d2"]})]
        reports = score_runs(ref, systems, average=average)
        assert reports == [score_run(ref, s, average=average) for s in systems]
        assert reports[1].f1 == 1.0 and reports[2].f1 == 0.0

    def test_empty_report_guards(self):
        report = ScoreReport()
        assert report.precision == 0.0 and report.f1 == 0.0
        assert ScoreReport(average="macro").precision == 0.0


class TestStackedDocuments:
    """score_runs closes a call's documents together, bucketed by
    (2n).bit_length() of their node count n and split at STACK_ENTRIES; each
    (document, system) must score as temporal_awareness scores it alone."""

    # Node counts per document, not in document order: 3 | 4, 6, 7 | 8 lie
    # in the buckets of 2n = 6, 8-15 and 16, and d5 has no node at all.
    SIZES = {"d3": 4, "d0": 7, "d5": 0, "d2": 8, "d1": 3, "d4": 6}

    @classmethod
    def corpus(cls):
        """A reference run of complete interval-model graphs, in which n0 and
        n1 are SIMULTANEOUS, and three system runs that drop some of their
        pairs and relabel others, to the label's synonym or to any label
        (which may make them INCONSISTENT); s1 lacks d4."""
        rng = random.Random(32)
        reference, systems = run_of("ref", {}), [run_of(f"s{s}", {}) for s in range(3)]
        for doc, n in cls.SIZES.items():
            intervals = random_model(rng, n, density=0.0)[0]
            intervals[1:2] = intervals[:1]
            g = EventGraph()
            for i, j in combinations(range(n), 2):
                g.set_relation(f"n{i}", f"n{j}",
                               relation_from_intervals(intervals[i], intervals[j]))
            reference.documents[doc] = links_of(g)
            for s, run in enumerate(systems):
                if (doc, s) == ("d4", 1):
                    continue
                h = EventGraph()
                for p, q, rel in g.edges():
                    draw = rng.random()
                    if draw < 0.8:
                        h.set_relation(p, q, rel if draw < 0.4 else SYNONYM.get(rel, rel)
                                       if draw < 0.6 else rng.choice(list(RelType)))
                run.documents[doc] = links_of(h)
        return reference, systems

    @pytest.fixture
    def calls(self, monkeypatch):
        """(n, k) of each entailed_labels call that scoring makes."""
        made = []

        def recording(n, linked):
            made.append((n, len(linked)))
            return entailed_labels(n, linked)

        monkeypatch.setattr(scoring, "entailed_labels", recording)
        return made

    # Each document stacks 4 graphs: 784 entries at n = 7, so a bound of
    # 1,600 splits the 4-7 bucket into d0 + d3, then d4, each closed over
    # its own most nodes.
    @pytest.mark.parametrize("entries, expected_calls", [
        (None, [(0, 4), (3, 4), (7, 12), (8, 4)]),
        (1600, [(0, 4), (3, 4), (7, 8), (6, 4), (8, 4)])])
    @pytest.mark.parametrize("collapse_identity", [True, False])
    @pytest.mark.parametrize("average", ["micro", "macro"])
    def test_counts_match_one_call_per_document(self, monkeypatch, calls, entries,
                                                expected_calls, collapse_identity, average):
        if entries is not None:
            monkeypatch.setattr(scoring, "STACK_ENTRIES", entries)
        reference, systems = self.corpus()
        reports = score_runs(reference, systems, collapse_identity=collapse_identity,
                             average=average)
        assert calls == expected_calls
        for system, report in zip(systems, reports):
            assert list(report.per_document) == sorted(self.SIZES)
            expected = {doc: temporal_awareness(
                side(reference, doc), side(system, doc), collapse_identity=collapse_identity)
                for doc in reference.documents}
            assert report == ScoreReport(expected, average)
        counts = [c for report in reports for c in report.per_document.values()]
        assert any(c.inconsistent_sys for c in counts)
        assert reports[1].per_document["d4"].total_sys == 0

    def test_the_corpus_tells_the_identity_modes_apart(self):
        reference, systems = self.corpus()
        assert score_runs(reference, systems) != \
            score_runs(reference, systems, collapse_identity=False)

    def test_empty_doc_filter_scores_nothing(self, calls):
        reference, systems = self.corpus()
        reports = score_runs(reference, systems, set())
        assert [report.per_document for report in reports] == [{}, {}, {}]
        assert calls == []


class TestOutput:
    def test_write_csv(self):
        ref, sys = TestScoreRun().two_doc_runs()
        report = score_run(ref, sys)
        sink = io.StringIO()
        write_csv(report, sink)
        lines = sink.getvalue().splitlines()
        assert lines[0].startswith("doc_id,precision,recall,f1")
        assert lines[1].startswith("d1,0.6667,0.6667,")
        assert lines[-1].startswith("ALL,0.6667,")
        assert len(lines) == 4

    def test_document_id_with_a_comma_is_quoted(self):
        ref, sys = TestScoreRun().two_doc_runs()
        report = score_run(ref, sys)
        report.per_document["a,b"] = report.per_document.pop("d1")
        sink = io.StringIO()
        write_csv(report, sink)
        rows = list(csv.reader(io.StringIO(sink.getvalue())))
        assert [len(row) for row in rows] == [8, 8, 8, 8]
        assert [row[0] for row in rows] == ["doc_id", "a,b", "d2", "ALL"]
        assert sink.getvalue().splitlines()[1].startswith('"a,b",0.6667,')

    def test_format_score_table(self):
        text = format_score_table([("C2,C4", 0.39, 0.32, 0.50)])
        lines = text.splitlines()
        assert lines[0].split() == ["IDs", "F1", "Prec", "Rec"]
        assert "0.3900" in lines[1] and "C2,C4" in lines[1]
