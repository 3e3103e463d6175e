import dataclasses
import hashlib
import logging
import shutil
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, milp

import tlinkrec.pipeline as pipeline
import tlinkrec.scoring as scoring
import tlinkrec.solver as solver
from tlinkrec.errors import ConfigurationError
from tlinkrec.model import N_LABELS, build_ip, collect_arcs
from tlinkrec.pipeline import (
    EnsembleSpec,
    ExperimentConfig,
    WeightsSource,
    compute_f1_weights,
    default_split,
    enumerate_ensembles,
    format_experiment_table,
    reconcile,
    reconcile_ensembles,
    run_procedure_one,
    run_procedure_two,
    write_reconciled,
)
from tlinkrec.relations import RelType, closure, INCONSISTENT
from tlinkrec.scoring import score_run, temporal_awareness
from tlinkrec.solver import Solution, solve, verify, violations
from tlinkrec.synthetic import SyntheticClassifier, generate_corpus
from tlinkrec.timeml import (ClassifierRun, Corpus, EntityKind, EntityRef, LinkTable, TLink,
                             canonical_votes, load_corpus, parse_timeml, write_timeml)

from referees import (awareness_referee, brute_force_solve, elementtree_write_timeml,
                      full_milp_solve, is_consistent_labeling, path_consistency_closure)
from tables import arcs_of, table_graph


CLASSIFIERS = [
    SyntheticClassifier("alpha", flip_rate=0.1),
    SyntheticClassifier("beta", flip_rate=0.3, drop_rate=0.1),
    SyntheticClassifier("gamma", flip_rate=0.5, extra_rate=0.05),
]


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    generate_corpus(root, seed=7, n_docs=6, classifiers=CLASSIFIERS)
    return root


@pytest.fixture(scope="module")
def corpus(corpus_root):
    return load_corpus(corpus_root)


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class TestSynthetic:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for root in (a, b):
            generate_corpus(root, seed=3, n_docs=4, classifiers=CLASSIFIERS)
        assert tree_digest(a) == tree_digest(b)

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_corpus(a, seed=3, n_docs=4, classifiers=CLASSIFIERS)
        generate_corpus(b, seed=4, n_docs=4, classifiers=CLASSIFIERS)
        assert tree_digest(a) != tree_digest(b)

    # The files generate_corpus writes at content seed 7 in the benchmark's
    # three shapes (see tests/test_answers.py), through write_timeml;
    # tests/test_answers.py and the benchmark's corpus fingerprint rest on
    # these bytes.  Recorded when write_timeml was ElementTree's writer.
    PINNED = {
        "dense": ((3, (20, 30), 0.4),
                  "83049ee00261589b164cb5245eb56bb8ca5edec91a74362435e21b014af48c7f"),
        "many-small": ((50, (4, 8), 0.6),
                       "9cba509eff83cea8226d8fa75aef310eadd485e4499400e64cb5868130e8c8dc"),
        "sparse": ((4, (60, 90), 0.08),
                   "5c73763c89f6a36787f0ec12f574d1dd4cc3e8a3b0a0108c2f5b1e99faabecb9"),
    }

    @pytest.mark.parametrize("shape", sorted(PINNED))
    def test_benchmark_shapes_pinned(self, tmp_path, shape):
        (docs, events, density), digest = self.PINNED[shape]
        generate_corpus(tmp_path, seed=7, n_docs=docs, n_events=events, arc_density=density,
                        classifiers=[SyntheticClassifier(name, rate) for name, rate in
                                     (("alpha", 0.1), ("beta", 0.25), ("gamma", 0.4))])
        assert tree_digest(tmp_path) == digest

    def test_layout(self, corpus_root):
        assert sorted(p.name for p in (corpus_root / "runs").iterdir()) == \
            ["alpha", "beta", "gamma"]
        assert len(list((corpus_root / "reference").glob("*.tml"))) == 6
        assert (corpus_root / "weights.txt").exists()

    def test_reference_is_consistent(self, corpus):
        for doc, table in corpus.reference.documents.items():
            assert closure(table_graph(table)) is not INCONSISTENT, doc


class TestReconcile:
    def test_perfect_members_reproduce_reference(self, tmp_path):
        perfect = [SyntheticClassifier("p1", 0.0), SyntheticClassifier("p2", 0.0)]
        generate_corpus(tmp_path, seed=5, n_docs=4, classifiers=perfect)
        corpus = load_corpus(tmp_path)
        result = reconcile(corpus, ["p1", "p2"])
        report = score_run(corpus.reference, result.run)
        assert report.f1 == pytest.approx(1.0)
        assert sorted(result.run.documents) == corpus.documents
        for doc, table in corpus.reference.documents.items():
            assert canonical_votes(result.run.documents[doc]) == \
                canonical_votes(table), doc

    def test_noisy_ensemble_beats_worst_member(self, corpus):
        result = reconcile(corpus, ["alpha", "beta", "gamma"])
        ens = score_run(corpus.reference, result.run).f1
        gamma = score_run(corpus.reference, corpus.runs["gamma"]).f1
        assert ens > gamma

    def test_output_is_triangle_consistent(self, corpus):
        result = reconcile(corpus, ["alpha", "beta", "gamma"])
        for doc, table in result.run.documents.items():
            assert is_consistent_labeling(table_graph(table)), doc

    def test_strict_mode_is_exact_and_links_every_closed_path(self, corpus):
        # Strict mode forbids NONE on pr under two linked arcs, so every
        # triangle whose pq and qr links are written gets a pr link too.
        result = reconcile(corpus, ["alpha", "beta", "gamma"],
                           none_breaks_triangles=True)
        assert sorted(result.solutions) == corpus.documents
        linked_paths = 0
        for doc, solution in result.solutions.items():
            program = build_ip(result.votes[doc], none_breaks_triangles=True)
            assert verify(program, solution), doc
            assert solution.objective_value == pytest.approx(
                full_milp_solve(program).objective_value, rel=0, abs=1e-9), doc
            arcs = arcs_of(result.votes[doc])
            written = canonical_votes(result.run.documents[doc])
            for pq, qr, pr in program.triangles.tolist():
                if arcs[pq] in written and arcs[qr] in written:
                    linked_paths += 1
                    assert arcs[pr] in written, (doc, arcs[pr].key)
        assert linked_paths

    def test_unknown_member_rejected(self, corpus):
        with pytest.raises(ConfigurationError, match="unknown classifier"):
            reconcile(corpus, ["alpha", "nope"])

    def test_explicit_weights_override(self, corpus):
        with pytest.raises(ConfigurationError, match="no weight"):
            reconcile(corpus, ["alpha"], weights={"beta": 0.5})
        result = reconcile(corpus, ["alpha"], weights={"alpha": 0.5})
        assert result.run.documents

    def test_doc_filter(self, corpus):
        docs = corpus.documents[:2]
        result = reconcile(corpus, ["alpha"], doc_filter=set(docs))
        assert sorted(result.run.documents) == docs

    def test_warns_once_per_unproven_document(self, corpus, monkeypatch,
                                              caplog):
        docs = corpus.documents[:3]
        caplog.set_level(logging.WARNING, logger="tlinkrec.pipeline")
        reconcile(corpus, ["alpha"], doc_filter=set(docs))
        assert not caplog.records

        real_solve = solver.solve
        stacks = []

        def time_limited_solve(program, time_limit):
            stacks.append(program)
            sol = real_solve(program, time_limit=time_limit)
            return dataclasses.replace(sol, proven_optimal=False)

        monkeypatch.setattr(solver, "solve", time_limited_solve)
        result = reconcile(corpus, ["alpha"], doc_filter=set(docs))
        assert len(stacks) == 1
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == len(docs)
        for doc, message in zip(docs, messages):
            assert message.startswith(f"{doc}: optimality not proven")
            objective = result.solutions[doc].objective_value
            assert f"objective {objective:.6f}" in message
            assert not result.solutions[doc].proven_optimal

    def test_inconsistent_solution_is_never_recorded(self, corpus, monkeypatch):
        # The stacked solve breaks row (BEFORE, BEFORE) of the stack's last
        # triangle, which is the last document's last triangle; every other
        # arc is NONE, which breaks no row.
        members = ["alpha", "beta", "gamma"]
        docs = corpus.documents[:2]
        last = build_ip(collect_arcs([corpus.runs[m] for m in members], docs[-1]))
        k = len(last.triangles) - 1
        assert k >= 0

        def inconsistent_solve(program, time_limit):
            pq, qr, pr = program.triangles[-1]
            labels = {i: RelType.NONE for i in range(program.num_vars // N_LABELS)}
            labels.update({pq: RelType.BEFORE, qr: RelType.BEFORE,
                           pr: RelType.AFTER})
            chosen = [i * N_LABELS + rel.value - 1 for i, rel in labels.items()]
            return Solution(labels, float(program.objective[chosen].sum()), True)

        monkeypatch.setattr(solver, "solve", inconsistent_solve)
        with pytest.raises(RuntimeError, match=(
                rf"^{docs[-1]}: solution fails verification: "
                rf"triangle row t{k}_1_1 violated: lhs 2 > 1$")):
            reconcile(corpus, members, doc_filter=set(docs))

    @staticmethod
    def second_document_breaks_its_triangle():
        """Two documents of one triangle each; only the second one's votes
        break it, so the stack's broken row is t1_1_1, the second document's
        t0_1_1."""
        def doc(name, rel_13):
            e1, e2, e3 = (EntityRef(EntityKind.EVENT_INSTANCE, f"ei{i}", name)
                          for i in (1, 2, 3))
            return LinkTable.from_links([TLink(e1, e2, RelType.BEFORE),
                                         TLink(e2, e3, RelType.BEFORE), TLink(e1, e3, rel_13)])

        run = ClassifierRun("m", 1.0, {"d0": doc("d0", RelType.BEFORE),
                                       "d1": doc("d1", RelType.AFTER)})
        empty = LinkTable.from_links([])
        return Corpus({"m": run}, ClassifierRun("ref", 1.0, {"d0": empty, "d1": empty}))

    def test_own_row_error_names_the_document_and_its_row(self, monkeypatch):
        # milp returns the argmax point again.
        corpus = self.second_document_breaks_its_triangle()
        monkeypatch.setattr(solver, "ENUMERATION_BOUND", 0)  # every component to milp

        def argmax_point(c, constraints, **kwargs):
            partition = constraints[0].A
            x = np.zeros(len(c))
            for lo, hi in zip(partition.indptr[:-1], partition.indptr[1:]):
                x[partition.indices[lo + np.argmin(c[partition.indices[lo:hi]])]] = 1.0
            return OptimizeResult(status=0, x=x, mip_node_count=0, message="")

        monkeypatch.setattr(solver, "milp", argmax_point)
        with pytest.raises(RuntimeError, match=(
                r"^d1: re-solve returned a labelling that violates its own row t0_1_1$")):
            reconcile(corpus, ["m"])

    def test_timeout_names_the_document_and_its_row(self, monkeypatch):
        # milp runs out of time before it finds any incumbent.
        corpus = self.second_document_breaks_its_triangle()
        monkeypatch.setattr(solver, "ENUMERATION_BOUND", 0)  # every component to milp
        monkeypatch.setattr(solver, "milp", lambda c, **kwargs: OptimizeResult(
            status=1, x=None, mip_node_count=0, message="fake time limit"))
        with pytest.raises(solver.NoIncumbent, match=(
                rf"^d1: {solver.NO_INCUMBENT}; row t0_1_1 is still broken$")):
            reconcile(corpus, ["m"])

    # sha256 of the dense document's labels, NONE and all, in arc order: the
    # tie rule of each plan decides them, so a change to a plan's order or
    # decoding that picks another optimum changes the digest.
    DENSE_LABELS = {
        False: "85e592166cbc8929f6701ea28812db786ae79df61b52aa1996f8ad2a3e6a6803",
        True: "6f2128fd4e6082dd6024099f3ff8e9f7afcdadaa4bb85bb88c2ebc05a6d1ca2b",
    }

    @pytest.mark.parametrize("strict", [False, True])
    def test_dense_document_reconciles_without_milp(self, tmp_path, monkeypatch, strict):
        # The reconcile-dense shape: content seed 7, 20-30 events at density
        # 0.4.  Its components are narrow, so each is solved by a table plan
        # in both modes, and the solve never calls HiGHS.  Some of them are
        # bucket plans over more arcs than brute force can referee, so the
        # objective is refereed by one milp call on the full program.
        members = ["alpha", "beta", "gamma"]
        generate_corpus(tmp_path, seed=7, n_docs=1, n_events=(20, 30), arc_density=0.4,
                        classifiers=[SyntheticClassifier(name, rate) for name, rate in
                                     zip(members, (0.1, 0.25, 0.4))])
        corpus = load_corpus(tmp_path)

        def no_milp(*args, **kwargs):
            raise AssertionError("milp called")

        monkeypatch.setattr(solver, "milp", no_milp)
        result = reconcile(corpus, members, none_breaks_triangles=strict)
        [(doc, solution)] = result.solutions.items()
        assert solution.proven_optimal and solution.stats.milp_cols == 0
        assert solution.stats.active_rows > 0
        program = build_ip(result.votes[doc], none_breaks_triangles=strict)
        assert verify(program, solution)
        assert abs(solution.objective_value - full_milp_solve(program).objective_value) <= 1e-6
        labels = " ".join(solution.assignment[arc].name for arc in range(len(solution.assignment)))
        assert hashlib.sha256(labels.encode()).hexdigest() == self.DENSE_LABELS[strict]

    def test_arc_voted_only_by_a_weight_0_member_gets_no_tlink(self, corpus):
        docs = corpus.documents[:3]
        result = reconcile(corpus, ["alpha", "beta"], {"alpha": 0.0, "beta": 0.5},
                           doc_filter=set(docs))
        only_alpha = 0
        for doc in docs:
            beta = set(canonical_votes(corpus.runs["beta"].documents[doc]))
            assert set(canonical_votes(result.run.documents[doc])) <= beta
            only_alpha += len(set(arcs_of(result.votes[doc])) - beta)
        assert only_alpha > 0

    def test_one_solve_with_the_pooled_time_limit(self, corpus, monkeypatch):
        docs = corpus.documents[:3]
        real_solve = solver.solve
        calls = []

        def recording_solve(program, time_limit):
            calls.append((program.num_vars, time_limit))
            return real_solve(program, time_limit=time_limit)

        monkeypatch.setattr(solver, "solve", recording_solve)
        result = reconcile(corpus, ["alpha", "beta"], doc_filter=set(docs),
                           time_limit=2.5)
        arcs = sum(len(result.votes[doc].arcs) for doc in docs)
        assert calls == [(arcs * N_LABELS, 7.5)]
        for doc in docs:
            program = build_ip(result.votes[doc])
            assert violations(program, result.solutions[doc]) == []
            assert result.solutions[doc].objective_value == \
                pytest.approx(solve(program).objective_value, abs=1e-9)

    def test_document_with_no_arcs(self, corpus, monkeypatch, tmp_path):
        # A document on which no member has a TLINK, stacked between others:
        # it adds no arc, so milp gets the same calls as without it.
        monkeypatch.setattr(solver, "ENUMERATION_BOUND", 0)  # every component to milp
        members = ["alpha", "beta", "gamma"]
        docs = corpus.documents[:3]
        empty = docs[1] + "_empty"
        runs = {name: dataclasses.replace(run, documents={**run.documents,
                                                          empty: LinkTable.from_links([])})
                for name, run in corpus.runs.items()}
        with_empty = dataclasses.replace(corpus, runs=runs)
        calls = []

        def recording(c, **kwargs):
            calls.append((c, kwargs["constraints"][1].A.toarray()))
            return milp(c, **kwargs)

        monkeypatch.setattr(solver, "milp", recording)
        result = reconcile(with_empty, members, doc_filter={*docs, empty})
        with_calls = calls[:]
        calls.clear()
        without = reconcile(corpus, members, doc_filter=set(docs))
        assert len(with_calls) == len(calls) > 0
        for (c, rows), (c_without, rows_without) in zip(with_calls, calls):
            assert np.array_equal(c, c_without)
            assert np.array_equal(rows, rows_without)
        assert result.run.documents[empty] == LinkTable.from_links([])
        assert result.votes[empty].arcs.shape == (0, 2)
        assert result.solutions[empty].assignment == {}
        assert violations(build_ip(result.votes[empty]), result.solutions[empty]) == []
        for doc in docs:
            assert result.solutions[doc].assignment == without.solutions[doc].assignment
        write_reconciled(result, tmp_path)
        assert len(parse_timeml((tmp_path / f"{empty}.tml").read_bytes(), empty).table) == 0

    def test_no_documents_no_solve(self, corpus, monkeypatch):
        calls = []
        monkeypatch.setattr(solver, "solve", lambda *args, **kw: calls.append(args))
        result = reconcile(corpus, ["alpha"], doc_filter=set(),
                           time_limit=float("inf"))
        assert calls == [] and result.run.documents == {} and result.solutions == {}

    def test_write_reconciled_roundtrip(self, corpus, tmp_path):
        result = reconcile(corpus, ["alpha", "beta"], doc_filter={corpus.documents[0]})
        write_reconciled(result, tmp_path / "out")
        files = list((tmp_path / "out").glob("*.tml"))
        assert len(files) == 1
        parsed = parse_timeml(files[0].read_bytes(), files[0].stem)
        assert canonical_votes(parsed.table) == \
            canonical_votes(result.run.documents[corpus.documents[0]])

    def test_written_document_lists_every_entity_of_its_votes(self, tmp_path):
        # ei3's only arc is voted by a weight-0 member, so it comes out NONE
        # and no TLINK touches ei3; the document still declares it, as it
        # declares every entity of its vote table's arcs.
        e1, e2, e3 = (EntityRef(EntityKind.EVENT_INSTANCE, f"ei{i}", "d0") for i in (1, 2, 3))
        dct = EntityRef(EntityKind.DCT, "t0", "d0")
        runs = {"zero": ClassifierRun("zero", 0.0, {"d0": LinkTable.from_links(
                    [TLink(e3, e1, RelType.AFTER), TLink(dct, e2, RelType.BEFORE)])}),
                "half": ClassifierRun("half", 0.5, {"d0": LinkTable.from_links(
                    [TLink(e2, e1, RelType.AFTER), TLink(e2, dct, RelType.AFTER)])})}
        corpus = Corpus(runs, ClassifierRun("ref", 1.0, {"d0": LinkTable.from_links([])}))
        result = reconcile(corpus, ["zero", "half"])
        table = result.run.documents["d0"]
        assert table.entities == result.votes["d0"].entities == (dct, e1, e2, e3)
        assert table.links() == [TLink(dct, e2, RelType.BEFORE), TLink(e1, e2, RelType.BEFORE)]
        write_reconciled(result, tmp_path / "out")
        # The bytes that ElementTree wrote for the vote arcs' entities and the
        # non-NONE labels in arc order.
        elementtree_write_timeml([ent for arc in arcs_of(result.votes["d0"]) for ent in arc],
                                 table.links(), tmp_path / "referee.tml")
        data = (tmp_path / "out" / "d0.tml").read_bytes()
        assert data == (tmp_path / "referee.tml").read_bytes()
        assert b'<MAKEINSTANCE eiid="ei3" eventID="e3" />' in data


class TestWeightsAndSplit:
    def test_default_split_halves_lexicographically(self):
        s1, s2 = default_split(["d3", "d1", "d2", "d4"])
        assert (s1, s2) == (["d1", "d2"], ["d3", "d4"])
        s1, s2 = default_split(["a", "b", "c"])
        assert (s1, s2) == (["a"], ["b", "c"])

    def test_compute_f1_weights(self, corpus):
        weights = compute_f1_weights(corpus, ["alpha", "gamma"])
        assert set(weights) == {"alpha", "gamma"}
        assert weights["alpha"] > weights["gamma"]
        assert all(0.0 <= w <= 1.0 for w in weights.values())

    def test_s1_weights_need_split(self, corpus_root):
        config = ExperimentConfig(corpus_root, weights_source=WeightsSource.S1)
        with pytest.raises(ConfigurationError, match="no split"):
            run_procedure_one(config, [EnsembleSpec(("alpha",))])

    def test_each_classifier_weighed_once_per_experiment(self, corpus_root,
                                                         monkeypatch):
        calls = []
        real_score_runs = pipeline.score_runs

        def counting_score_runs(reference, systems, *args, **kwargs):
            calls.append([system.name for system in systems])
            return real_score_runs(reference, systems, *args, **kwargs)

        monkeypatch.setattr(pipeline, "score_runs", counting_score_runs)
        sweep = enumerate_ensembles(EnsembleSpec(("alpha",)),
                                    {"alpha", "beta", "gamma"})
        rows = run_procedure_two(ExperimentConfig(corpus_root), sweep)
        assert len(rows) == 4
        # One call weighs every distinct member, then one scores every ensemble.
        assert calls == [["alpha", "beta", "gamma"], [r.result.run.name for r in rows]]


@pytest.fixture
def scored_tables(monkeypatch):
    """Every document scoring scores, in call order: its reference table,
    then each system's table."""
    documents = []
    real_awareness = scoring._awareness

    def recording_awareness(tables, **kwargs):
        documents.extend(tables)
        return real_awareness(tables, **kwargs)

    monkeypatch.setattr(scoring, "_awareness", recording_awareness)
    return documents


class TestReferenceClosures:
    SWEEP = enumerate_ensembles(EnsembleSpec(("alpha",)), {"alpha", "beta", "gamma"})

    def test_every_closure_of_an_experiment_matches_naive_closure(
            self, corpus, corpus_root, scored_tables):
        rows = run_procedure_two(ExperimentConfig(corpus_root), self.SWEEP)
        s1, s2 = default_split(corpus.documents)
        # Per document, one reference table and then one table per system:
        # 3 members on the 3 S1 documents, then 4 ensembles on the 3 S2 ones.
        assert [len(tables) for tables in scored_tables] == [1 + 3] * 3 + [1 + 4] * 3
        assert [tables[0] for tables in scored_tables] == \
            [corpus.reference.documents[doc] for doc in s1 + s2]
        groups = [[table_graph(table) for table in tables] for tables in scored_tables]
        for ref, *systems in groups:
            assert closure(ref) == path_consistency_closure(ref)
            for sys in systems:
                assert closure(sys) == path_consistency_closure(sys)
                assert temporal_awareness(ref, sys) == awareness_referee(ref, sys)
        scored = [c for row in rows for c in row.report.per_document.values()]
        assert scored == [awareness_referee(ref, systems[e])
                          for e in range(4) for ref, *systems in groups[3:]]


class TestRepeatedMembers:
    def test_reconcile_rejects_a_repeated_member(self, corpus):
        with pytest.raises(ConfigurationError,
                           match=r"repeated ensemble member\(s\): alpha$"):
            reconcile(corpus, ["alpha", "alpha", "beta"])

    def test_every_ensemble_checked_before_weighing(self, corpus_root,
                                                    monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("members must be checked before any work")

        monkeypatch.setattr(pipeline, "compute_f1_weights", no_work)
        monkeypatch.setattr(solver, "solve", no_work)
        ensembles = [EnsembleSpec(("alpha", "beta")), EnsembleSpec(("gamma", "gamma"))]
        with pytest.raises(ConfigurationError, match=r"member\(s\): gamma$"):
            run_procedure_one(ExperimentConfig(corpus_root), ensembles)
        # File weights weigh nothing, so the solve is the first work.
        config = ExperimentConfig(corpus_root, weights_source=WeightsSource.FILE)
        with pytest.raises(ConfigurationError, match=r"member\(s\): gamma$"):
            run_procedure_one(config, ensembles)


class TestEnumerateEnsembles:
    def test_counts(self):
        base = EnsembleSpec(("a", "b", "c"))
        pool = set("abc") | {f"x{i}" for i in range(8)}  # pool of 11
        specs = enumerate_ensembles(base, pool)
        assert len(specs) == 256
        assert specs[0].members == ("a", "b", "c")
        sizes = [len(s.members) for s in specs]
        assert sizes == sorted(sizes)

    def test_base_equals_pool(self):
        base = EnsembleSpec(("a", "b"))
        assert len(enumerate_ensembles(base, {"a", "b"})) == 1

    def test_one_extra(self):
        base = EnsembleSpec(("a",))
        specs = enumerate_ensembles(base, {"a", "b"})
        assert [s.members for s in specs] == [("a",), ("a", "b")]

    def test_base_outside_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            enumerate_ensembles(EnsembleSpec(("z",)), {"a"})


class TestProcedures:
    def specs(self):
        return [EnsembleSpec(("alpha", "beta")), EnsembleSpec(("alpha", "gamma"))]

    def test_procedure_one(self, corpus_root, corpus):
        rows = run_procedure_one(ExperimentConfig(corpus_root), self.specs())
        assert len(rows) == 2
        for row in rows:
            assert set(row.report.per_document) == set(corpus.documents)
            assert 0.0 <= row.report.f1 <= 1.0

    def test_procedure_two_scores_s2_only(self, corpus_root, corpus):
        config = ExperimentConfig(corpus_root)
        rows = run_procedure_two(config, self.specs())
        assert config.split is None  # the default split stays the procedure's own
        s2 = default_split(corpus.documents)[1]
        for row in rows:
            assert set(row.report.per_document) == set(s2)

    def test_procedure_two_weights_measured_on_s1(self, corpus_root, corpus):
        config = ExperimentConfig(corpus_root)
        rows = run_procedure_two(config, [EnsembleSpec(("alpha", "beta"))])
        s1 = set(default_split(corpus.documents)[0])
        expected = compute_f1_weights(corpus, ["alpha", "beta"], s1)
        # Reconciliation used exactly the S1-measured weights.
        row = rows[0]
        doc = next(iter(row.result.votes))
        votes = row.result.votes[doc]
        per_arc = votes.alpha.sum(axis=1)
        allowed = {round(expected["alpha"], 12), round(expected["beta"], 12),
                   round(expected["alpha"] + expected["beta"], 12)}
        assert {round(v, 12) for v in per_arc} <= allowed

    def test_procedure_two_file_weights(self, corpus_root, corpus, monkeypatch):
        def no_weighing(*args, **kwargs):
            raise AssertionError("FILE weights must not be measured")

        monkeypatch.setattr(pipeline, "compute_f1_weights", no_weighing)
        config = ExperimentConfig(corpus_root, weights_source=WeightsSource.FILE)
        rows = run_procedure_two(config, [EnsembleSpec(("alpha", "beta"))])
        alpha, beta = corpus.runs["alpha"].f1_weight, corpus.runs["beta"].f1_weight
        allowed = {round(alpha, 12), round(beta, 12), round(alpha + beta, 12)}
        for votes in rows[0].result.votes.values():
            assert {round(v, 12) for v in votes.alpha.sum(axis=1)} <= allowed

    def test_overlapping_split_rejected(self, corpus_root, corpus):
        config = ExperimentConfig(corpus_root,
                                  split=([corpus.documents[0]], corpus.documents))
        with pytest.raises(ConfigurationError, match="overlap"):
            run_procedure_two(config, self.specs())

    @pytest.mark.parametrize("runner", [run_procedure_one, run_procedure_two])
    def test_split_names_unknown_documents(self, corpus_root, corpus, monkeypatch,
                                           runner):
        def no_solve(*args, **kwargs):
            raise AssertionError("the split must be checked before any solve")

        monkeypatch.setattr(solver, "solve", no_solve)
        config = ExperimentConfig(corpus_root, split=(
            [corpus.documents[0], "nosuchdoc"], [corpus.documents[1], "alsomissing"]))
        with pytest.raises(ConfigurationError,
                           match="not in the corpus: alsomissing, nosuchdoc$"):
            runner(config, self.specs())

    def test_one_document_default_split_rejected(self, tmp_path, monkeypatch):
        # Half of one document is none: S1 is empty, so S1 weights would all be 0.
        def no_weighing(*args, **kwargs):
            raise AssertionError("an empty S1 must be rejected before weighing")

        monkeypatch.setattr(pipeline, "compute_f1_weights", no_weighing)
        generate_corpus(tmp_path, seed=7, n_docs=1, classifiers=CLASSIFIERS)
        with pytest.raises(ConfigurationError, match="S1 has no documents"):
            run_procedure_two(ExperimentConfig(tmp_path), self.specs())

    def test_empty_s2_rejected(self, corpus_root, corpus, monkeypatch):
        def no_weighing(*args, **kwargs):
            raise AssertionError("an empty S2 must be rejected before weighing")

        monkeypatch.setattr(pipeline, "compute_f1_weights", no_weighing)
        config = ExperimentConfig(corpus_root, split=(corpus.documents, []))
        with pytest.raises(ConfigurationError, match="S2 has no documents"):
            run_procedure_two(config, self.specs())

    def test_table_format(self, corpus_root):
        rows = run_procedure_one(ExperimentConfig(corpus_root),
                                 [EnsembleSpec(("alpha",), label="A")])
        table = format_experiment_table(rows)
        assert table.splitlines()[0].split() == ["IDs", "F1", "Prec", "Rec"]
        assert table.splitlines()[1].startswith("A")


class TestStackedExperiment:
    """An experiment solves every (ensemble, document) program of all its
    ensembles in one solver.solve call; each part is its own program's
    optimum, and a message names its ensemble and its document."""

    SPECS = [EnsembleSpec(("alpha", "beta")), EnsembleSpec(("alpha", "gamma")),
             EnsembleSpec(("alpha", "beta", "gamma"))]

    @staticmethod
    def recording_solve(monkeypatch):
        """The time limit of every solver.solve call, in call order."""
        real_solve = solver.solve
        calls = []

        def recording(program, time_limit):
            calls.append(time_limit)
            return real_solve(program, time_limit=time_limit)

        monkeypatch.setattr(solver, "solve", recording)
        return calls

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("runner", [run_procedure_one, run_procedure_two])
    def test_one_solve_and_each_part_is_its_programs_optimum(
            self, corpus_root, corpus, monkeypatch, runner, strict):
        calls = self.recording_solve(monkeypatch)
        config = ExperimentConfig(corpus_root, time_limit=2.5,
                                  none_breaks_triangles=strict)
        rows = runner(config, self.SPECS)
        docs = (corpus.documents if runner is run_procedure_one
                else default_split(corpus.documents)[1])
        assert [sorted(row.result.solutions) for row in rows] == [docs] * len(self.SPECS)
        assert calls == [2.5 * len(self.SPECS) * len(docs)]
        stats = rows[0].result.solutions[docs[0]].stats
        brute_forced = 0
        for row in rows:
            for doc, part in row.result.solutions.items():
                votes = row.result.votes[doc]
                program = build_ip(votes, none_breaks_triangles=strict)
                assert part.proven_optimal and part.stats is stats
                assert violations(program, part) == []
                assert part.objective_value == \
                    pytest.approx(solve(program).objective_value, abs=1e-9)
                if len(votes.arcs) <= 8:
                    brute_forced += 1
                    assert part.objective_value == \
                        pytest.approx(brute_force_solve(program).objective_value, abs=1e-9)
        assert brute_forced > 0

    def test_one_ensemble_is_reconcile(self, corpus_root, corpus):
        config = ExperimentConfig(corpus_root, weights_source=WeightsSource.FILE)
        [row] = run_procedure_one(config, [EnsembleSpec(("alpha", "beta", "gamma"))])
        result = reconcile(corpus, ["alpha", "beta", "gamma"])
        assert row.result.run.documents == result.run.documents
        assert row.report == score_run(corpus.reference, result.run)

    def test_an_ensemble_gets_the_same_labels_alone_or_in_the_sweep(self, tmp_path):
        # The experiment-sparse shape: content seed 7, 4 documents of 60-90
        # events at density 0.08, members weighed on S1, S2 reconciled.  Every
        # component is solved as one table, whose tie rule depends on the
        # component alone; HiGHS picked between equal optima over the whole
        # stack, and alpha+beta's synth_002 differed at arcs 157-158.
        members = ["alpha", "beta", "gamma"]
        generate_corpus(tmp_path, seed=7, n_docs=4, n_events=(60, 90), arc_density=0.08,
                        classifiers=[SyntheticClassifier(name, rate) for name, rate in
                                     zip(members, (0.1, 0.25, 0.4))])
        corpus = load_corpus(tmp_path)
        s1, s2 = default_split(corpus.documents)
        weights = compute_f1_weights(corpus, members, set(s1))
        sweep = [spec.members for spec in
                 enumerate_ensembles(EnsembleSpec(("alpha",)), set(members))]
        assert len(sweep) == 4
        alone = reconcile(corpus, ["alpha", "beta"], weights, doc_filter=set(s2))
        stacked = reconcile_ensembles(corpus, sweep, weights, doc_filter=set(s2))[
            sweep.index(("alpha", "beta"))]
        for result in (alone, stacked):
            assert sorted(result.solutions) == s2
            assert result.solutions[s2[0]].stats.milp_cols == 0
        for doc in s2:
            assert alone.solutions[doc].assignment == stacked.solutions[doc].assignment, doc

    def test_same_members_under_two_labels_stay_two_parts(self, corpus_root, corpus,
                                                          monkeypatch):
        calls = self.recording_solve(monkeypatch)
        specs = [EnsembleSpec(("alpha", "beta"), "A"), EnsembleSpec(("alpha", "beta"), "B")]
        rows = run_procedure_one(ExperimentConfig(corpus_root, time_limit=1.0), specs)
        assert calls == [2.0 * len(corpus.documents)]
        assert [row.spec.display() for row in rows] == ["A", "B"]
        first, second = (row.result for row in rows)
        assert first is not second and first.run.name == second.run.name
        for result in (first, second):
            assert sorted(result.solutions) == corpus.documents
        for doc in corpus.documents:
            assert first.solutions[doc] is not second.solutions[doc]
            assert first.solutions[doc].objective_value == \
                pytest.approx(second.solutions[doc].objective_value, abs=1e-9)

    def test_no_document_no_solve(self, corpus_root, corpus, monkeypatch, tmp_path):
        # S2 is a reference document on which no member has output.
        root = tmp_path / "corpus"
        shutil.copytree(corpus_root, root)
        shutil.copy(root / "reference" / f"{corpus.documents[0]}.tml",
                    root / "reference" / "unlabelled.tml")
        calls = []
        monkeypatch.setattr(solver, "solve", lambda *args, **kw: calls.append(args))
        config = ExperimentConfig(root, split=(corpus.documents, ["unlabelled"]))
        rows = run_procedure_two(config, self.SPECS)
        assert calls == []
        assert [row.result.solutions for row in rows] == [{}] * len(self.SPECS)

    def test_warning_names_the_ensemble_and_the_document(self, corpus_root, corpus,
                                                         monkeypatch, caplog):
        real_solve = solver.solve

        def time_limited_solve(program, time_limit):
            sol = real_solve(program, time_limit=time_limit)
            return dataclasses.replace(sol, proven_optimal=False)

        monkeypatch.setattr(solver, "solve", time_limited_solve)
        caplog.set_level(logging.WARNING, logger="tlinkrec.pipeline")
        run_procedure_one(ExperimentConfig(corpus_root), self.SPECS[:2])
        messages = [r.getMessage() for r in caplog.records]
        expected = [f"{'+'.join(spec.members)}/{doc}: optimality not proven"
                    for spec in self.SPECS[:2] for doc in corpus.documents]
        assert [m[:len(e)] for m, e in zip(messages, expected)] == expected
        assert len(messages) == len(expected)

    def test_verification_failure_names_the_ensemble_and_the_document(
            self, corpus_root, corpus, monkeypatch):
        # The stacked solve breaks row (BEFORE, BEFORE) of the stack's last
        # triangle, the last ensemble's last document's last triangle.
        spec, doc = self.SPECS[-1], corpus.documents[-1]
        last = build_ip(collect_arcs([corpus.runs[m] for m in spec.members], doc))
        k = len(last.triangles) - 1
        assert k >= 0

        def inconsistent_solve(program, time_limit):
            pq, qr, pr = program.triangles[-1]
            labels = {i: RelType.NONE for i in range(program.num_vars // N_LABELS)}
            labels.update({pq: RelType.BEFORE, qr: RelType.BEFORE,
                           pr: RelType.AFTER})
            chosen = [i * N_LABELS + rel.value - 1 for i, rel in labels.items()]
            return Solution(labels, float(program.objective[chosen].sum()), True)

        monkeypatch.setattr(solver, "solve", inconsistent_solve)
        with pytest.raises(RuntimeError, match=(
                rf"^alpha\+beta\+gamma/{doc}: solution fails verification: "
                rf"triangle row t{k}_1_1 violated: lhs 2 > 1$")):
            run_procedure_one(ExperimentConfig(corpus_root), self.SPECS)

    def test_row_error_names_the_ensemble_and_the_document(self, tmp_path,
                                                           monkeypatch):
        # Run m breaks the triangle of its d1 only; run n breaks none.  The
        # stack is n/d0, n/d1, m/d0, m/d1, so its broken row is m/d1's t0_1_1.
        m = TestReconcile.second_document_breaks_its_triangle().runs["m"]
        n = ClassifierRun("n", 1.0, {"d0": m.documents["d0"], "d1": m.documents["d0"]})
        empty = LinkTable.from_links([])
        for where, run in [("reference", ClassifierRun("ref", 1.0, {"d0": empty, "d1": empty})),
                           ("runs/m", m), ("runs/n", n)]:
            (tmp_path / where).mkdir(parents=True)
            for doc, table in run.documents.items():
                write_timeml(table.entities, table.links(), tmp_path / where / f"{doc}.tml")
        (tmp_path / "weights.txt").write_text("m 1.0\nn 1.0\n")
        monkeypatch.setattr(solver, "ENUMERATION_BOUND", 0)  # every component to milp
        monkeypatch.setattr(solver, "milp", lambda c, **kwargs: OptimizeResult(
            status=1, x=None, mip_node_count=0, message="fake time limit"))
        config = ExperimentConfig(tmp_path, weights_source=WeightsSource.FILE)
        with pytest.raises(solver.NoIncumbent, match=(
                rf"^m/d1: {solver.NO_INCUMBENT}; row t0_1_1 is still broken$")):
            run_procedure_one(config, [EnsembleSpec(("n",)), EnsembleSpec(("m",))])
