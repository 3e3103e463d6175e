"""End-to-end acceptance checks, one criterion per test.

Each test prints a single PASS/FAIL/SKIP line so the suite can be audited
from the console output alone (run with `pytest -s` or check the captured
output).
"""

import io
import random
import time

import numpy as np
import pytest

from tlinkrec.model import N_LABELS, VoteTable, build_ip, collect_arcs, export_lp
from tlinkrec.relations import (
    EventGraph,
    NON_NONE,
    RelType,
    collapse,
    compose,
    invert,
    relation_from_intervals,
)
from tlinkrec.scoring import temporal_awareness
from tlinkrec.solver import solve, verify, violations
from tlinkrec.synthetic import SyntheticClassifier, generate_corpus
from tlinkrec.timeml import CanonicalArc, EntityKind, EntityRef, load_corpus

from lp_reader import read_lp
from point_oracle import oracle_composition_table, oracle_inverse_table
from referees import brute_force_solve, is_consistent_labeling
from test_relations import random_model_graph


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE CRITERION {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed: {detail}"


def ev(i, doc="doc"):
    return EntityRef(EntityKind.EVENT_INSTANCE, f"ei{i:03d}", doc)


SYNTH_CLASSIFIERS = [
    SyntheticClassifier("alpha", flip_rate=0.1),
    SyntheticClassifier("beta", flip_rate=0.25, drop_rate=0.1),
    SyntheticClassifier("gamma", flip_rate=0.4, extra_rate=0.05),
]


@pytest.fixture(scope="module")
def synth_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    generate_corpus(root, seed=13, n_docs=50, classifiers=SYNTH_CLASSIFIERS)
    return load_corpus(root)


def test_criterion_1_algebra_oracle():
    start = time.perf_counter()
    comp_oracle = oracle_composition_table()
    inv_oracle = oracle_inverse_table()
    mismatches = 0
    checked = 0
    for a in NON_NONE:
        for b in NON_NONE:
            checked += 1
            expected = comp_oracle[collapse(a).name][collapse(b).name]
            if {r.name for r in compose(a, b)} != expected:
                mismatches += 1
    inverse_checked = 0
    for r in list(RelType):
        inverse_checked += 1
        if r is RelType.NONE:
            if invert(r) is not RelType.NONE:
                mismatches += 1
        elif collapse(invert(r)).name != inv_oracle[collapse(r).name]:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(1, mismatches == 0 and elapsed < 1.0 and inverse_checked == 15,
           f"{checked} compositions, {inverse_checked} inverses, "
           f"{mismatches} mismatches, {elapsed:.3f}s")


def random_solver_instance(rng):
    n_nodes = rng.randint(3, 5)
    pairs = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)]
    rng.shuffle(pairs)
    pairs = sorted(pairs[: rng.randint(1, min(8, len(pairs)))])
    arcs = [CanonicalArc(ev(i), ev(j)) for i, j in pairs]
    alpha = np.zeros((len(arcs), N_LABELS))
    for i in range(len(arcs)):
        for rel in rng.sample(NON_NONE, rng.randint(1, 3)):
            alpha[i, rel.value - 1] = rng.randrange(1, 64) / 64.0
    return build_ip(VoteTable("doc", arcs, alpha),
                    none_breaks_triangles=rng.random() < 0.25)


def test_criterion_2_solver_oracle():
    start = time.perf_counter()
    rng = random.Random(42)
    failures = 0
    for trial in range(200):
        program = random_solver_instance(rng)
        exact = brute_force_solve(program)
        result = solve(program)
        if (result.objective_value != exact.objective_value
                or not result.proven_optimal
                or not verify(program, result)):
            failures += 1
    elapsed = time.perf_counter() - start
    report(2, failures == 0 and elapsed < 60.0,
           f"200 instances, {failures} mismatches, {elapsed:.1f}s")


def test_criterion_3_consistency_of_solved_documents(synth_corpus):
    members = [c.name for c in SYNTH_CLASSIFIERS]
    runs = [synth_corpus.runs[m] for m in members]
    bad = []
    n_docs = 0
    for doc in synth_corpus.documents:
        n_docs += 1
        votes = collect_arcs(runs, doc)
        program = build_ip(votes)
        solution = solve(program)
        if violations(program, solution):
            bad.append(doc)
            continue
        g = EventGraph()
        for i, (lo, hi) in enumerate(votes.arcs.tolist()):
            g.set_relation(votes.entities[lo].id, votes.entities[hi].id,
                           solution.assignment[i])
        if not is_consistent_labeling(g):
            bad.append(doc)
    report(3, n_docs >= 50 and not bad,
           f"{n_docs} documents solved, inconsistent: {bad or 'none'}")


def test_criterion_4_dimension_law(synth_corpus):
    members = [c.name for c in SYNTH_CLASSIFIERS]
    runs = [synth_corpus.runs[m] for m in members]
    bad = []
    for doc in synth_corpus.documents:
        votes = collect_arcs(runs, doc)
        program = build_ip(votes)
        if program.num_vars != 15 * len(votes.arcs):
            bad.append(doc)
    detail = (f"{len(synth_corpus.documents)} documents, violations: "
              f"{bad or 'none'}; challenge-data dimension table unavailable, "
              "checked on synthetic corpora only")
    report(4, not bad, detail)


def test_criterion_5_score_reproduction_requires_challenge_data():
    print("ACCEPTANCE CRITERION 5: SKIP (TempEval-3 Platinum data and the "
          "11 original classifier runs are not distributed with this "
          "repository; criteria 1-4 and 6-7 constitute acceptance)")
    pytest.skip("challenge data not available")


def test_criterion_6_scorer_properties():
    start = time.perf_counter()
    rng = random.Random(77)
    failures = 0
    for _ in range(100):
        g = random_model_graph(rng, rng.randint(3, 7), density=0.7)
        counts = temporal_awareness(g, g)
        if (counts.precision, counts.recall) != (1.0, 1.0):
            failures += 1
            continue
        flipped = EventGraph()
        for p, q, rel in g.edges():
            flipped.set_relation(q, p, invert(rel))
        counts = temporal_awareness(g, flipped)
        if (counts.precision, counts.recall) != (1.0, 1.0):
            failures += 1
    elapsed = time.perf_counter() - start
    report(6, failures == 0 and elapsed < 30.0,
           f"100 graphs, {failures} failures, {elapsed:.1f}s")


def large_instance(n_nodes=150, n_arcs=500, seed=99):
    """7,500-variable instance with mostly consistent, lightly noisy votes."""
    rng = random.Random(seed)
    intervals = []
    while len(intervals) < n_nodes:
        s = rng.randrange(200)
        cand = (s, s + rng.randrange(1, 12))
        if any((x[0] < cand[0] < x[1] < cand[1]) or
               (cand[0] < x[0] < cand[1] < x[1]) for x in intervals):
            continue
        intervals.append(cand)
    pairs = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)]
    rng.shuffle(pairs)
    pairs = sorted(pairs[:n_arcs])
    arcs = [CanonicalArc(ev(i), ev(j)) for i, j in pairs]
    alpha = np.zeros((len(arcs), N_LABELS))
    for idx, (i, j) in enumerate(pairs):
        rel = relation_from_intervals(intervals[i], intervals[j])
        if rel is not None:
            alpha[idx, rel.value - 1] = rng.randrange(32, 64) / 64.0
        for noise in rng.sample(NON_NONE, rng.randint(0, 2)):
            alpha[idx, noise.value - 1] += rng.randrange(1, 16) / 64.0
    return build_ip(VoteTable("doc", arcs, alpha))


def test_criterion_7_performance_and_lp_interchange():
    program = large_instance()
    assert program.num_vars == 7500
    start = time.perf_counter()
    solution = solve(program, time_limit=300.0)
    elapsed = time.perf_counter() - start
    solved_ok = (elapsed < 300.0 and not violations(program, solution)
                 and (solution.proven_optimal or solution.assignment))

    sink = io.BytesIO()
    export_lp(program, sink)
    model = read_lp(sink.getvalue().decode("ascii"))
    values = {f"x_{i}_{rel.value}": 1.0
              for i, rel in solution.assignment.items()}
    parsed_objective = model.objective_at(values)
    parse_ok = (
        model.maximize
        and len(model.binaries) == program.num_vars
        and len(model.constraints) == program.num_rows
        and abs(parsed_objective - solution.objective_value) < 1e-9
        and all(sum(c.terms.get(v, 0.0) * values.get(v, 0.0)
                    for v in c.terms) <= c.rhs + 1e-9
                if c.sense == "<=" else
                abs(sum(c.terms.get(v, 0.0) * values.get(v, 0.0)
                        for v in c.terms) - c.rhs) < 1e-9
                for c in model.constraints)
    )
    report(7, solved_ok and parse_ok,
           f"7500 vars / {program.num_rows} rows, solved in {elapsed:.1f}s "
           f"(optimal: {solution.proven_optimal}); independently parsed "
           f"objective {parsed_objective:.6f} vs {solution.objective_value:.6f}; "
           "no external LP solver is installable in this environment, so the "
           "interchange check uses a self-contained LP-grammar parser")
