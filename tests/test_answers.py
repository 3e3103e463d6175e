"""Answer digests: the solver's answers on the benchmark's corpus shapes, pinned.

The three corpora are the shapes of perfbench's workloads, regenerated here
with synthetic.generate_corpus at content seed 7 and the classifiers alpha,
beta and gamma (flip rates 0.1, 0.25 and 0.4):
- dense: 3 documents of 20-30 events at arc density 0.4;
- many-small: 50 documents of 4-8 events at density 0.6;
- sparse: 4 documents of 60-90 events at density 0.08.
On dense and many-small the test reconciles alpha, beta and gamma at their
weights.txt weights; on sparse it runs procedure 2 over every superset of
{alpha}.  Each runs in both modes.  For each (corpus, mode), a sha256 over
every part in order (its name, its labels in arc order, its objective rounded
to 9 places, and the solve's rounds and milp_cols) must equal the digest in
tests/data/answers.json.  No component of these corpora reaches milp, which
the test checks, so the digests do not depend on the HiGHS version.

A fourth corpus, dense30, is 30 documents of the dense shape.  Its digest
is pinned in the default mode only, as DENSE30_DEFAULT below: in strict mode
its solve reaches milp (5,775 columns), so its labels would follow which of
the equal optima the HiGHS version returns.  Its strict objective total does
not, so that is pinned instead, as DENSE30_STRICT_OBJECTIVE within 1e-6.

A change meant to keep every answer (a refactor or a speed-up) leaves the
file as it is, and this test shows that it did.  Re-record the file only for
a change meant to change answers, such as a new tie rule among equal optima
or a new way of solving a component, and name the digests that moved and why
in that change's notes:

    PYTHONPATH=src python tests/test_answers.py

which also prints dense30's digest, for DENSE30_DEFAULT.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from pathlib import Path

import pytest

from tlinkrec import synthetic
from tlinkrec.pipeline import (EnsembleSpec, ExperimentConfig, enumerate_ensembles, reconcile,
                               run_procedure_two)
from tlinkrec.timeml import load_corpus

ANSWERS = Path(__file__).parent / "data" / "answers.json"
CONTENT_SEED = 7
CLASSIFIERS = (("alpha", 0.1), ("beta", 0.25), ("gamma", 0.4))
MEMBERS = tuple(name for name, _ in CLASSIFIERS)
# name: (documents, events per document, arc density, procedure 2 or reconcile)
CORPORA = {
    "dense": (3, (20, 30), 0.4, False),
    "many-small": (50, (4, 8), 0.6, False),
    "sparse": (4, (60, 90), 0.08, True),
}
SHAPES = {**CORPORA, "dense30": (30, (20, 30), 0.4, False)}
MODES = {"default": False, "strict": True}
DENSE30_DEFAULT = "7d58da52ae0b4ed4c0ec6cd310f7477ce8754bd87fa50ab05478e8bdf427224b"
DENSE30_STRICT_OBJECTIVE = 7941.3


def generate(name: str, root: Path) -> Path:
    docs, events, density, _ = SHAPES[name]
    synthetic.generate_corpus(
        root / name, seed=CONTENT_SEED, n_docs=docs,
        classifiers=[synthetic.SyntheticClassifier(c, rate) for c, rate in CLASSIFIERS],
        n_events=events, arc_density=density)
    return root / name


def solutions(name: str, corpus_root: Path, strict: bool):
    """(part name, Solution) for every part of the corpus's one solve, in order."""
    if SHAPES[name][3]:
        config = ExperimentConfig(corpus_root=corpus_root, none_breaks_triangles=strict)
        sweep = enumerate_ensembles(EnsembleSpec(("alpha",)), set(MEMBERS))
        return [(f"{row.result.run.name}/{doc}", row.result.solutions[doc])
                for row in run_procedure_two(config, sweep)
                for doc in sorted(row.result.solutions)]
    result = reconcile(load_corpus(corpus_root), MEMBERS, none_breaks_triangles=strict)
    return [(doc, result.solutions[doc]) for doc in sorted(result.solutions)]


def digest(parts) -> str:
    sha = hashlib.sha256()
    for part, solution in parts:
        labels = " ".join(solution.assignment[arc].name
                          for arc in range(len(solution.assignment)))
        sha.update(f"{part}\n{labels}\n{solution.objective_value:.9f} "
                   f"{solution.stats.rounds} {solution.stats.milp_cols}\n".encode())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("answers")
    return {name: generate(name, root) for name in CORPORA}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", CORPORA)
def test_answers_match_the_recorded_digest(corpora, name, mode):
    parts = solutions(name, corpora[name], MODES[mode])
    assert parts and all(solution.proven_optimal for _, solution in parts)
    assert all(solution.stats.milp_cols == 0 for _, solution in parts)
    assert digest(parts) == json.loads(ANSWERS.read_text())[name][mode]


def test_dense30_default_answers_match_the_pinned_digest(tmp_path):
    parts = solutions("dense30", generate("dense30", tmp_path), strict=False)
    assert len(parts) == 30 and all(solution.proven_optimal for _, solution in parts)
    assert all(solution.stats.milp_cols == 0 for _, solution in parts)
    assert digest(parts) == DENSE30_DEFAULT


def test_dense30_strict_objective_reached_through_milp(tmp_path):
    parts = solutions("dense30", generate("dense30", tmp_path), strict=True)
    assert len(parts) == 30 and all(solution.proven_optimal for _, solution in parts)
    assert all(solution.stats.milp_cols > 0 for _, solution in parts)
    total = math.fsum(solution.objective_value for _, solution in parts)
    assert abs(total - DENSE30_STRICT_OBJECTIVE) <= 1e-6


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        answers = {name: {mode: digest(solutions(name, generate(name, Path(tmp)), strict))
                          for mode, strict in MODES.items()}
                   for name in CORPORA}
        dense30 = digest(solutions("dense30", generate("dense30", Path(tmp)), strict=False))
    ANSWERS.write_text(json.dumps(answers, indent=2) + "\n")
    print(ANSWERS.read_text(), end="")
    print(f"dense30 default: {dense30}")
