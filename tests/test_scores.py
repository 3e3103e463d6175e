"""Score digests: the scorer's counts on the benchmark's corpus shapes, pinned.

The corpora and solves are test_answers.py's: dense and many-small are
reconciled from alpha, beta and gamma, and sparse runs procedure 2 over every
superset of {alpha}, in both modes.  Each reconciled run and each member run
is scored against the whole reference with score_runs, once per identity
mode.  For each (corpus, mode, identity mode), a sha256 over every report's
per-document counts and both INCONSISTENT flags, in run and document order,
must equal the digest in tests/data/scores.json.  A reconciled run of
procedure 2 holds only S2's documents, so S1's score against an empty graph.

A change meant to keep every score (a refactor or a speed-up of the closure
or the scorer) leaves the file as it is, and this test shows that it did.
Re-record the file only for a change meant to change scores or answers, and
name the digests that moved and why in that change's notes:

    PYTHONPATH=src python tests/test_scores.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from tlinkrec.pipeline import (EnsembleSpec, ExperimentConfig, enumerate_ensembles, reconcile,
                               run_procedure_two)
from tlinkrec.scoring import score_runs
from tlinkrec.timeml import load_corpus

from test_answers import CORPORA, MEMBERS, MODES, generate

SCORES = Path(__file__).parent / "data" / "scores.json"
IDENTITY = {"collapse": True, "no-collapse": False}


def scored_runs(name: str, corpus_root: Path, strict: bool):
    """The corpus, and its reconciled runs followed by its member runs."""
    corpus = load_corpus(corpus_root)
    if CORPORA[name][3]:
        config = ExperimentConfig(corpus_root=corpus_root, none_breaks_triangles=strict)
        sweep = enumerate_ensembles(EnsembleSpec(("alpha",)), set(MEMBERS))
        reconciled = [row.result.run for row in run_procedure_two(config, sweep)]
    else:
        reconciled = [reconcile(corpus, MEMBERS, none_breaks_triangles=strict).run]
    return corpus, reconciled + [corpus.runs[member] for member in MEMBERS]


def digest(corpus, runs, collapse_identity: bool) -> str:
    sha = hashlib.sha256()
    reports = score_runs(corpus.reference, runs, collapse_identity=collapse_identity)
    for run, report in zip(runs, reports):
        for doc, c in report.per_document.items():
            sha.update(f"{run.name}/{doc} {c.verified_sys} {c.total_sys} {c.verified_ref} "
                       f"{c.total_ref} {c.inconsistent_ref} {c.inconsistent_sys}\n".encode())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("scores")
    return {name: generate(name, root) for name in CORPORA}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", CORPORA)
def test_scores_match_the_recorded_digest(corpora, name, mode):
    corpus, runs = scored_runs(name, corpora[name], MODES[mode])
    recorded = json.loads(SCORES.read_text())[name][mode]
    assert {identity: digest(corpus, runs, collapse)
            for identity, collapse in IDENTITY.items()} == recorded


if __name__ == "__main__":
    scores = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CORPORA:
            root = generate(name, Path(tmp))
            scores[name] = {}
            for mode, strict in MODES.items():
                corpus, runs = scored_runs(name, root, strict)
                scores[name][mode] = {identity: digest(corpus, runs, collapse)
                                      for identity, collapse in IDENTITY.items()}
    SCORES.write_text(json.dumps(scores, indent=2) + "\n")
    print(SCORES.read_text(), end="")
