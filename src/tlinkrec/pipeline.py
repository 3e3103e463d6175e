"""Experiment orchestration: ensemble reconciliation and the two procedures.

Procedure one weighs ensemble members by their F1 on the full reference set
and scores the reconciled output on the same set.  Procedure two splits the
corpus in half, derives weights from the first half, and reconciles/scores on
the second half only.  A member's weight depends on the classifier and the
weighing documents, not the ensemble, so each experiment weighs each one once.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field, replace
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import ConfigurationError
from .model import VoteTable, build_ip, collect_arcs, stack_programs
from .relations import Closure, RelType
from .scoring import ScoreReport, format_score_table, score_run
from .solver import (DEFAULT_TIME_LIMIT, OwnRowViolated, Solution, solve,
                     split_solution, violations)
from .timeml import ClassifierRun, Corpus, EntityRef, TLink, load_corpus, write_timeml

log = logging.getLogger(__name__)


class WeightsSource(enum.Enum):
    FULL_REFERENCE = "full"
    S1 = "s1"
    FILE = "file"


@dataclass(frozen=True)
class EnsembleSpec:
    members: Tuple[str, ...]
    label: str = ""

    def display(self) -> str:
        return self.label or ", ".join(self.members)


@dataclass
class ExperimentConfig:
    corpus_root: Path
    split: Optional[Tuple[List[str], List[str]]] = None
    time_limit: float = DEFAULT_TIME_LIMIT
    none_breaks_triangles: bool = False
    weights_path: Optional[Path] = None
    # None: the procedure's own source (FULL_REFERENCE for one, S1 for two).
    weights_source: Optional[WeightsSource] = None


def default_split(doc_ids: Sequence[str]) -> Tuple[List[str], List[str]]:
    """Lexicographic doc-id order, first half into S1."""
    docs = sorted(doc_ids)
    half = len(docs) // 2
    return docs[:half], docs[half:]


def check_members(corpus: Corpus, members: Sequence[str]) -> None:
    """Every member names a classifier of the corpus, and none is named twice."""
    unknown = sorted(set(members) - set(corpus.runs))
    if unknown:
        raise ConfigurationError(f"unknown classifier name(s): {', '.join(unknown)}")
    repeated = sorted({name for name in members if members.count(name) > 1})
    if repeated:
        raise ConfigurationError(f"repeated ensemble member(s): {', '.join(repeated)}")


@dataclass
class ReconcileResult:
    run: ClassifierRun
    votes: Dict[str, VoteTable] = field(default_factory=dict)
    solutions: Dict[str, Solution] = field(default_factory=dict)


def reconcile(corpus: Corpus, members: Sequence[str],
              weights: Optional[Dict[str, float]] = None, *,
              doc_filter: Optional[Set[str]] = None,
              time_limit: float = DEFAULT_TIME_LIMIT,
              none_breaks_triangles: bool = False) -> ReconcileResult:
    """Solve the per-document assignment program over the members' votes.

    The documents' programs are stacked and solved in one call, under the
    pooled budget time_limit x the number of documents; a call with no
    documents solves nothing.  Each document's Solution carries that call's
    shared SolverStats and proven_optimal.  Every solution is checked against
    the document's full program before it is recorded; a violated row raises
    RuntimeError.  A solver error about a row names the row's document and
    numbers it as that document's own program does.
    """
    check_members(corpus, members)
    member_runs = []
    for name in members:
        run = corpus.runs[name]
        if weights is not None:
            if name not in weights:
                raise ConfigurationError(f"no weight for ensemble member {name!r}")
            run = replace(run, f1_weight=weights[name])
        member_runs.append(run)

    docs = sorted({d for run in member_runs for d in run.documents})
    if doc_filter is not None:
        docs = [d for d in docs if d in doc_filter]

    result = ReconcileResult(ClassifierRun("+".join(members), 1.0))
    if not docs:
        return result
    tables = [collect_arcs(member_runs, doc) for doc in docs]
    programs = [build_ip(votes, none_breaks_triangles=none_breaks_triangles)
                for votes in tables]
    try:
        whole = solve(stack_programs(programs), time_limit=time_limit * len(docs))
    except OwnRowViolated as err:
        k, a, b = err.key
        starts = np.cumsum([0] + [len(p.triangles) for p in programs[:-1]])
        i = int(np.searchsorted(starts, k, side="right")) - 1
        raise OwnRowViolated((k - starts[i], a, b), f"{docs[i]}: ") from err
    solutions = split_solution(whole, programs)
    for doc, votes, program, solution in zip(docs, tables, programs, solutions):
        problems = violations(program, solution)
        if problems:
            raise RuntimeError(f"{doc}: solution fails verification: {problems[0]}")
        if not solution.proven_optimal:
            log.warning("%s: optimality not proven within the time limit; "
                        "writing the best incumbent (objective %.6f)",
                        doc, solution.objective_value)
        links = [
            TLink(arc.lo, arc.hi, solution.assignment[i])
            for i, arc in enumerate(votes.arcs)
            if solution.assignment[i] is not RelType.NONE
        ]
        result.run.documents[doc] = links
        result.votes[doc] = votes
        result.solutions[doc] = solution
    return result


def compute_f1_weights(corpus: Corpus, names: Sequence[str],
                       doc_filter: Optional[Set[str]] = None, *,
                       closed_references: Optional[Dict[str, Closure]] = None
                       ) -> Dict[str, float]:
    """Temporal-awareness F1 of each classifier against the reference.

    closed_references is score_run's: reference closures, filled on first use.
    """
    check_members(corpus, names)
    return {
        name: score_run(corpus.reference, corpus.runs[name], doc_filter,
                        closed_references=closed_references).f1
        for name in names
    }


@dataclass
class ExperimentRow:
    spec: EnsembleSpec
    report: ScoreReport
    result: ReconcileResult


def _run_ensembles(corpus: Corpus, config: ExperimentConfig,
                   ensembles: Sequence[EnsembleSpec], source: WeightsSource,
                   score_docs: Optional[Set[str]]) -> List[ExperimentRow]:
    for spec in ensembles:
        check_members(corpus, spec.members)
    if config.split is not None:
        unknown = sorted(set(config.split[0]).union(config.split[1])
                         - set(corpus.documents))
        if unknown:
            raise ConfigurationError(
                f"split names document(s) not in the corpus: {', '.join(unknown)}")
    # Each reference document is closed once for the whole experiment.
    closed_references: Dict[str, Closure] = {}
    weights = None  # FILE: every run keeps the f1_weight read from the weights file
    if source is not WeightsSource.FILE:
        if source is WeightsSource.S1 and config.split is None:
            raise ConfigurationError("S1 weights requested but no split configured")
        if source is WeightsSource.S1 and not config.split[0]:
            raise ConfigurationError("S1 weights requested but S1 has no documents")
        weigh_docs = set(config.split[0]) if source is WeightsSource.S1 else None
        names = sorted({name for spec in ensembles for name in spec.members})
        weights = compute_f1_weights(corpus, names, weigh_docs,
                                     closed_references=closed_references)
    rows = []
    for spec in ensembles:
        result = reconcile(
            corpus, spec.members, weights,
            doc_filter=score_docs,
            time_limit=config.time_limit,
            none_breaks_triangles=config.none_breaks_triangles,
        )
        report = score_run(corpus.reference, result.run, score_docs,
                           closed_references=closed_references)
        rows.append(ExperimentRow(spec, report, result))
        log.info("ensemble %s: F1 %.4f P %.4f R %.4f", spec.display(),
                 report.f1, report.precision, report.recall)
    return rows


def run_procedure_one(config: ExperimentConfig,
                      ensembles: Sequence[EnsembleSpec]) -> List[ExperimentRow]:
    """Weights from the full reference set; scored on the full reference set."""
    corpus = load_corpus(config.corpus_root, config.weights_path)
    source = config.weights_source or WeightsSource.FULL_REFERENCE
    return _run_ensembles(corpus, config, ensembles, source, None)


def run_procedure_two(config: ExperimentConfig,
                      ensembles: Sequence[EnsembleSpec]) -> List[ExperimentRow]:
    """Weights measured on S1; reconciliation and scoring restricted to S2."""
    if config.weights_source is WeightsSource.FULL_REFERENCE:
        raise ConfigurationError(
            "procedure 2 weighs on S1 and scores on S2; full-reference weights "
            "would include S2's reference (use s1 or file)")
    corpus = load_corpus(config.corpus_root, config.weights_path)
    if config.split is None:
        config = replace(config, split=default_split(corpus.documents))
        log.info("no split configured; defaulting to first half -> S1")
    s1, s2 = config.split
    if set(s1) & set(s2):
        raise ConfigurationError("S1 and S2 overlap")
    if not s2:
        raise ConfigurationError("S2 has no documents to reconcile and score")
    source = config.weights_source or WeightsSource.S1
    return _run_ensembles(corpus, config, ensembles, source, set(s2))


def format_experiment_table(rows: Sequence[ExperimentRow]) -> str:
    return format_score_table([
        (row.spec.display(), row.report.f1, row.report.precision, row.report.recall)
        for row in rows
    ])


def enumerate_ensembles(base: EnsembleSpec, pool: Set[str]) -> List[EnsembleSpec]:
    """All supersets of the base within the pool, by size then lexicographic."""
    if not set(base.members) <= pool:
        raise ConfigurationError("base ensemble members must lie within the pool")
    remaining = sorted(pool - set(base.members))
    out = []
    for k in range(len(remaining) + 1):
        for extra in combinations(remaining, k):
            members = tuple(sorted(set(base.members) | set(extra)))
            out.append(replace(base, members=members, label=""))
    return out


def write_reconciled(result: ReconcileResult, out_dir: Path) -> None:
    """Write reconciled output back as TimeML so it scores like any run."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for doc, links in sorted(result.run.documents.items()):
        entities: List[EntityRef] = []
        for votes_arc in result.votes[doc].arcs:
            entities.append(votes_arc.lo)
            entities.append(votes_arc.hi)
        write_timeml(entities, links, out_dir / f"{doc}.tml")
