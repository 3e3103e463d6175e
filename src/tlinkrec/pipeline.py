"""Experiment orchestration: ensemble reconciliation and the two procedures.

Procedure one weighs ensemble members by their F1 on the full reference set
and scores the reconciled output on the same set.  Procedure two splits the
corpus in half, derives weights from the first half, and reconciles/scores on
the second half only.  A member's weight depends on the classifier and the
weighing documents, not the ensemble, so each experiment weighs each one once.
An experiment reconciles all its ensembles in one reconcile_ensembles call,
so one solve covers every (ensemble, document) program, and it scores its
members, then its ensembles, each in one score_runs call.

A reconcile writes every document of any member's run, within its document
filter (reconciled_documents, which the CLI also asks before it writes).  A
reconciled document is a link table like any run's: the vote table's
entities, and one row for each arc whose solved label is not NONE, in arc
order.  write_reconciled writes it as TimeML, so it scores like any run.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field, replace
from itertools import combinations
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import ConfigurationError, SolveError
from .model import VoteTable, build_ip, collect_arcs
from .relations import RelType
from .scoring import ScoreReport, format_score_table, score_runs
from .solver import DEFAULT_TIME_LIMIT, Solution, solve_documents, violations
from .timeml import ClassifierRun, Corpus, LinkTable, load_corpus, write_timeml

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


def reconciled_documents(corpus: Corpus, members: Sequence[str],
                         doc_filter: Optional[Set[str]] = None) -> List[str]:
    """The documents that reconciling members writes, sorted: each document
    of any member's run, and only those in doc_filter when it is given."""
    docs = sorted({doc for name in members for doc in corpus.runs[name].documents})
    return docs if doc_filter is None else [doc for doc in docs if doc in doc_filter]


class _Part(NamedTuple):
    """One ensemble's program for one document, in a shared solve.  The
    ensemble is its position, so two ensembles of the same members stay two
    parts; str() gives the name that messages use."""

    ensemble: int
    doc: str
    name: str

    def __str__(self) -> str:
        return self.name


def reconcile_ensembles(corpus: Corpus, ensembles: Sequence[Sequence[str]],
                        weights: Optional[Dict[str, float]] = None, *,
                        doc_filter: Optional[Set[str]] = None,
                        time_limit: float = DEFAULT_TIME_LIMIT,
                        none_breaks_triangles: bool = False,
                        name_ensembles: bool = True) -> List[ReconcileResult]:
    """One ReconcileResult per ensemble of members, in order, from one solve.

    Every (ensemble, document) program is a part of one solve_documents call,
    under the pooled budget of time_limit per part.  Parts share no arc, so
    each is solved as its own program would be, but every Solution carries
    that call's shared SolverStats and proven_optimal, for every ensemble.
    Messages name a part "<ensemble>/<document>", the ensemble by its run
    name (the members joined by "+"), or "<document>" alone when
    name_ensembles is false.  Every solution is checked against its part's
    full program before it is recorded; a violated row raises SolveError.
    """
    results: List[ReconcileResult] = []
    tables: Dict[_Part, VoteTable] = {}
    for members in ensembles:
        check_members(corpus, members)
        member_runs = []
        for name in members:
            run = corpus.runs[name]
            if weights is not None:
                if name not in weights:
                    raise ConfigurationError(f"no weight for ensemble member {name!r}")
                run = replace(run, f1_weight=weights[name])
            member_runs.append(run)
        result = ReconcileResult(ClassifierRun("+".join(members), 1.0))
        prefix = f"{result.run.name}/" if name_ensembles else ""
        for doc in reconciled_documents(corpus, members, doc_filter):
            tables[_Part(len(results), doc, prefix + doc)] = collect_arcs(member_runs, doc)
        results.append(result)

    programs = {part: build_ip(votes, none_breaks_triangles=none_breaks_triangles)
                for part, votes in tables.items()}
    for part, solution in solve_documents(programs, time_limit).items():
        problems = violations(programs[part], solution)
        if problems:
            raise SolveError(f"{part}: solution fails verification: {problems[0]}")
        if not solution.proven_optimal:
            log.warning("%s: optimality not proven within the time limit; "
                        "writing the best incumbent (objective %.6f)",
                        part, solution.objective_value)
        votes = tables[part]
        labels = solution.ordinals(len(votes.arcs))
        labelled = labels != RelType.NONE
        result = results[part.ensemble]
        result.run.documents[part.doc] = LinkTable(votes.entities, np.column_stack(
            (votes.arcs[labelled], labels[labelled])))
        result.votes[part.doc] = votes
        result.solutions[part.doc] = solution
    return results


def reconcile(corpus: Corpus, members: Sequence[str],
              weights: Optional[Dict[str, float]] = None, *,
              doc_filter: Optional[Set[str]] = None,
              time_limit: float = DEFAULT_TIME_LIMIT,
              none_breaks_triangles: bool = False) -> ReconcileResult:
    """Solve the per-document assignment program over the members' votes.

    The one-ensemble case of reconcile_ensembles: the documents' programs
    are solved together by one solve_documents call, so each Solution
    carries that call's shared SolverStats and proven_optimal, and a
    message names the document alone.
    """
    return reconcile_ensembles(corpus, [members], weights, doc_filter=doc_filter,
                               time_limit=time_limit,
                               none_breaks_triangles=none_breaks_triangles,
                               name_ensembles=False)[0]


def compute_f1_weights(corpus: Corpus, names: Sequence[str],
                       doc_filter: Optional[Set[str]] = None) -> Dict[str, float]:
    """Temporal-awareness F1 of each classifier against the reference."""
    check_members(corpus, names)
    reports = score_runs(corpus.reference, [corpus.runs[name] for name in names],
                         doc_filter)
    return {name: report.f1 for name, report in zip(names, reports)}


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
    weights = None  # FILE: every run keeps the f1_weight read from the weights file
    if source is not WeightsSource.FILE:
        if source is WeightsSource.S1 and config.split is None:
            raise ConfigurationError("S1 weights requested but no split configured")
        if source is WeightsSource.S1 and not config.split[0]:
            raise ConfigurationError("S1 weights requested but S1 has no documents")
        weigh_docs = set(config.split[0]) if source is WeightsSource.S1 else None
        names = sorted({name for spec in ensembles for name in spec.members})
        weights = compute_f1_weights(corpus, names, weigh_docs)
    results = reconcile_ensembles(
        corpus, [spec.members for spec in ensembles], weights,
        doc_filter=score_docs,
        time_limit=config.time_limit,
        none_breaks_triangles=config.none_breaks_triangles,
    )
    reports = score_runs(corpus.reference, [result.run for result in results], score_docs)
    rows = []
    for spec, result, report in zip(ensembles, results, reports):
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
    for doc, table in sorted(result.run.documents.items()):
        write_timeml(table.entities, table.links(), out_dir / f"{doc}.tml")
