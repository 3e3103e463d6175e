"""Reconciliation of temporal-relation classifier ensembles.

Merges the TLINK predictions of multiple classifiers over a document into a
single labeling by solving a weighted-assignment integer program with
interval-algebra transitivity constraints on every triangle of voted arcs,
and scores annotations with a closure-based temporal-awareness metric.
"""

from .errors import (
    ConfigurationError,
    DataError,
    ReconciliationError,
    TimeMLParseError,
)
from .relations import (
    INCONSISTENT,
    EventGraph,
    RelType,
    closure,
    collapse,
    compose,
    invert,
)
from .timeml import (
    CanonicalArc,
    ClassifierRun,
    Corpus,
    EntityKind,
    EntityRef,
    LinkTable,
    TLink,
    canonicalize,
    load_corpus,
    parse_timeml,
)
from .model import (
    BinaryProgram,
    VoteTable,
    build_ip,
    collect_arcs,
    enumerate_triangles,
    export_lp,
)
from .solver import Solution, SolverStats, solve, verify
from .scoring import ScoreReport, score_run, score_runs, temporal_awareness
from .pipeline import (
    EnsembleSpec,
    ExperimentConfig,
    enumerate_ensembles,
    reconcile,
    run_procedure_one,
    run_procedure_two,
)

__version__ = "0.1.0"
