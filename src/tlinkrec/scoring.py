"""Closure-based temporal-awareness precision/recall/F1.

A predicted relation counts as correct when the closure of the reference
annotation entails exactly that label, and symmetrically for recall; NONE
never counts as correct.  Plain relation counts are used (no reduced-graph
weighting).  The closure entails a label only where every interval model of
the graph gives the pair that label, so a pair that may overlap (which no
TimeML label expresses) is entailed nothing.  An inconsistent side has no
closure: it entails only its own stored labels, and it is flagged.

score_runs scores any number of system runs against one reference run.  Per
document it builds the reference's graph once, stacks it with every
system's graph, and closes the whole stack in one kernel call over the union
of their nodes; each system's relations are counted by array lookups into
the reference's labels, and the reference's into each system's.  score_run
and temporal_awareness are its one-system cases.  Documents are not stacked
together: each is its own call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, TextIO, Tuple

import numpy as np

from .relations import EventGraph, RelType, collapse, entailed_labels, invert, pair_stack
from .timeml import ClassifierRun, TLink


def f1_score(precision: float, recall: float) -> float:
    if precision + recall <= 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def build_graph(links: Iterable[TLink]) -> EventGraph:
    """Event graph over raw entity ids; duplicate pairs keep the last label."""
    g = EventGraph()
    for link in links:
        if link.rel is RelType.NONE:
            continue
        g.set_relation(link.source.id, link.target.id, link.rel)
    return g


@dataclass
class AwarenessCounts:
    verified_sys: int = 0
    total_sys: int = 0
    verified_ref: int = 0
    total_ref: int = 0
    inconsistent_ref: bool = False
    inconsistent_sys: bool = False

    @property
    def precision(self) -> float:
        return self.verified_sys / self.total_sys if self.total_sys else 0.0

    @property
    def recall(self) -> float:
        return self.verified_ref / self.total_ref if self.total_ref else 0.0

    @property
    def f1(self) -> float:
        return f1_score(self.precision, self.recall)


# Ordinal -> its converse's; 0 (no label) stays 0.
_INVERTED = np.array([0] + [invert(r) for r in RelType])
# _VERIFIES[t, r]: a relation labelled r verifies against the table entry t,
# which holds r up to synonyms; NONE verifies against nothing.
_COLLAPSED = np.array([0] + [collapse(r) for r in RelType])
_VERIFIES = ((_COLLAPSED[:, None] == _COLLAPSED)
             & (np.arange(len(RelType) + 1) != RelType.NONE))


def _document_awareness(reference: EventGraph, systems: Sequence[EventGraph], *,
                        collapse_identity: bool) -> List[AwarenessCounts]:
    """Each system graph's counts against one reference graph.

    The reference and every system are closed in one entailed_labels call
    over the union of their nodes.  Each system's relations are looked up in
    the reference's table, and the reference's relations in each system's:
    a side's table is its closure or, if it is INCONSISTENT, its stored
    labels.  A relation verifies when the table holds its label up to
    synonyms; NONE never verifies.  With collapse_identity off, IDENTITY
    verifies only against a stored IDENTITY (the closure cannot keep the
    synonyms apart).
    """
    graphs = [reference, *systems]
    nodes = sorted(set().union(*(g.nodes for g in graphs)))
    index = {node: i for i, node in enumerate(nodes)}
    linked = pair_stack(graphs, index)
    entailed, inconsistent = entailed_labels(len(nodes), linked)
    i, j, rel = linked.transpose(2, 0, 1)
    graph = np.arange(len(graphs))[:, None]
    stored = np.zeros_like(entailed)
    stored[graph, i, j], stored[graph, j, i] = rel, _INVERTED[rel]
    table = np.where(inconsistent[:, None, None], stored, entailed)
    # Row 0 of owner holds each system's relations, row 1 the reference's,
    # once per system; other is the graph whose table each is looked up in.
    owner = np.zeros((2, len(systems)), dtype=np.intp)
    owner[0] = graph[1:, 0]
    other = owner[::-1, :, None]
    i, j, rel = linked[owner].transpose(3, 0, 1, 2)
    verified = _VERIFIES[table[other, i, j], rel]
    if not collapse_identity:
        verified = np.where(rel == RelType.IDENTITY,
                            stored[other, i, j] == RelType.IDENTITY, verified)
    verified_sys, verified_ref = verified.sum(axis=2).tolist()
    inconsistent_ref, *inconsistent_sys = inconsistent.tolist()
    return [AwarenessCounts(v_sys, len(g), v_ref, len(reference), inconsistent_ref, flag)
            for v_sys, v_ref, g, flag in zip(verified_sys, verified_ref, systems,
                                             inconsistent_sys)]


def temporal_awareness(reference: EventGraph, system: EventGraph, *,
                       collapse_identity: bool = True) -> AwarenessCounts:
    """Precision/recall counts of a system graph against a reference graph:
    the one-system case of the per-document stack that score_runs closes."""
    return _document_awareness(reference, [system],
                               collapse_identity=collapse_identity)[0]


@dataclass
class ScoreReport:
    per_document: Dict[str, AwarenessCounts] = field(default_factory=dict)
    average: str = "micro"

    def _mean(self, measure: Callable[[AwarenessCounts], float]) -> float:
        """Macro: the mean of the per-document values.  Micro: the value of
        the summed counts, i.e. the mean over those counts pooled as one."""
        docs = list(self.per_document.values())
        if self.average == "micro":
            docs = [AwarenessCounts(
                sum(c.verified_sys for c in docs), sum(c.total_sys for c in docs),
                sum(c.verified_ref for c in docs), sum(c.total_ref for c in docs))]
        return sum(map(measure, docs)) / len(docs) if docs else 0.0

    @property
    def precision(self) -> float:
        return self._mean(attrgetter("precision"))

    @property
    def recall(self) -> float:
        return self._mean(attrgetter("recall"))

    @property
    def f1(self) -> float:
        return f1_score(self.precision, self.recall)


def score_runs(reference_run: ClassifierRun, system_runs: Sequence[ClassifierRun],
               doc_filter: Optional[Set[str]] = None, *,
               collapse_identity: bool = True,
               average: str = "micro") -> List[ScoreReport]:
    """One report per system run, each document scored in one kernel call.

    A document's reference graph is built once and closed with every
    system's graph in one stack.  Documents in the filter but missing from a
    system run score against an empty system graph.
    """
    if average not in ("micro", "macro"):
        raise ValueError(f"unknown averaging mode {average!r}")
    docs = sorted(doc_filter) if doc_filter is not None else sorted(reference_run.documents)
    missing = set(docs) - set(reference_run.documents)
    if missing:
        raise ValueError(f"documents not in reference run: {sorted(missing)}")
    if not system_runs:
        return []
    reports = [ScoreReport(average=average) for _ in system_runs]
    for doc in docs:
        counts = _document_awareness(
            build_graph(reference_run.documents[doc]),
            [build_graph(run.documents.get(doc, [])) for run in system_runs],
            collapse_identity=collapse_identity)
        for report, doc_counts in zip(reports, counts):
            report.per_document[doc] = doc_counts
    return reports


def score_run(reference_run: ClassifierRun, system_run: ClassifierRun,
              doc_filter: Optional[Set[str]] = None, *,
              collapse_identity: bool = True, average: str = "micro") -> ScoreReport:
    """Per-document temporal awareness plus a corpus aggregate: the
    one-system case of score_runs."""
    return score_runs(reference_run, [system_run], doc_filter,
                      collapse_identity=collapse_identity, average=average)[0]


def write_csv(report: ScoreReport, sink: TextIO) -> None:
    sink.write("doc_id,precision,recall,f1,verified_sys,total_sys,"
               "verified_ref,total_ref\n")
    for doc in sorted(report.per_document):
        c = report.per_document[doc]
        sink.write(f"{doc},{c.precision:.4f},{c.recall:.4f},{c.f1:.4f},"
                   f"{c.verified_sys},{c.total_sys},{c.verified_ref},{c.total_ref}\n")
    sink.write(f"ALL,{report.precision:.4f},{report.recall:.4f},"
               f"{report.f1:.4f},,,,\n")


def format_score_table(rows: List[Tuple[str, float, float, float]]) -> str:
    """Aligned text table: label, F1, precision, recall per row."""
    width = max([len(label) for label, *_ in rows] + [8])
    lines = [f"{'IDs':<{width}}  {'F1':>6}  {'Prec':>6}  {'Rec':>6}"]
    for label, f1, prec, rec in rows:
        lines.append(f"{label:<{width}}  {f1:6.4f}  {prec:6.4f}  {rec:6.4f}")
    return "\n".join(lines) + "\n"
