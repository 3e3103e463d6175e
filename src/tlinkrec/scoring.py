"""Closure-based temporal-awareness precision/recall/F1.

A predicted relation counts as correct when the closure of the reference
annotation entails exactly that label, and symmetrically for recall; NONE
never counts as correct.  Plain relation counts are used (no reduced-graph
weighting).  The closure entails a label only where every interval model of
the graph gives the pair that label, so a pair that may overlap (which no
TimeML label expresses) is entailed nothing.  An inconsistent side has no
closure: it entails only its own stored labels, and it is flagged.  A
document's two graphs are closed together in one kernel call, and each
relation is counted by an array lookup into the other side's labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Set, TextIO, Tuple

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


# Ordinal -> its canonical synonym's and its converse's; 0 (no label) stays 0.
_COLLAPSED = np.array([0] + [collapse(r) for r in RelType])
_INVERTED = np.array([0] + [invert(r) for r in RelType])


def temporal_awareness(reference: EventGraph, system: EventGraph, *,
                       collapse_identity: bool = True) -> AwarenessCounts:
    """Precision/recall counts of a system graph against a reference graph.

    Both graphs are closed in one entailed_labels call over the union of
    their nodes.  Each side's relations are looked up in the other side's
    table: its closure or, if it is INCONSISTENT, its stored labels.  A
    relation verifies when the table holds its label up to synonyms; NONE
    never verifies.  With collapse_identity off, IDENTITY verifies only
    against a stored IDENTITY (the closure cannot keep the synonyms apart).
    """
    nodes = sorted(reference.nodes | system.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    linked = pair_stack([reference, system], index)
    entailed, inconsistent = entailed_labels(len(nodes), linked)
    side, other = np.arange(2)[:, None], np.arange(1, -1, -1)[:, None]
    i, j, rel = linked.transpose(2, 0, 1)
    stored = np.zeros_like(entailed)
    stored[side, i, j], stored[side, j, i] = rel, _INVERTED[rel]
    table = np.where(inconsistent[:, None, None], stored, entailed)
    verified = (rel != RelType.NONE) & (_COLLAPSED[table[other, i, j]] == _COLLAPSED[rel])
    if not collapse_identity:
        verified = np.where(rel == RelType.IDENTITY,
                            stored[other, i, j] == RelType.IDENTITY, verified)
    verified_ref, verified_sys = verified.sum(axis=1).tolist()
    return AwarenessCounts(verified_sys, len(system), verified_ref, len(reference),
                           bool(inconsistent[0]), bool(inconsistent[1]))


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


def score_run(reference_run: ClassifierRun, system_run: ClassifierRun,
              doc_filter: Optional[Set[str]] = None, *,
              collapse_identity: bool = True, average: str = "micro") -> ScoreReport:
    """Per-document temporal awareness plus a corpus aggregate.

    Documents in the filter but missing from the system run score against an
    empty system graph.
    """
    if average not in ("micro", "macro"):
        raise ValueError(f"unknown averaging mode {average!r}")
    docs = sorted(doc_filter) if doc_filter is not None else sorted(reference_run.documents)
    missing = set(docs) - set(reference_run.documents)
    if missing:
        raise ValueError(f"documents not in reference run: {sorted(missing)}")
    report = ScoreReport(average=average)
    for doc in docs:
        report.per_document[doc] = temporal_awareness(
            build_graph(reference_run.documents[doc]),
            build_graph(system_run.documents.get(doc, [])),
            collapse_identity=collapse_identity)
    return report


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
