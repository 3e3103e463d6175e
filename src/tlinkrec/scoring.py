"""Closure-based temporal-awareness precision/recall/F1.

A predicted relation counts as correct when the closure of the reference
annotation entails exactly that label, and symmetrically for recall; NONE
never counts as correct.  Plain relation counts are used (no reduced-graph
weighting).  The closure entails a label only where every interval model of
the graph gives the pair that label, so a pair that may overlap (which no
TimeML label expresses) is entailed nothing.  An inconsistent side has no
closure: it entails only its own stored labels, and it is flagged.

score_runs scores any number of system runs against one reference run.  A
side is a document's link table, scored by entity id: each row is one
relation, and a NONE row counts but never verifies.  Per document the union
of its tables' entity ids is numbered once; timeml.merged_rows renumbers
every table's rows from it, and relations.linked_stack pads them into the
kernel's stack.  Documents of similar node counts are stacked together, so
a call's documents are closed in a few kernel calls, one or more per bucket
of sizes; each system's relations are counted by array lookups into its
reference's labels, and the reference's into each system's.  score_run is
its one-system case, and temporal_awareness scores two event graphs
through it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, TextIO, Tuple

import numpy as np

from .relations import EventGraph, RelType, collapse, entailed_labels, invert, linked_stack
from .timeml import ClassifierRun, EntityKind, EntityRef, LinkTable, TLink, merged_rows


def f1_score(precision: float, recall: float) -> float:
    if precision + recall <= 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


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
# A system run's side of a document it has no output for.
_NO_LINKS = LinkTable.from_links(())
# The most entries, k * (2n) ** 2, of one stack of k graphs over n
# entities that scoring closes, unless one document alone has more: 8 MB of
# float32 reach.  The benchmark corpora's largest stack has 219,040.
STACK_ENTRIES = 1 << 21


def _awareness(documents: Sequence[Sequence[LinkTable]], *,
               collapse_identity: bool) -> List[List[AwarenessCounts]]:
    """Per document, each system table's counts against its reference table.

    A document is its reference table followed by its system tables, the
    same number in every document; its nodes are the union of its tables'
    entity ids, each numbered once.  The documents are bucketed by
    (2n).bit_length() of their node count n, so that one large document
    does not pad the small ones.  Each bucket is closed in one
    entailed_labels call, or in several when its stack would exceed
    STACK_ENTRIES, each over its own documents' most nodes.  Each system's
    relations are looked up in its reference's table, and the reference's
    relations in each system's: a side's table is its closure or, if it is
    INCONSISTENT, its stored labels.  A relation verifies when the table
    holds its label up to synonyms; NONE never verifies.  With
    collapse_identity off, IDENTITY verifies only against a stored IDENTITY
    (the closure cannot keep the synonyms apart).
    """
    indexes = [{ident: i for i, ident in enumerate(dict.fromkeys(
        ent.id for table in tables for ent in table.entities))} for tables in documents]
    buckets: Dict[int, List[int]] = {}
    for d, index in enumerate(indexes):
        buckets.setdefault((2 * len(index)).bit_length(), []).append(d)
    counts: List[List[AwarenessCounts]] = [[] for _ in documents]
    for key in sorted(buckets):
        bucket = buckets[key]
        n = max(len(indexes[d]) for d in bucket)
        per_call = max(1, STACK_ENTRIES // max(1, len(documents[0]) * (2 * n) ** 2))
        for start in range(0, len(bucket), per_call):
            chunk = bucket[start:start + per_call]
            for d, doc_counts in zip(chunk, _stack_awareness(
                    [documents[d] for d in chunk], [indexes[d] for d in chunk],
                    collapse_identity=collapse_identity)):
                counts[d] = doc_counts
    return counts


def _stack_awareness(documents: Sequence[Sequence[LinkTable]],
                     indexes: Sequence[Dict[str, int]], *,
                     collapse_identity: bool) -> List[List[AwarenessCounts]]:
    """_awareness in one entailed_labels call; indexes holds each document's
    node number of each entity id.  The stack is every document's tables,
    in order, their rows renumbered by their document's index."""
    per_doc = len(documents[0])
    tables = [table for doc_tables in documents for table in doc_tables]
    numbers = np.fromiter(chain.from_iterable(
        map(index.__getitem__, (ent.id for ent in table.entities))
        for doc_tables, index in zip(documents, indexes) for table in doc_tables),
        dtype=np.int64)
    linked = linked_stack(merged_rows(tables, numbers), [len(table) for table in tables])
    entailed, inconsistent = entailed_labels(max(map(len, indexes)), linked)
    i, j, rel = linked.transpose(2, 0, 1)
    graph = np.arange(len(linked))[:, None]
    stored = np.zeros_like(entailed)
    stored[graph, i, j], stored[graph, j, i] = rel, _INVERTED[rel]
    table = np.where(inconsistent[:, None, None], stored, entailed)
    # Row 0 of owner holds each document's systems' graphs, row 1 its
    # reference's, once per system; other is the graph whose table each is
    # looked up in.
    reference = np.arange(0, len(linked), per_doc)[:, None]
    owner = np.stack(np.broadcast_arrays(reference + np.arange(1, per_doc), reference))
    other = owner[::-1, ..., None]
    i, j, rel = linked[owner].transpose(4, 0, 1, 2, 3)
    verified = _VERIFIES[table[other, i, j], rel]
    if not collapse_identity:
        verified = np.where(rel == RelType.IDENTITY,
                            stored[other, i, j] == RelType.IDENTITY, verified)
    verified_sys, verified_ref = verified.sum(axis=3).tolist()
    flags = inconsistent.reshape(len(documents), per_doc).tolist()
    return [[AwarenessCounts(v_sys, len(system), v_ref, len(ref), ref_flag, sys_flag)
             for v_sys, v_ref, system, sys_flag in zip(doc_sys, doc_ref, systems, sys_flags)]
            for doc_sys, doc_ref, (ref, *systems), (ref_flag, *sys_flags)
            in zip(verified_sys, verified_ref, documents, flags)]


def temporal_awareness(reference: EventGraph, system: EventGraph, *,
                       collapse_identity: bool = True) -> AwarenessCounts:
    """Precision/recall counts of a system graph against a reference graph:
    the one-document, one-system case of score_runs, each graph's edges a
    table's rows between event instances named by its nodes."""
    tables = [LinkTable.from_links(
        TLink(EntityRef(EntityKind.EVENT_INSTANCE, p), EntityRef(EntityKind.EVENT_INSTANCE, q),
              rel) for p, q, rel in g.edges()) for g in (reference, system)]
    return _awareness([tables], collapse_identity=collapse_identity)[0][0]


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
    """One report per system run, its documents in sorted order.

    A document's reference table is closed with every system's table, and
    the documents are closed together in a few kernel calls (see
    _awareness).  Documents in the filter but missing from a system run
    score against an empty system table.
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
    documents = [[reference_run.documents[doc],
                  *(run.documents.get(doc, _NO_LINKS) for run in system_runs)]
                 for doc in docs]
    for doc, counts in zip(docs, _awareness(documents, collapse_identity=collapse_identity)):
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
    """One row per document, by id, then the ALL row; a document id that
    holds a comma, a quote or a line break is quoted."""
    rows = csv.writer(sink, lineterminator="\n")
    rows.writerow(["doc_id", "precision", "recall", "f1", "verified_sys", "total_sys",
                   "verified_ref", "total_ref"])
    for doc in sorted(report.per_document):
        c = report.per_document[doc]
        rows.writerow([doc, f"{c.precision:.4f}", f"{c.recall:.4f}", f"{c.f1:.4f}",
                       c.verified_sys, c.total_sys, c.verified_ref, c.total_ref])
    rows.writerow(["ALL", f"{report.precision:.4f}", f"{report.recall:.4f}",
                   f"{report.f1:.4f}", "", "", "", ""])


def format_score_table(rows: List[Tuple[str, float, float, float]]) -> str:
    """Aligned text table: label, F1, precision, recall per row."""
    width = max([len(label) for label, *_ in rows] + [8])
    lines = [f"{'IDs':<{width}}  {'F1':>6}  {'Prec':>6}  {'Rec':>6}"]
    for label, f1, prec, rec in rows:
        lines.append(f"{label:<{width}}  {f1:6.4f}  {prec:6.4f}  {rec:6.4f}")
    return "\n".join(lines) + "\n"
