"""Per-document weighted-assignment integer program over classifier votes.

Variables x_<arc>_<ordinal> are binary; each arc carries exactly one of the 15
labels (partition rows), and every fully present arc triangle gets one row per
ordered non-NONE label pair (a, b): choosing a on pq and b on qr forces the pr
label into the composition set of (a, b).  By default NONE is added to the
conclusion side, so labeling pr as NONE never violates a triangle row and the
all-NONE assignment keeps every instance feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .relations import (
    NON_NONE,
    CompositionTable,
    RelSet,
    RelType,
    TABLE,
    synonyms,
)
from .timeml import CanonicalArc, ClassifierRun, canonical_votes

N_LABELS = len(RelType)  # 15


@dataclass
class VoteTable:
    """Index set A of one document plus the per-arc, per-label weight matrix."""

    document: str
    arcs: List[CanonicalArc]
    alpha: np.ndarray  # shape (|A|, 15); column ordinal-1

    def arc_index(self) -> Dict[CanonicalArc, int]:
        return {arc: i for i, arc in enumerate(self.arcs)}


def collect_arcs(runs: Iterable[ClassifierRun], document: str) -> VoteTable:
    """Union of the runs' canonical arcs with F1-sum weights per label."""
    votes_per_run = [
        (run.f1_weight, canonical_votes(run.documents.get(document, ())))
        for run in runs
    ]
    arcs = sorted({arc for _, votes in votes_per_run for arc in votes},
                  key=lambda a: a.key)
    index = {arc: i for i, arc in enumerate(arcs)}
    alpha = np.zeros((len(arcs), N_LABELS))
    for weight, votes in votes_per_run:
        for arc, rel in votes.items():
            alpha[index[arc], rel.value - 1] += weight
    return VoteTable(document, arcs, alpha)


@dataclass(frozen=True)
class Triangle:
    """Arc indices of one node triple p < q < r, traversed p -> q -> r.

    Arcs are canonical and the traversal is sorted, so every stored arc
    direction matches the traversal.
    """

    pq: int
    qr: int
    pr: int


def enumerate_triangles(arcs: Sequence[CanonicalArc]) -> List[Triangle]:
    """Every unordered node triple whose three pairwise arcs are all present."""
    arc_at: Dict[Tuple, int] = {}
    nodes = {}
    for i, arc in enumerate(arcs):
        arc_at[(arc.lo.key, arc.hi.key)] = i
        nodes.setdefault(arc.lo.key, set())
        nodes.setdefault(arc.hi.key, set())
        nodes[arc.lo.key].add(arc.hi.key)
        nodes[arc.hi.key].add(arc.lo.key)

    triples = []
    for (p, q), i_pq in sorted(arc_at.items()):
        for r in sorted(nodes[p] & nodes[q]):
            if r <= q:
                continue
            i_qr = arc_at.get((q, r))
            i_pr = arc_at.get((p, r))
            if i_qr is None or i_pr is None:
                continue
            triples.append(Triangle(i_pq, i_qr, i_pr))
    return triples


@dataclass(frozen=True)
class TriangleRow:
    """x_pq,a + x_qr,b - sum over the minus variables <= 1."""

    name: str
    plus: Tuple[int, int]
    minus: Tuple[int, ...]


@dataclass
class BinaryProgram:
    num_vars: int
    objective: np.ndarray
    partition_rows: List[Tuple[int, ...]]
    triangle_rows: List[TriangleRow]

    @property
    def num_rows(self) -> int:
        return len(self.partition_rows) + len(self.triangle_rows)

    @staticmethod
    def var_name(v: int) -> str:
        return f"x_{v // N_LABELS}_{v % N_LABELS + 1}"

    @staticmethod
    def var_index(name: str) -> int:
        prefix, arc, ordinal = name.split("_")
        if prefix != "x":
            raise ValueError(f"bad variable name {name!r}")
        ordinal = int(ordinal)
        if not 1 <= ordinal <= N_LABELS:
            raise ValueError(f"bad ordinal in variable name {name!r}")
        return int(arc) * N_LABELS + ordinal - 1


def _expanded_minus(cstar: RelSet, arc: int,
                    include_none: bool) -> Tuple[int, ...]:
    base = arc * N_LABELS
    labels = set()
    for c in cstar:
        labels.update(synonyms(c))
    out = sorted(base + lab.value - 1 for lab in labels)
    if include_none:
        out.append(base + RelType.NONE.value - 1)
    return tuple(out)


def build_ip(votes: VoteTable, triangles: Optional[List[Triangle]] = None,
             table: CompositionTable = TABLE, *,
             none_breaks_triangles: bool = False) -> BinaryProgram:
    """Assemble objective, partition rows, and triangle rows for one document.

    Rows whose composition set places no restriction (all 14 labels once
    synonyms are expanded) are suppressed in the default mode; in strict mode
    (none_breaks_triangles=True) they still forbid a NONE conclusion, so they
    are kept.
    """
    if triangles is None:
        triangles = enumerate_triangles(votes.arcs)
    n_arcs = len(votes.arcs)
    num_vars = n_arcs * N_LABELS
    objective = votes.alpha.reshape(-1).astype(float).copy()
    partition_rows = [
        tuple(range(i * N_LABELS, (i + 1) * N_LABELS)) for i in range(n_arcs)
    ]

    canonical_full = RelSet.canonical_full()
    rows: List[TriangleRow] = []
    for k, tri in enumerate(triangles):
        for a in NON_NONE:
            for b in NON_NONE:
                cstar = table.compose(a, b)
                if cstar == canonical_full and not none_breaks_triangles:
                    continue
                rows.append(TriangleRow(
                    name=f"t{k}_{a.value}_{b.value}",
                    plus=(tri.pq * N_LABELS + a.value - 1,
                          tri.qr * N_LABELS + b.value - 1),
                    minus=_expanded_minus(cstar, tri.pr,
                                          include_none=not none_breaks_triangles),
                ))
    return BinaryProgram(num_vars, objective, partition_rows, rows)


def _format_terms(pairs: Iterable[Tuple[float, str]]) -> List[str]:
    terms = []
    for coeff, name in pairs:
        sign = "-" if coeff < 0 else "+"
        terms.append(f"{sign} {abs(coeff):.6f} {name}")
    return terms


def _wrap(prefix: str, terms: List[str], suffix: str = "") -> List[str]:
    if not terms:
        return [f"{prefix}{' ' + suffix if suffix else ''}"]
    lines = []
    current = prefix
    for term in terms:
        if len(current) + len(term) > 200:
            lines.append(current)
            current = " " + term
        else:
            current += " " + term
    if suffix:
        current += " " + suffix
    lines.append(current)
    return lines


def export_lp(program: BinaryProgram, sink: BinaryIO) -> None:
    """Write the program as solver-neutral CPLEX-LP text (LF line endings)."""
    lines: List[str] = ["Maximize"]
    obj_terms = _format_terms(
        (program.objective[v], BinaryProgram.var_name(v))
        for v in range(program.num_vars)
        if program.objective[v] != 0.0
    )
    lines.extend(_wrap(" obj:", obj_terms))
    lines.append("Subject To")
    for i, row in enumerate(program.partition_rows):
        terms = _format_terms((1.0, BinaryProgram.var_name(v)) for v in row)
        lines.extend(_wrap(f" p{i}:", terms, "= 1"))
    for row in program.triangle_rows:
        terms = _format_terms(
            [(1.0, BinaryProgram.var_name(v)) for v in row.plus]
            + [(-1.0, BinaryProgram.var_name(v)) for v in row.minus]
        )
        lines.extend(_wrap(f" {row.name}:", terms, "<= 1"))
    lines.append("Binaries")
    for v in range(program.num_vars):
        lines.append(f" {BinaryProgram.var_name(v)}")
    lines.append("End")
    sink.write(("\n".join(lines) + "\n").encode("utf-8"))
