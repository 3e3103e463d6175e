"""Per-document weighted-assignment integer program over classifier votes.

Variables x_<arc>_<ordinal> are binary; each arc carries exactly one of the 15
labels (partition rows), and every fully present arc triangle gets one row per
ordered non-NONE label pair (a, b): choosing a on pq and b on qr forces the pr
label into the composition set of (a, b).  By default NONE is added to the
conclusion side, so labeling pr as NONE never violates a triangle row.  In
either mode every +1 entry sits on a non-NONE label, so the all-NONE
assignment satisfies every row and keeps every instance feasible.

The program is built directly as two scipy sparse matrices, one for the
partition rows and one for the triangle rows; row names exist only in the
exported LP text and in violation messages.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import BinaryIO, Iterable, List, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from .relations import CANONICAL_LABELS, NON_NONE, RelType, compose, synonyms
from .timeml import CanonicalArc, ClassifierRun, canonical_votes

N_LABELS = len(RelType)  # 15


@dataclass
class VoteTable:
    """Index set A of one document plus the per-arc, per-label weight matrix."""

    document: str
    arcs: List[CanonicalArc]
    alpha: np.ndarray  # shape (|A|, 15); column ordinal-1


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


def enumerate_triangles(arcs: Sequence[CanonicalArc]) -> np.ndarray:
    """Every node triple p < q < r whose three pairwise arcs are all present.

    Returns a (T, 3) int array of arc indices (pq, qr, pr) in (p, q, r)
    order.  arc_at[p, q] is the index of arc pq, or -1 for no arc; arcs are
    canonical, so only cells with p < q are filled, and every stored arc
    direction matches the traversal.
    """
    node = {key: i for i, key in enumerate(sorted(
        {key for arc in arcs for key in (arc.lo.key, arc.hi.key)}))}
    arc_at = np.full((len(node), len(node)), -1, dtype=np.int64)
    for i, arc in enumerate(arcs):
        arc_at[node[arc.lo.key], node[arc.hi.key]] = i
    p, q = np.nonzero(arc_at >= 0)
    t, r = np.nonzero((arc_at[p] >= 0) & (arc_at[q] >= 0))
    return np.column_stack((arc_at[p[t], q[t]], arc_at[q[t], r], arc_at[p[t], r]))


@dataclass
class BinaryProgram:
    """maximise objective @ x  s.t.  a_eq @ x = 1,  a_ub @ x <= 1,  x binary.

    a_eq holds one partition row per arc.  a_ub holds the triangle rows;
    row i of a_ub is named t{k}_{a}_{b} from row_keys[i] = (k, a, b): the
    triangle index and the ordinals of its two +1 labels.
    """

    objective: np.ndarray
    a_eq: csr_matrix
    a_ub: csr_matrix
    row_keys: np.ndarray  # shape (a_ub rows, 3)

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return self.a_eq.shape[0] + self.a_ub.shape[0]

    def row_name(self, i: int) -> str:
        k, a, b = self.row_keys[i]
        return f"t{k}_{a}_{b}"

    @staticmethod
    def var_name(v: int) -> str:
        return f"x_{v // N_LABELS}_{v % N_LABELS + 1}"


@functools.cache
def _row_template(none_breaks_triangles: bool) -> Tuple[np.ndarray, np.ndarray]:
    """The triangle rows every present triangle gets, in a-outer/b-inner order.

    Returns the rows' (a, b) ordinal pairs and their coefficients over the
    triangle's 45 variables: the 15 labels of pq, then of qr, then of pr.
    """
    pairs, coeffs = [], []
    for a in NON_NONE:
        for b in NON_NONE:
            cstar = compose(a, b)
            if cstar == set(CANONICAL_LABELS) and not none_breaks_triangles:
                continue
            minus = {s for c in cstar for s in synonyms(c)}
            if not none_breaks_triangles:
                minus.add(RelType.NONE)
            row = np.zeros(3 * N_LABELS)
            row[[a.value - 1, N_LABELS + b.value - 1]] = 1.0
            row[[2 * N_LABELS + s.value - 1 for s in minus]] = -1.0
            pairs.append((a.value, b.value))
            coeffs.append(row)
    pairs, coeffs = np.array(pairs), np.array(coeffs)
    pairs.flags.writeable = coeffs.flags.writeable = False  # shared by callers
    return pairs, coeffs


def build_ip(votes: VoteTable, *,
             none_breaks_triangles: bool = False) -> BinaryProgram:
    """Assemble objective, partition rows, and triangle rows for one document.

    Rows whose composition set places no restriction (all 14 labels once
    synonyms are expanded) are suppressed in the default mode; in strict mode
    (none_breaks_triangles=True) they still forbid a NONE conclusion, so they
    are kept.
    """
    triangles = enumerate_triangles(votes.arcs)
    n_arcs = len(votes.arcs)
    num_vars = n_arcs * N_LABELS
    objective = votes.alpha.reshape(-1).astype(float).copy()
    a_eq = csr_matrix(
        (np.ones(num_vars), np.arange(num_vars),
         np.arange(0, num_vars + 1, N_LABELS)),
        shape=(n_arcs, num_vars),
    )

    # Broadcast the template's nonzeros over all triangles: nonzero j of a
    # template row sits on label j % 15 of the triangle's arc j // 15.
    pairs, coeffs = _row_template(none_breaks_triangles)
    n_tri, per_tri = len(triangles), len(pairs)
    r, j = np.nonzero(coeffs)
    rows = (np.arange(n_tri)[:, None] * per_tri + r).ravel()
    cols = (triangles[:, j // N_LABELS] * N_LABELS + j % N_LABELS).ravel()
    a_ub = csr_matrix((np.tile(coeffs[r, j], n_tri), (rows, cols)),
                      shape=(n_tri * per_tri, num_vars))
    row_keys = np.column_stack((np.repeat(np.arange(n_tri), per_tri),
                                np.tile(pairs, (n_tri, 1))))
    return BinaryProgram(objective, a_eq, a_ub, row_keys)


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


def _constraint_lines(matrix: csr_matrix, names: Iterable[str],
                      sense: str) -> List[str]:
    """One constraint per row: + terms first, each sign in column order."""
    lines = []
    rows = matrix.tolil()
    for name, cols, coeffs in zip(names, rows.rows, rows.data):
        terms = _format_terms(sorted(
            ((c, BinaryProgram.var_name(v)) for v, c in zip(cols, coeffs)),
            key=lambda term: term[0] < 0,
        ))
        lines.extend(_wrap(f" {name}:", terms, sense))
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
    lines.extend(_constraint_lines(
        program.a_eq, (f"p{i}" for i in range(program.a_eq.shape[0])), "= 1"))
    lines.extend(_constraint_lines(
        program.a_ub, map(program.row_name, range(program.a_ub.shape[0])),
        "<= 1"))
    lines.append("Binaries")
    for v in range(program.num_vars):
        lines.append(f" {BinaryProgram.var_name(v)}")
    lines.append("End")
    sink.write(("\n".join(lines) + "\n").encode("utf-8"))
