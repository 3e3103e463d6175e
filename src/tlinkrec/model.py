"""Per-document weighted-assignment integer program over classifier votes.

Variables x_<arc>_<ordinal> are binary; each arc carries exactly one of the 15
labels (partition rows), and every fully present arc triangle gets one row per
ordered non-NONE label pair (a, b): choosing a on pq and b on qr forces the pr
label into the composition set of (a, b).  By default NONE is added to the
conclusion side, so labeling pr as NONE never violates a triangle row.  In
either mode every +1 entry sits on a non-NONE label, so the all-NONE
assignment satisfies every row and keeps every instance feasible.

A program is its triangle array: separation and verification read the table
allowed[a, b, c] of label triples, and rows become a matrix only by key (k, a,
b): solve builds the rows it activates, and only the LP export and the test
referees build every row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import BinaryIO, Iterable, List, Sequence

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


def row_name(k: int, a: int, b: int) -> str:
    """Name of triangle k's row for ordinals a on pq and b on qr."""
    return f"t{k}_{a}_{b}"


@functools.cache
def _allowed(none_breaks_triangles: bool) -> np.ndarray:
    """allowed[a, b, c] (ordinals - 1): labels a on pq, b on qr and c on pr
    break no triangle row of the mode.

    Row (a, b) has +1 on a of pq and on b of qr, and -1 on every c that
    allowed[a, b, c] holds; a pair with NONE, or whose row is suppressed,
    allows every c.
    """
    allowed = np.ones((N_LABELS,) * 3, dtype=bool)
    for a in NON_NONE:
        for b in NON_NONE:
            cstar = compose(a, b)
            if cstar == set(CANONICAL_LABELS) and not none_breaks_triangles:
                continue
            minus = {s for c in cstar for s in synonyms(c)}
            if not none_breaks_triangles:
                minus.add(RelType.NONE)
            allowed[a.value - 1, b.value - 1] = False
            allowed[a.value - 1, b.value - 1, [s.value - 1 for s in minus]] = True
    allowed.flags.writeable = False  # one copy for every caller
    return allowed


def row_pairs(none_breaks_triangles: bool) -> np.ndarray:
    """The (a, b) ordinal pairs of the rows every present triangle gets, in
    a-outer/b-inner order."""
    return np.argwhere(~_allowed(none_breaks_triangles).all(axis=2)) + 1


def partition_rows(widths: np.ndarray) -> csr_matrix:
    """One row per arc over its widths[i] consecutive columns, all +1."""
    indptr = np.concatenate(([0], np.cumsum(widths, dtype=np.int64)))
    n = int(indptr[-1])
    return csr_matrix((np.ones(n), np.arange(n), indptr), shape=(len(widths), n))


@dataclass
class BinaryProgram:
    """maximise objective @ x  s.t.  a_eq @ x = 1,  every triangle row,  x binary.

    a_eq holds one partition row per arc; triangle k, a (pq, qr, pr) row of
    triangles, gets one row per pair of row_pairs, row (a, b) keyed (k, a, b)
    and named row_name(k, a, b).
    """

    objective: np.ndarray
    triangles: np.ndarray  # shape (T, 3), from enumerate_triangles
    none_breaks_triangles: bool = False

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        per_tri = len(row_pairs(self.none_breaks_triangles))
        return self.num_vars // N_LABELS + len(self.triangles) * per_tri

    @property
    def a_eq(self) -> csr_matrix:
        return partition_rows(np.full(self.num_vars // N_LABELS, N_LABELS))

    def domain(self) -> np.ndarray:
        """(|A|, 15) mask of each arc's domain, the labels solve() lets it take.

        In the default mode NONE breaks no row in any position, so moving an
        arc from label l to NONE keeps every row and changes the objective
        by alpha[e, NONE] - alpha[e, l]: an arc needs only NONE and the
        labels that outweigh it.  In strict mode a NONE on pr can break a
        row, so every arc keeps all 15 labels.
        """
        alpha = self.objective.reshape(-1, N_LABELS)
        if self.none_breaks_triangles:
            return np.ones(alpha.shape, dtype=bool)
        none = RelType.NONE.value - 1
        domain = alpha > alpha[:, [none]]
        domain[:, none] = True
        return domain

    def row_keys(self) -> np.ndarray:
        """(k, a, b) of every triangle row, triangle-major in row_pairs order."""
        pairs = row_pairs(self.none_breaks_triangles)
        ks = np.repeat(np.arange(len(self.triangles)), len(pairs))
        return np.column_stack((ks, np.tile(pairs, (len(self.triangles), 1))))

    def rows(self, keys: np.ndarray) -> csr_matrix:
        """The triangle rows keyed (k, a, b) by the (m, 3) int array keys, in
        that order."""
        arcs = self.triangles[keys[:, 0]]
        i, c = np.nonzero(_allowed(self.none_breaks_triangles)[
            keys[:, 1] - 1, keys[:, 2] - 1])
        m = np.arange(len(keys))
        rows = np.concatenate((m, m, i))
        cols = np.concatenate((arcs[:, 0] * N_LABELS + keys[:, 1] - 1,
                               arcs[:, 1] * N_LABELS + keys[:, 2] - 1,
                               arcs[i, 2] * N_LABELS + c))
        data = np.concatenate((np.ones(2 * len(keys)), -np.ones(len(i))))
        return csr_matrix((data, (rows, cols)), shape=(len(keys), self.num_vars))

    def broken_rows(self, labels: np.ndarray) -> np.ndarray:
        """(k, a, b) of each triangle k whose row (a, b) per-arc labels
        (ordinal - 1) break; a triangle breaks at most one row."""
        lab = labels[self.triangles]
        k = np.flatnonzero(~_allowed(self.none_breaks_triangles)[tuple(lab.T)])
        return np.column_stack((k, lab[k, :2] + 1))

    def binding_rows(self, k: np.ndarray, domain: np.ndarray) -> np.ndarray:
        """(k, a, b) of every row of triangles k that labels inside domain,
        an (|A|, 15) mask, can break: a in pq's domain, b in qr's, and some c
        in pr's that allowed[a, b, c] forbids.  Triangle-major, then in
        row_pairs order."""
        # Label sets as bit masks, bit c for label c; a float matmul would
        # start BLAS and its buffers for this one product.
        bits = 1 << np.arange(N_LABELS)
        forbidden = (~_allowed(self.none_breaks_triangles) * bits).sum(axis=2)
        pq, qr, pr = (domain[self.triangles[k, i]] for i in range(3))
        hits = (forbidden & (pr * bits).sum(axis=1)[:, None, None]) != 0
        i, a, b = np.nonzero(pq[:, :, None] & qr[:, None, :] & hits)
        return np.column_stack((k[i], a + 1, b + 1))

    @staticmethod
    def var_name(v: int) -> str:
        return f"x_{v // N_LABELS}_{v % N_LABELS + 1}"


def build_ip(votes: VoteTable, *,
             none_breaks_triangles: bool = False) -> BinaryProgram:
    """The objective and triangle array of one document's program.

    Rows whose composition set places no restriction (all 14 labels once
    synonyms are expanded) are suppressed in the default mode; in strict mode
    (none_breaks_triangles=True) they still forbid a NONE conclusion, so they
    are kept.
    """
    objective = votes.alpha.reshape(-1).astype(float)
    return BinaryProgram(objective, enumerate_triangles(votes.arcs),
                         none_breaks_triangles)


def stack_programs(programs: Sequence[BinaryProgram]) -> BinaryProgram:
    """One program holding each program's arcs, in order: the objectives are
    concatenated and each triangle array is offset by the arcs before it.

    The programs share no arc, so no row of the stack couples two of them.
    """
    modes = {p.none_breaks_triangles for p in programs}
    if len(modes) != 1:
        raise ValueError("stack_programs needs one or more programs of one mode")
    starts = np.cumsum([0] + [p.num_vars // N_LABELS for p in programs])
    return BinaryProgram(
        np.concatenate([p.objective for p in programs]),
        np.concatenate([p.triangles + s for p, s in zip(programs, starts)]),
        modes.pop())


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
                      sense: str = "") -> List[str]:
    """One constraint per row: + terms first, each sign in column order."""
    matrix = matrix.sorted_indices()
    row = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    order = np.lexsort((matrix.data < 0, row))  # stable, so rows stay in place
    terms = [f"{'-' if coeff < 0 else '+'} {abs(coeff):.6f} {BinaryProgram.var_name(v)}"
             for coeff, v in zip(matrix.data[order].tolist(),
                                 matrix.indices[order].tolist())]
    bounds = zip(names, matrix.indptr[:-1], matrix.indptr[1:])
    return [line for name, lo, hi in bounds
            for line in _wrap(f" {name}:", terms[lo:hi], sense)]


def export_lp(program: BinaryProgram, sink: BinaryIO) -> None:
    """Write the program as solver-neutral CPLEX-LP text (LF line endings)."""
    lines = ["Maximize", *_constraint_lines(csr_matrix(program.objective), ["obj"]),
             "Subject To"]
    lines.extend(_constraint_lines(
        program.a_eq, (f"p{i}" for i in range(program.num_vars // N_LABELS)), "= 1"))
    keys = program.row_keys()
    lines.extend(_constraint_lines(program.rows(keys), (
        row_name(*key) for key in keys.tolist()), "<= 1"))
    lines.append("Binaries")
    lines.extend(f" {BinaryProgram.var_name(v)}" for v in range(program.num_vars))
    lines.append("End")
    sink.write(("\n".join(lines) + "\n").encode("utf-8"))
