"""Per-document weighted-assignment integer program over classifier votes.

A document's votes are its VoteTable: collect_arcs merges the members' link
tables in one pass, numbering their entities' union in entity order, so an
arc is a pair of integer ends (lo, hi) into that union, and its row of
alpha holds the F1-sum weight of each label.

Variables x_<arc>_<ordinal> are binary; each arc carries exactly one of the 15
labels (partition rows), and every fully present arc triangle gets one row per
ordered non-NONE label pair (a, b) that restricts pr: choosing a on pq and b
on qr forces the pr label into the labels that three intervals can realise
with a and b (relations.TRIANGLE).  By default NONE, which relates nothing,
is among them, so labeling pr as NONE never violates a triangle row; strict
mode forbids it.  In either mode every +1 entry sits on a non-NONE label, so
the all-NONE assignment satisfies every row and keeps every instance
feasible.

A program is its triangle array: separation and verification read the table
allowed[a, b, c] of label triples, and rows become a matrix only by key (k, a,
b): solve builds the active rows only of the components it hands to milp, and
only the LP export and the test referees build every row.  solve eliminates
every other component with no row at all: an active triangle's factor is
allowed over its arcs' domains, -inf where it forbids the labels of pq, qr
and pr and 0 elsewhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, BinaryIO, Dict, Iterable, List, Tuple

import numpy as np

from .errors import DataError
from .relations import TRIANGLE, RelType
from .timeml import CanonicalArc, ClassifierRun, EntityKind, EntityRef, merged_rows

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

N_LABELS = len(RelType)  # 15


@dataclass
class VoteTable:
    """Index set A of one document plus the per-arc, per-label weight matrix.

    collect_arcs gives the arcs in arc order.  Arcs given as CanonicalArcs,
    in any order, as callers that write them by hand do (the tests and the
    benchmark's self-tests), are stored as integer ends into entities, which
    are then those arcs' entities.
    """

    document: str
    arcs: np.ndarray  # shape (|A|, 2): int64 (lo, hi) into entities, lo < hi
    alpha: np.ndarray  # shape (|A|, 15); column ordinal-1
    entities: Tuple[EntityRef, ...] = ()  # in entity order

    def __post_init__(self) -> None:
        if not isinstance(self.arcs, np.ndarray):
            arcs = list(self.arcs)
            self.entities = tuple(sorted({ent for arc in arcs for ent in arc}))
            number = {ent: i for i, ent in enumerate(self.entities)}
            self.arcs = np.array([(number[lo], number[hi]) for lo, hi in arcs],
                                 dtype=np.int64).reshape(-1, 2)


def _check_kinds(document: str, arcs: Iterable[CanonicalArc]) -> None:
    """DataError for the first id, in arc order, that two arcs give two kinds."""
    kinds: Dict[str, EntityKind] = {}
    for ent in (ent for arc in arcs for ent in arc):
        if kinds.setdefault(ent.id, ent.kind) is not ent.kind:
            raise DataError(f"{document}: the members give id {ent.id!r} two kinds, "
                            f"{kinds[ent.id].name} and {ent.kind.name}")


def collect_arcs(runs: Iterable[ClassifierRun], document: str) -> VoteTable:
    """Union of the runs' arcs with F1-sum weights per label.

    The members' tables are merged in one pass: the union of their entities
    is numbered in entity order, merged_rows renumbers every row's ends
    into it, the arcs are the distinct lo * n + hi keys, and np.add.at adds
    each row's run weight to its arc's label, member by member in order.
    Entities are written and scored by id alone, so an id that two runs
    give different kinds raises DataError.
    """
    members = [run for run in runs if document in run.documents]
    tables = [run.documents[document] for run in members]
    entities = tuple(sorted(set().union(*(table.entities for table in tables))))
    sizes = [len(table) for table in tables]
    if not sum(sizes):
        return VoteTable(document, np.zeros((0, 2), dtype=np.int64), np.zeros((0, N_LABELS)),
                         entities)
    n = len(entities)
    number = {ent: i for i, ent in enumerate(entities)}
    rows = merged_rows(tables, np.fromiter(chain.from_iterable(
        map(number.__getitem__, table.entities) for table in tables), np.int64))
    keys, arc = np.unique(rows[:, 0] * n + rows[:, 1], return_inverse=True)
    arcs = np.column_stack(np.divmod(keys, n))
    if len({ent.id for ent in entities}) < n:
        _check_kinds(document, (CanonicalArc(entities[lo], entities[hi])
                                for lo, hi in arcs.tolist()))
    alpha = np.zeros((len(keys), N_LABELS))
    np.add.at(alpha.reshape(-1), arc.reshape(-1) * N_LABELS + rows[:, 2] - 1,
              np.repeat([run.f1_weight for run in members], sizes))
    return VoteTable(document, arcs, alpha, entities)


def enumerate_triangles(arcs: np.ndarray) -> np.ndarray:
    """Every node triple p < q < r whose three pairwise arcs are all present.

    arcs is a VoteTable's (m, 2) array of (lo, hi) node indexes, lo < hi.
    Returns a (T, 3) int array of arc indices (pq, qr, pr) in (p, q, r)
    order.  arc_at[p, q] is the index of arc pq, or -1 for no arc; only
    cells with p < q are filled, so every stored arc direction matches the
    traversal.
    """
    n = int(arcs.max(initial=-1)) + 1
    arc_at = np.full((n, n), -1, dtype=np.int64)
    arc_at[arcs[:, 0], arcs[:, 1]] = np.arange(len(arcs))
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

    The default mode's table is relations.TRIANGLE, the triples that three
    intervals can realise, where NONE relates nothing; strict mode also
    forbids NONE on pr when pq and qr carry labels other than NONE (NONE is
    the last ordinal).  Row (a, b) has +1 on a of pq and on b of qr, and -1
    on every c that allowed[a, b, c] holds; a pair that allows every c has
    no row.
    """
    if not none_breaks_triangles:
        return TRIANGLE
    allowed = TRIANGLE.copy()
    allowed[:-1, :-1, RelType.NONE - 1] = False
    allowed.flags.writeable = False  # one copy for every caller
    return allowed


def row_pairs(none_breaks_triangles: bool) -> np.ndarray:
    """The (a, b) ordinal pairs of the rows every present triangle gets, in
    a-outer/b-inner order."""
    return np.argwhere(~_allowed(none_breaks_triangles).all(axis=2)) + 1


def partition_rows(widths: np.ndarray) -> csr_matrix:
    """One row per arc over its widths[i] consecutive columns, all +1."""
    from scipy.sparse import csr_matrix

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

    def winning(self) -> np.ndarray:
        """(|A|, 15) mask of each arc's winning labels: NONE and the labels
        that outweigh it."""
        alpha = self.objective.reshape(-1, N_LABELS)
        none = RelType.NONE.value - 1
        return (alpha > alpha[:, [none]]) | (np.arange(N_LABELS) == none)

    def domain(self) -> np.ndarray:
        """(|A|, 15) mask of each arc's domain, the labels solve() lets it take.

        In the default mode NONE breaks no row in any position, so moving an
        arc from label l to NONE keeps every row and changes the objective
        by alpha[e, NONE] - alpha[e, l]: an arc needs only its winning
        labels.  In strict mode a NONE on pr can break a row, so every arc
        keeps all 15 labels.
        """
        return self.winning() | self.none_breaks_triangles

    def row_keys(self) -> np.ndarray:
        """(k, a, b) of every triangle row, triangle-major in row_pairs order."""
        pairs = row_pairs(self.none_breaks_triangles)
        ks = np.repeat(np.arange(len(self.triangles)), len(pairs))
        return np.column_stack((ks, np.tile(pairs, (len(self.triangles), 1))))

    def rows(self, keys: np.ndarray) -> csr_matrix:
        """The triangle rows keyed (k, a, b) by the (m, 3) int array keys, in
        that order."""
        from scipy.sparse import csr_matrix

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

    def binding_rows(self, k: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """(k, a, b) of every row of triangles k that labels inside mask, an
        (|A|, 15) array, can break: a in pq's mask, b in qr's, and some c in
        pr's that allowed[a, b, c] forbids.  solve() passes each arc's
        winning labels plus the label it holds now.  Triangle-major, then in
        row_pairs order."""
        # Label sets as bit masks, bit c for label c; a float matmul would
        # start BLAS and its buffers for this one product.
        bits = 1 << np.arange(N_LABELS)
        forbidden = (~_allowed(self.none_breaks_triangles) * bits).sum(axis=2)
        pq, qr, pr = (mask[self.triangles[k, i]] for i in range(3))
        hits = (forbidden & (pr * bits).sum(axis=1)[:, None, None]) != 0
        i, a, b = np.nonzero(pq[:, :, None] & qr[:, None, :] & hits)
        return np.column_stack((k[i], a + 1, b + 1))

    @staticmethod
    def var_name(v: int) -> str:
        return f"x_{v // N_LABELS}_{v % N_LABELS + 1}"


def build_ip(votes: VoteTable, *,
             none_breaks_triangles: bool = False) -> BinaryProgram:
    """The objective and triangle array of one document's program.

    Its rows are those of the mode's label table (_allowed).  In the default
    mode a pair (a, b) whose composition holds every label allows every pr
    label, so it has no row; in strict mode (none_breaks_triangles=True) the
    pair still forbids a NONE conclusion, so it keeps its row.
    """
    objective = votes.alpha.reshape(-1).astype(float)
    return BinaryProgram(objective, enumerate_triangles(votes.arcs),
                         none_breaks_triangles)


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
    from scipy.sparse import csr_matrix

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
