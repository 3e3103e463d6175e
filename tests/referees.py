"""Test referees for the solver and for reconciled labellings.

solve() separates and verify() checks with the program's label table and never
builds the whole triangle matrix; both referees do, with the row builder called
for every triangle.  brute_force_solve() is the exhaustive optimum for tiny
programs; it never touches a solver and shares no code with the bucket
eliminator (solver._plan, _factor_tables and _eliminate) that solve() uses on
every component whose tables fit ENUMERATION_BOUND, so it can referee
solve().
full_milp_solve() hands the whole program, every triangle row included, to
HiGHS in one call, so it referees solve()'s lazy separation on programs of any
size.
is_consistent_labeling() checks every fully labelled triangle of a
single-label graph against the composition table.
model_closure() and path_consistency_closure() are the closures that
relations.closure must agree with, INCONSISTENT included.  model_closure()
enumerates every placement of at most 4 entities as intervals on 8 points.
path_consistency_closure() runs triple-loop path consistency on the interval
endpoints, for graphs of any size; it is checked against model_closure().
Both decode labels with point_oracle and share no code with the package.
awareness_referee() counts temporal awareness one edge at a time, with
EventGraph.get against path_consistency_closure(), so it referees
scoring.temporal_awareness's array lookups and its stacked kernel call.
elementtree_write_timeml() builds the document that timeml.write_timeml
formats as ElementTree elements and writes it with ElementTree, so it
referees the string writer's bytes.
"""

from __future__ import annotations

import time
import xml.etree.ElementTree as ET
from itertools import combinations
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from tlinkrec.model import N_LABELS, BinaryProgram
from tlinkrec.relations import (
    INCONSISTENT,
    EventGraph,
    RelType,
    _Inconsistent,
    collapse,
    compose,
)
from tlinkrec.scoring import AwarenessCounts
from tlinkrec.solver import Solution, SolverStats
from tlinkrec.timeml import EntityKind, EntityRef, TLink

from point_oracle import CANONICAL, LABEL_OF_GRID, rel_between


def _solution_of(program: BinaryProgram, chosen: List[int], proven: bool,
                 stats: SolverStats) -> Solution:
    """The Solution that sets exactly the variables chosen."""
    assignment = {v // N_LABELS: RelType(v % N_LABELS + 1) for v in chosen}
    return Solution(assignment, float(program.objective[chosen].sum()), proven, stats)


def _arc_candidates(program: BinaryProgram) -> List[List[int]]:
    """Allowed variables per arc, taken from the partition rows."""
    n_arcs = program.num_vars // N_LABELS
    per_arc: List[Optional[Tuple[int, ...]]] = [None] * n_arcs
    for row in program.a_eq.tolil().rows:
        arcs = {v // N_LABELS for v in row}
        if len(arcs) != 1:
            raise ValueError("brute force requires one partition row per arc")
        arc = arcs.pop()
        if per_arc[arc] is not None:
            raise ValueError(f"multiple partition rows for arc {arc}")
        per_arc[arc] = tuple(sorted(row))
    if any(c is None for c in per_arc):
        raise ValueError("every arc needs a partition row")
    return [list(c) for c in per_arc]


def brute_force_solve(program: BinaryProgram) -> Solution:
    """Exhaustive optimum for instances with at most 8 arcs.

    Depth-first over per-arc label choices with an admissible remaining-weight
    bound; among equal optima the lexicographically smallest assignment vector
    (arc order, then ordinal) wins.
    """
    t0 = time.monotonic()
    stats = SolverStats(rows=program.num_rows, cols=program.num_vars)
    n_arcs = program.num_vars // N_LABELS
    if n_arcs > 8:
        raise ValueError(f"instance too large for brute force: {n_arcs} arcs")
    if n_arcs == 0:
        stats.wall_time = time.monotonic() - t0
        return Solution({}, 0.0, True, stats)

    candidates = _arc_candidates(program)
    obj = program.objective
    suffix_max = [0.0] * (n_arcs + 1)
    for arc in range(n_arcs - 1, -1, -1):
        suffix_max[arc] = suffix_max[arc + 1] + max(obj[v] for v in candidates[arc])

    # Group rows by their pair of plus arcs so that feasibility at a node is
    # one dict lookup per triangle instead of a scan over every row: a row is
    # violated exactly when both plus variables are chosen and none of its
    # minus variables is.
    groups: Dict[Tuple[int, int], Dict[Tuple[int, int], frozenset]] = {}
    rows = program.rows(program.row_keys()).tolil()
    for cols, coeffs in zip(rows.rows, rows.data):
        plus = tuple(v for v, c in zip(cols, coeffs) if c == 1.0)
        minus = frozenset(v for v, c in zip(cols, coeffs) if c == -1.0)
        if len(plus) != 2 or len(plus) + len(minus) != len(cols):
            raise ValueError("brute force requires triangle rows with two +1 "
                             "entries and otherwise -1 entries")
        key = (plus[0] // N_LABELS, plus[1] // N_LABELS)
        groups.setdefault(key, {})[plus] = minus
    groups_by_arc: List[List] = [[] for _ in range(n_arcs)]
    for (a0, a1), table in groups.items():
        last = max((a0, a1) + tuple(v // N_LABELS
                                    for minus in table.values() for v in minus))
        groups_by_arc[last].append((a0, a1, table))

    chosen = [-1] * n_arcs  # var index per arc

    def node_ok(arc: int) -> bool:
        for a0, a1, table in groups_by_arc[arc]:
            minus = table.get((chosen[a0], chosen[a1]))
            if minus is not None and not any(
                chosen[v // N_LABELS] == v for v in minus
            ):
                return False
        return True

    best = {"val": -np.inf, "vars": None}

    def find_value(arc: int, acc: float) -> None:
        """Best-first pass: establishes the optimal objective value."""
        if acc + suffix_max[arc] <= best["val"] + 1e-12 and best["vars"] is not None:
            return
        if arc == n_arcs:
            if acc > best["val"] or best["vars"] is None:
                best["val"] = acc
                best["vars"] = list(chosen)
            return
        for v in sorted(candidates[arc], key=lambda u: (-obj[u], u)):
            chosen[arc] = v
            if node_ok(arc):
                find_value(arc + 1, acc + obj[v])
            chosen[arc] = -1

    def find_lex(arc: int, acc: float) -> Optional[List[int]]:
        """Ordinal-order pass: first completion hitting the optimum is the
        lexicographically smallest optimal assignment."""
        if acc + suffix_max[arc] < best["val"] - 1e-12:
            return None
        if arc == n_arcs:
            return list(chosen) if abs(acc - best["val"]) <= 1e-12 else None
        for v in candidates[arc]:
            chosen[arc] = v
            if node_ok(arc):
                hit = find_lex(arc + 1, acc + obj[v])
                if hit is not None:
                    chosen[arc] = -1
                    return hit
            chosen[arc] = -1
        return None

    find_value(0, 0.0)  # all-NONE satisfies every row, so an optimum exists
    final_vars = find_lex(0, 0.0) or best["vars"]
    stats.wall_time = time.monotonic() - t0
    return _solution_of(program, final_vars, True, stats)


def full_milp_solve(program: BinaryProgram, time_limit: float = 300.0) -> Solution:
    """Optimal solution (proven_optimal=True) or best incumbent on timeout.

    One milp call on the full program.  Raises RuntimeError when the time
    limit passes before any incumbent is found or HiGHS fails.
    """
    if time_limit <= 0:
        raise ValueError("time_limit must be positive")
    t0 = time.monotonic()
    stats = SolverStats(rows=program.num_rows, cols=program.num_vars)
    if program.num_vars == 0:
        stats.wall_time = time.monotonic() - t0
        return Solution({}, 0.0, True, stats)

    constraints = [LinearConstraint(program.a_eq, 1, 1)]
    if len(program.triangles):
        constraints.append(LinearConstraint(
            program.rows(program.row_keys()), -np.inf, 1))
    res = milp(-program.objective, integrality=1, bounds=Bounds(0, 1),
               constraints=constraints,
               options={"mip_rel_gap": 0.0, "time_limit": time_limit})
    stats.nodes_explored = res.mip_node_count
    stats.wall_time = time.monotonic() - t0
    if res.status == 1 and res.x is None:
        raise RuntimeError("time limit reached before any incumbent was found")
    if res.status not in (0, 1):
        raise RuntimeError(f"MIP solve failed: {res.message}")
    chosen = np.flatnonzero(res.x > 0.5).tolist()
    return _solution_of(program, chosen, res.status == 0, stats)


def is_consistent_labeling(g: EventGraph) -> bool:
    """True iff every fully labeled triangle satisfies the composition table.

    Edges must carry single labels; NONE-labeled edges (and triangles touching
    them) are exempt.  IDENTITY/SIMULTANEOUS and DURING synonyms are collapsed
    before the membership test.
    """
    adj: Dict[str, set] = {}
    for p, q, rel in g.edges():
        if not isinstance(rel, RelType):
            raise ValueError("is_consistent_labeling requires single-label edges")
        if rel is RelType.NONE:
            continue
        adj.setdefault(p, set()).add(q)
        adj.setdefault(q, set()).add(p)

    for p in sorted(adj):
        for q in sorted(adj[p]):
            if q <= p:
                continue
            for r in sorted(adj[p] & adj[q]):
                if r <= q:
                    continue
                lab_pq = g.get(p, q)
                lab_qr = g.get(q, r)
                lab_pr = g.get(p, r)
                if RelType.NONE in (lab_pq, lab_qr, lab_pr):
                    continue
                if collapse(lab_pr) not in compose(lab_pq, lab_qr):
                    return False
    return True


# --- closure referees ---------------------------------------------------------
#
# Neither reads the package's closure, composition table or endpoint grids:
# labels are decoded by point_oracle from the order of the endpoints.

_CANONICAL_NAME = {"DURING": "IS_INCLUDED", "DURING_INV": "INCLUDES",
                   "IDENTITY": "SIMULTANEOUS"}
_N_POINTS = 8  # enough for any order of the endpoints of 4 intervals
_PLACEMENTS = [(s, e) for s in range(_N_POINTS) for e in range(s + 1, _N_POINTS)]
_PLACED_NAMES = [None] + CANONICAL
# _PLACED[a, b]: index in _PLACED_NAMES of the label between placements a and b
_PLACED = np.array([[_PLACED_NAMES.index(rel_between(*x, *y)) for y in _PLACEMENTS]
                    for x in _PLACEMENTS])


def _linked(g: EventGraph) -> Tuple[List[str], List[Tuple[int, int, str]]]:
    """Sorted nodes, and each labelled pair (i, j, canonical name) with i < j."""
    nodes = sorted(g.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    return nodes, [(index[p], index[q], _CANONICAL_NAME.get(rel.name, rel.name))
                   for p, q, rel in g.edges() if rel is not RelType.NONE]


def model_closure(g: EventGraph) -> Union[EventGraph, _Inconsistent]:
    """The labels g entails, or INCONSISTENT, by enumerating its models.

    Every placement of g's entities (at most 4) as intervals on 8 points is
    tried: 28 ** 4 = 614,656 placements for four.  g is INCONSISTENT iff no
    placement realises all its labels, and a pair is entailed a label iff
    every placement that does gives the pair that label.
    """
    nodes, linked = _linked(g)
    if len(nodes) > 4:
        raise ValueError(f"too many entities to enumerate: {len(nodes)}")
    placed = np.indices((len(_PLACEMENTS),) * len(nodes)).reshape(
        len(nodes), len(_PLACEMENTS) ** len(nodes))
    models = np.ones(placed.shape[1], dtype=bool)
    for i, j, name in linked:
        models &= _PLACED[placed[i], placed[j]] == _PLACED_NAMES.index(name)
    if not models.any():
        return INCONSISTENT
    out = EventGraph(g.nodes)
    for i, j in combinations(range(len(nodes)), 2):
        seen = np.unique(_PLACED[placed[i, models], placed[j, models]])
        if len(seen) == 1 and seen[0]:
            out.set_relation(nodes[i], nodes[j], RelType[_PLACED_NAMES[seen[0]]])
    return out


# Point relations as sets of the basic relations <, =, > (bits 1, 2, 4).
_LT, _EQ, _GT = 1, 2, 4
_ANY = _LT | _EQ | _GT
_BASIC_COMPOSE = {(_LT, _LT): _LT, (_LT, _EQ): _LT, (_LT, _GT): _ANY,
                  (_EQ, _LT): _LT, (_EQ, _EQ): _EQ, (_EQ, _GT): _GT,
                  (_GT, _LT): _ANY, (_GT, _EQ): _GT, (_GT, _GT): _GT}
_CMP = {_LT: -1, _EQ: 0, _GT: 1}
_OF_CMP = {c: r for r, c in _CMP.items()}


def _converse(r: int) -> int:
    return (r & _EQ) | (_LT if r & _GT else 0) | (_GT if r & _LT else 0)


def _compose_sets(r: int, s: int) -> int:
    out = 0
    for a in (_LT, _EQ, _GT):
        for b in (_LT, _EQ, _GT):
            if r & a and s & b:
                out |= _BASIC_COMPOSE[(a, b)]
    return out


_COMPOSE = [[_compose_sets(r, s) for s in range(8)] for r in range(8)]


def path_consistency_closure(g: EventGraph) -> Union[EventGraph, _Inconsistent]:
    """The labels g entails, or INCONSISTENT, by path consistency on the
    endpoints.

    Entity i has the points 2i (start) and 2i + 1 (end), with start < end.
    Each label sets its pair's four endpoint relations, from point_oracle's
    grids.  Every relation is then intersected, in place, with the
    composition along each two-step path until fixpoint; an empty relation
    makes g INCONSISTENT.  The relations stay in the point algebra without
    !=, where path consistency gives the minimal network (van Beek 1992).  A
    pair is entailed a label iff its four endpoint relations are each one
    basic relation and their grid has a label.
    """
    nodes, linked = _linked(g)
    n = 2 * len(nodes)
    r = [[_ANY] * n for _ in range(n)]
    for u in range(n):
        r[u][u] = _EQ
    for i in range(len(nodes)):
        r[2 * i][2 * i + 1], r[2 * i + 1][2 * i] = _LT, _GT
    grids = {name: grid for grid, name in LABEL_OF_GRID.items() if name}
    for i, j, name in linked:
        for cell, c in enumerate(grids[name]):
            u, v = 2 * i + cell // 2, 2 * j + cell % 2
            basic = _OF_CMP[c]
            r[u][v] &= basic
            r[v][u] &= _converse(basic)
            if not r[u][v]:
                return INCONSISTENT

    changed = True
    while changed:
        changed = False
        for u in range(n):
            ru = r[u]
            for v in range(n):
                cur = ru[v]
                for w in range(n):
                    cur &= _COMPOSE[ru[w]][r[w][v]]
                if not cur:
                    return INCONSISTENT
                if cur != ru[v]:
                    ru[v], r[v][u] = cur, _converse(cur)
                    changed = True

    out = EventGraph(g.nodes)
    for i, j in combinations(range(len(nodes)), 2):
        cells = [r[2 * i + cell // 2][2 * j + cell % 2] for cell in range(4)]
        if all(c in _CMP for c in cells):
            name = LABEL_OF_GRID[tuple(_CMP[c] for c in cells)]
            if name:
                out.set_relation(nodes[i], nodes[j], RelType[name])
    return out


def _verified(graph: EventGraph, other: EventGraph, collapse_identity: bool
              ) -> Tuple[int, bool]:
    """Relations of graph that other verifies, and whether other is
    INCONSISTENT.

    A relation verifies when other's closure, or if other is INCONSISTENT
    its stored labels, holds exactly its label up to synonyms; NONE never
    verifies.  With collapse_identity off, IDENTITY verifies only against a
    stored IDENTITY.
    """
    entailed = path_consistency_closure(other)
    inconsistent = entailed is INCONSISTENT
    if inconsistent:
        entailed = other
    verified = 0
    for p, q, rel in graph.edges():
        if not collapse_identity and rel is RelType.IDENTITY:
            verified += other.get(p, q) is RelType.IDENTITY
        else:
            verified += (rel is not RelType.NONE
                         and collapse(entailed.get(p, q)) is collapse(rel))
    return verified, inconsistent


def awareness_referee(reference: EventGraph, system: EventGraph, *,
                      collapse_identity: bool = True) -> AwarenessCounts:
    """temporal_awareness's counts, one edge at a time: every edge counts,
    NONE ones included."""
    verified_sys, inconsistent_ref = _verified(system, reference, collapse_identity)
    verified_ref, inconsistent_sys = _verified(reference, system, collapse_identity)
    return AwarenessCounts(verified_sys, len(list(system.edges())), verified_ref,
                           len(list(reference.edges())), inconsistent_ref,
                           inconsistent_sys)


def elementtree_write_timeml(entities: Iterable[EntityRef], links: Iterable[TLink],
                             path: Union[str, Path]) -> None:
    """write_timeml's document, built and written by ElementTree."""
    root = ET.Element("TimeML")
    for ent in sorted(set(entities)):
        if ent.kind is EntityKind.EVENT_INSTANCE:
            eid = "e" + ent.id[2:] if ent.id.startswith("ei") else ent.id
            ET.SubElement(root, "MAKEINSTANCE", eiid=ent.id, eventID=eid)
        else:
            attrs = {"tid": ent.id, "type": "DATE", "value": ""}
            if ent.kind is EntityKind.DCT:
                attrs["functionInDocument"] = "CREATION_TIME"
            ET.SubElement(root, "TIMEX3", attrs)
    for i, link in enumerate(links, 1):
        source_attr = ("eventInstanceID" if link.source.kind is EntityKind.EVENT_INSTANCE
                       else "timeID")
        target_attr = ("relatedToEventInstance"
                       if link.target.kind is EntityKind.EVENT_INSTANCE else "relatedToTime")
        ET.SubElement(root, "TLINK", {"lid": f"l{i}", "relType": link.rel.name,
                                      source_attr: link.source.id,
                                      target_attr: link.target.id})
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="utf-8", xml_declaration=True)
