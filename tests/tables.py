"""Test helpers between the package's tables and the forms tests write by hand.

arcs_of() reads a VoteTable's integer arc ends back as CanonicalArcs.
table_graph() reads a LinkTable as the EventGraph over its entity ids that
scoring's referees take.
"""

from __future__ import annotations

from typing import List

from tlinkrec.model import VoteTable
from tlinkrec.relations import EventGraph
from tlinkrec.timeml import CanonicalArc, LinkTable


def arcs_of(votes: VoteTable) -> List[CanonicalArc]:
    """The vote table's arcs as CanonicalArcs, in arc order."""
    return [CanonicalArc(votes.entities[lo], votes.entities[hi])
            for lo, hi in votes.arcs.tolist()]


def table_graph(table: LinkTable) -> EventGraph:
    """The table's rows as an event graph over entity ids, NONE rows included."""
    g = EventGraph()
    for link in table.links():
        g.set_relation(link.source.id, link.target.id, link.rel)
    return g
