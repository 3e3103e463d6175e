"""TimeML-subset documents and classifier run directories, read and written.

Only the elements needed for TLINK reconciliation are read: TIMEX3,
MAKEINSTANCE, and TLINK.  Everything else (SIGNAL, SLINK/ALINK, event
attributes) is ignored.  A document's bytes are decoded as its XML
declaration or byte-order mark says, and as UTF-8 when it has neither; bytes
that do not decode raise TimeMLParseError with their line and column, a data
error, and so does a declared encoding that cannot be read.  The weights,
split, ensembles and config files that read_lines reads are UTF-8, and any
other raises ConfigurationError.

A document is one LinkTable from the moment it is parsed until it is
written: the sorted tuple of the entities its links touch, in entity order,
and an (m, 3) int64 array of (lo, hi, ordinal) rows, one per arc, in arc
order.  parse_timeml canonicalizes each TLINK as it reads it, and the last
label given an arc wins; LinkTable.from_links does the same for TLinks.
merged_rows is the one place that puts several tables' rows into one entity
numbering: a vote table's union of its members' entities, or a scored
document's entity ids.  write_timeml formats a document with plain strings,
byte for byte as ElementTree writes it indented.
"""

from __future__ import annotations

import enum
import logging
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Sequence, TextIO, Tuple, Union
from xml.parsers import expat

import numpy as np

from .errors import ConfigurationError, DataError, TimeMLParseError
from .relations import RelType, invert

log = logging.getLogger(__name__)


class EntityKind(enum.IntEnum):
    # Values double as the kind rank in the entity total order.
    DCT = 0
    TIMEX = 1
    EVENT_INSTANCE = 2


class EntityRef(NamedTuple):
    """One entity; tuple order is the entity total order: kind rank, then id.

    `document` is the same for every entity of a document, so it never
    decides the order there.
    """

    kind: EntityKind
    id: str
    document: str = ""


class TLink(NamedTuple):
    source: EntityRef
    target: EntityRef
    rel: RelType


class CanonicalArc(NamedTuple):
    """One unordered entity pair, lo before hi; tuple order is the arc order."""

    lo: EntityRef
    hi: EntityRef

    @property
    def key(self) -> CanonicalArc:
        """The arc itself, which sorts as the arc order; kept for callers
        outside the package that sort by it (the benchmark's fingerprint)."""
        return self


def canonicalize(link: TLink) -> Tuple[CanonicalArc, RelType]:
    """Orient a TLink canonically, inverting the label if endpoints swap."""
    if link.source < link.target:
        return CanonicalArc(link.source, link.target), link.rel
    if link.source > link.target:
        return CanonicalArc(link.target, link.source), invert(link.rel)
    raise ValueError(f"degenerate TLink on {link.source}")


# RelType by ordinal; index 0 is no label.
_RELTYPES = (None, *RelType)


class LinkTable:
    """One document's links: entities, the sorted tuple of the entities they
    touch, and rows, an (m, 3) int64 array of (lo, hi, ordinal), one row
    per arc entities[lo] < entities[hi], in arc order.

    A table that reconciliation writes keeps its vote table's entities, so
    it may hold entities that no row touches.  len() is the number of rows.
    """

    __slots__ = ("entities", "rows")

    def __init__(self, entities: Tuple[EntityRef, ...], rows: np.ndarray):
        self.entities = entities
        self.rows = rows

    @classmethod
    def from_links(cls, links: Iterable[TLink]) -> LinkTable:
        """The table of links, each canonicalized; an arc keeps its last label."""
        votes = dict(map(canonicalize, links))
        entities = tuple(sorted({ent for arc in votes for ent in arc}))
        number = {ent: i for i, ent in enumerate(entities)}
        rows = [(number[lo], number[hi], rel) for (lo, hi), rel in sorted(votes.items())]
        return cls(entities, np.array(rows, dtype=np.int64).reshape(-1, 3))

    def links(self) -> List[TLink]:
        """One TLink per row, from lo to hi, in arc order."""
        entities = self.entities
        return [TLink(entities[lo], entities[hi], _RELTYPES[rel])
                for lo, hi, rel in self.rows.tolist()]

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinkTable) and self.entities == other.entities
                and np.array_equal(self.rows, other.rows))

    def __repr__(self) -> str:
        return f"LinkTable({self.entities!r}, {self.rows.tolist()!r})"


def merged_rows(tables: Sequence[LinkTable], numbers: np.ndarray) -> np.ndarray:
    """Every table's rows, one table after another, each end renumbered.

    numbers holds each table's entities' new numbers, one table after
    another, so a row's end e becomes numbers[c + e], where c counts the
    entities of the tables before its own.  The rows are a new array:
    tables are shared between ensembles and runs, so none is written.
    """
    sizes = [len(table) for table in tables]
    counts = [len(table.entities) for table in tables]
    # Each row's table's first entry in numbers.
    first = np.repeat(np.cumsum(counts) - counts, sizes)
    rows = np.concatenate([table.rows for table in tables])
    rows[:, :2] = numbers[first[:, None] + rows[:, :2]]
    return rows


@dataclass(frozen=True)
class SkippedItem:
    document: str
    ref: str  # lid, or #<element index> when the TLINK carries no lid
    reason: str
    run: str = ""  # set by load_run_dir

    @property
    def where(self) -> str:
        """`<run>/<document>`, or the document alone outside a run."""
        return f"{self.run}/{self.document}" if self.run else self.document


@dataclass
class ParsedDocument:
    table: LinkTable
    skipped: List[SkippedItem]
    # Each TLINK that gave an already predicted arc another label, with that
    # label, in document order.
    duplicates: List[Tuple[CanonicalArc, RelType]]


_INPUT_LABELS = {r.name: r for r in RelType if r is not RelType.NONE}

# The TLINK attributes that name a link's source, then its target, each as
# (event instance, timex); a timex attribute also names the DCT.
_END_ATTRS = (("eventInstanceID", "timeID"), ("relatedToEventInstance", "relatedToTime"))


def parse_timeml(data: Union[bytes, str], document: str = "") -> ParsedDocument:
    """Parse one TimeML document into its link table.

    TLINKs with an unknown relType or an unresolvable endpoint are recorded in
    the skipped list rather than failing the parse.  Bytes are read in the
    encoding that their XML declaration or byte-order mark names, else as
    UTF-8.  TimeMLParseError is raised for malformed XML, bytes that do not
    decode included, naming its line and column once; for a declared
    encoding that cannot be read (unknown, not a text encoding, or
    multi-byte, which expat does not support); and for a TIMEX3 tid that is
    also a MAKEINSTANCE eiid, because entities are scored and written by id
    alone.
    """
    name = document or "<input>"
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, col = exc.position
        raise TimeMLParseError(
            f"{name}: line {line}, column {col}: {expat.ErrorString(exc.code)}") from exc
    except (LookupError, ValueError) as exc:
        raise TimeMLParseError(f"{name}: declared encoding cannot be read: {exc}") from exc

    # The last element of an id wins; one without an id names no entity.
    timexes: Dict[str, EntityRef] = {}
    for elem in root.iter("TIMEX3"):
        tid = elem.get("tid")
        if tid:
            dct = elem.get("functionInDocument") == "CREATION_TIME"
            timexes[tid] = EntityRef(EntityKind.DCT if dct else EntityKind.TIMEX, tid, document)
    events = sorted({eiid for eiid in (elem.get("eiid") for elem in root.iter("MAKEINSTANCE"))
                     if eiid})
    shared = sorted(timexes.keys() & set(events))
    if shared:
        raise TimeMLParseError(f"{name}: id {shared[0]!r} names "
                               "both a TIMEX3 and a MAKEINSTANCE")
    # Each entity's place in entity order, so that a link is canonicalized
    # by comparing two ints and its arc is the int lo * size + hi.
    declared = sorted(timexes.values())
    timex_at = {ent.id: i for i, ent in enumerate(declared)}
    event_at = {eiid: i for i, eiid in enumerate(events, len(declared))}
    declared += (EntityRef(EntityKind.EVENT_INSTANCE, eiid, document) for eiid in events)
    size = len(declared)

    # Each end is named by its event-instance attribute if it has one, else
    # by its timex one; with neither it names no entity.
    (source_event, source_timex), (target_event, target_timex) = _END_ATTRS
    votes: Dict[int, RelType] = {}
    touched = set()
    duplicates: List[Tuple[int, RelType]] = []
    skipped: List[SkippedItem] = []
    for n, elem in enumerate(root.iter("TLINK"), 1):
        rel_name = (elem.get("relType") or "").upper()
        rel = _INPUT_LABELS.get(rel_name)
        eiid = elem.get(source_event)
        source = timex_at.get(elem.get(source_timex)) if eiid is None else event_at.get(eiid)
        eiid = elem.get(target_event)
        target = timex_at.get(elem.get(target_timex)) if eiid is None else event_at.get(eiid)
        reason = ("missing relType" if not rel_name
                  else f"unknown relType {rel_name}" if rel is None
                  else "unresolved endpoint id" if source is None or target is None
                  else "self-loop" if source == target else None)
        if reason:
            skipped.append(SkippedItem(document, elem.get("lid") or f"#{n}", reason))
            continue
        if source < target:
            arc = source * size + target
        else:
            arc, rel = target * size + source, invert(rel)
        if votes.setdefault(arc, rel) is not rel:
            duplicates.append((arc, rel))
            votes[arc] = rel
        touched.add(source)
        touched.add(target)

    rows = np.fromiter(chain.from_iterable((*divmod(arc, size), votes[arc])
                                           for arc in sorted(votes)),
                       dtype=np.int64, count=3 * len(votes)).reshape(-1, 3)
    ends = sorted(touched)
    if len(ends) < size:  # the table numbers only the entities its links touch
        number = np.zeros(size, dtype=np.int64)
        number[ends] = np.arange(len(ends))
        rows[:, :2] = number[rows[:, :2]]
    return ParsedDocument(
        LinkTable(tuple(map(declared.__getitem__, ends)), rows), skipped,
        [(CanonicalArc(declared[arc // size], declared[arc % size]), rel)
         for arc, rel in duplicates])


@dataclass
class ClassifierRun:
    name: str
    f1_weight: float
    documents: Dict[str, LinkTable] = field(default_factory=dict)


def canonical_votes(table: LinkTable) -> Dict[CanonicalArc, RelType]:
    """The table's label of each arc, in arc order."""
    entities = table.entities
    return {CanonicalArc(entities[lo], entities[hi]): _RELTYPES[rel]
            for lo, hi, rel in table.rows.tolist()}


def read_lines(path: Union[str, Path]) -> Iterator[Tuple[str, str]]:
    """`(path:line, content)` for each line of a UTF-8 file that is not blank
    once its `#` comment is stripped; a leading byte-order mark is dropped.
    A file that is not UTF-8 raises ConfigurationError."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 (byte {exc.start}: {exc.reason})") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield f"{path}:{lineno}", line


def read_weights(path: Union[str, Path]) -> Dict[str, float]:
    """Weights file: `<classifier-name> <f1-as-decimal>` per line, '#' comments.

    Each name appears once, with a finite weight >= 0.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"weights file not found: {path}")
    weights: Dict[str, float] = {}
    for where, line in read_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ConfigurationError(f"{where}: expected '<name> <weight>'")
        name, text = parts
        try:
            weight = float(text)
        except ValueError:
            raise ConfigurationError(f"{where}: bad weight {text!r}")
        if not 0 <= weight < math.inf:
            raise ConfigurationError(
                f"{where}: bad weight {text!r} (expected a finite number >= 0)")
        if name in weights:
            raise ConfigurationError(f"{where}: weight for {name!r} given twice")
        weights[name] = weight
    return weights


@dataclass
class Corpus:
    runs: Dict[str, ClassifierRun]
    reference: ClassifierRun
    skipped: List[SkippedItem] = field(default_factory=list)

    @property
    def documents(self) -> List[str]:
        return sorted(self.reference.documents)


def load_run_dir(directory: Path, name: str, weight: float,
                 skipped: List[SkippedItem]) -> ClassifierRun:
    """Every `<doc>.tml` in `directory`; skipped TLINKs are appended to `skipped`.

    Raises DataError when the directory holds no `.tml` file.  Logs one
    warning per TLINK that gives an already predicted pair another label; the
    last label is the one the table keeps.
    """
    paths = sorted(directory.glob("*.tml"))
    if not paths:
        raise DataError(f"no .tml files in {directory}")
    run = ClassifierRun(name, weight)
    for path in paths:
        parsed = parse_timeml(path.read_bytes(), path.stem)
        run.documents[path.stem] = parsed.table
        skipped.extend(replace(item, run=name) for item in parsed.skipped)
        for arc, rel in parsed.duplicates:
            log.warning("%s/%s: duplicate prediction on %s-%s, keeping %s",
                        name, path.stem, arc.lo.id, arc.hi.id, rel.name)
    return run


def load_corpus(root: Union[str, Path],
                weights_path: Union[str, Path, None] = None) -> Corpus:
    """Load `runs/<name>/<doc>.tml`, `reference/<doc>.tml`, and the weights file.

    Every run directory must have a weights entry; documents missing from a
    run are permitted (the run simply votes on no arcs there).
    """
    root = Path(root)
    ref_dir = root / "reference"
    runs_dir = root / "runs"
    if not ref_dir.is_dir():
        raise ConfigurationError(f"missing reference directory: {ref_dir}")
    weights = read_weights(weights_path or root / "weights.txt")

    skipped: List[SkippedItem] = []
    reference = load_run_dir(ref_dir, "reference", 1.0, skipped)
    runs: Dict[str, ClassifierRun] = {}
    if runs_dir.is_dir():
        for sub in sorted(p for p in runs_dir.iterdir() if p.is_dir()):
            if sub.name not in weights:
                raise ConfigurationError(f"no weights entry for classifier {sub.name!r}")
            runs[sub.name] = load_run_dir(sub, sub.name, weights[sub.name], skipped)

    for item in skipped:
        log.warning("%s: skipped TLINK %s: %s", item.where, item.ref, item.reason)
    ref_docs = set(reference.documents)
    for run in runs.values():
        for doc in sorted(ref_docs - set(run.documents)):
            log.warning("classifier %s has no output for document %s", run.name, doc)
    return Corpus(runs, reference, skipped)


def write_skipped_report(skipped: Iterable[SkippedItem], sink: TextIO) -> None:
    for item in skipped:
        sink.write(f"{item.where} {item.ref} {item.reason}\n")


# What ElementTree writes for each character an attribute value must escape.
_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                               "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})


def write_timeml(entities: Iterable[EntityRef], links: Iterable[TLink],
                 path: Union[str, Path]) -> None:
    """Write a minimal TimeML-subset document that parse_timeml round-trips.

    The entities come once each, in entity order, then one TLINK per link,
    in order, from its source to its target.  The bytes are those that
    ElementTree writes for these elements, indented by ET.indent, with an
    XML declaration; an empty document is `<TimeML />`.
    """
    lines = []
    for ent in sorted(set(entities)):
        ident = ent.id.translate(_ATTR_ESCAPES)
        if ent.kind is EntityKind.EVENT_INSTANCE:
            eid = "e" + ident[2:] if ident.startswith("ei") else ident
            lines.append(f'  <MAKEINSTANCE eiid="{ident}" eventID="{eid}" />')
        else:
            dct = ' functionInDocument="CREATION_TIME"' if ent.kind is EntityKind.DCT else ""
            lines.append(f'  <TIMEX3 tid="{ident}" type="DATE" value=""{dct} />')
    (source_event, source_timex), (target_event, target_timex) = _END_ATTRS
    event = EntityKind.EVENT_INSTANCE
    for i, (source, target, rel) in enumerate(links, 1):
        lines.append(
            f'  <TLINK lid="l{i}" relType="{rel.name}" '
            f'{source_event if source.kind is event else source_timex}='
            f'"{source.id.translate(_ATTR_ESCAPES)}" '
            f'{target_event if target.kind is event else target_timex}='
            f'"{target.id.translate(_ATTR_ESCAPES)}" />')
    body = "<TimeML>\n" + "\n".join(lines) + "\n</TimeML>" if lines else "<TimeML />"
    with open(path, "w", encoding="utf-8", errors="xmlcharrefreplace") as fh:
        fh.write("<?xml version='1.0' encoding='utf-8'?>\n" + body)
