"""Parsing of TimeML-subset documents and classifier run directories.

Only the elements needed for TLINK reconciliation are read: TIMEX3,
MAKEINSTANCE, and TLINK.  Everything else (SIGNAL, SLINK/ALINK, event
attributes) is ignored.  A document's bytes are decoded as its XML
declaration or byte-order mark says, and as UTF-8 when it has neither; bytes
that do not decode raise TimeMLParseError with their line and column, a data
error, and so does a declared encoding that cannot be read.  The weights,
split, ensembles and config files that read_lines reads are UTF-8, and any
other raises ConfigurationError.
"""

from __future__ import annotations

import enum
import logging
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, TextIO, Tuple, Union
from xml.parsers import expat

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


@dataclass(frozen=True)
class TLink:
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
    links: List[TLink]
    skipped: List[SkippedItem]


_INPUT_LABELS = {r.name: r for r in RelType if r is not RelType.NONE}

# The TLINK attributes that name a link's source, then its target, each as
# (event instance, timex); a timex attribute also names the DCT.
_END_ATTRS = (("eventInstanceID", "timeID"), ("relatedToEventInstance", "relatedToTime"))


def parse_timeml(data: Union[bytes, str], document: str = "") -> ParsedDocument:
    """Parse one TimeML document into its TLinks.

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

    timexes: Dict[str, EntityRef] = {}
    events: Dict[str, EntityRef] = {}
    for elem in root.iter():
        if elem.tag == "TIMEX3":
            tid = elem.get("tid", "")
            if not tid:
                continue
            kind = (
                EntityKind.DCT
                if elem.get("functionInDocument") == "CREATION_TIME"
                else EntityKind.TIMEX
            )
            timexes[tid] = EntityRef(kind, tid, document)
        elif elem.tag == "MAKEINSTANCE":
            eiid = elem.get("eiid", "")
            if eiid:
                events[eiid] = EntityRef(EntityKind.EVENT_INSTANCE, eiid, document)
    shared = sorted(timexes.keys() & events.keys())
    if shared:
        raise TimeMLParseError(f"{name}: id {shared[0]!r} names "
                               "both a TIMEX3 and a MAKEINSTANCE")

    def resolve(elem, end: int) -> Optional[EntityRef]:
        """The entity a TLINK's source (end 0) or target (end 1) names: by
        its event-instance attribute if it has one, else by its timex one
        (None, with neither attribute, names no entity)."""
        event_attr, timex_attr = _END_ATTRS[end]
        value = elem.get(event_attr)
        return timexes.get(elem.get(timex_attr)) if value is None else events.get(value)

    links: List[TLink] = []
    skipped: List[SkippedItem] = []
    tlink_count = 0
    for elem in root.iter("TLINK"):
        tlink_count += 1
        ref = elem.get("lid") or f"#{tlink_count}"

        def skip(reason):
            skipped.append(SkippedItem(document, ref, reason))

        rel_name = (elem.get("relType") or "").upper()
        if not rel_name:
            skip("missing relType")
            continue
        rel = _INPUT_LABELS.get(rel_name)
        if rel is None:
            skip(f"unknown relType {rel_name}")
            continue
        source, target = resolve(elem, 0), resolve(elem, 1)
        if source is None or target is None:
            skip("unresolved endpoint id")
            continue
        if source == target:
            skip("self-loop")
            continue
        links.append(TLink(source, target, rel))
    return ParsedDocument(links, skipped)


@dataclass
class ClassifierRun:
    name: str
    f1_weight: float
    documents: Dict[str, List[TLink]] = field(default_factory=dict)


def canonical_votes(links: Iterable[TLink]) -> Dict[CanonicalArc, RelType]:
    """One prediction per arc; duplicates keep the last occurrence."""
    return dict(map(canonicalize, links))


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
    last label is the one canonical_votes keeps.
    """
    paths = sorted(directory.glob("*.tml"))
    if not paths:
        raise DataError(f"no .tml files in {directory}")
    run = ClassifierRun(name, weight)
    for path in paths:
        parsed = parse_timeml(path.read_bytes(), path.stem)
        run.documents[path.stem] = parsed.links
        skipped.extend(replace(item, run=name) for item in parsed.skipped)
        votes: Dict[CanonicalArc, RelType] = {}
        for arc, rel in map(canonicalize, parsed.links):
            if votes.setdefault(arc, rel) is not rel:
                log.warning("%s/%s: duplicate prediction on %s-%s, keeping %s",
                            name, path.stem, arc.lo.id, arc.hi.id, rel.name)
                votes[arc] = rel
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


def write_timeml(entities: Iterable[EntityRef], links: Iterable[TLink],
                 path: Union[str, Path]) -> None:
    """Write a minimal TimeML-subset document that parse_timeml round-trips."""
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
    (source_event, source_timex), (target_event, target_timex) = _END_ATTRS
    for i, link in enumerate(links, 1):
        source_attr = (source_event if link.source.kind is EntityKind.EVENT_INSTANCE
                       else source_timex)
        target_attr = (target_event if link.target.kind is EntityKind.EVENT_INSTANCE
                       else target_timex)
        ET.SubElement(root, "TLINK", {"lid": f"l{i}", "relType": link.rel.name,
                                      source_attr: link.source.id,
                                      target_attr: link.target.id})
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="utf-8", xml_declaration=True)
