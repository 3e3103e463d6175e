import io
import logging
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlinkrec.errors import ConfigurationError, TimeMLParseError
from tlinkrec.model import collect_arcs
from tlinkrec.relations import RelType, invert
from tlinkrec.timeml import (
    CanonicalArc,
    EntityKind,
    EntityRef,
    SkippedItem,
    TLink,
    canonical_votes,
    canonicalize,
    load_corpus,
    parse_timeml,
    read_weights,
    write_skipped_report,
    write_timeml,
)

SAMPLE = b"""<?xml version="1.0" ?>
<TimeML>
  <DOCID>doc1</DOCID>
  <TIMEX3 tid="t0" type="DATE" value="2013-03-22"
          functionInDocument="CREATION_TIME"/>
  <TIMEX3 tid="t1" type="DATE" value="2013-03-20"/>
  <TEXT>something <EVENT eid="e1" class="OCCURRENCE">happened</EVENT></TEXT>
  <MAKEINSTANCE eiid="ei1" eventID="e1" tense="PAST"/>
  <MAKEINSTANCE eiid="ei2" eventID="e1" tense="PAST"/>
  <TLINK lid="l1" relType="BEFORE" eventInstanceID="ei1" relatedToTime="t0"/>
  <TLINK lid="l2" relType="OVERLAP" eventInstanceID="ei1" relatedToTime="t1"/>
  <TLINK lid="l3" relType="AFTER" eventInstanceID="ei9" relatedToTime="t0"/>
  <TLINK lid="l4" relType="INCLUDES" eventInstanceID="ei2"
         relatedToEventInstance="ei1"/>
</TimeML>
"""


def ev(i, doc="doc1"):
    return EntityRef(EntityKind.EVENT_INSTANCE, f"ei{i}", doc)


class TestParse:
    def test_basic_tlink(self):
        parsed = parse_timeml(SAMPLE, "doc1")
        link = parsed.links[0]
        assert link.source == ev(1)
        assert link.target == EntityRef(EntityKind.DCT, "t0", "doc1")
        assert link.rel is RelType.BEFORE

    def test_dct_tagged(self):
        # l2 names t1; with a known relType it parses, so t1 reaches a link.
        parsed = parse_timeml(SAMPLE.replace(b'"OVERLAP"', b'"BEFORE"'), "doc1")
        kinds = {e.id: e.kind for link in parsed.links
                 for e in (link.source, link.target)}
        assert kinds["t0"] is EntityKind.DCT
        assert kinds["t1"] is EntityKind.TIMEX
        assert kinds["ei1"] is EntityKind.EVENT_INSTANCE

    def test_unknown_reltype_skipped(self):
        parsed = parse_timeml(SAMPLE, "doc1")
        reasons = {s.ref: s.reason for s in parsed.skipped}
        assert "unknown relType OVERLAP" in reasons["l2"]

    def test_dangling_endpoint_skipped(self):
        parsed = parse_timeml(SAMPLE, "doc1")
        reasons = {s.ref: s.reason for s in parsed.skipped}
        assert "unresolved" in reasons["l3"]

    def test_missing_reltype_and_self_loop_skipped(self):
        # The TLINK without a lid is named by its element index.
        parsed = parse_timeml(
            b'<TimeML><MAKEINSTANCE eiid="ei1" eventID="e1"/>'
            b'<TIMEX3 tid="t0"/>'
            b'<TLINK lid="l1" relType="BEFORE" eventInstanceID="ei1" '
            b'relatedToEventInstance="ei1"/>'
            b'<TLINK eventInstanceID="ei1" relatedToTime="t0"/></TimeML>', "d")
        assert parsed.links == []
        assert parsed.skipped == [SkippedItem("d", "l1", "self-loop"),
                                  SkippedItem("d", "#2", "missing relType")]

    def test_timex_without_tid_is_ignored(self):
        # A TIMEX3 with no tid names no entity, not the empty id, so a TLINK
        # whose timeID is empty names none either.
        parsed = parse_timeml(
            b'<TimeML><TIMEX3 functionInDocument="CREATION_TIME"/>'
            b'<MAKEINSTANCE eiid="ei1" eventID="e1"/>'
            b'<TLINK lid="l1" relType="BEFORE" timeID="" '
            b'relatedToEventInstance="ei1"/></TimeML>', "d")
        assert parsed.links == []
        assert parsed.skipped == [SkippedItem("d", "l1", "unresolved endpoint id")]

    def test_tlink_without_a_source_attribute_skipped(self):
        # Neither eventInstanceID nor timeID: the source resolves to nothing.
        parsed = parse_timeml(
            b'<TimeML><TIMEX3 tid="t0"/><MAKEINSTANCE eiid="ei1" eventID="e1"/>'
            b'<TLINK lid="l1" relType="BEFORE" relatedToTime="t0"/></TimeML>', "d")
        assert parsed.links == []
        assert parsed.skipped == [SkippedItem("d", "l1", "unresolved endpoint id")]

    def test_conservation(self):
        parsed = parse_timeml(SAMPLE, "doc1")
        assert SAMPLE.count(b"<TLINK ") == 4
        assert len(parsed.links) + len(parsed.skipped) == 4

    def test_no_tlinks(self):
        parsed = parse_timeml(b"<TimeML><TIMEX3 tid='t0'/></TimeML>", "d")
        assert parsed.links == [] and parsed.skipped == []

    def test_malformed_xml(self):
        # The position is named once, before expat's reason.
        with pytest.raises(TimeMLParseError) as err:
            parse_timeml(b"<TimeML><TLINK", "bad")
        assert str(err.value) == "bad: line 1, column 8: unclosed token"

    @pytest.mark.parametrize("encoding", ["bogus", "rot13", "shift_jis", "utf-32", "big5"])
    def test_unreadable_declared_encoding(self, encoding):
        # An unknown codec, one that is not a text encoding, and a multi-byte
        # one, which expat does not support: each is a parse error, named by
        # its document.
        data = f'<?xml version="1.0" encoding="{encoding}"?><TimeML/>'.encode("ascii")
        with pytest.raises(TimeMLParseError, match="^bad: declared encoding cannot be read: "):
            parse_timeml(data, "bad")

    LATIN = ('<TimeML><MAKEINSTANCE eiid="ei1" eventID="e1"/><TIMEX3 tid="t\xe9"/>'
             '<TLINK lid="l1" relType="BEFORE" eventInstanceID="ei1" relatedToTime="t\xe9"/>'
             '</TimeML>')

    @pytest.mark.parametrize("data", [
        LATIN,
        LATIN.encode("utf-8"),
        LATIN.encode("utf-8-sig"),
        LATIN.encode("utf-16"),
        ('<?xml version="1.0" encoding="ISO-8859-1"?>' + LATIN).encode("latin-1"),
    ], ids=["str", "utf-8", "utf-8-bom", "utf-16-bom", "latin-1-declared"])
    def test_bytes_decoded_by_declaration_or_bom(self, data):
        (link,) = parse_timeml(data, "d").links
        assert link.target == EntityRef(EntityKind.TIMEX, "t\xe9", "d")

    def test_timex_and_event_sharing_an_id_rejected(self):
        # Scoring and the writer know an entity by its id alone.
        shared = SAMPLE.replace(b'tid="t1"', b'tid="ei2"')
        with pytest.raises(TimeMLParseError,
                           match=r"^doc1: id 'ei2' names both a TIMEX3 and a MAKEINSTANCE$"):
            parse_timeml(shared, "doc1")

    def test_determinism(self):
        a = parse_timeml(SAMPLE, "doc1")
        b = parse_timeml(SAMPLE, "doc1")
        assert a.links == b.links and a.skipped == b.skipped

    def test_skipped_report_format(self, tmp_path):
        parsed = parse_timeml(SAMPLE, "doc1")
        with open(tmp_path / "skipped.txt", "w") as fh:
            write_skipped_report(parsed.skipped, fh)
        lines = (tmp_path / "skipped.txt").read_text().splitlines()
        assert lines[0].startswith("doc1 l2 ")


class TestCanonicalize:
    def test_already_canonical(self):
        arc, rel = canonicalize(TLink(ev(1), ev(2), RelType.BEFORE))
        assert (arc.lo, arc.hi, rel) == (ev(1), ev(2), RelType.BEFORE)

    def test_swap_inverts(self):
        arc, rel = canonicalize(TLink(ev(2), ev(1), RelType.BEFORE))
        assert (arc.lo, arc.hi, rel) == (ev(1), ev(2), RelType.AFTER)

    def test_swap_begins(self):
        arc, rel = canonicalize(TLink(ev(2), ev(1), RelType.BEGINS))
        assert rel is RelType.BEGUN_BY

    def test_kind_rank_orders_before_id(self):
        timex = EntityRef(EntityKind.TIMEX, "t9", "doc1")
        arc, rel = canonicalize(TLink(ev(1), timex, RelType.BEFORE))
        assert arc.lo == timex and rel is RelType.AFTER

    def test_idempotent(self):
        link = TLink(ev(2), ev(1), RelType.BEGINS)
        arc, rel = canonicalize(link)
        arc2, rel2 = canonicalize(TLink(arc.lo, arc.hi, rel))
        assert (arc2, rel2) == (arc, rel)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(TLink(ev(1), ev(1), RelType.BEFORE))

    def test_duplicate_votes_keep_last(self, caplog):
        links = [TLink(ev(1), ev(2), RelType.BEFORE),
                 TLink(ev(2), ev(1), RelType.BEFORE)]
        with caplog.at_level(logging.WARNING):
            votes = canonical_votes(links)
        assert votes == {CanonicalArc(ev(1), ev(2)): RelType.AFTER}
        assert caplog.text == ""  # load_run_dir warns, once per load


class TestEntityOrder:
    """Tuple order is the entity total order, so the field order defines it."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(EntityRef, st.sampled_from(list(EntityKind)),
                              st.text("et019", max_size=3), st.just("doc1")),
                    min_size=2, max_size=8, unique=True),
           st.randoms(use_true_random=False))
    def test_entities_and_arcs_sort_by_kind_rank_then_id(self, entities, rnd):
        def rank(e):
            return (e.kind.value, e.id)

        assert sorted(entities) == sorted(entities, key=rank)
        labels = [r for r in RelType if r is not RelType.NONE]
        for a, b in permutations(entities, 2):
            rel = rnd.choice(labels)
            arc, out = canonicalize(TLink(a, b, rel))
            swapped = rank(a) > rank(b)
            assert arc == ((b, a) if swapped else (a, b))
            assert out is (invert(rel) if swapped else rel)
        arcs = [canonicalize(TLink(a, b, RelType.BEFORE))[0]
                for a, b in combinations(entities, 2)]
        rnd.shuffle(arcs)
        fingerprint_order = sorted(arcs, key=lambda arc: (
            (arc.lo.kind, arc.lo.id), (arc.hi.kind, arc.hi.id)))
        assert sorted(arcs, key=lambda arc: arc.key) == fingerprint_order
        assert sorted(arcs) == fingerprint_order


def make_corpus(tmp_path, runs, reference, weights_lines):
    for name, docs in runs.items():
        for doc, (entities, links) in docs.items():
            path = tmp_path / "runs" / name
            path.mkdir(parents=True, exist_ok=True)
            write_timeml(entities, links, path / f"{doc}.tml")
    ref_dir = tmp_path / "reference"
    ref_dir.mkdir(parents=True, exist_ok=True)
    for doc, (entities, links) in reference.items():
        write_timeml(entities, links, ref_dir / f"{doc}.tml")
    (tmp_path / "weights.txt").write_text("\n".join(weights_lines) + "\n")


def doc_payload(doc):
    entities = [EntityRef(EntityKind.DCT, "t0", doc), ev(1, doc), ev(2, doc)]
    links = [TLink(ev(1, doc), ev(2, doc), RelType.BEFORE)]
    return entities, links


class TestLoadCorpus:
    def test_two_by_two(self, tmp_path):
        docs = {d: doc_payload(d) for d in ("d1", "d2")}
        make_corpus(tmp_path, {"c1": docs, "c2": docs}, docs,
                    ["# comment", "c1 0.3624", "c2 0.2882"])
        corpus = load_corpus(tmp_path)
        assert sorted(corpus.runs) == ["c1", "c2"]
        assert corpus.runs["c1"].f1_weight == pytest.approx(0.3624)
        assert sorted(corpus.runs["c1"].documents) == ["d1", "d2"]
        assert corpus.documents == ["d1", "d2"]

    def test_missing_document_allowed(self, tmp_path, caplog):
        docs = {d: doc_payload(d) for d in ("d1", "d2")}
        make_corpus(tmp_path, {"c1": {"d1": doc_payload("d1")}}, docs, ["c1 0.5"])
        with caplog.at_level(logging.WARNING):
            corpus = load_corpus(tmp_path)
        assert sorted(corpus.runs["c1"].documents) == ["d1"]
        assert "no output for document d2" in caplog.text

    def test_skipped_tlink_warned(self, tmp_path, caplog):
        docs = {"d1": doc_payload("d1")}
        make_corpus(tmp_path, {"c1": docs}, docs, ["c1 0.5"])
        run_file = tmp_path / "runs" / "c1" / "d1.tml"
        run_file.write_text(run_file.read_text().replace(
            'relType="BEFORE"', 'relType="BOGUS"'))
        with caplog.at_level(logging.WARNING):
            corpus = load_corpus(tmp_path)
        assert len(corpus.skipped) == 1
        warnings = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        assert warnings == ["c1/d1: skipped TLINK l1: unknown relType BOGUS"]

    def test_skipped_tlink_names_its_run(self, tmp_path, caplog):
        docs = {"d1": doc_payload("d1")}
        make_corpus(tmp_path, {"c1": docs}, docs, ["c1 0.5"])
        for path in (tmp_path / "reference" / "d1.tml",
                     tmp_path / "runs" / "c1" / "d1.tml"):
            path.write_text(path.read_text().replace(
                'relType="BEFORE"', 'relType="BOGUS"'))
        with caplog.at_level(logging.WARNING):
            corpus = load_corpus(tmp_path)
        warnings = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        assert warnings == ["reference/d1: skipped TLINK l1: unknown relType BOGUS",
                            "c1/d1: skipped TLINK l1: unknown relType BOGUS"]
        report = io.StringIO()
        write_skipped_report(corpus.skipped, report)
        assert report.getvalue().splitlines() == [
            "reference/d1 l1 unknown relType BOGUS",
            "c1/d1 l1 unknown relType BOGUS"]

    def test_duplicate_prediction_warned_once_at_load(self, tmp_path, caplog):
        entities, links = doc_payload("d1")
        links.append(TLink(ev(2, "d1"), ev(1, "d1"), RelType.BEFORE))
        make_corpus(tmp_path, {"c1": {"d1": (entities, links)}},
                    {"d1": doc_payload("d1")}, ["c1 0.5"])
        with caplog.at_level(logging.WARNING):
            corpus = load_corpus(tmp_path)
            for _ in range(3):
                collect_arcs(corpus.runs.values(), "d1")
        assert [r.getMessage() for r in caplog.records] == [
            "c1/d1: duplicate prediction on ei1-ei2, keeping AFTER"]

    def test_missing_weight_is_fatal(self, tmp_path):
        docs = {"d1": doc_payload("d1")}
        make_corpus(tmp_path, {"c1": docs}, docs, ["other 0.5"])
        with pytest.raises(ConfigurationError, match="no weights entry"):
            load_corpus(tmp_path)

    def test_weights_file_with_byte_order_mark(self, tmp_path):
        docs = {"d1": doc_payload("d1")}
        make_corpus(tmp_path, {"c1": docs}, docs, [])
        (tmp_path / "weights.txt").write_text("c1 0.5\n", encoding="utf-8-sig")
        assert read_weights(tmp_path / "weights.txt") == {"c1": 0.5}
        assert load_corpus(tmp_path).runs["c1"].f1_weight == 0.5

    def test_missing_weights_file_is_fatal(self, tmp_path):
        docs = {"d1": doc_payload("d1")}
        make_corpus(tmp_path, {"c1": docs}, docs, ["c1 0.5"])
        (tmp_path / "weights.txt").unlink()
        with pytest.raises(ConfigurationError, match=(
                rf"^weights file not found: {tmp_path / 'weights.txt'}$")):
            load_corpus(tmp_path)

    def test_bad_weights_line(self, tmp_path):
        (tmp_path / "w.txt").write_text("c1 notanumber\n")
        with pytest.raises(ConfigurationError):
            read_weights(tmp_path / "w.txt")

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "-0.5"])
    def test_unusable_weight_rejected(self, tmp_path, weight):
        # A weight of 0 is usable: the error names line 3, not line 2.
        (tmp_path / "w.txt").write_text(f"# weights\nc1 0\nc2 {weight}\n")
        with pytest.raises(ConfigurationError, match=rf"w\.txt:3: bad weight '{weight}'"):
            read_weights(tmp_path / "w.txt")

    def test_repeated_name_rejected(self, tmp_path):
        (tmp_path / "w.txt").write_text("c1 0.9\nc2 0.5\nc1 0.1\n")
        with pytest.raises(ConfigurationError, match=r"w\.txt:3: .*'c1' given twice"):
            read_weights(tmp_path / "w.txt")

    def test_roundtrip_through_writer(self, tmp_path):
        entities, links = doc_payload("d1")
        dct = entities[0]
        links.append(TLink(ev(2, "d1"), dct, RelType.AFTER))
        write_timeml(entities, links, tmp_path / "d1.tml")
        parsed = parse_timeml((tmp_path / "d1.tml").read_bytes(), "d1")
        assert parsed.links == [TLink(ev(1, "d1"), ev(2, "d1"), RelType.BEFORE),
                                TLink(ev(2, "d1"), dct, RelType.AFTER)]
        assert parsed.links[1].target.kind is EntityKind.DCT


class TestWrite:
    # write_timeml's bytes for links from an event to a timex, a timex to an
    # event, the DCT to an event and an event to an event, on ids that need
    # escaping in an attribute.
    GOLDEN = (
        b"<?xml version='1.0' encoding='utf-8'?>\n<TimeML>\n"
        b'  <TIMEX3 tid="t0&amp;&lt;&gt;&quot;" type="DATE" value=""'
        b' functionInDocument="CREATION_TIME" />\n'
        b'  <TIMEX3 tid="t1&#10;&#09;&#13;" type="DATE" value="" />\n'
        b'  <MAKEINSTANCE eiid="ei1&quot;&amp;&lt;&#10;&gt;"'
        b' eventID="e1&quot;&amp;&lt;&#10;&gt;" />\n'
        b'  <MAKEINSTANCE eiid="x&#09;&#13;&amp;&gt;" eventID="x&#09;&#13;&amp;&gt;" />\n'
        b'  <TLINK lid="l1" relType="BEFORE" eventInstanceID="ei1&quot;&amp;&lt;&#10;&gt;"'
        b' relatedToTime="t1&#10;&#09;&#13;" />\n'
        b'  <TLINK lid="l2" relType="IBEFORE" timeID="t1&#10;&#09;&#13;"'
        b' relatedToEventInstance="x&#09;&#13;&amp;&gt;" />\n'
        b'  <TLINK lid="l3" relType="DURING_INV" timeID="t0&amp;&lt;&gt;&quot;"'
        b' relatedToEventInstance="ei1&quot;&amp;&lt;&#10;&gt;" />\n'
        b'  <TLINK lid="l4" relType="IDENTITY" eventInstanceID="x&#09;&#13;&amp;&gt;"'
        b' relatedToEventInstance="ei1&quot;&amp;&lt;&#10;&gt;" />\n'
        b"</TimeML>"
    )

    def test_golden_bytes_and_roundtrip(self, tmp_path):
        dct = EntityRef(EntityKind.DCT, 't0&<>"', "d")
        timex = EntityRef(EntityKind.TIMEX, "t1\n\t\r", "d")
        ev1 = EntityRef(EntityKind.EVENT_INSTANCE, 'ei1"&<\n>', "d")
        ev2 = EntityRef(EntityKind.EVENT_INSTANCE, "x\t\r&>", "d")
        links = [TLink(ev1, timex, RelType.BEFORE), TLink(timex, ev2, RelType.IBEFORE),
                 TLink(dct, ev1, RelType.DURING_INV), TLink(ev2, ev1, RelType.IDENTITY)]
        write_timeml([ev2, timex, ev1, dct], links, tmp_path / "d.tml")
        data = (tmp_path / "d.tml").read_bytes()
        assert data == self.GOLDEN
        assert parse_timeml(data, "d").links == links
