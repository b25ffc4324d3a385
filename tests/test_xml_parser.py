from pathlib import Path

import pytest

from greenlint.xmltree import parse_layout_xml

from conftest import CLEAN_CORPUS, GOLDEN, parse_xml
from helpers import assert_spans_sound, contains


def test_minimal_element():
    tree, diags = parse_layout_xml(b"<LinearLayout/>")
    assert diags == []
    assert tree.root.tag == "LinearLayout"
    assert tree.root.attributes == []
    assert tree.root.children == []


def test_layout_fixture_attributes(golden):
    before, _ = golden("obsolete_layout_param")
    tree = parse_xml(before)
    text_views = [e for e in tree.root.walk() if e.tag == "TextView"]
    assert len(text_views) == 1
    names = [a.name for a in text_views[0].attributes]
    assert len(names) == 4
    assert "android:layout_alignParentBottom" in names


def test_mismatched_tags_yield_diagnostics():
    tree, diags = parse_layout_xml(b"<a><b></a>")
    assert tree is None
    assert "mismatched" in diags[0].message


@pytest.mark.parametrize(
    "source",
    [
        b"<a><b></b>",
        b"<a attr></a>",
        b'<a x="1" x="2"/>',
        b"<a/><b/>",
        b'<a x=1/>',
        b"",
    ],
)
def test_ill_formed_inputs(source):
    tree, diags = parse_layout_xml(source)
    assert tree is None
    assert diags


def test_prolog_comments_and_cdata():
    source = (
        b'<?xml version="1.0" encoding="utf-8"?>\n'
        b"<!-- header -->\n"
        b"<root><![CDATA[ <not-a-tag> ]]><child/><!-- tail --></root>\n"
    )
    tree, diags = parse_layout_xml(source)
    assert diags == []
    assert [c.tag for c in tree.root.children] == ["child"]
    assert_spans_sound(tree)


def _xml_fixtures():
    files = sorted(GOLDEN.rglob("*.xml")) + sorted(CLEAN_CORPUS.rglob("*.xml"))
    assert files
    return files


@pytest.mark.parametrize("path", _xml_fixtures(), ids=lambda p: p.stem)
def test_lossless_round_trip(path: Path):
    assert_spans_sound(parse_xml(path.read_bytes()))


@pytest.mark.parametrize("path", _xml_fixtures(), ids=lambda p: p.stem)
def test_attribute_spans_disjoint_within_start_tag(path: Path):
    data = path.read_bytes()
    tree = parse_xml(data)
    for element in tree.root.walk():
        prev_end = element.span.start
        for attr in element.attributes:
            assert contains(element.span, attr.span)
            assert attr.ws_start >= prev_end
            assert attr.span.start >= attr.ws_start
            prev_end = attr.span.end
            # span really covers name="value"
            assert data[attr.span.start : attr.span.end].decode().startswith(attr.name)


@pytest.mark.parametrize(
    "source,expected",
    [
        (b"", "1:1: expected root element"),
        (b"  text", "1:3: expected root element"),
        (b"<a/>x", "1:5: content after root element"),
        (b"<!-- open", "1:1: unterminated comment"),
        (b"<?xml version='1.0'", "1:1: unterminated processing instruction"),
        (b"<!DOCTYPE a", "1:1: unterminated DOCTYPE"),
        (b"<1/>", "1:2: expected element name"),
        (b"<a =''/>", "1:4: expected attribute name"),
        (b"<a></1>", "1:6: expected closing tag name"),
        (b"<a x='1'", "1:1: unterminated start tag"),
        (b"<a x='1'y='2'/>", "1:9: expected whitespace before attribute"),
        (b"<a x='1' x='2'/>", "1:10: duplicate attribute 'x'"),
        (b"<a x/>", "1:5: expected '=' after attribute name"),
        (b"<a x=1/>", "1:6: expected quoted attribute value"),
        (b"<a x='1/>", "1:6: unterminated attribute value"),
        (b"<a>", "1:1: unclosed element <a>"),
        (b"<a>\n  text", "1:1: unclosed element <a>"),
        (b"<a><b></a>", "1:7: mismatched closing tag: expected </b>, got </a>"),
        (b"<a></a x>", "1:8: expected '>' in closing tag"),
        (b"<a><!-- open</a>", "1:4: unterminated comment"),
        (b"<a><![CDATA[ open</a>", "1:4: unterminated CDATA section"),
        (b"<a><? open</a>", "1:4: unterminated processing instruction"),
        (b"<a t='\xff'/>", "1:1: not valid UTF-8: invalid start byte"),
        (b"<a>" * 5000, "1:1: nesting too deep"),
    ],
)
def test_parse_error_message_and_location(source, expected):
    tree, diags = parse_layout_xml(source)
    assert tree is None
    assert [str(d) for d in diags] == [expected]


def test_diagnostic_column_counts_characters():
    tree, diags = parse_layout_xml('<a>\n<b t="ééé" <'.encode())
    assert tree is None
    assert (diags[0].line, diags[0].column) == (2, 12)
