from pathlib import Path

import pytest

from greenlint.xmltree import parse_layout_xml

from conftest import CLEAN_CORPUS, GOLDEN, parse_xml
from helpers import contains


def test_minimal_element():
    tree, diags = parse_layout_xml(b"<LinearLayout/>")
    assert diags == []
    assert tree.root.tag == "LinearLayout"
    assert tree.root.attributes == []
    assert tree.root.children == []


def test_layout_fixture_attributes(golden):
    before, _ = golden("obsolete_layout_param")
    tree = parse_xml(before)
    text_views = [e for e in tree.walk() if e.tag == "TextView"]
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
    assert tree.serialize() == source


def _xml_fixtures():
    files = sorted(GOLDEN.rglob("*.xml")) + sorted(CLEAN_CORPUS.rglob("*.xml"))
    assert files
    return files


@pytest.mark.parametrize("path", _xml_fixtures(), ids=lambda p: p.stem)
def test_lossless_round_trip(path: Path):
    data = path.read_bytes()
    tree = parse_xml(data)
    assert tree.serialize() == data


@pytest.mark.parametrize("path", _xml_fixtures(), ids=lambda p: p.stem)
def test_attribute_spans_disjoint_within_start_tag(path: Path):
    data = path.read_bytes()
    tree = parse_xml(data)
    for element in tree.walk():
        prev_end = element.start_tag_span.start
        for attr in element.attributes:
            assert contains(element.start_tag_span, attr.span)
            assert attr.ws_start >= prev_end
            assert attr.span.start >= attr.ws_start
            prev_end = attr.span.end
            # span really covers name="value"
            assert data[attr.span.start : attr.span.end].decode().startswith(attr.name)


def test_diagnostic_column_counts_characters():
    tree, diags = parse_layout_xml('<a>\n<b t="ééé" <'.encode())
    assert tree is None
    assert (diags[0].line, diags[0].column) == (2, 12)
