import gc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlint.diagnostics import ParseError, line_col
from greenlint.spans import SourceSpan
from greenlint.xmltree import XmlElement, attributes, parse_layout_xml

from conftest import CLEAN_CORPUS, GOLDEN, parse_xml
from helpers import assert_spans_sound, contains
from reference_xml import parse_reference


def test_minimal_element():
    tree, diags = parse_layout_xml(b"<LinearLayout/>")
    assert diags == []
    assert tree.root.tag == "LinearLayout"
    assert attributes(tree, tree.root) == []
    assert tree.root.children == []


def test_layout_fixture_attributes(golden):
    before, _ = golden("obsolete_layout_param")
    tree = parse_xml(before)
    text_views = [e for e in tree.root.walk() if e.tag == "TextView"]
    assert len(text_views) == 1
    names = [name for name, *_ in attributes(tree, text_views[0])]
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
        for name, start, end, ws_start in attributes(tree, element):
            assert contains(element.span, SourceSpan(start, end))
            assert ws_start >= prev_end
            assert start >= ws_start
            prev_end = end
            # span really covers name="value"
            assert data[start:end].decode().startswith(name)


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


def _outcome(data: bytes):
    """The elements in document order, as ``reference_xml`` lists them, or
    the failure's ``line:col: message``."""
    tree, diags = parse_layout_xml(data)
    if tree is None:
        return [str(d) for d in diags]
    return [
        (
            e.tag,
            (e.span.start, e.span.end),
            [(name, (start, end), ws) for name, start, end, ws in attributes(tree, e)],
        )
        for e in tree.root.walk()
    ]


def _reference_outcome(data: bytes):
    try:
        return parse_reference(data)
    except ParseError as exc:
        line, column = line_col(data, exc.offset)
        return [f"{line}:{column}: {exc.message}"]


# Pieces of start tags. Most attributes are well formed; in the others one
# piece is left out or swapped for a bad one, which gives each attribute
# error.
_WS = st.sampled_from(["", " ", "  ", "\n    ", "\t", "\r\n  "])
_NAMES = st.sampled_from(["android:layout_width", "a", "x:y", "_n", "tools:ignore", "é", "a-b.c"])
_VALUES = st.sampled_from(["", "wrap_content", "@+id/x", "<&>", "é", "\n"])
_BAD_PIECES = {0: ["", "\t"], 1: ["", "1a", "-x", "="], 3: ["", "=="], 5: ["", "'", "`"], 7: [""]}


@st.composite
def _attribute(draw, name: str) -> str:
    quote = draw(st.sampled_from(['"', "'"]))
    pieces = [
        draw(_WS.filter(bool)), name, draw(_WS), "=", draw(_WS),
        quote, draw(_VALUES), quote,
    ]
    if draw(st.integers(0, 11)) == 0:
        at = draw(st.sampled_from(sorted(_BAD_PIECES)))
        pieces[at] = draw(st.sampled_from(_BAD_PIECES[at]))
    return "".join(pieces)


@st.composite
def _element(draw, depth: int = 0) -> str:
    tag = draw(st.sampled_from(["LinearLayout", "TextView", "a", "x:Y"] * 6 + ["1"]))
    names = draw(st.lists(_NAMES, max_size=4, unique=True))
    if names and draw(st.integers(0, 9)) == 0:
        names.append(names[0])
    attrs = "".join(draw(_attribute(name)) for name in names)
    end = draw(_WS) + draw(st.sampled_from(["/>", ">"] * 8 + ["", " >"]))
    if not end.endswith(">") or end.endswith("/>"):
        return f"<{tag}{attrs}{end}"
    children = []
    if depth < 2:
        children = draw(
            st.lists(
                st.one_of(
                    _element(depth + 1),
                    st.sampled_from(["text", "<!-- c -->", "<![CDATA[<x>]]>", "\n  "]),
                ),
                max_size=3,
            )
        )
    close = draw(st.sampled_from([tag] * 8 + ["b"]))
    return f"<{tag}{attrs}{end}{''.join(children)}</{close}{draw(_WS)}>"


_LAYOUTS = st.tuples(
    st.sampled_from(["", '<?xml version="1.0" encoding="utf-8"?>\n', "<!-- head -->"]),
    _element(),
    st.sampled_from(["", "\n", "<!-- tail -->"] * 3 + ["x"]),
).map("".join)


@settings(max_examples=500, deadline=None)
@given(_LAYOUTS, st.data())
def test_generated_layouts_match_the_reference(text: str, data):
    # A cut anywhere also gives each "unterminated ..." error.
    if data.draw(st.integers(0, 3)) == 0:
        text = text[: data.draw(st.integers(0, len(text)))]
    source = text.encode("utf-8")
    assert _outcome(source) == _reference_outcome(source), source


@pytest.mark.parametrize("path", _xml_fixtures(), ids=lambda p: p.stem)
def test_fixture_layouts_match_the_reference(path: Path):
    data = path.read_bytes()
    assert _outcome(data) == _reference_outcome(data)


def test_walk_is_document_order():
    tree = parse_xml(b"<a><b><c/><d/></b><e/><f><g/></f></a>")
    assert [e.tag for e in tree.root.walk()] == list("abcdefg")
    assert [e.tag for e in tree.root.children[2].walk()] == ["f", "g"]


def test_a_dropped_layout_tree_is_freed_without_the_collector():
    # No element points back at its parent, so reference counting alone
    # frees a tree; the tag tells this test's elements from any other's.
    gc.disable()
    try:
        parse_xml(b"<cycleCheck><cycleCheck><cycleCheck/></cycleCheck><cycleCheck/></cycleCheck>")
        left = [o for o in gc.get_objects() if isinstance(o, XmlElement) and o.tag == "cycleCheck"]
    finally:
        gc.enable()
    assert left == []
