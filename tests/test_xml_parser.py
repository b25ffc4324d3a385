import gc
import random
from pathlib import Path
from xml.parsers import expat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlint.diagnostics import ParseError
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
        (b"", "1:1: no element found"),
        (b"  text", "1:3: syntax error"),
        (b"<a/>x", "1:5: junk after document element"),
        (b"<!-- open", "1:1: unclosed token"),
        (b"<?xml version='1.0'", "1:1: unclosed token"),
        (b"<!DOCTYPE a", "1:12: no element found"),
        (b"<1/>", "1:2: not well-formed (invalid token)"),
        (b"<a =''/>", "1:4: not well-formed (invalid token)"),
        (b"<a></1>", "1:6: not well-formed (invalid token)"),
        (b"<a x='1'", "1:1: unclosed token"),
        (b"<a x='1'y='2'/>", "1:9: not well-formed (invalid token)"),
        (b"<a x='1' x='2'/>", "1:10: duplicate attribute"),
        (b"<a x/>", "1:5: not well-formed (invalid token)"),
        (b"<a x=1/>", "1:6: not well-formed (invalid token)"),
        (b"<a x='1/>", "1:1: unclosed token"),
        (b"<a>", "1:4: no element found"),
        (b"<a>\n  text", "2:7: no element found"),
        (b"<a><b></a>", "1:9: mismatched tag"),
        (b"<a></a x>", "1:8: not well-formed (invalid token)"),
        (b"<a><!-- open</a>", "1:4: unclosed token"),
        (b"<a><![CDATA[ open</a>", "1:22: unclosed CDATA section"),
        (b"<a><? open</a>", "1:6: not well-formed (invalid token)"),
        (b"<a t='\xff'/>", "1:1: not valid UTF-8: invalid start byte"),
        (b"<a>" * 5000, "1:15001: no element found"),
        # Shapes XML 1.0 forbids, which expat, like aapt2, rejects.
        (b"<a>&</a>", "1:5: not well-formed (invalid token)"),
        (b"<a x='&'/>", "1:8: not well-formed (invalid token)"),
        (b"<a x='<'/>", "1:7: not well-formed (invalid token)"),
        (b"<a>&x;</a>", "1:4: undefined entity"),
        (b"<a x='&x;'/>", "1:1: undefined entity"),
        (b'<!DOCTYPE a [<!ENTITY x "y">]><a/>', "1:1: DOCTYPE is not allowed in a layout"),
        (b'<!DOCTYPE a [<!ENTITY x "y">]><a>&x;</a>', "1:1: DOCTYPE is not allowed in a layout"),
        (b"<!-- c --><!DOCTYPE a><a/>", "1:11: DOCTYPE is not allowed in a layout"),
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
    # A cut anywhere also leaves markup unclosed.
    if data.draw(st.integers(0, 3)) == 0:
        text = text[: data.draw(st.integers(0, len(text)))]
    source = text.encode("utf-8")
    tree, _ = parse_layout_xml(source)
    try:
        reference = parse_reference(source)
    except ParseError:
        # greenlint rejects all the reference rejects, and more: expat also
        # refuses the `<&>` value the reference lets through.
        assert tree is None, source
        return
    if tree is not None:
        assert _outcome(source) == reference, source


@pytest.mark.parametrize("path", _xml_fixtures(), ids=lambda p: p.stem)
def test_fixture_layouts_match_the_reference(path: Path):
    data = path.read_bytes()
    assert _outcome(data) == parse_reference(data)


@pytest.mark.parametrize(
    "source",
    [
        b'<a x="&amp;&#10;">&amp;&#10;<b y=\'&lt;&#x41;\'/></a>',
        b"<a><![CDATA[<&>]]><b/></a>",
        b'<?xml version="1.0"?><!-- c --><a><?pi data?><!-- d --><b/></a><!-- e -->',
        b'\xef\xbb\xbf<a x="1"><b/></a>',
        b'<a tools:ignore="X" android:text="y"><b tools:x=""/></a>',
        '<?xml version="1.0" encoding="ISO-8859-1"?>\n<é t="é"><ü/></é>'.encode(),
    ],
    ids=["references", "cdata", "comment-and-pi", "bom", "undeclared-prefixes", "declared-latin-1"],
)
def test_well_formed_controls_match_the_reference(source):
    assert _outcome(source) == parse_reference(source)


def _mutants(per_file: int = 40):
    """Seeded damage to every fixture layout: each mutant deletes 1-3
    bytes, repeats 1-3 bytes, or inserts one markup character."""
    rng = random.Random(7)
    for path in _xml_fixtures():
        data = path.read_bytes()
        for _ in range(per_file):
            at, n = rng.randrange(len(data)), rng.randint(1, 3)
            kind = rng.randrange(3)
            if kind == 0:
                yield data[:at] + data[at + n :]
            elif kind == 1:
                yield data[:at] + data[at : at + n] * 2 + data[at + n :]
            else:
                yield data[:at] + rng.choice(b"<>&\"'=/!?-").to_bytes(1, "big") + data[at:]


def _expat_accepts(data: bytes) -> bool:
    try:
        expat.ParserCreate("UTF-8").Parse(data, True)
    except expat.ExpatError:
        return False
    return True


def test_mutated_layouts_parse_exactly_when_expat_accepts_them():
    rejected = 0
    for data in _mutants():
        tree, _ = parse_layout_xml(data)
        assert (tree is not None) == _expat_accepts(data), data
        if tree is None:
            rejected += 1
        else:
            assert _outcome(data) == parse_reference(data), data
    assert rejected > 100  # the damage is real


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


def test_a_layout_nested_100_000_deep_parses_and_is_freed():
    depth = 100_000
    gc.disable()
    try:
        tree = parse_xml(b"<deepCheck>" * depth + b"</deepCheck>" * depth)
        assert sum(1 for _ in tree.root.walk()) == depth
        del tree
        left = [o for o in gc.get_objects() if isinstance(o, XmlElement) and o.tag == "deepCheck"]
    finally:
        gc.enable()
    assert left == []
