"""The regex tokenizer against the byte-walking reference in
`reference_lexer.py`: same tokens field for field, or the same ParseError.
Texts edited so that the bytes around an edit lex differently are checked
the same way."""

from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greenlint.diagnostics import ParseError
from greenlint.java.lexer import tokenize
from greenlint.java.parser import parse_java_source
from greenlint.spans import Edit, apply_edit_set

from conftest import FIXTURES, GOLDEN, GOLDEN_CASES
from helpers import assert_spans_sound
from mutations import java_mutations
from reference_lexer import tokenize_reference


def _outcome(lex, data: bytes):
    try:
        return lex(data)
    except ParseError as exc:
        return ("ParseError", exc.offset, exc.message)


def _fields(data: bytes) -> list[tuple[str, str, int, int]]:
    t = tokenize(data)
    return list(zip(t.kinds, t.values, t.starts, t.ends))


def assert_same_as_reference(data: bytes) -> None:
    assert _outcome(_fields, data) == _outcome(tokenize_reference, data), data


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.rglob("*.java")), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_fixture_tokens_match_reference(path: Path):
    assert_same_as_reference(path.read_bytes())


@pytest.mark.parametrize("case", [c for c, ext in GOLDEN_CASES.items() if ext == "java"])
def test_mutation_tokens_match_reference(case: str):
    before = (GOLDEN / case / "before.java").read_text(encoding="utf-8")
    variants = java_mutations(case, before)
    assert variants
    for text in variants:
        assert_same_as_reference(text.encode("utf-8"))


EDGE_CASES = [
    b'""""',
    b'"""a"""b"',
    b"/*/",
    b"a/=/*b*/c",
    b'"abc\\',
    b"'a",
    b".5 ... 1e+5 0x1p-3 1.e-2",
    b"a >>= b",
    b'"\\\n"',
    b"#",
    b"",
    b" \t\r\n\f// trailing comment",
    b"1e+-5 ..5 x.5 1\xc3\xa9",
    b"'\\'' '\"' \"'\"",
    b'"a\nb"',
    b"a\\b",
    '"ééé"; #'.encode(),
    b" \t\n/* a */ // b\n  ",
    b"a;  \n\t// last",
    'é = é + é; /* é */ s = "é"; // é'.encode(),
    "x = 1é + 'é' + '\\u00e9';".encode(),
    "/* é */ ü `".encode(),
]


@pytest.mark.parametrize("data", EDGE_CASES, ids=repr)
def test_edge_case_matches_reference(data: bytes):
    assert_same_as_reference(data)


@pytest.mark.parametrize(
    "data, column, message",
    [
        (b"int a; /* open", 8, "unterminated block comment"),
        (b'x = """ open', 5, "unterminated text block"),
        (b'x = "open', 5, "unterminated string literal"),
        (b"x = 'o", 5, "unterminated character literal"),
        (b"x = `", 5, "unexpected character '`'"),
    ],
)
def test_malformed_input_fails_where_the_token_starts(data: bytes, column: int, message: str):
    with pytest.raises(ParseError) as info:
        tokenize(data)
    assert (info.value.offset + 1, info.value.message) == (column, message)


def test_error_column_counts_characters():
    tree, diags = parse_java_source('"ééé"; #'.encode())
    assert (diags[0].line, diags[0].column) == (1, 8)


# Single characters and fragments of a Java-ish alphabet: most strings built
# from these fail to lex or parse, which exercises the error paths.
_FRAGMENTS = [
    "class A {", "}", "void f() {", "int x", " = ", "0", ";", ",", "(", ")",
    "new A()", "{", "return", " ", "\n", '"', "'", '"""', "/", "*", "/*", "*/",
    "//", "\\", "1", "5", "e", "E", "p", "P", "+", "-", ".", "x", "é", "#",
]
# Whole statements, so that generated method bodies also parse.
_STATEMENTS = [
    "int x = 0;", "x = \"a\\\"b\" + 'c';", "/* c */", "// c\n", "s = \"\"\"\n é \"\"\";",
    "y = 1e+5 + 0x1p-3 + .5 + 1.e-2;", "é = 1;", "a >>= b;", "return;",
    "if (x) { f(); } else g();", "v = new V() { void run() {} };", "int[] a = {1, 2};",
    "x\r\n+= 1;", "f(a -> a::b);",
]
_JAVA_ISH = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join),
    st.lists(st.sampled_from(_STATEMENTS + _FRAGMENTS[:3]), max_size=12).map(
        lambda parts: "class A { void f() { " + " ".join(parts) + " } }"
    ),
)


@settings(max_examples=300, deadline=None)
@given(_JAVA_ISH)
def test_generated_java_matches_reference_and_round_trips(text: str):
    data = text.encode("utf-8")
    assert_same_as_reference(data)
    tree, diags = parse_java_source(data)
    if tree is None:
        assert diags
        return
    assert_spans_sound(tree)


# Texts made by an edit whose bytes change how the text around them lexes.
SPLICE_CASES = [
    (b"x..z", [(3, 4, b".")]),  # the kept `.` must not precede a new `...`
    (b"a = b;", [(2, 3, b"<<"), (4, 4, b"=")]),
    (b"int a; int b;", [(0, 0, b"/*")]),  # swallows the rest: unterminated
    (b"a /* b */ c", [(7, 9, b"")]),
    (b'x = "" + y;', [(5, 5, b'"')]),
    (b's = """\n a """; t', [(12, 14, b""), (16, 17, b'u"""')]),
    (b"ab", [(2, 2, b"c"), (2, 2, b"d"), (0, 0, b"z")]),
    (b"class A { int x; }", [(0, 18, b"")]),
    (b"f(1e5);", [(4, 4, b"+"), (3, 3, b"e")]),
    # Deleting the `/*` uncovers a token that must be read whole.
    (b"a /* /* c */ */ b;", [(2, 4, b"")]),
    (b'a /* """\n t """ */ b;', [(2, 4, b"")]),
    (b'a /* "s" */ b;', [(2, 4, b"")]),
    (b"a /* x...y */ b;", [(2, 4, b"")]),
    ("a /* \u00e9_n */ b;".encode(), [(2, 4, b"")]),
]


@pytest.mark.parametrize("old, spans", SPLICE_CASES, ids=repr)
def test_splice_edge_case_equals_a_full_scan(old: bytes, spans):
    assert_same_as_reference(apply_edit_set(old, [Edit.replace(*span) for span in spans]))


# Bytes that open, close or extend a token, so that an edit can change how
# the text around it lexes.
_REPLACEMENTS = [
    "/*", "*/", '"', '"""', "'", "//", "\n", "\r\n", ">", "=", ".", "e+", "x",
    "Q", "0", "9", " ",
]


@st.composite
def _edited(draw):
    """A text that lexes, edited by 1-4 disjoint edits in any order."""
    old = draw(_JAVA_ISH).encode("utf-8")
    try:
        tokenize(old)
    except ParseError:
        assume(False)
    count = draw(st.integers(1, 4))
    cuts = sorted(draw(st.lists(st.integers(0, len(old)), min_size=2 * count, max_size=2 * count)))
    edits = [
        Edit.replace(
            cuts[k],
            cuts[k + 1],
            "".join(draw(st.lists(st.sampled_from(_REPLACEMENTS), max_size=3))).encode(),
        )
        for k in range(0, len(cuts), 2)
    ]
    return apply_edit_set(old, draw(st.permutations(edits)))


@settings(max_examples=500, deadline=None)
@given(_edited())
def test_spliced_tokens_equal_a_full_scan(new: bytes):
    assert_same_as_reference(new)
