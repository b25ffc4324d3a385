"""The regex tokenizer against the byte-walking reference in
`reference_lexer.py`: same tokens field for field, or the same LexError."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlint.java.lexer import LexError, tokenize
from greenlint.java.parser import parse_java_source

from conftest import FIXTURES, GOLDEN, GOLDEN_CASES
from mutations import java_mutations
from reference_lexer import tokenize_reference


def _outcome(lex, data: bytes):
    try:
        return lex(data)
    except LexError as exc:
        d = exc.diagnostic
        return ("LexError", d.line, d.column, d.message)


def _fields(data: bytes) -> list[tuple[str, str, int, int]]:
    return [(t.kind, t.value, t.start, t.end) for t in tokenize(data)]


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
    with pytest.raises(LexError) as info:
        tokenize(data)
    d = info.value.diagnostic
    assert (d.line, d.column, d.message) == (1, column, message)


def test_error_column_counts_characters():
    with pytest.raises(LexError) as info:
        tokenize('"ééé"; #'.encode())
    d = info.value.diagnostic
    assert (d.line, d.column) == (1, 8)


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
    assert tree.serialize() == data
    # every byte outside a token is trivia
    ends = [0] + [t.end for t in tree.tokens]
    starts = [t.start for t in tree.tokens] + [len(data)]
    for gap_start, gap_end in zip(ends, starts):
        assert gap_start <= gap_end
        assert tokenize(data[gap_start:gap_end]) == []
