from pathlib import Path

import pytest

from greenlint.java.parser import parse_java_source

from conftest import CLEAN_CORPUS, GOLDEN, parse_java
from helpers import contains, find_all


def test_minimal_class():
    tree, diags = parse_java_source(b"class A {}")
    assert diags == []
    classes = find_all(tree, "class_declaration")
    assert len(classes) == 1
    assert tree.text_of(classes[0]) == "class A {}"


def test_get_view_fixture_shape(golden):
    before, _ = golden("view_holder")
    tree = parse_java(before)
    methods = [
        m for m in find_all(tree, "method_declaration") if m.props["name"] == "getView"
    ]
    assert len(methods) == 1
    assert len(methods[0].props["params"]) == 3


def test_malformed_class_yields_diagnostics():
    tree, diags = parse_java_source(b"class {")
    assert tree is None
    assert diags
    assert diags[0].line == 1


def test_size_cap():
    tree, diags = parse_java_source(b"class A {}", max_size=4)
    assert tree is None
    assert "size cap" in diags[0].message


def test_non_utf8_rejected():
    tree, diags = parse_java_source(b"class A { // \xff\xfe invalid }")
    assert tree is None


@pytest.mark.parametrize(
    "source",
    [
        b"interface I { void f(); }",
        b"enum E { A, B(1) { void x() {} }; E() {} E(int i) {} }",
        b"class G<T extends Comparable<T>> { java.util.List<T> xs; }",
        b"class N { static class Inner { @Override public String toString() { return \"\"; } } }",
        b"@interface Anno { String value() default \"x\"; }",
        b"class L { void f() { run(() -> { int x = 1; }); } }",
        b"class A { void f() { Object o = new Runnable() { public void run() {} }; } }",
        b"class T { void f() { try (Reader r = open()) { use(r); } catch (IOException e) { } finally { done(); } } }",
        b"class S { int f(int x) { switch (x) { case 1: return 2; default: return 0; } } }",
        b"class V { void f(int... xs) { int[] a = new int[] { 1, 2 }; } }",
    ],
)
def test_parses_common_constructs(source):
    tree, diags = parse_java_source(source)
    assert diags == [], diags
    assert tree.serialize() == source


def _java_fixtures():
    files = sorted(GOLDEN.rglob("*.java")) + sorted(CLEAN_CORPUS.rglob("*.java"))
    assert files
    return files


@pytest.mark.parametrize("path", _java_fixtures(), ids=lambda p: p.stem + "-" + p.parent.name)
def test_lossless_round_trip(path: Path):
    data = path.read_bytes()
    tree = parse_java(data)
    assert tree.serialize() == data


@pytest.mark.parametrize("path", _java_fixtures(), ids=lambda p: p.stem + "-" + p.parent.name)
def test_span_nesting(path: Path):
    data = path.read_bytes()
    tree = parse_java(data)

    def check(node):
        parent_span = tree.span_of(node)
        prev_end = None
        for child in node.children:
            span = tree.span_of(child)
            assert contains(parent_span, span), (node.kind, child.kind)
            if prev_end is not None and len(span):
                assert span.start >= prev_end, (node.kind, child.kind)
            prev_end = max(prev_end or 0, span.end)
            check(child)

    check(tree.root)


def test_diagnostic_column_counts_characters():
    tree, diags = parse_java_source('class A { String s = "ééé"; # int x; }'.encode())
    assert tree is None
    assert (diags[0].line, diags[0].column) == (1, 29)
    assert diags[0].message == "unexpected character '#'"


def test_parse_failure_location_after_a_backtracked_declaration():
    source = "class A {\n  void f() {\n    é.call();\n    int y = ;\n  }\n}\n"
    tree, diags = parse_java_source(source.encode())
    assert tree is None
    assert (diags[0].line, diags[0].column, diags[0].message) == (4, 13, "expected expression")


@pytest.mark.parametrize(
    "source",
    [b"class A { int x = ; }", b"class A { void f() { int x = ; } }", b"class A { int x = 1, y = ; }"],
)
def test_empty_initializer_is_rejected(source):
    tree, diags = parse_java_source(source)
    assert tree is None
    assert diags[0].message == "expected expression"


@pytest.mark.parametrize(
    "source",
    [
        b"class A { int x; }",
        b"class A { int x = 0; }",
        b"class A { void f() { int x; } }",
        b"class A { void f() { int x = 0, y; } }",
    ],
)
def test_declarations_with_and_without_initializer_parse(source):
    tree, diags = parse_java_source(source)
    assert diags == []
    assert tree.serialize() == source


@pytest.mark.parametrize(
    "statement,column",
    [
        (b"x = ;", 26),
        (b"return = ;", 29),
        (b"x += ;", 27),
        (b"x >>>= ;", 29),
        (b"throw = ;", 28),
        (b"= x;", 22),
    ],
)
def test_statement_with_a_dangling_assignment_is_rejected(statement, column):
    tree, diags = parse_java_source(b"class A { void f() { " + statement + b" } }")
    assert tree is None
    assert (diags[0].line, diags[0].column, diags[0].message) == (1, column, "expected expression")


@pytest.mark.parametrize(
    "statement",
    [
        b"a = b = c;",
        b"i++;",
        b"--i;",
        b"x >>>= 2;",
        b"x <<= 1;",
        b"r = () -> {};",
        b"return a instanceof List<?>;",
        b"return;",
        b"l = new Runnable() { public void run() { x = 1; } };",
    ],
)
def test_complete_expression_statements_parse(statement):
    source = b"class A { void f() { " + statement + b" } }"
    tree, diags = parse_java_source(source)
    assert diags == []
    assert tree.serialize() == source


@pytest.mark.parametrize(
    "source,column,closer",
    [
        (b"class A { void f() { if (x { } } }", 25, "')'"),
        (b"class A<T { }", 8, "'>'"),
        # the package lookahead fails where the cursor stands, not at the '('
        (b"@Deprecated(x class A { }", 1, "')'"),
    ],
)
def test_unclosed_group_fails_at_the_cursor(source, column, closer):
    tree, diags = parse_java_source(source)
    assert tree is None
    assert (diags[0].column, diags[0].message) == (column, f"unbalanced {closer}")


@pytest.mark.parametrize(
    "source,inner",
    [
        (b"class T { void f() { out: for (;;) { break out; } } }", "for_statement"),
        (b"class T { void f() { a: b: while (x) { continue a; } } }", "labeled_statement"),
        (b"class T { void f() { done: { if (x) break done; g(); } } }", "block"),
    ],
)
def test_labeled_statement_round_trips(source, inner):
    tree = parse_java(source)
    assert tree.serialize() == source
    labeled = find_all(tree, "labeled_statement")[0]
    assert [c.kind for c in labeled.children] == [inner]


def test_split_args_splits_on_top_level_commas_only():
    from greenlint.rules.javautil import split_args

    tree = parse_java(b"class A { void f() { g(a < b, c > d, h(e, f), new int[] { 1, 2 }); } }")
    toks = tree.tokens
    open_idx = next(i for i, t in enumerate(toks) if t.value == "g") + 1
    args, close_idx = split_args(toks, open_idx)
    assert [" ".join(t.value for t in toks[lo:hi]) for lo, hi in args] == [
        "a < b",
        "c > d",
        "h ( e , f )",
        "new int [ ] { 1 , 2 }",
    ]
    assert toks[close_idx].value == ")" and toks[close_idx + 1].value == ";"
