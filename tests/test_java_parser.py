from pathlib import Path

import pytest

from greenlint.java.parser import parse_java_source

from conftest import CLEAN_CORPUS, GOLDEN, parse_java


def test_minimal_class():
    tree, diags = parse_java_source(b"class A {}")
    assert diags == []
    classes = tree.find_all("class_declaration")
    assert len(classes) == 1
    assert tree.text_of(classes[0]) == "class A {}"


def test_get_view_fixture_shape(golden):
    before, _ = golden("view_holder")
    tree = parse_java(before)
    methods = [
        m for m in tree.find_all("method_declaration") if m.props["name"] == "getView"
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
            assert parent_span.contains(span), (node.kind, child.kind)
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
