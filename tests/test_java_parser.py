from pathlib import Path

import pytest

from greenlint import diagnostics
from greenlint.java.parser import parse_java_source

from conftest import CLEAN_CORPUS, GOLDEN, parse_java
from helpers import assert_spans_sound, contains, find_all


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


def test_size_cap(monkeypatch):
    monkeypatch.setattr(diagnostics, "MAX_SIZE", 4)
    tree, diags = parse_java_source(b"class A {}")
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
    assert_spans_sound(tree)


def _java_fixtures():
    files = sorted(GOLDEN.rglob("*.java")) + sorted(CLEAN_CORPUS.rglob("*.java"))
    assert files
    return files


@pytest.mark.parametrize("path", _java_fixtures(), ids=lambda p: p.stem + "-" + p.parent.name)
def test_lossless_round_trip(path: Path):
    assert_spans_sound(parse_java(path.read_bytes()))


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
    assert_spans_sound(tree)


@pytest.mark.parametrize(
    "source,names",
    [
        (b"class A { void f() { Map<K,V> m = new HashMap<K, V>(); } }", ["m"]),
        (b"class A { Map<K,V> m = new HashMap<K, V>(), n; }", ["m", "n"]),
        (b"class A { void f() { boolean b = a < c, d = e > f; } }", ["b", "d"]),
        # explicit type arguments on a call hold no declarator comma either
        (b"class A { void f() { Map<K,V> m = Collections.<K, V>emptyMap(); } }", ["m"]),
        (b"class A { Map<K,V> m = Collections.<K, V>emptyMap(), n; }", ["m", "n"]),
    ],
)
def test_declarator_names(source, names):
    tree = parse_java(source)
    assert_spans_sound(tree)
    decl = next(n for n in tree.root.walk() if "declarators" in n.props)
    assert [d["name"] for d in decl.props["declarators"]] == names


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
    assert_spans_sound(tree)


@pytest.mark.parametrize(
    "source,column,closer",
    [
        (b"class A { void f() { if (x { } } }", 25, "')'"),
        (b"class A<T { }", 8, "'>'"),
        (b"class A { Map<K,V> m = Collections.<K; }", 36, "'>'"),
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
    assert_spans_sound(tree)
    labeled = find_all(tree, "labeled_statement")[0]
    assert [c.kind for c in labeled.children] == [inner]


@pytest.mark.parametrize(
    "statement,kind",
    [
        (b"@Deprecated class L {}", "class_declaration"),
        (b'@SuppressWarnings("x") int y = 1;', "local_variable_declaration"),
    ],
)
def test_annotated_local_declaration(statement, kind):
    source = b"class A { void f() { " + statement + b" } }"
    tree = parse_java(source)
    assert_spans_sound(tree)
    body = find_all(tree, "block")[0]
    assert [c.kind for c in body.children] == [kind]


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


@pytest.mark.parametrize(
    "source,expected",
    [
        (b"package a.b", "1:12: expected ';'"),
        (b"import a.;", "1:10: expected '*'"),
        (b"import static a.*", "1:18: expected ';'"),
        (b"@A package", "1:11: expected name"),
        (b"public", "1:7: expected type declaration"),
        (b"class A {} int x;", "1:12: expected class, interface or enum declaration"),
        (b"class {}", "1:7: expected type name"),
        (b"class A extends {}", "1:17: expected type"),
        (b"class A implements B, {}", "1:23: expected type"),
        (b"interface I extends A, B, {}", "1:27: expected type"),
        (b"class A extends B", "1:18: expected '{'"),
        (b"class A {", "1:10: expected '}'"),
        (b"class A { public", "1:17: unexpected end of class body"),
        (b"class A { @ int x; }", "1:13: expected name"),
        (b"enum E { 1 }", "1:10: expected enum constant"),
        (b"enum E { A, B C }", "1:15: expected '}'"),
        (b"enum E { A { void f() {} ; }", "1:29: expected '}'"),
        (b"class A { 1 }", "1:11: expected type"),
        (b"class A { int ; }", "1:15: expected member name"),
        (b"class A { int[ x; }", "1:14: expected member name"),
        (b"class A { int x, ; }", "1:18: expected field name"),
        (b"class A { int x = 1 }", "1:21: unexpected '}' in expression"),
        (b"class A { void f(int) {} }", "1:21: expected parameter name"),
        (b"class A { void f(int x, ) {} }", "1:25: expected type"),
        (b"class A { void f(int x int y) {} }", "1:24: expected ','"),
        (b"class A { void f(public int x) {} }", "1:18: expected type"),
        (b"class A { void f(final final int x) {} }", "1:24: expected type"),
        (b"class A { A( {} }", "1:14: expected type"),
        (b"class A { void f(int x) throws {} }", "1:32: expected type"),
        (b"class A { void f(int x) throws A, {} }", "1:35: expected type"),
        (b"class A { void f() }", "1:20: expected ';'"),
        (b"class A { void f()[] }", "1:22: expected ';'"),
        (b"class A { void f() {", "1:21: unexpected end of file in block"),
        (b"class A { void f() { if x; } }", "1:25: expected '(' after if"),
        (b"class A { void f() { if (x)", "1:28: expected statement"),
        (b"class A { void f() { for x; } }", "1:26: expected '(' after for"),
        (b"class A { void f() { while x; } }", "1:28: expected '(' after while"),
        (b"class A { void f() { do x(); } }", "1:30: expected 'while' after do body"),
        (b"class A { void f() { do x(); while x; } }", "1:36: expected '(' after while"),
        (b"class A { void f() { do x(); while (x) } }", "1:40: expected ';'"),
        (b"class A { void f() { switch x {} } }", "1:29: expected '(' after switch"),
        (b"class A { void f() { switch (x) ; } }", "1:33: expected '{' after switch header"),
        (b"class A { void f() { try x(); } }", "1:26: expected '{'"),
        (b"class A { void f() { try {} catch x {} } }", "1:35: expected '(' after catch"),
        (b"class A { void f() { try {} catch (E e) x(); } }", "1:41: expected '{'"),
        (b"class A { void f() { try {} finally x(); } }", "1:37: expected '{'"),
        (b"class A { void f() { synchronized (x) x(); } }", "1:39: expected '{'"),
        (b"class A { void f() { int x, ; } }", "1:29: expected variable name"),
        (b"class A { void f() { final int ; } }", "1:32: expected variable name"),
        (b"class A { void f() { int x = 1 } }", "1:32: unexpected '}' in expression"),
        (b"class A { void f() { int x = (1]; } }", "1:32: unexpected ']' in expression"),
        (b"class A { void f() { x = 1", "1:27: unexpected end of file in expression"),
        (b"class A { void f() { return 1 } }", "1:31: unexpected '}' in expression"),
        (b"class A { void f() { throw e } }", "1:30: unexpected '}' in expression"),
        (b"class A { void f() { a: } }", "1:25: unexpected '}' in expression"),
        (b"class A { void f() { final class B extends {} } }", "1:44: expected type"),
        (b"class A { void f() { x(new B() { int ; }); } }", "1:38: expected member name"),
        (b"class A { void f() { x(new B() { void g() {} ); } }", "1:46: expected type"),
        (b"class A { @B( int x; }", "1:13: unbalanced ')'"),
        (b"record R(int x) {}", "1:1: expected class, interface or enum declaration"),
        (b"class T { record R(int x) {} }", "1:11: records are not supported"),
        (b"class T { private static record R(int x) {} }", "1:26: records are not supported"),
        (b"class T { record R<X>(X x) {} }", "1:11: records are not supported"),
        (b"class T { void f() { record R(int x) {} } }", "1:22: records are not supported"),
        (b"class T { void f() { final record R(int x) {} } }", "1:28: records are not supported"),
        (b"class A { // \xff }", "1:1: not valid UTF-8: invalid start byte"),
        (b"class A { void f() " + b"{" * 3000 + b"}" * 3000 + b" }", "1:1: nesting too deep"),
    ],
)
def test_parse_error_message_and_location(source, expected):
    tree, diags = parse_java_source(source)
    assert tree is None
    d = diags[0]
    assert f"{d.line}:{d.column}: {d.message}" == expected


def test_record_as_an_identifier_still_parses():
    tree = parse_java(b"class T { int record; void record() {} void f() { record.save(); } }")
    assert [n.props["name"] for n in find_all(tree, "method_declaration")] == ["record", "f"]
    assert len(find_all(tree, "field_declaration")) == 1


def _anonymous_bodies(source: bytes) -> list[str]:
    tree = parse_java(source)
    return [tree.text_of(n) for n in find_all(tree, "anonymous_class_body")]


@pytest.mark.parametrize(
    "expression,bodies",
    [
        (b"new A(new B() { int b; }) { int a; }", ["{ int b; }", "{ int a; }"]),
        (b"new a.b.C() { int c; }", ["{ int c; }"]),
        (b"new ArrayList<String>() { int d; }", ["{ int d; }"]),
        (b"new HashMap<>(f(x)) { int e; }", ["{ int e; }"]),
        (b"new Map<K, List<V>>() { int m; }", ["{ int m; }"]),
        (b"outer.new Inner() { int i; }", ["{ int i; }"]),
        (b"g(1, new R() { public void run() {} })", ["{ public void run() {} }"]),
        (b"new int[] { 1, 2 }", []),
        (b"new String[][] { { \"a\" } }", []),
        (b"() -> { return 1; }", []),
        (b"f((a) -> { g(); })", []),
        (b"new A().b() { }", []),
    ],
)
def test_anonymous_class_body_detection(expression, bodies):
    source = b"class T { void f() { o = " + expression + b"; } }"
    assert _anonymous_bodies(source) == bodies


@pytest.mark.parametrize(
    "source,expected",
    [
        (b"@interface A { int v() default f(a]; }", "1:35: unexpected ']' in expression"),
        (b"@interface A { int v() default = 3; }", "1:32: expected expression"),
    ],
)
def test_bad_annotation_default_is_rejected(source, expected):
    tree, diags = parse_java_source(source)
    assert tree is None
    d = diags[0]
    assert f"{d.line}:{d.column}: {d.message}" == expected


@pytest.mark.parametrize(
    "source",
    [b'@interface A { String[] v() default {"a", "b"}; }', b'@interface A { String v() default "x"; }'],
)
def test_annotation_default_parses(source):
    tree, diags = parse_java_source(source)
    assert diags == []
    assert_spans_sound(tree)
