import threading
from pathlib import Path

import pytest

from greenlint import diagnostics
from greenlint.java.lexer import tokenize
from greenlint.java.parser import Node, parse_java_source
from greenlint.rules.javautil import base_type_name, path_to

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
        b'class C { void f() { int[] a = new int[] {1}; String[] s = new String[] {"x"}; } }',
        b"class C { void f() { Object b = new B() {}; Object c = new B<T>() {}; } }",
        b"class C { void f(int x) { if (new B() { } == null) {} switch (x) { case 1: "
        b"Object o = new B() { }; g(B::new); } Object[] a = { new int[] {1}, B::new }; "
        b'while (renew("new")) {} } }',
        b"class C { void f() { g(A::new, int[]::new, A::<T>new); List<?> x = a.<T>f(); } }",
        b"class C { void f() { Object o = new String @A [5]; o = new @A int @B [1]; } }",
        b"class C { void f(String @A ... a) { int.class.getName(); int[].class.getName(); } }",
        # the walker nests 300 brackets deep
        b"class D { int x = " + b"(" * 300 + b"1" + b")" * 300 + b"; }",
        b"class D { int x = " + b"f(" * 300 + b"1" + b")" * 300 + b"; }",
        b"class D { int[] x = " + b"{" * 300 + b"1" + b"}" * 300 + b"; }",
    ],
)
def test_parses_common_constructs(source):
    tree, diags = parse_java_source(source)
    assert diags == [], diags
    assert_spans_sound(tree)


def test_an_enum_constant_body_is_an_anonymous_class_body():
    tree = parse_java(b"enum E { A { void f() {} }, B(1) { int g; }; int h() { return 0; } }")
    enum = tree.root.children[0]
    kinds = [c.kind for c in enum.children]
    assert kinds == ["anonymous_class_body", "anonymous_class_body", "method_declaration"]
    assert tree.text_of(enum.children[0]) == "{ void f() {} }"
    assert [c.kind for c in enum.children[1].children] == ["field_declaration"]


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
    "source,names",
    [
        (b"class A<K, T extends Comparable<K> & a.b.C, @X U> {}", ["K", "T", "U"]),
        (b"class A { <E extends Map<K, V>> E f() { return null; } }", ["E"]),
        (b"class A { <E> A(E e) {} }", ["E"]),
        (b"class A extends B<T> implements C<U> { List<V> f() { return null; } }", []),
    ],
)
def test_type_parameter_names(source, names):
    tree = parse_java(source)
    assert [p for n in tree.root.walk() for p in n.props.get("type_params", ())] == names


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
        b"b = A::m < c;",
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
        # javac's parser expects a `)` or a `>` just past the token before
        # the one it finds, and at the token after the last type argument
        (b"class A { void f() { if (x { } } }", 27, "')'"),
        (b"class A<T { }", 10, "'>'"),
        (b"class A { Map<K,V> m = Collections.<K; }", 38, "'>'"),
        (b"@Deprecated(x class A { }", 14, "')'"),
    ],
)
def test_unclosed_group_fails_at_the_cursor(source, column, closer):
    tree, diags = parse_java_source(source)
    assert tree is None
    assert (diags[0].column, diags[0].message) == (column, f"expected {closer}")


@pytest.mark.parametrize("opener,closer", [(b"(", b")"), (b"f(", b")"), (b"a[", b"]"), (b"new A(", b")")])
def test_an_expression_480_brackets_deep_parses(opener, closer):
    # each bracket level costs at most two frames of the recursive descent,
    # under Python's default recursion limit; a thread of its own keeps the
    # test runner's frames off the parser's stack
    source = b"class A { Object x = " + opener * 480 + b"1" + closer * 480 + b"; }"
    results = []
    thread = threading.Thread(target=lambda: results.append(parse_java_source(source)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert results[0][1] == []


def test_a_long_chain_of_infix_operators_parses():
    # a left-associative operator's chain is read in a loop, not by recursion
    source = b"class A { int x = " + b" + ".join([b"1"] * 5000) + b"; }"
    assert parse_java_source(source)[1] == []


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


def test_call_args_split_on_top_level_commas_only():
    tree = parse_java(b"class A { void f() { g(a < b, c > d, h(e, f), new int[] { 1, 2 }); } }")
    values = tree.tokens.values
    (g,) = (n for n in find_all(tree, "call") if n.props["name"] == "g")
    assert [" ".join(values[lo:hi]) for lo, hi in g.props["args"]] == [
        "a < b",
        "c > d",
        "h ( e , f )",
        "new int [ ] { 1 , 2 }",
    ]
    assert values[g.tok_hi - 1] == ")" and values[g.tok_hi] == ";"


_CALLS = b"""class A {
    void f(int k) {
        a.g(h(1), new p.B<String>(x, y) { void run() { i(); } });
        Object o = new C();
        if (c.ok()) j(); else m();
        while (n()) { o(); }
        switch (k) { case 1: p(); }
        Runnable r = () -> { q(); };
        for (int i = s(), j = 0; i < t(); i++, j++) {}
        for (;;) {}
        for (String u : v()) {}
        do { w(); } while (z());
    }
}
"""


def test_calls_and_creations_are_nodes_in_source_order():
    tree = parse_java(_CALLS)
    assert_spans_sound(tree)
    values = tree.tokens.values

    def text(node_or_range):
        if isinstance(node_or_range, Node):
            node_or_range = (node_or_range.tok_lo, node_or_range.tok_hi)
        return " ".join(values[slice(*node_or_range)])

    body = find_all(tree, "method_declaration")[0].props["body"]
    g_stmt, new_c, if_stmt, while_stmt, switch, lambda_decl = body.children[:6]
    for_stmt, for_ever, for_each, do = body.children[6:]

    (g,) = g_stmt.children
    assert g.kind == "call"
    assert {k: v for k, v in g.props.items() if k != "args"} == {
        "name": "g",
        "name_tok": g.tok_lo + 2,
        "receiver": "a",
    }
    assert [text(a) for a in g.props["args"]] == ["h ( 1 )", text(g.children[1])]
    h, creation = g.children  # the nodes in its arguments
    assert (h.kind, h.props["receiver"], text(h)) == ("call", None, "h ( 1 )")
    assert creation.kind == "creation"
    assert creation.props["type"] == "p.B"
    assert [text(a) for a in creation.props["args"]] == ["x", "y"]
    (anonymous,) = creation.children
    assert creation.props["body"] is anonymous and anonymous.kind == "anonymous_class_body"
    assert text(creation) == "new p . B < String > ( x , y ) { void run ( ) { i ( ) ; } }"
    assert path_to(tree, anonymous)[-4:] == [g_stmt, g, creation, anonymous]
    (i,) = (n for n in anonymous.walk() if n.kind == "call")
    assert i.props == {"name": "i", "name_tok": i.tok_lo, "receiver": None, "args": []}

    (c,) = new_c.children
    assert (c.props["type"], c.props["args"], c.props["body"], c.children) == ("C", [], None, [])
    assert text(c) == "new C ( )"

    # a header's nodes come first, a `while` or `for` body last
    assert [(n.kind, n.props.get("name")) for n in if_stmt.children] == [
        ("call", "ok"),
        ("expression_statement", None),
        ("expression_statement", None),
    ]
    assert if_stmt.children[0].props["receiver"] == "c"
    assert [n.kind for n in while_stmt.children] == ["call", "block"]
    assert [n.props["name"] for n in switch.children] == ["p"]
    assert [n.props["name"] for n in lambda_decl.children] == ["q"]
    assert [n.kind for n in for_stmt.children] == ["call", "call", "block"]
    assert [text(part) for part in for_stmt.props["parts"]] == [
        "int i = s ( ) , j = 0",
        "i < t ( )",
        "i ++ , j ++",
    ]
    assert [text(part) for part in for_ever.props["parts"]] == ["", "", ""]
    assert for_each.props["parts"] == []
    assert [n.kind for n in for_each.children] == ["call", "block"]
    assert [n.kind for n in do.children] == ["block", "call"]


@pytest.mark.parametrize(
    "expression,type_name",
    [
        (b"new a.B<C<D>>(1)", "a.B"),
        (b"new Outer<A>.Inner<B>(1)", "Outer.Inner"),
        (b"new <T>B(1)", "B"),
        (b"new @A B(1)", "B"),
        (b"new Y.@A Z(1)", "Y.Z"),
    ],
)
def test_a_creation_keeps_its_class_name(expression, type_name):
    tree = parse_java(b"class T { void f() { o = " + expression + b"; } }")
    (creation,) = find_all(tree, "creation")
    assert creation.props["type"] == type_name
    assert find_all(tree, "call") == []


@pytest.mark.parametrize(
    "type_text,name",
    [
        ("WakeLock", "WakeLock"),
        ("PowerManager.WakeLock", "WakeLock"),
        ("List<String>[]", "List"),
        ("Outer<A>.Inner", "Inner"),
        ("a.b.C<D<E>>.F<G>[]", "F"),
    ],
)
def test_base_type_name_is_the_last_segment(type_text, name):
    assert base_type_name(type_text) == name


def test_an_anonymous_body_in_a_header_is_a_class_body():
    tree = parse_java(b"class A { void f() { if (new B() { void g() { h(); } } == null) {} } }")
    (if_stmt,) = find_all(tree, "if_statement")
    creation, body = if_stmt.children
    assert (creation.kind, body.kind) == ("creation", "block")
    assert creation.children == [creation.props["body"]]
    assert [n.props["name"] for n in find_all(tree, "method_declaration")] == ["f", "g"]


_CLASS_NOT_ALLOWED = "class, interface or enum declaration not allowed here"


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
        (b"class A { void f() { try {} catch (static E e) {} } }", "1:36: expected type"),
        (b"class A { void f() { try {} catch (E | e) {} } }", "1:41: expected exception parameter name"),
        (b"class A { void f() { try {} catch (E e, F f) {} } }", "1:39: expected ')'"),
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
        (b"class A { X a = new B { void m() {} }; }", "1:23: '(' or '[' expected"),
        (b"class A { void m() { Object o = new B<T> { }; } }", "1:42: '(' or '[' expected"),
        # the same in token runs the parser skips: a header, a switch body
        # and an array initializer
        (b"class A { void f() { if (new B { } == null) {} } }", "1:32: '(' or '[' expected"),
        (
            b"class A { void f(int x) { switch (x) { case 1: Object o = new B { }; } } }",
            "1:65: '(' or '[' expected",
        ),
        (b"class A { void f() { int[] a = { new B { } }; } }", "1:40: '(' or '[' expected"),
        # a type's type arguments hold types only, where javac 17 fails at
        # the same token
        (b"import java.util.List; class G { List<1 + 2> x; }", "1:39: illegal start of type"),
        (b"class A { List<new B() {}> x; }", "1:16: illegal start of type"),
        (b"class L { void f() { List<1 + 2> x = null; } }", "1:27: illegal start of type"),
        (b"class L { void f() { final List<1> x; } }", "1:33: illegal start of type"),
        (b"class L { void f() { List<(String)> x; } }", "1:27: illegal start of type"),
        (b"class P { void f(List<1> a) {} }", "1:23: illegal start of type"),
        (b"class R { List<1> f() { return null; } }", "1:16: illegal start of type"),
        (b"class E extends B<1> {}", "1:19: illegal start of type"),
        (b'class I implements B<"s"> {}', "1:22: illegal start of type"),
        (b"class U { <T extends List<1>> void f() {} }", "1:27: illegal start of type"),
        (b"class W { List<int> a; List<this> b; }", "1:29: illegal start of type"),
        (b"class Y { List<String>.Inner<1> a; }", "1:30: illegal start of type"),
        (b"class C { void f() { try { } catch (E<1> e) {} } }", "1:39: illegal start of type"),
        (b"class C { void f() { try { } catch (A | E<1> e) {} } }", "1:43: illegal start of type"),
        # a `throws` type is an annotated qualified name
        (b"class X { void g() throws E<String> {} }", "1:28: expected ';'"),
        (b"class X { void g() throws E[] {} }", "1:28: expected ';'"),
        (b"class Z { void f() { List<@A(new B {}) String> x; } }", "1:36: '(' or '[' expected"),
        (b"class A { @B( int x; }", "1:19: expected '.class'"),
        # the type arguments of `new T<...>(` and `a.<T>f()` hold types only
        (b"class C { Object o = new java.util.ArrayList<1>(); }", "1:46: illegal start of type"),
        (
            b"class C { void f() { java.util.Collections.<1>emptyList(); } }",
            "1:45: illegal start of type",
        ),
        (
            b"class C { void f() { g(new java.util.ArrayList<1 + 2>()); } }",
            "1:48: illegal start of type",
        ),
        (b"class C { void f() { new Outer<A>.Inner<1>(); } }", "1:41: illegal start of type"),
        (b"class C { void f() { Object o = new A<B(); } }", "1:40: expected '>'"),
        (b"class C { void f() { Object o = new A<>[1]; } }", "1:38: cannot create array with '<>'"),
        (b"class C { void f() { Object o = new A<>.B(); } }", "1:40: illegal start of type"),
        (b"class C { <T extends A & > void f() {} }", "1:26: illegal start of type"),
        (b"class C<T U> {}", "1:10: expected '>'"),
        # a `for` header is `(init; cond; update)` or `(T x : y)`
        (b"class C { void f(int n) { for (int i = 0; i < n) {} } }", "1:48: expected ';'"),
        (b"class C { void f() { for (;;;) {} } }", "1:29: expected expression"),
        (b"class C { void f() { for (;) {} } }", "1:28: unexpected ')' in expression"),
        # no expression statement starts `Name<`, so this is a declaration
        # whose variable name is missing (javac: `not a statement` at 1:33)
        (b"class S { void f() { Foo<String>.bar(); } }", "1:37: expected variable name"),
        # the body of `if`, `else`, a loop or a label is no declaration
        *(
            (b"class C { void f(boolean b) { " + statement + b" } }", expected)
            for statement, expected in [
                (b"if (b) int y = 1;", "1:42: variable declaration not allowed here"),
                (b"if (b) final int y = 1;", "1:48: variable declaration not allowed here"),
                (b"if (b) @A int y = 1;", "1:45: variable declaration not allowed here"),
                (b"for (;;) int y = 1;", "1:44: variable declaration not allowed here"),
                (b"do int y = 1; while (b);", "1:38: variable declaration not allowed here"),
                (b"if (b) ; else int y;", "1:49: variable declaration not allowed here"),
                (b"for (String s : x) int y;", "1:54: variable declaration not allowed here"),
                (b"if (b) class Q {}", "1:38: " + _CLASS_NOT_ALLOWED),
                (b"if (b) final class Q {}", "1:44: " + _CLASS_NOT_ALLOWED),
                (b"if (b) enum E {}", "1:38: " + _CLASS_NOT_ALLOWED),
                (b"L: class Q {}", "1:34: " + _CLASS_NOT_ALLOWED),
                (b"while (b) class Q {}", "1:41: " + _CLASS_NOT_ALLOWED),
            ]
        ),
        # a block takes a declaration's modifiers as javac's parser does
        (b"class A { void f() { static int x = 1; } }", "1:22: illegal start of expression"),
        (b"class A { void f() { public class B {} } }", "1:22: illegal start of expression"),
        (b"class A { void f() { default int x; } }", "1:22: orphaned default"),
        (
            b"class A { void f() { abstract int x = 1; } }",
            "1:31: expected class, interface or enum declaration",
        ),
        (b"class A { static final static int x; }", "1:24: repeated modifier"),
        (b"class A { void f() { final final int x; } }", "1:28: repeated modifier"),
        (b"class A { void f() { try {} catch (final final E e) {} } }", "1:42: expected type"),
        # only a type's name takes annotations after a `.`
        (b"import a.@A b;", "1:10: expected '*'"),
        (b"@a.@B C class X {}", "1:3: expected class, interface or enum declaration"),
        (b"record R(int x) {}", "1:1: expected class, interface or enum declaration"),
        (b"class T { record R(int x) {} }", "1:11: records are not supported"),
        (b"class T { private static record R(int x) {} }", "1:26: records are not supported"),
        (b"class T { record R<X>(X x) {} }", "1:11: records are not supported"),
        (b"class T { void f() { record R(int x) {} } }", "1:22: records are not supported"),
        (b"class T { void f() { final record R(int x) {} } }", "1:28: records are not supported"),
        (b"class A { // \xff }", "1:1: not valid UTF-8: invalid start byte"),
        (b"class A { void f() " + b"{" * 3000 + b"}" * 3000 + b" }", "1:1: nesting too deep"),
        # each bracket of an expression costs up to two frames of the parser
        (b"class A { int x = " + b"(" * 5000 + b"1" + b")" * 5000 + b"; }", "1:1: nesting too deep"),
        # after the type of a `new` only its `(`, or a `[` after annotations
        (b"class N1 { void f() { Object o = new A; } }", "1:39: '(' or '[' expected"),
        (b"class N2 { void f() { new A<B>>(); } }", "1:31: '(' or '[' expected"),
        (b"class N3 { void f() { Object o = new int; } }", "1:41: '[' expected"),
        (b"class N4 { void f() { Object o = new A @B (); } }", "1:45: '[' expected"),
        (b"class N5 { void f() { Object o = new int @A; } }", "1:44: '[' expected"),
        # a `new` must name a type, a primitive one only for an array and
        # with no type arguments
        (b"class N6 { void f() { Object o = new {1}; } }", "1:37: <identifier> expected"),
        (b"class N7 { void f() { Object o = new @A { }; } }", "1:40: <identifier> expected"),
        # explicit type arguments take no wildcard
        (b"class W1 { void f() { a.<?>f(); } }", "1:26: illegal start of type"),
        (b"class W2 { void f() { new <?>A(); } }", "1:28: illegal start of type"),
        # a statement that starts with a primitive type is a declaration or
        # starts `int.class`
        (b"class P1 { void f() { int<String> x; } }", "1:23: not a statement"),
        (b"class P2 { void f() { int < 3; } }", "1:23: not a statement"),
        (b"class V { void f(String @A a) {} }", "1:25: expected parameter name"),
        # a type and a name start a declaration (JLS 14.4), so this one
        # lacks its `;` (javac: `';' expected` at 1:28)
        (b"class Q4 { void f() { int x y; } }", "1:29: expected ';'"),
        # operands and operators alternate; a call's `)` ends no expression
        # that goes on, nor does an anonymous class body follow it
        (b"class X1 { void f() { x = = 1; } }", "1:27: expected expression"),
        (b"class X2 { void f() { g(1, , 2); } }", "1:28: expected expression"),
        (b"class X3 { void f() { g(1, ); } }", "1:28: unexpected ')' in expression"),
        (b"class X4 { void f() { a b c; } }", "1:27: expected ';'"),
        (b"class X5 { void f() { o = new A().b() { }; } }", "1:38: expected ';'"),
        (b"class X6 { void f() { x; } }", "1:23: not a statement"),
        (b"class X7 { void f() { f(a; } }", "1:26: expected ')'"),
        (b"class X8 { void f() { Object o = new void[1]; } }", "1:37: <identifier> expected"),
        (b"class X9 { void f() { for (List<1> x : y) {} } }", "1:33: illegal start of type"),
    ],
)
def test_parse_error_message_and_location(source, expected):
    tree, diags = parse_java_source(source)
    assert tree is None
    d = diags[0]
    assert f"{d.line}:{d.column}: {d.message}" == expected


@pytest.mark.parametrize(
    "source",
    [
        b"class S { Map.Entry<String, int[]>[] a; }",
        b"class S { List<? extends Number> b; }",
        b"class S { List<@NonNull String> c; }",
        b"class S { Class<?> d; }",
        b"class S { List<? super @A(x = 1) T> e; }",
        b"class S { Outer<String>.Inner<Integer> x; }",
        b"class S { void f(List<a.b> x, List<String>... y) {} }",
        b"class S<T extends Comparable<? super T> & Serializable> extends B<T[]> {}",
        b"class S { void f() { Outer<String>.Inner<Integer> x = null; a.b<c>.d y; } }",
        # a `<` in an expression is no type's
        b"class S { void f() { if (a < b) x = c > d; } }",
        b"class S { void f() { try { } catch (final @A E | F e) {} } }",
        b"class S { void f() { try { } catch (@A final a.E<?>[] e[]) {} } }",
        b"class S extends @A Y implements @B I, @C(1) J { void g() throws @D a.E, F {} }",
        b"class S extends Y.@A Z { a.@B C f; void g(a.@C D x) throws E.@D F { a.@E B c; } }",
        b"class S { Outer<A>.@B Inner<C> f; }",
        b"class S { List<String @A [] @B []> f; int @C [] g() @D [] { return null; } }",
    ],
)
def test_type_argument_shapes_parse(source):
    tree, diags = parse_java_source(source)
    assert diags == []


def test_extends_keeps_the_type_without_its_annotations():
    tree = parse_java(b"class X extends @A @B(1) p.Y<String> {} interface I extends @A J, K {}")
    assert [t.props["extends"] for t in tree.root.children] == ["p.Y<String>", "J"]


def test_declarations_keep_their_modifier_keywords():
    tree = parse_java(
        b"@A public final class Top {\n"
        b"    @B(1) private static final int f = 1, g;\n"
        b"    protected Top() {}\n"
        b"    public static synchronized <T> void m(final int p) {\n"
        b"        @C final int local = 1;\n"
        b"        abstract @D strictfp class Local {}\n"
        b"        int plain;\n"
        b"        Object o = new Object() { void run() {} };\n"
        b"    }\n"
        b"    static abstract class Nested {}\n"
        b"    private interface NestedI {}\n"
        b"    public enum NestedE { A { } }\n"
        b"    @interface NestedAnnotation {}\n"
        b"}\n"
        b"strictfp interface TopI {}\n"
        b"enum TopE { B }\n"
        b"@Deprecated public @interface TopAnnotation {}\n"
    )
    heads = []
    for n in tree.root.walk():
        if "modifiers" in n.props:
            assert type(n.props["modifiers"]) is tuple
            name = n.props.get("name") or n.props["declarators"][0]["name"]
            heads.append((n.kind, name, n.props["modifiers"]))
    assert heads == [
        ("class_declaration", "Top", ("public", "final")),
        ("field_declaration", "f", ("private", "static", "final")),
        ("constructor_declaration", "Top", ("protected",)),
        ("method_declaration", "m", ("public", "static", "synchronized")),
        ("local_variable_declaration", "local", ("final",)),
        ("class_declaration", "Local", ("abstract", "strictfp")),
        ("local_variable_declaration", "plain", ()),
        ("local_variable_declaration", "o", ()),
        ("method_declaration", "run", ()),
        ("class_declaration", "Nested", ("static", "abstract")),
        ("interface_declaration", "NestedI", ("private",)),
        ("enum_declaration", "NestedE", ("public",)),
        ("annotation_declaration", "NestedAnnotation", ()),
        ("interface_declaration", "TopI", ("strictfp",)),
        ("enum_declaration", "TopE", ()),
        ("annotation_declaration", "TopAnnotation", ("public",)),
    ]
    # an anonymous class body, an enum constant's among them, has no head
    bodies = find_all(tree, "anonymous_class_body")
    assert len(bodies) == 2 and all(b.props == {} for b in bodies)


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


def _tree_or_one_diagnostic(data: bytes) -> None:
    """Any other outcome, an exception escaping included, fails the test."""
    tree, diags = parse_java_source(data)
    assert (tree is not None and diags == []) or (tree is None and len(diags) == 1), data


@pytest.mark.parametrize("path", _java_fixtures(), ids=lambda p: p.stem + "-" + p.parent.name)
def test_every_token_end_prefix_parses_or_fails_with_one_diagnostic(path: Path):
    data = path.read_bytes()
    for end in tokenize(data).ends:
        _tree_or_one_diagnostic(data[:end])


# A generic method, an anonymous class, a lambda and a switch.
_SMALL_FILE = b"""class P<T> {
    <E extends T> E pick(java.util.List<E> xs) { return xs.get(0); }
    void f(int k) {
        Runnable r = new Runnable() { public void run() { g(k); } };
        h(x -> { return x + 1; });
        switch (k) { case 1: r.run(); break; default: }
    }
}
"""


def test_every_byte_prefix_of_a_small_file_parses_or_fails_with_one_diagnostic():
    for end in range(len(_SMALL_FILE) + 1):
        _tree_or_one_diagnostic(_SMALL_FILE[:end])


@pytest.mark.parametrize(
    "source,expected",
    [
        (b"class T { record R", "1:19: expected ';'"),
        (b"class T { void f() { record R", "1:30: expected ';'"),
    ],
)
def test_a_lookahead_past_the_last_token_matches_no_token(source, expected):
    tree, diags = parse_java_source(source)
    assert tree is None
    assert [str(d) for d in diags] == [expected]


def test_expression_statements_construct_no_parse_error(parse_errors):
    statements = [
        b"run();",
        b"a.b(c).d().e(f, g);",
        b"x = y + 1;",
        b"total += n;",
        b"this.x = f(1);",
        b"i++;",
        b"a[i] = 2;",
        b"new T() { void g() {} };",
    ]
    body = b" ".join(statements * 3)
    tree = parse_java(b"class A { void f() { " + body + b" } }")
    assert len(find_all(tree, "expression_statement")) == 3 * len(statements)
    assert parse_errors[0] == 0
