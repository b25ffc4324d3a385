import pytest

from greenlint.rules.base import RuleId
from greenlint.rules import recycle
from greenlint.rules.recycle import DEFAULT_FACTORIES, ResourceFactory, apply_recycle

from conftest import fix_java, parse_java


def test_golden_transformation(golden):
    before, after = golden("recycle")
    result, fixed = fix_java(apply_recycle, before)
    assert len(result.findings) == 1
    assert result.findings[0].rule is RuleId.RECYCLE
    assert result.findings[0].fixable
    assert fixed == after


def test_idempotent_on_output(golden):
    _, after = golden("recycle")
    result, fixed = fix_java(apply_recycle, after)
    assert result.findings == []
    assert fixed == after


def _method(body: str) -> bytes:
    return (
        "class C {\n"
        "    void m(AttributeSet attrs) {\n"
        + "".join("        " + line.strip() + "\n" for line in body.strip().splitlines())
        + "    }\n}\n"
    ).encode()


def test_returned_resource_is_unfixable():
    source = (
        b"class C {\n"
        b"    TypedArray m(AttributeSet attrs) {\n"
        b"        TypedArray a = getContext().obtainStyledAttributes(attrs, STYLE);\n"
        b"        return a;\n"
        b"    }\n"
        b"}\n"
    )
    result = apply_recycle(parse_java(source))
    assert len(result.findings) == 1
    assert not result.findings[0].fixable
    assert "escapes" in result.findings[0].message
    assert len(result.edits) == 0


@pytest.mark.parametrize(
    "body",
    [
        "TypedArray a = getContext().obtainStyledAttributes(attrs, S); use(a);",
        "TypedArray a = getContext().obtainStyledAttributes(attrs, S); TypedArray b = a;",
        "TypedArray a = getContext().obtainStyledAttributes(attrs, S); a = other();",
    ],
)
def test_escaping_resources_are_unfixable(body):
    result = apply_recycle(parse_java(_method(body)))
    assert len(result.findings) == 1
    assert not result.findings[0].fixable


@pytest.mark.parametrize(
    "body",
    [
        "TypedArray a = getContext().obtainStyledAttributes(attrs, S); a.recycle();",
        "Cursor c = db.query(T, null, null, null, null, null, null); c.close();",
        "TypedArray a, b;",  # multiple declarators are never touched
        "Object a = getContext().obtainThing(attrs);",  # unknown factory
        "MotionEvent e = copy.obtain(src);",  # wrong receiver for obtain
    ],
)
def test_released_or_non_matching_left_alone(body):
    result = apply_recycle(parse_java(_method(body)))
    assert result.findings == []


def test_motion_event_obtain_release_appended():
    source = _method("MotionEvent e = MotionEvent.obtain(src); handle(e.getX());")
    result, fixed = fix_java(apply_recycle, source)
    assert len(result.findings) == 1
    assert (
        b"        if (e != null) {\n"
        b"            e.recycle();\n"
        b"        }\n"
        b"    }\n"
    ) in fixed
    check, again = fix_java(apply_recycle, fixed)
    assert check.findings == []
    assert again == fixed


def test_cursor_release_inserted_before_trailing_return():
    source = (
        b"class C {\n"
        b"    int m(SQLiteDatabase db) {\n"
        b"        Cursor c = db.rawQuery(SQL, null);\n"
        b"        int n = c.getCount();\n"
        b"        return n;\n"
        b"    }\n"
        b"}\n"
    )
    result, fixed = fix_java(apply_recycle, source)
    assert len(result.findings) == 1
    assert (
        b"        if (c != null) {\n"
        b"            c.close();\n"
        b"        }\n"
        b"        return n;\n"
    ) in fixed


@pytest.mark.parametrize(
    "aside",
    [
        b'    String s = """\n  two\n    """;\n',
        b"    /*\n  two\n    */\n",
        b"  // two\n",
    ],
    ids=["text_block", "block_comment", "line_comment"],
)
def test_lines_inside_text_blocks_and_comments_do_not_set_the_indent_step(aside):
    source = (
        b"class C {\n" + aside + b"    void m(SQLiteDatabase db) {\n"
        b"        Cursor c = db.query(T);\n"
        b"        c.moveToFirst();\n"
        b"    }\n"
        b"}\n"
    )
    _, fixed = fix_java(apply_recycle, source)
    assert (
        b"        c.moveToFirst();\n"
        b"        if (c != null) {\n"
        b"            c.close();\n"
        b"        }\n"
    ) in fixed


def test_earlier_exit_in_the_block_declines_the_fix():
    # The release would go at the end of the loop body, which the `continue`
    # path never reaches.
    source = (
        b"class C {\n"
        b"    void m(SQLiteDatabase db) {\n"
        b"        while (more()) {\n"
        b'            Cursor c = db.query("z");\n'
        b"            if (c.moveToFirst()) continue;\n"
        b"            c.getCount();\n"
        b"        }\n"
        b"    }\n"
        b"}\n"
    )
    result, fixed = fix_java(apply_recycle, source)
    assert [f.fixable for f in result.findings] == [False]
    assert "an earlier exit from the block" in result.findings[0].message
    assert fixed == source


@pytest.mark.parametrize("exit_stmt", ["break;", "continue;", "throw new Error();"])
def test_release_inserted_before_trailing_abrupt_exit(exit_stmt):
    # After the exit the release would be unreachable, which javac rejects.
    source = (
        b"class C {\n"
        b"    void m(SQLiteDatabase db) {\n"
        b"        while (true) {\n"
        b"            Cursor c = db.rawQuery(SQL, null);\n"
        b"            c.moveToFirst();\n"
        b"            " + exit_stmt.encode() + b"\n"
        b"        }\n"
        b"    }\n"
        b"}\n"
    )
    result, fixed = fix_java(apply_recycle, source)
    assert [f.fixable for f in result.findings] == [True]
    assert (
        b"            c.moveToFirst();\n"
        b"            if (c != null) {\n"
        b"                c.close();\n"
        b"            }\n"
        b"            " + exit_stmt.encode() + b"\n"
    ) in fixed


@pytest.mark.parametrize(
    "exit_stmt", ["return c.getCount();", "throw new Error(c.getString(0));"]
)
def test_resource_used_by_trailing_exit_is_unfixable(exit_stmt):
    # Closing before the exit would read from a closed cursor.
    source = _method(f'Cursor c = db.query("z");\nc.moveToFirst();\n{exit_stmt}')
    result, fixed = fix_java(apply_recycle, source)
    assert [f.fixable for f in result.findings] == [False]
    assert "still uses it" in result.findings[0].message
    assert fixed == source


def test_resource_in_labeled_loop_is_found():
    source = _method(
        "outer:\n"
        "for (int i = 0; i < n; i++) {\n"
        "TypedArray a = ctx.obtainStyledAttributes(attrs, STYLE);\n"
        "a.getColor(0, 0);\n"
        "}"
    )
    result, fixed = fix_java(apply_recycle, source)
    assert [f.fixable for f in result.findings] == [True]
    assert b"a.recycle();" in fixed


def test_cursor_type_required_for_query():
    source = _method("Result r = api.query(Q);")
    result = apply_recycle(parse_java(source))
    assert result.findings == []


def test_custom_factory_extension(monkeypatch):
    monkeypatch.setattr(
        recycle,
        "DEFAULT_FACTORIES",
        DEFAULT_FACTORIES
        + (ResourceFactory("openSession", "dispose", declared_type="Session"),),
    )
    source = _method("Session s = pool.openSession(); s.use();")
    result, fixed = fix_java(apply_recycle, source)
    assert len(result.findings) == 1
    assert b"s.dispose();" in fixed


ENDLESS_LOOPS = [
    "for (;;) {}",
    "for (int i = 0; ; i++) { step(i); }",
    "for (Runnable r = () -> { go(); }; ; ) {}",
    "while (true) { step(); }",
    "do { step(); } while (true);",
    "outer: for (;;) {}",
    "a: b: while (true) {}",
    # With `static final boolean SPIN = true;` these never end either: a
    # condition with no call, `new`, `[` or assignment may be constant.
    "while (SPIN) {}",
    "do { step(); } while (C.SPIN && (int) 1.5 == ONE);",
    "for (int i = 0; SPIN; log(i)) {}",
    "for (int i = 0; i < N; ) { i = step(); }",
]


@pytest.mark.parametrize("loop", ENDLESS_LOOPS)
def test_block_ending_in_an_endless_loop_declines_the_fix(loop):
    # A release after the loop would be unreachable, which javac rejects.
    source = _method(f'Cursor c = db.query("z");\nc.moveToFirst();\n{loop}')
    result, fixed = fix_java(apply_recycle, source)
    assert [f.fixable for f in result.findings] == [False]
    assert "the block ends in a loop that may never exit" in result.findings[0].message
    assert fixed == source


@pytest.mark.parametrize(
    "loop",
    [
        "while (SPIN[0]) {}",
        "while (this.spin) {}",
        "while (spin = next()) {}",
        "for (Node n = head; n != null; n = n.next) {}",
        "for (; SPIN; SPIN ^= true) {}",
        "for (int i = 0; i < n; i++) {}",
        "for (String s : names) {}",
        "while (more()) {}",
        "do { step(); } while (more());",
        "outer: while (more()) {}",
    ],
)
def test_block_ending_in_a_loop_that_ends_is_fixed(loop):
    source = _method(f'Cursor c = db.query("z");\nc.moveToFirst();\n{loop}')
    result, fixed = fix_java(apply_recycle, source)
    assert [f.fixable for f in result.findings] == [True]
    assert fixed.endswith(
        f"        {loop}\n        if (c != null) {{\n            c.close();\n        }}\n"
        "    }\n}\n".encode()
    )


@pytest.mark.parametrize(
    "head,tail",
    [
        (
            "        Runnable r = new Runnable() {\n            public void run() {\n",
            "            }\n        };\n",
        ),
        ("        class L {\n            void run() {\n", "            }\n        }\n"),
    ],
    ids=["anonymous", "local"],
)
def test_resource_in_a_nested_class_method_is_released_once(head, tail):
    # The nested method is a method of its own; the enclosing method's
    # blocks must not visit its body a second time.
    source = (
        "class C {\n    void m(Db db) {\n"
        + head
        + '                Cursor c = db.query("z");\n'
        "                c.moveToFirst();\n" + tail + "    }\n}\n"
    )
    release = (
        "                if (c != null) {\n"
        "                    c.close();\n"
        "                }\n"
    )
    result, fixed = fix_java(apply_recycle, source.encode())
    assert [(f.span.start, f.fixable) for f in result.findings] == [
        (source.index("db.query"), True)
    ]
    assert fixed == source.replace("c.moveToFirst();\n", "c.moveToFirst();\n" + release).encode()


@pytest.mark.parametrize(
    "stmt,fixed_name",
    [
        (
            "Runnable r = new Runnable() { public void run() { "
            "TypedArray a = ctx.obtainStyledAttributes(1); a.recycle(); } };",
            None,
        ),
        (
            "Runnable r = () -> { TypedArray a = ctx.obtainStyledAttributes(1); a.recycle(); };",
            None,
        ),
        ("TypedArray[] arr = { ctx.obtainStyledAttributes(1) };", None),
        ("TypedArray a = ctx.obtainStyledAttributes(attrs, new int[] {1, 2});", "a"),
        ("Supplier<TypedArray> s = () -> ctx.obtainStyledAttributes(1);", None),
        ("Supplier<TypedArray> s = () -> flag ? ctx.obtainStyledAttributes(1) : null;", None),
        ("String d = describe(ctx.obtainStyledAttributes(1));", None),
        ("int n = ctx.obtainStyledAttributes(1).getInt(0, 0);", None),
        ("TypedArray a = new Ctx().obtainStyledAttributes(1);", "a"),
        ("TypedArray a = ctx.<Object>obtainStyledAttributes(1);", "a"),
    ],
    ids=[
        "anonymous", "lambda", "array-initializer", "array-argument",
        "expression-lambda", "lambda-conditional", "argument", "chained-receiver",
        "creation-receiver", "type-arguments",
    ],
)
def test_only_a_call_outside_the_initializer_braces_is_the_source(stmt, fixed_name):
    # Only the initializer's value is the resource: a factory call inside a
    # `{}` group, a lambda, an argument or a receiver is not, and releasing
    # `r`, `arr`, `s`, `d` or `n` would not compile.
    source = _method(stmt)
    result, fixed = fix_java(apply_recycle, source)
    if fixed_name is None:
        assert result.findings == [] and fixed == source
    else:
        assert [f.fixable for f in result.findings] == [True]
        assert f"{fixed_name}.recycle();".encode() in fixed


@pytest.mark.parametrize(
    "stmt,fixable",
    [
        ("TypedArray a = (ctx.obtainStyledAttributes(1));", True),
        ("TypedArray a = (TypedArray) ctx.obtainStyledAttributes(1);", True),
        ("TypedArray a = flag ? ctx.obtainStyledAttributes(1) : null;", True),
        ("TypedArray a = flag ? null : (ctx.obtainStyledAttributes(2));", True),
        ("var a = ctx.obtainStyledAttributes(1);", True),
        ("Object a = ctx.obtainStyledAttributes(1);", False),
        ("Object a = (Object) ctx.obtainStyledAttributes(1);", False),
        ("var a = (Object) ctx.obtainStyledAttributes(1);", False),
        ("var a = flag ? ctx.obtainStyledAttributes(1) : null;", False),
        ("Object a = MotionEvent.obtain(src);", False),
    ],
)
def test_only_a_local_of_the_resource_type_is_released(stmt, fixable):
    # `a.recycle()` compiles only where `a`'s type is the resource's: its
    # declared type, or with `var` the bare factory call's.
    source = _method(stmt + "\na.hashCode();")
    result, fixed = fix_java(apply_recycle, source)
    assert [f.fixable for f in result.findings] == [fixable]
    assert (b"a.recycle();" in fixed) is fixable
    if not fixable:
        assert "its type is not known to be" in result.findings[0].message


# Recycle reads only the methods whose body tokens hold a factory name; a
# method without one cannot declare a local whose value is a factory call.


def _blocks_reached(monkeypatch) -> list:
    """The method bodies that ``recycle._blocks`` walks from here on."""
    reached: list = []
    walk = recycle._blocks

    def counting(body):
        reached.append(body)
        return walk(body)

    monkeypatch.setattr(recycle, "_blocks", counting)
    return reached


def test_only_the_method_holding_a_factory_name_is_walked(monkeypatch):
    clean = "".join(
        f"    int clean{i}(int x) {{\n        int y = x + {i};\n"
        f"        if (y > 0) {{\n            y--;\n        }}\n        return y;\n    }}\n"
        for i in range(6)
    )
    smelly = (
        "    void smelly(Db db) {\n"
        '        Cursor c = db.query("t");\n'
        "        c.moveToFirst();\n"
        "    }\n"
    )
    source = f"class C {{\n{clean[: len(clean) // 2]}{smelly}{clean[len(clean) // 2 :]}}}\n"
    tree = parse_java(source.encode())
    reached = _blocks_reached(monkeypatch)
    result = apply_recycle(tree)
    assert [tree.text_of(body) for body in reached] == [
        '{\n        Cursor c = db.query("t");\n        c.moveToFirst();\n    }'
    ]
    assert [(f.span.start, f.fixable) for f in result.findings] == [
        (source.index("db.query"), True)
    ]


def test_a_factory_call_in_an_anonymous_class_method_is_still_fixed(monkeypatch):
    # The outer method's tokens hold the call too, but only the anonymous
    # class's own method declares the local.
    source = (
        "class C {\n"
        "    void clean() {\n        step();\n    }\n"
        "    void m(Db db) {\n"
        "        Runnable r = new Runnable() {\n"
        "            public void run() {\n"
        '                Cursor c = db.query("z");\n'
        "                c.moveToFirst();\n"
        "            }\n"
        "        };\n"
        "        r.run();\n"
        "    }\n"
        "}\n"
    )
    reached = _blocks_reached(monkeypatch)
    result, fixed = fix_java(apply_recycle, source.encode())
    assert len(reached) == 2  # m and run, not clean
    assert [(f.span.start, f.fixable) for f in result.findings] == [
        (source.index("db.query"), True)
    ]
    release = (
        "                if (c != null) {\n"
        "                    c.close();\n"
        "                }\n"
    )
    assert fixed == source.replace("c.moveToFirst();\n", "c.moveToFirst();\n" + release).encode()


@pytest.mark.parametrize(
    "body",
    [
        "int query = 0; query++; use(query);",
        "String obtain = name(); Object rawQuery = obtain;",
        "Cursor c = query; c.moveToFirst();",
    ],
)
def test_a_factory_name_used_as_a_plain_identifier_is_not_reported(body):
    result, fixed = fix_java(apply_recycle, _method(body))
    assert result.findings == [] and result.edits == []
    assert fixed == _method(body)
