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
