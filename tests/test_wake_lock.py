import pytest

from greenlint.diagnostics import line_col
from greenlint.java.lexer import tokenize
from greenlint.rules.base import RuleId
from greenlint.rules.draw_allocation import apply_draw_allocation
from greenlint.rules.javautil import indent_unit
from greenlint.rules.recycle import apply_recycle
from greenlint.rules.view_holder import apply_view_holder
from greenlint.rules.wake_lock import apply_wake_lock

from conftest import fix_java, parse_java


def test_golden_transformation(golden):
    before, after = golden("wake_lock")
    result, fixed = fix_java(apply_wake_lock, before)
    assert len(result.findings) == 1
    assert result.findings[0].rule is RuleId.WAKE_LOCK
    assert result.findings[0].fixable
    assert fixed == after


def test_idempotent_on_output(golden):
    _, after = golden("wake_lock")
    result, fixed = fix_java(apply_wake_lock, after)
    assert result.findings == []
    assert fixed == after


def test_default_guard_checks_held(golden):
    before, _ = golden("wake_lock")
    _, fixed = fix_java(apply_wake_lock, before)
    assert b"if (wl != null && wl.isHeld()) {" in fixed


def test_release_in_on_pause_suppresses_finding(golden):
    before, _ = golden("wake_lock")
    source = before.replace(
        b"        wl.acquire();\n    }\n",
        b"        wl.acquire();\n    }\n\n"
        b"    @Override\n"
        b"    protected void onPause() {\n"
        b"        super.onPause();\n"
        b"        wl.release();\n"
        b"    }\n",
    )
    result = apply_wake_lock(parse_java(source))
    assert result.findings == []


def test_existing_on_pause_gets_guarded_release(golden):
    before, _ = golden("wake_lock")
    source = before.replace(
        b"        wl.acquire();\n    }\n",
        b"        wl.acquire();\n    }\n\n"
        b"    @Override\n"
        b"    protected void onPause() {\n"
        b"        super.onPause();\n"
        b"    }\n",
    )
    result, fixed = fix_java(apply_wake_lock, source)
    assert len(result.findings) == 1
    assert (
        b"        super.onPause();\n"
        b"        if (wl != null && wl.isHeld()) {\n"
        b"            wl.release();\n"
        b"        }\n"
        b"    }\n"
    ) in fixed
    check, again = fix_java(apply_wake_lock, fixed)
    assert check.findings == []
    assert again == fixed


def test_local_wake_lock_is_unfixable(golden):
    before, _ = golden("wake_lock")
    source = before.replace(b"wl = pm.newWakeLock(", b"WakeLock wl = pm.newWakeLock(")
    source = source.replace(b"    private WakeLock wl;\n", b"")
    result = apply_wake_lock(parse_java(source))
    assert len(result.findings) == 1
    assert not result.findings[0].fixable
    assert len(result.edits) == 0


def test_non_activity_class_ignored(golden):
    before, _ = golden("wake_lock")
    source = before.replace(b"extends Activity", b"extends Service")
    result = apply_wake_lock(parse_java(source))
    assert result.findings == []


def test_acquire_outside_lifecycle_ignored(golden):
    before, _ = golden("wake_lock")
    source = before.replace(b"void onCreate(Bundle savedInstanceState)", b"void startHolding(Bundle savedInstanceState)")
    source = source.replace(b"super.onCreate(savedInstanceState);", b"")
    result = apply_wake_lock(parse_java(source))
    assert result.findings == []


def test_two_unreleased_fields_one_on_pause():
    source = (
        b"class MainActivity extends Activity {\n"
        b"    private WakeLock a;\n"
        b"    private WakeLock b;\n"
        b"\n"
        b"    protected void onResume() {\n"
        b"        a.acquire();\n"
        b"        b.acquire();\n"
        b"    }\n"
        b"}\n"
    )
    result, fixed = fix_java(apply_wake_lock, source)
    assert len(result.findings) == 2
    assert fixed.count(b"protected void onPause()") == 1
    assert b"a.release();" in fixed
    assert b"b.release();" in fixed
    check, again = fix_java(apply_wake_lock, fixed)
    assert check.findings == []
    assert again == fixed


def test_javadoc_continuation_lines_do_not_set_the_indent_unit(golden):
    before, after = golden("wake_lock")
    javadoc = b"/**\n * Holds the screen on while playing.\n */\n"
    assert indent_unit(javadoc + before, tokenize(javadoc + before).starts) == b"    "
    _, fixed = fix_java(apply_wake_lock, javadoc + before)
    assert fixed == javadoc + after


@pytest.mark.parametrize("eol", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_whitespace_only_lines_do_not_set_the_indent_unit(golden, eol):
    before, after = golden("wake_lock")
    field = b"    private WakeLock wl;\n"
    before, after = (
        text.replace(field, field + b"  \n").replace(b"\n", eol) for text in (before, after)
    )
    assert indent_unit(before, tokenize(before).starts) == b"    "
    lines = b"  first();" + eol + b"    second();" + eol
    assert indent_unit(lines, tokenize(lines).starts) == b"  "
    _, fixed = fix_java(apply_wake_lock, before)
    assert fixed == after


def test_acquire_only_in_an_anonymous_runnable_in_on_create():
    # The Runnable's `run` is a method of its own, outside the lifecycle,
    # but the acquire() lies in onCreate's body, which the rule scans.
    source = (
        b"public class A extends Activity {\n"
        b"    private WakeLock wl;\n"
        b"\n"
        b"    @Override\n"
        b"    protected void onCreate(Bundle b) {\n"
        b"        handler.post(new Runnable() {\n"
        b"            public void run() {\n"
        b"                wl.acquire();\n"
        b"            }\n"
        b"        });\n"
        b"    }\n"
        b"}\n"
    )
    result, fixed = fix_java(apply_wake_lock, source)
    assert [(f.span.start, f.fixable) for f in result.findings] == [
        (source.index(b"wl.acquire"), True)
    ]
    assert fixed == source[: -len(b"}\n")] + (
        b"\n"
        b"    @Override\n"
        b"    protected void onPause() {\n"
        b"        super.onPause();\n"
        b"        if (wl != null && wl.isHeld()) {\n"
        b"            wl.release();\n"
        b"        }\n"
        b"    }\n"
        b"}\n"
    )


def test_indent_and_line_end_are_found_once_per_tree(file_facts):
    recycles = "".join(
        f"    void r{i}(Db db) {{\n"
        f'        Cursor c = db.query("t{i}");\n'
        "        c.moveToFirst();\n"
        "    }\n"
        for i in range(3)
    )
    source = (
        "public class A extends Activity {\n"
        "    private WakeLock wl;\n"
        "    protected void onCreate(Bundle b) {\n"
        "        wl.acquire();\n"
        "    }\n" + recycles + "}\n"
    ).encode()
    tree = parse_java(source)
    edits = apply_recycle(tree).edits + apply_wake_lock(tree).edits
    assert len(edits) == 4
    assert file_facts == {"indent": 1, "eol": 1}
    # a tree with no fix finds neither
    clean = parse_java(source.replace(b"acquire", b"toString").replace(b"query", b"q"))
    for rule in (apply_view_holder, apply_draw_allocation, apply_wake_lock, apply_recycle):
        assert rule(clean).edits == []
    assert file_facts == {"indent": 1, "eol": 1}


def test_abstract_on_pause_declines_the_fix():
    source = (
        b"abstract class A extends Activity {\n"
        b"    WakeLock wl;\n"
        b"    void onCreate() {\n"
        b"        wl.acquire();\n"
        b"    }\n"
        b"    abstract void onPause();\n"
        b"}\n"
    )
    result, fixed = fix_java(apply_wake_lock, source)
    assert [f.fixable for f in result.findings] == [False]
    assert "onPause() has no body" in result.findings[0].message
    assert fixed == source
    without_lock = source.replace(b"        wl.acquire();\n", b"")
    assert apply_wake_lock(parse_java(without_lock)).findings == []


def _with_on_pause(golden, body: bytes) -> bytes:
    before, _ = golden("wake_lock")
    return before.replace(
        b"        wl.acquire();\n    }\n",
        b"        wl.acquire();\n    }\n\n"
        b"    @Override\n"
        b"    protected void onPause() {\n" + body + b"    }\n",
    )


def test_release_goes_before_a_trailing_throw(golden):
    source = _with_on_pause(
        golden,
        b"        super.onPause();\n"
        b"        throw new IllegalStateException();\n",
    )
    result, fixed = fix_java(apply_wake_lock, source)
    assert [f.fixable for f in result.findings] == [True]
    assert (
        b"        super.onPause();\n"
        b"        if (wl != null && wl.isHeld()) {\n"
        b"            wl.release();\n"
        b"        }\n"
        b"        throw new IllegalStateException();\n"
        b"    }\n"
    ) in fixed
    check, again = fix_java(apply_wake_lock, fixed)
    assert check.findings == []
    assert again == fixed


def test_an_earlier_return_in_on_pause_declines_the_fix(golden):
    source = _with_on_pause(
        golden,
        b"        super.onPause();\n"
        b"        if (done) {\n"
        b"            return;\n"
        b"        }\n"
        b"        log();\n"
        b"        return;\n",
    )
    result, fixed = fix_java(apply_wake_lock, source)
    assert [f.fixable for f in result.findings] == [False]
    assert "an earlier exit from onPause() would skip the release" in result.findings[0].message
    assert fixed == source


@pytest.mark.parametrize(
    "loop",
    [
        "for (;;) {\n            poll();\n        }",
        "spin: while (true) {}",
        "do {} while (true);",
        "while (SPIN) {}",
    ],
)
def test_on_pause_ending_in_an_endless_loop_declines_the_fix(golden, loop):
    # A release after the loop would be unreachable, which javac rejects.
    source = _with_on_pause(golden, f"        super.onPause();\n        {loop}\n".encode())
    result, fixed = fix_java(apply_wake_lock, source)
    assert [f.fixable for f in result.findings] == [False]
    assert "the block ends in a loop that may never exit" in result.findings[0].message
    assert fixed == source


_SWITCH_AND_LAMBDA = (
    b"class A extends Activity {\n"
    b"    WakeLock wl;\n"
    b"    void onCreate(Bundle b) {\n"
    b"        switch (b.size()) { case 1: wl.acquire(); break; }\n"
    b"        runOnUiThread(() -> { wl.acquire(); });\n"
    b"    }\n"
)


def test_acquires_in_a_switch_body_and_a_block_lambda_are_found():
    source = _SWITCH_AND_LAMBDA + b"}\n"
    result, fixed = fix_java(apply_wake_lock, source)
    assert [(line_col(source, f.span.start), f.fixable) for f in result.findings] == [
        ((4, 37), True),
        ((5, 31), True),
    ]
    assert len(result.edits) == 1
    assert fixed.count(b"wl.release();") == 1


def test_a_release_in_a_switch_body_in_on_pause_is_found():
    source = _SWITCH_AND_LAMBDA + (
        b"    void onPause() {\n"
        b"        switch (1) { default: wl.release(); }\n"
        b"    }\n"
        b"}\n"
    )
    assert apply_wake_lock(parse_java(source)).findings == []
    # the release is what answers both acquires
    unreleased = source.replace(b"wl.release();", b"")
    assert len(apply_wake_lock(parse_java(unreleased)).findings) == 2
