import pytest

from greenlint.rules.base import RuleId
from greenlint.rules.javautil import indent_unit
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
    assert indent_unit(javadoc + before) == b"    "
    _, fixed = fix_java(apply_wake_lock, javadoc + before)
    assert fixed == javadoc + after


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
    ["for (;;) {\n            poll();\n        }", "spin: while (true) {}", "do {} while (true);"],
)
def test_on_pause_ending_in_an_endless_loop_declines_the_fix(golden, loop):
    # A release after the loop would be unreachable, which javac rejects.
    source = _with_on_pause(golden, f"        super.onPause();\n        {loop}\n".encode())
    result, fixed = fix_java(apply_wake_lock, source)
    assert [f.fixable for f in result.findings] == [False]
    assert "the block ends in a loop that may never exit" in result.findings[0].message
    assert fixed == source
