"""Every finding message the five rules can write, pinned word for word.

The other rule tests match messages by substring; this table fixes each
rule's fixable message, ObsoleteLayoutParam's message and every wording of
a declined fix, with the finding's fixable flag and byte span.
"""

import pytest

from greenlint.rules import (
    apply_draw_allocation,
    apply_obsolete_layout_param,
    apply_recycle,
    apply_view_holder,
    apply_wake_lock,
)

from conftest import parse_java, parse_xml

NO_FIX = ", so no automatic fix is applied"
SHARED = "; other code shares the line where the fix would go" + NO_FIX

RECYCLE = "'{name}' ({type}) is obtained but never released with {release}()"
TYPED_ARRAY = RECYCLE.format(name="a", type="TypedArray", release="recycle")
CURSOR = RECYCLE.format(name="c", type="Cursor", release="close")
WAKE_LOCK = "wake lock field 'wl' is acquired but never released in onPause()"
LOCAL_WAKE_LOCK = (
    "wake lock held only in a local variable is acquired but never released; "
    "store it in a field and release it in onPause()"
)
DRAW_ALLOCATION = (
    "allocation of {} inside onDraw() runs on every draw pass; hoist it to a field"
)
VIEW_HOLDER = (
    "getView() inflates its row layout and calls findViewById() on every "
    "call; cache the looked-up views in a holder"
)


def _method(body: str) -> str:
    return (
        "class C {\n    void m(Db db, AttributeSet attrs) {\n"
        + "".join(f"        {line}\n" for line in body.splitlines())
        + "    }\n}\n"
    )


def _activity(members: str) -> str:
    return (
        "class A extends Activity {\n    WakeLock wl;\n"
        "    void onCreate() {\n        wl.acquire();\n    }\n" + members + "}\n"
    )


def _adapter(open_brace: str) -> str:
    return (
        "class Ad extends BaseAdapter {\n"
        f"    public View getView(int pos, View cv, ViewGroup parent){open_brace}"
        "cv = inf.inflate(R.layout.row, parent, false);\n"
        "        TextView t = (TextView) cv.findViewById(R.id.t);\n"
        "        return cv;\n    }\n}\n"
    )


CASES = {
    "recycle-fixable": (
        apply_recycle,
        _method("TypedArray a = getContext().obtainStyledAttributes(attrs, S);\n"
                "a.getInt(0, 0);"),
        [(TYPED_ARRAY, True, (86, 118))],
    ),
    "recycle-escapes": (
        apply_recycle,
        _method("TypedArray a = getContext().obtainStyledAttributes(attrs, S);\n"
                "return a;"),
        [(TYPED_ARRAY + "; it escapes the method" + NO_FIX, False, (86, 118))],
    ),
    "recycle-last-statement-uses-it": (
        apply_recycle,
        _method('Cursor c = db.query("z");\nreturn c.getCount();'),
        [(CURSOR + "; the block's last statement still uses it" + NO_FIX,
          False, (69, 82))],
    ),
    "recycle-earlier-exit": (
        apply_recycle,
        _method('Cursor c = db.query("z");\nif (c.moveToFirst()) return;\n'
                "c.getCount();"),
        [(CURSOR + "; an earlier exit from the block would skip the release"
          + NO_FIX, False, (69, 82))],
    ),
    "recycle-shared-line": (
        apply_recycle,
        'class H { void h(Db db) { Cursor c = db.query("z"); c.moveToFirst(); } }\n',
        [(CURSOR + SHARED, False, (37, 50))],
    ),
    "recycle-endless-loop": (
        apply_recycle,
        _method('Cursor c = db.query("z");\nc.moveToFirst();\nfor (;;) {}'),
        [(CURSOR + "; the block ends in a loop that may never exit" + NO_FIX,
          False, (69, 82))],
    ),
    "wake-lock-endless-loop-in-on-pause": (
        apply_wake_lock,
        _activity("    void onPause() {\n        while (true) {}\n    }\n"),
        [(WAKE_LOCK + "; the block ends in a loop that may never exit" + NO_FIX,
          False, (74, 86))],
    ),
    "wake-lock-new-on-pause": (
        apply_wake_lock,
        _activity(""),
        [(WAKE_LOCK, True, (74, 86))],
    ),
    "wake-lock-existing-on-pause": (
        apply_wake_lock,
        _activity("    void onPause() {\n        super.onPause();\n    }\n"),
        [(WAKE_LOCK, True, (74, 86))],
    ),
    "wake-lock-on-pause-without-body": (
        apply_wake_lock,
        "abstract " + _activity("    abstract void onPause();\n"),
        [(WAKE_LOCK + "; onPause() has no body" + NO_FIX, False, (83, 95))],
    ),
    "wake-lock-earlier-exit-from-on-pause": (
        apply_wake_lock,
        _activity(
            "    void onPause() {\n        if (done) {\n"
            "            throw new E();\n        }\n    }\n"
        ),
        [
            (
                WAKE_LOCK + "; an earlier exit from onPause() would skip the release" + NO_FIX,
                False,
                (74, 86),
            )
        ],
    ),
    "wake-lock-shared-line-new-on-pause": (
        apply_wake_lock,
        "class A extends Activity { WakeLock wl; void onCreate() { wl.acquire(); } }\n",
        [(WAKE_LOCK + SHARED, False, (58, 70))],
    ),
    "wake-lock-shared-line-existing-on-pause": (
        apply_wake_lock,
        _activity("    void onPause() { super.onPause(); }\n"),
        [(WAKE_LOCK + SHARED, False, (74, 86))],
    ),
    "wake-lock-local-variable": (
        apply_wake_lock,
        "class A extends Activity {\n    void onCreate() {\n"
        "        WakeLock wl = pm.newWakeLock(1, \"t\");\n"
        "        wl.acquire();\n    }\n}\n",
        [(LOCAL_WAKE_LOCK, False, (103, 115))],
    ),
    "draw-allocation-fixable": (
        apply_draw_allocation,
        "class V extends View {\n    void onDraw(Canvas c) {\n"
        "        Paint p = new Paint();\n        c.drawRect(r, p);\n    }\n}\n",
        [(DRAW_ALLOCATION.format("Paint"), True, (69, 80))],
    ),
    "draw-allocation-shared-line": (
        apply_draw_allocation,
        "class V extends View { void onDraw(Canvas c) "
        "{ Paint p = new Paint(); c.drawRect(r, p); } }\n",
        [(DRAW_ALLOCATION.format("Paint") + SHARED, False, (57, 68))],
    ),
    "view-holder-fixable": (
        apply_view_holder,
        _adapter(" {\n        "),
        [(VIEW_HOLDER, True, (47, 54))],
    ),
    "view-holder-shared-line": (
        apply_view_holder,
        _adapter(" { "),
        [(VIEW_HOLDER + SHARED, False, (47, 54))],
    ),
}


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_java_finding_messages(case):
    rule, source, expected = CASES[case]
    result = rule(parse_java(source.encode()), "F.java")
    assert [
        (f.message, f.fixable, (f.span.start, f.span.end)) for f in result.findings
    ] == expected
    assert all(f.file == "F.java" for f in result.findings)
    assert bool(result.edits) == any(fixable for _, fixable, _ in expected)


def test_obsolete_layout_param_message():
    source = (
        b'<LinearLayout xmlns:android="http://schemas.android.com/apk/res/android">\n'
        b'    <TextView android:layout_alignParentBottom="true" />\n'
        b"</LinearLayout>\n"
    )
    result = apply_obsolete_layout_param(parse_xml(source), "l.xml")
    assert [
        (f.message, f.fixable, (f.span.start, f.span.end)) for f in result.findings
    ] == [
        (
            "android:layout_alignParentBottom has no effect on a child of "
            "<LinearLayout>; it is safe to remove",
            True,
            (88, 127),
        )
    ]
