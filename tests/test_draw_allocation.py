import pytest

from greenlint.cli import EXIT_CLEAN, main
from greenlint.rules.base import RuleId
from greenlint.rules.draw_allocation import apply_draw_allocation

from conftest import fix_java, parse_java


def test_golden_transformation(golden):
    before, after = golden("draw_allocation")
    result, fixed = fix_java(apply_draw_allocation, before)
    assert len(result.findings) == 1
    assert result.findings[0].rule is RuleId.DRAW_ALLOCATION
    assert fixed == after


def test_idempotent_on_output(golden):
    _, after = golden("draw_allocation")
    result, fixed = fix_java(apply_draw_allocation, after)
    assert result.findings == []
    assert fixed == after


def _on_draw(body: str, extra_members: str = "") -> bytes:
    return (
        "class V extends Button {\n"
        + extra_members
        + "    protected void onDraw(Canvas canvas) {\n"
        + "".join("        " + line.strip() + "\n" for line in body.strip().splitlines())
        + "    }\n}\n"
    ).encode()


@pytest.mark.parametrize(
    "body",
    [
        "Paint p = new Paint(canvas);",  # depends on the parameter
        "int w = width(); Rect r = new Rect(0, 0, w, w);",  # depends on a local
        "Rect r = new Rect(left(), 0, 1, 1);",  # call argument may vary
        "Integer i = new Integer(5); i = new Integer(6);",  # reassigned
        "Integer i = new Integer(5); i++;",  # mutated
        "Object o = wrap(new Integer(5));",  # allocation nested in a call
        "Rect r = new Rect(0, 0, 1, 1) {{ top = 2; }};",  # anonymous body
    ],
)
def test_variant_allocations_left_alone(body):
    result = apply_draw_allocation(parse_java(_on_draw(body)))
    assert result.findings == []


def test_field_argument_is_invariant():
    source = _on_draw(
        "Rect r = new Rect(0, 0, size, size);",
        extra_members="    private final int size = 10;\n",
    )
    result, fixed = fix_java(apply_draw_allocation, source)
    assert len(result.findings) == 1
    assert (
        b"private final int size = 10;\n    Rect r = new Rect(0, 0, size, size);\n"
        b"    protected void onDraw"
    ) in fixed


# Hoisting any of these would change what is drawn: the object or the
# field it reads would carry a change from one draw pass to the next.
@pytest.mark.parametrize(
    "body,members",
    [
        # (i) the hoisted Rect's offset builds up on every frame
        ("Rect q = new Rect(0, 0, 10, 10);\nq.offset(5, 0);", ""),
        ("Rect q = new Rect(0, 0, 10, 10);\nq.left += 5;", ""),
        ("Paint p = new Paint();\np.setColor(color());", ""),
        # (ii) `mW` would be read once, at construction, not on every draw
        ("Rect r = new Rect(0, 0, mW, 10);", "    int mW;\n    void setW(int w) { mW = w; }\n"),
        # a blank final is read before the constructor sets it
        ("Rect r = new Rect(0, 0, mW, 10);", "    final int mW;\n    V() { mW = 4; }\n"),
        # a final field's object or array may still change
        ("Rect r = new Rect(0, 0, mP.x, 10);", "    final Point mP = new Point();\n"),
        ("Rect r = new Rect(0, 0, mA[0], 10);", "    final int[] mA = {1};\n"),
    ],
)
def test_allocation_whose_state_may_change_is_left_alone(body, members):
    source = _on_draw(body, extra_members=members)
    result, fixed = fix_java(apply_draw_allocation, source)
    assert result.findings == []
    assert fixed == source


def test_set_call_with_invariant_arguments_is_hoisted():
    source = _on_draw(
        "Paint p = new Paint();\np.setColor(Color.RED);\np.setAlpha(ALPHA);\nc.drawRect(r, p);",
        extra_members="    static final int ALPHA = 7;\n",
    )
    result, fixed = fix_java(apply_draw_allocation, source)
    assert [f.fixable for f in result.findings] == [True]
    assert b"    Paint p = new Paint();\n    protected void onDraw" in fixed


def test_field_declared_below_on_draw_is_not_invariant(tmp_path, capsys):
    # Hoisted above onDraw, the field's initializer would read `size` before
    # its declaration: javac rejects that as an illegal forward reference.
    source = (
        _on_draw("Rect r = new Rect(0, 0, size, size);")[: -len(b"}\n")]
        + b"    private int size;\n}\n"
    )
    target = tmp_path / "src" / "V.java"
    target.parent.mkdir()
    target.write_bytes(source)
    assert main(["check", str(tmp_path)]) == EXIT_CLEAN
    assert main(["fix", str(tmp_path)]) == EXIT_CLEAN
    assert target.read_bytes() == source
    assert "DrawAllocation" not in capsys.readouterr().out


def test_class_constant_argument_is_invariant():
    source = _on_draw("Paint p = new Paint(Paint.ANTI_ALIAS_FLAG);")
    result, _ = fix_java(apply_draw_allocation, source)
    assert len(result.findings) == 1


def test_member_name_collision_blocks_hoist():
    source = _on_draw(
        "Integer i = new Integer(5);",
        extra_members="    private float i;\n",
    )
    result = apply_draw_allocation(parse_java(source))
    assert result.findings == []


def test_only_on_draw_with_canvas_param():
    source = (
        b"class V {\n"
        b"    protected void onDraw() {\n"
        b"        Integer i = new Integer(5);\n"
        b"    }\n"
        b"}\n"
    )
    result = apply_draw_allocation(parse_java(source))
    assert result.findings == []


def test_two_hoistable_allocations():
    source = _on_draw("Integer a = new Integer(1);\nInteger b = new Integer(2);")
    result, fixed = fix_java(apply_draw_allocation, source)
    assert len(result.findings) == 2
    assert b"Integer a = new Integer(1);\n    Integer b = new Integer(2);\n    protected void onDraw" in fixed
    _, again = fix_java(apply_draw_allocation, fixed)
    assert again == fixed


def test_hoisted_multi_line_statement_keeps_crlf_line_ends():
    source = (
        b"class V extends View {\r\n"
        b"    void onDraw(Canvas c) {\r\n"
        b"        Paint p = new Paint(\r\n"
        b"            1);\r\n"
        b"        c.drawRect(r, p);\r\n"
        b"    }\r\n"
        b"}\r\n"
    )
    _, fixed = fix_java(apply_draw_allocation, source)
    assert fixed.startswith(
        b"class V extends View {\r\n"
        b"    Paint p = new Paint(\r\n"
        b"        1);\r\n"
        b"    void onDraw(Canvas c) {\r\n"
    )
    assert b"\r\r" not in fixed
