import pytest

from greenlint.rules.base import RuleId
from greenlint.rules.layout_params import apply_obsolete_layout_param

from conftest import fix_xml, parse_xml


def test_golden_transformation(golden):
    before, after = golden("obsolete_layout_param")
    result, fixed = fix_xml(apply_obsolete_layout_param, before)
    assert len(result.findings) == 1
    assert result.findings[0].rule is RuleId.OBSOLETE_LAYOUT_PARAM
    assert "layout_alignParentBottom" in result.findings[0].message
    assert fixed == after


def test_idempotent_on_output(golden):
    _, after = golden("obsolete_layout_param")
    result, fixed = fix_xml(apply_obsolete_layout_param, after)
    assert result.findings == []
    assert fixed == after


def _layout(parent: str, child_attrs: str) -> bytes:
    return (
        f'<{parent} xmlns:android="http://schemas.android.com/apk/res/android"\n'
        f'    android:layout_width="match_parent"\n'
        f'    android:layout_height="match_parent">\n'
        f'    <View\n'
        f'        android:layout_width="wrap_content"\n'
        f'        android:layout_height="wrap_content"\n'
        f'{child_attrs} />\n'
        f"</{parent}>\n"
    ).encode()


@pytest.mark.parametrize(
    ("parent", "attr"),
    [
        ("LinearLayout", 'android:layout_weight="1"'),
        ("FrameLayout", 'android:layout_gravity="center"'),
        ("RelativeLayout", 'android:layout_below="@id/header"'),
        ("TableRow", 'android:layout_span="2"'),
        ("GridLayout", 'android:layout_rowSpan="2"'),
        ("LinearLayout", 'android:layout_marginTop="4dp"'),
        ("CustomContainer", 'android:layout_below="@id/header"'),  # unknown parent
        ("LinearLayout", 'tools:layout_weight="1"'),  # non-android namespace
        ("LinearLayout", 'android:gravity="center"'),  # not a layout_* param
    ],
)
def test_meaningful_params_kept(parent, attr):
    result = apply_obsolete_layout_param(parse_xml(_layout(parent, "        " + attr)))
    assert result.findings == []


@pytest.mark.parametrize(
    ("parent", "attr"),
    [
        ("LinearLayout", 'android:layout_below="@id/header"'),
        ("FrameLayout", 'android:layout_weight="1"'),
        ("RelativeLayout", 'android:layout_weight="1"'),
        ("GridLayout", 'android:layout_alignParentTop="true"'),
    ],
)
def test_alien_params_removed(parent, attr):
    source = _layout(parent, "        " + attr)
    result, fixed = fix_xml(apply_obsolete_layout_param, source)
    assert len(result.findings) == 1
    assert attr.split("=")[0].encode() not in fixed
    # deletion also takes the preceding whitespace run
    assert b"\n\n" not in fixed.replace(b">\n\n", b">\n")
    parse_xml(fixed)


def test_root_element_never_flagged():
    source = (
        b'<LinearLayout xmlns:android="http://schemas.android.com/apk/res/android"\n'
        b'    android:layout_width="match_parent"\n'
        b'    android:layout_height="match_parent"\n'
        b'    android:layout_below="@id/x" />\n'
    )
    result = apply_obsolete_layout_param(parse_xml(source))
    assert result.findings == []
