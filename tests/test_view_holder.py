import pytest

from greenlint.rules.base import RuleId
from greenlint.rules.view_holder import apply_view_holder

from conftest import fix_java, parse_java


def test_golden_transformation(golden):
    before, after = golden("view_holder")
    result, fixed = fix_java(apply_view_holder, before)
    assert len(result.findings) == 1
    assert result.findings[0].rule is RuleId.VIEW_HOLDER
    assert result.findings[0].fixable
    assert fixed == after


def test_idempotent_on_output(golden):
    _, after = golden("view_holder")
    result, fixed = fix_java(apply_view_holder, after)
    assert result.findings == []
    assert fixed == after


@pytest.mark.parametrize(
    "body",
    [
        # already guarded by a convertView null check
        """
        if (convertView == null) {
            convertView = inflater.inflate(R.layout.row, parent, false);
        }
        TextView t = (TextView) convertView.findViewById(R.id.name);
        return convertView;
        """,
        # no findViewById lookups after the inflate
        """
        convertView = inflater.inflate(R.layout.row, parent, false);
        return convertView;
        """,
        # inflate result never assigned to convertView
        """
        View row = inflater.inflate(R.layout.row, parent, false);
        TextView t = (TextView) row.findViewById(R.id.name);
        return row;
        """,
    ],
)
def test_non_matching_bodies_left_alone(body):
    source = (
        "class A extends ArrayAdapter<String> {\n"
        "    public View getView(int position, View convertView, ViewGroup parent) {\n"
        + "".join("    " + line.strip() + "\n" for line in body.strip().splitlines())
        + "    }\n}\n"
    ).encode()
    result = apply_view_holder(parse_java(source))
    assert result.findings == []
    assert len(result.edits) == 0


def test_wrong_signature_ignored():
    source = (
        b"class A {\n"
        b"    public View getView(int position, View convertView) {\n"
        b"        convertView = inflater.inflate(R.layout.row, null);\n"
        b"        TextView t = (TextView) convertView.findViewById(R.id.name);\n"
        b"        return convertView;\n"
        b"    }\n"
        b"}\n"
    )
    result = apply_view_holder(parse_java(source))
    assert result.findings == []


def test_holder_name_collision_gets_suffix(golden):
    before, _ = golden("view_holder")
    source = before.replace(
        b"public class SubListAdapter extends ArrayAdapter<String> {\n",
        b"public class SubListAdapter extends ArrayAdapter<String> {\n"
        b"\n    static class ViewHolderItem {}\n",
    )
    result, fixed = fix_java(apply_view_holder, source)
    assert len(result.findings) == 1
    assert b"private static class ViewHolderItem2 {" in fixed
    assert b"viewHolderItem = new ViewHolderItem2();" in fixed
    # the rewritten file must still parse and be stable
    _, again = fix_java(apply_view_holder, fixed)
    assert again == fixed


def test_multiple_cached_views(golden):
    before, _ = golden("view_holder")
    source = before.replace(
        b"        final TextView t = ((TextView) convertView.findViewById(R.id.name));\n",
        b"        final TextView t = ((TextView) convertView.findViewById(R.id.name));\n"
        b"        ImageView icon = (ImageView) convertView.findViewById(R.id.icon);\n",
    )
    result, fixed = fix_java(apply_view_holder, source)
    assert len(result.findings) == 1
    assert b"private TextView t;" in fixed
    assert b"private ImageView icon;" in fixed
    assert b"viewHolderItem.icon = (ImageView) convertView.findViewById(R.id.icon);" in fixed
    assert b"ImageView icon = viewHolderItem.icon;" in fixed
    _, again = fix_java(apply_view_holder, fixed)
    assert again == fixed


def test_crlf_input_keeps_crlf_line_endings(golden):
    before, after = golden("view_holder")
    _, fixed = fix_java(apply_view_holder, before.replace(b"\n", b"\r\n"))
    assert b"\r\r" not in fixed
    assert fixed == after.replace(b"\n", b"\r\n")
