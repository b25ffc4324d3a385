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


def test_holder_name_skips_a_nested_annotation_type(golden):
    # javac rejects a second member type of the same name
    before, _ = golden("view_holder")
    source = before.replace(
        b"public class SubListAdapter extends ArrayAdapter<String> {\n",
        b"public class SubListAdapter extends ArrayAdapter<String> {\n"
        b"\n    @interface ViewHolderItem {}\n",
    )
    result, fixed = fix_java(apply_view_holder, source)
    assert len(result.findings) == 1
    assert b"private static class ViewHolderItem2 {" in fixed
    assert b"class ViewHolderItem {" not in fixed


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


@pytest.mark.parametrize(
    "header, local_types, fixable",
    [
        ("class A<T extends TextView> extends BaseAdapter {", ["T"], False),
        ("class A<T extends TextView> extends BaseAdapter {", ["TextView", "T"], False),
        ("class A<K, T extends Comparable<K> & View> extends BaseAdapter {", ["T"], False),
        ("class A<T> extends ArrayAdapter<T> {", ["List<T>"], False),
        # bounds, type arguments and out-of-scope type parameters name classes
        ("class A<T extends TextView> extends BaseAdapter {", ["TextView"], True),
        ("class A<T extends android.widget.TextView> extends BaseAdapter {", ["TextView"], True),
        ("class A extends ArrayAdapter<T> {", ["T"], True),
        ("class A extends BaseAdapter {\n    <T> T id(T t) { return t; }", ["T"], True),
        # an inner host's holder is an inner class, which sees the outer T
        ("class O<T> {\n    class A extends BaseAdapter {", ["T[]"], True),
    ],
)
def test_holder_field_never_names_a_type_parameter(header, local_types, fixable):
    # A static holder class sees no type parameter of the enclosing class
    # or method, so javac rejects a field whose type names one.
    lookups = "".join(
        f"        {t} v{i} = ({t}) convertView.findViewById(R.id.name);\n"
        for i, t in enumerate(local_types)
    )
    source = (
        f"{header}\n"
        "    public View getView(int pos, View convertView, ViewGroup parent) {\n"
        "        convertView = inf.inflate(R.layout.row, parent, false);\n"
        f"{lookups}"
        "        return convertView;\n"
        "    }\n"
        + "}\n" * (header.count("{") - header.count("}"))
    ).encode()
    result = apply_view_holder(parse_java(source))
    assert [f.fixable for f in result.findings] == [fixable]
    assert bool(result.edits) == fixable


def _adapter(lookups: str, params: str = "int pos, View convertView, ViewGroup parent") -> bytes:
    return (
        "class A extends BaseAdapter {\n"
        f"    public View getView({params}) {{\n"
        "        convertView = inf.inflate(R.layout.row, parent, false);\n"
        + "".join(f"        {line}\n" for line in lookups.splitlines())
        + "        return convertView;\n    }\n}\n"
    ).encode()


def test_lookup_reading_an_earlier_cached_view_is_declined():
    # The holder block assigns every lookup before it declares the locals,
    # so `box` would be read before it exists.
    source = _adapter(
        "View box = convertView.findViewById(R.id.box);\n"
        "TextView t = (TextView) box.findViewById(R.id.name);"
    )
    result = apply_view_holder(parse_java(source))
    assert [f.fixable for f in result.findings] == [False]
    assert "a lookup reads an earlier cached view" in result.findings[0].message
    assert result.edits == []


def _per_row_field(lookup: str, field: str = "int row;", assign: str = "row = pos;") -> bytes:
    """An adapter with ``field`` whose getView runs ``assign``, which sets
    it per row, before ``lookup``."""
    return _adapter(lookup).replace(
        b"        convertView = inf", f"        {assign}\n        convertView = inf".encode()
    ).replace(b"BaseAdapter {\n", f"BaseAdapter {{\n    {field}\n".encode())


def _in_activity(adapter: bytes) -> bytes:
    """``adapter`` as a member of an Activity whose field ``ids`` it sets per row."""
    return b"class Act extends Activity {\n    Ids ids;\n" + adapter + b"}\n"


_IDS_FIELD_LOOKUP = _per_row_field(
    "TextView t = (TextView) convertView.findViewById(ids.title);", "", "ids = idsFor(pos);"
)


@pytest.mark.parametrize(
    "source",
    [
        _adapter("TextView t = (TextView) convertView.findViewById(pos == 0 ? R.id.a : R.id.b);"),
        _adapter("TextView t = (TextView) parent.findViewById(R.id.title);"),
        _adapter("TextView t = (TextView) findViewById(R.id.title);"),
        _adapter("TextView t = (TextView) convertView.findViewById(id);").replace(
            b"        convertView = inf", b"        int id = ids[pos];\n        convertView = inf"
        ),
        _per_row_field("TextView t = (TextView) convertView.findViewById(row);"),
        _per_row_field("TextView t = (TextView) convertView.findViewById(IDS[row]);"),
        _per_row_field("TextView t = (TextView) convertView.findViewById(idFor(row));"),
        _per_row_field("TextView t = (TextView) convertView.findViewById(this.row);"),
        _per_row_field(
            "TextView t = (TextView) convertView.findViewById(ids.title);",
            "Ids ids;",
            "ids = idsFor(pos);",
        ),
        _in_activity(_IDS_FIELD_LOOKUP),
        _in_activity(
            _IDS_FIELD_LOOKUP.replace(b"class A extends BaseAdapter", b"A a = new BaseAdapter()")
            + b";\n"
        ),
        _adapter("TextView t = (TextView) convertView.findViewById(R.id.a).findViewById(R.id.b);"),
        _adapter("TextView t = (TextView) this.convertView.findViewById(R.id.title);"),
        _adapter("TextView t = pos == 0 ? (TextView) convertView.findViewById(R.id.a) : null;"),
        _adapter("TextView t = (TextView) convertView.findViewById(R.id.a);").replace(
            b"        convertView = inf", b"        Ids R = ids(pos);\n        convertView = inf"
        ),
    ],
    ids=[
        "argument-names-a-parameter", "receiver-is-the-list", "no-receiver",
        "argument-names-a-local", "argument-is-a-field", "argument-indexes-by-a-field",
        "argument-is-a-call", "argument-is-this-field", "dotted-name-starts-at-a-field",
        "dotted-name-starts-at-an-enclosing-class-field",
        "dotted-name-starts-at-a-field-around-an-anonymous-adapter",
        "lookup-on-a-lookup", "receiver-is-a-qualified-name", "lookup-in-a-conditional",
        "dotted-name-starts-at-a-local",
    ],
)
def test_lookup_that_may_differ_per_row_is_declined(source):
    # A recycled row keeps its holder, so a cached lookup must give the
    # same view for every row the layout makes.
    result = apply_view_holder(parse_java(source))
    assert [f.fixable for f in result.findings] == [False]
    assert "may find another view for another row" in result.findings[0].message
    assert result.edits == []


@pytest.mark.parametrize(
    "lookup",
    [
        "TextView t = ((TextView) convertView.findViewById(android.R.id.text1));",
        "TextView t = (TextView) (convertView.findViewById(0x7f0a0001));",
    ],
)
def test_lookup_by_a_constant_id_is_cached(lookup):
    result, fixed = fix_java(apply_view_holder, _adapter(lookup))
    assert [f.fixable for f in result.findings] == [True]
    init = lookup.split(" = ")[1]
    assert f"viewHolderItem.t = {init}\n".encode() in fixed


def test_member_named_like_an_earlier_cached_view_is_no_read_of_it():
    source = _adapter(
        "View box = convertView.findViewById(R.id.box);\n"
        "TextView t = (TextView) convertView.findViewById(R.id.box);"
    )
    result = apply_view_holder(parse_java(source))
    assert [f.fixable for f in result.findings] == [True]


@pytest.mark.parametrize(
    "lookups, params",
    [
        ("TextView viewHolderItem = (TextView) convertView.findViewById(R.id.name);", None),
        (
            "TextView t = (TextView) convertView.findViewById(R.id.name);",
            "int viewHolderItem, View convertView, ViewGroup parent",
        ),
    ],
)
def test_holder_variable_skips_a_name_the_method_uses(lookups, params):
    source = _adapter(lookups, *([params] if params else []))
    result, fixed = fix_java(apply_view_holder, source)
    assert [f.fixable for f in result.findings] == [True]
    assert b"        ViewHolderItem viewHolderItem2;\n" in fixed
    assert b"convertView.setTag(viewHolderItem2);" in fixed
    _, again = fix_java(apply_view_holder, fixed)
    assert again == fixed


_GET_VIEW = (
    "public View getView(int pos, View convertView, ViewGroup parent) {\n"
    "    convertView = inf.inflate(R.layout.row, parent, false);\n"
    "    TextView t = (TextView) convertView.findViewById(R.id.name);\n"
    "    return convertView;\n"
    "}\n"
)


def _host(head: str, tail: str, depth: int) -> bytes:
    indent = "    " * depth
    body = "".join(f"{indent}{line}\n" for line in _GET_VIEW.splitlines())
    return (head + body + tail).encode()


@pytest.mark.parametrize(
    "source, holder",
    [
        (
            _host("class A extends BaseAdapter {\n", "}\n", 1),
            "private static class ViewHolderItem",
        ),
        (
            _host("class O {\n    static class A extends BaseAdapter {\n", "    }\n}\n", 2),
            "private static class ViewHolderItem",
        ),
        # the `{` of an annotation's argument ends no head
        (
            _host(
                'class O {\n    @SuppressWarnings({"unchecked"}) static class Host'
                " extends BaseAdapter {\n",
                "    }\n}\n",
                2,
            ),
            "private static class ViewHolderItem",
        ),
        # before Java 16 an inner, anonymous or local class holds no static member
        (
            _host("class O {\n    class A extends BaseAdapter {\n", "    }\n}\n", 2),
            "private class ViewHolderItem",
        ),
        (
            _host(
                "class O {\n    Adapter a = new BaseAdapter() {\n", "    };\n}\n", 2
            ),
            "private class ViewHolderItem",
        ),
        (
            _host(
                "class O {\n    void m() {\n        class A extends BaseAdapter {\n",
                "        }\n    }\n}\n",
                3,
            ),
            "private class ViewHolderItem",
        ),
        # `R` is spelled around the adapter, but it names no field there
        (
            _host(
                "class O {\n    void m() {\n        setContentView(R.layout.main);\n"
                "        list.setAdapter(new BaseAdapter() {\n",
                "        });\n    }\n}\n",
                3,
            ),
            "private class ViewHolderItem",
        ),
        # an enum constant's body is an anonymous class
        (_host("enum E {\n    ONE {\n", "    };\n}\n", 2), "private class ViewHolderItem"),
        # no interface member is private, and a member class there is static
        (
            _host("interface I {\n", "}\n", 1).replace(b"public View", b"default View"),
            "\n    class ViewHolderItem",
        ),
        # javac rejects a class named like an enclosing one
        (
            _host("class ViewHolderItem {\n    class A extends BaseAdapter {\n", "    }\n}\n", 2),
            "private class ViewHolderItem2",
        ),
        # a member class would hide the enclosing method's local class
        (
            _host(
                "class O {\n    void m() {\n        class ViewHolderItem {}\n"
                "        class A extends BaseAdapter {\n",
                "        }\n    }\n}\n",
                3,
            ),
            "private class ViewHolderItem2",
        ),
    ],
    ids=[
        "top-level", "static-nested", "static-nested-annotated", "inner-member", "anonymous",
        "local-class",
        "anonymous-in-a-method-spelling-r",
        "enum-constant-body", "interface-default", "enclosing-type-name",
        "enclosing-method-local-class",
    ],
)
def test_holder_is_static_only_where_its_host_allows(source, holder):
    result, fixed = fix_java(apply_view_holder, source)
    assert [f.fixable for f in result.findings] == [True]
    assert f"{holder} {{".encode() in fixed
    _, again = fix_java(apply_view_holder, fixed)
    assert again == fixed


def test_local_class_type_is_declined():
    source = _adapter(
        "TextView t = (TextView) convertView.findViewById(R.id.name);"
    ).replace(
        b"        convertView = inf",
        b"        class Row extends TextView {}\n        convertView = inf",
    ).replace(b"TextView t = (TextView)", b"Row t = (Row)")
    result = apply_view_holder(parse_java(source))
    assert [f.fixable for f in result.findings] == [False]
    assert "the local's type is declared in the method" in result.findings[0].message
