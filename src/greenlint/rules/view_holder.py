"""ViewHolder rule: cache per-row view lookups in list adapter getView.

Detects getView(int, View, ViewGroup) implementations that re-inflate the
row layout and re-run findViewById on every call, and rewrites them to the
tag-cached holder form: lookups run once per row layout, cached in a
private holder class stashed on the view via setTag/getTag. Only a lookup
that gives the same view for every row made from the layout is cached:
`convertView.findViewById(ID)`, parentheses and a cast aside, ID being an
integer literal or a dotted name such as `R.id.title` that starts at no
parameter, local or field of the host or of a class enclosing it. Any
other id, say a field set to the position, may be read per row. The
holder is `static` when its host class is top-level or `static`, since
Java before 16 allows no static member in an inner, anonymous or local
class. In an interface it is a plain member class, which is implicitly
public and static, as no interface member may be private. Its name is no
name in the host's scope (`javautil.names_in_scope`).
"""

from __future__ import annotations

from ..java.parser import Node, SyntaxTree
from ..spans import Edit, SourceSpan
from .base import RuleId, RuleResult
from .javautil import (
    SHARED_LINE,
    calls,
    cannot_declare,
    class_fields,
    declared_locals,
    file_eol,
    fresh_name,
    has_signature,
    initialized_local,
    insert_lines,
    line_indent,
    methods_of,
    names_in_scope,
    own_line_start,
    path_to,
    reindent,
)

HOLDER_BASE_NAME = "ViewHolderItem"
HOLDER_VAR = "viewHolderItem"
READS_CACHED = (
    "a lookup reads an earlier cached view, which the holder block would read before declaring it"
)
PER_ROW = (
    "a lookup that is not on the row view, or whose id is not a constant name or number,"
    " may find another view for another row"
)


def _already_optimized(tree: SyntaxTree, body: Node, convert_view: str) -> bool:
    for n in body.walk():
        if n.kind != "if_statement":
            continue
        lo, hi = n.props["cond"]
        values = tree.tokens.values[lo:hi]
        if convert_view in values and "==" in values and "null" in values:
            return True
    return False


def _find_inflate_assignment(tree: SyntaxTree, body: Node, convert_view: str):
    values = tree.tokens.values
    for stmt in body.children:
        if stmt.kind != "expression_statement" or stmt.tok_hi - stmt.tok_lo < 3:
            continue
        if values[stmt.tok_lo] != convert_view or values[stmt.tok_lo + 1] != "=":
            continue
        if any(call.props["name"] == "inflate" for call in calls(stmt)):
            return stmt
    return None


def _collect_cached_views(body: Node, after: Node) -> list[tuple[Node, dict]]:
    """Contiguous run of findViewById-initialized locals following ``after``,
    as (statement, declarator) pairs."""
    stmts = body.children
    idx = stmts.index(after)
    cached: list[tuple[Node, dict]] = []
    for stmt in stmts[idx + 1 :]:
        decl = initialized_local(stmt)
        if decl is None or not any(call.props["name"] == "findViewById" for call in calls(stmt)):
            break
        cached.append((stmt, decl))
    return cached


def _reads_cached(values: list[str], cached: list[tuple[Node, dict]]) -> bool:
    """True if a lookup's initializer names a local cached before it."""
    seen: set[str] = set()
    for _, decl in cached:
        lo, hi = decl["init"]
        if any(values[j] in seen and values[j - 1] != "." for j in range(lo, hi)):
            return True
        seen.add(decl["name"])
    return False


def _differs_per_row(
    tree: SyntaxTree, owner: Node, method: Node, cached: list[tuple[Node, dict]], convert_view: str
) -> bool:
    """True unless every lookup's value is `findViewById(ID)` on
    ``convert_view``, parentheses and a cast aside, ``ID`` being a number or
    a dotted name whose first part is no parameter or local of ``method``
    and no field of ``owner`` or of a type or body enclosing it."""
    tokens = tree.tokens
    fields = (class_fields(node.children) for node in path_to(tree, owner))
    names = declared_locals(method).union(*fields)
    for _, decl in cached:
        call = decl["value"][0][0] if len(decl["value"]) == 1 else None
        args = call.props["args"] if call is not None else ()
        if (
            call is None
            or call.kind != "call"
            or (call.props["receiver"], call.props["name"]) != (convert_view, "findViewById")
            or tokens.values[call.tok_lo - 1] == "."  # a qualified receiver, `a.convertView`
            or len(args) != 1
        ):
            return True
        kinds, arg = tokens.kinds[slice(*args[0])], tokens.values[slice(*args[0])]
        dotted = (
            len(arg) % 2 == 1
            and len(arg) > 1
            and arg[0] not in names
            and set(kinds[::2]) == {"ident"}
            and set(arg[1::2]) == {"."}
        )
        if not (dotted or kinds == ["number"]):
            return True
    return False


def apply_view_holder(tree: SyntaxTree, path: str = "") -> RuleResult:
    result = RuleResult()
    data = tree.data
    toks = tree.tokens
    taken_per_owner: dict[Node, set[str]] = {}

    for owner, method in methods_of(tree):
        if not has_signature(method, "getView", ("int", "View", "ViewGroup")):
            continue
        body = method.props["body"]
        convert_view = method.props["params"][1][1]
        if _already_optimized(tree, body, convert_view):
            continue
        assign = _find_inflate_assignment(tree, body, convert_view)
        if assign is None:
            continue
        cached = _collect_cached_views(body, assign)
        if not cached:
            continue

        # the holder class goes above the method; the holder block replaces
        # the lines from the inflate assignment to the last lookup
        method_start = tree.span_of(method).start
        stmt_start = tree.span_of(assign).start
        holder_at = own_line_start(data, method_start)
        region_start = own_line_start(data, stmt_start)
        fits = holder_at is not None and region_start is not None
        interface = owner.kind == "interface_declaration"
        nested_static = "static" in owner.props.get("modifiers", ())  # none on an anonymous body
        static = interface or owner in tree.root.children or nested_static
        types = [stmt.props["type"] for stmt, _ in cached]
        reason = (
            cannot_declare(tree, method, types, static=static)
            or (READS_CACHED if _reads_cached(toks.values, cached) else "")
            or (PER_ROW if _differs_per_row(tree, owner, method, cached, convert_view) else "")
            or ("" if fits else SHARED_LINE)
        )
        message = (
            "getView() inflates its row layout and calls findViewById() "
            "on every call; cache the looked-up views in a holder"
        )
        name = method.props["name_tok"]
        span = SourceSpan(toks.starts[name], toks.ends[name])
        if not result.report(RuleId.VIEW_HOLDER, path, span, message, reason):
            continue

        taken = taken_per_owner.setdefault(owner, names_in_scope(tree, owner))
        holder = fresh_name(HOLDER_BASE_NAME, taken)
        taken.add(holder)
        # a name the method never mentions can neither clash nor shadow
        holder_var = fresh_name(HOLDER_VAR, set(toks.values[method.tok_lo : method.tok_hi]))

        mi = line_indent(data, method_start)
        si = line_indent(data, stmt_start)
        unit = si[len(mi) :] if si.startswith(mi) and len(si) > len(mi) else "    "
        inner = si + unit

        # nested holder class inserted right above the method, then a blank line
        modifiers = "" if interface else "private static " if static else "private "
        holder_lines = [f"{mi}{modifiers}class {holder} {{"]
        for stmt, decl in cached:
            field = f"private {stmt.props['type']} {decl['name']};"
            holder_lines.append(f"{mi}{unit}{field}")
        holder_lines += [f"{mi}}}", ""]
        result.edits.append(insert_lines(tree, holder_at, holder_lines))

        # rebuild the inflate + lookup block as the null-guarded holder block;
        # reindent leaves a text's first line alone, so it takes the prefix
        lines = [
            f"{si}{holder} {holder_var};",
            f"{si}if ({convert_view} == null) {{",
            *reindent(inner + tree.text_of(assign), si, inner),
            f"{inner}{holder_var} = new {holder}();",
        ]
        for _, decl in cached:
            lo, hi = decl["init"]
            init = data[toks.starts[lo] : toks.ends[hi - 1]].decode()
            assignment = f"{inner}{holder_var}.{decl['name']} = {init};"
            lines += reindent(assignment, si, inner)
        lines.append(f"{inner}{convert_view}.setTag({holder_var});")
        lines.append(f"{si}}} else {{")
        lines.append(f"{inner}{holder_var} = ({holder}) {convert_view}.getTag();")
        lines.append(f"{si}}}")
        for stmt, decl in cached:
            # modifiers, type and name, e.g. "final TextView t"
            head = data[tree.span_of(stmt).start : toks.ends[decl["name_tok"]]].decode()
            lines += reindent(f"{si}{head} = {holder_var}.{decl['name']};", si, si)
        block_text = file_eol(tree).join(lines)

        region_end = tree.span_of(cached[-1][0]).end
        result.edits.append(Edit.replace(region_start, region_end, block_text.encode()))

    return result
