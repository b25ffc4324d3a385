"""ViewHolder rule: cache per-row view lookups in list adapter getView.

Detects getView(int, View, ViewGroup) implementations that re-inflate the
row layout and re-run findViewById on every call, and rewrites them to the
tag-cached holder form: lookups run once per row layout, cached in a
private holder class stashed on the view via setTag/getTag. Only a lookup
that gives the same view for every row made from the layout is cached:
one on convertView whose initializer names no other parameter and no
local. The holder is `static` when its host class is top-level or
`static`, since Java before 16 allows no static member in an inner,
anonymous or local class. In an interface it is a plain member class,
which is implicitly public and static, as no interface member may be
private. Its name is no name in the host's scope
(`javautil.names_in_scope`).
"""

from __future__ import annotations

from ..java.parser import Node, SyntaxTree
from ..spans import Edit, SourceSpan
from .base import RuleId, RuleResult
from .javautil import (
    SHARED_LINE,
    cannot_declare,
    declared_locals,
    declared_static,
    file_eol,
    find_invocations,
    fresh_name,
    has_signature,
    initialized_local,
    insert_lines,
    line_indent,
    methods_of,
    names_in_scope,
    own_line_start,
    reindent,
)

HOLDER_BASE_NAME = "ViewHolderItem"
HOLDER_VAR = "viewHolderItem"
READS_CACHED = (
    "a lookup reads an earlier cached view, which the holder block would read before declaring it"
)
PER_ROW = (
    "a lookup that is not on the row view, or that names a parameter or local,"
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
        if any(
            inv.name == "inflate"
            for inv in find_invocations(tree.tokens, stmt.tok_lo + 2, stmt.tok_hi)
        ):
            return stmt
    return None


def _collect_cached_views(
    tree: SyntaxTree, body: Node, after: Node
) -> list[tuple[Node, dict]]:
    """Contiguous run of findViewById-initialized locals following ``after``,
    as (statement, declarator) pairs."""
    stmts = body.children
    idx = stmts.index(after)
    cached: list[tuple[Node, dict]] = []
    for stmt in stmts[idx + 1 :]:
        decl = initialized_local(stmt)
        if decl is None or not any(
            inv.name == "findViewById"
            for inv in find_invocations(tree.tokens, *decl["init"])
        ):
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
    tree: SyntaxTree, method: Node, cached: list[tuple[Node, dict]], convert_view: str
) -> bool:
    """True if a lookup may find another view when the row is reused: its
    `findViewById` is not called on ``convert_view``, or its initializer
    names another parameter or a local of ``method``."""
    values = tree.tokens.values
    names = declared_locals(method) - {convert_view}
    for _, decl in cached:
        lo, hi = decl["init"]
        if any(
            inv.name == "findViewById" and inv.receiver != convert_view
            for inv in find_invocations(tree.tokens, lo, hi)
        ) or any(values[j] in names and values[j - 1] != "." for j in range(lo, hi)):
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
        cached = _collect_cached_views(tree, body, assign)
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
        static = interface or owner in tree.root.children or declared_static(tree, owner)
        types = [stmt.props["type"] for stmt, _ in cached]
        reason = (
            cannot_declare(tree, method, types, static=static)
            or (READS_CACHED if _reads_cached(toks.values, cached) else "")
            or (PER_ROW if _differs_per_row(tree, method, cached, convert_view) else "")
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
