"""ViewHolder rule: cache per-row view lookups in list adapter getView.

Detects getView(int, View, ViewGroup) implementations that re-inflate the
row layout and re-run findViewById on every call, and rewrites them to the
tag-cached holder form: lookups run once per row layout, cached in a
private static holder class stashed on the view via setTag/getTag.
"""

from __future__ import annotations

from ..java.parser import Node, SyntaxTree
from ..spans import Edit
from .base import RuleId, RuleResult
from .javautil import (
    SHARED_LINE,
    dominant_eol,
    find_invocations,
    has_signature,
    initialized_local,
    insert_lines,
    line_indent,
    member_names,
    methods_of,
    own_line_start,
    reindent,
)

HOLDER_BASE_NAME = "ViewHolderItem"
HOLDER_VAR = "viewHolderItem"


def _already_optimized(tree: SyntaxTree, body: Node, convert_view: str) -> bool:
    for n in body.walk():
        if n.kind != "if_statement":
            continue
        lo, hi = n.props["cond"]
        values = [t.value for t in tree.tokens[lo:hi]]
        if convert_view in values and "==" in values and "null" in values:
            return True
    return False


def _find_inflate_assignment(tree: SyntaxTree, body: Node, convert_view: str):
    for stmt in body.children:
        if stmt.kind != "expression_statement":
            continue
        toks = tree.tokens[stmt.tok_lo : stmt.tok_hi]
        if len(toks) < 3:
            continue
        if not (toks[0].kind == "ident" and toks[0].value == convert_view):
            continue
        if not toks[1].is_op("="):
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


def _holder_name(taken: set[str]) -> str:
    if HOLDER_BASE_NAME not in taken:
        return HOLDER_BASE_NAME
    n = 2
    while f"{HOLDER_BASE_NAME}{n}" in taken:
        n += 1
    return f"{HOLDER_BASE_NAME}{n}"


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
        reason = "" if fits else SHARED_LINE
        message = (
            "getView() inflates its row layout and calls findViewById() "
            "on every call; cache the looked-up views in a holder"
        )
        span = method.props["name_span"]
        if not result.report(RuleId.VIEW_HOLDER, path, span, message, reason):
            continue

        taken = taken_per_owner.setdefault(owner, member_names(owner))
        holder = _holder_name(taken)
        taken.add(holder)

        mi = line_indent(data, method_start)
        si = line_indent(data, stmt_start)
        unit = si[len(mi) :] if si.startswith(mi) and len(si) > len(mi) else "    "
        inner = si + unit

        # nested holder class inserted right above the method, then a blank line
        holder_lines = [f"{mi}private static class {holder} {{"]
        for stmt, decl in cached:
            field = f"private {stmt.props['type']} {decl['name']};"
            holder_lines.append(f"{mi}{unit}{field}")
        holder_lines += [f"{mi}}}", ""]
        result.edits.append(insert_lines(data, holder_at, holder_lines))

        # rebuild the inflate + lookup block as the null-guarded holder block;
        # reindent leaves a text's first line alone, so it takes the prefix
        lines = [
            f"{si}{holder} {HOLDER_VAR};",
            f"{si}if ({convert_view} == null) {{",
            *reindent(inner + tree.text_of(assign), si, inner),
            f"{inner}{HOLDER_VAR} = new {holder}();",
        ]
        for _, decl in cached:
            lo, hi = decl["init"]
            init = data[toks[lo].start : toks[hi - 1].end].decode()
            assignment = f"{inner}{HOLDER_VAR}.{decl['name']} = {init};"
            lines += reindent(assignment, si, inner)
        lines.append(f"{inner}{convert_view}.setTag({HOLDER_VAR});")
        lines.append(f"{si}}} else {{")
        lines.append(f"{inner}{HOLDER_VAR} = ({holder}) {convert_view}.getTag();")
        lines.append(f"{si}}}")
        for stmt, decl in cached:
            # modifiers, type and name, e.g. "final TextView t"
            head = data[tree.span_of(stmt).start : decl["name_span"].end].decode()
            lines += reindent(f"{si}{head} = {HOLDER_VAR}.{decl['name']};", si, si)
        block_text = dominant_eol(data).decode().join(lines)

        region_end = tree.span_of(cached[-1][0]).end
        result.edits.append(Edit.replace(region_start, region_end, block_text.encode()))

    return result
