"""ViewHolder rule: cache per-row view lookups in list adapter getView.

Detects getView(int, View, ViewGroup) implementations that re-inflate the
row layout and re-run findViewById on every call, and rewrites them to the
tag-cached holder form: lookups run once per row layout, cached in a
private static holder class stashed on the view via setTag/getTag.
"""

from __future__ import annotations

from ..java.parser import Node, SyntaxTree
from ..spans import Edit, SourceSpan
from .base import Finding, RuleId, RuleResult
from .javautil import (
    SHARED_LINE,
    base_type_name,
    declined,
    dominant_eol,
    find_invocations,
    line_indent,
    member_names,
    methods_of,
    own_line_start,
    reindent,
    single_declarator,
)

HOLDER_BASE_NAME = "ViewHolderItem"
HOLDER_VAR = "viewHolderItem"


class _CachedView:
    __slots__ = ("decl", "name", "type_text", "head_text", "init_text")

    def __init__(
        self, decl: Node, name: str, type_text: str, head_text: str, init_text: str
    ):
        self.decl = decl
        self.name = name
        self.type_text = type_text
        self.head_text = head_text  # e.g. "final TextView t" (modifiers + type + name)
        self.init_text = init_text


def _is_get_view(method: Node) -> bool:
    if method.props["name"] != "getView":
        return False
    params = method.props["params"]
    if len(params) != 3:
        return False
    types = [base_type_name(t) for t, _ in params]
    return types == ["int", "View", "ViewGroup"]


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
) -> list[_CachedView]:
    """Contiguous run of findViewById-initialized locals following ``after``."""
    stmts = body.children
    idx = stmts.index(after)
    cached: list[_CachedView] = []
    for stmt in stmts[idx + 1 :]:
        if stmt.kind != "local_variable_declaration":
            break
        decl = single_declarator(stmt)
        if decl is None or decl["init"] == (None, None):
            break
        init_lo, init_hi = decl["init"]
        if not any(
            inv.name == "findViewById"
            for inv in find_invocations(tree.tokens, init_lo, init_hi)
        ):
            break
        head_span = SourceSpan(tree.span_of(stmt).start, decl["name_span"].end)
        init_span = SourceSpan(
            tree.tokens[init_lo].start, tree.tokens[init_hi - 1].end
        )
        cached.append(
            _CachedView(
                stmt,
                decl["name"],
                stmt.props["type"],
                tree.text_of(head_span),
                tree.text_of(init_span),
            )
        )
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
    eol = dominant_eol(data).decode()
    taken_per_owner: dict[Node, set[str]] = {}

    for owner, method in methods_of(tree):
        if not _is_get_view(method):
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
        result.findings.append(
            Finding(
                rule=RuleId.VIEW_HOLDER,
                file=path,
                span=method.props["name_span"],
                message=declined(message, reason),
                fixable=not reason,
            )
        )
        if reason:
            continue

        taken = taken_per_owner.setdefault(owner, member_names(owner))
        holder = _holder_name(taken)
        taken.add(holder)

        mi = line_indent(data, method_start).decode()
        si = line_indent(data, stmt_start).decode()
        unit = si[len(mi) :] if si.startswith(mi) and len(si) > len(mi) else "    "

        # nested holder class inserted right above the method
        holder_lines = [f"{mi}private static class {holder} {{"]
        for view in cached:
            holder_lines.append(f"{mi}{unit}private {view.type_text} {view.name};")
        holder_lines.append(f"{mi}}}")
        holder_text = eol.join(holder_lines) + eol + eol
        result.edits.add(Edit.insert(holder_at, holder_text.encode()))

        # rebuild the inflate + lookup block as the null-guarded holder block
        assign_text = reindent(tree.text_of(assign), si, si + unit, eol)
        lines = [
            f"{si}{holder} {HOLDER_VAR};",
            f"{si}if ({convert_view} == null) {{",
            f"{si}{unit}{assign_text}",
            f"{si}{unit}{HOLDER_VAR} = new {holder}();",
        ]
        for view in cached:
            init = reindent(view.init_text, si, si + unit, eol)
            lines.append(f"{si}{unit}{HOLDER_VAR}.{view.name} = {init};")
        lines.append(f"{si}{unit}{convert_view}.setTag({HOLDER_VAR});")
        lines.append(f"{si}}} else {{")
        lines.append(f"{si}{unit}{HOLDER_VAR} = ({holder}) {convert_view}.getTag();")
        lines.append(f"{si}}}")
        for view in cached:
            head = reindent(view.head_text, si, si, eol)
            lines.append(f"{si}{head} = {HOLDER_VAR}.{view.name};")
        block_text = eol.join(lines)

        region_end = tree.span_of(cached[-1].decl).end
        result.edits.add(Edit.replace(region_start, region_end, block_text.encode()))

    return result
