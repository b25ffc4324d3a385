"""Recycle rule: release pooled resources obtained from known factories.

TypedArray, MotionEvent, VelocityTracker, Parcel and Cursor objects are
backed by shared resources and must be handed back (recycle()/close()).
The rule finds locals initialized from the known factory calls with no
textual release in the enclosing method and appends a null-guarded release
at the end of the variable's block, or before the block's last statement if
that statement leaves the block (return, throw, break, continue). Escaping
resources (returned, aliased, or passed onward), resources that such a
trailing return or throw still uses, resources that an earlier exit
could leave unreleased, and blocks that end in an endless loop are
reported but never rewritten.
"""

from __future__ import annotations

from typing import Optional

from ..java.parser import Node, SyntaxTree
from .base import RuleId, RuleResult
from .javautil import (
    ENDLESS_LOOP,
    SHARED_LINE,
    base_type_name,
    ends_in_endless_loop,
    find_invocations,
    indent_unit,
    initialized_local,
    insert_lines,
    line_indent,
    methods_of,
    own_line_start,
    uses,
)


class ResourceFactory:
    """A factory call whose result must be explicitly released."""

    __slots__ = ("method", "release", "receivers", "declared_type")

    def __init__(
        self,
        method: str,
        release: str,
        receivers: Optional[frozenset[str]] = None,
        declared_type: Optional[str] = None,
    ):
        self.method = method
        self.release = release  # name of the release method
        self.receivers = receivers  # required receiver, if any
        self.declared_type = declared_type  # required local type, if any


DEFAULT_FACTORIES: tuple[ResourceFactory, ...] = (
    ResourceFactory("obtainStyledAttributes", "recycle"),
    ResourceFactory(
        "obtain",
        "recycle",
        receivers=frozenset({"MotionEvent", "VelocityTracker", "Parcel"}),
    ),
    ResourceFactory("query", "close", declared_type="Cursor"),
    ResourceFactory("rawQuery", "close", declared_type="Cursor"),
)


def _match_factory(
    inv_name: str, receiver: Optional[str], declared_type: str
) -> Optional[ResourceFactory]:
    for f in DEFAULT_FACTORIES:
        if f.method != inv_name:
            continue
        if f.receivers is not None and receiver not in f.receivers:
            continue
        if f.declared_type is not None and declared_type != f.declared_type:
            continue
        return f
    return None


def _released_in_method(tree: SyntaxTree, method: Node, name: str, release: str) -> bool:
    body = method.props["body"]
    toks = tree.tokens
    return any(
        toks[j + 1].is_op(".")
        and toks[j + 2].kind == "ident"
        and toks[j + 2].value == release
        for j in uses(tree, body.tok_lo, body.tok_hi - 2, name)
    )


def _escapes(tree: SyntaxTree, method: Node, decl: Node, name: str) -> bool:
    """Conservative: returned, reassigned, aliased, or passed as argument."""
    body = method.props["body"]
    toks = tree.tokens
    for j in uses(tree, decl.tok_hi, body.tok_hi, name):
        nxt = toks[j + 1] if j + 1 < body.tok_hi else None
        prev = toks[j - 1]
        if nxt is not None and nxt.is_op("."):
            continue  # member access on the resource is fine
        if prev.is_kw("return"):
            return True
        if prev.kind == "op" and prev.value in ("(", ","):
            return True  # passed to another method
        if nxt is not None and nxt.kind == "op" and nxt.value == "=":
            return True  # reassigned before release
        if prev.kind == "op" and prev.value == "=":
            return True  # aliased or stored
    return False


# A release must run before a block's last statement if that statement leaves
# the block: code after it is unreachable, which javac rejects.
_EXIT_KEYWORDS = frozenset(("return", "throw", "break", "continue"))
_ABRUPT_EXITS = frozenset(f"{k}_statement" for k in _EXIT_KEYWORDS)


def _exit_uses(tree: SyntaxTree, exit_stmt: Node, name: str) -> bool:
    """True if ``exit_stmt`` is a `return` or `throw` whose expression uses
    ``name``: a release inserted before it would close a resource in use."""
    if exit_stmt.kind not in ("return_statement", "throw_statement"):
        return False
    return any(uses(tree, exit_stmt.tok_lo + 1, exit_stmt.tok_hi, name))


def _exits_before(tree: SyntaxTree, decl: Node, end: int) -> bool:
    """True if a return, throw, break or continue token lies between ``decl``
    and token ``end``, where the release goes: that exit could skip it.
    Tokens, not nodes, are scanned, since switch bodies stay token runs."""
    return any(
        t.kind == "keyword" and t.value in _EXIT_KEYWORDS
        for t in tree.tokens[decl.tok_hi : end]
    )


def apply_recycle(tree: SyntaxTree, path: str = "") -> RuleResult:
    result = RuleResult()
    data = tree.data

    for _, method in methods_of(tree):
        body = method.props["body"]
        for block in body.walk():
            if block.kind != "block":
                continue
            stmts = block.children
            exit_stmt = stmts[-1] if stmts and stmts[-1].kind in _ABRUPT_EXITS else None
            for stmt in stmts:
                decl = initialized_local(stmt)
                if decl is None:
                    continue
                init_lo, init_hi = decl["init"]
                declared_type = base_type_name(stmt.props["type"])
                factory = None
                anchor = None
                for inv in find_invocations(tree.tokens, init_lo, init_hi):
                    factory = _match_factory(inv.name, inv.receiver, declared_type)
                    if factory is not None:
                        anchor = inv.span
                        break
                if factory is None:
                    continue
                name = decl["name"]
                if _released_in_method(tree, method, name, factory.release):
                    continue
                # the release goes before the trailing exit, else before `}`
                end = exit_stmt.tok_lo if exit_stmt is not None else block.tok_hi - 1
                insert_at = own_line_start(data, tree.tokens[end].start)
                if _escapes(tree, method, stmt, name):
                    reason = "it escapes the method"
                elif exit_stmt is not None and _exit_uses(tree, exit_stmt, name):
                    reason = "the block's last statement still uses it"
                elif exit_stmt is None and ends_in_endless_loop(tree.tokens, block):
                    reason = ENDLESS_LOOP
                elif _exits_before(tree, stmt, end):
                    reason = "an earlier exit from the block would skip the release"
                elif insert_at is None:
                    reason = SHARED_LINE
                else:
                    reason = ""
                message = (
                    f"'{name}' ({declared_type}) is obtained but never "
                    f"released with {factory.release}()"
                )
                if not result.report(RuleId.RECYCLE, path, anchor, message, reason):
                    continue

                si = line_indent(data, tree.span_of(stmt).start)
                unit = indent_unit(data).decode()
                lines = [
                    f"{si}if ({name} != null) {{",
                    f"{si}{unit}{name}.{factory.release}();",
                    f"{si}}}",
                ]
                result.edits.append(insert_lines(data, insert_at, lines))

    return result
