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

from typing import Iterator, Optional

from ..java.lexer import Token
from ..java.parser import Node, SyntaxTree, match_group
from ..spans import SourceSpan
from .base import RuleId, RuleResult
from .javautil import (
    OWNER_KINDS,
    base_type_name,
    find_invocations,
    guarded_release,
    indent_unit,
    initialized_local,
    insert_lines,
    line_indent,
    methods_of,
    release_point,
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


def _source(
    tokens: list[Token], lo: int, hi: int, declared_type: str
) -> Optional[tuple[ResourceFactory, SourceSpan]]:
    """The first factory call in the initializer tokens[lo:hi] that starts
    outside every `{}` group, and its span: a call in an anonymous class, a
    lambda body or an array initializer does not give the local its value."""
    braces = [
        range(tokens[j].start, tokens[match_group(tokens, j)[1] - 1].end)
        for j in range(lo, hi)
        if tokens[j].is_op("{")
    ]
    for inv in find_invocations(tokens, lo, hi):
        factory = _match_factory(inv.name, inv.receiver, declared_type)
        if factory is not None and not any(inv.span.start in b for b in braces):
            return factory, inv.span
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


def _exit_uses(tree: SyntaxTree, exit_stmt: Node, name: str) -> bool:
    """True if ``exit_stmt`` is a `return` or `throw` whose expression uses
    ``name``: a release inserted before it would close a resource in use."""
    if exit_stmt.kind not in ("return_statement", "throw_statement"):
        return False
    return any(uses(tree, exit_stmt.tok_lo + 1, exit_stmt.tok_hi, name))


def _blocks(body: Node) -> Iterator[Node]:
    """The blocks under a method body, in preorder, leaving out the bodies of
    the classes declared in it, whose methods ``methods_of`` lists too."""
    stack = [body]
    while stack:
        node = stack.pop()
        if node.kind == "block":
            yield node
        stack += (c for c in reversed(node.children) if c.kind not in OWNER_KINDS)


def apply_recycle(tree: SyntaxTree, path: str = "") -> RuleResult:
    result = RuleResult()
    data = tree.data

    for _, method in methods_of(tree):
        for block in _blocks(method.props["body"]):
            for stmt in block.children:
                decl = initialized_local(stmt)
                if decl is None:
                    continue
                declared_type = base_type_name(stmt.props["type"])
                source = _source(tree.tokens, *decl["init"], declared_type)
                if source is None:
                    continue
                factory, anchor = source
                name = decl["name"]
                if _released_in_method(tree, method, name, factory.release):
                    continue
                # the block may be a loop body, which break and continue leave
                exits = ("return", "throw", "break", "continue")
                exit_stmt, insert_at, reason = release_point(
                    tree, block, stmt.tok_hi, exits, "the block"
                )
                if _escapes(tree, method, stmt, name):
                    reason = "it escapes the method"
                elif exit_stmt is not None and _exit_uses(tree, exit_stmt, name):
                    reason = "the block's last statement still uses it"
                message = (
                    f"'{name}' ({declared_type}) is obtained but never "
                    f"released with {factory.release}()"
                )
                if not result.report(RuleId.RECYCLE, path, anchor, message, reason):
                    continue

                si = line_indent(data, tree.span_of(stmt).start)
                unit = indent_unit(data).decode()
                release = f"{name}.{factory.release}()"
                lines = guarded_release(si, unit, f"{name} != null", release)
                result.edits.append(insert_lines(data, insert_at, lines))

    return result
