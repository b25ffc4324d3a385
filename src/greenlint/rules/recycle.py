"""Recycle rule: release pooled resources obtained from known factories.

TypedArray, MotionEvent, VelocityTracker, Parcel and Cursor objects are
backed by shared resources and must be handed back (recycle()/close()).
The rule finds locals whose initializer's value is a known factory call
(the call itself, inside parentheses and casts, or either arm of a
top-level `?:`), with no textual release in the enclosing method, and
appends a null-guarded release at the end of the variable's block, or
before the block's last statement if that statement leaves the block
(return, throw, break, continue). Locals whose type may not be the
resource's (declared otherwise, or `var` with a cast or a `?:`), escaping
resources (returned, aliased, or passed onward), resources that such a
trailing return or throw still uses, resources that an earlier exit
could leave unreleased, and blocks that end in an endless loop are
reported but never rewritten. A method whose body tokens hold no factory
name is skipped before its blocks are walked: a factory call's name token
lies in the body of the method that declares its local.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..java.parser import Node, SyntaxTree
from .base import RuleId, RuleResult
from .javautil import (
    OWNER_KINDS,
    base_type_name,
    file_indent,
    guarded_release,
    initialized_local,
    insert_lines,
    line_indent,
    methods_of,
    release_point,
    uses,
)


class ResourceFactory:
    """A factory call whose result must be explicitly released."""

    __slots__ = ("method", "release", "returns", "receivers", "declared_type")

    def __init__(
        self,
        method: str,
        release: str,
        returns: Optional[str] = None,
        receivers: Optional[frozenset[str]] = None,
        declared_type: Optional[str] = None,
    ):
        self.method = method
        self.release = release  # name of the release method
        # the result's type; None where it is the receiver's
        self.returns = returns or declared_type
        self.receivers = receivers  # required receiver, if any
        self.declared_type = declared_type  # required local type, if any


DEFAULT_FACTORIES: tuple[ResourceFactory, ...] = (
    ResourceFactory("obtainStyledAttributes", "recycle", "TypedArray"),
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


def _source(decl: dict, declared_type: str) -> Optional[tuple[ResourceFactory, Node, bool]]:
    """The factory call that is the value of the initializer of the
    declarator ``decl``, or of an arm of its top-level `?:`, once
    parentheses and casts are stripped (its ``value``, see the parser); and
    whether it is the initializer itself with only parentheses stripped. A
    call in a lambda, an argument or a receiver is not the local's value."""
    for call, cast in decl["value"]:
        if call is not None and call.kind == "call":
            factory = _match_factory(call.props["name"], call.props["receiver"], declared_type)
            if factory is not None:
                return factory, call, len(decl["value"]) == 1 and not cast
    return None


def _released_in_method(tree: SyntaxTree, method: Node, name: str, release: str) -> bool:
    body = method.props["body"]
    values = tree.tokens.values
    return any(
        values[j + 1] == "." and values[j + 2] == release
        for j in uses(tree, body.tok_lo, body.tok_hi - 2, name)
    )


def _escapes(tree: SyntaxTree, method: Node, decl: Node, name: str) -> bool:
    """Conservative: returned, reassigned, aliased, or passed as argument."""
    body = method.props["body"]
    values = tree.tokens.values
    for j in uses(tree, decl.tok_hi, body.tok_hi, name):
        nxt = values[j + 1] if j + 1 < body.tok_hi else None
        prev = values[j - 1]
        if nxt == ".":
            continue  # member access on the resource is fine
        if prev == "return":
            return True
        if prev in ("(", ","):
            return True  # passed to another method
        if nxt == "=":
            return True  # reassigned before release
        if prev == "=":
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
    names = {f.method for f in DEFAULT_FACTORIES}

    for _, method in methods_of(tree):
        body = method.props["body"]
        if names.isdisjoint(tree.tokens.values[body.tok_lo : body.tok_hi]):
            continue
        for block in _blocks(body):
            for stmt in block.children:
                decl = initialized_local(stmt)
                if decl is None:
                    continue
                declared_type = base_type_name(stmt.props["type"])
                source = _source(decl, declared_type)
                if source is None:
                    continue
                factory, call, bare = source
                resource = factory.returns or call.props["receiver"]
                name = decl["name"]
                if _released_in_method(tree, method, name, factory.release):
                    continue
                # the block may be a loop body, which break and continue leave
                exits = ("return", "throw", "break", "continue")
                exit_stmt, insert_at, reason = release_point(
                    tree, block, stmt.tok_hi, exits, "the block"
                )
                if declared_type != resource and not (declared_type == "var" and bare):
                    reason = f"its type is not known to be {resource}"
                elif _escapes(tree, method, stmt, name):
                    reason = "it escapes the method"
                elif exit_stmt is not None and _exit_uses(tree, exit_stmt, name):
                    reason = "the block's last statement still uses it"
                message = (
                    f"'{name}' ({declared_type}) is obtained but never "
                    f"released with {factory.release}()"
                )
                if not result.report(RuleId.RECYCLE, path, tree.span_of(call), message, reason):
                    continue

                si = line_indent(data, tree.span_of(stmt).start)
                release = f"{name}.{factory.release}()"
                lines = guarded_release(si, file_indent(tree), f"{name} != null", release)
                result.edits.append(insert_lines(tree, insert_at, lines))

    return result
