"""Recycle rule: release pooled resources obtained from known factories.

TypedArray, MotionEvent, VelocityTracker, Parcel and Cursor objects are
backed by shared resources and must be handed back (recycle()/close()).
The rule finds locals initialized from the known factory calls with no
textual release in the enclosing method and appends a null-guarded release
at the end of the variable's block. Escaping resources (returned, aliased,
or passed onward) are reported but never rewritten.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..java.parser import Node, SyntaxTree
from ..spans import Edit
from .base import Finding, RuleId, RuleResult
from .javautil import (
    base_type_name,
    dominant_eol,
    find_invocations,
    indent_unit,
    line_indent,
    line_start,
    methods_of,
    single_declarator,
    statements_of,
)


@dataclass(frozen=True)
class ResourceFactory:
    """A factory call whose result must be explicitly released."""

    method: str
    release: str  # name of the release method
    receivers: Optional[frozenset[str]] = None  # required receiver, if any
    declared_type: Optional[str] = None  # required local type, if any


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
    for j in range(body.tok_lo, body.tok_hi - 2):
        if (
            toks[j].kind == "ident"
            and toks[j].value == name
            and toks[j + 1].is_op(".")
            and toks[j + 2].kind == "ident"
            and toks[j + 2].value == release
        ):
            return True
    return False


def _escapes(tree: SyntaxTree, method: Node, decl: Node, name: str) -> bool:
    """Conservative: returned, reassigned, aliased, or passed as argument."""
    body = method.props["body"]
    toks = tree.tokens
    for j in range(decl.tok_hi, body.tok_hi):
        t = toks[j]
        if t.kind != "ident" or t.value != name:
            continue
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


def _blocks_with_statements(body: Node):
    for n in body.walk():
        if n.kind == "block":
            yield n


def apply_recycle(tree: SyntaxTree, path: str = "") -> RuleResult:
    result = RuleResult()
    data = tree.data
    eol = dominant_eol(data).decode()
    unit = indent_unit(data).decode()

    for _, method in methods_of(tree):
        body = method.props["body"]
        for block in _blocks_with_statements(body):
            for stmt in statements_of(block):
                if stmt.kind != "local_variable_declaration":
                    continue
                decl = single_declarator(stmt)
                if decl is None or decl["init"] == (None, None):
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
                escaped = _escapes(tree, method, stmt, name)
                result.findings.append(
                    Finding(
                        rule=RuleId.RECYCLE,
                        file=path,
                        span=anchor,
                        message=(
                            f"'{name}' ({declared_type}) is obtained but never "
                            f"released with {factory.release}()"
                            + ("" if not escaped else "; it escapes the method, "
                               "so no automatic fix is applied")
                        ),
                        fixable=not escaped,
                    )
                )
                if escaped:
                    continue

                si = line_indent(data, tree.span_of(stmt).start).decode()
                stmts = statements_of(block)
                if stmts and stmts[-1].kind == "return_statement":
                    insert_at = line_start(data, tree.span_of(stmts[-1]).start)
                else:
                    insert_at = line_start(data, block.props["rbrace"])
                lines = [
                    f"{si}if ({name} != null) {{",
                    f"{si}{unit}{name}.{factory.release}();",
                    f"{si}}}",
                ]
                text = eol.join(lines) + eol
                result.edits.add(Edit.insert(insert_at, text.encode()))

    return result
