"""WakeLock rule: ensure an acquired wake lock is released in onPause.

A lock acquired on an Activity field and never released in onPause keeps
the device awake after the app backgrounds. The fix appends an onPause
override (or extends an existing one) with a release guarded by
`wl != null && wl.isHeld()`: releasing a reference-counted lock that is not
held throws, so the release runs only while the lock is held.
"""

from __future__ import annotations

from typing import Optional

from ..java.parser import Node, SyntaxTree
from ..spans import SourceSpan
from .base import Finding, RuleId, RuleResult
from .javautil import (
    ENDLESS_LOOP,
    SHARED_LINE,
    base_type_name,
    class_fields,
    declared_locals,
    ends_in_endless_loop,
    find_invocations,
    indent_unit,
    insert_lines,
    line_indent,
    own_line_start,
)

LIFECYCLE_METHODS = frozenset(
    ["onCreate", "onStart", "onResume", "onRestart", "onNewIntent"]
)

# Code after a trailing return or throw is unreachable, which javac
# rejects, so the releases go before it.
_EXITS = ("return_statement", "throw_statement")


def _is_activity_class(node: Node) -> bool:
    if node.kind != "class_declaration":
        return False
    extends = node.props.get("extends")
    if not extends:
        return False
    return base_type_name(extends).endswith("Activity")


def _wake_lock_fields(owner: Node) -> set[str]:
    return {
        name
        for name, decl in class_fields(owner.children).items()
        if base_type_name(decl.props["type"]) == "WakeLock"
    }


def _method_named(owner: Node, name: str) -> Optional[Node]:
    for child in owner.children:
        if child.kind == "method_declaration" and child.props["name"] == name:
            return child
    return None


def apply_wake_lock(tree: SyntaxTree, path: str = "") -> RuleResult:
    result = RuleResult()
    data = tree.data

    for owner in tree.root.walk():
        if not _is_activity_class(owner):
            continue
        wl_fields = _wake_lock_fields(owner)
        lifecycle = [
            c
            for c in owner.children
            if c.kind == "method_declaration"
            and c.props["name"] in LIFECYCLE_METHODS
            and c.props["body"] is not None
        ]

        acquisitions: list[tuple[str, SourceSpan]] = []  # (field, acquire() call)
        local_acquires: list[SourceSpan] = []
        for method in lifecycle:
            locals_ = declared_locals(method)
            body = method.props["body"]
            for inv in find_invocations(tree.tokens, body.tok_lo, body.tok_hi):
                if inv.name != "acquire" or inv.receiver is None:
                    continue
                if inv.receiver in wl_fields and inv.receiver not in locals_:
                    acquisitions.append((inv.receiver, inv.span))
                elif _local_wake_lock(method, inv.receiver):
                    local_acquires.append(inv.span)

        on_pause = _method_named(owner, "onPause")
        insert_at, reason = _release_point(tree, owner, on_pause)
        pause_body = on_pause.props["body"] if on_pause is not None else None
        released = set()  # receivers of the release() calls in onPause
        if pause_body is not None:
            calls = find_invocations(tree.tokens, pause_body.tok_lo, pause_body.tok_hi)
            released = {inv.receiver for inv in calls if inv.name == "release"}
        pending_release: list[str] = []
        for field, span in acquisitions:
            if field in released:
                continue
            message = (
                f"wake lock field '{field}' is acquired but never "
                "released in onPause()"
            )
            result.report(RuleId.WAKE_LOCK, path, span, message, reason)
            if field not in pending_release:
                pending_release.append(field)
        for span in local_acquires:
            result.findings.append(
                Finding(
                    rule=RuleId.WAKE_LOCK,
                    file=path,
                    span=span,
                    message=(
                        "wake lock held only in a local variable is acquired but "
                        "never released; store it in a field and release it in "
                        "onPause()"
                    ),
                    fixable=False,
                )
            )

        if not pending_release or reason:
            continue

        unit = indent_unit(data).decode()
        head: list[str] = []
        tail: list[str] = []
        if on_pause is None:
            mi = _member_indent(tree, owner, unit)
            si = mi + unit
            head = [
                "",
                f"{mi}@Override",
                f"{mi}protected void onPause() {{",
                f"{si}super.onPause();",
            ]
            tail = [f"{mi}}}"]
        elif pause_body.children and pause_body.children[-1].kind in _EXITS:
            si = line_indent(data, insert_at)
        elif pause_body.children:
            si = line_indent(data, tree.span_of(pause_body.children[0]).start)
        else:
            si = line_indent(data, tree.span_of(on_pause).start) + unit
        releases = [
            line
            for field in pending_release
            for line in (
                f"{si}if ({_guard(field)}) {{",
                f"{si}{unit}{field}.release();",
                f"{si}}}",
            )
        ]
        result.edits.append(insert_lines(data, insert_at, head + releases + tail))

    return result


def _release_point(
    tree: SyntaxTree, owner: Node, on_pause: Optional[Node]
) -> tuple[Optional[int], str]:
    """Where the releases go, or why they cannot: a new onPause goes before
    the class's `}`; releases go before an existing onPause's trailing
    return or throw, else before its `}`, unless an earlier return or
    throw token could skip them or the body ends in an endless loop."""
    if on_pause is None:
        anchor = tree.tokens[owner.tok_hi - 1].start  # the class's `}`
    elif on_pause.props["body"] is None:
        return None, "onPause() has no body"
    else:
        body = on_pause.props["body"]
        end = body.tok_hi - 1  # the `}`
        if body.children and body.children[-1].kind in _EXITS:
            end = body.children[-1].tok_lo
        elif ends_in_endless_loop(tree.tokens, body):
            return None, ENDLESS_LOOP
        if any(
            t.kind == "keyword" and t.value in ("return", "throw")
            for t in tree.tokens[body.tok_lo : end]
        ):
            return None, "an earlier exit from onPause() would skip the release"
        anchor = tree.tokens[end].start
    insert_at = own_line_start(tree.data, anchor)
    return insert_at, SHARED_LINE if insert_at is None else ""


def _guard(field: str) -> str:
    return f"{field} != null && {field}.isHeld()"


def _local_wake_lock(method: Node, name: str) -> bool:
    for n in method.props["body"].walk():
        if n.kind != "local_variable_declaration":
            continue
        if base_type_name(n.props["type"]) != "WakeLock":
            continue
        if any(d["name"] == name for d in n.props["declarators"]):
            return True
    return False


def _member_indent(tree: SyntaxTree, owner: Node, unit: str) -> str:
    for child in owner.children:
        if child.kind in ("method_declaration", "field_declaration"):
            return line_indent(tree.data, tree.span_of(child).start)
    return line_indent(tree.data, tree.span_of(owner).start) + unit
