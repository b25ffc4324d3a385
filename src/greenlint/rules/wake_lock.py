"""WakeLock rule: ensure an acquired wake lock is released in onPause.

A lock acquired on an Activity field and never released in onPause keeps
the device awake after the app backgrounds. The fix appends an onPause
override (or extends an existing one) with a release guarded by
`wl != null && wl.isHeld()`: releasing a reference-counted lock that is not
held throws, so the release runs only while the lock is held. Findings
come only from `acquire` calls in an activity's lifecycle methods, so an
activity class whose tokens hold no `acquire` is skipped.
"""

from __future__ import annotations

from typing import Optional

from ..java.parser import Node, SyntaxTree
from ..spans import SourceSpan
from .base import Finding, RuleId, RuleResult
from .javautil import (
    SHARED_LINE,
    base_type_name,
    calls,
    class_fields,
    declared_locals,
    file_indent,
    guarded_release,
    insert_lines,
    line_indent,
    methods_of,
    own_line_start,
    release_point,
)

LIFECYCLE_METHODS = frozenset(
    ["onCreate", "onStart", "onResume", "onRestart", "onNewIntent"]
)


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
    values = tree.tokens.values

    # Only a class with a lifecycle method can need a release.
    for owner in dict.fromkeys(owner for owner, _ in methods_of(tree)):
        if not _is_activity_class(owner) or "acquire" not in values[owner.tok_lo : owner.tok_hi]:
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
            for call in calls(method.props["body"]):
                receiver = call.props["receiver"]
                if call.props["name"] != "acquire" or receiver is None:
                    continue
                if receiver in wl_fields and receiver not in locals_:
                    acquisitions.append((receiver, tree.span_of(call)))
                elif _local_wake_lock(method, receiver):
                    local_acquires.append(tree.span_of(call))

        on_pause = _method_named(owner, "onPause")
        pause_body = on_pause.props["body"] if on_pause is not None else None
        exit_stmt = None
        released = set()  # receivers of the release() calls in onPause
        if on_pause is None:  # a new onPause goes before the class's `}`
            insert_at = own_line_start(data, tree.tokens.starts[owner.tok_hi - 1])
            reason = SHARED_LINE if insert_at is None else ""
        elif pause_body is None:
            insert_at, reason = None, "onPause() has no body"
        else:
            exit_stmt, insert_at, reason = release_point(
                tree, pause_body, pause_body.tok_lo, ("return", "throw"), "onPause()"
            )
            released = {
                call.props["receiver"]
                for call in calls(pause_body)
                if call.props["name"] == "release"
            }
        # a release of a name onPause() declares would release that local
        shadows = declared_locals(on_pause) if on_pause is not None else set()
        pending_release: list[str] = []
        for field, span in acquisitions:
            if field in released:
                continue
            message = (
                f"wake lock field '{field}' is acquired but never "
                "released in onPause()"
            )
            why = reason or (f"onPause() declares its own '{field}'" if field in shadows else "")
            fixable = result.report(RuleId.WAKE_LOCK, path, span, message, why)
            if fixable and field not in pending_release:
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

        if not pending_release:
            continue

        unit = file_indent(tree)
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
        elif exit_stmt is not None:
            si = line_indent(data, insert_at)
        elif pause_body.children:
            si = line_indent(data, tree.span_of(pause_body.children[0]).start)
        else:
            si = line_indent(data, tree.span_of(on_pause).start) + unit
        releases: list[str] = []
        for f in pending_release:
            guard = f"{f} != null && {f}.isHeld()"
            releases += guarded_release(si, unit, guard, f"{f}.release()")
        result.edits.append(insert_lines(tree, insert_at, head + releases + tail))

    return result


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
