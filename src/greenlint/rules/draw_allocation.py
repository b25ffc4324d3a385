"""DrawAllocation rule: hoist invariant allocations out of onDraw.

Only allocations whose constructor arguments cannot change between draw
passes are touched: literals, `final` fields of the enclosing class declared
with an initializer above onDraw, and class-qualified constants. Anything
referencing an onDraw parameter or local, a field's members or elements, or
involving a call, disqualifies the allocation, and so does any later use
of the local but as a whole argument of a `draw*` call on the Canvas or as
the receiver of a `set*` call with such arguments: once hoisted, the object
keeps any change from one draw to the next, and a call it is passed to, or
an alias, may change it. Missing those dynamic cases is accepted by design.
"""

from __future__ import annotations

from ..java.lexer import Tokens
from ..java.parser import Node, SyntaxTree
from ..spans import Edit
from .base import RuleId, RuleResult
from .javautil import (
    SHARED_LINE,
    calls,
    cannot_declare,
    declared_locals,
    has_signature,
    initialized_local,
    insert_lines,
    line_indent,
    methods_of,
    names_in_scope,
    own_line_start,
    reindent,
    uses,
)


def _args_are_invariant(tokens: Tokens, node: Node, fields: set[str], locals_: set[str]) -> bool:
    """True if the arguments of the call or creation ``node`` cannot change
    between draw passes. One that holds a call may: its value may vary."""
    if node.children:
        return False
    kinds, values = tokens.kinds, tokens.values
    for lo, hi in node.props["args"]:
        for j in range(lo, hi):
            v = values[j]
            if v in ("new", "this", "super"):
                return False
            if kinds[j] != "ident":
                continue
            if v in ("null", "true", "false"):
                continue
            if j > lo and values[j - 1] == ".":
                continue  # later segment of a qualified name
            if v in locals_:
                return False
            nxt = values[j + 1] if j + 1 < hi else ""
            if nxt == "." and v[:1].isupper():
                continue  # class-qualified constant, e.g. Color.RED
            if v not in fields or nxt in (".", "["):
                return False  # a final field's object or array may still change
    return True


def _final_fields(members: list[Node]) -> set[str]:
    """The fields among ``members`` declared `final` with an initializer (a
    blank final may be read before a constructor sets it)."""
    names: set[str] = set()
    for member in members:
        if member.kind == "field_declaration" and "final" in member.props["modifiers"]:
            decls = member.props["declarators"]
            names.update(d["name"] for d in decls if d["init"] != (None, None))
    return names


def _drawn(body: Node, canvas: str) -> set[int]:
    """Indices of the tokens in ``body`` that are a whole argument of a
    `canvas.draw*(...)` call: Canvas's draw methods only read them."""
    return {
        a
        for call in calls(body)
        if call.props["receiver"] == canvas and call.props["name"].startswith("draw")
        for a, b in call.props["args"]
        if b - a == 1
    }


def _changed_elsewhere(
    tree: SyntaxTree, method: Node, decl: Node, name: str, fields: set[str], locals_: set[str]
) -> bool:
    """True if the method uses the local ``name`` outside ``decl`` other
    than as a whole argument of a `draw*` call on onDraw's Canvas or as the
    receiver of a `set*` call with invariant arguments: any other use may
    change it, or hand it to code that does, as `m.mapRect(r)` or
    `Rect a = r;` do."""
    body = method.props["body"]
    drawn = _drawn(body, method.props["params"][0][1])
    # the `set*` calls on the local, by the index of the receiver
    setters = {
        call.tok_lo: call
        for call in calls(body)
        if call.props["receiver"] == name and call.props["name"].startswith("set")
    }
    for j in uses(tree, body.tok_lo, body.tok_hi, name):
        if decl.tok_lo <= j < decl.tok_hi or j in drawn:
            continue
        setter = setters.get(j)
        if setter is None or not _args_are_invariant(tree.tokens, setter, fields, locals_):
            return True
    return False


def apply_draw_allocation(tree: SyntaxTree, path: str = "") -> RuleResult:
    result = RuleResult()
    data = tree.data

    for owner, method in methods_of(tree):
        if not has_signature(method, "onDraw", ("Canvas",)):
            continue
        body = method.props["body"]
        # The field is hoisted just above onDraw, where reading a field
        # declared below it is an illegal forward reference.
        above = owner.children[: owner.children.index(method)]
        fields = _final_fields(above)
        locals_ = declared_locals(method)

        for stmt in body.children:
            decl = initialized_local(stmt)
            if decl is None:
                continue
            creations = list(calls(stmt, "creation"))
            if len(creations) != 1:
                continue
            creation = creations[0]
            # initializer must be exactly the allocation, nothing around it
            if (creation.tok_lo, creation.tok_hi) != decl["init"] or creation.props["body"]:
                continue
            if not _args_are_invariant(tree.tokens, creation, fields, locals_):
                continue
            name = decl["name"]
            if name in names_in_scope(tree, owner):
                continue  # the field would clash with or hide a name in scope
            if _changed_elsewhere(tree, method, stmt, name, fields, locals_):
                continue

            # field declaration immediately above onDraw
            method_start = tree.span_of(method).start
            insert_at = own_line_start(data, method_start)
            reason = cannot_declare(tree, method, [stmt.props["type"]], static=False) or (
                SHARED_LINE if insert_at is None else ""
            )
            message = (
                f"allocation of {creation.props['type']} inside onDraw() runs "
                "on every draw pass; hoist it to a field"
            )
            span = tree.span_of(creation)
            if not result.report(RuleId.DRAW_ALLOCATION, path, span, message, reason):
                continue

            mi = line_indent(data, method_start)
            stmt_span = tree.span_of(stmt)
            si = line_indent(data, stmt_span.start)
            field_lines = reindent(mi + tree.text_of(stmt_span), si, mi)
            result.edits.append(insert_lines(tree, insert_at, field_lines))

            # remove the local declaration, taking its whole line when the
            # statement is alone on it
            del_start = stmt_span.start
            del_end = stmt_span.end
            ls = own_line_start(data, del_start)
            nl = data.find(b"\n", del_end)
            line_tail = data[del_end : nl if nl >= 0 else len(data)]
            if ls is not None and line_tail.strip() == b"":
                del_start = ls
                if nl >= 0:
                    del_end = nl + 1
            result.edits.append(Edit.delete(del_start, del_end))

    return result
