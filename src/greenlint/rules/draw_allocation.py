"""DrawAllocation rule: hoist invariant allocations out of onDraw.

Only allocations whose constructor arguments cannot change between draw
passes are touched: literals, `final` fields of the enclosing class declared
with an initializer above onDraw, and class-qualified constants. Anything
referencing an onDraw parameter or local, a field's members or elements, or
involving a call, disqualifies the allocation, and so does a later `.`
after the local, unless it calls a `set*` method with such arguments: once
hoisted, the object keeps any change from one draw to the next. Missing
those dynamic cases is accepted by design.
"""

from __future__ import annotations

from itertools import takewhile

from ..java.lexer import Token
from ..java.parser import Node, SyntaxTree
from ..spans import Edit
from .base import RuleId, RuleResult
from .javautil import (
    SHARED_LINE,
    declared_locals,
    find_creations,
    has_signature,
    initialized_local,
    insert_lines,
    line_indent,
    member_names,
    methods_of,
    own_line_start,
    reindent,
    split_args,
    uses,
)


def _args_are_invariant(
    tokens: list[Token],
    args: tuple[tuple[int, int], ...],
    fields: set[str],
    locals_: set[str],
) -> bool:
    for lo, hi in args:
        for j in range(lo, hi):
            t = tokens[j]
            if t.is_kw("new"):
                return False
            if t.kind == "keyword" and t.value in ("this", "super"):
                return False
            if t.kind != "ident":
                continue
            if t.value in ("null", "true", "false"):
                continue
            if j + 1 < hi and tokens[j + 1].is_op("("):
                return False  # call: value may vary between iterations
            if j > lo and tokens[j - 1].is_op("."):
                continue  # later segment of a qualified name
            if t.value in locals_:
                return False
            nxt = tokens[j + 1].value if j + 1 < hi else ""
            if nxt == "." and t.value[:1].isupper():
                continue  # class-qualified constant, e.g. Color.RED
            if t.value not in fields or nxt in (".", "["):
                return False  # a final field's object or array may still change
    return True


def _final_fields(tokens: list[Token], members: list[Node]) -> set[str]:
    """The fields among ``members`` declared `final` with an initializer (a
    blank final may be read before a constructor sets it), found by the
    tokens before each declaration's first name: nodes keep no modifiers."""
    names: set[str] = set()
    for member in members:
        if member.kind != "field_declaration":
            continue
        decls = member.props["declarators"]
        first = decls[0]["name_span"].start
        head = takewhile(lambda t: t.start < first, tokens[member.tok_lo : member.tok_hi])
        if any(t.is_kw("final") for t in head):
            names.update(d["name"] for d in decls if d["init"] != (None, None))
    return names


def _changed_elsewhere(
    tree: SyntaxTree, method: Node, decl: Node, name: str, fields: set[str], locals_: set[str]
) -> bool:
    """True if the method assigns the local ``name`` outside ``decl``, or
    follows it with a `.` that does not call a `set*` method with invariant
    arguments."""
    body = method.props["body"]
    toks = tree.tokens
    for j in uses(tree, body.tok_lo, body.tok_hi, name):
        if decl.tok_lo <= j < decl.tok_hi:
            continue
        nxt = toks[j + 1]
        if nxt.kind == "op" and nxt.value in (
            "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
        ):
            return True
        prev = toks[j - 1]
        if prev.kind == "op" and prev.value in ("++", "--"):
            return True
        if nxt.is_op("."):
            member, call = toks[j + 2], toks[j + 3]
            if not (member.value.startswith("set") and call.is_op("(")):
                return True
            args, _ = split_args(toks, j + 3)
            if not _args_are_invariant(toks, args, fields, locals_):
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
        fields = _final_fields(tree.tokens, above)
        locals_ = declared_locals(method)
        members = member_names(owner)

        for stmt in body.children:
            decl = initialized_local(stmt)
            if decl is None:
                continue
            init_lo, init_hi = decl["init"]
            creations = list(find_creations(tree.tokens, init_lo, init_hi))
            if len(creations) != 1:
                continue
            creation = creations[0]
            # initializer must be exactly the allocation, nothing around it
            if (
                creation.new_index != init_lo
                or creation.span.end != tree.tokens[init_hi - 1].end
                or creation.has_body
            ):
                continue
            if not _args_are_invariant(tree.tokens, creation.args, fields, locals_):
                continue
            name = decl["name"]
            if name in members:
                continue  # hoisting would collide with an existing member
            if _changed_elsewhere(tree, method, stmt, name, fields, locals_):
                continue

            # field declaration immediately above onDraw
            method_start = tree.span_of(method).start
            insert_at = own_line_start(data, method_start)
            reason = SHARED_LINE if insert_at is None else ""
            message = (
                f"allocation of {creation.type_name} inside onDraw() runs "
                "on every draw pass; hoist it to a field"
            )
            span = creation.span
            if not result.report(RuleId.DRAW_ALLOCATION, path, span, message, reason):
                continue

            mi = line_indent(data, method_start)
            stmt_span = tree.span_of(stmt)
            si = line_indent(data, stmt_span.start)
            field_lines = reindent(mi + tree.text_of(stmt_span), si, mi)
            result.edits.append(insert_lines(data, insert_at, field_lines))

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
