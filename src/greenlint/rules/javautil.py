"""Shared node-, token- and text-level helpers for the Java rules.

Rules are purely syntactic. They read calls and class instance creations
from the parser's ``call`` and ``creation`` nodes (`calls`), an
initializer's value from its declarator's ``value``, and the rest of an
expression, such as identifier uses, from its tokens, for conservative
detection.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import chain
from typing import Iterator, Optional

from ..java.lexer import Tokens
from ..java.parser import PRIMITIVE_TYPES, TYPE_DECLS, Node, SyntaxTree
from ..spans import Edit


def dominant_eol(data: bytes) -> bytes:
    crlf = data.count(b"\r\n")
    lf = data.count(b"\n") - crlf
    return b"\r\n" if crlf > lf else b"\n"


def file_eol(tree: SyntaxTree) -> str:
    """The dominant line end of the tree's file, found once per tree."""
    if tree.eol is None:
        tree.eol = dominant_eol(tree.data).decode()
    return tree.eol


def line_start(data: bytes, offset: int) -> int:
    return data.rfind(b"\n", 0, offset) + 1


def own_line_start(data: bytes, offset: int) -> Optional[int]:
    """Start of the line holding ``offset`` if only whitespace precedes
    ``offset`` on that line, else None.

    Rules insert whole lines at a line start, which is right only when the
    anchor begins its line; else the text would land before other code.
    """
    start = line_start(data, offset)
    return start if not data[start:offset].strip() else None


# Why a fix is declined when own_line_start returns None.
SHARED_LINE = "other code shares the line where the fix would go"

_NAME = re.compile(r"[\w$]+")


def cannot_declare(tree: SyntaxTree, method: Node, types: list[str], static: bool) -> str:
    """Why a member that a fix declares in ``method``'s class, `static` if
    ``static``, cannot use the type texts ``types`` of locals moved out of
    ``method``, or "" if it can. A static member sees no type parameter,
    no member sees a type the method declares, and a static method sees no
    instance member."""
    if "var" in types:
        return "the local is declared 'var', which a field cannot be"
    names = set(_NAME.findall(" ".join(types)))
    for node in path_to(tree, method) if static else ():
        if names.intersection(node.props.get("type_params", ())):
            return "the local's type names a type parameter, which a static holder cannot refer to"
    local_types = {n.props["name"] for n in method.props["body"].walk() if n.kind in TYPE_DECLS}
    if names.intersection(local_types.union(method.props["type_params"])):
        return "the local's type is declared in the method, so it is not in scope outside it"
    if not static and "static" in method.props["modifiers"]:
        return "the method is 'static', so it cannot use an instance member the fix declares"
    return ""


def path_to(tree: SyntaxTree, node: Node) -> list[Node]:
    """The nodes from a child of the root down to ``node``, each holding the next."""
    path = [tree.root]
    while path[-1] is not node:
        path.append(next(c for c in path[-1].children if c.tok_lo <= node.tok_lo < c.tok_hi))
    return path[1:]


def fresh_name(base: str, taken: set[str]) -> str:
    """``base``, or else the first of ``base2``, ``base3``, ... not in ``taken``."""
    name, n = base, 1
    while name in taken:
        n += 1
        name = f"{base}{n}"
    return name


def release_point(
    tree: SyntaxTree, block: Node, since: int, exits: tuple[str, ...], where: str
) -> tuple[Optional[Node], Optional[int], str]:
    """Where a release at the end of ``block`` goes, and why it may not.

    Returns the block's trailing exit (a statement of one of the ``exits``
    keywords) or None; the start of the line the release goes on, or None;
    and the reason the release is declined, or "". Code after a trailing
    exit is unreachable, which javac rejects, so the release goes before
    it, else before the block's `}`. It is declined after a loop that may
    never exit, where an exit token between token ``since`` and the release
    could skip it (tokens are scanned, since no node keeps a switch body's
    statements), and where other code shares the line.
    """
    toks = tree.tokens
    last = block.children[-1] if block.children else None
    exit_stmt = last if last and last.kind.removesuffix("_statement") in exits else None
    end = exit_stmt.tok_lo if exit_stmt is not None else block.tok_hi - 1
    insert_at = own_line_start(tree.data, toks.starts[end])
    if exit_stmt is None and _ends_in_endless_loop(toks, block):
        reason = "the block ends in a loop that may never exit"
    elif not set(exits).isdisjoint(toks.values[since:end]):
        reason = f"an earlier exit from {where} would skip the release"
    elif insert_at is None:
        reason = SHARED_LINE
    else:
        reason = ""
    return exit_stmt, insert_at, reason


def guarded_release(indent: str, unit: str, guard: str, call: str) -> list[str]:
    """The lines of `if (guard) { call; }` at ``indent``."""
    return [f"{indent}if ({guard}) {{", f"{indent}{unit}{call};", f"{indent}}}"]


def _ends_in_endless_loop(tokens: Tokens, block: Node) -> bool:
    """True if the last statement of ``block``, under any labels, is a
    `for`, `while` or `do` loop whose condition is missing or could be a
    constant expression, such as `true` or a `static final` flag. When that
    constant is true, a statement after the loop is unreachable unless a
    `break` leaves it; javac rejects unreachable statements, so rules add
    nothing after such a loop."""
    if not block.children:
        return False
    stmt = block.children[-1]
    while stmt.kind == "labeled_statement":
        stmt = stmt.children[0]
    kinds, values = tokens.kinds, tokens.values
    if stmt.kind == "for_statement":
        if not stmt.props["parts"]:
            return False  # an enhanced for
        _, cond, update = stmt.props["parts"]
        # A name the update assigns is a variable, so the condition, which
        # shares its scope, is no constant.
        assigned = {
            values[k]
            for k in range(*update)
            if kinds[k] == "ident"
            and values[k - 1] != "."
            and (values[k - 1] in _STEPS or values[k + 1] in _CHANGES)
        }
        return _could_be_constant(tokens, stmt, *cond, assigned)
    if stmt.kind == "while_statement":
        body = stmt.children[-1]
        return _could_be_constant(tokens, stmt, stmt.tok_lo + 2, body.tok_lo - 1, set())
    if stmt.kind == "do_statement":
        body = stmt.children[0]
        return _could_be_constant(tokens, stmt, body.tok_hi + 2, stmt.tok_hi - 2, set())
    return False


_STEPS = frozenset(("++", "--"))
_CHANGES = _STEPS | frozenset("= += -= *= /= %= &= |= ^= <<=".split())
# Operators no constant expression holds (JLS 15.29); `>>=` lexes as `>`
# then `>=`, which is read as a comparison, so such a loop is declined.
_NOT_CONSTANT = _CHANGES | frozenset(("[", "->", "::"))


def _could_be_constant(tokens: Tokens, loop: Node, lo: int, hi: int, assigned: set[str]) -> bool:
    """True if tokens ``lo`` to ``hi`` of ``loop``'s header hold only names,
    literals, `.`, parentheses, casts to primitive types and operators that
    change nothing, with no call (no node of the header starts there) and
    no simple name in ``assigned``; an empty range counts."""
    if any(lo <= node.tok_lo < hi for node in loop.children):
        return False
    kinds, values = tokens.kinds, tokens.values
    for j in range(lo, hi):
        kind, v = kinds[j], values[j]
        if kind == "ident":
            if v in assigned and values[j - 1] != ".":
                return False
        elif kind == "keyword":
            if v not in PRIMITIVE_TYPES:
                return False  # new, this, instanceof, class, switch, ...
        elif v in _NOT_CONSTANT:
            return False
    return True


def insert_lines(tree: SyntaxTree, offset: int, lines: list[str]) -> Edit:
    """An edit inserting ``lines`` at ``offset``, each ended with the
    dominant line end of the tree's file."""
    eol = file_eol(tree)
    return Edit.insert(offset, (eol.join(lines) + eol).encode())


def line_indent(data: bytes, offset: int) -> str:
    """Leading whitespace of the line containing ``offset``."""
    start = line_start(data, offset)
    end = start
    while end < len(data) and data[end : end + 1] in (b" ", b"\t"):
        end += 1
    return data[start:end].decode()


def reindent(text: str, old_indent: str, new_indent: str) -> list[str]:
    """The lines of ``text``, with ``old_indent`` swapped for ``new_indent``
    at the start of every line after the first."""
    lines = text.replace("\r\n", "\n").split("\n")
    out = [lines[0]]
    for line in lines[1:]:
        if line.startswith(old_indent):
            line = new_indent + line[len(old_indent) :]
        out.append(line)
    return out


# The indent after a `\n` when neither `*` nor a line end follows it; the
# literal `\n` lets `re` skip from line to line. `re` compiles it on first
# use, so a run with no Recycle or WakeLock fix never does.
_INDENT = rb"\n([ \t]+)(?=[^ \t\r\n*])"


def indent_unit(data: bytes, starts: list[int]) -> bytes:
    """Best-effort indentation step: the narrowest nonzero indent of a line
    whose first non-blank byte starts a token (``starts``), so not of a
    comment or text block line, nor of a line starting with ``*``, which
    continues a block comment one space in, whatever the step."""
    text = b"\n" + data
    # each width in turn, from the narrowest, until a line of it starts a token
    for width in sorted(set(map(len, re.findall(_INDENT, text)))):
        for m in re.finditer(rb"\n([ \t]{%d})(?=[^ \t\r\n*])" % width, text):
            k = bisect_left(starts, m.end() - 1)
            if k < len(starts) and starts[k] == m.end() - 1:
                return m[1]
    return b"    "


def file_indent(tree: SyntaxTree) -> str:
    """The indentation step of the tree's file, found once per tree."""
    if tree.indent is None:
        tree.indent = indent_unit(tree.data, tree.tokens.starts).decode()
    return tree.indent


def calls(node: Node, kind: str = "call") -> Iterator[Node]:
    """The ``call`` nodes, or the nodes of another ``kind`` such as
    ``creation``, under ``node``, in source order."""
    return (n for n in node.walk() if n.kind == kind)


def initialized_local(stmt: Node) -> Optional[dict]:
    """The declarator of ``stmt`` if it declares one local variable with an
    initializer, else None."""
    if stmt.kind != "local_variable_declaration":
        return None
    decls = stmt.props["declarators"]
    if len(decls) == 1 and decls[0]["init"] != (None, None):
        return decls[0]
    return None


def uses(tree: SyntaxTree, lo: int, hi: int, name: str) -> Iterator[int]:
    """Indices of the identifier tokens ``name`` among tokens ``lo`` to ``hi``."""
    values = tree.tokens.values
    for j in range(lo, hi):
        if values[j] == name:
            yield j


def has_signature(method: Node, name: str, param_types: tuple[str, ...]) -> bool:
    """True if ``method`` is ``name`` and its parameters' base type names
    are ``param_types``."""
    return method.props["name"] == name and param_types == tuple(
        base_type_name(t) for t, _ in method.props["params"]
    )


OWNER_KINDS = TYPE_DECLS | {"anonymous_class_body"}
_METHOD_KINDS = frozenset(("method_declaration", "constructor_declaration"))


def methods_of(tree: SyntaxTree) -> tuple[tuple[Node, Node], ...]:
    """(enclosing class-body-owner, method) pairs for every method with a body.

    The owner is the class/interface/enum/anonymous-body node whose member
    list directly contains the method. One stack loop finds the pairs once
    per tree, in preorder of the owners; every rule reads the same tuple.
    """
    if tree.methods is None:
        pairs = []
        stack = [tree.root]
        push = stack.append
        while stack:
            node = stack.pop()
            if node.kind in OWNER_KINDS:
                for child in node.children:
                    if child.kind in _METHOD_KINDS and child.props.get("body") is not None:
                        pairs.append((node, child))
            for child in reversed(node.children):
                if child.children:  # leaves hold none
                    push(child)
        tree.methods = tuple(pairs)
    return tree.methods


def class_fields(members: list[Node]) -> dict[str, Node]:
    """Field name -> field_declaration for the fields among ``members``."""
    fields: dict[str, Node] = {}
    for child in members:
        if child.kind == "field_declaration":
            for d in child.props["declarators"]:
                fields[d["name"]] = child
    return fields


_NAMED_KINDS = TYPE_DECLS | _METHOD_KINDS


def names_in_scope(tree: SyntaxTree, owner: Node) -> set[str]:
    """The names of the members of ``owner`` and of each type or body that
    encloses it, and of those types; and, where a method, initializer or
    field holds one of those bodies, every identifier it spells outside that
    body, such as the locals and parameters the class there may capture. A
    member a fix declares in ``owner`` must take none of them: it would
    clash with or hide one, and javac rejects a class named like an
    enclosing one."""
    kinds, values = tree.tokens.kinds, tree.tokens.values
    names: set[str] = set()
    member: Optional[Node] = None  # the last type's or body's member on the path, if no type
    for node in path_to(tree, owner):
        if node.kind not in OWNER_KINDS:
            member = member or node
            continue
        if member is not None:
            outside = chain(range(member.tok_lo, node.tok_lo), range(node.tok_hi, member.tok_hi))
            names.update(values[j] for j in outside if kinds[j] == "ident")
            member = None
        names.update(class_fields(node.children))
        names.update(c.props["name"] for c in node.children if c.kind in _NAMED_KINDS)
        if node.kind in TYPE_DECLS:
            names.add(node.props["name"])
    return names


def declared_locals(method: Node) -> set[str]:
    """Parameter and local variable names declared anywhere in the method."""
    names = {name for _, name in method.props.get("params", [])}
    body = method.props.get("body")
    if body is not None:
        for n in body.walk():
            if n.kind == "local_variable_declaration":
                names.update(d["name"] for d in n.props["declarators"])
    return names


_TYPE_ARGS = re.compile(r"<[^<>]*>")


def base_type_name(type_text: str) -> str:
    """Last segment of a type reference, its type arguments and arrays
    stripped: `Inner` for `Outer<A>.Inner<B>[]`."""
    t, found = type_text, "<" in type_text
    while found:  # the innermost type arguments first
        t, found = _TYPE_ARGS.subn("", t)
    return t.replace("[]", "").strip().split(".")[-1]
