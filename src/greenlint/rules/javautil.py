"""Shared token- and text-level helpers for the Java rules.

Rules are purely syntactic: expressions stay token runs, and these helpers
extract just enough structure (invocations, object creations, identifier
uses) for conservative detection.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..java.lexer import Token
from ..java.parser import Node, SyntaxTree, args_after_new, match_group
from ..spans import Edit, SourceSpan


def dominant_eol(data: bytes) -> bytes:
    crlf = data.count(b"\r\n")
    lf = data.count(b"\n") - crlf
    return b"\r\n" if crlf > lf else b"\n"


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


# Why a fix is declined when the block it would end may never complete.
ENDLESS_LOOP = "the block ends in a loop that may never exit"


def ends_in_endless_loop(tokens: list[Token], block: Node) -> bool:
    """True if the last statement of ``block``, under any labels, is
    `for (...;;...)`, `while (true)` or `do ... while (true);`. A statement
    after one is unreachable unless a `break` leaves it, and javac rejects
    unreachable statements, so rules add nothing after one."""
    if not block.children:
        return False
    stmt = block.children[-1]
    while stmt.kind == "labeled_statement":
        stmt = stmt.children[0]
    lo, hi = stmt.tok_lo, stmt.tok_hi
    if stmt.kind == "while_statement":
        return [t.value for t in tokens[lo + 1 : lo + 4]] == ["(", "true", ")"]
    if stmt.kind == "do_statement":
        return [t.value for t in tokens[hi - 4 : hi - 1]] == ["(", "true", ")"]
    if stmt.kind == "for_statement":
        j = lo + 2  # after `for (`; the first `;` outside groups ends the init
        while not tokens[j].is_op(";"):
            if tokens[j].is_op(")"):
                return False  # an enhanced for
            opens = tokens[j].kind == "op" and tokens[j].value in "([{"
            j = match_group(tokens, j)[1] if opens else j + 1
        return tokens[j + 1].is_op(";")
    return False


def insert_lines(data: bytes, offset: int, lines: list[str]) -> Edit:
    """An edit inserting ``lines`` at ``offset``, each ended with the
    dominant line end of ``data``."""
    eol = dominant_eol(data).decode()
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


def indent_unit(data: bytes) -> bytes:
    """Best-effort indentation step: the smallest nonzero line indent.

    Lines starting with ``*`` are skipped: they continue a block comment and
    sit one space in, whatever the code's step.
    """
    best: Optional[bytes] = None
    for line in data.split(b"\n"):
        stripped = line.lstrip(b" \t")
        if not stripped or stripped.startswith(b"*"):
            continue
        ws = line[: len(line) - len(stripped)]
        if ws and (best is None or len(ws) < len(best)):
            best = ws
    return best if best else b"    "


class Invocation:
    __slots__ = ("name", "receiver", "span")

    def __init__(self, name: str, receiver: Optional[str], span: SourceSpan):
        self.name = name
        self.receiver = receiver  # simple identifier right before `.name(`, if any
        self.span = span  # receiver-or-name start .. closing paren


class Creation:
    __slots__ = ("type_name", "new_index", "args", "span", "has_body")

    def __init__(
        self,
        type_name: str,
        new_index: int,
        args: list[tuple[int, int]],
        span: SourceSpan,
        has_body: bool,
    ):
        self.type_name = type_name
        self.new_index = new_index
        self.args = args
        self.span = span  # `new` .. closing paren
        self.has_body = has_body  # anonymous class body follows


def split_args(tokens: list[Token], open_idx: int) -> tuple[list[tuple[int, int]], int]:
    """Split the argument list opened at ``open_idx`` on top-level commas.

    Returns (arg index ranges, index of the closing paren), the index being
    ``len(tokens)`` if the list does not close.
    """
    args: list[tuple[int, int]] = []
    arg_lo = j = open_idx + 1
    while j < len(tokens):
        t = tokens[j]
        if t.kind == "op":
            if t.value in "([{":
                closed, j = match_group(tokens, j)
                if not closed:
                    break
                continue
            if t.value in ")]}":
                if arg_lo < j:
                    args.append((arg_lo, j))
                return args, j
            if t.value == ",":
                args.append((arg_lo, j))
                arg_lo = j + 1
        j += 1
    return args, len(tokens)


def find_invocations(tokens: list[Token], lo: int, hi: int) -> Iterator[Invocation]:
    """Yield every `name(...)` call in tokens[lo:hi], outermost first."""
    for j in range(lo, min(hi, len(tokens))):
        t = tokens[j]
        if t.kind != "ident":
            continue
        if j + 1 >= len(tokens) or not tokens[j + 1].is_op("("):
            continue
        if j > 0 and tokens[j - 1].is_kw("new"):
            continue
        receiver = None
        start = t.start
        if j >= 2 and tokens[j - 1].is_op(".") and tokens[j - 2].kind == "ident":
            receiver = tokens[j - 2].value
            start = tokens[j - 2].start
        closed, end = match_group(tokens, j + 1)
        if not closed or end > hi:
            continue  # call extends past the slice; caller's slice was partial
        yield Invocation(t.value, receiver, SourceSpan(start, tokens[end - 1].end))


def find_creations(tokens: list[Token], lo: int, hi: int) -> Iterator[Creation]:
    """Yield every `new Type(...)` in tokens[lo:hi] (array news excluded)."""
    for j in range(lo, min(hi, len(tokens))):
        if not tokens[j].is_kw("new"):
            continue
        k = args_after_new(tokens, j + 1)
        if k is None:
            continue  # array creation or malformed
        # the qualified name, up to its type arguments
        type_name = "".join(t.value for t in tokens[j + 1 : k]).split("<", 1)[0]
        if not type_name:
            continue
        args, close_idx = split_args(tokens, k)
        if close_idx >= hi:
            continue  # the call runs past the slice or never closes
        has_body = close_idx + 1 < len(tokens) and tokens[close_idx + 1].is_op("{")
        span = SourceSpan(tokens[j].start, tokens[close_idx].end)
        yield Creation(type_name, j, args, span, has_body)


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
    """Indices of the identifier tokens ``name`` in tokens[lo:hi]."""
    toks = tree.tokens
    for j in range(lo, hi):
        t = toks[j]
        if t.value == name and t.kind == "ident":
            yield j


def has_signature(method: Node, name: str, param_types: tuple[str, ...]) -> bool:
    """True if ``method`` is ``name`` and its parameters' base type names
    are ``param_types``."""
    return method.props["name"] == name and param_types == tuple(
        base_type_name(t) for t, _ in method.props["params"]
    )


OWNER_KINDS = (
    "class_declaration",
    "interface_declaration",
    "enum_declaration",
    "annotation_declaration",
    "anonymous_class_body",
)


def methods_of(tree: SyntaxTree) -> list[tuple[Node, Node]]:
    """(enclosing class-body-owner, method) pairs for every method with a body.

    The owner is the class/interface/enum/anonymous-body node whose member
    list directly contains the method.
    """
    out: list[tuple[Node, Node]] = []
    for owner in tree.root.walk():
        if owner.kind not in OWNER_KINDS:
            continue
        for child in owner.children:
            if (
                child.kind in ("method_declaration", "constructor_declaration")
                and child.props.get("body") is not None
            ):
                out.append((owner, child))
    return out


def class_fields(members: list[Node]) -> dict[str, Node]:
    """Field name -> field_declaration for the fields among ``members``."""
    fields: dict[str, Node] = {}
    for child in members:
        if child.kind == "field_declaration":
            for d in child.props["declarators"]:
                fields[d["name"]] = child
    return fields


def member_names(owner: Node) -> set[str]:
    names = set(class_fields(owner.children))
    for child in owner.children:
        if child.kind in (
            "method_declaration",
            "constructor_declaration",
            "class_declaration",
            "interface_declaration",
            "enum_declaration",
        ):
            names.add(child.props["name"])
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


def base_type_name(type_text: str) -> str:
    """Last segment of a type reference, generics and arrays stripped."""
    t = type_text.split("<", 1)[0].replace("[]", "").strip()
    return t.split(".")[-1]
