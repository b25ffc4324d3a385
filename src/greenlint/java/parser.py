"""Structural recursive-descent parser for Java source files.

The parser recognizes the declarations and statement structure the energy
rules need while keeping expressions as token slices. Every node carries a
token index range into the tree's token list, so the original bytes of
any node are always reachable.

Anonymous class bodies inside expressions are parsed as full class bodies
and attached as child nodes, so rules see methods declared in anonymous
adapters too.

Node kinds, and the props that rules read (token ranges are half-open
index pairs):

- class_, interface_, enum_ and annotation_declaration: ``name``,
  ``extends`` (the first extended type's text, or None);
- method_ and constructor_declaration: ``name``, ``name_span``, ``params``
  (a list of (type text, name)), ``body`` (the block, or None);
- field_ and local_variable_declaration: ``type`` (text), ``declarators``
  (dicts of ``name``, ``name_span`` and ``init``, the initializer's token
  range or (None, None));
- if_statement: ``cond``, the token range in its parens;
- without props: compilation_unit, block, anonymous_class_body,
  initializer, and the labeled, expression, empty, return, throw, break,
  continue, assert, for, while, do, try, switch (its body kept as tokens)
  and synchronized statements.

Package and import declarations, annotations and modifiers are checked
and skipped; no node holds them. A block's or a type's closing brace is
its last token.

Given an earlier tree and the edits since, only the members they touch
are parsed (the subtree reuse of Wagner & Graham, TOPLAS 1998). A
top-level type or type-body member parses from its own tokens and its
enclosing type's name alone, so one that no edit comes near is moved over
from the old tree and shifted in place. Its spans are replaced, not
changed, since findings may hold them; nothing reads the old tree after.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Any, Iterator, Optional, Union

from ..diagnostics import ParseDiagnostic, ParseError, guarded_parse
from ..spans import Edit, SourceSpan
from .lexer import _LOOKAHEAD, Token, tokenize

MODIFIER_KEYWORDS = frozenset(
    """public protected private static final abstract native synchronized
    transient volatile strictfp default""".split()
)

PRIMITIVE_TYPES = frozenset(
    "boolean byte char short int long float double void".split()
)

_TYPE_KINDS = {
    "class": "class_declaration",
    "interface": "interface_declaration",
    "enum": "enum_declaration",
}
_TYPE_DECLS = frozenset(_TYPE_KINDS.values()) | {"annotation_declaration"}

# A local class declaration starts with one of these or an annotation.
_LOCAL_TYPE_STARTS = frozenset(_TYPE_KINDS) | {"final", "abstract", "static"}

_CLOSERS = {"(": ")", "[": "]", "{": "}", "<": ">"}
_OPENERS = frozenset("([{")
_BRACKET_CLOSERS = frozenset(")]}")

# An expression never starts or ends with an assignment operator. `>>=` and
# `>>>=` lex as `>` tokens then `>=`, since `>` is always a token of its own.
_ASSIGNMENT_TAILS = frozenset("= += -= *= /= %= &= |= ^= <<= >=".split())
_ASSIGNMENT_HEADS = _ASSIGNMENT_TAILS | {">"}


def match_group(tokens: list[Token], j: int) -> tuple[bool, int]:
    """Match the group that opens at ``tokens[j]`` (one of ``_CLOSERS``).

    Returns ``(True, end)``, ``end`` being the index just past the group, or
    ``(False, k)`` if the group does not close properly. Inside any group
    `()[]{}` must nest. ``k`` is the index of the closer that breaks the
    nesting of a bracket opened inside the group, or ``j`` when the group's
    own bracket is the one left open. A `<` group ends at the `>` that
    balances its `<`s, counting only those outside the brackets it holds.
    """
    angle = tokens[j].value == "<"
    depth = 0
    expected: list[str] = []  # the closers of the open brackets, innermost last
    for k in range(j, len(tokens)):
        t = tokens[k]
        if t.kind != "op":
            continue
        v = t.value
        if v in _OPENERS:
            expected.append(_CLOSERS[v])
        elif v in _BRACKET_CLOSERS:
            if not expected:
                return False, j
            if expected.pop() != v:
                # The stray closer is at fault if it meets a bracket opened
                # inside the group; if it meets the group's own, the opener is.
                return False, k if angle or expected else j
            if not expected and not angle:
                return True, k + 1
        elif angle and not expected:
            if v == "<":
                depth += 1
            elif v == ">":
                depth -= 1
                if depth == 0:
                    return True, k + 1
    return False, j


def args_after_new(tokens: list[Token], j: int) -> Optional[int]:
    """Index of the `(` after `new` and the qualified type name and type
    arguments that start at ``tokens[j]``; None for an array creation or
    anything else. Like the rest of the parser, it accepts more than Java:
    the name may be missing."""
    n = len(tokens)
    if j < n and tokens[j].kind == "ident":
        j += 1
        while j + 1 < n and tokens[j].is_op(".") and tokens[j + 1].kind == "ident":
            j += 2
    if j < n and tokens[j].is_op("<"):
        closed, j = match_group(tokens, j)
        if not closed:
            return None
    return j if j < n and tokens[j].is_op("(") else None


class Node:
    __slots__ = ("kind", "tok_lo", "tok_hi", "children", "props")

    def __init__(
        self,
        kind: str,
        tok_lo: int,
        tok_hi: int,
        children: Optional[list[Node]] = None,
        props: Optional[dict[str, Any]] = None,
    ):
        self.kind = kind
        self.tok_lo = tok_lo
        self.tok_hi = tok_hi
        self.children = [] if children is None else children
        self.props = {} if props is None else props

    def walk(self) -> Iterator["Node"]:
        yield self
        for child in self.children:
            yield from child.walk()


class SyntaxTree:
    __slots__ = ("data", "tokens", "root")

    def __init__(self, data: bytes, tokens: list[Token], root: Node):
        self.data = data
        self.tokens = tokens
        self.root = root

    def span_of(self, node: Node) -> SourceSpan:
        if node.kind == "compilation_unit":
            return SourceSpan(0, len(self.data))
        # every other node holds at least one token
        return SourceSpan(
            self.tokens[node.tok_lo].start, self.tokens[node.tok_hi - 1].end
        )

    def text_of(self, node_or_span: Union[Node, SourceSpan]) -> str:
        span = (
            node_or_span
            if isinstance(node_or_span, SourceSpan)
            else self.span_of(node_or_span)
        )
        return self.data[span.start : span.end].decode("utf-8")


# (token index, enclosing type name) -> (old node there, token, byte shift)
_Reusable = dict[tuple[int, Optional[str]], tuple[Node, int, int]]


class _Parser:
    def __init__(self, data: bytes, tokens: list[Token], reusable: _Reusable):
        self.data = data
        self.toks = tokens
        self.n = len(tokens)
        self.i = 0
        self.reusable = reusable

    # --- token helpers -------------------------------------------------

    def fail(self, message: str) -> ParseError:
        offset = self.toks[self.i].start if self.i < self.n else len(self.data)
        return ParseError(offset, message)

    def peek(self, ahead: int = 0) -> Optional[Token]:
        j = self.i + ahead
        return self.toks[j] if j < self.n else None

    def at_op(self, value: str) -> bool:
        if self.i >= self.n:
            return False
        t = self.toks[self.i]
        return t.value == value and t.kind == "op"

    def at_kw(self, value: str) -> bool:
        if self.i >= self.n:
            return False
        t = self.toks[self.i]
        return t.value == value and t.kind == "keyword"

    def advance(self) -> Token:
        i = self.i
        if i >= self.n:
            raise self.fail("unexpected end of file")
        self.i = i + 1
        return self.toks[i]

    def expect_op(self, value: str) -> Token:
        if not self.at_op(value):
            raise self.fail(f"expected {value!r}")
        return self.advance()

    def expect_ident(self, what: str) -> Token:
        t = self.peek()
        if t is None or t.kind != "ident":
            raise self.fail(f"expected {what}")
        return self.advance()

    # --- entry ---------------------------------------------------------

    def parse_compilation_unit(self) -> Node:
        lo = self.i
        children: list[Node] = []
        if self._at_package_decl():
            self._parse_package()
        while self.at_kw("import"):
            self._parse_import()
        while self.i < self.n:
            if self.at_op(";"):
                self.advance()
                continue
            children.append(self._reuse(None) or self._parse_type_decl())
        return Node("compilation_unit", lo, self.i, children)

    def _reuse(self, enclosing: Optional[str]) -> Optional[Node]:
        """The old node a parse at the cursor would rebuild, moved there."""
        node, dt, db = self.reusable.pop((self.i, enclosing), (None, 0, 0))
        if dt or db:
            _shift(node, dt, db)
        if node is not None:
            self.i = node.tok_hi
        return node

    def _at_package_decl(self) -> bool:
        # annotations may precede `package`
        j = self.i
        while j < self.n and self.toks[j].is_op("@"):
            j += 1
            while j < self.n and self.toks[j].kind in ("ident", "keyword"):
                j += 1
                if j < self.n and self.toks[j].is_op("."):
                    j += 1
                else:
                    break
            if j < self.n and self.toks[j].is_op("("):
                j = self._skip_group(j)
        return j < self.n and self.toks[j].is_kw("package")

    def _skip_group(self, j: int) -> int:
        closed, k = match_group(self.toks, j)
        if closed:
            return k
        if k == j:
            raise self.fail(f"unbalanced {_CLOSERS[self.toks[j].value]!r}")
        raise ParseError(self.toks[k].start, f"unexpected {self.toks[k].value!r}")

    def _skip_optional_group(self, opener: str) -> None:
        """Skip the group at the cursor if it opens with ``opener``."""
        if self.at_op(opener):
            self.i = self._skip_group(self.i)

    def _parse_package(self) -> None:
        while not self.at_kw("package"):
            self.advance()
        self.advance()
        self._parse_qualified_name()
        self.expect_op(";")

    def _parse_import(self) -> None:
        self.advance()  # import
        if self.at_kw("static"):
            self.advance()
        self._parse_qualified_name()
        if self.at_op("."):
            self.advance()
            self.expect_op("*")
        self.expect_op(";")

    def _parse_qualified_name(self) -> None:
        self.expect_ident("name")
        while self.at_op(".") and (p := self.peek(1)) is not None and p.kind == "ident":
            self.i += 2

    # --- annotations / modifiers --------------------------------------

    def _parse_annotation(self) -> None:
        self.expect_op("@")
        self._parse_qualified_name()
        self._skip_optional_group("(")

    def _parse_modifiers(self) -> None:
        """Skip annotations and modifier keywords.

        Stops before `@interface`, so an `@` left at the cursor starts an
        annotation type declaration.
        """
        while True:
            t = self.peek()
            if t is None:
                return
            if t.is_op("@") and not (
                (p := self.peek(1)) is not None and p.is_kw("interface")
            ):
                self._parse_annotation()
            elif t.kind == "keyword" and t.value in MODIFIER_KEYWORDS:
                self.advance()
            else:
                return

    def _reject_record(self) -> None:
        """Fail at `record R(` and `record R<`, which would otherwise read
        as a method or variable R of type `record`, or fail further on."""
        t, n, p = self.peek(), self.peek(1), self.peek(2)
        if (
            t is not None
            and t.kind == "ident"
            and t.value == "record"
            and n is not None
            and n.kind == "ident"
            and p is not None
            and (p.is_op("(") or p.is_op("<"))
        ):
            raise self.fail("records are not supported")

    # --- types ---------------------------------------------------------

    def _skip_dims(self) -> None:
        """Skip the `[]` pairs after a type, a declarator or a parameter list."""
        while self.at_op("[") and (p := self.peek(1)) is not None and p.is_op("]"):
            self.i += 2

    def _parse_type(self) -> str:
        """Parse a type reference; returns its source text."""
        start_tok = self.i
        t = self.peek()
        if t is None:
            raise self.fail("expected type")
        if t.kind == "keyword" and t.value in PRIMITIVE_TYPES:
            self.advance()
        elif t.kind == "ident":
            self._parse_qualified_name()
            self._skip_optional_group("<")
        else:
            raise self.fail("expected type")
        self._skip_dims()
        lo_off = self.toks[start_tok].start
        hi_off = self.toks[self.i - 1].end
        return self.data[lo_off:hi_off].decode("utf-8")

    def _parse_type_list(self, keyword: str) -> Optional[str]:
        """Parse an optional `keyword Type, Type...` clause (`extends`,
        `implements`, `throws`); returns the first type's text, or None when
        the clause is absent."""
        if not self.at_kw(keyword):
            return None
        self.advance()
        first = self._parse_type()
        while self.at_op(","):
            self.advance()
            self._parse_type()
        return first

    # --- type declarations ---------------------------------------------

    def _parse_type_decl(self) -> Node:
        lo = self.i
        self._parse_modifiers()
        t = self.peek()
        if t is None:
            raise self.fail("expected type declaration")
        if t.is_op("@"):  # `@interface`, see _parse_modifiers
            self.i += 2
            kind = "annotation_declaration"
        elif t.kind == "keyword" and t.value in _TYPE_KINDS:
            kind = _TYPE_KINDS[self.advance().value]
        else:
            raise self.fail("expected class, interface or enum declaration")
        name = self.expect_ident("type name").value
        self._skip_optional_group("<")
        extends = self._parse_type_list("extends")  # interfaces may extend several
        self._parse_type_list("implements")
        self.expect_op("{")
        members = (
            self._parse_enum_body(name)
            if kind == "enum_declaration"
            else self._parse_members(name)
        )
        self.expect_op("}")
        props = {"name": name, "extends": extends}
        return Node(kind, lo, self.i, members, props)

    def _parse_enum_body(self, enclosing: str) -> list[Node]:
        members: list[Node] = []
        # constants: Name, Name(args), Name { body }
        while self.peek() is not None and not (self.at_op("}") or self.at_op(";")):
            self.expect_ident("enum constant")
            self._skip_optional_group("(")
            if self.at_op("{"):
                self.advance()
                members.extend(self._parse_members(enclosing))
                self.expect_op("}")
            if not self.at_op(","):
                break
            self.advance()
        if self.at_op(";"):
            self.advance()
            members.extend(self._parse_members(enclosing))
        return members

    def _parse_members(self, enclosing: str) -> list[Node]:
        members: list[Node] = []
        while True:
            t = self.peek()
            if t is None or t.is_op("}"):
                return members
            if t.is_op(";"):
                self.advance()
                continue
            members.append(self._reuse(enclosing) or self._parse_member(enclosing))

    def _parse_member(self, enclosing: str) -> Node:
        lo = self.i
        self._parse_modifiers()
        t = self.peek()
        if t is None:
            raise self.fail("unexpected end of class body")
        # nested types, `@interface` included (see _parse_modifiers)
        if (t.kind == "keyword" and t.value in _TYPE_KINDS) or t.is_op("@"):
            self.i = lo
            return self._parse_type_decl()
        # initializer block (static handled by modifiers)
        if t.is_op("{"):
            body = self._parse_block()
            return Node("initializer", lo, self.i, [body])
        self._reject_record()
        self._skip_optional_group("<")  # generic method type parameters
        # constructor: Name (
        t = self.peek()
        if (
            t is not None
            and t.kind == "ident"
            and t.value == enclosing
            and (p := self.peek(1)) is not None
            and p.is_op("(")
        ):
            name_tok = self.advance()
            return self._finish_method("constructor_declaration", lo, name_tok)
        type_text = self._parse_type()
        name_tok = self.expect_ident("member name")
        if self.at_op("("):
            return self._finish_method("method_declaration", lo, name_tok)
        self.i -= 1  # the declarators start at the name just read
        return self._parse_declarators("field_declaration", lo, type_text, "field name")

    def _finish_method(self, kind: str, lo: int, name_tok: Token) -> Node:
        params = self._parse_params()
        self._skip_dims()
        self._parse_type_list("throws")
        body: Optional[Node] = None
        if self.at_op("{"):
            body = self._parse_block()
        else:
            if self.at_kw("default"):  # annotation member default value
                self.advance()
                self._consume_expression()
            self.expect_op(";")
        props = {
            "name": name_tok.value,
            "params": params,
            "body": body,
            "name_span": SourceSpan(name_tok.start, name_tok.end),
        }
        return Node(kind, lo, self.i, [body] if body else [], props)

    def _parse_params(self) -> list[tuple[str, str]]:
        self.expect_op("(")
        params: list[tuple[str, str]] = []
        while not self.at_op(")"):
            if params:  # a comma separates parameters; none may trail
                self.expect_op(",")
            # only annotations and `final` may precede a parameter's type
            while self.at_op("@"):
                self._parse_annotation()
            if self.at_kw("final"):
                self.advance()
            while self.at_op("@"):
                self._parse_annotation()
            type_text = self._parse_type()
            if self.at_op("..."):
                self.advance()
                type_text += "..."
            if self.at_kw("this"):  # receiver parameter
                self.advance()
                name = "this"
            else:
                name = self.expect_ident("parameter name").value
            self._skip_dims()
            params.append((type_text, name))
        self.advance()  # )
        return params

    def _parse_declarators(self, kind: str, lo: int, type_text: str, what: str) -> Node:
        """Parse `name[] = init, name...;` into a field or local variable
        declaration, whose children are the anonymous class bodies in the
        initializers; ``what`` names the identifier expected at each name."""
        children: list[Node] = []
        declarators: list[dict[str, Any]] = []
        while True:
            tok = self.expect_ident(what)
            self._skip_dims()
            init_lo = init_hi = None
            if self.at_op("="):
                self.advance()
                init_lo, init_hi = self._parse_initializer(children)
            declarators.append(
                {
                    "name": tok.value,
                    "name_span": SourceSpan(tok.start, tok.end),
                    "init": (init_lo, init_hi),
                }
            )
            if not self.at_op(","):
                break
            self.advance()
        self.expect_op(";")
        props = {"type": type_text, "declarators": declarators}
        return Node(kind, lo, self.i, children, props)

    # --- statements ----------------------------------------------------

    def _parse_block(self) -> Node:
        lo = self.i
        self.expect_op("{")
        stmts: list[Node] = []
        while not self.at_op("}"):
            if self.peek() is None:
                raise self.fail("unexpected end of file in block")
            stmts.append(self._parse_statement())
        self.advance()
        return Node("block", lo, self.i, stmts)

    def _parse_statement(self) -> Node:
        t = self.peek()
        if t is None:
            raise self.fail("expected statement")
        if t.is_op("{"):
            return self._parse_block()
        if t.is_op(";"):
            lo = self.i
            self.advance()
            return Node("empty_statement", lo, self.i)
        if t.kind == "ident":
            if (p := self.peek(1)) is not None and p.is_op(":"):
                lo = self.i  # a labeled statement (JLS 14.7): `label: statement`
                self.i += 2
                body = self._parse_statement()
                return Node("labeled_statement", lo, self.i, [body])
            self._reject_record()
        if t.kind == "keyword":
            handler = _STATEMENT_PARSERS.get(t.value)
            if handler is not None:
                return handler(self)
            kind = _SIMPLE_STATEMENTS.get(t.value)
            if kind is not None:
                self.advance()
                return self._finish_simple_statement(kind, self.i - 1)
        if t.is_op("@") or t.kind == "keyword" and t.value in _LOCAL_TYPE_STARTS:
            saved = self.i
            self._parse_modifiers()
            self._reject_record()
            t = self.peek()
            self.i = saved
            if t is not None and t.kind == "keyword" and t.value in _TYPE_KINDS:
                return self._parse_type_decl()
        decl = self._try_local_var_decl()
        if decl is not None:
            return decl
        return self._finish_simple_statement("expression_statement", self.i)

    def _finish_simple_statement(self, kind: str, lo: int) -> Node:
        """The `[expression];` that ends a statement begun at ``lo``."""
        children = self._consume_expression()
        self.expect_op(";")
        return Node(kind, lo, self.i, children)

    def _skip_parens(self, after: str) -> None:
        """Skip the parenthesised header that must follow keyword ``after``."""
        if not self.at_op("("):
            raise self.fail(f"expected '(' after {after}")
        self.i = self._skip_group(self.i)

    def _parse_if(self) -> Node:
        lo = self.i
        self.advance()
        cond_lo = self.i + 1
        self._skip_parens("if")
        props = {"cond": (cond_lo, self.i - 1)}
        children = [self._parse_statement()]
        if self.at_kw("else"):
            self.advance()
            children.append(self._parse_statement())
        return Node("if_statement", lo, self.i, children, props)

    def _parse_loop(self) -> Node:
        """`for (...) body` or `while (...) body`; the keyword names the kind."""
        lo = self.i
        keyword = self.advance().value
        self._skip_parens(keyword)
        body = self._parse_statement()
        return Node(f"{keyword}_statement", lo, self.i, [body])

    def _parse_do(self) -> Node:
        lo = self.i
        self.advance()
        body = self._parse_statement()
        if not self.at_kw("while"):
            raise self.fail("expected 'while' after do body")
        self.advance()
        self._skip_parens("while")
        self.expect_op(";")
        return Node("do_statement", lo, self.i, [body])

    def _parse_try(self) -> Node:
        lo = self.i
        self.advance()
        self._skip_optional_group("(")  # try-with-resources header, kept opaque
        children = [self._parse_block()]
        while self.at_kw("catch"):
            self.advance()
            self._skip_parens("catch")
            children.append(self._parse_block())
        if self.at_kw("finally"):
            self.advance()
            children.append(self._parse_block())
        return Node("try_statement", lo, self.i, children)

    def _parse_switch(self) -> Node:
        lo = self.i
        self.advance()
        self._skip_parens("switch")
        if not self.at_op("{"):
            raise self.fail("expected '{' after switch header")
        # Case bodies stay opaque token runs; anonymous classes inside are
        # still brace-balanced by the group matcher.
        self.i = self._skip_group(self.i)
        return Node("switch_statement", lo, self.i)

    def _parse_synchronized(self) -> Node:
        lo = self.i
        self.advance()
        self._skip_optional_group("(")
        body = self._parse_block()
        return Node("synchronized_statement", lo, self.i, [body])

    def _try_local_var_decl(self) -> Optional[Node]:
        lo = self.i
        self._parse_modifiers()
        committed = self.i > lo  # a modifier or annotation starts only a declaration
        try:
            type_text = self._parse_type()
            t, nxt = self.peek(), self.peek(1)
            if not committed and (
                t is None
                or t.kind != "ident"
                or nxt is None
                or nxt.kind != "op"
                or nxt.value not in ("=", ";", ",", "[")
            ):
                raise self.fail("not a declaration")
        except ParseError:
            if committed:
                raise
            self.i = lo
            return None
        return self._parse_declarators(
            "local_variable_declaration", lo, type_text, "variable name"
        )

    def _parse_initializer(self, children: list[Node]) -> tuple[int, int]:
        """Consume a variable initializer after its '='; returns its token
        range and adds any anonymous class bodies in it to `children`."""
        lo = self.i
        children.extend(self._consume_expression(stop_at_comma=True))
        if self.i == lo:
            raise self.fail("expected expression")
        return lo, self.i

    def _consume_expression(self, stop_at_comma: bool = False) -> list[Node]:
        """Consume expression tokens up to ';' (or top-level ',').

        A run that starts or ends with an assignment operator fails with
        "expected expression". Anonymous class bodies (`new T(...) { ... }`)
        are parsed into child class-body nodes; everything else remains a
        token run. Returns the child nodes discovered along the way.
        """
        children: list[Node] = []
        toks, n = self.toks, self.n
        lo = self.i
        open_at: list[int] = []  # indices of the open `(`/`[`, innermost last
        new_args: set[int] = set()  # indices of each `(` after `new Type`
        body_at = -1  # a `{` at this index follows `new Type(...)`
        while True:
            i = self.i
            if i >= n:
                raise self.fail("unexpected end of file in expression")
            t = toks[i]
            if t.kind == "op":
                v = t.value
                if v == "(" or v == "[":
                    open_at.append(i)
                elif v == ")" or v == "]":
                    if not open_at:
                        break
                    j = open_at.pop()
                    if _CLOSERS[toks[j].value] != v:
                        raise self.fail(f"unexpected {v!r} in expression")
                    if j in new_args:
                        body_at = i + 1
                elif v == ";" and not open_at:
                    break
                elif v == "," and not open_at and stop_at_comma:
                    break
                elif v == "{":
                    # brace in expression position: anonymous class body,
                    # lambda body, or array initializer
                    if i == body_at:
                        children.append(self._parse_anonymous_body())
                    else:
                        self.i = self._skip_group(i)
                    continue
                elif v == "}":
                    raise self.fail("unexpected '}' in expression")
                elif v == "." and i + 1 < n and toks[i + 1].is_op("<"):
                    # explicit type arguments, `Collections.<K, V>emptyMap()`:
                    # a comma in them ends no declarator; an unclosed `<` is
                    # reported at the cursor, so it moves there first
                    self.i = i + 1
                    self.i = self._skip_group(self.i)
                    continue
            elif t.kind == "keyword" and t.value == "new":
                args = args_after_new(toks, i + 1)
                if args is not None:
                    # jump to the `(`: a comma in the type arguments ends
                    # no declarator
                    new_args.add(args)
                    self.i = args
                    continue
            self.i = i + 1
        if self.i > lo:
            first, last = toks[lo], toks[self.i - 1]
            if first.kind == "op" and first.value in _ASSIGNMENT_HEADS:
                raise ParseError(first.start, "expected expression")
            if last.kind == "op" and last.value in _ASSIGNMENT_TAILS:
                raise self.fail("expected expression")
        return children

    def _parse_anonymous_body(self) -> Node:
        lo = self.i
        self.advance()  # {
        members = self._parse_members("")
        self.expect_op("}")
        return Node("anonymous_class_body", lo, self.i, members)


# Statement parsers by leading keyword. They are looked up here, not kept on
# the parser as bound methods, which would make each parser a reference
# cycle that holds its token list until the cyclic collector runs.
_STATEMENT_PARSERS = {
    "if": _Parser._parse_if,
    "for": _Parser._parse_loop,
    "while": _Parser._parse_loop,
    "do": _Parser._parse_do,
    "try": _Parser._parse_try,
    "switch": _Parser._parse_switch,
    "synchronized": _Parser._parse_synchronized,
}
_SIMPLE_STATEMENTS = {
    "return": "return_statement",
    "throw": "throw_statement",
    "break": "break_statement",
    "continue": "continue_statement",
    "assert": "assert_statement",
}


def _shift(node: Node, dt: int, db: int) -> None:
    """Move ``node``'s subtree ``dt`` tokens and ``db`` bytes on, in place."""
    stack = [node]
    while stack:
        n = stack.pop()
        n.tok_lo += dt
        n.tok_hi += dt
        stack += n.children
        props = n.props
        if not props:
            continue
        if "cond" in props:
            lo, hi = props["cond"]
            props["cond"] = (lo + dt, hi + dt)
        # a method's props hold a name_span, each declarator also an init
        for d in props.get("declarators", [props]):
            if "name_span" in d:
                span = d["name_span"]
                d["name_span"] = SourceSpan(span.start + db, span.end + db)
            lo, hi = d.get("init", (None, None))
            if lo is not None:
                d["init"] = (lo + dt, hi + dt)


def _reusable(old: SyntaxTree, edits: list[Edit], tokens: list[Token]) -> _Reusable:
    """The top-level types and type-body members of ``old`` that no edit
    comes near, keyed by where their first token is in ``tokens``."""
    shifts = [(e.span.start, e.span.end, len(e.replacement) - len(e.span)) for e in edits]
    out: _Reusable = {}

    def visit(enclosing: Optional[str], members: list[Node]) -> None:
        for node in members:
            lo, hi = old.tokens[node.tok_lo].start, old.tokens[node.tok_hi - 1].end
            if any(s <= hi + _LOOKAHEAD and e + _LOOKAHEAD >= lo for s, e, _ in shifts):
                if node.kind in _TYPE_DECLS:
                    visit(node.props["name"], node.children)
                continue
            db = sum(d for _, e, d in shifts if e < lo)
            k = bisect_left(tokens, lo + db, key=attrgetter("start"))
            last = k + node.tok_hi - node.tok_lo - 1
            if last < len(tokens) and tokens[k].start - lo == tokens[last].end - hi == db:
                out[(k, enclosing)] = (node, k - node.tok_lo, db)

    visit(None, old.root.children)
    return out


def parse_java_source(
    data: bytes, previous: Optional[tuple[SyntaxTree, list[Edit]]] = None
) -> tuple[Optional[SyntaxTree], list[ParseDiagnostic]]:
    """Parse Java source bytes into a lossless SyntaxTree.

    Returns (tree, []) on success or (None, diagnostics) on failure; the
    caller is expected to skip undecodable or unparseable files.
    ``previous`` may hold the tree of an earlier text, not to be read
    afterwards, and the edits that made ``data`` from it: then only the
    bytes around the edits are lexed and the members they touch parsed.
    """

    def parse() -> SyntaxTree:
        if previous is None:
            tokens, reusable = tokenize(data), {}
        else:
            tokens = tokenize(data, (previous[0].tokens, previous[1]))
            reusable = _reusable(*previous, tokens)
        root = _Parser(data, tokens, reusable).parse_compilation_unit()
        return SyntaxTree(data, tokens, root)

    return guarded_parse(data, parse)
