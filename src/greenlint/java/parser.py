"""Structural recursive-descent parser for Java source files.

The parser recognizes the declarations and statement structure the energy
rules need while keeping expressions as token slices. It reads its own
copies of the lexer's parallel token lists, with end markers, by index, and
tests an operator or keyword by its value alone. Every node carries a token
index range into the lexer's lists, so the original bytes of any node are
always reachable. A probe for a local variable declaration does not raise
when the statement is an expression.

Anonymous class bodies inside expressions are parsed as full class bodies
and attached as child nodes, so rules see methods declared in anonymous
adapters too. An enum constant's body is an anonymous class body as well,
a child of the enum among its members.

Node kinds, and the props that rules read (token ranges are half-open
index pairs):

- class_, interface_, enum_ and annotation_declaration: ``name``,
  ``extends`` (the first extended type's text, or None), ``type_params``
  (the names of its type parameters);
- method_ and constructor_declaration: ``name``, ``name_tok`` (its token
  index), ``params`` (a list of (type text, name)), ``body`` (the block,
  or None), ``type_params``;
- field_ and local_variable_declaration: ``type`` (text), ``declarators``
  (dicts of ``name``, ``name_tok`` and ``init``, the initializer's token
  range or (None, None));
- if_statement: ``cond``, the token range in its parens;
- without props: compilation_unit, block, anonymous_class_body,
  initializer, and the labeled, expression, empty, return, throw, break,
  continue, assert, for, while, do, try, switch (its body kept as tokens)
  and synchronized statements.

Package and import declarations, annotations and modifiers are checked
and skipped; no node holds them. The type arguments of a declaration's
types are checked to hold only types; those in an expression stay token
runs. A block's or a type's closing brace is its last token.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Union

from ..diagnostics import ParseDiagnostic, ParseError, guarded_parse
from ..spans import SourceSpan
from .lexer import Tokens, tokenize

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
TYPE_DECLS = frozenset(_TYPE_KINDS.values()) | {"annotation_declaration"}

# A local class declaration starts with one of these or an annotation.
_LOCAL_TYPE_STARTS = frozenset(_TYPE_KINDS) | {"final", "abstract", "static"}

# What a type's type arguments may hold besides names and annotations.
_TYPE_ARGUMENT_TOKENS = frozenset(". , ? & [ ] < > extends super".split()) | PRIMITIVE_TYPES

_CLOSERS = {"(": ")", "[": "]", "{": "}", "<": ">"}
_OPENERS = frozenset("([{")
_BRACKET_CLOSERS = frozenset(")]}")
_BRACKETS = _OPENERS | _BRACKET_CLOSERS
_ANGLE_MARKS = _BRACKETS | {"<", ">"}

# The parser's copies of the token lists end in these markers (the tree keeps
# the lexer's). No token spells "", so a test of the token up to two past the
# cursor needs no bound check.
_END = ["", "", ""]
# The tokens `_consume_expression` acts on, the end marker among them.
_EXPRESSION_MARKS = frozenset("( ) [ ] ; , { } . new".split()) | {""}

# An expression never starts or ends with an assignment operator. `>>=` and
# `>>>=` lex as `>` tokens then `>=`, since `>` is always a token of its own.
_ASSIGNMENT_TAILS = frozenset("= += -= *= /= %= &= |= ^= <<= >=".split())
_ASSIGNMENT_HEADS = _ASSIGNMENT_TAILS | {">"}


def match_group(values: list[str], j: int) -> tuple[bool, int]:
    """Match the group that opens at token ``j`` (one of ``_CLOSERS``), given
    the token values.

    Returns ``(True, end)``, ``end`` being the index just past the group, or
    ``(False, k)`` if the group does not close properly. Inside any group
    `()[]{}` must nest. ``k`` is the index of the closer that breaks the
    nesting of a bracket opened inside the group, or ``j`` when the group's
    own bracket is the one left open. A `<` group ends at the `>` that
    balances its `<`s, counting only those outside the brackets it holds.
    """
    angle = values[j] == "<"
    marks = _ANGLE_MARKS if angle else _BRACKETS
    depth = 0
    expected: list[str] = []  # the closers of the open brackets, innermost last
    for k in range(j, len(values)):
        v = values[k]
        if v not in marks:
            continue
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


def new_type_end(tokens: Tokens, j: int) -> Optional[int]:
    """Index of the token after `new` and the qualified type name and type
    arguments that start at token ``j``: `(` for a class instance creation;
    None if the type arguments do not close or the tokens end. Like the
    rest of the parser, it accepts more than Java: the name may be
    missing."""
    kinds, values = tokens.kinds, tokens.values
    n = len(values)
    if j < n and kinds[j] == "ident":
        j += 1
        while j + 1 < n and values[j] == "." and kinds[j + 1] == "ident":
            j += 2
    if j < n and values[j] == "<":
        closed, j = match_group(values, j)
        if not closed:
            return None
    return j if j < n else None


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
        """This node and its descendants, in preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack += reversed(node.children)


class SyntaxTree:
    __slots__ = ("data", "tokens", "root", "methods", "indent", "eol")

    def __init__(self, data: bytes, tokens: Tokens, root: Node):
        self.data = data
        self.tokens = tokens
        self.root = root
        # (owner, method) pairs, filled once by `rules.javautil.methods_of`
        self.methods: Optional[tuple[tuple[Node, Node], ...]] = None
        # indent step and line end, each found once by `rules.javautil`
        self.indent: Optional[str] = None
        self.eol: Optional[str] = None

    def span_of(self, node: Node) -> SourceSpan:
        if node.kind == "compilation_unit":
            return SourceSpan(0, len(self.data))
        # every other node holds at least one token
        return SourceSpan(self.tokens.starts[node.tok_lo], self.tokens.ends[node.tok_hi - 1])

    def text_of(self, node_or_span: Union[Node, SourceSpan]) -> str:
        span = (
            node_or_span
            if isinstance(node_or_span, SourceSpan)
            else self.span_of(node_or_span)
        )
        return self.data[span.start : span.end].decode("utf-8")


class _Parser:
    def __init__(self, data: bytes, tokens: Tokens):
        self.data = data
        self.tokens = tokens
        self.kinds = tokens.kinds + _END
        self.values = tokens.values + _END
        self.n = len(tokens)
        self.i = 0

    # --- token helpers -------------------------------------------------

    def fail(self, message: str) -> ParseError:
        offset = self.tokens.starts[self.i] if self.i < self.n else len(self.data)
        return ParseError(offset, message)

    def at(self, value: str) -> bool:
        """True if the token at the cursor is ``value``."""
        return self.values[self.i] == value

    def advance(self) -> str:
        """Step past the token at the cursor, which the caller has tested;
        returns its value."""
        self.i += 1
        return self.values[self.i - 1]

    def expect(self, value: str) -> None:
        if self.values[self.i] != value:
            raise self.fail(f"expected {value!r}")
        self.i += 1

    def expect_ident(self, what: str) -> str:
        i = self.i
        if self.kinds[i] != "ident":
            raise self.fail(f"expected {what}")
        self.i = i + 1
        return self.values[i]

    # --- entry ---------------------------------------------------------

    def parse_compilation_unit(self) -> Node:
        lo = self.i
        children: list[Node] = []
        if self._at_package_decl():
            self._parse_package()
        while self.at("import"):
            self._parse_import()
        while self.i < self.n:
            if self.at(";"):
                self.i += 1
                continue
            children.append(self._parse_type_decl())
        return Node("compilation_unit", lo, self.i, children)

    def _at_package_decl(self) -> bool:
        # annotations may precede `package`
        kinds, values, n = self.kinds, self.values, self.n
        j = self.i
        while j < n and values[j] == "@":
            j += 1
            while j < n and kinds[j] in ("ident", "keyword"):
                j += 1
                if j < n and values[j] == ".":
                    j += 1
                else:
                    break
            if j < n and values[j] == "(":
                j = self._skip_group(j)
        return j < n and values[j] == "package"

    def _skip_group(self, j: int) -> int:
        """Index just past the group that opens at token ``j``. A class
        instance creation in it is checked as `_consume_expression` checks
        one, so a skipped run holds no `new B {`."""
        values = self.values
        closed, k = match_group(values, j)
        if not closed:
            if k == j:
                raise self.fail(f"unbalanced {_CLOSERS[values[j]]!r}")
            raise ParseError(self.tokens.starts[k], f"unexpected {values[k]!r}")
        # most groups hold no `new`, which their bytes show more cheaply
        # than the `ValueError` below
        starts = self.tokens.starts
        if self.data.find(b"new", starts[j], starts[k - 1]) < 0:
            return k
        try:
            while True:
                j = values.index("new", j, k) + 1
                self._new_type_end(j)
        except ValueError:  # no `new` left in the group
            return k

    def _new_type_end(self, j: int) -> Optional[int]:
        """`new_type_end`, failing at a `{` there: a class instance creation
        with no argument list, `new B {`."""
        k = new_type_end(self.tokens, j)
        if k is not None and self.values[k] == "{":
            raise ParseError(self.tokens.starts[k], "'(' or '[' expected")
        return k

    def _skip_optional_group(self, opener: str) -> None:
        """Skip the group at the cursor if it opens with ``opener``."""
        if self.values[self.i] == opener:
            self.i = self._skip_group(self.i)

    def _parse_package(self) -> None:
        while not self.at("package"):
            self.advance()
        self.advance()
        self._parse_qualified_name()
        self.expect(";")

    def _parse_import(self) -> None:
        self.advance()  # import
        if self.at("static"):
            self.advance()
        self._parse_qualified_name()
        if self.at("."):
            self.advance()
            self.expect("*")
        self.expect(";")

    def _parse_qualified_name(self) -> None:
        self.expect_ident("name")
        while self.values[self.i] == "." and self.kinds[self.i + 1] == "ident":
            self.i += 2

    # --- annotations / modifiers --------------------------------------

    def _parse_annotation(self) -> None:
        self.expect("@")
        self._parse_qualified_name()
        self._skip_optional_group("(")

    def _parse_modifiers(self) -> None:
        """Skip annotations and modifier keywords.

        Stops before `@interface`, so an `@` left at the cursor starts an
        annotation type declaration.
        """
        values = self.values
        while True:
            v = values[self.i]
            if v == "@" and values[self.i + 1] != "interface":
                self._parse_annotation()
            elif v in MODIFIER_KEYWORDS:
                self.i += 1
            else:
                return

    def _reject_record(self) -> None:
        """Fail at `record R(` and `record R<`, which would otherwise read
        as a method or variable R of type `record`, or fail further on."""
        i, values = self.i, self.values
        if values[i] == "record" and self.kinds[i + 1] == "ident" and values[i + 2] in ("(", "<"):
            raise self.fail("records are not supported")

    # --- types ---------------------------------------------------------

    def _skip_dims(self) -> None:
        """Skip the `[]` pairs after a type, a declarator or a parameter list."""
        while self.values[self.i] == "[" and self.values[self.i + 1] == "]":
            self.i += 2

    def _skip_type(self, check: bool = True) -> None:
        """Move the cursor past a type reference, `Outer<A>.Inner<B>[]` among
        them. With ``check``, its type arguments are checked as
        `_check_type_args` checks them; a probe that does not yet know the
        statement is a declaration checks them once it does."""
        values = self.values
        if values[self.i] in PRIMITIVE_TYPES:
            self.i += 1
        elif self.kinds[self.i] == "ident":
            self._parse_qualified_name()
            while values[self.i] == "<":
                lo = self.i
                self.i = self._skip_group(lo)
                if check:
                    self._check_type_args(lo)
                if values[self.i] != "." or self.kinds[self.i + 1] != "ident":
                    break
                self.i += 1
                self._parse_qualified_name()
        else:
            raise self.fail("expected type")
        self._skip_dims()

    def _check_type_args(self, lo: int) -> None:
        """Fail with javac's `illegal start of type` at the first token from
        ``lo`` up to the cursor that no type or type argument holds: one
        other than a name, a primitive type, `. , ? & [ ] < > extends super`
        and an annotation with its arguments, as the `1` of `List<1 + 2>`."""
        hi, self.i = self.i, lo
        while self.i < hi:
            v = self.values[self.i]
            if v == "@":
                self._parse_annotation()
            elif v in _TYPE_ARGUMENT_TOKENS or self.kinds[self.i] == "ident":
                self.i += 1
            else:
                raise self.fail("illegal start of type")

    def _parse_type(self) -> str:
        """Parse a type reference; returns its source text."""
        lo = self.i
        self._skip_type()
        return self._text(lo, self.i)

    def _text(self, lo: int, hi: int) -> str:
        """The source text from token ``lo`` to the end of token ``hi - 1``."""
        return self.data[self.tokens.starts[lo] : self.tokens.ends[hi - 1]].decode("utf-8")

    def _parse_type_list(self, keyword: str) -> Optional[str]:
        """Parse an optional `keyword Type, Type...` clause (`extends`,
        `implements`, `throws`); returns the first type's text, or None when
        the clause is absent."""
        if not self.at(keyword):
            return None
        self.advance()
        first = self._parse_type()
        while self.at(","):
            self.advance()
            self._skip_type()
        return first

    def _parse_type_params(self) -> list[str]:
        """Skip the type parameters at the cursor, if any; returns their
        names. A name is an identifier at the group's top level that an
        `extends`, `,` or `>` follows, and that is not part of a bound."""
        if not self.at("<"):
            return []
        lo = self.i
        self.i = self._skip_group(lo)
        self._check_type_args(lo)
        values = self.values
        names, depth = [], 0
        for k in range(lo, self.i):
            depth += (values[k] == "<") - (values[k] == ">")
            if (
                depth == 1
                and self.kinds[k] == "ident"
                and values[k + 1] in ("extends", ",", ">")
                and values[k - 1] not in ("extends", "&", ".")
            ):
                names.append(values[k])
        return names

    # --- type declarations ---------------------------------------------

    def _parse_type_decl(self) -> Node:
        lo = self.i
        self._parse_modifiers()
        if self.i >= self.n:
            raise self.fail("expected type declaration")
        if self.at("@"):  # `@interface`, see _parse_modifiers
            self.i += 2
            kind = "annotation_declaration"
        elif self.values[self.i] in _TYPE_KINDS:
            kind = _TYPE_KINDS[self.advance()]
        else:
            raise self.fail("expected class, interface or enum declaration")
        name = self.expect_ident("type name")
        type_params = self._parse_type_params()
        extends = self._parse_type_list("extends")  # interfaces may extend several
        self._parse_type_list("implements")
        self.expect("{")
        members = (
            self._parse_enum_body(name)
            if kind == "enum_declaration"
            else self._parse_members(name)
        )
        self.expect("}")
        props = {"name": name, "extends": extends, "type_params": type_params}
        return Node(kind, lo, self.i, members, props)

    def _parse_enum_body(self, enclosing: str) -> list[Node]:
        members: list[Node] = []
        # constants: Name, Name(args), Name { body }
        while self.i < self.n and not (self.at("}") or self.at(";")):
            self.expect_ident("enum constant")
            self._skip_optional_group("(")
            if self.at("{"):
                members.append(self._parse_anonymous_body())
            if not self.at(","):
                break
            self.advance()
        if self.at(";"):
            self.advance()
            members.extend(self._parse_members(enclosing))
        return members

    def _parse_members(self, enclosing: str) -> list[Node]:
        members: list[Node] = []
        while (v := self.values[self.i]) != "}" and v:  # "" is the end marker
            if v == ";":
                self.i += 1
            else:
                members.append(self._parse_member(enclosing))
        return members

    def _parse_member(self, enclosing: str) -> Node:
        lo = self.i
        self._parse_modifiers()
        v = self.values[self.i]
        if not v:
            raise self.fail("unexpected end of class body")
        # nested types, `@interface` included (see _parse_modifiers)
        if v in _TYPE_KINDS or v == "@":
            self.i = lo
            return self._parse_type_decl()
        # initializer block (static handled by modifiers)
        if v == "{":
            body = self._parse_block()
            return Node("initializer", lo, self.i, [body])
        self._reject_record()
        type_params = self._parse_type_params()  # of a generic method
        # constructor: Name (
        i, values = self.i, self.values
        if values[i] == enclosing and self.kinds[i] == "ident" and values[i + 1] == "(":
            self.i = i + 1
            return self._finish_method("constructor_declaration", lo, type_params)
        type_lo = i
        self._skip_type()
        self.expect_ident("member name")
        if values[self.i] == "(":
            return self._finish_method("method_declaration", lo, type_params)
        self.i -= 1  # the declarators start at the name just read
        type_text = self._text(type_lo, self.i)
        return self._parse_declarators("field_declaration", lo, type_text, "field name")

    def _finish_method(self, kind: str, lo: int, type_params: list[str]) -> Node:
        name_tok = self.i - 1  # the cursor is just past the name
        params = self._parse_params()
        self._skip_dims()
        self._parse_type_list("throws")
        body: Optional[Node] = None
        if self.at("{"):
            body = self._parse_block()
        else:
            if self.at("default"):  # annotation member default value
                self.advance()
                self._consume_expression()
            self.expect(";")
        name = self.values[name_tok]
        props = {
            "name": name,
            "params": params,
            "body": body,
            "name_tok": name_tok,
            "type_params": type_params,
        }
        return Node(kind, lo, self.i, [body] if body else [], props)

    def _parse_params(self) -> list[tuple[str, str]]:
        self.expect("(")
        params: list[tuple[str, str]] = []
        values = self.values
        while values[self.i] != ")":
            if params:  # a comma separates parameters; none may trail
                self.expect(",")
            # only annotations and `final` may precede a parameter's type
            while values[self.i] == "@":
                self._parse_annotation()
            if values[self.i] == "final":
                self.i += 1
            while values[self.i] == "@":
                self._parse_annotation()
            type_text = self._parse_type()
            if values[self.i] == "...":
                self.i += 1
                type_text += "..."
            if values[self.i] == "this":  # receiver parameter
                name = self.advance()
            else:
                name = self.expect_ident("parameter name")
            self._skip_dims()
            params.append((type_text, name))
        self.i += 1  # )
        return params

    def _parse_declarators(self, kind: str, lo: int, type_text: str, what: str) -> Node:
        """Parse `name[] = init, name...;` into a field or local variable
        declaration, whose children are the anonymous class bodies in the
        initializers; ``what`` names the identifier expected at each name."""
        children: list[Node] = []
        declarators: list[dict[str, Any]] = []
        values = self.values
        while True:
            name = self.expect_ident(what)
            name_tok = self.i - 1
            self._skip_dims()
            init_lo = init_hi = None
            if values[self.i] == "=":
                self.i += 1
                init_lo, init_hi = self._parse_initializer(children)
            declarators.append(
                {"name": name, "name_tok": name_tok, "init": (init_lo, init_hi)}
            )
            if values[self.i] != ",":
                break
            self.i += 1
        self.expect(";")
        props = {"type": type_text, "declarators": declarators}
        return Node(kind, lo, self.i, children, props)

    # --- statements ----------------------------------------------------

    def _parse_block(self) -> Node:
        lo = self.i
        self.expect("{")
        stmts: list[Node] = []
        values = self.values
        while (v := values[self.i]) != "}":
            if not v:  # the end marker
                raise self.fail("unexpected end of file in block")
            stmts.append(self._parse_statement())
        self.i += 1
        return Node("block", lo, self.i, stmts)

    def _parse_statement(self) -> Node:
        i = self.i
        v = self.values[i]
        if not v:  # the end marker
            raise self.fail("expected statement")
        if v == "{":
            return self._parse_block()
        if v == ";":
            self.i = i + 1
            return Node("empty_statement", i, i + 1)
        if self.kinds[i] == "ident":
            if self.values[i + 1] == ":":
                self.i = i + 2  # a labeled statement (JLS 14.7): `label: statement`
                body = self._parse_statement()
                return Node("labeled_statement", i, self.i, [body])
            self._reject_record()
        else:
            handler = _STATEMENT_PARSERS.get(v)
            if handler is not None:
                return handler(self)
            kind = _SIMPLE_STATEMENTS.get(v)
            if kind is not None:
                self.advance()
                return self._finish_simple_statement(kind, self.i - 1)
        if v == "@" or v in _LOCAL_TYPE_STARTS:
            saved = self.i
            self._parse_modifiers()
            self._reject_record()
            is_type = self.values[self.i] in _TYPE_KINDS
            self.i = saved
            if is_type:
                return self._parse_type_decl()
        decl = self._try_local_var_decl()
        if decl is not None:
            return decl
        return self._finish_simple_statement("expression_statement", self.i)

    def _finish_simple_statement(self, kind: str, lo: int) -> Node:
        """The `[expression];` that ends a statement begun at ``lo``."""
        children = self._consume_expression()
        self.expect(";")
        return Node(kind, lo, self.i, children)

    def _skip_parens(self, after: str) -> None:
        """Skip the parenthesised header that must follow keyword ``after``."""
        if not self.at("("):
            raise self.fail(f"expected '(' after {after}")
        self.i = self._skip_group(self.i)

    def _parse_if(self) -> Node:
        lo = self.i
        self.advance()
        cond_lo = self.i + 1
        self._skip_parens("if")
        props = {"cond": (cond_lo, self.i - 1)}
        children = [self._parse_statement()]
        if self.at("else"):
            self.advance()
            children.append(self._parse_statement())
        return Node("if_statement", lo, self.i, children, props)

    def _parse_loop(self) -> Node:
        """`for (...) body` or `while (...) body`; the keyword names the kind."""
        lo = self.i
        keyword = self.advance()
        self._skip_parens(keyword)
        body = self._parse_statement()
        return Node(f"{keyword}_statement", lo, self.i, [body])

    def _parse_do(self) -> Node:
        lo = self.i
        self.advance()
        body = self._parse_statement()
        if not self.at("while"):
            raise self.fail("expected 'while' after do body")
        self.advance()
        self._skip_parens("while")
        self.expect(";")
        return Node("do_statement", lo, self.i, [body])

    def _parse_try(self) -> Node:
        lo = self.i
        self.advance()
        self._skip_optional_group("(")  # try-with-resources header, kept opaque
        children = [self._parse_block()]
        while self.at("catch"):
            self.advance()
            self._skip_parens("catch")
            children.append(self._parse_block())
        if self.at("finally"):
            self.advance()
            children.append(self._parse_block())
        return Node("try_statement", lo, self.i, children)

    def _parse_switch(self) -> Node:
        lo = self.i
        self.advance()
        self._skip_parens("switch")
        if not self.at("{"):
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
        """The local variable declaration at the cursor, or None, the cursor
        unmoved, if the statement there is not one."""
        lo = self.i
        self._parse_modifiers()
        type_lo = self.i
        kinds, values = self.kinds, self.values
        if type_lo > lo:  # a modifier or annotation starts only a declaration
            self._skip_type()
        elif kinds[lo] != "ident" and values[lo] not in PRIMITIVE_TYPES:
            return None
        else:
            try:
                self._skip_type(check=False)
            except ParseError:  # an unclosed `<`, as in `a < b;`
                self.i = lo
                return None
            i = self.i
            if kinds[i] != "ident" or values[i + 1] not in ("=", ";", ",", "["):
                self.i = lo
                return None
            if i > type_lo + 1:  # a one-token type holds no type arguments
                self._check_type_args(type_lo)
        text = self._text(type_lo, self.i)
        return self._parse_declarators("local_variable_declaration", lo, text, "variable name")

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
        values = self.values
        lo = i = self.i  # the cursor; stored at each mark, where calls and failures read it
        open_at: list[int] = []  # indices of the open `(`/`[`, innermost last
        new_args: set[int] = set()  # indices of each `(` after `new Type`
        body_at = -1  # a `{` at this index follows `new Type(...)`
        while True:
            v = values[i]
            if v not in _EXPRESSION_MARKS:
                i += 1
                continue
            self.i = i
            if v == ".":
                if values[i + 1] == "<":
                    # explicit type arguments, `Collections.<K, V>emptyMap()`:
                    # a comma in them ends no declarator; an unclosed `<` is
                    # reported at the cursor, so it moves there first
                    self.i = i + 1
                    i = self._skip_group(i + 1)
                    continue
            elif v == "(" or v == "[":
                open_at.append(i)
            elif v == ")" or v == "]":
                if not open_at:
                    break
                j = open_at.pop()
                if _CLOSERS[values[j]] != v:
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
                    i = self.i
                else:
                    i = self._skip_group(i)
                continue
            elif v == "}":
                raise self.fail("unexpected '}' in expression")
            elif v == "new":
                k = self._new_type_end(i + 1)
                if k is not None and values[k] == "(":
                    # jump to the `(`: a comma in the type arguments ends
                    # no declarator
                    new_args.add(k)
                    i = k
                    continue
            elif not v:  # the end marker
                raise self.fail("unexpected end of file in expression")
            i += 1
        self.i = i
        if i > lo:
            if values[lo] in _ASSIGNMENT_HEADS:
                raise ParseError(self.tokens.starts[lo], "expected expression")
            if values[i - 1] in _ASSIGNMENT_TAILS:
                raise self.fail("expected expression")
        return children

    def _parse_anonymous_body(self) -> Node:
        lo = self.i
        self.advance()  # {
        members = self._parse_members("")
        self.expect("}")
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


def parse_java_source(data: bytes) -> tuple[Optional[SyntaxTree], list[ParseDiagnostic]]:
    """Parse Java source bytes into a lossless SyntaxTree.

    Returns (tree, []) on success or (None, diagnostics) on failure; the
    caller is expected to skip undecodable or unparseable files.
    """

    def parse() -> SyntaxTree:
        tokens = tokenize(data)
        return SyntaxTree(data, tokens, _Parser(data, tokens).parse_compilation_unit())

    return guarded_parse(data, parse)
