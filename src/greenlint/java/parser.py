"""Structural recursive-descent parser for Java source files.

The parser recognizes the declarations and statement structure the energy
rules need, and the calls and class instance creations inside expressions;
the rest of an expression stays a token run. It reads its own copies of the
lexer's parallel token lists, with end markers, by index, and tests an
operator or keyword by its value alone. Every node carries a token index
range into the lexer's lists, so the original bytes of any node are always
reachable. A probe for a local variable declaration does not raise when the
statement is an expression; a statement that starts `Name<` is always a
declaration (JLS 14.8).

One walker reads every token run the parser does not parse into statements
(expressions, headers, switch bodies, lambda bodies, array initializers,
annotation arguments), by recursive descent too: `_Parser._walk` reads an
expression, and `_scan` moves to the next closer or separator, handing each
bracket group on its way to `_group`, which walks the group by `_scan`. It
records a ``call`` node at each `name(...)` and a ``creation`` node at each
`new T(...)`. An anonymous class body in an expression is parsed as a full
class body, so rules see methods declared in anonymous adapters too; in the
other runs it stays tokens. An enum constant's body is an anonymous class
body as well, a child of the enum among its members.

Node kinds, and the props that rules read (token ranges are half-open
index pairs):

- every declaration below: ``modifiers``, the modifier keywords of its
  head in source order, without its annotations (a tuple);
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
- for_statement: ``parts``, the init, condition and update ranges of its
  header, or [] for an enhanced `for`;
- call: ``name``, ``name_tok``, ``receiver`` (the simple name before
  `.name(`, or None) and ``args``; its range runs from the receiver, or
  else the name, to the `)`;
- creation: ``type`` (the qualified name, without type arguments),
  ``args`` and ``body`` (its anonymous_class_body, or None); its range
  runs from `new` to the `)`, or to the end of its body;
- without props: compilation_unit, block, anonymous_class_body,
  initializer, and the labeled, expression, empty, return, throw, break,
  continue, assert, while, do, try, switch and synchronized statements.

``args`` are the token ranges of the arguments, split at the commas
between them: a range is empty where two commas meet, and an empty last
one is left out, so `f()` has none. Nodes nest: the calls and creations
in an argument list are that node's children, an anonymous class body is
its creation's child, and those in a declaration, a statement or its
header are its children. Children are in source order, so the nodes of a
`while` or `for` header come before its body.

Package and import declarations and annotations are checked and skipped;
no node holds them, nor the calls in an annotation's or an enum
constant's arguments. Type arguments and type parameters are read by their
grammar (JLS 4.5.1, 8.1.2) in one pass, wherever they appear: in a
declaration's types and in `new T<...>(`, `new <T>A(` and `a.<T>f()`. Only
the type of a `new` with arguments may end in the diamond `<>`. Any other
`<` in an expression is an operator to the walker. A block's or a type's
closing brace is its last token.
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

# The tokens that start a declaration in a block. javac's parser refuses
# any other modifier keyword there, but takes any after one of these.
_LOCAL_DECLARATION_STARTS = frozenset(_TYPE_KINDS) | {"@", "final", "abstract", "strictfp"}

# A declaration's first token index and its modifier keywords.
_Head = tuple[int, tuple[str, ...]]

_CLOSERS = {"(": ")", "[": "]", "{": "}"}

# The parser's copies of the token lists end in these markers (the tree keeps
# the lexer's). No token spells "", so a test of the token up to two past the
# cursor, or before the first, needs no bound check.
_END = ["", "", ""]
# The tokens `_scan` acts on, the end marker among them.
_WALK_MARKS = frozenset("( ) [ ] { } ; , < new".split()) | {""}

# An expression never starts or ends with an assignment operator. `>>=` and
# `>>>=` lex as `>` tokens then `>=`, since `>` is always a token of its own.
_ASSIGNMENT_TAILS = frozenset("= += -= *= /= %= &= |= ^= <<= >=".split())
_ASSIGNMENT_HEADS = _ASSIGNMENT_TAILS | {">"}


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
        children: list[Node] = []
        while self.at("@") and self.values[self.i + 1] != "interface":
            self._parse_annotation()
        if self.at("package"):
            self.i += 1
            self._parse_qualified_name()
            self.expect(";")
        else:
            self.i = 0  # the annotations belong to the first type declaration
        while self.at("import"):
            self._parse_import()
        while self.i < self.n:
            if self.at(";"):
                self.i += 1
                continue
            children.append(self._parse_type_decl())
        return Node("compilation_unit", 0, self.i, children)

    def _walk_parens(
        self, children: list[Node], after: str = "", sep: Optional[str] = None
    ) -> list[tuple[int, int]]:
        """Walk the `(` group at the cursor, adding the nodes in it to
        ``children``; returns the ranges between its top-level ``sep``s.
        The group may be missing unless it must follow keyword ``after``."""
        if self.values[self.i] == "(":
            return self._group(children, self.i, None, sep)
        if after:
            raise self.fail(f"expected '(' after {after}")
        return []

    def _parse_import(self) -> None:
        self.advance()  # import
        if self.at("static"):
            self.advance()
        self._parse_qualified_name()
        if self.at("."):
            self.advance()
            self.expect("*")
        self.expect(";")

    def _parse_qualified_name(self, what: str = "name", annotated: bool = False) -> str:
        """Read `a.b.c`; returns it without annotations. Only in a type
        (``annotated``) may annotations follow a `.`, as in `a.@A b`:
        javac's parser reads them there alone."""
        name = self.expect_ident(what)
        values = self.values
        while values[self.i] == ".":
            if self.kinds[self.i + 1] == "ident":
                name += "." + values[self.i + 1]
                self.i += 2
            elif annotated and values[self.i + 1] == "@":
                self.i += 1
                while values[self.i] == "@":
                    self._parse_annotation()
                name += "." + self.expect_ident(what)
            else:
                break
        return name

    # --- annotations / modifiers --------------------------------------

    def _parse_annotation(self) -> None:
        self.expect("@")
        self._parse_qualified_name()
        self._walk_parens([])

    def _parse_modifiers(self) -> tuple[str, ...]:
        """Read annotations and modifier keywords; returns the keywords in
        source order. A repeated one fails, as in javac's parser.

        Stops before `@interface`, so an `@` left at the cursor starts an
        annotation type declaration.
        """
        values = self.values
        keywords: tuple[str, ...] = ()
        while True:
            v = values[self.i]
            if v == "@" and values[self.i + 1] != "interface":
                self._parse_annotation()
            elif v in MODIFIER_KEYWORDS:
                if v in keywords:
                    raise self.fail("repeated modifier")
                keywords += (v,)
                self.i += 1
            else:
                return keywords

    def _parse_final(self) -> None:
        """Read the annotations and the one `final` that javac's parser
        takes before the type of a parameter or an exception parameter."""
        while self.at("@"):
            self._parse_annotation()
        if self.at("final"):
            self.i += 1
            while self.at("@"):
                self._parse_annotation()

    def _reject_record(self) -> None:
        """Fail at `record R(` and `record R<`, which would otherwise read
        as a method or variable R of type `record`, or fail further on."""
        i, values = self.i, self.values
        if values[i] == "record" and self.kinds[i + 1] == "ident" and values[i + 2] in ("(", "<"):
            raise self.fail("records are not supported")

    # --- types ---------------------------------------------------------

    def _skip_dims(self) -> None:
        """Skip the `[]` pairs after a type, a declarator or a parameter
        list, each after its annotations, as in `int @A [] @B []`."""
        values = self.values
        while (v := values[self.i]) == "[" or v == "@":
            j = self.i
            while values[self.i] == "@":
                self._parse_annotation()
            if values[self.i] != "[" or values[self.i + 1] != "]":
                self.i = j
                return
            self.i += 2

    def _skip_type(self, dims: bool = True, creation: bool = False) -> str:
        """Move the cursor past a type reference, `Outer<A>.Inner<B>[]` among
        them, or without ``dims`` past all but its `[]` pairs; returns its
        qualified name without annotations and type arguments, `Outer.Inner`.
        Its type arguments are read by `_skip_type_args`; the last may be
        the diamond `<>` of a ``creation``."""
        values = self.values
        if values[self.i] in PRIMITIVE_TYPES:
            name = self.advance()
        elif self.kinds[self.i] == "ident":
            name = self._parse_qualified_name(annotated=True)
            while values[self.i] == "<":
                self._skip_type_args(creation)
                if values[self.i] != ".":
                    break
                self.i += 1
                while values[self.i] == "@":
                    self._parse_annotation()
                name += "." + self._parse_qualified_name(annotated=True)
        else:
            raise self.fail("expected type")
        if dims:
            self._skip_dims()
        return name

    def _skip_type_args(self, diamond: bool = False, wildcard: bool = True) -> None:
        """Read the type arguments `<A, ? extends B>` at the cursor (JLS
        4.5.1), each by `_skip_type_arg`, failing at the token that is no
        `,` or `>` after one, as javac's parser does. With ``diamond``,
        `<>` may end the type of a `new` that takes arguments; without
        ``wildcard``, as for the explicit ones of a call or a constructor,
        no `?` may stand for one."""
        values = self.values
        self.i += 1
        if diamond and values[self.i] == ">":
            self.i += 1
            if values[self.i] == "[":
                raise ParseError(self.tokens.starts[self.i - 2], "cannot create array with '<>'")
            if values[self.i] == ".":
                raise self.fail("illegal start of type")
            return
        self._skip_type_arg(wildcard)
        while values[self.i] == ",":
            self.i += 1
            self._skip_type_arg(wildcard)
        self.expect(">")

    def _skip_type_arg(self, wildcard: bool = False) -> None:
        """Read annotations, then a type, or with ``wildcard`` a `?` and an
        optional `extends` or `super` bound; fails with javac's `illegal
        start of type` where neither starts, as at the `1` of `List<1>`."""
        while self.values[self.i] == "@":
            self._parse_annotation()
        v = self.values[self.i]
        if v == "?" and wildcard:
            self.i += 1
            if self.values[self.i] in ("extends", "super"):
                self.i += 1
                self._skip_type_arg()
        elif v in PRIMITIVE_TYPES or self.kinds[self.i] == "ident":
            self._skip_type()
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
        `implements`, `throws`), each type after its annotations; returns
        the first type's text, without them, or None when the clause is
        absent. A `throws` type is a qualified name, as javac reads it."""
        first = None
        while self.at("," if first else keyword):
            self.i += 1
            while self.at("@"):
                self._parse_annotation()
            lo = self.i
            if keyword == "throws":
                self._parse_qualified_name("type", annotated=True)
            else:
                self._skip_type()
            first = first or self._text(lo, self.i)
        return first

    def _parse_type_params(self) -> list[str]:
        """Read the type parameters at the cursor, if any, as in
        `<@A T extends B & C, U>`; returns their names. A missing `>` fails
        just past the last parameter, where javac's parser does."""
        values = self.values
        names: list[str] = []
        if values[self.i] != "<":
            return names
        while not names or values[self.i] == ",":
            self.i += 1
            while values[self.i] == "@":
                self._parse_annotation()
            names.append(self.expect_ident("type parameter name"))
            bound = "extends"
            while values[self.i] == bound:
                self.i += 1
                self._skip_type_arg()
                bound = "&"
        if values[self.i] != ">":
            raise ParseError(self.tokens.ends[self.i - 1], "expected '>'")
        self.i += 1
        return names

    # --- type declarations ---------------------------------------------

    def _parse_type_decl(self, head: Optional[_Head] = None) -> Node:
        """The type declaration at the cursor; ``head`` is its start and
        modifiers when the caller has read them."""
        lo, modifiers = head or (self.i, self._parse_modifiers())
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
        props = dict(name=name, extends=extends, type_params=type_params, modifiers=modifiers)
        return Node(kind, lo, self.i, members, props)

    def _parse_enum_body(self, enclosing: str) -> list[Node]:
        members: list[Node] = []
        # constants: Name, Name(args), Name { body }
        while self.i < self.n and not (self.at("}") or self.at(";")):
            self.expect_ident("enum constant")
            self._walk_parens([])
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
        head = (lo, self._parse_modifiers())
        v = self.values[self.i]
        if not v:
            raise self.fail("unexpected end of class body")
        # nested types, `@interface` included (see _parse_modifiers)
        if v in _TYPE_KINDS or v == "@":
            return self._parse_type_decl(head)
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
            return self._finish_method("constructor_declaration", head, type_params)
        type_lo = i
        self._skip_type()
        self.expect_ident("member name")
        if values[self.i] == "(":
            return self._finish_method("method_declaration", head, type_params)
        self.i -= 1  # the declarators start at the name just read
        type_text = self._text(type_lo, self.i)
        return self._parse_declarators("field_declaration", head, type_text, "field name")

    def _finish_method(self, kind: str, head: _Head, type_params: list[str]) -> Node:
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
                self._walk([])
            self.expect(";")
        name = self.values[name_tok]
        props = {
            "name": name,
            "params": params,
            "body": body,
            "name_tok": name_tok,
            "type_params": type_params,
            "modifiers": head[1],
        }
        return Node(kind, head[0], self.i, [body] if body else [], props)

    def _parse_params(self) -> list[tuple[str, str]]:
        self.expect("(")
        params: list[tuple[str, str]] = []
        values = self.values
        while values[self.i] != ")":
            if params:  # a comma separates parameters; none may trail
                self.expect(",")
            self._parse_final()
            type_text = self._parse_type()
            j = self.i
            while values[self.i] == "@":  # as in `String @A ... a`
                self._parse_annotation()
            if values[self.i] == "...":
                self.i += 1
                type_text += "..."
            else:  # only a `...` takes them; the name check fails at the `@`
                self.i = j
            if values[self.i] == "this":  # receiver parameter
                name = self.advance()
            else:
                name = self.expect_ident("parameter name")
            self._skip_dims()
            params.append((type_text, name))
        self.i += 1  # )
        return params

    def _parse_declarators(self, kind: str, head: _Head, type_text: str, what: str) -> Node:
        """Parse `name[] = init, name...;` into a field or local variable
        declaration that ``head`` starts, whose children are the anonymous
        class bodies in the initializers; ``what`` names the identifier
        expected at each name."""
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
        props = {"type": type_text, "declarators": declarators, "modifiers": head[1]}
        return Node(kind, head[0], self.i, children, props)

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

    def _parse_statement(self, alone: bool = False) -> Node:
        """The statement at the cursor. One that is ``alone``, the body of
        `if`, `else`, a loop or a label, may not be a declaration."""
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
                body = self._parse_statement(alone=True)
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
        if v in _LOCAL_DECLARATION_STARTS:
            head = (i, self._parse_modifiers())
            self._reject_record()
            if self.values[self.i] in _TYPE_KINDS or self.at("@"):  # `@interface`
                if alone:
                    self.i += self.at("@")  # javac points at `interface`
                    raise self.fail("class, interface or enum declaration not allowed here")
                return self._parse_type_decl(head)
            if v == "abstract" or v == "strictfp":
                raise self.fail("expected class, interface or enum declaration")
            return self._try_local_var_decl(head, alone)
        if v in MODIFIER_KEYWORDS:
            raise self.fail("orphaned default" if v == "default" else "illegal start of expression")
        decl = self._try_local_var_decl(alone=alone)
        if decl is not None:
            return decl
        return self._finish_simple_statement("expression_statement", self.i)

    def _finish_simple_statement(self, kind: str, lo: int) -> Node:
        """The `[expression];` that ends a statement begun at ``lo``."""
        children: list[Node] = []
        self._walk(children)
        self.expect(";")
        return Node(kind, lo, self.i, children)

    def _parse_if(self) -> Node:
        lo = self.i
        self.advance()
        cond_lo = self.i + 1
        children: list[Node] = []
        self._walk_parens(children, "if")
        props = {"cond": (cond_lo, self.i - 1)}
        children.append(self._parse_statement(alone=True))
        if self.at("else"):
            self.advance()
            children.append(self._parse_statement(alone=True))
        return Node("if_statement", lo, self.i, children, props)

    def _parse_loop(self) -> Node:
        """`for (...) body` or `while (...) body`; the keyword names the kind."""
        lo = self.i
        keyword = self.advance()
        children: list[Node] = []
        parts = self._walk_parens(children, keyword, ";" if keyword == "for" else None)
        # javac's parser reads `(init; cond; update)` or `(T x : y)`, so a
        # header with one `;` or more than two fails where its shape breaks
        semis = [hi for _, hi in parts if self.values[hi] == ";"]
        if len(semis) == 1 or len(semis) > 2:
            hi, closer = (semis[2], "')'") if len(semis) > 2 else (self.i - 1, "';'")
            if self.values[hi - 1] == ";":  # no condition, or a `;` for an update
                raise ParseError(self.tokens.starts[hi], "illegal start of expression")
            raise ParseError(self.tokens.ends[hi - 1], f"expected {closer}")
        children.append(self._parse_statement(alone=True))
        if keyword == "while":
            return Node("while_statement", lo, self.i, children)
        if len(parts) == 2:  # an empty update, left out as an empty last range
            parts.append((parts[1][1] + 1, parts[1][1] + 1))
        props = {"parts": parts if len(parts) > 1 else []}
        return Node("for_statement", lo, self.i, children, props)

    def _parse_do(self) -> Node:
        lo = self.i
        self.advance()
        children = [self._parse_statement(alone=True)]
        if not self.at("while"):
            raise self.fail("expected 'while' after do body")
        self.advance()
        self._walk_parens(children, "while")
        self.expect(";")
        return Node("do_statement", lo, self.i, children)

    def _parse_try(self) -> Node:
        lo = self.i
        self.advance()
        children: list[Node] = []
        self._walk_parens(children)  # try-with-resources header
        children.append(self._parse_block())
        while self.at("catch"):
            self.advance()
            self._parse_catch_parameter()
            children.append(self._parse_block())
        if self.at("finally"):
            self.advance()
            children.append(self._parse_block())
        return Node("try_statement", lo, self.i, children)

    def _parse_catch_parameter(self) -> None:
        """`( final-or-annotations Type | Type ... name[] )`, its types
        checked as a declaration's are. javac's parser refuses any other
        modifier there."""
        if not self.at("("):
            raise self.fail("expected '(' after catch")
        self.i += 1
        self._parse_final()
        self._skip_type()
        while self.at("|"):
            self.advance()
            self._skip_type()
        self.expect_ident("exception parameter name")
        self._skip_dims()
        self.expect(")")

    def _parse_switch(self) -> Node:
        lo = self.i
        self.advance()
        children: list[Node] = []
        self._walk_parens(children, "switch")
        if not self.at("{"):
            raise self.fail("expected '{' after switch header")
        self._group(children, self.i, None, None)  # the case bodies stay a token run
        return Node("switch_statement", lo, self.i, children)

    def _parse_synchronized(self) -> Node:
        lo = self.i
        self.advance()
        children: list[Node] = []
        self._walk_parens(children)
        children.append(self._parse_block())
        return Node("synchronized_statement", lo, self.i, children)

    def _try_local_var_decl(
        self, head: Optional[_Head] = None, alone: bool = False
    ) -> Optional[Node]:
        """The local variable declaration at the cursor, or None, the cursor
        unmoved, if the statement there is not one. ``head``, the start and
        modifiers of a declaration whose modifiers the caller has read,
        makes it one, as does a `<` after the name it starts with: no
        expression statement starts `Name<` (JLS 14.8), so `a < b;` fails
        as javac's parser fails it. A statement that is ``alone`` fails if
        it is one."""
        type_lo = self.i
        kinds, values = self.kinds, self.values
        if head is None and kinds[type_lo] != "ident" and values[type_lo] not in PRIMITIVE_TYPES:
            return None
        self._skip_type()
        i = self.i
        if (
            head is None
            and (kinds[i] != "ident" or values[i + 1] not in ("=", ";", ",", "["))
            and "<" not in values[type_lo:i]
        ):
            if values[i] != "." and values[type_lo] in PRIMITIVE_TYPES:
                # only `int.class` and the like start an expression statement
                raise ParseError(self.tokens.starts[type_lo], "not a statement")
            self.i = type_lo
            return None
        if alone:
            raise self.fail("variable declaration not allowed here")
        text = self._text(type_lo, self.i)
        head = head or (type_lo, ())
        return self._parse_declarators("local_variable_declaration", head, text, "variable name")

    def _parse_initializer(self, children: list[Node]) -> tuple[int, int]:
        """Consume a variable initializer after its '='; returns its token
        range and adds the nodes in it to `children`."""
        lo = self.i
        self._walk(children, stop_at_comma=True)
        if self.i == lo:
            raise self.fail("expected expression")
        return lo, self.i

    def _walk(self, children: list[Node], stop_at_comma: bool = False) -> None:
        """Walk the expression at the cursor, adding the calls and creations
        in it to ``children``. It ends before a `;`, a top-level `,` if
        ``stop_at_comma``, or a `)` or `]` that closes no bracket of its
        own, and fails with "expected expression" if it starts or ends with
        an assignment operator."""
        values = self.values
        lo = self.i
        while True:
            self._scan(children, None)
            v = values[self.i]
            if v == "," and not stop_at_comma:
                self.i += 1
            elif v == "}":
                raise self.fail("unexpected '}' in expression")
            elif not v:  # the end marker
                raise self.fail("unexpected end of file in expression")
            else:
                break
        i = self.i
        if i > lo:
            if values[lo] in _ASSIGNMENT_HEADS:
                raise ParseError(self.tokens.starts[lo], "expected expression")
            if values[i - 1] in _ASSIGNMENT_TAILS:
                raise self.fail("expected expression")

    def _scan(self, children: list[Node], root: Optional[int]) -> None:
        """Move the cursor to the next `)`, `]`, `}`, `;`, `,` or end
        marker, walking each bracket group on the way by `_group`; a `{`
        group becomes the ``root`` if there is none. The type arguments of
        `new T<...>(`, `new <T>A(` and `a.<T>f()` are read by
        `_skip_type_args`, and after the type of a `new` only its `(`, or
        else a `[` after annotations, may follow."""
        values, kinds = self.values, self.kinds
        i = self.i
        while True:
            v = values[i]
            if v not in _WALK_MARKS:
                i += 1
                continue
            if v == "(" or v == "[" or v == "{":
                self.i = i
                if v == "(" and kinds[i - 1] == "ident":
                    at = i - 3 if values[i - 2] == "." and kinds[i - 3] == "ident" else i - 1
                    props = {"name": values[i - 1], "name_tok": i - 1, "args": None}
                    props["receiver"] = values[at] if at < i - 1 else None
                    self._group(children, root, Node("call", at, 0, [], props), ",")
                else:
                    self._group(children, i if root is None and v == "{" else root, None, None)
            elif v == "<":
                if values[i - 1] == ".":  # explicit type arguments, `a.<T>f()`
                    self.i = i
                    self._skip_type_args(wildcard=False)
                else:
                    self.i = i + 1
            elif v == "new":
                self.i = i + 1
                if values[i + 1] == "<":  # constructor type arguments, `new <T>A()`
                    self._skip_type_args(wildcard=False)
                while values[self.i] == "@":
                    self._parse_annotation()
                if kinds[self.i] == "ident" or values[self.i] in PRIMITIVE_TYPES:  # not `A::new`
                    name = self._skip_type(dims=False, creation=True)
                    if values[self.i] == "(" and name not in PRIMITIVE_TYPES:
                        props = {"type": name, "args": None, "body": None}
                        self._group(children, root, Node("creation", i, 0, [], props), ",")
                    else:
                        array_only = name in PRIMITIVE_TYPES or values[self.i] == "@"
                        while values[self.i] == "@":
                            self._parse_annotation()
                        if values[self.i] != "[":
                            raise self.fail("'[' expected" if array_only else "'(' or '[' expected")
                elif values[self.i] == "{":  # `new {1}` names no type
                    raise self.fail("'(' or '[' expected")
            else:  # `) ] } ; ,` or the end marker
                self.i = i
                return
            i = self.i

    def _group(
        self, children: list[Node], root: Optional[int], node: Optional[Node], sep: Optional[str]
    ) -> list[tuple[int, int]]:
        """Walk the bracket group at the cursor; returns the ranges between
        its top-level ``sep``s. Its nodes go to the children of ``node``, a
        call or creation it holds the arguments of, which joins
        ``children`` when the group closes, or else to ``children``.
        ``root`` is the opener of the header, switch body, lambda body or
        array initializer the group lies in, or None: a creation's anonymous
        class body is parsed only outside one, and a closer that meets the
        root's own bracket, or the end of the file, fails at it as
        `unbalanced`."""
        values = self.values
        opener = self.i
        closer = _CLOSERS[values[opener]]
        inner = children if node is None else node.children
        ranges: list[tuple[int, int]] = []
        lo = self.i = opener + 1
        while True:
            self._scan(inner, root)
            i = self.i
            v = values[i]
            if v == closer:
                break
            if v == sep:
                ranges.append((lo, i))
                lo = i + 1
            elif v != ";" and v != ",":  # another bracket's closer, or the end marker
                if root is None:
                    if not v:
                        raise self.fail("unexpected end of file in expression")
                    raise ParseError(self.tokens.starts[i], f"unexpected {v!r} in expression")
                if v and opener != root:
                    raise ParseError(self.tokens.starts[i], f"unexpected {v!r}")
                raise ParseError(self.tokens.starts[root], f"unbalanced {_CLOSERS[values[root]]!r}")
            self.i = i + 1
        if lo < i:
            ranges.append((lo, i))
        self.i = i + 1
        if node is not None:
            node.tok_hi = i + 1
            node.props["args"] = ranges
            children.append(node)
            if node.kind == "creation" and values[i + 1] == "{" and root is None:
                body = self._parse_anonymous_body()
                node.children.append(body)
                node.props["body"] = body
                node.tok_hi = self.i
        return ranges

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
