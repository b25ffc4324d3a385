"""Recursive-descent parser for Java source files.

The parser recognizes the declarations and statement structure the energy
rules need, and reads every expression by its grammar (JLS chapter 15). It
reads its own copies of the lexer's parallel token lists, with end markers,
by index, and tests an operator or keyword by its value alone. Every node
carries a token index range into the lexer's lists, so the original bytes
of any node are always reachable. A probe for a local variable declaration
does not raise when the statement is an expression; a statement that
starts `Name<`, or with a type and then a name, is always a declaration
(JLS 14.4, 14.8).

Expressions are read by top-down operator precedence (Pratt, POPL 1973):
`_Parser._expr` reads an operand with its prefix and postfix operators,
then each infix operator that binds tighter than its caller's, by one table
of binding powers (`_INFIX`), and the operand to its right. After a `(`,
the tokens up to its `)` and the one after tell a cast, a lambda and a
parenthesized expression apart, by the table of javac's `analyzeParens`.
Abutting `>` tokens join into shift operators. The `for` header, the
resources of a `try`, annotation element values, array initializers and
the labels and bodies of a switch are read by their grammar too. Only calls
and class instance creations are kept from an expression: a ``call`` node
at each `name(...)` and a ``creation`` node at each `new T(...)`, with its
anonymous class body parsed as a full class body, so rules see methods
declared in anonymous adapters too. The statements of a switch body or a
lambda body are parsed but not kept; their outermost calls and creations
are. An enum constant's body is an anonymous class body as well, a child
of the enum among its members.

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
  (dicts of ``name``, ``name_tok``, ``init``, the initializer's token
  range or (None, None), and ``value``, the initializer's value: a
  (node, cast) entry per arm of its top-level `?:`, or one if it has
  none, where node is the call or creation the arm is once parentheses
  and casts are stripped, or None, and cast tells whether a cast was;
  [] without an initializer);
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
  initializer, and the labeled, expression, empty, return, throw, yield,
  break, continue, assert, while, do, try, switch and synchronized
  statements.

``args`` are the token ranges of the arguments, so `f()` has none. Nodes
nest: the calls and creations in an argument list are that node's
children, an anonymous class body is its creation's child, and those in a
declaration, a statement or its header are its children. Children are in
source order, so the nodes of a `while` or `for` header come before its
body.

Package and import declarations and annotations are checked and skipped;
no node holds them, nor the calls in an annotation's or an enum
constant's arguments. Type arguments and type parameters are read by their
grammar (JLS 4.5.1, 8.1.2) in one pass, wherever they appear: in a
declaration's types and in `new T<...>(`, `new <T>A(`, `a.<T>f()` and
`List<T>::m`. Only the type of a `new` with arguments may end in the
diamond `<>`. Any other `<` in an expression is an operator. A block's or
a type's closing brace is its last token.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional, Union

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

# The parser's copies of the token lists end in these markers (the tree keeps
# the lexer's). No token spells "", so a test of the token up to two past the
# cursor, or before the first, needs no bound check.
_END = ["", "", ""]

# The binding power of each infix operator (JLS 15.17-15.26): an operator
# takes the operand on its right while its power exceeds that of the
# operator holding it. Assignment is right-associative, and `?:` reads its
# arms by its own rule; the rest are left-associative. `>>`, `>>>`, `>>=`
# and `>>>=` lex as abutting `>` and `>=` tokens (see `_shift`).
_ASSIGN = 1
_INFIX = {
    **dict.fromkeys("= += -= *= /= %= &= |= ^= <<= >>= >>>=".split(), _ASSIGN),
    "?": 2,
    "||": 3,
    "&&": 4,
    "|": 5,
    "^": 6,
    "&": 7,
    **dict.fromkeys("== !=".split(), 8),
    **dict.fromkeys("< > <= >= instanceof".split(), 9),
    **dict.fromkeys("<< >> >>>".split(), 10),
    **dict.fromkeys("+ -".split(), 11),
    **dict.fromkeys("* / %".split(), 12),
}
# The power a cast's and a prefix operator's operand is read at: above all.
_UNARY = 13
_PREFIX = frozenset("+ - ! ~ ++ --".split())

# The tokens after the `)` of a parenthesized name that make it a cast, as
# in `(T) x`; before any other, as in `(a) + b`, it is an expression.
_CAST_FOLLOWERS = frozenset("! ~ ( this super new switch".split()) | PRIMITIVE_TYPES
_OPERAND_KINDS = frozenset(("ident", "number", "string", "char"))
# Literals that lex as identifiers but name nothing (JLS 3.9).
_LITERAL_NAMES = frozenset(("true", "false", "null"))

# The tokens after `yield` that make it a yield statement (JLS 14.21), as
# javac's parser takes them.
_YIELD_FOLLOWERS = frozenset("+ - ! ~ ++ -- ( new switch this super ;".split())


def _entry(value: Any) -> tuple[Optional[Node], bool]:
    """The value entry of an expression whose value `_Parser._expr`
    returned: the call or creation node it is once parentheses and casts
    are stripped, or None, and whether a cast was stripped."""
    if type(value) is tuple:
        return value
    return (value, False) if type(value) is Node else (None, False)


def _entries(value: Any) -> list[tuple[Optional[Node], bool]]:
    """The value entries of an expression: one per arm of its top-level
    `?:`, or else one."""
    return value if type(value) is list else [_entry(value)]


def _outermost(node: Node, out: list[Node]) -> None:
    """Add ``node`` to ``out`` if it is a call or a creation, or else the
    calls and creations under it that lie in no other one, in source order."""
    stack = [node]
    while stack:
        n = stack.pop()
        if n.kind == "call" or n.kind == "creation":
            out.append(n)
        else:
            stack += reversed(n.children)


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
        # in a `case` label, where `x ->` ends the label, not a lambda's parameter
        self.in_label = False

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
        if self.kinds[i] != "ident" or self.values[i] in _LITERAL_NAMES:
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

    def _try(self, i: int, read: Callable[[], Any]) -> Optional[int]:
        """Where ``read`` leaves the cursor when it starts at token ``i``, or
        None if it fails there; the parser's state stays as it is."""
        at, in_label = self.i, self.in_label
        self.i = i
        try:
            read()
            return self.i
        except ParseError:
            return None
        finally:
            self.i, self.in_label = at, in_label

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
        """Read an annotation (JLS 9.7): its element values, a lone one or
        `name = value` pairs, are read but no node keeps them."""
        self.expect("@")
        self._parse_qualified_name()
        if self.values[self.i] != "(":
            return
        self.i += 1
        if self.kinds[self.i] == "ident" and self.values[self.i + 1] == "=":
            pairs = True
            while pairs:
                self.expect_ident("element name")
                self.expect("=")
                self._element_value()
                pairs = self.at(",")
                self.i += pairs
        elif not self.at(")"):
            self._element_value()
        self._close(")")

    def _element_value(self) -> None:
        """An annotation, `{` element values `}` or a conditional expression."""
        values = self.values
        if values[self.i] == "@":
            self._parse_annotation()
        elif values[self.i] == "{":
            self.i += 2 if values[self.i + 1 : self.i + 3] == [",", "}"] else 1  # `{,}` is empty
            while values[self.i] != "}":
                self._element_value()
                if values[self.i] != ",":
                    break
                self.i += 1
            self._close("}")
        else:
            self._expr([], _ASSIGN)

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
            if self.at("("):
                self._arguments([])
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
                self._element_value()
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
        declaration that ``head`` starts, whose children are the calls and
        creations in the initializers; ``what`` names the identifier
        expected at each name."""
        children: list[Node] = []
        declarators = self._declarators(children, what)
        if declarators[-1]["init"][0] is None:
            self.expect(";")
        else:
            self._close(";")
        props = {"type": type_text, "declarators": declarators, "modifiers": head[1]}
        return Node(kind, head[0], self.i, children, props)

    def _declarators(self, out: list[Node], what: str) -> list[dict[str, Any]]:
        """Read `name[] = init, name...`, adding the calls and creations in
        the initializers to ``out``; returns a dict per declarator of its
        ``name``, ``name_tok``, ``init`` (the initializer's token range, or
        (None, None)) and ``value`` (its value entries, see `_entries`, or [])."""
        declarators: list[dict[str, Any]] = []
        values = self.values
        while True:
            name = self.expect_ident(what)
            name_tok = self.i - 1
            self._skip_dims()
            init: tuple[Optional[int], Optional[int]] = (None, None)
            value: list[tuple[Optional[Node], bool]] = []
            if values[self.i] == "=":
                lo = self.i = self.i + 1
                value = _entries(self._var_init(out))
                init = (lo, self.i)
            declarators.append({"name": name, "name_tok": name_tok, "init": init, "value": value})
            if values[self.i] != ",":
                return declarators
            self.i += 1

    def _var_init(self, out: list[Node]) -> Any:
        """Read a variable initializer, an expression or an array
        initializer `{...}` (JLS 10.6); returns its value (see `_expr`)."""
        values = self.values
        if values[self.i] != "{":
            return self._expr(out)
        self.i += 2 if values[self.i + 1 : self.i + 3] == [",", "}"] else 1  # `{,}` is empty
        while values[self.i] != "}":
            self._var_init(out)
            if values[self.i] != ",":
                break
            self.i += 1
        self._close("}")
        return None

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
            if v == "yield" and (
                self.kinds[i + 1] in _OPERAND_KINDS or self.values[i + 1] in _YIELD_FOLLOWERS
            ):
                self.i = i + 1
                return self._finish_simple_statement("yield_statement", i)
            self._reject_record()
        else:
            handler = _STATEMENT_PARSERS.get(v)
            if handler is not None:
                return handler(self)
            kind = _SIMPLE_STATEMENTS.get(v)
            if kind is not None:
                self.advance()
                return self._finish_simple_statement(kind, self.i - 1)
        declared = v in _LOCAL_DECLARATION_STARTS
        head: _Head = (i, ())
        if declared:
            head = (i, self._parse_modifiers())
            self._reject_record()
            if self.values[self.i] in _TYPE_KINDS or self.at("@"):  # `@interface`
                if alone:
                    self.i += self.at("@")  # javac points at `interface`
                    raise self.fail("class, interface or enum declaration not allowed here")
                return self._parse_type_decl(head)
            if v == "abstract" or v == "strictfp":
                raise self.fail("expected class, interface or enum declaration")
        elif v in MODIFIER_KEYWORDS:
            raise self.fail("orphaned default" if v == "default" else "illegal start of expression")
        type_text = self._local_type(declared)
        if type_text is None:
            return self._finish_simple_statement("expression_statement", i)
        if alone:
            raise self.fail("variable declaration not allowed here")
        return self._parse_declarators("local_variable_declaration", head, type_text, "variable name")

    def _finish_simple_statement(self, kind: str, lo: int) -> Node:
        """The rest of a statement begun at ``lo`` that ends in a `;`: an
        expression statement, or what follows the keyword of a `return`,
        `throw`, `yield`, `assert`, `break` or `continue`."""
        children: list[Node] = []
        values = self.values
        if kind == "expression_statement":
            self._statement_expr(children)
        elif kind == "break_statement" or kind == "continue_statement":
            self.i += self.kinds[self.i] == "ident"  # a label
        elif values[self.i] != ";" or kind != "return_statement":
            self._expr(children)
            if kind == "assert_statement" and values[self.i] == ":":
                self.i += 1
                self._expr(children)
        self._close(";")
        return Node(kind, lo, self.i, children)

    def _statement_expr(self, out: list[Node]) -> None:
        """Read an expression that may stand as a statement (JLS 14.8)."""
        lo = self.i
        value = self._expr(out)
        if value is not True and type(value) is not Node:
            raise ParseError(self.tokens.starts[lo], "not a statement")

    def _par_expr(self, out: list[Node], keyword: str) -> tuple[int, int]:
        """Read the `(expression)` after ``keyword``; returns the range
        inside the parentheses."""
        if self.values[self.i] != "(":
            raise self.fail(f"expected '(' after {keyword}")
        lo = self.i = self.i + 1
        self._expr(out)
        hi = self.i
        self._close(")")
        return lo, hi

    def _parse_if(self) -> Node:
        lo = self.i
        self.advance()
        children: list[Node] = []
        props = {"cond": self._par_expr(children, "if")}
        children.append(self._parse_statement(alone=True))
        if self.at("else"):
            self.advance()
            children.append(self._parse_statement(alone=True))
        return Node("if_statement", lo, self.i, children, props)

    def _parse_headed(self) -> Node:
        """`while (e) statement`, `switch (e) {...}` or `synchronized (e)
        block`; the keyword names the kind."""
        lo = self.i
        keyword = self.advance()
        children: list[Node] = []
        self._par_expr(children, keyword)
        if keyword == "switch":
            self._switch_body(children, statement=True)
        elif keyword == "while":
            children.append(self._parse_statement(alone=True))
        else:
            children.append(self._parse_block())
        return Node(f"{keyword}_statement", lo, self.i, children)

    def _parse_for(self) -> Node:
        """`for (init; cond; update) body` or `for (T x : e) body` (JLS
        14.14). The init is a local variable declaration, after the
        annotations and one `final` javac's parser takes there, or a list of
        statement expressions, as the update is."""
        lo = self.i
        self.advance()
        if not self.at("("):
            raise self.fail("expected '(' after for")
        children: list[Node] = []
        values = self.values
        init_lo = self.i = self.i + 1
        declared = values[self.i] == "final" or values[self.i] == "@"
        self._parse_final()
        if self._local_type(declared) is not None:
            decls = self._declarators(children, "variable name")
            if values[self.i] == ":" and len(decls) == 1 and decls[0]["init"][0] is None:
                self.i += 1
                self._expr(children)
                self._close(")")
                children.append(self._parse_statement(alone=True))
                return Node("for_statement", lo, self.i, children, {"parts": []})
        elif values[self.i] != ";":
            self._statement_exprs(children)
        parts = [(init_lo, self.i)]
        self.expect(";")
        if values[self.i] != ";":
            self._expr(children)
        parts.append((parts[0][1] + 1, self.i))
        self.expect(";")
        if values[self.i] != ")":
            self._statement_exprs(children)
        parts.append((parts[1][1] + 1, self.i))
        self._close(")")
        children.append(self._parse_statement(alone=True))
        return Node("for_statement", lo, self.i, children, {"parts": parts})

    def _statement_exprs(self, out: list[Node]) -> None:
        self._statement_expr(out)
        while self.values[self.i] == ",":
            self.i += 1
            self._statement_expr(out)

    def _parse_do(self) -> Node:
        lo = self.i
        self.advance()
        children = [self._parse_statement(alone=True)]
        if not self.at("while"):
            raise self.fail("expected 'while' after do body")
        self.advance()
        self._par_expr(children, "while")
        self.expect(";")
        return Node("do_statement", lo, self.i, children)

    def _parse_try(self) -> Node:
        lo = self.i
        self.advance()
        children: list[Node] = []
        if self.at("("):  # resources, each ended by a `;`, the last one optionally
            self.i += 1
            while True:
                self._resource(children)
                if not self.at(";"):
                    break
                self.i += 1
                if self.at(")"):
                    break
            self._close(")")
        children.append(self._parse_block())
        while self.at("catch"):
            self.advance()
            self._parse_catch_parameter()
            children.append(self._parse_block())
        if self.at("finally"):
            self.advance()
            children.append(self._parse_block())
        return Node("try_statement", lo, self.i, children)

    def _resource(self, out: list[Node]) -> None:
        """A resource (JLS 14.20.3): a local variable with an initializer,
        or an expression naming one."""
        declared = self.at("final") or self.at("@")
        self._parse_final()
        lo = self.i
        if self._local_type(declared) is not None:
            self.expect_ident("resource name")
            self.expect("=")
            self._expr(out)
        elif self._expr(out) is not None:  # javac takes a name or a field access there
            raise ParseError(self.tokens.starts[lo], "resource is not a variable")

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

    def _switch_body(self, out: list[Node], statement: bool) -> None:
        """Read the `{...}` of a switch (JLS 14.11, 15.28): `case` and
        `default` labels, each group ended by `:` and statements, or by `->`
        and a block, a `throw` or an expression and `;`, a statement
        expression in a ``statement``. No node keeps the labels or the
        statements: their outermost calls and creations go to ``out``."""
        values = self.values
        if values[self.i] != "{":
            raise self.fail("expected '{' after switch header")
        self.i += 1
        while (v := values[self.i]) != "}":
            if v == "case":
                self.in_label = True
                self.i += 1
                self._expr(out)
                while values[self.i] == ",":
                    self.i += 1
                    self._expr(out)
                self.in_label = False
            elif v == "default":
                self.i += 1
            else:
                raise self._unexpected("expected 'case', 'default' or '}'")
            if values[self.i] != "->":
                self.expect(":")
                while (v := values[self.i]) != "case" and v != "default" and v != "}":
                    _outermost(self._parse_statement(), out)
            elif values[self.i + 1] == "{" or values[self.i + 1] == "throw":
                self.i += 1
                _outermost(self._parse_statement(), out)
            else:
                self.i += 1
                self._statement_expr(out) if statement else self._expr(out)
                self._close(";")
        self.i += 1

    def _local_type(self, declared: bool) -> Optional[str]:
        """Read the type of the local variable declaration at the cursor and
        return its text, or return None, the cursor unmoved, if the
        statement there is an expression. A ``declared`` one, whose
        modifiers have been read, is a declaration, and so is one whose type
        is followed by a name or holds a `<`: no expression statement starts
        `Name<` or a type and a name (JLS 14.8), so `a < b;` and `int x y;`
        fail as javac's parser fails them."""
        type_lo = self.i
        kinds, values = self.kinds, self.values
        v = values[type_lo]
        if not declared and (kinds[type_lo] != "ident" or v in _LITERAL_NAMES) and v not in PRIMITIVE_TYPES:
            return None
        self._skip_type()
        i = self.i
        if not declared and kinds[i] != "ident" and "<" not in values[type_lo:i]:
            if values[i] != "." and v in PRIMITIVE_TYPES:
                # only `int.class` and the like start an expression statement
                raise ParseError(self.tokens.starts[type_lo], "not a statement")
            self.i = type_lo
            return None
        return self._text(type_lo, i)

    # --- expressions ---------------------------------------------------

    def _expr(self, out: list[Node], bp: int = 0) -> Any:
        """Read the expression at the cursor whose infix operators bind
        tighter than ``bp`` (see `_INFIX`), by top-down operator precedence:
        an operand with its prefix and postfix operators, then each infix
        operator and its right operand. Its outermost calls and creations go
        to ``out``.

        Returns its value: the call or creation node it is; True for an
        assignment, `++`, `--` or an explicit constructor call, which may
        stand as statements too; for a `?:`, a list of the value entries of
        its arms, each flattened if itself a `?:`; for parentheses or a
        cast, the entry of what they hold (see `_entry`); or else None."""
        values, kinds = self.values, self.kinds
        lo = i = self.i
        v, kind = values[i], kinds[i]
        if kind == "ident":
            if values[i + 1] == "(":
                value = self._arguments(out, self._call(i))
            elif values[i + 1] == "->" and not self.in_label:
                self.i = i + 2
                value = self._lambda_body(out)
            else:
                self.i = i + 1
                value = None
        elif kind == "number" or kind == "string" or kind == "char":
            self.i = i + 1
            value = None
        elif v == "(":
            form = self._parens_form()
            if form == "lambda":
                value = self._lambda(out)
            elif form == "cast":  # `(T & I) operand`
                self.i = i + 1
                self._skip_type_arg()
                while values[self.i] == "&":
                    self.i += 1
                    self._skip_type_arg()
                self.expect(")")
                value = _entry(self._expr(out, _UNARY))[0], True
            else:
                self.i = i + 1
                value = _entry(self._expr(out))
                self._close(")")
        elif v == "new":
            node = self._new(out)
            value = node and self._arguments(out, node)
        elif v in _PREFIX:
            self.i = i + 1
            self._expr(out, _UNARY)
            value = True if v == "++" or v == "--" else None
        else:
            value = self._primary(out)
        while True:  # postfix operators
            v = values[self.i]
            if v == ".":
                j = self.i + 1
                if kinds[j] != "ident" or values[j] in _LITERAL_NAMES:
                    value = self._select(out)
                elif values[j + 1] == "(":
                    value = self._arguments(out, self._call(j))
                else:
                    self.i = j + 1
                    value = None
            elif v == "[":
                if values[self.i + 1] == "]":  # an array type, in `T[].class` or `T[]::new`
                    self._skip_dims()
                    self._class_literal()
                else:
                    self.i += 1
                    self._expr(out)
                    self._close("]")
                value = None
            elif v == "::":
                self._member_ref()
                value = None
            elif v == "++" or v == "--":
                self.i += 1
                value = True
            elif v == "<" and kinds[lo] == "ident" and kinds[self.i - 1] == "ident":
                # `Name<T>::m` (JLS 15.13): type arguments, not a comparison
                j = self._try(lo, self._skip_type)
                if j is None or j < self.i or values[j] != "::":
                    break
                self.i = j
                self._member_ref()
                value = None
            else:
                break
        while True:  # infix operators
            v, n = values[self.i], 1
            power = _INFIX.get(v)
            if power is None:
                return value
            if v == ">" and (values[self.i + 1] == ">" or values[self.i + 1] == ">="):
                v, n = self._shift()
                power = _INFIX[v]
            if power <= bp:
                return value
            self.i += n
            if power == _ASSIGN:
                self._expr(out)
                value = True
            elif v == "?":
                then = self._expr(out)
                self._close(":")
                value = _entries(then) + _entries(self._expr(out, _ASSIGN))
            elif v == "instanceof":  # a type, or a pattern: annotations, `final`, a type, a name
                final = self.at("final")
                self._parse_final()
                self._skip_type()
                if self.kinds[self.i] == "ident":
                    self.i += 1
                elif final:
                    raise self.fail("expected variable name")
                value = None
            else:
                self._expr(out, power)
                value = None

    def _shift(self) -> tuple[str, int]:
        """The operator the `>` at the cursor spells with the `>` and `>=`
        tokens that abut it, and how many tokens it takes: the lexer keeps
        each `>` a token of its own, so that type arguments close."""
        values, starts, ends = self.values, self.tokens.starts, self.tokens.ends
        i = j = self.i
        while j - i < 2 and values[j] == ">" and values[j + 1] in (">", ">=") and starts[j + 1] == ends[j]:
            j += 1
        return "".join(values[i : j + 1]), j + 1 - i

    def _primary(self, out: list[Node]) -> Any:
        """An operand that starts with a keyword or `<`: `this` or `super`,
        a primitive type's class literal or method reference, a switch
        expression, or `<T>this(...)`; returns its value."""
        values = self.values
        v = values[self.i]
        if v == "<":  # an explicit constructor call's type arguments
            self._skip_type_args(wildcard=False)
            v = values[self.i]
            if v not in ("this", "super") or values[self.i + 1] != "(":
                raise self.fail("illegal start of expression")
        if v == "this" or v == "super":
            self.i += 1
            if values[self.i] == "(":
                self._arguments(out)
                return True
            if v == "super" and values[self.i] != "." and values[self.i] != "::":
                raise self.fail("expected '.'")
        elif v in PRIMITIVE_TYPES:
            self.i += 1
            self._skip_dims()
            self._class_literal()
        elif v == "switch":
            self.i += 1
            self._par_expr(out, "switch")
            self._switch_body(out, statement=False)
        else:
            raise self._unexpected("expected expression")
        return None

    def _call(self, name: int) -> Node:
        """A call node for the method name at token ``name``, the cursor
        moved to the `(` after it. Its receiver is the simple name before
        `.name(`, if any, where its range starts."""
        values = self.values
        at = name - 2 if values[name - 1] == "." and self.kinds[name - 2] == "ident" else name
        self.i = name + 1
        props = {"name": values[name], "name_tok": name, "args": []}
        props["receiver"] = values[at] if at < name else None
        return Node("call", at, 0, [], props)

    def _arguments(self, out: list[Node], node: Optional[Node] = None) -> Optional[Node]:
        """Read the argument list at the cursor into ``node``, a call or a
        creation, and a creation's anonymous class body after it, then add
        ``node`` to ``out`` and return it. Without ``node`` the calls and
        creations in the arguments go to ``out``."""
        values = self.values
        inner = out if node is None else node.children
        args: list[tuple[int, int]] = []
        self.i += 1
        if values[self.i] != ")":
            while True:
                lo = self.i
                self._expr(inner)
                args.append((lo, self.i))
                if values[self.i] != ",":
                    break
                self.i += 1
        self._close(")")
        if node is None:
            return None
        node.props["args"] = args
        node.tok_hi = self.i
        out.append(node)
        if node.kind == "creation" and values[self.i] == "{":
            body = node.props["body"] = self._parse_anonymous_body()
            node.children.append(body)
            node.tok_hi = self.i
        return node

    def _new(self, out: list[Node]) -> Optional[Node]:
        """Read the `new` at the cursor and the type after it (JLS 15.9,
        15.10.1). A class instance creation returns its node, the cursor at
        its `(`; an array creation is read whole, and returns None. A class
        type may take type arguments, the diamond among them; a primitive
        type, none, and neither may constructor type arguments before it.
        Only a class type's `(` may follow, or after annotations a `[` that
        holds a dimension or starts `[]` pairs and an initializer."""
        values = self.values
        lo = self.i
        self.i += 1
        typed = values[self.i] == "<"
        if typed:  # constructor type arguments, `new <T>A()`
            self._skip_type_args(wildcard=False)
        while values[self.i] == "@":
            self._parse_annotation()
        v = values[self.i]
        if self.kinds[self.i] == "ident":
            name = self._skip_type(dims=False, creation=True)
            if values[self.i] == "(":
                return Node("creation", lo, 0, [], {"type": name, "args": [], "body": None})
            array_only = values[self.i] == "@"
        elif v in PRIMITIVE_TYPES and v != "void" and not typed:
            self.i += 1
            array_only = True
        else:
            raise ParseError(self.tokens.ends[self.i - 1], "<identifier> expected")
        while values[self.i] == "@":
            self._parse_annotation()
        if values[self.i] != "[":
            raise self.fail("'[' expected" if array_only else "'(' or '[' expected")
        if values[self.i + 1] == "]":
            self._skip_dims()
            if values[self.i] != "{":
                raise self.fail("array dimension missing")
            self._var_init(out)
            return None
        while values[self.i] == "[" and values[self.i + 1] != "]":
            self.i += 1
            self._expr(out)
            self._close("]")
        self._skip_dims()
        return None

    def _select(self, out: list[Node]) -> Any:
        """Read the `.` at the cursor and what follows it but a name: a
        call's explicit type arguments, `new`, `class`, `this` or `super`;
        returns the value."""
        values = self.values
        self.i += 1
        v = values[self.i]
        if v == "<":
            self._skip_type_args(wildcard=False)
            name = self.i
            self.expect_ident("method name")
            if values[self.i] != "(":
                raise self.fail("expected '('")
            return self._arguments(out, self._call(name))
        if v == "new":
            node = self._new(out)
            if node is None:  # an array creation, where an inner class's must be
                raise ParseError(self.tokens.ends[self.i - 1], "'(' expected")
            return self._arguments(out, node)
        if v != "class" and v != "this" and v != "super":
            raise ParseError(self.tokens.ends[self.i - 1], "<identifier> expected")
        self.i += 1
        if v == "super" and values[self.i] == "(":
            self._arguments(out)
            return True
        return None

    def _class_literal(self) -> None:
        """Read the `.class` after a type, unless a `::` follows it."""
        if self.values[self.i] == "." and self.values[self.i + 1] == "class":
            self.i += 2
        elif self.values[self.i] != "::":
            raise self.fail("expected '.class'")

    def _member_ref(self) -> None:
        """Read the `::` at the cursor and the method name or `new` after
        it, with any type arguments between."""
        self.i += 1
        if self.values[self.i] == "<":
            self._skip_type_args(wildcard=False)
        if self.values[self.i] == "new":
            self.i += 1
        else:
            self.expect_ident("method name")

    def _parens_form(self) -> str:
        """What the `(` at the cursor opens: a "cast", a "lambda"'s
        parameters or "parens" around an expression. The tokens up to its
        `)` and the one after decide, by the table of javac's
        `JavacParser.analyzeParens`: `(a) b` is a cast and `(a) + b` a
        sum; `(a) ->` and `(A a, ...` start lambdas. Type arguments and
        annotations on the way are read by their grammar."""
        values, kinds = self.values, self.kinds
        i = self.i + 1
        if values[i] == ")":
            return "lambda"
        typed, default = False, "parens"
        while True:
            v, after = values[i], values[i + 1]
            if kinds[i] == "ident":
                if kinds[i + 1] == "ident":
                    return "lambda"
                if after == ")" and values[i + 2] == "->":
                    return "parens" if self.in_label else "lambda"
                if after == ",":
                    default = "lambda"
                typed = False
            elif v in PRIMITIVE_TYPES:
                if after == ")":
                    return "cast"
                if kinds[i + 1] == "ident":
                    return "lambda"
            elif v == ")":
                follows = kinds[i + 1] in _OPERAND_KINDS or after in _CAST_FOLLOWERS
                return "cast" if typed or follows else default
            elif v == "final" or v == "...":
                return "lambda"
            elif v == "[" or v == "<" or v == "@":  # dimensions, type arguments, annotations
                if v == "[":
                    j = i + 2 if after == "]" else None
                else:
                    j = self._try(i, self._skip_type_args if v == "<" else self._parse_annotation)
                if j is None:
                    return "parens"
                if v != "@":
                    if values[j] == ")" or values[j] == "&":
                        return "cast"
                    if values[j] == "..." or kinds[j] == "ident" and (
                        v == "[" or values[j + 1] == "," or values[j + 1:j + 3] == [")", "->"]
                    ):
                        return "lambda"
                typed = True
                i = j - 1
            elif v != "." and v != "&":
                return default
            i += 1

    def _lambda(self, out: list[Node]) -> None:
        """Read the lambda whose parameters are at the cursor: names alone,
        or declared as a method's are."""
        if self.kinds[self.i + 1] == "ident" and self.values[self.i + 2] in (",", ")"):
            self.i += 1
            self.expect_ident("parameter name")
            while self.at(","):
                self.i += 1
                self.expect_ident("parameter name")
            self.expect(")")
        else:
            self._parse_params()
        self.expect("->")
        self._lambda_body(out)

    def _lambda_body(self, out: list[Node]) -> None:
        """Read a lambda's body, an expression or a block. No node keeps a
        block's statements: their outermost calls and creations go to
        ``out``."""
        if self.values[self.i] == "{":
            _outermost(self._parse_block(), out)
        else:
            self._expr(out)

    def _close(self, closer: str) -> None:
        """Step past the ``closer`` that must end a list or an expression
        here. Another token there fails where javac's parser reports it:
        just past the token before."""
        v = self.values[self.i]
        if v != closer:
            if v and v != ")" and v != "]" and v != "}":
                raise ParseError(self.tokens.ends[self.i - 1], f"expected {closer!r}")
            raise self._unexpected("")
        self.i += 1

    def _unexpected(self, message: str) -> ParseError:
        """A failure with ``message`` at the cursor, unless the token there
        closes a bracket or the file ends there: then that is named."""
        v = self.values[self.i]
        if v == ")" or v == "]" or v == "}":
            return self.fail(f"unexpected {v!r} in expression")
        return self.fail(message if v else "unexpected end of file in expression")

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
    "for": _Parser._parse_for,
    "while": _Parser._parse_headed,
    "do": _Parser._parse_do,
    "try": _Parser._parse_try,
    "switch": _Parser._parse_headed,
    "synchronized": _Parser._parse_headed,
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
