"""Byte-offset tokenizer for Java source.

One compiled bytes regex does the work, in the style of "Writing a
Tokenizer" from the Python `re` docs: each `match` skips trivia
(whitespace, `//` and `/* */` comments), then captures one token in a named
group whose name is the token kind. Operators are tried longest first. A
literal or comment that does not close, or a byte no token can start with,
matches an error group instead, so malformed input raises `ParseError`
rather than lexing as something shorter.

Offsets are byte offsets into the UTF-8 input. Any byte >= 0x80 continues
an identifier, which is sound for the syntactic analysis done here:
non-ASCII only ever appears inside identifiers, literals and comments.
Trivia is dropped from the token stream but always recoverable from the
bytes between adjacent token spans.

Given the tokens of an earlier text and the edits that made `data` from
it, `tokenize` re-lexes only around the edits, as the resynchronisation
step of incremental lexers does (Wagner & Graham, "Efficient and Flexible
Incremental Parsing", TOPLAS 1998). A match depends only on the bytes from
where it starts, so once a token end after an edit falls on an old token
end, the old tokens that follow are the new ones, shifted. The result and
any `ParseError` are those of a full scan.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Optional

from ..diagnostics import ParseError
from ..spans import Edit

KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while""".split()
)

# Multi-byte operators, longest first. '>' is deliberately always a single
# token so nested generics (>>) need no special lexer state; rules never
# depend on shift operators being one token.
_OPERATORS = [
    b"...", b"->", b"::", b"<<=", b"<<", b"<=", b">=", b"==", b"!=", b"&&",
    b"||", b"++", b"--", b"+=", b"-=", b"*=", b"/=", b"%=", b"&=", b"|=",
    b"^=",
]
_SINGLE = b"(){}[];,.=<>+-*/%&|^!~?:@"

# Trivia, then one token in a group named after its kind. A group named
# "unterminated_..." matches only where the real token failed to close, and
# "bad" takes any other byte; so no malformed input lexes as a shorter token.
_TOKEN = re.compile(
    rb"(?:[ \t\n\r\f]+|//[^\n]*\n?|/\*.*?\*/)*"
    rb"(?:(?P<word>[A-Za-z_$\x80-\xff][A-Za-z0-9_$\x80-\xff]*)"
    rb"|(?P<number>(?:[0-9]|\.[0-9])(?:[A-Za-z0-9_$\x80-\xff.]|(?<=[eEpP])[+-])*)"
    rb'|(?P<string>""".*?"""|(?!""")"(?:[^"\\\n]|\\.)*")'
    rb"|(?P<char>'(?:[^'\\\n]|\\.)*')"
    rb"|(?P<unterminated_block_comment>/\*)"
    rb"|(?P<op>" + b"|".join(re.escape(op) for op in _OPERATORS)
    + rb"|[" + re.escape(_SINGLE) + rb"])"
    rb'|(?P<unterminated_text_block>""")'
    rb'|(?P<unterminated_string_literal>")'
    rb"|(?P<unterminated_character_literal>')"
    rb"|(?P<bad>.))?",
    re.DOTALL,
)
# A match reads at most two bytes past its token (`.` looks for `...`), so
# an old token is kept only if it ends that far before the next edit.
_LOOKAHEAD = 2


class Token:
    __slots__ = ("kind", "value", "start", "end")

    def __init__(self, kind: str, value: str, start: int, end: int):
        self.kind = kind  # ident | keyword | number | string | char | op
        self.value = value
        self.start = start  # byte offset, inclusive
        self.end = end  # byte offset, exclusive

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.value!r}, {self.start}, {self.end})"

    def is_op(self, value: str) -> bool:
        return self.kind == "op" and self.value == value

    def is_kw(self, value: str) -> bool:
        return self.kind == "keyword" and self.value == value


def tokenize(
    data: bytes, previous: Optional[tuple[list[Token], list[Edit]]] = None
) -> list[Token]:
    """Tokenize Java source bytes; raises ParseError on malformed input.

    ``previous`` may hold the tokens of an earlier text and the edits that
    turned it into ``data``; then only the bytes around the edits are lexed.
    """
    tokens: list[Token] = []
    if previous is None:
        _scan(data, 0, tokens, len(data) + 1)
        return tokens
    old, edits = previous
    edits = sorted(edits, key=lambda e: (e.span.start, e.span.end))
    end_of = attrgetter("end")
    pos = j = delta = i = 0  # resume offset, next old token, new minus old offset
    while True:
        # Copy the old tokens whose match reads no byte of the next edit.
        if i < len(edits):
            k = bisect_right(old, edits[i].span.start - _LOOKAHEAD, j, key=end_of)
        else:
            k = len(old)
        if k > j:
            if delta:
                tokens += [
                    Token(t.kind, t.value, t.start + delta, t.end + delta) for t in old[j:k]
                ]
            else:
                tokens += old[j:k]
            pos = old[k - 1].end + delta
            j = k
        if i == len(edits):
            return tokens
        # Re-lex across edit i, and every later edit the window runs into,
        # up to the first token end that is an old token end after them.
        delta += len(edits[i].replacement) - len(edits[i].span)
        new_end = edits[i].span.end + delta
        while True:
            pos = _scan(data, pos, tokens, max(new_end, pos + 1))
            if pos < 0:
                return tokens
            while i + 1 < len(edits) and pos > edits[i + 1].span.start + delta:
                i += 1
                delta += len(edits[i].replacement) - len(edits[i].span)
                new_end = edits[i].span.end + delta
            if pos >= new_end:
                j = bisect_left(old, pos - delta, j, key=end_of)
                if j < len(old) and old[j].end == pos - delta:
                    j += 1
                    break
        i += 1


def _scan(data: bytes, pos: int, tokens: list[Token], until: int) -> int:
    """Append the tokens of ``data`` from ``pos`` on to ``tokens``; stop
    after the first one ending at or past ``until`` and return its end, or
    return -1 at the end of the input."""
    append = tokens.append
    match = _TOKEN.match
    keywords = KEYWORDS
    while True:
        m = match(data, pos)
        kind = m.lastgroup
        if kind is None:  # only trivia was left
            return -1
        start, pos = m.span(kind)
        text = data[start:pos]
        if kind == "word":
            value = text.decode("utf-8", "replace")
            append(Token("keyword" if value in keywords else "ident", value, start, pos))
        elif kind == "op":
            append(Token("op", text.decode("ascii"), start, pos))
        elif kind == "number":
            append(Token("number", text.decode("ascii", "replace"), start, pos))
        elif kind == "string" or kind == "char":
            append(Token(kind, text.decode("utf-8", "replace"), start, pos))
        else:
            if kind == "bad":
                message = f"unexpected character {chr(text[0])!r}"
            else:
                message = kind.replace("_", " ")
            raise ParseError(start, message)
        if pos >= until:
            return pos
