"""Byte-offset tokenizer for Java source.

One compiled regex does the work, in the style of "Writing a Tokenizer"
from the Python `re` docs: each match skips trivia (whitespace, `//` and
`/* */` comments) in its first group, then captures one token in its
second. Operators are tried longest first. A literal or comment that does
not close, or a character no token can start with, is captured as an
error token, so malformed input raises `ParseError` rather than lexing as
something shorter.

`tokenize` returns the tokens as four parallel lists, built by one
`split` and bulk list operations with no Python code per token. The source
is decoded as latin-1, so offsets into the text are byte offsets into the
UTF-8 input. The offsets are running sums of the trivia and token lengths;
a token's kind is looked up by its spelling (keywords, operators and the
error tokens), else found once per distinct spelling from its first
character. Any byte >= 0x80 continues an identifier, which is sound for the
syntactic analysis done here: non-ASCII only ever appears inside
identifiers, literals and comments. Only in a text that is not ASCII are
the distinct non-ASCII spellings decoded again as UTF-8, and the tokens
spelled so replaced. Trivia is dropped from the token lists but always
recoverable from the bytes between adjacent token spans.
"""

from __future__ import annotations

import re
from itertools import accumulate, compress, count, filterfalse
from operator import add, sub

from ..diagnostics import ParseError

KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while""".split()
)

# Multi-character operators, longest first. '>' is deliberately always a
# single token so nested generics (>>) need no special lexer state; rules
# never depend on shift operators being one token.
_OPERATORS = [
    "...", "->", "::", "<<=", "<<", "<=", ">=", "==", "!=", "&&", "||", "++",
    "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
]
_SINGLE = "(){}[];,.=<>+-*/%&|^!~?:@"

# The spelling of each token a literal or comment that does not close
# leaves, and why it is an error.
_UNTERMINATED = {
    "/*": "unterminated block comment",
    '"""': "unterminated text block",
    '"': "unterminated string literal",
    "'": "unterminated character literal",
}

# Trivia, then one token: a word, a bracket or separator (first, as the
# commonest after words), a number, string, char, an unterminated comment
# or literal's opening, an operator, or any other character. Trivia is
# whitespace, then a loop over comments each followed by whitespace, so the
# commonest trivia, whitespace alone, takes no loop. The token is optional
# only so that trailing trivia matches. Possessive repeats save the engine
# its backtracking state.
_TOKEN = re.compile(
    r"([ \t\n\r\f]*+(?:(?://[^\n]*+\n?|/\*.*?\*/)[ \t\n\r\f]*+)*+)"
    r"([A-Za-z_$\x80-\xff][A-Za-z0-9_$\x80-\xff]*+"
    r"|[(){}\[\];,]"
    r"|(?:[0-9]|\.[0-9])(?:[A-Za-z0-9_$\x80-\xff.]|(?<=[eEpP])[+-])*+"
    r'|""".*?"""|(?!""")"(?:[^"\\\n]|\\.)*+"'
    r"|'(?:[^'\\\n]|\\.)*+'"
    r'|/\*|"""|' + "|".join(map(re.escape, _OPERATORS)) + "|[" + re.escape(_SINGLE) + "]"
    r"|.)?",
    re.DOTALL,
)
_SPELLINGS = {
    **dict.fromkeys(KEYWORDS, "keyword"),
    **dict.fromkeys([*_OPERATORS, *_SINGLE], "op"),
    **dict.fromkeys(_UNTERMINATED, "error"),
}
# The kind of a token not spelled in _SPELLINGS, by its first character.
_FIRST = {chr(c): "error" for c in range(256)}
_FIRST.update(dict.fromkeys("_$" + "".join(map(chr, range(0x80, 0x100))), "ident"))
_FIRST.update({c: "ident" for c in map(chr, range(128)) if c.isalpha()})
_FIRST.update({**dict.fromkeys("0123456789.", "number"), '"': "string", "'": "char"})


class Tokens:
    """The tokens of one text as parallel lists: token ``j`` is
    ``values[j]``, of kind ``kinds[j]`` (ident, keyword, number, string,
    char or op), at the bytes ``starts[j]:ends[j]``. An operator or keyword
    is known by its value alone, since no other token spells one."""

    __slots__ = ("kinds", "values", "starts", "ends")

    def __init__(self, kinds: list[str], values: list[str], starts: list[int], ends: list[int]):
        self.kinds = kinds
        self.values = values
        self.starts = starts
        self.ends = ends

    def __len__(self) -> int:
        return len(self.values)


class _Kinds(dict):
    """Token kinds by spelling, for one text: seeded with `_SPELLINGS`, and
    any other spelling is classified by its first character when first
    looked up."""

    __slots__ = ()

    def __missing__(self, value: str) -> str:
        kind = self[value] = _FIRST[value[0]]
        return kind


def tokenize(data: bytes) -> Tokens:
    """Tokenize Java source bytes; raises ParseError on malformed input."""
    text = data.decode("latin-1")
    # '', then per match its trivia, its token and the text up to the next
    # match, always '' as matches abut; the last such text is the tail
    parts = _TOKEN.split(text)
    del parts[-1]
    while parts and parts[-1] is None:  # trailing trivia, then the empty match at the end
        del parts[-3:]
    values = parts[2::3]
    lengths = list(map(len, values))
    ends = list(accumulate(map(add, map(len, parts[1::3]), lengths)))
    starts = list(map(sub, ends, lengths))
    kind_of = _Kinds(_SPELLINGS)
    kinds = list(map(kind_of.__getitem__, values))
    if "error" in kinds:
        cut = kinds.index("error")
        value = values[cut]
        raise ParseError(starts[cut], _UNTERMINATED.get(value, f"unexpected character {value!r}"))
    if not text.isascii():
        odd = {
            v: v.encode("latin-1").decode("ascii" if kind_of[v] == "number" else "utf-8", "replace")
            for v in filterfalse(str.isascii, kind_of)
        }
        for k in compress(count(), map(odd.__contains__, values)):
            values[k] = odd[values[k]]
    return Tokens(kinds, values, starts, ends)
