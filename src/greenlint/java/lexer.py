"""Byte-offset tokenizer for Java source.

One compiled regex does the work, in the style of "Writing a Tokenizer"
from the Python `re` docs: each match skips trivia (whitespace, `//` and
`/* */` comments) in its first group, then captures one token in its
second. Operators are tried longest first. A literal or comment that does
not close, or a character no token can start with, is captured as an
error token, so malformed input raises `ParseError` rather than lexing as
something shorter.

`tokenize` returns the tokens as four parallel lists, filled by one
`findall` with no Python code per token. The source is decoded as latin-1,
so offsets into the text are byte offsets into the UTF-8 input. The
offsets are running sums of the trivia and token lengths; a token's kind is
looked up by its spelling (keywords, operators and the error tokens), else
by its first character. Any byte >= 0x80 continues an identifier, which is
sound for the syntactic analysis done here: non-ASCII only ever appears
inside identifiers, literals and comments, and only tokens holding such
bytes are decoded again as UTF-8. Trivia is dropped from the token lists
but always recoverable from the bytes between adjacent token spans.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, chain
from operator import itemgetter

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
_NON_ASCII = re.compile(r"[\x80-\xff]+")


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


def tokenize(data: bytes) -> Tokens:
    """Tokenize Java source bytes; raises ParseError on malformed input."""
    text = data.decode("latin-1")
    pairs = _TOKEN.findall(text)  # (trivia, token) per match
    while pairs and not pairs[-1][1]:  # trailing trivia, then the end
        pairs.pop()
    values = list(map(itemgetter(1), pairs))
    offsets = list(accumulate(map(len, chain.from_iterable(pairs)), initial=0))
    starts, ends = offsets[1::2], offsets[2::2]
    # each distinct spelling is looked up once, then every token by spelling
    kind_of = _SPELLINGS.copy()
    new = set(values).difference(kind_of)
    kind_of.update(zip(new, map(_FIRST.__getitem__, map(itemgetter(0), new))))
    kinds = list(map(kind_of.__getitem__, values))
    if "error" in kinds:
        cut = kinds.index("error")
        value = values[cut]
        raise ParseError(starts[cut], _UNTERMINATED.get(value, f"unexpected character {value!r}"))
    if not text.isascii():
        for m in _NON_ASCII.finditer(text):
            k = bisect_right(starts, m.start()) - 1
            if k >= 0 and m.start() < ends[k]:
                codec = "ascii" if kinds[k] == "number" else "utf-8"
                values[k] = text[starts[k] : ends[k]].encode("latin-1").decode(codec, "replace")
    return Tokens(kinds, values, starts, ends)
