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

Given the tokens of an earlier text and the edits that made `data` from
it, `tokenize` re-lexes only around the edits, as the resynchronisation
step of incremental lexers does (Wagner & Graham, "Efficient and Flexible
Incremental Parsing", TOPLAS 1998). It copies the old tokens whose match
reads no byte of an edit, then walks the full scan's matches from the last
of them until a token past the edit starts where an old token started. A
token depends only on the bytes from its start, so that old token and the
ones after it, up to the next edit, are the new ones, shifted. The result
and any `ParseError` are those of a full scan.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain
from operator import itemgetter
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
# A match reads at most two bytes past its token (`.` looks for `...`), so
# an old token is copied only if it ends that far before the next edit.
_LOOKAHEAD = 2


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

    def extend(self, other: Tokens, lo: int, hi: int, shift: int = 0) -> None:
        """Append ``other``'s tokens ``lo`` to ``hi``, moved ``shift`` bytes on."""
        self.kinds += other.kinds[lo:hi]
        self.values += other.values[lo:hi]
        starts, ends = other.starts[lo:hi], other.ends[lo:hi]
        self.starts += map(shift.__add__, starts) if shift else starts
        self.ends += map(shift.__add__, ends) if shift else ends


def tokenize(data: bytes, previous: Optional[tuple[Tokens, list[Edit]]] = None) -> Tokens:
    """Tokenize Java source bytes; raises ParseError on malformed input.

    ``previous`` may hold the tokens of an earlier text and the edits that
    turned it into ``data``; then only the bytes around the edits are lexed.
    """
    text = data.decode("latin-1")
    if previous is None:
        return _build(text, 0, _TOKEN.findall(text))
    old, edits = previous
    edits = sorted(edits, key=lambda e: (e.span.start, e.span.end))
    tokens = Tokens([], [], [], [])
    j = delta = i = 0  # next old token, new minus old offset, next edit
    while True:
        # Copy the old tokens whose match reads no byte of the next edit.
        if i < len(edits):
            k = bisect_right(old.ends, edits[i].span.start - _LOOKAHEAD, j)
        else:
            k = len(old)
        if j < k:
            tokens.extend(old, j, k, delta)
            j = k
        if i == len(edits):
            return tokens
        # Re-lex across edit i, and every later edit a token reaches, up to
        # the first token past them that starts where an old token started.
        delta += len(edits[i].replacement) - len(edits[i].span)
        new_end = edits[i].span.end + delta
        pos = tokens.ends[-1] if tokens else 0
        pairs = []
        for m in _TOKEN.finditer(text, pos):
            start = m.start(2)
            while i + 1 < len(edits) and start >= edits[i + 1].span.start + delta:
                i += 1
                delta += len(edits[i].replacement) - len(edits[i].span)
                new_end = edits[i].span.end + delta
            if start >= new_end:
                j = bisect_left(old.starts, start - delta, j)
                if j < len(old) and old.starts[j] == start - delta:
                    break
            pairs.append(m.groups(""))
        stretch = _build(text, pos, pairs)
        tokens.extend(stretch, 0, len(stretch))
        if not m[2]:  # the last match holds no token: the text ended first
            return tokens
        i += 1


def _build(text: str, pos: int, pairs: list[tuple[str, str]]) -> Tokens:
    """The tokens of the (trivia, token) match pairs that run from ``pos``
    in ``text``; raises ParseError at the first error token."""
    while pairs and not pairs[-1][1]:  # trailing trivia, then the end
        pairs.pop()
    values = list(map(itemgetter(1), pairs))
    offsets = list(accumulate(map(len, chain.from_iterable(pairs)), initial=pos))
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
        for m in _NON_ASCII.finditer(text, pos, ends[-1] if ends else pos):
            k = bisect_right(starts, m.start()) - 1
            if k >= 0 and m.start() < ends[k]:
                codec = "ascii" if kinds[k] == "number" else "utf-8"
                values[k] = text[starts[k] : ends[k]].encode("latin-1").decode(codec, "replace")
    return Tokens(kinds, values, starts, ends)
