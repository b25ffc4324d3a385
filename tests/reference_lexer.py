"""A byte-at-a-time Java tokenizer kept only as a test oracle.

It walks the input one byte at a time with explicit branches, so its rules
are easy to read off. `greenlint.java.lexer.tokenize` must produce the same
`(kind, value, start, end)` list as `tokenize_reference`, or raise
`ParseError` with the same offset and message.
"""

from __future__ import annotations

from greenlint.diagnostics import ParseError
from greenlint.java.lexer import KEYWORDS

# Multi-byte operators, longest first.
_OPERATORS = [
    b"...", b"->", b"::", b"<<=", b"<<", b"<=", b">=", b"==", b"!=", b"&&",
    b"||", b"++", b"--", b"+=", b"-=", b"*=", b"/=", b"%=", b"&=", b"|=",
    b"^=",
]
_SINGLE = set(b"(){}[];,.=<>+-*/%&|^!~?:@")


def _is_ident_start(b: int) -> bool:
    return b == 0x5F or b == 0x24 or 0x41 <= b <= 0x5A or 0x61 <= b <= 0x7A or b >= 0x80


def _is_ident_part(b: int) -> bool:
    return _is_ident_start(b) or 0x30 <= b <= 0x39


def tokenize_reference(data: bytes) -> list[tuple[str, str, int, int]]:
    """Tokenize Java source bytes; raises ParseError on malformed input."""
    tokens: list[tuple[str, str, int, int]] = []
    i = 0
    n = len(data)
    while i < n:
        b = data[i]
        # whitespace
        if b in (0x20, 0x09, 0x0A, 0x0D, 0x0C):
            i += 1
            continue
        # comments
        if data.startswith(b"//", i):
            j = data.find(b"\n", i)
            i = n if j < 0 else j + 1
            continue
        if data.startswith(b"/*", i):
            j = data.find(b"*/", i + 2)
            if j < 0:
                raise ParseError(i, "unterminated block comment")
            i = j + 2
            continue
        # identifiers / keywords
        if _is_ident_start(b):
            j = i + 1
            while j < n and _is_ident_part(data[j]):
                j += 1
            word = data[i:j].decode("utf-8", errors="replace")
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append((kind, word, i, j))
            i = j
            continue
        # numbers (incl. hex/bin, underscores, suffixes, exponents)
        if 0x30 <= b <= 0x39 or (
            b == 0x2E and i + 1 < n and 0x30 <= data[i + 1] <= 0x39
        ):
            j = i + 1
            while j < n:
                c = data[j]
                if _is_ident_part(c) or c == 0x2E:
                    j += 1
                elif c in (0x2B, 0x2D) and data[j - 1] in (0x65, 0x45, 0x70, 0x50):
                    j += 1  # exponent sign
                else:
                    break
            tokens.append(("number", data[i:j].decode("ascii", "replace"), i, j))
            i = j
            continue
        # text blocks and string literals
        if data.startswith(b'"""', i):
            j = data.find(b'"""', i + 3)
            if j < 0:
                raise ParseError(i, "unterminated text block")
            j += 3
            tokens.append(("string", data[i:j].decode("utf-8", "replace"), i, j))
            i = j
            continue
        if b == 0x22 or b == 0x27:  # " or '
            quote = b
            j = i + 1
            while j < n:
                c = data[j]
                if c == 0x5C:  # backslash
                    j += 2
                    continue
                if c == quote:
                    break
                if c == 0x0A:
                    j = n  # newline inside literal: malformed
                    break
                j += 1
            if j >= n:
                what = "string" if quote == 0x22 else "character"
                raise ParseError(i, f"unterminated {what} literal")
            j += 1
            kind = "string" if quote == 0x22 else "char"
            tokens.append((kind, data[i:j].decode("utf-8", "replace"), i, j))
            i = j
            continue
        # operators
        for op in _OPERATORS:
            if data.startswith(op, i):
                tokens.append(("op", op.decode("ascii"), i, i + len(op)))
                i += len(op)
                break
        else:
            if b not in _SINGLE:
                raise ParseError(i, f"unexpected character {chr(b)!r}")
            tokens.append(("op", chr(b), i, i + 1))
            i += 1
    return tokens
