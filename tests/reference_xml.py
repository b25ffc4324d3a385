"""A step-by-step layout XML parser kept only as a test oracle.

It reads a start tag one piece at a time (whitespace byte by byte, then a
name, `=` and a quoted value), so its rules are easy to read off. Where
`greenlint.xmltree.parse_layout_xml` accepts a layout, it must give the
same elements and attribute spans as `parse_reference`; it must reject
every layout `parse_reference` rejects, and rejects more: references, a
`<` or `&` in a value and a DOCTYPE, which this reader lets through.
"""

from __future__ import annotations

import re
from typing import Optional

from greenlint.diagnostics import ParseError

_NAME_RE = re.compile(rb"[A-Za-z_:\x80-\xff][-A-Za-z0-9_:.\x80-\xff]*")
_WS = b" \t\r\n"

# (tag, start-tag span, [(attribute name, name="value" span, whitespace start)])
Element = tuple[str, tuple[int, int], list[tuple[str, tuple[int, int], int]]]


def parse_reference(data: bytes) -> list[Element]:
    """Every element in document order; raises ParseError on bad input."""
    out: list[Element] = []
    _Reference(data, out).parse_document()
    return out


class _Reference:
    def __init__(self, data: bytes, out: list[Element]):
        self.data = data
        self.i = 0
        self.out = out

    def fail(self, message: str, offset: Optional[int] = None) -> ParseError:
        return ParseError(self.i if offset is None else offset, message)

    def skip_ws(self) -> None:
        while self.i < len(self.data) and self.data[self.i] in _WS:
            self.i += 1

    def skip(self, opener: bytes, closer: bytes, what: str) -> bool:
        if not self.data.startswith(opener, self.i):
            return False
        end = self.data.find(closer, self.i + len(opener))
        if end < 0:
            raise self.fail(f"unterminated {what}")
        self.i = end + len(closer)
        return True

    def skip_misc(self) -> None:
        while True:
            self.skip_ws()
            if not (
                self.skip(b"<!--", b"-->", "comment")
                or self.skip(b"<?", b"?>", "processing instruction")
                or self.skip(b"<!DOCTYPE", b">", "DOCTYPE")
            ):
                return

    def parse_document(self) -> None:
        if self.data.startswith(b"\xef\xbb\xbf"):
            self.i = 3
        self.skip_misc()
        if self.i >= len(self.data) or self.data[self.i : self.i + 1] != b"<":
            raise self.fail("expected root element")
        self.parse_element()
        self.skip_misc()
        if self.i < len(self.data):
            raise self.fail("content after root element")

    def parse_name(self, what: str) -> str:
        m = _NAME_RE.match(self.data, self.i)
        if m is None:
            raise self.fail(f"expected {what}")
        self.i = m.end()
        return m.group(0).decode("utf-8")

    def parse_element(self) -> None:
        start = self.i
        self.i += 1
        tag = self.parse_name("element name")
        attributes: list[tuple[str, tuple[int, int], int]] = []
        index = len(self.out)
        self.out.append((tag, (start, start), attributes))
        seen: set[str] = set()
        while True:
            ws_start = self.i
            self.skip_ws()
            if self.data.startswith(b"/>", self.i):
                self.i += 2
                self.out[index] = (tag, (start, self.i), attributes)
                return
            if self.data.startswith(b">", self.i):
                self.i += 1
                break
            if self.i >= len(self.data):
                raise self.fail("unterminated start tag", start)
            if self.i == ws_start:
                raise self.fail("expected whitespace before attribute")
            attr_start = self.i
            name = self.parse_name("attribute name")
            if name in seen:
                raise self.fail(f"duplicate attribute {name!r}", attr_start)
            seen.add(name)
            self.skip_ws()
            if not self.data.startswith(b"=", self.i):
                raise self.fail("expected '=' after attribute name")
            self.i += 1
            self.skip_ws()
            quote = self.data[self.i : self.i + 1]
            if quote not in (b'"', b"'"):
                raise self.fail("expected quoted attribute value")
            end = self.data.find(quote, self.i + 1)
            if end < 0:
                raise self.fail("unterminated attribute value")
            self.i = end + 1
            attributes.append((name, (attr_start, self.i), ws_start))
        self.out[index] = (tag, (start, self.i), attributes)
        while True:
            lt = self.data.find(b"<", self.i)
            if lt < 0:
                raise self.fail(f"unclosed element <{tag}>", start)
            self.i = lt
            if self.data.startswith(b"</", self.i):
                close_start = self.i
                self.i += 2
                close_tag = self.parse_name("closing tag name")
                if close_tag != tag:
                    raise self.fail(
                        f"mismatched closing tag: expected </{tag}>, got </{close_tag}>",
                        close_start,
                    )
                self.skip_ws()
                if not self.data.startswith(b">", self.i):
                    raise self.fail("expected '>' in closing tag")
                self.i += 1
                return
            if not (
                self.skip(b"<!--", b"-->", "comment")
                or self.skip(b"<![CDATA[", b"]]>", "CDATA section")
                or self.skip(b"<?", b"?>", "processing instruction")
            ):
                self.parse_element()
