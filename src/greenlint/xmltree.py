"""Lossless XML parser for Android layout resources.

Keeps the original bytes alongside an element tree whose spans point into
them: an element's span is its start tag, an attribute's its name="value".
Attribute order, inter-attribute whitespace, comments and text stay in the
bytes because nothing is ever normalized; rewrites go through byte-range
edits only.

This is a deliberately small well-formedness-checking parser, not a general
XML stack: no DTD expansion, no external entities, no encoding sniffing
(files are UTF-8 per project policy and at most `diagnostics.MAX_SIZE`
bytes).
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from .diagnostics import ParseDiagnostic, ParseError, guarded_parse
from .spans import SourceSpan

_NAME_RE = re.compile(rb"[A-Za-z_:\x80-\xff][-A-Za-z0-9_:.\x80-\xff]*")
_WS = b" \t\r\n"


class XmlAttribute:
    __slots__ = ("name", "span", "ws_start")

    def __init__(self, name: str, span: SourceSpan, ws_start: int):
        self.name = name  # qualified, e.g. android:layout_width
        self.span = span  # covers name="value"
        self.ws_start = ws_start  # start of the whitespace run before the attribute


class XmlElement:
    __slots__ = ("tag", "attributes", "children", "span", "parent")

    def __init__(
        self,
        tag: str,
        attributes: list[XmlAttribute],
        span: SourceSpan,
        parent: Optional[XmlElement],
    ):
        self.tag = tag
        self.attributes = attributes
        self.children: list[XmlElement] = []
        self.span = span  # the start tag
        self.parent = parent

    def walk(self) -> Iterator[XmlElement]:
        yield self
        for child in self.children:
            yield from child.walk()


class XmlTree:
    __slots__ = ("data", "root")

    def __init__(self, data: bytes, root: XmlElement):
        self.data = data
        self.root = root


class _XmlParser:
    def __init__(self, data: bytes):
        self.data = data
        self.i = 0

    def fail(self, message: str, offset: Optional[int] = None) -> ParseError:
        return ParseError(self.i if offset is None else offset, message)

    def skip_ws(self) -> None:
        while self.i < len(self.data) and self.data[self.i] in _WS:
            self.i += 1

    def skip(self, opener: bytes, closer: bytes, what: str) -> bool:
        """Skip the `opener ... closer` run at the cursor, if one starts
        there; fail with "unterminated ``what``" if it does not close."""
        if not self.data.startswith(opener, self.i):
            return False
        end = self.data.find(closer, self.i + len(opener))
        if end < 0:
            raise self.fail(f"unterminated {what}")
        self.i = end + len(closer)
        return True

    def skip_misc(self) -> None:
        """Whitespace, comments, PIs and doctype between markup."""
        while True:
            self.skip_ws()
            if not (
                self.skip(b"<!--", b"-->", "comment")
                or self.skip(b"<?", b"?>", "processing instruction")
                or self.skip(b"<!DOCTYPE", b">", "DOCTYPE")
            ):
                return

    def parse_document(self) -> XmlElement:
        if self.data.startswith(b"\xef\xbb\xbf"):
            self.i = 3
        self.skip_misc()
        if self.i >= len(self.data) or self.data[self.i : self.i + 1] != b"<":
            raise self.fail("expected root element")
        root = self.parse_element(parent=None)
        self.skip_misc()
        if self.i < len(self.data):
            raise self.fail("content after root element")
        return root

    def _parse_name(self, what: str) -> str:
        m = _NAME_RE.match(self.data, self.i)
        if m is None:
            raise self.fail(f"expected {what}")
        self.i = m.end()
        return m.group(0).decode("utf-8")

    def parse_element(self, parent: Optional[XmlElement]) -> XmlElement:
        start = self.i
        assert self.data[self.i : self.i + 1] == b"<"
        self.i += 1
        tag = self._parse_name("element name")
        attributes: list[XmlAttribute] = []
        seen: set[str] = set()
        while True:
            ws_start = self.i
            self.skip_ws()
            if self.data.startswith(b"/>", self.i):
                self.i += 2
                return XmlElement(tag, attributes, SourceSpan(start, self.i), parent)
            if self.data.startswith(b">", self.i):
                self.i += 1
                break
            if self.i >= len(self.data):
                raise self.fail("unterminated start tag", start)
            if self.i == ws_start:
                raise self.fail("expected whitespace before attribute")
            attr_start = self.i
            name = self._parse_name("attribute name")
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
            attributes.append(XmlAttribute(name, SourceSpan(attr_start, self.i), ws_start))
        element = XmlElement(tag, attributes, SourceSpan(start, self.i), parent)
        # content
        while True:
            lt = self.data.find(b"<", self.i)
            if lt < 0:
                raise self.fail(f"unclosed element <{tag}>", start)
            self.i = lt
            if self.data.startswith(b"</", self.i):
                close_start = self.i
                self.i += 2
                close_tag = self._parse_name("closing tag name")
                if close_tag != tag:
                    raise self.fail(
                        f"mismatched closing tag: expected </{tag}>, got </{close_tag}>",
                        close_start,
                    )
                self.skip_ws()
                if not self.data.startswith(b">", self.i):
                    raise self.fail("expected '>' in closing tag")
                self.i += 1
                return element
            if not (
                self.skip(b"<!--", b"-->", "comment")
                or self.skip(b"<![CDATA[", b"]]>", "CDATA section")
                or self.skip(b"<?", b"?>", "processing instruction")
            ):
                element.children.append(self.parse_element(parent=element))


def parse_layout_xml(data: bytes) -> tuple[Optional[XmlTree], list[ParseDiagnostic]]:
    """Parse XML bytes into a lossless XmlTree, or return diagnostics."""
    return guarded_parse(data, lambda: XmlTree(data, _XmlParser(data).parse_document()))
