"""Lossless XML parser for Android layout resources.

Keeps the original bytes alongside a span-annotated element tree: attribute
order, inter-attribute whitespace, comments and text are all recoverable
because nothing is ever normalized. Serializing an unmodified tree returns
the input bytes verbatim; rewrites go through byte-range edits only.

This is a deliberately small well-formedness-checking parser, not a general
XML stack: no DTD expansion, no external entities, no encoding sniffing
(files are UTF-8 per project policy).
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from .diagnostics import ParseDiagnostic, line_col
from .spans import SourceSpan

_NAME_RE = re.compile(rb"[A-Za-z_:\x80-\xff][-A-Za-z0-9_:.\x80-\xff]*")
_WS = b" \t\r\n"


class XmlAttribute:
    __slots__ = ("name", "value", "span", "ws_start")

    def __init__(self, name: str, value: str, span: SourceSpan, ws_start: int):
        self.name = name  # qualified, e.g. android:layout_width
        self.value = value
        self.span = span  # covers name="value"
        self.ws_start = ws_start  # start of the whitespace run before the attribute

    @property
    def local_name(self) -> str:
        return self.name.split(":", 1)[-1]

    @property
    def prefix(self) -> str:
        return self.name.split(":", 1)[0] if ":" in self.name else ""


class XmlElement:
    __slots__ = ("tag", "attributes", "children", "span", "start_tag_span", "parent")

    def __init__(
        self,
        tag: str,
        attributes: list[XmlAttribute],
        start_tag_span: SourceSpan,
        parent: Optional[XmlElement],
    ):
        self.tag = tag
        self.attributes = attributes
        self.children: list[XmlElement] = []
        self.span = start_tag_span  # widened to the end tag, if there is one
        self.start_tag_span = start_tag_span
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

    def serialize(self) -> bytes:
        return self.data

    def walk(self) -> Iterator[XmlElement]:
        return self.root.walk()


class _XmlFailure(Exception):
    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class _XmlParser:
    def __init__(self, data: bytes):
        self.data = data
        self.i = 0

    def fail(self, message: str, offset: Optional[int] = None) -> _XmlFailure:
        off = self.i if offset is None else offset
        return _XmlFailure(ParseDiagnostic(*line_col(self.data, off), message))

    def skip_ws(self) -> None:
        while self.i < len(self.data) and self.data[self.i] in _WS:
            self.i += 1

    def skip_misc(self) -> None:
        """Whitespace, comments, PIs and doctype between markup."""
        while True:
            self.skip_ws()
            if self.data.startswith(b"<!--", self.i):
                end = self.data.find(b"-->", self.i + 4)
                if end < 0:
                    raise self.fail("unterminated comment")
                self.i = end + 3
            elif self.data.startswith(b"<?", self.i):
                end = self.data.find(b"?>", self.i + 2)
                if end < 0:
                    raise self.fail("unterminated processing instruction")
                self.i = end + 2
            elif self.data.startswith(b"<!DOCTYPE", self.i):
                end = self.data.find(b">", self.i)
                if end < 0:
                    raise self.fail("unterminated DOCTYPE")
                self.i = end + 1
            else:
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
            value = self.data[self.i + 1 : end].decode("utf-8")
            self.i = end + 1
            attributes.append(
                XmlAttribute(name, value, SourceSpan(attr_start, self.i), ws_start)
            )
        element = XmlElement(tag, attributes, SourceSpan(start, self.i), parent)
        # content
        while True:
            if self.i >= len(self.data):
                raise self.fail(f"unclosed element <{tag}>", start)
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
                element.span = SourceSpan(start, self.i)
                return element
            if self.data.startswith(b"<!--", self.i):
                end_c = self.data.find(b"-->", self.i + 4)
                if end_c < 0:
                    raise self.fail("unterminated comment")
                self.i = end_c + 3
            elif self.data.startswith(b"<![CDATA[", self.i):
                end_c = self.data.find(b"]]>", self.i + 9)
                if end_c < 0:
                    raise self.fail("unterminated CDATA section")
                self.i = end_c + 3
            elif self.data.startswith(b"<?", self.i):
                end_c = self.data.find(b"?>", self.i + 2)
                if end_c < 0:
                    raise self.fail("unterminated processing instruction")
                self.i = end_c + 2
            else:
                element.children.append(self.parse_element(parent=element))


def parse_layout_xml(data: bytes) -> tuple[Optional[XmlTree], list[ParseDiagnostic]]:
    """Parse XML bytes into a lossless XmlTree, or return diagnostics."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return None, [ParseDiagnostic(1, 1, f"not valid UTF-8: {exc.reason}")]
    parser = _XmlParser(data)
    try:
        root = parser.parse_document()
    except _XmlFailure as exc:
        return None, [exc.diagnostic]
    except RecursionError:
        return None, [ParseDiagnostic(1, 1, "nesting too deep")]
    return XmlTree(data, root), []
