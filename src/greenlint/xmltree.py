"""Lossless XML parser for Android layout resources.

Keeps the original bytes alongside an element tree whose spans point into
them: an element's span is its start tag. Attribute order, inter-attribute
whitespace, comments and text stay in the bytes because nothing is ever
normalized; rewrites go through byte-range edits only.

A start tag is read by one regex match: its name, its attribute run and
its `>` or `/>`; one `findall` over the run looks for a duplicate name.
The element keeps the run as a byte range, and `attributes` reads the
attributes from it on demand. Only when that match fails, or finds a
duplicate, is the tag read again step by step to say why. An element
holds its children but no pointer back to its parent, so a tree has no
reference cycle and is freed as soon as it is dropped.

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

_NAME = rb"[A-Za-z_:\x80-\xff][-A-Za-z0-9_:.\x80-\xff]*"
_NAME_RE = re.compile(_NAME)
_WS_RE = re.compile(rb"[ \t\r\n]*")
# An attribute's `=` and quoted value, with any whitespace before the quote.
_VALUE = rb"""[ \t\r\n]*=[ \t\r\n]*(?:"[^"]*"|'[^']*')"""
# One attribute with the whitespace before it: the name is group 1, and the
# match ends after the closing quote.
_ATTRIBUTE_RE = re.compile(rb"[ \t\r\n]+(" + _NAME + rb")" + _VALUE)
# A whole start tag: the tag name is group 1, the attribute run group 2 and
# the closing "/>" or ">" group 3.
_START_TAG_RE = re.compile(
    rb"<(" + _NAME + rb")((?:[ \t\r\n]+" + _NAME + _VALUE + rb")*)[ \t\r\n]*(/?>)"
)


class XmlElement:
    __slots__ = ("tag", "children", "span", "attribute_run")

    def __init__(self, tag: str, span: SourceSpan, attribute_run: tuple[int, int]):
        self.tag = tag
        self.children: list[XmlElement] = []
        self.span = span  # the start tag
        self.attribute_run = attribute_run  # (start, end) of the attributes in the start tag

    def walk(self) -> Iterator[XmlElement]:
        """This element and its descendants, in document order."""
        stack = [self]
        while stack:
            element = stack.pop()
            yield element
            stack += reversed(element.children)


def attributes(tree: XmlTree, element: XmlElement) -> list[tuple[str, int, int, int]]:
    """The attributes of ``element`` in order, each as its qualified name
    (e.g. android:layout_width), the start and end of its name="value" and
    the start of the whitespace run before it."""
    return [
        (m.group(1).decode("utf-8"), m.start(1), m.end(), m.start())
        for m in _ATTRIBUTE_RE.finditer(tree.data, *element.attribute_run)
    ]


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
        self.i = _WS_RE.match(self.data, self.i).end()

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
        root = self.parse_element()
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

    def _start_tag_error(self, start: int) -> ParseError:
        """Why `_START_TAG_RE` does not read the start tag at ``start``, or why
        the one it reads repeats a name, found one attribute at a time."""
        self.i = start + 1
        self._parse_name("element name")
        seen: set[str] = set()
        while True:
            ws_start = self.i
            self.skip_ws()
            if self.i >= len(self.data):
                return self.fail("unterminated start tag", start)
            if self.i == ws_start:
                return self.fail("expected whitespace before attribute")
            attr_start = self.i
            name = self._parse_name("attribute name")
            if name in seen:
                return self.fail(f"duplicate attribute {name!r}", attr_start)
            seen.add(name)
            self.skip_ws()
            if not self.data.startswith(b"=", self.i):
                return self.fail("expected '=' after attribute name")
            self.i += 1
            self.skip_ws()
            quote = self.data[self.i : self.i + 1]
            if quote not in (b'"', b"'"):
                return self.fail("expected quoted attribute value")
            end = self.data.find(quote, self.i + 1)
            if end < 0:
                return self.fail("unterminated attribute value")
            self.i = end + 1

    def parse_element(self) -> XmlElement:
        data = self.data
        start = self.i
        m = _START_TAG_RE.match(data, start)
        if m is None:
            raise self._start_tag_error(start)
        run = m.span(2)
        names = _ATTRIBUTE_RE.findall(data, *run)
        if len(set(names)) != len(names):
            raise self._start_tag_error(start)
        self.i = m.end()
        tag = m[1].decode("utf-8")
        element = XmlElement(tag, SourceSpan(start, self.i), run)
        if m[3] == b"/>":
            return element
        while True:
            lt = data.find(b"<", self.i)
            if lt < 0:
                raise self.fail(f"unclosed element <{tag}>", start)
            self.i = lt
            if data.startswith(b"</", lt):
                self.i += 2
                close_tag = self._parse_name("closing tag name")
                if close_tag != tag:
                    raise self.fail(
                        f"mismatched closing tag: expected </{tag}>, got </{close_tag}>", lt
                    )
                self.skip_ws()
                if not data.startswith(b">", self.i):
                    raise self.fail("expected '>' in closing tag")
                self.i += 1
                return element
            if not data.startswith((b"<!", b"<?"), lt) or not (
                self.skip(b"<!--", b"-->", "comment")
                or self.skip(b"<![CDATA[", b"]]>", "CDATA section")
                or self.skip(b"<?", b"?>", "processing instruction")
            ):
                element.children.append(self.parse_element())


def parse_layout_xml(data: bytes) -> tuple[Optional[XmlTree], list[ParseDiagnostic]]:
    """Parse XML bytes into a lossless XmlTree, or return diagnostics."""
    return guarded_parse(data, lambda: XmlTree(data, _XmlParser(data).parse_document()))
