"""Lossless XML parser for Android layout resources.

Keeps the original bytes alongside an element tree whose spans point into
them: an element's span is its start tag. Nothing is ever normalized;
rewrites go through byte-range edits only.

Well-formedness is judged by the standard library's expat because aapt2,
which compiles layouts into an app, reads them with libexpat: a layout
expat rejects cannot be built, so greenlint must not rewrite it. Among
such layouts are a bare `&` (XML 1.0 §2.4) and a `<` in an attribute
value (`AttValue`, §2.3). The parser reads UTF-8 whatever encoding a
declaration names, does no namespace processing, refuses a DOCTYPE as it
opens, so no entity is ever declared or expanded, and keeps expat's
message and offset for an error. At each start tag, one regex match from
expat's offset reads the tag's extent and its attribute run, which the
element keeps as a byte range for `attributes` to read on demand. No
element points back at its parent, so a tree has no reference cycle.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional
from xml.parsers import expat

from .diagnostics import ParseDiagnostic, ParseError, guarded_parse
from .spans import SourceSpan

_NAME = rb"[A-Za-z_:\x80-\xff][-A-Za-z0-9_:.\x80-\xff]*"
# An attribute's `=` and quoted value, with any whitespace before the quote.
_VALUE = rb"""[ \t\r\n]*=[ \t\r\n]*(?:"[^"]*"|'[^']*')"""
# One attribute with the whitespace before it: the name is group 1, and the
# match ends after the closing quote.
_ATTRIBUTE_RE = re.compile(rb"[ \t\r\n]+(" + _NAME + rb")" + _VALUE)
# A whole start tag, up to its "/>" or ">": the tag name is group 1 and the
# attribute run group 2.
_START_TAG_RE = re.compile(
    rb"<(" + _NAME + rb")((?:[ \t\r\n]+" + _NAME + _VALUE + rb")*)[ \t\r\n]*/?>"
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


def _parse(data: bytes) -> XmlTree:
    """Run one expat parser over ``data``, building the tree from its start
    and end events; every expat failure becomes a `ParseError`."""
    parser = expat.ParserCreate("UTF-8")  # overrides a declared encoding
    top: list[XmlElement] = []
    open_children = [top]  # the children of each element still open

    def start(name: str, _attributes: dict) -> None:
        i = parser.CurrentByteIndex  # the tag's `<`
        m = _START_TAG_RE.match(data, i)
        if m is None:
            raise ParseError(i, "start tag not understood")
        element = XmlElement(name, SourceSpan(i, m.end()), m.span(2))
        open_children[-1].append(element)
        open_children.append(element.children)

    def doctype(*_args: object) -> None:
        # Refused before its internal subset, so no entity is ever declared.
        at = data.rfind(b"<!DOCTYPE", 0, parser.CurrentByteIndex + 1)
        raise ParseError(at, "DOCTYPE is not allowed in a layout")

    parser.StartElementHandler = start
    parser.EndElementHandler = lambda _name: open_children.pop()
    parser.StartDoctypeDeclHandler = doctype
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        at = max(parser.ErrorByteIndex, 0)  # -1 on empty input
        raise ParseError(at, expat.ErrorString(exc.code)) from None
    finally:
        # The handlers close over the parser; dropping them breaks that
        # cycle, which a run with the collector off would never free.
        parser.StartElementHandler = None
        parser.EndElementHandler = None
        parser.StartDoctypeDeclHandler = None
    return XmlTree(data, top[0])


def parse_layout_xml(data: bytes) -> tuple[Optional[XmlTree], list[ParseDiagnostic]]:
    """Parse XML bytes into a lossless XmlTree, or return diagnostics."""
    return guarded_parse(data, lambda: _parse(data))
