"""Byte spans over source files and the edit machinery built on them.

All rewriting in this project happens through a list of :class:`Edit`: rules
emit byte-range replacements against the *original* file and never see
intermediate states, which keeps overlap checkable and conflicts explicit.
"""

from __future__ import annotations


class EditError(Exception):
    """An edit list violated its invariants (overlap or out-of-bounds span).

    This is a programming bug in a rule, never a user-input problem.
    """


class SourceSpan:
    """Half-open byte range [start, end) measured on the raw input bytes."""

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int):
        if start < 0 or end < start:
            raise ValueError(f"invalid span [{start}, {end})")
        self.start = start
        self.end = end

    def __len__(self) -> int:
        return self.end - self.start


class Edit:
    """Replace ``span`` of the original file with ``replacement`` bytes."""

    __slots__ = ("span", "replacement")

    def __init__(self, span: SourceSpan, replacement: bytes):
        self.span = span
        self.replacement = replacement

    @staticmethod
    def delete(start: int, end: int) -> "Edit":
        return Edit(SourceSpan(start, end), b"")

    @staticmethod
    def insert(offset: int, text: bytes) -> "Edit":
        return Edit(SourceSpan(offset, offset), text)

    @staticmethod
    def replace(start: int, end: int, text: bytes) -> "Edit":
        return Edit(SourceSpan(start, end), text)


def apply_edit_set(text: bytes, edits: list[Edit]) -> bytes:
    """Apply ``edits``, in any order, to ``text``; bytes outside all spans
    are untouched. Insertions at the same offset keep their list order.

    Raises EditError if an edit ends past ``text`` or two edits overlap.
    """
    out = bytearray()
    cursor = 0  # end of the previous edit
    prev: Edit | None = None
    for edit in sorted(edits, key=lambda e: (e.span.start, e.span.end)):
        if edit.span.end > len(text):
            raise EditError(
                f"edit span [{edit.span.start}, {edit.span.end}) exceeds "
                f"text length {len(text)}"
            )
        # Two pure insertions at the same offset are allowed; anything
        # touching actual bytes must not share them.
        if prev is not None and edit.span.start < cursor:
            raise EditError(
                f"edit spans overlap: [{prev.span.start}, {prev.span.end}) "
                f"and [{edit.span.start}, {edit.span.end})"
            )
        out += text[cursor : edit.span.start]
        out += edit.replacement
        cursor = edit.span.end
        prev = edit
    out += text[cursor:]
    return bytes(out)
