"""Byte spans over source files and the edit machinery built on them.

All rewriting in this project happens through :class:`EditSet`: rules emit
byte-range replacements against the *original* file and never see
intermediate states, which keeps overlap checkable and conflicts explicit.
"""

from __future__ import annotations


class EditError(Exception):
    """An EditSet violated its invariants (overlap or out-of-bounds span).

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


class EditSet:
    """Ordered, pairwise non-overlapping edits against one file."""

    __slots__ = ("edits",)

    def __init__(self, edits: list[Edit] | None = None):
        self.edits = [] if edits is None else edits

    def __len__(self) -> int:
        return len(self.edits)

    def add(self, edit: Edit) -> None:
        self.edits.append(edit)

    def extend(self, other: "EditSet") -> None:
        self.edits.extend(other.edits)

    def sorted(self) -> list[Edit]:
        # Insertions at the same offset keep their relative order.
        return sorted(self.edits, key=lambda e: (e.span.start, e.span.end))


def apply_edit_set(text: bytes, edits: EditSet) -> bytes:
    """Apply ``edits`` to ``text``; bytes outside all spans are untouched.

    Raises EditError if an edit ends past ``text`` or two edits overlap.
    """
    out = bytearray()
    cursor = 0  # end of the previous edit
    prev: Edit | None = None
    for edit in edits.sorted():
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
