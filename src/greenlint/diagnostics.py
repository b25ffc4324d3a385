"""Parse diagnostics shared by the Java and XML front ends, and the one
guard both run their parsers under."""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

T = TypeVar("T")

# Larger inputs are refused before any work is done on them.
MAX_SIZE = 16 * 1024 * 1024


class ParseDiagnostic:
    """A parse failure location; callers skip the file, they never abort."""

    __slots__ = ("line", "column", "message")

    def __init__(self, line: int, column: int, message: str):
        self.line = line  # 1-based
        self.column = column  # 1-based
        self.message = message

    def __repr__(self) -> str:
        return f"ParseDiagnostic({self.line}, {self.column}, {self.message!r})"

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.message}"


class ParseError(Exception):
    """A failure at a byte offset; the line and column are computed only
    when it leaves `guarded_parse`, so a backtracking miss stays cheap."""

    def __init__(self, offset: int, message: str):
        super().__init__(message)
        self.offset = offset
        self.message = message


def line_col(data: bytes, offset: int) -> tuple[int, int]:
    """1-based (line, column) of a byte offset; the column counts characters."""
    line = data.count(b"\n", 0, offset) + 1
    start = data.rfind(b"\n", 0, offset) + 1
    return line, len(data[start:offset].decode("utf-8", errors="replace")) + 1


def guarded_parse(
    data: bytes, parse: Callable[[], T]
) -> tuple[Optional[T], list[ParseDiagnostic]]:
    """``(parse(), [])``, or ``(None, [diagnostic])`` if ``data`` is over
    `MAX_SIZE`, is not UTF-8, or ``parse`` raises `ParseError` or recurses
    too deep."""
    if len(data) > MAX_SIZE:
        return None, [ParseDiagnostic(1, 1, f"file exceeds size cap of {MAX_SIZE} bytes")]
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return None, [ParseDiagnostic(1, 1, f"not valid UTF-8: {exc.reason}")]
    try:
        return parse(), []
    except ParseError as exc:
        return None, [ParseDiagnostic(*line_col(data, exc.offset), exc.message)]
    except RecursionError:
        return None, [ParseDiagnostic(1, 1, "nesting too deep")]
