"""Parse diagnostics shared by the Java and XML front ends."""

from __future__ import annotations


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


def line_col(data: bytes, offset: int) -> tuple[int, int]:
    """1-based (line, column) of a byte offset; the column counts characters."""
    line = data.count(b"\n", 0, offset) + 1
    start = data.rfind(b"\n", 0, offset) + 1
    return line, len(data[start:offset].decode("utf-8", errors="replace")) + 1
