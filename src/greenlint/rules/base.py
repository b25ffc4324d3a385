"""Rule identifiers and result types shared by all five rules."""

from __future__ import annotations

import enum

from ..spans import Edit, SourceSpan


class RuleId(enum.Enum):
    VIEW_HOLDER = "ViewHolder"
    DRAW_ALLOCATION = "DrawAllocation"
    WAKE_LOCK = "WakeLock"
    RECYCLE = "Recycle"
    OBSOLETE_LAYOUT_PARAM = "ObsoleteLayoutParam"

    def __str__(self) -> str:
        return self.value


class Finding:
    __slots__ = ("rule", "file", "span", "message", "fixable", "line", "column")

    def __init__(
        self,
        rule: RuleId,
        file: str,
        span: SourceSpan,
        message: str,
        fixable: bool = True,
    ):
        self.rule = rule
        self.file = file
        self.span = span
        self.message = message
        self.fixable = fixable
        self.line = self.column = 0  # 1-based; the engine sets them from the file


class RuleResult:
    __slots__ = ("findings", "edits")

    def __init__(self) -> None:
        self.findings: list[Finding] = []
        self.edits: list[Edit] = []

    def report(
        self, rule: RuleId, path: str, span: SourceSpan, message: str, reason: str
    ) -> bool:
        """Record a finding, fixable unless ``reason`` says why no fix is
        applied; returns whether it is fixable."""
        if reason:
            message = f"{message}; {reason}, so no automatic fix is applied"
        self.findings.append(Finding(rule, path, span, message, not reason))
        return not reason

    @property
    def fixable_count(self) -> int:
        return sum(1 for f in self.findings if f.fixable)
