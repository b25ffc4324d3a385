"""Rule identifiers, rule order and result types shared by all five rules."""

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


# Rules run and are reported in declaration order. ObsoleteLayoutParam runs
# on XML files only; the others run on Java files.
JAVA_RULE_ORDER = tuple(r for r in RuleId if r is not RuleId.OBSOLETE_LAYOUT_PARAM)


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
