"""Rule identifiers, rule order and result types shared by all five rules."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..spans import EditSet, SourceSpan


class RuleId(enum.Enum):
    VIEW_HOLDER = "ViewHolder"
    DRAW_ALLOCATION = "DrawAllocation"
    WAKE_LOCK = "WakeLock"
    RECYCLE = "Recycle"
    OBSOLETE_LAYOUT_PARAM = "ObsoleteLayoutParam"

    def __str__(self) -> str:
        return self.value


# Fixed execution/reporting order for the Java rules; ObsoleteLayoutParam
# runs on XML files only and comes last in reports.
JAVA_RULE_ORDER = (
    RuleId.VIEW_HOLDER,
    RuleId.DRAW_ALLOCATION,
    RuleId.WAKE_LOCK,
    RuleId.RECYCLE,
)
ALL_RULE_ORDER = JAVA_RULE_ORDER + (RuleId.OBSOLETE_LAYOUT_PARAM,)


@dataclass
class Finding:
    rule: RuleId
    file: str
    span: SourceSpan
    message: str
    fixable: bool = True


@dataclass
class RuleResult:
    findings: list[Finding] = field(default_factory=list)
    edits: EditSet = field(default_factory=EditSet)

    @property
    def fixable_count(self) -> int:
        return sum(1 for f in self.findings if f.fixable)
