"""The five energy rules and their shared result types."""

from .base import Finding, RuleId, RuleResult
from .draw_allocation import apply_draw_allocation
from .layout_params import apply_obsolete_layout_param
from .recycle import apply_recycle
from .view_holder import apply_view_holder
from .wake_lock import apply_wake_lock

__all__ = [
    "Finding",
    "RuleId",
    "RuleResult",
    "apply_draw_allocation",
    "apply_obsolete_layout_param",
    "apply_recycle",
    "apply_view_holder",
    "apply_wake_lock",
]
