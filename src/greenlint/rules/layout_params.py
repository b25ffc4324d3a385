"""ObsoleteLayoutParam rule: drop layout_* attributes the parent ignores.

Each android:layout_* attribute is interpreted by the view's parent
container; attributes alien to the actual parent (e.g. a RelativeLayout
anchor under a LinearLayout) are dead weight processed at inflate time and
safe to delete. Parents absent from the table below are unknown (custom
views, <merge>, <include>), and their children are never touched: a custom
container may consume any layout param.
"""

from __future__ import annotations

from ..spans import Edit, SourceSpan
from ..xmltree import XmlTree, attributes
from .base import RuleId, RuleResult

# Params every ViewGroup understands (layout_margin* matched as a prefix).
UNIVERSAL_PARAMS = frozenset({"layout_width", "layout_height"})
UNIVERSAL_PREFIXES = ("layout_margin",)

_RELATIVE_PARAMS = frozenset(
    {
        "layout_above",
        "layout_below",
        "layout_toLeftOf",
        "layout_toRightOf",
        "layout_toStartOf",
        "layout_toEndOf",
        "layout_alignParentTop",
        "layout_alignParentBottom",
        "layout_alignParentLeft",
        "layout_alignParentRight",
        "layout_alignParentStart",
        "layout_alignParentEnd",
        "layout_alignTop",
        "layout_alignBottom",
        "layout_alignLeft",
        "layout_alignRight",
        "layout_alignStart",
        "layout_alignEnd",
        "layout_alignBaseline",
        "layout_alignWithParentIfMissing",
        "layout_centerHorizontal",
        "layout_centerVertical",
        "layout_centerInParent",
    }
)

# The params each known parent understands beyond the universal ones.
PARENT_PARAMS: dict[str, frozenset[str]] = {
    "LinearLayout": frozenset({"layout_weight", "layout_gravity"}),
    "RadioGroup": frozenset({"layout_weight", "layout_gravity"}),
    "RelativeLayout": _RELATIVE_PARAMS,
    "FrameLayout": frozenset({"layout_gravity"}),
    "TableLayout": frozenset({"layout_weight", "layout_gravity"}),
    "TableRow": frozenset({"layout_column", "layout_span", "layout_weight", "layout_gravity"}),
    "GridLayout": frozenset(
        {
            "layout_row",
            "layout_rowSpan",
            "layout_rowWeight",
            "layout_column",
            "layout_columnSpan",
            "layout_columnWeight",
            "layout_gravity",
        }
    ),
}


def apply_obsolete_layout_param(tree: XmlTree, path: str = "") -> RuleResult:
    result = RuleResult()

    for parent in tree.root.walk():
        meaningful = PARENT_PARAMS.get(parent.tag)
        if meaningful is None:
            continue
        for element in parent.children:
            for name, start, end, ws_start in attributes(tree, element):
                prefix, _, local_name = name.partition(":")
                if prefix != "android" or not local_name.startswith("layout_"):
                    continue
                if local_name in meaningful or local_name in UNIVERSAL_PARAMS:
                    continue
                if local_name.startswith(UNIVERSAL_PREFIXES):
                    continue
                message = f"{name} has no effect on a child of <{parent.tag}>; it is safe to remove"
                span = SourceSpan(start, end)
                result.report(RuleId.OBSOLETE_LAYOUT_PARAM, path, span, message, "")
                result.edits.append(Edit.delete(ws_start, end))

    return result
