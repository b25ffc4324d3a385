"""ObsoleteLayoutParam rule: drop layout_* attributes the parent ignores.

Each android:layout_* attribute is interpreted by the view's parent
container; attributes alien to the actual parent (e.g. a RelativeLayout
anchor under a LinearLayout) are dead weight processed at inflate time and
safe to delete. Unknown parents (custom views, <merge>, <include>) are
never touched: a custom container may consume any layout param.
"""

from __future__ import annotations

from pathlib import Path

from ..spans import Edit
from ..xmltree import XmlTree
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

DEFAULT_TABLE_ENTRIES: dict[str, frozenset[str]] = {
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


class LayoutParamTable:
    """Which android:layout_* params are meaningful under which parent tag.

    Parents absent from the table are unknown: the rule never flags their
    children. Entries under parent '*' extend the universal set.
    """

    __slots__ = ("parents", "universal")

    def __init__(
        self,
        parents: dict[str, frozenset[str]] | None = None,
        universal: frozenset[str] = UNIVERSAL_PARAMS,
    ):
        self.parents = dict(DEFAULT_TABLE_ENTRIES) if parents is None else parents
        self.universal = universal

    def is_meaningful(self, parent_tag: str, param: str) -> bool:
        if param in self.universal or param.startswith(UNIVERSAL_PREFIXES):
            return True
        meaningful = self.parents.get(parent_tag)
        if meaningful is None:
            return True  # unknown parent: assume it consumes anything
        return param in meaningful

    def knows_parent(self, parent_tag: str) -> bool:
        return parent_tag in self.parents

    @classmethod
    def from_file(cls, path: Path) -> "LayoutParamTable":
        """Load a table file: one `ParentTag<TAB>attribute_name` per line,
        '#' comments. Replaces the built-in per-parent table; '*' lines
        extend the universal set."""
        parents: dict[str, set[str]] = {}
        universal: set[str] = set(UNIVERSAL_PARAMS)
        for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise ValueError(
                    f"{path}:{lineno}: expected 'ParentTag<TAB>attribute_name'"
                )
            parent, attr = parts
            if parent == "*":
                universal.add(attr)
            else:
                parents.setdefault(parent, set()).add(attr)
        return cls(
            parents={k: frozenset(v) for k, v in parents.items()},
            universal=frozenset(universal),
        )


def apply_obsolete_layout_param(
    tree: XmlTree, path: str = "", table: LayoutParamTable | None = None
) -> RuleResult:
    result = RuleResult()
    table = table if table is not None else LayoutParamTable()

    for element in tree.root.walk():
        parent = element.parent
        if parent is None:
            continue
        if not table.knows_parent(parent.tag):
            continue
        for attr in element.attributes:
            prefix, _, local_name = attr.name.partition(":")
            if prefix != "android" or not local_name.startswith("layout_"):
                continue
            if table.is_meaningful(parent.tag, local_name):
                continue
            message = (
                f"{attr.name} has no effect on a child of "
                f"<{parent.tag}>; it is safe to remove"
            )
            result.report(RuleId.OBSOLETE_LAYOUT_PARAM, path, attr.span, message, "")
            result.edits.append(Edit.delete(attr.ws_start, attr.span.end))

    return result
