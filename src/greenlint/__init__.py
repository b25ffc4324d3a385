"""greenlint: detect and auto-fix Android energy code smells.

Five rules over Java and layout XML sources (ViewHolder, DrawAllocation,
WakeLock, Recycle, ObsoleteLayoutParam), built on lossless span-annotated
parse trees and byte-range edits, plus a corpus harness that aggregates
findings across many projects.
"""

from .engine import FileOutcome, ProjectReport, RunConfig, discover_files, run_project
from .java.parser import SyntaxTree, parse_java_source
from .report import CorpusSummary, aggregate, emit
from .rules import Finding, RuleId, RuleResult
from .spans import Edit, EditSet, SourceSpan, apply_edit_set
from .xmltree import XmlTree, parse_layout_xml

__version__ = "0.1.0"

__all__ = [
    "CorpusSummary",
    "Edit",
    "EditSet",
    "FileOutcome",
    "Finding",
    "ProjectReport",
    "RuleId",
    "RuleResult",
    "RunConfig",
    "SourceSpan",
    "SyntaxTree",
    "XmlTree",
    "aggregate",
    "apply_edit_set",
    "discover_files",
    "emit",
    "parse_java_source",
    "parse_layout_xml",
    "run_project",
    "__version__",
]
