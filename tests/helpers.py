"""Test-only helpers over greenlint's data types: tree queries, span
containment and synthetic corpus reports."""

from __future__ import annotations

import json

from greenlint.engine import ProjectReport, RuleCount
from greenlint.java.parser import Node, SyntaxTree
from greenlint.report import CorpusSummary, RuleSummary
from greenlint.rules import RuleId
from greenlint.spans import SourceSpan


def find_all(tree: SyntaxTree, kind: str) -> list[Node]:
    return [n for n in tree.root.walk() if n.kind == kind]


def contains(outer: SourceSpan, inner: SourceSpan) -> bool:
    return outer.start <= inner.start and inner.end <= outer.end


def make_report(project_id: str, refactorings: dict[RuleId, int]) -> ProjectReport:
    """A ProjectReport with the given per-rule refactoring counts, for
    aggregating without running the engine."""
    counts = {rule: RuleCount(refactorings.get(rule, 0)) for rule in RuleId}
    return ProjectReport(project_id, counts)


def parse_summary(data: bytes) -> CorpusSummary:
    """Inverse of emit(..., 'json') for round-trip checks."""
    payload = json.loads(data.decode("utf-8"))
    rows = {
        entry["rule"]: RuleSummary(
            entry["rule"], entry["total_refactorings"], entry["total_projects"]
        )
        for entry in payload
    }
    return CorpusSummary(payload[0]["corpus_size"], rows)
