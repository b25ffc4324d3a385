"""Corpus-level aggregation of per-project refactoring counts.

Reduces many ProjectReports to one summary row per rule plus a combined
"Any" row: total refactorings, number of affected projects, percentage of
the corpus affected (integer percent) and mean refactorings per affected
project (one decimal). Both renderings round half up; incidence is "-"
when no project is affected.
"""

from __future__ import annotations

from .engine import ProjectReport
from .rules import RuleId

ANY = "Any"
ROW_ORDER: tuple[str, ...] = tuple(str(r) for r in RuleId) + (ANY,)

CSV_HEADER = (
    "rule,total_refactorings,total_projects,percentage_of_projects,"
    "incidence_per_project"
)


class RuleSummary:
    __slots__ = ("rule", "total_refactorings", "total_projects")

    def __init__(self, rule: str, total_refactorings: int, total_projects: int):
        self.rule = rule
        self.total_refactorings = total_refactorings
        self.total_projects = total_projects

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RuleSummary):
            return NotImplemented
        return (self.rule, self.total_refactorings, self.total_projects) == (
            other.rule,
            other.total_refactorings,
            other.total_projects,
        )

    def percentage_of_projects(self, corpus_size: int) -> int:
        return _round_half_up(self.total_projects * 100, corpus_size)

    @property
    def incidence_per_project(self) -> str:
        if self.total_projects == 0:
            return "-"
        tenths = _round_half_up(self.total_refactorings * 10, self.total_projects)
        return f"{tenths // 10}.{tenths % 10}"


class CorpusSummary:
    __slots__ = ("corpus_size", "rows")

    def __init__(self, corpus_size: int, rows: dict[str, RuleSummary]):
        self.corpus_size = corpus_size
        self.rows = rows  # keyed by rule name, plus "Any"

    def row(self, rule: str) -> RuleSummary:
        return self.rows[rule]


def _round_half_up(numerator: int, denominator: int) -> int:
    """``numerator / denominator`` rounded half up, for non-negative integers."""
    return (2 * numerator + denominator) // (2 * denominator)


def aggregate(reports: list[ProjectReport]) -> CorpusSummary:
    """Reduce per-project reports to the per-rule summary table.

    A project counts toward a rule iff it has at least one refactoring
    (fixable finding) of that rule.
    """
    rows: dict[str, RuleSummary] = {}
    any_total = 0
    for rule in RuleId:
        total = sum(r.rule_counts[rule].refactorings for r in reports)
        projects = sum(1 for r in reports if r.rule_counts[rule].refactorings >= 1)
        rows[str(rule)] = RuleSummary(str(rule), total, projects)
        any_total += total
    any_projects = sum(
        1
        for r in reports
        if any(r.rule_counts[rule].refactorings >= 1 for rule in RuleId)
    )
    rows[ANY] = RuleSummary(ANY, any_total, any_projects)
    return CorpusSummary(corpus_size=len(reports), rows=rows)


def emit(summary: CorpusSummary, format: str) -> bytes:
    """Render the summary as CSV or JSON; byte-deterministic."""
    keys = CSV_HEADER.split(",")  # the CSV columns are also the JSON keys
    rows = []
    for rule in ROW_ORDER:
        row = summary.row(rule)
        rows.append(
            [
                rule,
                row.total_refactorings,
                row.total_projects,
                row.percentage_of_projects(summary.corpus_size),
                row.incidence_per_project,
            ]
        )
    if format == "csv":  # no cell holds a comma, a quote or a line break
        return "".join(",".join(map(str, r)) + "\n" for r in [keys, *rows]).encode()
    if format == "json":
        import json

        payload = [
            dict(zip(keys, values), corpus_size=summary.corpus_size) for values in rows
        ]
        return (json.dumps(payload, indent=2, sort_keys=False) + "\n").encode()
    raise ValueError(f"unknown format {format!r}")
