"""Per-rule counts of findings, and their corpus-level aggregation.

`rule_counts` is the one place findings become numbers: it counts one
project's findings by rule. `aggregate` reduces many projects' counts to
one row per rule plus a combined "Any" row. A row holds the CSV cells: the
rule, total refactorings, number of affected projects, percentage of the
corpus affected (integer percent) and mean refactorings per affected
project (one decimal, "-" when no project is affected). Both round half
up. `emit` renders the rows as CSV, or as JSON with the corpus size in
every row.
"""

from __future__ import annotations

from .rules import RuleId

ANY = "Any"
ROW_ORDER: tuple[str, ...] = tuple(str(r) for r in RuleId) + (ANY,)

CSV_HEADER = (
    "rule,total_refactorings,total_projects,percentage_of_projects,"
    "incidence_per_project"
)

# rule, total refactorings, affected projects, percentage, incidence
Row = tuple[str, int, int, int, str]


def _round_half_up(numerator: int, denominator: int) -> int:
    """``numerator / denominator`` rounded half up, for non-negative integers."""
    return (2 * numerator + denominator) // (2 * denominator)


def rule_counts(outcomes: list) -> dict[RuleId, dict[str, int]]:
    """Each rule's "refactorings", "fixed" and "unfixable" counts over the
    findings of ``outcomes`` (`engine.FileOutcome`s). A fixable finding is
    fixed when its file was rewritten or patched."""
    counts = {rule: {"refactorings": 0, "fixed": 0, "unfixable": 0} for rule in RuleId}
    for outcome in outcomes:
        applied = outcome.rewritten or outcome.patch is not None
        for finding in outcome.findings:
            count = counts[finding.rule]
            if not finding.fixable:
                count["unfixable"] += 1
                continue
            count["refactorings"] += 1
            if applied:
                count["fixed"] += 1
    return counts


def aggregate(per_project: list[dict[RuleId, dict[str, int]]]) -> list[Row]:
    """Reduce each project's `rule_counts` to the summary rows, in ROW_ORDER.

    A project counts toward a rule iff it has at least one refactoring
    (fixable finding) of that rule, and toward "Any" iff it has one of any
    rule.
    """
    columns = [[p[rule]["refactorings"] for p in per_project] for rule in RuleId]
    columns.append(list(map(sum, zip(*columns))))  # each project's total
    rows = []
    for rule, counts in zip(ROW_ORDER, columns):
        total = sum(counts)
        projects = sum(1 for count in counts if count)
        incidence = "-"
        if projects:
            tenths = _round_half_up(total * 10, projects)
            incidence = f"{tenths // 10}.{tenths % 10}"
        percent = _round_half_up(projects * 100, len(per_project))
        rows.append((rule, total, projects, percent, incidence))
    return rows


def emit(rows: list[Row], format: str, corpus_size: int) -> bytes:
    """Render the rows as CSV or JSON; byte-deterministic."""
    keys = CSV_HEADER.split(",")  # the CSV columns are also the JSON keys
    if format == "csv":  # no cell holds a comma, a quote or a line break
        return "".join(",".join(map(str, r)) + "\n" for r in [keys, *rows]).encode()
    if format == "json":
        import json

        payload = [dict(zip(keys, row), corpus_size=corpus_size) for row in rows]
        return (json.dumps(payload, indent=2, sort_keys=False) + "\n").encode()
    raise ValueError(f"unknown format {format!r}")
