from hypothesis import given
from hypothesis import strategies as st

from greenlint.report import ANY, CSV_HEADER, ROW_ORDER, aggregate, emit
from greenlint.rules import RuleId

from helpers import make_report, parse_summary


def test_two_project_aggregation():
    reports = [
        make_report({RuleId.RECYCLE: 3}),
        make_report({RuleId.RECYCLE: 1, RuleId.OBSOLETE_LAYOUT_PARAM: 2}),
    ]
    summary = aggregate(reports)
    assert summary.corpus_size == 2

    recycle = summary.row("Recycle")
    assert (recycle.total_refactorings, recycle.total_projects) == (4, 2)
    assert recycle.percentage_of_projects(2) == 100
    assert recycle.incidence_per_project == "2.0"

    olp = summary.row("ObsoleteLayoutParam")
    assert (olp.total_refactorings, olp.total_projects) == (2, 1)
    assert olp.percentage_of_projects(2) == 50
    assert olp.incidence_per_project == "2.0"

    combined = summary.row(ANY)
    assert (combined.total_refactorings, combined.total_projects) == (6, 2)
    assert combined.percentage_of_projects(2) == 100
    assert combined.incidence_per_project == "3.0"

    untouched = summary.row("DrawAllocation")
    assert untouched.total_projects == 0
    assert untouched.incidence_per_project == "-"


def test_rounding_is_half_up():
    # 1 of 8 projects affected: 12.5% must round to 13, not banker's 12
    reports = [make_report({RuleId.WAKE_LOCK: 1})] + [
        make_report({}) for _ in range(2, 9)
    ]
    summary = aggregate(reports)
    assert summary.row("WakeLock").percentage_of_projects(8) == 13

    # 5 refactorings over 2 projects: incidence 2.5 stays 2.5
    reports = [
        make_report({RuleId.RECYCLE: 4}),
        make_report({RuleId.RECYCLE: 1}),
    ]
    assert aggregate(reports).row("Recycle").incidence_per_project == "2.5"

    # 9 over 4 projects: 2.25 rounds half up to 2.3
    reports = [
        make_report({RuleId.RECYCLE: 6}),
        make_report({RuleId.RECYCLE: 1}),
        make_report({RuleId.RECYCLE: 1}),
        make_report({RuleId.RECYCLE: 1}),
    ]
    assert aggregate(reports).row("Recycle").incidence_per_project == "2.3"


def test_csv_shape():
    summary = aggregate([make_report({RuleId.VIEW_HOLDER: 2})])
    lines = emit(summary, "csv").decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == list(ROW_ORDER)
    assert lines[1] == "ViewHolder,2,1,100,2.0"
    assert lines[2] == "DrawAllocation,0,0,0,-"


def test_emit_is_byte_deterministic():
    summary = aggregate(
        [make_report({RuleId.RECYCLE: 2}), make_report({})]
    )
    for fmt in ("csv", "json"):
        assert emit(summary, fmt) == emit(summary, fmt)


def test_json_round_trip():
    summary = aggregate(
        [
            make_report({RuleId.RECYCLE: 2, RuleId.WAKE_LOCK: 1}),
            make_report({RuleId.OBSOLETE_LAYOUT_PARAM: 5}),
            make_report({}),
        ]
    )
    restored = parse_summary(emit(summary, "json"))
    assert restored.corpus_size == summary.corpus_size
    for rule in ROW_ORDER:
        assert restored.row(rule) == summary.row(rule)


_counts = st.fixed_dictionaries(
    {rule: st.integers(0, 5) for rule in RuleId}
)


@given(st.lists(_counts, min_size=1, max_size=8), st.randoms())
def test_aggregation_is_permutation_invariant(count_dicts, rng):
    reports = [
        make_report(counts) for counts in count_dicts
    ]
    shuffled = list(reports)
    rng.shuffle(shuffled)
    assert emit(aggregate(reports), "csv") == emit(aggregate(shuffled), "csv")


@given(st.lists(_counts, min_size=1, max_size=8))
def test_summary_recomputable_from_raw_counts(count_dicts):
    reports = [
        make_report(counts) for counts in count_dicts
    ]
    summary = aggregate(reports)
    for rule in RuleId:
        total = sum(c[rule] for c in count_dicts)
        projects = sum(1 for c in count_dicts if c[rule] > 0)
        row = summary.row(str(rule))
        assert row.total_refactorings == total
        assert row.total_projects == projects
        if projects:
            mean = total / projects
            got = float(row.incidence_per_project)
            assert abs(got - mean) <= 0.05 + 1e-9
