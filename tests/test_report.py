from hypothesis import given
from hypothesis import strategies as st

from greenlint.report import ANY, CSV_HEADER, ROW_ORDER, aggregate, emit
from greenlint.rules import RuleId

from helpers import make_counts, parse_summary


def _by_rule(projects) -> dict[str, tuple]:
    """The cells after the rule name of each summary row, by rule name."""
    return {row[0]: row[1:] for row in aggregate(projects)}


def test_two_project_aggregation():
    projects = [
        make_counts({RuleId.RECYCLE: 3}),
        make_counts({RuleId.RECYCLE: 1, RuleId.OBSOLETE_LAYOUT_PARAM: 2}),
    ]
    rows = _by_rule(projects)
    # total refactorings, affected projects, percentage, incidence
    assert rows["Recycle"] == (4, 2, 100, "2.0")
    assert rows["ObsoleteLayoutParam"] == (2, 1, 50, "2.0")
    assert rows[ANY] == (6, 2, 100, "3.0")
    assert rows["DrawAllocation"] == (0, 0, 0, "-")


def test_rounding_is_half_up():
    # 1 of 8 projects affected: 12.5% must round to 13, not banker's 12
    projects = [make_counts({RuleId.WAKE_LOCK: 1})] + [
        make_counts({}) for _ in range(2, 9)
    ]
    assert _by_rule(projects)["WakeLock"][2] == 13

    # 5 refactorings over 2 projects: incidence 2.5 stays 2.5
    projects = [
        make_counts({RuleId.RECYCLE: 4}),
        make_counts({RuleId.RECYCLE: 1}),
    ]
    assert _by_rule(projects)["Recycle"][3] == "2.5"

    # 9 over 4 projects: 2.25 rounds half up to 2.3
    projects = [
        make_counts({RuleId.RECYCLE: 6}),
        make_counts({RuleId.RECYCLE: 1}),
        make_counts({RuleId.RECYCLE: 1}),
        make_counts({RuleId.RECYCLE: 1}),
    ]
    assert _by_rule(projects)["Recycle"][3] == "2.3"


def test_csv_shape():
    rows = aggregate([make_counts({RuleId.VIEW_HOLDER: 2})])
    lines = emit(rows, "csv", 1).decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == list(ROW_ORDER)
    assert lines[1] == "ViewHolder,2,1,100,2.0"
    assert lines[2] == "DrawAllocation,0,0,0,-"


def test_emit_is_byte_deterministic():
    rows = aggregate(
        [make_counts({RuleId.RECYCLE: 2}), make_counts({})]
    )
    for fmt in ("csv", "json"):
        assert emit(rows, fmt, 2) == emit(rows, fmt, 2)


def test_json_round_trip():
    rows = aggregate(
        [
            make_counts({RuleId.RECYCLE: 2, RuleId.WAKE_LOCK: 1}),
            make_counts({RuleId.OBSOLETE_LAYOUT_PARAM: 5}),
            make_counts({}),
        ]
    )
    assert [row[0] for row in rows] == list(ROW_ORDER)
    assert parse_summary(emit(rows, "json", 3)) == (rows, 3)


_counts = st.fixed_dictionaries(
    {rule: st.integers(0, 5) for rule in RuleId}
)


@given(st.lists(_counts, min_size=1, max_size=8), st.randoms())
def test_aggregation_is_permutation_invariant(count_dicts, rng):
    projects = [
        make_counts(counts) for counts in count_dicts
    ]
    shuffled = list(projects)
    rng.shuffle(shuffled)
    size = len(projects)
    assert emit(aggregate(projects), "csv", size) == emit(aggregate(shuffled), "csv", size)


@given(st.lists(_counts, min_size=1, max_size=8))
def test_summary_recomputable_from_raw_counts(count_dicts):
    projects = [
        make_counts(counts) for counts in count_dicts
    ]
    rows = _by_rule(projects)
    for rule in RuleId:
        total = sum(c[rule] for c in count_dicts)
        projects = sum(1 for c in count_dicts if c[rule] > 0)
        row_total, row_projects, _, incidence = rows[str(rule)]
        assert row_total == total
        assert row_projects == projects
        if projects:
            mean = total / projects
            got = float(incidence)
            assert abs(got - mean) <= 0.05 + 1e-9
