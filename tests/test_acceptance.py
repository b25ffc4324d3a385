"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with `pytest -s` or on failure). The criteria:

1. Each bundled before-fixture yields exactly one finding of its rule and
   is rewritten byte-for-byte to the after-fixture in under a second.
2. Fixing is idempotent over the fixtures and 20+ synthetic mutations per
   rule: a second pass changes nothing and reports nothing fixable.
3. Parsing is lossless and fixes only touch the edited byte ranges.
4. Every rewritten output re-parses without diagnostics.
5. Corpus aggregation reproduces a published smell-frequency table from
   raw per-project counts.
6. Corpus runs are byte-deterministic across repeated runs and worker
   counts, and fast.
7. A corpus of known-clean files produces zero findings.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

from greenlint.cli import main
from greenlint.engine import MODE_REPORT, RunConfig, run_project
from greenlint.java.parser import parse_java_source
from greenlint.report import aggregate, emit
from greenlint.rules import (
    RuleId,
    apply_draw_allocation,
    apply_obsolete_layout_param,
    apply_recycle,
    apply_view_holder,
    apply_wake_lock,
)
from greenlint.spans import apply_edit_set
from greenlint.xmltree import parse_layout_xml

from conftest import CLEAN_CORPUS, GOLDEN, GOLDEN_CASES
from helpers import assert_spans_sound, make_report
from mutations import java_mutations, xml_mutations

_JAVA_RULES = {
    RuleId.VIEW_HOLDER: apply_view_holder,
    RuleId.DRAW_ALLOCATION: apply_draw_allocation,
    RuleId.WAKE_LOCK: apply_wake_lock,
    RuleId.RECYCLE: apply_recycle,
}

_RULE_OF_CASE = {
    "view_holder": RuleId.VIEW_HOLDER,
    "draw_allocation": RuleId.DRAW_ALLOCATION,
    "wake_lock": RuleId.WAKE_LOCK,
    "recycle": RuleId.RECYCLE,
    "obsolete_layout_param": RuleId.OBSOLETE_LAYOUT_PARAM,
}


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


def _load(case: str) -> tuple[bytes, bytes]:
    ext = GOLDEN_CASES[case]
    base = GOLDEN / case
    return (base / f"before.{ext}").read_bytes(), (base / f"after.{ext}").read_bytes()


def _fix_java(data: bytes) -> tuple[bytes, int]:
    """Run the Java rules in engine order, chaining edits; returns the
    rewritten text and the number of fixable findings."""
    text = data
    fixable = 0
    for rule in _JAVA_RULES:  # in engine order
        tree, diags = parse_java_source(text)
        assert tree is not None, diags
        result = _JAVA_RULES[rule](tree)
        fixable += result.fixable_count
        text = apply_edit_set(text, result.edits)
    return text, fixable


def _fix_xml(data: bytes) -> tuple[bytes, int]:
    tree, diags = parse_layout_xml(data)
    assert tree is not None, diags
    result = apply_obsolete_layout_param(tree)
    return apply_edit_set(data, result.edits), result.fixable_count


def _fix(case: str, data: bytes) -> tuple[bytes, int]:
    return (_fix_xml if GOLDEN_CASES[case] == "xml" else _fix_java)(data)


def _all_inputs() -> list[tuple[str, bytes]]:
    inputs = []
    for case in GOLDEN_CASES:
        before, _ = _load(case)
        text = before.decode()
        variants = (
            xml_mutations(text) if GOLDEN_CASES[case] == "xml"
            else java_mutations(case, text)
        )
        assert len(variants) >= 20, case
        inputs.append((case, before))
        inputs.extend((case, v.encode()) for v in variants)
    return inputs


def test_criterion_1_golden_transformations():
    with criterion(1, "golden fixtures rewritten exactly"):
        for case, rule in _RULE_OF_CASE.items():
            before, after = _load(case)
            start = time.monotonic()
            if GOLDEN_CASES[case] == "xml":
                tree, _ = parse_layout_xml(before)
                result = apply_obsolete_layout_param(tree)
                fixed = apply_edit_set(before, result.edits)
                findings = result.findings
            else:
                findings = []
                fixed = before
                for r, fn in _JAVA_RULES.items():
                    tree, _ = parse_java_source(fixed)
                    res = fn(tree)
                    findings.extend(res.findings)
                    fixed = apply_edit_set(fixed, res.edits)
            elapsed = time.monotonic() - start
            assert len(findings) == 1, case
            assert findings[0].rule is rule, case
            assert fixed == after, case
            assert elapsed < 1.0, (case, elapsed)


def test_criterion_2_idempotence():
    with criterion(2, "fixes are idempotent over fixtures and mutations"):
        for case, data in _all_inputs():
            fixed, _ = _fix(case, data)
            again, fixable = _fix(case, fixed)
            assert fixable == 0, case
            assert again == fixed, case


def test_criterion_3_losslessness_and_conservatism():
    with criterion(3, "lossless parses; fixes touch only edited spans"):
        for case, data in _all_inputs():
            if GOLDEN_CASES[case] == "xml":
                tree, diags = parse_layout_xml(data)
                assert tree is not None, case
                assert_spans_sound(tree)
                results = [apply_obsolete_layout_param(tree)]
            else:
                tree, diags = parse_java_source(data)
                assert tree is not None, case
                assert_spans_sound(tree)
                results = [fn(tree) for fn in _JAVA_RULES.values()]
            for result in results:
                rebuilt = bytearray()
                cursor = 0
                for edit in sorted(
                    result.edits, key=lambda e: (e.span.start, e.span.end)
                ):
                    rebuilt += data[cursor : edit.span.start]
                    rebuilt += edit.replacement
                    cursor = edit.span.end
                rebuilt += data[cursor:]
                assert apply_edit_set(data, result.edits) == bytes(rebuilt), case


def test_criterion_4_outputs_reparse():
    with criterion(4, "every rewritten output re-parses cleanly"):
        for case, data in _all_inputs():
            fixed, _ = _fix(case, data)
            if GOLDEN_CASES[case] == "xml":
                tree, diags = parse_layout_xml(fixed)
            else:
                tree, diags = parse_java_source(fixed)
            assert tree is not None and diags == [], case


def _published_table_reports():
    """140 synthetic projects whose per-rule counts reproduce a published
    Android smell-frequency study: per-project totals are free, only the
    column sums are pinned."""
    counts = {i: {} for i in range(1, 141)}
    for i in range(1, 31):  # 30 projects, 156 layout-param removals
        counts[i][RuleId.OBSOLETE_LAYOUT_PARAM] = 11 if i == 1 else 5
    for i in range(17, 40):  # 23 projects, 58 recycle fixes
        counts[i][RuleId.RECYCLE] = 14 if i == 17 else 2
    for i in range(40, 45):  # 5 projects, 7 holder rewrites
        counts[i][RuleId.VIEW_HOLDER] = 3 if i == 40 else 1
    counts[45][RuleId.WAKE_LOCK] = 1
    return [make_report(f"project-{i:03d}", c) for i, c in counts.items()]


def test_criterion_5_aggregation_matches_published_table():
    with criterion(5, "aggregation reproduces the published frequency table"):
        summary = aggregate(_published_table_reports())
        assert summary.corpus_size == 140
        expected = {
            "ObsoleteLayoutParam": (156, 30, 21, "5.2"),
            "Recycle": (58, 23, 16, "2.5"),
            "ViewHolder": (7, 5, 4, "1.4"),
            "WakeLock": (1, 1, 1, "1.0"),
            "DrawAllocation": (0, 0, 0, "-"),
        }
        for rule, (total, projects, pct, incidence) in expected.items():
            row = summary.row(rule)
            assert row.total_refactorings == total, rule
            assert row.total_projects == projects, rule
            assert row.percentage_of_projects(140) == pct, rule
            assert row.incidence_per_project == incidence, rule
        combined = summary.row("Any")
        assert combined.total_refactorings == 222
        assert combined.total_projects == 45
        assert combined.percentage_of_projects(140) == 32
        # The published table prints 4.8 here; 222/45 = 4.933... rounds to
        # 4.9, so the printed value does not satisfy its own formula. The
        # formula output is the contract.
        assert combined.incidence_per_project == "4.9"


def _build_corpus_tree(root: Path) -> None:
    cases = list(GOLDEN_CASES)
    for i in range(10):
        project = root / f"proj-{i:02d}"
        case = cases[i % len(cases)]
        ext = GOLDEN_CASES[case]
        before, _ = _load(case)
        if ext == "xml":
            target = project / "res" / "layout" / "main.xml"
        else:
            target = project / "src" / f"Sample{i}.java"
        target.parent.mkdir(parents=True)
        target.write_bytes(before)
        (project / "src").mkdir(exist_ok=True)
        (project / "src" / "Clean.java").write_bytes(b"class Clean {}\n")


def test_criterion_6_corpus_determinism(tmp_path, capsys):
    with criterion(6, "corpus output byte-identical across runs and workers"):
        root = tmp_path / "corpus"
        _build_corpus_tree(root)
        start = time.monotonic()
        outputs = set()
        run = 0
        for jobs in (1, 4, 16, 4, 1):
            out = tmp_path / f"summary-{run}.csv"
            run += 1
            code = main(
                ["corpus", str(root), "--out", str(out), "--jobs", str(jobs)]
            )
            assert code == 0
            outputs.add(out.read_bytes())
        elapsed = time.monotonic() - start
        assert len(outputs) == 1
        assert elapsed < 10.0, elapsed


def test_criterion_7_clean_corpus_zero_findings():
    with criterion(7, "known-clean corpus yields zero findings"):
        report, outcomes = run_project(
            RunConfig(input_path=CLEAN_CORPUS, mode=MODE_REPORT)
        )
        assert report.java_files == 18 and report.xml_files == 12
        assert report.parse_failures == 0
        assert all(o.findings == [] for o in outcomes)
        assert all(c.refactorings == 0 for c in report.rule_counts.values())
