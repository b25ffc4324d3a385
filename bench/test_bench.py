"""Tests for the benchmark itself: generator determinism, the known answers,
and the self-time arithmetic of the tracer.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import corpus as gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
from greenlint import cli  # noqa: E402


def _snapshot(c: gen.Corpus) -> list:
    return [
        (p.name, f.path, f.before, f.after, f.planted, sorted(p.extras.items()))
        for p in c.projects
        for f in p.files
    ]


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_bytes(workload):
    make = gen.WORKLOADS[workload]
    assert _snapshot(make(7)) == _snapshot(make(7))
    assert _snapshot(make(7)) != _snapshot(make(8))


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_planted_blocks_are_the_only_difference(workload):
    """Outside its planted blocks a file's reference equals its input, in
    order; each block is a whole class or element."""
    for _, f in gen.WORKLOADS[workload](3).files():
        cursor = 0
        pos = 0
        for p in sorted(f.planted, key=lambda p: p.start):
            assert cursor <= p.start < p.end <= len(f.before)
            head = f.before[p.start : p.end].lstrip()
            assert head.startswith(b"class " if f.language == "java" else b"<")
            segment = f.before[cursor : p.start]
            found = f.after.find(segment, pos)
            assert found >= pos, f"{f.path}: text before a planted block moved"
            pos = found + len(segment)
            cursor = p.end
        assert f.after.endswith(f.before[cursor:])


def test_frequency_table_rounds_half_up():
    p = lambda name, rules: gen.Project(  # noqa: E731
        name, [gen.SourceFile("a.java", b"", b"", [gen.Planted(r, 0, 1) for r in rules])]
    )
    c = gen.Corpus("t", 0, [p("a", ["Recycle"] * 3), p("b", ["Recycle"] * 2), p("c", []), p("d", [])])
    table = gen.expected_table(c).decode().splitlines()
    assert "Recycle,5,2,50,2.5" in table
    assert "ViewHolder,0,0,0,-" in table
    assert "Any,5,2,50,2.5" in table
    c.projects = c.projects[:3]  # 2/3 = 66.67% -> 67; 5/2 = 2.5
    assert "Recycle,5,2,67,2.5" in gen.expected_table(c).decode().splitlines()


def _run(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args + ["--jobs", "1"])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("halve", [False, True])
@pytest.mark.parametrize("rule", gen.RULES)
def test_reference_rewrite_is_byte_exact_on_one_block(tmp_path, rule, halve):
    """Renames and indent style commute with the golden rewrite, so one
    planted block's reference is exactly what greenlint writes."""
    rng = random.Random(rule)
    names = gen._Names()
    style = gen._halve_indent if halve else (lambda t: t)
    if rule == gen.XML_RULE:
        pieces = [
            gen._same(gen._LAYOUT_OPEN),
            gen._golden_child(rng, names),
            gen._same("</LinearLayout>\n"),
        ]
        f = gen._compose("res/layout/one.xml", pieces, style)
    else:
        f = gen._compose("One.java", [gen._golden_class(rule, rng, names)], style)
    target = tmp_path / f.path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(f.before)
    code, _, _ = _run(["fix", str(tmp_path)])
    assert code == 1
    assert target.read_bytes() == f.after


def test_known_answers_hold_on_generated_corpora(tmp_path):
    """greenlint agrees with every answer the generator promises to be
    exact (counts, tables, exit codes, rewritten tokens)."""
    check = gen.check_java(11)
    root = tmp_path / "check"
    check.write(root)
    v = verify.check_report(check, root, *_run(["check", str(root), "--format", "json"]))
    assert v.wrong == [] and v.attempted == 10

    fix = gen.fix_smelly(11)
    root = tmp_path / "fix"
    fix.write(root)
    v = verify.check_fix(fix, root, *_run(["fix", str(root)]))
    assert v.wrong == []
    v = verify.check_clean(fix, root, *_run(["check", str(root), "--format", "json"]))
    assert v.wrong == [] and v.failed == 0

    many = gen.corpus_many(11)
    root = tmp_path / "many"
    many.write(root)
    out = tmp_path / "table.csv"
    code, _, err = _run(["corpus", str(root), "--out", str(out)])
    v = verify.check_table(many, root, code, out.read_bytes(), err)
    assert v.wrong == [] and v.failed == 0


def test_verifier_flags_misplaced_findings_and_wrong_rewrites(tmp_path):
    f = gen.SourceFile("A.java", b"class A {}\nclass B {}\n", b"", [gen.Planted("Recycle", 0, 10)])
    c = gen.Corpus("check-java", 0, [gen.Project("p", [f])])
    finding = {"rule": "Recycle", "file": "A.java", "fixable": True, "span": {"start": 12, "end": 15}}
    payload = {"findings": [finding], "summary": {"files": {"java": 1, "xml": 0}, "parse_failures": 0}}
    v = verify.check_report(c, tmp_path, 1, json.dumps(payload), "")
    assert (v.failed, v.wrong) == (1, [])  # misplaced: failed, not wrong
    finding["span"] = {"start": 2, "end": 5}
    v = verify.check_report(c, tmp_path, 1, json.dumps(payload), "")
    assert (v.failed, v.wrong) == (0, [])
    v = verify.check_report(c, tmp_path, 3, json.dumps(payload), "")
    assert v.failed == 1 and v.wrong


def test_a_file_counts_once_however_many_invocations_check_it(tmp_path):
    """``attempted`` and ``failed`` must not depend on how many invocations
    a run makes, or two runs of the same seed disagree."""
    files = [
        gen.SourceFile(f"{name}.java", b"class A {}\n", b"", [gen.Planted("Recycle", 0, 10)])
        for name in ("A", "B")
    ]
    c = gen.Corpus("check-java", 0, [gen.Project("p", files)])
    bad = {"rule": "Recycle", "file": "A.java", "fixable": True, "span": {"start": 12, "end": 15}}
    good = dict(bad, file="B.java", span={"start": 2, "end": 5})
    payload = {"findings": [bad, good], "summary": {"files": {"java": 2, "xml": 0}, "parse_failures": 0}}
    total = verify.Verdict()
    for _ in range(3):
        total.add(verify.check_report(c, tmp_path, 1, json.dumps(payload), ""))
    assert (total.attempted, total.failed) == (2, 1)
    many = gen.Corpus("corpus-many", 0, [gen.Project("p", files[:1]), gen.Project("q", files[:1])])
    assert verify.check_table(many, tmp_path, 0, b"", "").attempted == 2


def _span(name, start, end, parent):
    return tracing.Span(name, float(start), float(end), parent)


def test_self_time_on_synthetic_span_tree():
    spans = [
        _span("cli.main", 0, 10, -1),  # 0
        _span("engine.run_project", 1, 8, 0),  # 1
        _span("engine.process_file", 2, 5, 1),  # 2
        _span("java.parser.parse_java_source", 2.5, 4.5, 2),  # 3
        _span("java.lexer.tokenize", 3, 4, 3),  # 4
        _span("engine.process_file", 4, 7, 1),  # 5: overlaps span 2 by one
        _span("report.emit", 8.5, 9, 0),  # 6
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([10 - 7 - 0.5, 7 - 5, 3 - 2, 2 - 1, 1, 3, 0.5])
    m = tracing.invocation_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(2.5)
    assert m["engine.process_file.calls"] == 2
    assert m["engine.process_file.self_s"] == pytest.approx(1 + 3)
    assert m["java.parser.parse_java_source.self_s"] == pytest.approx(1)
    assert m["java.lexer.tokenize.s"] == pytest.approx(1)
    assert m["report.emit.s"] == pytest.approx(0.5)


def test_traced_calls_records_layers_and_restores_names(tmp_path):
    from greenlint import engine
    from greenlint.java import parser

    before = (engine.parse_java_source, parser.tokenize, cli.run_project)
    c = gen.fix_smelly(5)
    c.write(tmp_path)
    with tracing.traced_calls() as spans:
        cli.main(["check", str(tmp_path), "--format", "json", "--jobs", "1"])
    assert (engine.parse_java_source, parser.tokenize, cli.run_project) == before
    assert tracing.missing_layers("check-java", [spans]) == []
    m = tracing.invocation_metrics(spans)
    assert m["engine.process_file.calls"] == len(c.projects[0].files)
    assert m["java.parser.parses_per_java_file"] > 1
    assert m["java.lexer.tokenize.calls"] == m["java.parser.parse_java_source.calls"]


def test_benchmark_json_lists_the_printed_metrics():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert per_layer == tracing.UNITS
    assert [w["name"] for w in declared["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
