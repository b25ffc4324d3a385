"""Smoke tests for the scripts under ``scripts/``."""

import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_corpus_demo_runs_end_to_end(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            str(SCRIPTS / "run_corpus_demo.py"),
            "--projects",
            "5",
            "--keep",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "frequency.csv").is_file()


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(kb_s: float, cpu_s: float) -> str:
    """A result line as the last line of a benchmark run prints it."""
    metrics = {
        "throughput_kb_s": {"value": kb_s, "unit": "KB/s"},
        "cpu_s": {"value": cpu_s, "unit": "s"},
    }
    return json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": metrics})


def _traced(declared: list[dict], value: float) -> dict:
    """A result with ``value`` for each of the ``declared`` metrics."""
    values = {m["name"]: {"value": value, "unit": m["unit"]} for m in declared}
    return {"correct": True, "attempted": 1, "failed": 0, "metrics": values}


THROUGHPUT = {"name": "throughput_kb_s", "unit": "KB/s", "better": "higher"}
CPU = {"name": "cpu_s", "unit": "s", "better": "lower"}


def _pairs(module, parent: list[float], change: list[float]) -> list[tuple[dict, dict]]:
    return [
        (module.parse_result(f"noise\n{_line(p, 1 / p)}\n"), module.parse_result(_line(c, 1 / c)))
        for p, c in zip(parent, change)
    ]


def test_bench_pairs_bar_met_on_nine_wins_and_a_gain_beyond_the_iqr():
    bp = _bench_pairs()
    parent = [700, 710, 690, 705, 695, 702, 698, 708, 692, 800]
    change = [760, 770, 750, 765, 755, 762, 758, 768, 752, 790]
    pairs = _pairs(bp, parent, change)
    s = bp.summarize(pairs, THROUGHPUT)
    assert (s["wins"], s["losses"], s["pairs"]) == (9, 1, 10)
    assert s["parent"][1] == statistics.median(parent)
    assert s["change"][1] == statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    assert s["parent_iqr"] == pytest.approx(q3 - q1)
    assert s["gain"] == pytest.approx(statistics.median(change) - statistics.median(parent))
    assert s["bar_met"]
    # lower is better for CPU time, which falls as throughput rises
    cpu = bp.summarize(pairs, CPU)
    assert (cpu["wins"], cpu["losses"]) == (9, 1) and cpu["gain"] > 0 and cpu["bar_met"]
    assert "bar met" in bp.format_summary(s) and "won 9/10" in bp.format_summary(s)


def test_bench_pairs_bar_not_met():
    bp = _bench_pairs()
    parent = [700.0] * 10
    # eight wins, one tie (counted for neither side), one loss
    s = bp.summarize(_pairs(bp, parent, [760.0] * 8 + [700.0, 650.0]), THROUGHPUT)
    assert (s["wins"], s["losses"]) == (8, 1) and not s["bar_met"]
    # every pair won, but the gain is inside the parent's spread
    wide = [600, 800, 620, 780, 640, 760, 660, 740, 680, 720]
    s = bp.summarize(_pairs(bp, wide, [p + 1 for p in wide]), THROUGHPUT)
    assert s["wins"] == 10 and s["gain"] < s["parent_iqr"] and not s["bar_met"]
    # nine pairs are too few, however clear the gain
    s = bp.summarize(_pairs(bp, parent[:9], [800.0] * 9), THROUGHPUT)
    assert s["wins"] == 9 and not s["bar_met"]


def test_bench_pairs_prints_one_block_per_workload(monkeypatch, capsys):
    bp = _bench_pairs()
    calls = []

    declared = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    metrics = declared["end_to_end"]

    def fake_run(checkout, workload, seed, seconds, trace=0):
        calls.append((checkout.name, workload, seed, trace))
        if trace:
            return _traced(declared["per_layer"], 1.0)
        kb_s = (700.0 if checkout.name == "parent" else 760.0) + seed
        result = json.loads(_line(kb_s, 1 / kb_s))
        result["metrics"].update(
            (m["name"], {"value": 1.0, "unit": m["unit"]})
            for m in metrics
            if m["name"] not in result["metrics"]
        )
        return result

    monkeypatch.setattr(bp, "run_bench", fake_run)
    seeds = [str(s) for s in range(1, 11)]
    argv = ["--parent", "/x/parent", "--change", "/x/change", "--seconds", "1"]
    assert bp.main(argv + ["--workload", "corpus-many", "check-java", "--seeds", *seeds]) == 0
    # each workload's pairs in turn, the first side alternating
    assert calls[:4] == [
        ("parent", "corpus-many", 1, 0), ("change", "corpus-many", 1, 0),
        ("change", "corpus-many", 2, 0), ("parent", "corpus-many", 2, 0),
    ]
    assert [w for _, w, _, t in calls if not t] == ["corpus-many"] * 20 + ["check-java"] * 20
    # then eight alternated traced pairs on each workload's first seed
    traced = [
        ("parent", 1, 1), ("change", 1, 1), ("change", 1, 1), ("parent", 1, 1),
    ] * 4
    assert [c for c in calls if c[3]] == [
        (side, workload, seed, trace)
        for workload in ("corpus-many", "check-java")
        for side, seed, trace in traced
    ]
    out = capsys.readouterr().out.splitlines()
    blocks = [i for i, line in enumerate(out) if line.startswith("workload ")]
    assert [out[i] for i in blocks] == [
        "workload corpus-many, 10 pair(s), --seconds 1.0",
        "workload check-java, 10 pair(s), --seconds 1.0",
    ]
    for i in blocks:
        rows = out[i + 1 : i + 1 + len(metrics)]
        assert [row.split()[0] for row in rows] == [m["name"] for m in metrics]
    assert "won 10/10" in out[blocks[0] + 1] and "bar met" in out[blocks[0] + 1]


def test_bench_pairs_reports_the_src_size_of_each_checkout(tmp_path, monkeypatch, capsys):
    bp = _bench_pairs()
    for side, files in (("parent", {"a.py": 3, "pkg/b.py": 2}), ("change", {"a.py": 4})):
        for name, lines in files.items():
            path = tmp_path / side / "src" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("x = 1\n" * lines)
    (tmp_path / "parent" / "src" / "notes.txt").write_text("not counted\n")
    declared = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())

    def fake_run(checkout, workload, seed, seconds, trace=0):
        return _traced(declared["per_layer" if trace else "end_to_end"], 1.0)

    monkeypatch.setattr(bp, "run_bench", fake_run)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]
    assert bp.main(argv + ["--workload", "check-java", "--seeds", "1", "--seconds", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "src/ lines: parent 5, change 4 (-1)"


def test_bench_pairs_prints_per_layer_metrics_side_by_side():
    bp = _bench_pairs()
    per_layer = [
        {"name": "java.lexer.tokenize.s", "unit": "s", "better": "lower"},
        {"name": "java.lexer.tokens", "unit": "count", "better": "lower"},
        {"name": "report.emit.s", "unit": "s", "better": "lower"},
    ]

    def line(tokenize_s: float) -> str:
        values = {"java.lexer.tokenize.s": tokenize_s, "java.lexer.tokens": 26440, "report.emit.s": 0}
        metrics = {name: {"value": v, "unit": "-"} for name, v in values.items()}
        return json.dumps({"correct": True, "attempted": 8, "failed": 0, "metrics": metrics})

    # medians over the traced pairs: one noisy pair moves neither side
    header = "workload check-java  seed 1  trace 1\n"
    pairs = [
        (bp.parse_result(f"{header}{line(p)}\n"), bp.parse_result(line(c)))
        for p, c in ((0.05, 0.035), (0.09, 0.07), (0.049, 0.036))
    ]
    assert [row.split() for row in bp.format_layers(pairs, per_layer)] == [
        ["java.lexer.tokenize.s", "s", "parent", "0.050000", "change", "0.036000", "-28.0%",
         "won", "3/3"],
        ["java.lexer.tokens", "count", "parent", "26440.000000", "change", "26440.000000", "+0.0%",
         "won", "0/3"],
        ["report.emit.s", "s", "parent", "0.000000", "change", "0.000000", "-", "won", "0/3"],
    ]


def test_bench_pairs_sums_the_rule_time_medians_per_side():
    bp = _bench_pairs()
    per_layer = [
        {"name": "rules.ViewHolder.s", "unit": "s", "better": "lower"},
        {"name": "rules.ViewHolder.calls", "unit": "count", "better": "lower"},
        {"name": "rules.Recycle.s", "unit": "s", "better": "lower"},
    ]

    def result(view_holder_s: float, recycle_s: float) -> dict:
        values = {
            "rules.ViewHolder.s": view_holder_s,
            "rules.ViewHolder.calls": 15,
            "rules.Recycle.s": recycle_s,
        }
        metrics = {name: {"value": v, "unit": "-"} for name, v in values.items()}
        return {"correct": True, "attempted": 8, "failed": 0, "metrics": metrics}

    # work shared by the rules moved from Recycle's row to ViewHolder's
    pairs = [
        (result(0.010, 0.030), result(0.012, 0.008)),
        (result(0.011, 0.032), result(0.013, 0.009)),
        (result(0.009, 0.031), result(0.011, 0.010)),
    ]
    rows = [row.split() for row in bp.format_layers(pairs, per_layer)]
    assert [row[0] for row in rows[:3]] == [m["name"] for m in per_layer]
    # medians 0.010 + 0.031 against 0.012 + 0.009; calls are no time
    assert rows[3] == [
        "rules.*.s,", "sum", "of", "medians", "s", "parent", "0.041000", "change", "0.021000",
        "-48.8%",
    ]


def _compare_parses():
    spec = importlib.util.spec_from_file_location(
        "compare_parses", SCRIPTS / "compare_parses.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_parses_finds_no_difference_between_a_checkout_and_itself(capsys):
    cp = _compare_parses()
    repo = str(SCRIPTS.parent)
    assert cp.main(["--parent", repo, "--change", repo, "--seeds", "1"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.endswith(" file(s), 0 differ") and not last.startswith("0 ")


def test_compare_parses_lists_the_files_that_differ(monkeypatch, capsys):
    cp = _compare_parses()
    canned = {
        "parent": {
            "a.java": "[('compilation_unit', 0, 0, 0, ())]", "b.java": "['1:1: x']",
            "c.xml": "[[('a', 0, 4)], [], []]", "d.xml": "[[('a', 0, 4)], [], []]",
        },
        "change": {
            "a.java": "[('compilation_unit', 0, 0, 0, ())]", "b.java": "['1:2: x']",
            "c.xml": "[[('a', 0, 4)], [], []]", "d.xml": "[[('b', 0, 4)], [], []]",
        },
    }
    monkeypatch.setattr(cp, "write_inputs", lambda root, seeds: None)
    monkeypatch.setattr(cp, "parse_checkout", lambda checkout, root: canned[checkout.name])
    assert cp.main(["--parent", "/x/parent", "--change", "/x/change", "--seeds", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: b.java", "differs: d.xml", "4 file(s), 2 differ"
    ]


def _compare_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", SCRIPTS / "compare_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_finds_no_difference_between_a_checkout_and_itself(
    monkeypatch, capsys
):
    co = _compare_outputs()
    # one workload keeps the test short; the script runs every one
    monkeypatch.setattr(co.gen, "WORKLOADS", {"fix-smelly": co.gen.fix_smelly})
    repo = str(SCRIPTS.parent)
    assert co.main(["--parent", repo, "--change", repo, "--seeds", "1"]) == 0
    # the workload and the fixtures, six commands each
    assert capsys.readouterr().out.splitlines() == ["12 run(s), 0 difference(s)"]


def test_compare_outputs_lists_what_differs(monkeypatch, capsys):
    co = _compare_outputs()

    def outputs(code=1, stdout="A.java:1:1: x\n", files=None):
        return {"exit": code, "stdout": stdout, "stderr": "", "files": files or {"in/A.java": "1"}}

    canned = {
        "parent": {
            ("s", "check"): outputs(),
            ("s", "fix"): outputs(files={"in/A.java": "1", "in/B.java": "2"}),
            ("s", "corpus-csv"): outputs(code=0),
        },
        "change": {
            ("s", "check"): outputs(code=3, stdout="A.java:1:2: x\n"),
            ("s", "fix"): outputs(files={"in/A.java": "9"}),
            ("t", "check"): outputs(),
        },
    }
    monkeypatch.setattr(co, "write_inputs", lambda root, seeds: None)
    monkeypatch.setattr(co, "run_checkout", lambda checkout, inputs, work: canned[checkout.name])
    assert co.main(["--parent", "/x/parent", "--change", "/x/change", "--seeds", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: s check: exit",
        "differs: s check: stdout",
        "differs: s corpus-csv: run only in the parent",
        "differs: s fix: file in/A.java",
        "differs: s fix: file in/B.java",
        "differs: t check: run only in the change",
        "4 run(s), 6 difference(s)",
    ]
