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
