#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternated pairs and judge the gain.

Usage:
    python scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload corpus-many check-java --seeds 501 502 ... --seconds 10

For each workload in turn, each seed is one pair: ``bench/run.py --trace 0``
runs once in each checkout, and which side runs first alternates from pair
to pair. At the end the script prints one block per workload. It holds,
for every end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles, how many pairs the change won (ties count for neither side) and
whether the bar for claiming a gain is met: at least ten pairs, the change
winning at least nine in ten, and a median difference larger than the
parent's interquartile range. So one call shows a claimed gain next to the
workloads that must not regress. After each block, ``--trace 1`` runs
eight times in each checkout on the workload's first seed, alternated as
above, and every per-layer metric of ``BENCHMARK.json`` is printed with
both sides' medians and how many traced pairs the change won, to show where
a difference comes from; one traced run per side is too few, as host noise
can move every layer at once, and three cannot resolve a 25% change in one
layer; a last row sums the ``rules.*.s`` medians of each side. Last comes
each checkout's ``src/`` size, the line count of every ``.py`` file under
it, and the difference. It changes nothing under either checkout's
``bench/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
TRACE_PAIRS = 8  # alternated traced runs per side behind the per-layer block


def parse_result(stdout: str) -> dict:
    """The JSON object on the last line of a ``bench/run.py`` output."""
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metric: dict) -> dict:
    """One end-to-end ``metric`` (a ``BENCHMARK.json`` entry) over the
    (parent, change) result pairs."""
    name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
    parent = [p["metrics"][name]["value"] for p, _ in pairs]
    change = [c["metrics"][name]["value"] for _, c in pairs]
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pq, cq = quartiles(parent), quartiles(change)
    gain = sign * (cq[1] - pq[1])  # positive when the change is better
    iqr = pq[2] - pq[0]
    met = len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > iqr
    return {
        "name": name,
        "unit": metric["unit"],
        "parent": pq,
        "change": cq,
        "wins": wins,
        "losses": losses,
        "pairs": len(pairs),
        "gain": gain,
        "parent_iqr": iqr,
        "bar_met": met,
    }


def format_summary(s: dict) -> str:
    def side(q: tuple[float, float, float]) -> str:
        return f"{q[1]:10.4f} [{q[0]:.4f}, {q[2]:.4f}]"

    share = s["gain"] / abs(s["parent"][1]) if s["parent"][1] else 0.0
    return (
        f"{s['name']:16s} {s['unit']:5s} parent {side(s['parent'])}  "
        f"change {side(s['change'])}  gain {share:+.1%} (parent IQR {s['parent_iqr']:.4f})  "
        f"won {s['wins']}/{s['pairs']} lost {s['losses']}  "
        f"bar {'met' if s['bar_met'] else 'not met'}"
    )


def format_layers(pairs: list[tuple[dict, dict]], per_layer: list[dict]) -> list[str]:
    """One line per ``per_layer`` metric (``BENCHMARK.json`` entries): its
    median over the parent's and the change's traced results, the change,
    and how many of the traced pairs the change won. If there are
    ``rules.<rule>.s`` metrics, a last line sums their medians per side:
    work shared by the rules, such as listing a tree's methods, is paid by
    whichever rule asks first, so it can move from one rule's row to
    another's."""

    def row(name: str, unit: str, p: float, c: float) -> str:
        share = f"{(c - p) / abs(p):+.1%}" if p else "-"
        return f"  {name:40s} {unit:5s} parent {p:14.6f}  change {c:14.6f}  {share}"

    lines = []
    rules = []  # (parent, change) medians of the rules.<rule>.s metrics
    for metric in per_layer:
        s = summarize(pairs, metric)
        p, c = s["parent"][1], s["change"][1]
        lines.append(row(s["name"], s["unit"], p, c) + f"  won {s['wins']}/{s['pairs']}")
        name = s["name"].split(".")
        if len(name) == 3 and name[0] == "rules" and name[2] == "s":
            rules.append((p, c))
    if rules:
        lines.append(row("rules.*.s, sum of medians", "s", *map(sum, zip(*rules))))
    return lines


def src_lines(checkout: Path) -> int:
    """Lines in the ``.py`` files under ``checkout/src``, as ``wc -l`` counts."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src").rglob("*.py"))


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: bench failed ({proc.returncode}):\n{proc.stderr}")
    return parse_result(proc.stdout)


def run_pair(
    args: argparse.Namespace, workload: str, seed: int, parent_first: bool, trace: int = 0
) -> tuple[dict, dict]:
    """The (parent, change) results of one run in each checkout."""
    order = ("parent", "change") if parent_first else ("change", "parent")
    sides = {
        side: run_bench(getattr(args, side), workload, seed, args.seconds, trace)
        for side in order
    }
    return sides["parent"], sides["change"]


def run_pairs(
    args: argparse.Namespace, workload: str, metrics: list[dict]
) -> list[tuple[dict, dict]]:
    """The (parent, change) results of one workload, a pair per seed."""
    pairs: list[tuple[dict, dict]] = []
    for i, seed in enumerate(args.seeds):
        first = "parent" if i % 2 == 0 else "change"
        pair = run_pair(args, workload, seed, parent_first=first == "parent")
        pairs.append(pair)
        sides = dict(zip(("parent", "change"), pair))
        values = "  ".join(
            f"{m['name']} {sides['parent']['metrics'][m['name']]['value']:.4f}"
            f"->{sides['change']['metrics'][m['name']]['value']:.4f}"
            for m in metrics
        )
        health = "  ".join(
            f"{side}: failed {sides[side]['failed']}/{sides[side]['attempted']}"
            f" correct {sides[side]['correct']}"
            for side in ("parent", "change")
        )
        print(
            f"{workload} pair {i + 1} seed {seed} ({first} first)  {values}  {health}",
            flush=True,
        )
    return pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = declared["end_to_end"]

    results = {workload: run_pairs(args, workload, metrics) for workload in args.workload}
    for workload, pairs in results.items():
        print(f"workload {workload}, {len(pairs)} pair(s), --seconds {args.seconds}")
        for metric in metrics:
            print(format_summary(summarize(pairs, metric)))
        seed = args.seeds[0]
        traced = [run_pair(args, workload, seed, i % 2 == 0, trace=1) for i in range(TRACE_PAIRS)]
        print(
            f"per-layer metrics of {workload}, medians of {TRACE_PAIRS} alternated"
            f" --trace 1 runs per side, seed {seed}"
        )
        for line in format_layers(traced, declared["per_layer"]):
            print(line)
    parent, change = src_lines(args.parent), src_lines(args.change)
    print(f"src/ lines: parent {parent}, change {change} ({change - parent:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
