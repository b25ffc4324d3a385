#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternated pairs and judge the gain.

Usage:
    python scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload check-java --seeds 501 502 ... --seconds 10

Each seed is one pair: ``bench/run.py --trace 0`` runs once in each
checkout, and which side runs first alternates from pair to pair. The
script prints, for every end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles, how many pairs the change won (ties count for
neither side) and whether the bar for claiming a gain is met: at least ten
pairs, the change winning at least nine in ten, and a median difference
larger than the parent's interquartile range. It changes nothing under
either checkout's ``bench/``.
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


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: bench failed ({proc.returncode}):\n{proc.stderr}")
    return parse_result(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    metrics = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]

    pairs: list[tuple[dict, dict]] = []
    for i, seed in enumerate(args.seeds):
        sides = {}
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side] = run_bench(getattr(args, side), args.workload, seed, args.seconds)
        pairs.append((sides["parent"], sides["change"]))
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
        print(f"pair {i + 1} seed {seed} ({order[0]} first)  {values}  {health}", flush=True)

    print(f"workload {args.workload}, {len(pairs)} pair(s), --seconds {args.seconds}")
    for metric in metrics:
        print(format_summary(summarize(pairs, metric)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
