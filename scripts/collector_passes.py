#!/usr/bin/env python3
"""Count the cyclic collector's passes in fresh ``greenlint`` processes.

Usage:
    python scripts/collector_passes.py --checkout DIR --workload check-java \\
        --seed 801 --runs 5

The input is the workload's corpus at the seed, made by this repository's
``bench/corpus.py``, and the greenlint arguments are those the benchmark
gives that workload (``bench/run.py``'s ``Job``); neither file is edited.
Each run is one fresh ``python -c`` process that imports ``greenlint.cli``
from ``DIR/src``, installs a ``gc.callbacks`` hook, registers the print of
its count with ``atexit`` and calls ``greenlint.cli.run``, which runs the
``atexit`` handlers before it ends the process (an older ``run`` exits
through ``SystemExit``, which runs them too); so only passes after start-up
are counted. The script prints each run's passes per generation and the
seconds they took, then the median of each over the runs.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Run as `python -c CHILD SRC ARG...`: greenlint's own output goes to its
# streams; the last line of stderr is [passes per generation, seconds].
CHILD = """
import atexit, gc, json, sys, time
sys.path.insert(0, sys.argv[1])
import greenlint.cli

passes, spent, began = [0, 0, 0], [0.0], [0.0]

def hook(phase, info):
    if phase == "start":
        began[0] = time.perf_counter()
    else:
        passes[info["generation"]] += 1
        spent[0] += time.perf_counter() - began[0]

def report():
    gc.callbacks.remove(hook)
    print(json.dumps([passes, spent[0]]), file=sys.stderr)

gc.callbacks.append(hook)
atexit.register(report)  # `run` ends the process itself, after the handlers
sys.argv = ["greenlint", *sys.argv[2:]]
greenlint.cli.run()
"""


def _bench_run():
    """``bench/run.py`` as a module, for its ``Job`` and the corpus builders."""
    spec = importlib.util.spec_from_file_location("bench_run", REPO / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def one_run(checkout: Path, args: list[str]) -> tuple[list[int], float]:
    """The collector passes per generation of one ``greenlint`` run, and
    the seconds they took."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout.resolve() / "src"), *args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    lines = proc.stderr.strip().splitlines()
    if not lines or not lines[-1].startswith("[["):
        raise SystemExit(f"{checkout}: the run failed ({proc.returncode}):\n{proc.stderr}")
    passes, seconds = json.loads(lines[-1])
    return passes, seconds


def main(argv: list[str] | None = None) -> int:
    bench = _bench_run()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, required=True)
    parser.add_argument("--workload", required=True, choices=sorted(bench.gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        job = bench.Job(bench.gen.WORKLOADS[args.workload](args.seed), Path(tmp))
        for k in range(args.runs):
            passes, seconds = one_run(args.checkout, job.prepare())
            runs.append((passes, seconds))
            print(f"run {k + 1}: passes by generation {passes}, {seconds * 1000:.2f} ms")
    medians = [statistics.median(p[g] for p, _ in runs) for g in range(3)]
    seconds = statistics.median(s for _, s in runs)
    print(
        f"{args.workload} seed {args.seed}, {args.runs} run(s): median passes "
        f"gen0 {medians[0]:g} gen1 {medians[1]:g} gen2 {medians[2]:g}, "
        f"total {sum(medians):g}, {seconds * 1000:.2f} ms after start-up"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
