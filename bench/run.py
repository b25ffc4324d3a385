#!/usr/bin/env python3
"""The greenlint benchmark: one command, three seeded known-answer workloads.

    python3 bench/run.py --workload check-java --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each was chosen):

  check-java   greenlint check --format json on one project of large Java files
  fix-smelly   greenlint fix in place on a smell-dense Java and XML project
  corpus-many  greenlint corpus over many small, mostly-layout projects

With ``--trace 0`` every sample runs the real CLI in a fresh child process
with default flags (``python3 -m greenlint.cli``, sources from ``src/``)
and the end-to-end metrics are printed. With ``--trace 1`` the same command
runs in this process with ``--jobs 1``, alternating untraced and traced
calls, and the per-layer metrics are printed. Every output is checked
against the answers the generator planted (bench/verify.py).

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
sys.path.insert(0, str(BENCH))

import corpus as gen  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402

# The end-to-end metrics and their units, as BENCHMARK.json lists them.
END_TO_END = {"throughput_kb_s": "KB/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_REPEATS = 11  # fresh-process set-up samples per run; the median is reported
# A fixed pure-Python loop (byte tests and small tuples, like the lexer's hot
# path) that a fresh interpreter runs around every timed sample; see HostSpeed.
CALIBRATION = (
    "data = bytes(range(32, 127)) * 1500\n"
    "n = 0\n"
    "marks = []\n"
    "for i, b in enumerate(data):\n"
    "    if b == 32 or 65 <= b <= 90 or 97 <= b <= 122:\n"
    "        n += 1\n"
    "    elif b == 40 or b == 41:\n"
    "        marks.append((b, i))\n"
)
# The calibration's median wall time on the host the benchmark was defined
# on (bench/README.md). Timings are reported in seconds at that host's speed.
CALIBRATION_REF_S = 0.086
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 120.0


@dataclass
class Sample:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Job:
    """One workload's input tree, its greenlint command and its checks."""

    def __init__(self, corpus: gen.Corpus, work: Path) -> None:
        self.corpus = corpus
        self.work = work
        self.kind = corpus.workload
        self.input = work / "input"
        self.table = work / "table.csv"
        self.pristine = work / "pristine"
        corpus.write(self.pristine if self.kind == "fix-smelly" else self.input)

    def prepare(self) -> list[str]:
        """Untimed: reset the input and return greenlint's arguments."""
        if self.kind == "check-java":
            return ["check", str(self.input), "--format", "json"]
        if self.kind == "fix-smelly":
            shutil.rmtree(self.input, ignore_errors=True)
            shutil.copytree(self.pristine, self.input)
            return ["fix", str(self.input)]
        self.table.unlink(missing_ok=True)
        return ["corpus", str(self.input), "--out", str(self.table)]

    def verify(self, code: int, stdout: str, stderr: str) -> verify.Verdict:
        if self.kind == "check-java":
            return verify.check_report(self.corpus, self.input, code, stdout, stderr)
        if self.kind == "fix-smelly":
            return verify.check_fix(self.corpus, self.input, code, stdout, stderr)
        table = self.table.read_bytes() if self.table.exists() else b""
        return verify.check_table(self.corpus, self.input, code, table, stderr)

    def recheck_argv(self) -> Optional[list[str]]:
        """After ``fix``, an untimed re-check must find nothing fixable."""
        if self.kind != "fix-smelly":
            return None
        return ["check", str(self.input), "--format", "json"]


# --- child processes -------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_python(args: list[str], work: Path) -> Sample:
    """Run ``python3 ARGS`` in a fresh process and measure it with wait4."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, env=_child_env(), cwd=work
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def run_child(args: list[str], work: Path) -> Sample:
    """Run ``python3 -m greenlint.cli ARGS``."""
    return run_python(["-m", "greenlint.cli", *args], work)


class HostSpeed:
    """Scales sample times to the speed of the host the benchmark was
    defined on.

    Load from other tenants slows a shared host by up to about 1.7x for
    seconds to minutes at a time, in wall and CPU time alike. The
    calibration loop, timed in a fresh interpreter before and after each
    sample, slows by about the same factor, so a sample's time multiplied
    by ``CALIBRATION_REF_S / calibration time`` stays nearly constant. The loop never
    touches greenlint, so a change to greenlint cannot move it.
    """

    def __init__(self, work: Path) -> None:
        self.work = work
        self.calibrations: list[float] = []
        self.reset()

    def _calibrate(self) -> float:
        sample = run_python(["-c", CALIBRATION], self.work)
        if sample.code != 0:
            raise RuntimeError(f"calibration loop failed: {sample.stderr[-500:]}")
        self.calibrations.append(sample.wall_s)
        return sample.wall_s

    def reset(self) -> None:
        """Time the loop now; call right before a sample."""
        self.last = self._calibrate()

    def factor(self) -> float:
        """Time the loop again; call right after a sample. Returns the
        factor for that sample."""
        before, self.last = self.last, self._calibrate()
        return CALIBRATION_REF_S / ((before + self.last) / 2)


def measure_setup(work: Path, speed: HostSpeed, verdict: verify.Verdict) -> list[float]:
    """Fresh-process ``greenlint check`` on an empty directory: interpreter
    start, imports and argument parsing. Returns scaled times."""
    empty = work / "empty"
    empty.mkdir()
    run_child(["check", str(empty)], work)  # warms the page cache
    times = []
    speed.reset()
    for _ in range(SETUP_REPEATS):
        sample = run_child(["check", str(empty)], work)
        times.append(sample.wall_s * speed.factor())
        if sample.code != 0 or sample.stdout:
            verdict.wrong.append(
                f"check on an empty directory: exit {sample.code}, "
                f"stdout {sample.stdout[:100]!r}, stderr {sample.stderr[:200]!r}"
            )
    return times


def run_end_to_end(job: Job, seconds: float) -> tuple[dict, verify.Verdict, dict]:
    verdict = verify.Verdict()
    speed = HostSpeed(job.work)
    setup = measure_setup(job.work, speed, verdict)

    warm = run_child(job.prepare(), job.work)  # checked but not timed
    verdict.add(job.verify(warm.code, warm.stdout, warm.stderr))
    recheck_args = job.recheck_argv()
    if recheck_args:
        again = run_child(recheck_args, job.work)
        verdict.add(recheck(job, again.code, again.stdout, again.stderr))
    samples: list[Sample] = []
    factors: list[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples) < MIN_SAMPLES:
        args = job.prepare()
        speed.reset()
        sample = run_child(args, job.work)
        factors.append(speed.factor())
        verdict.add(job.verify(sample.code, sample.stdout, sample.stderr))
        samples.append(sample)
    kb = job.corpus.stats()["kb"]
    throughput = [kb / (s.wall_s * f) for s, f in zip(samples, factors)]
    values = {
        "throughput_kb_s": statistics.median(throughput),
        "cpu_s": statistics.median(s.cpu_s * f for s, f in zip(samples, factors)),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "setup_s": statistics.median(setup),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    info = {
        "samples": len(samples),
        "setup_samples": len(setup),
        "calibration_s_median": round(statistics.median(speed.calibrations), 4),
        "unscaled_throughput_kb_s": round(statistics.median(kb / s.wall_s for s in samples), 3),
        "unscaled_cpu_s": round(statistics.median(s.cpu_s for s in samples), 4),
    }
    return metrics, verdict, info


def recheck(job: Job, code: int, stdout: str, stderr: str) -> verify.Verdict:
    """Only ``wrong`` counts: the reference bytes hold no smell, so a file the
    re-check flags already failed the byte comparison."""
    v = verify.check_clean(job.corpus, job.input, code, stdout, stderr)
    v.files.clear()
    v.failed_files.clear()
    return v


# --- traced run ------------------------------------------------------------


def _import_greenlint():
    sys.path.insert(0, str(SRC))
    import greenlint.cli

    found = Path(greenlint.cli.__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise RuntimeError(f"imported greenlint from {found}, not from {SRC}")
    return greenlint.cli


def run_traced(job: Job, seconds: float) -> tuple[dict, verify.Verdict, dict]:
    cli = _import_greenlint()
    verdict = verify.Verdict()

    def call(argv: list[str], traced: bool) -> tuple[int, str, str, float, list]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tracing.traced_calls() if traced else contextlib.nullcontext([]) as spans:
                start = time.perf_counter()
                code = cli.main(argv + ["--jobs", "1"])
                wall = time.perf_counter() - start
        return code, out.getvalue(), err.getvalue(), wall, spans

    def one(traced: bool) -> tuple[float, list[tracing.Span]]:
        code, out, err, wall, spans = call(job.prepare(), traced)
        verdict.add(job.verify(code, out, err))
        return wall, spans

    one(False)  # warm-up, checked but not timed
    recheck_args = job.recheck_argv()
    if recheck_args:
        code, out, err, _, _ = call(recheck_args, False)
        verdict.add(recheck(job, code, out, err))
    plain: list[float] = []
    traced: list[float] = []
    invocations: list[list[tracing.Span]] = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while time.perf_counter() < deadline or rounds < MIN_SAMPLES:
        order = (False, True) if rounds % 2 == 0 else (True, False)
        for with_trace in order:
            wall, spans = one(with_trace)
            if with_trace:
                traced.append(wall)
                invocations.append(spans)
            else:
                plain.append(wall)
        rounds += 1
    missing = tracing.missing_layers(job.kind, invocations)
    if missing:
        raise RuntimeError(
            f"layers predicted to work on {job.kind} recorded no calls: {missing}"
        )
    overhead = (statistics.median(traced) - statistics.median(plain)) / statistics.median(
        plain
    )
    values = tracing.layer_metrics(invocations, overhead)
    metrics = {name: (values[name], unit) for name, unit in tracing.UNITS.items()}
    info = {
        "traced_calls": len(traced),
        "untraced_calls": len(plain),
        "process_file_samples": sum(
            1 for spans in invocations for s in spans if s.name == "engine.process_file"
        ),
    }
    return metrics, verdict, info


# --- entry point -----------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (SRC / "greenlint" / "cli.py", gen.GOLDEN, gen.CLEAN):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2

    work = REPO / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        start = time.perf_counter()
        corpus = gen.WORKLOADS[args.workload](args.seed)
        job = Job(corpus, work)
        gen_s = time.perf_counter() - start
        runner = run_traced if args.trace else run_end_to_end
        metrics, verdict, info = runner(job, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stats = corpus.stats()
    failed_share = verdict.failed / verdict.attempted if verdict.attempted else 0.0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"corpus: {stats['projects']} project(s), {stats['files']} files "
        f"({stats['java_files']} Java, {stats['xml_files']} XML), "
        f"{stats['kb']:.1f} KB ({stats['java_kb']:.1f} KB Java), "
        f"{stats['planted']} planted smells; generated and written in {gen_s:.3f} s"
    )
    print("run: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6f} {unit}")
    print(f"  {'failed_share':42s} {failed_share:14.6f} share "
          f"({verdict.failed} of {verdict.attempted} files)")
    for note in verdict.notes:
        print(f"  differs: {note}")
    for wrong in verdict.wrong:
        print(f"  WRONG: {wrong}")
    result = {
        "correct": not verdict.wrong,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
