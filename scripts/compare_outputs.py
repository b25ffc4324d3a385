#!/usr/bin/env python3
"""Run the greenlint commands of two checkouts on the same inputs and list
every output that differs.

Usage:
    python scripts/compare_outputs.py --parent DIR --change DIR --seeds 1 2 3

The inputs are each benchmark workload's corpus at each given seed, made by
this repository's ``bench/corpus.py`` (extras included), and the test
fixtures: each golden ``before`` as a project of its own, and the clean
corpus. On each input, each checkout runs, with its own ``src/``:
``check`` (text and JSON), ``fix`` in place, ``fix --patch-dir`` and
``corpus`` (CSV and JSON), in turn on one copy of the input, ``fix`` last,
from the copy's parent directory, so the paths it prints are the same for
both checkouts. One child process per checkout calls ``greenlint.cli.main``
for every run. Compared per run: the exit code, stdout, stderr, and the
bytes of every file in that directory after it (the inputs, rewritten or
not, the patches, the tables). The script lists what differs and exits 1
if anything does, else 0. It writes nothing under either checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures"
sys.path.insert(0, str(REPO / "bench"))

import corpus as gen  # noqa: E402

# The argv of each run, in the order they run on one copy of an input,
# "in": `fix` comes last, as it rewrites the copy.
COMMANDS = {
    "check": ["check", "in"],
    "check-json": ["check", "in", "--format", "json"],
    "fix-patch": ["fix", "in", "--patch-dir", "patches"],
    "corpus-csv": ["corpus", "in", "--out", "table.csv"],
    "corpus-json": ["corpus", "in", "--out", "table.json", "--format", "json"],
    "fix": ["fix", "in"],
}

# Run in a checkout as `python -c CHILD CHECKOUT INPUTS WORK COMMANDS`: one
# JSON line [input, command, outputs] per input directory and command, the
# files being every file in the run's directory after the command.
CHILD = """
import contextlib, hashlib, io, json, os, shutil, sys
from pathlib import Path
checkout, inputs, work = map(Path, sys.argv[1:4])
commands = json.loads(sys.argv[4])
sys.path.insert(0, str(checkout / "src"))
from greenlint.cli import main

for source in sorted(inputs.iterdir()):
    run = work / source.name
    shutil.copytree(source, run / "in")
    os.chdir(run)
    for command, argv in commands.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        files = {
            p.relative_to(run).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run.rglob("*")) if p.is_file()
        }
        outputs = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}
        print(json.dumps([source.name, command, outputs]))
"""


def write_inputs(root: Path, seeds: list[int]) -> None:
    """Write one directory of inputs per workload and seed, and one of the
    fixtures, under ``root``."""
    for workload, build in gen.WORKLOADS.items():
        for seed in seeds:
            build(seed).write(root / f"{workload}-{seed}")
    fixtures = root / "fixtures"
    for case in sorted(p for p in (FIXTURES / "golden").iterdir() if p.is_dir()):
        for before in case.glob("before.*"):
            folder = "src" if before.suffix == ".java" else "res/layout"
            target = fixtures / case.name / folder / before.name
            target.parent.mkdir(parents=True)
            shutil.copyfile(before, target)
    shutil.copytree(FIXTURES / "clean_corpus", fixtures / "clean_corpus")


def run_checkout(checkout: Path, inputs: Path, work: Path) -> dict[tuple[str, str], dict]:
    """The outputs of every command of ``checkout`` on every input under
    ``inputs``, by (input, command); ``work`` holds the copies it runs on."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout.resolve()), str(inputs), str(work),
         json.dumps(COMMANDS)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: running failed ({proc.returncode}):\n{proc.stderr}")
    runs = (json.loads(line) for line in proc.stdout.splitlines())
    return {(source, command): outputs for source, command, outputs in runs}


def differences(parent: dict, change: dict) -> list[str]:
    """One line per run, stream or file whose output differs."""
    lines = []
    for key in sorted(parent.keys() | change.keys()):
        run = " ".join(key)
        if key not in parent or key not in change:
            side = "change" if key in change else "parent"
            lines.append(f"differs: {run}: run only in the {side}")
            continue
        a, b = parent[key], change[key]
        for part in ("exit", "stdout", "stderr"):
            if a[part] != b[part]:
                lines.append(f"differs: {run}: {part}")
        for name in sorted(a["files"].keys() | b["files"].keys()):
            if a["files"].get(name) != b["files"].get(name):
                lines.append(f"differs: {run}: file {name}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_inputs(root / "inputs", args.seeds)
        parent = run_checkout(args.parent, root / "inputs", root / "parent")
        change = run_checkout(args.change, root / "inputs", root / "change")
    lines = differences(parent, change)
    for line in lines:
        print(line)
    print(f"{len(parent.keys() | change.keys())} run(s), {len(lines)} difference(s)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
