"""Smoke tests for the scripts under ``scripts/``."""

import subprocess
import sys
from pathlib import Path

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
