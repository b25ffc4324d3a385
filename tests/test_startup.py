"""Start-up and exit guards: importing the CLI loads only what every run
needs, and `cli.run`'s own exit keeps what the interpreter's would.

Modules that only some commands use (patches, corpus CSV/JSON, JSON output)
are imported inside the functions that use them. These tests run fresh
interpreters, so they see exactly what `python -m greenlint.cli` loads, and
then run each command that needs a deferred import. `run` ends the process
itself once `main` returns, so they also check its exit status, `atexit`
handlers, output through a pipe and a flush that fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import GOLDEN
from greenlint.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# Never needed at start-up: `dataclasses` alone pulls in `inspect` (and with
# it `ast`, `dis`, `tokenize`); the others serve one command each.
DEFERRED = ("dataclasses", "inspect", "difflib", "csv", "decimal", "json")


def _python(*args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
        timeout=120,
    )


def test_importing_the_cli_loads_no_deferred_module():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import greenlint.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "greenlint.cli" in added
    assert sorted(added.intersection(DEFERRED)) == []


def test_importing_the_package_loads_no_submodule():
    script = (
        "import sys\n"
        "import greenlint\n"
        "print('\\n'.join(m for m in sys.modules if m.startswith('greenlint.')))\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.fixture
def project(tmp_path: Path) -> Path:
    """One app with a Recycle smell and an obsolete layout param."""
    app = tmp_path / "corpus" / "app"
    (app / "src").mkdir(parents=True)
    (app / "res" / "layout").mkdir(parents=True)
    java = (GOLDEN / "recycle" / "before.java").read_bytes()
    layout = (GOLDEN / "obsolete_layout_param" / "before.xml").read_bytes()
    (app / "src" / "A.java").write_bytes(java)
    (app / "res" / "layout" / "main.xml").write_bytes(layout)
    return app


def test_fix_with_patch_dir_in_a_fresh_process(project, tmp_path):
    patches = tmp_path / "patches"
    proc = _python(
        "-m", "greenlint.cli", "fix", str(project), "--patch-dir", str(patches)
    )
    assert proc.returncode == 1, proc.stderr  # fixes applied
    patch = (patches / "src" / "A.java.patch").read_text()
    assert patch.startswith("--- a/src/A.java\n+++ b/src/A.java\n")
    assert (patches / "res" / "layout" / "main.xml.patch").is_file()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_corpus_in_a_fresh_process(project, tmp_path, fmt):
    out = tmp_path / f"summary.{fmt}"
    proc = _python(
        "-m", "greenlint.cli", "corpus", str(project.parent), "--out", str(out),
        "--format", fmt,
    )
    assert proc.returncode == 0, proc.stderr
    text = out.read_text()
    if fmt == "csv":
        lines = text.splitlines()
        assert lines[1:3] == ["ViewHolder,0,0,0,-", "DrawAllocation,0,0,0,-"]
        assert lines[-1] == "Any,2,1,100,2.0"
    else:
        rows = {row["rule"]: row for row in json.loads(text)}
        assert rows["Recycle"]["incidence_per_project"] == "1.0"
        assert rows["Any"]["percentage_of_projects"] == 100
        assert rows["Any"]["corpus_size"] == 1


def test_check_json_in_a_fresh_process(project):
    proc = _python("-m", "greenlint.cli", "check", str(project), "--format", "json")
    assert proc.returncode == 1, proc.stderr  # findings reported
    payload = json.loads(proc.stdout)
    assert sorted(f["rule"] for f in payload["findings"]) == [
        "ObsoleteLayoutParam",
        "Recycle",
    ]


def test_check_json_larger_than_a_pipe_buffer_arrives_whole(tmp_path):
    # `run` ends the process without the interpreter's teardown; the payload
    # must still be flushed whole, past the 64 KiB a pipe holds.
    methods = "".join(
        f"  void m{k}(Ctx ctx) {{\n"
        f"    TypedArray a = ctx.obtainStyledAttributes({k});\n"
        "    a.getInt(0, 0);\n"
        "  }\n"
        for k in range(300)
    )
    (tmp_path / "Big.java").write_text(f"class Big {{\n{methods}}}\n")
    proc = _python("-m", "greenlint.cli", "check", str(tmp_path), "--format", "json")
    assert proc.returncode == 1, proc.stderr  # findings reported
    assert len(proc.stdout) > 65536
    assert len(json.loads(proc.stdout)["findings"]) == 300


@pytest.mark.parametrize(
    "args, code",
    [
        (["check", "{empty}"], 0),
        (["check", "{project}"], 1),
        (["check", "{project}", "--only", "Nope"], 2),
        (["corpus", "{corpus}", "--out", "{empty}/missing/summary.csv"], 3),
    ],
)
def test_a_fresh_process_exits_as_main_returns(project, tmp_path, capsys, args, code):
    empty = tmp_path / "empty"
    empty.mkdir()
    argv = [a.format(empty=empty, project=project, corpus=project.parent) for a in args]
    assert main(argv) == code
    capsys.readouterr()
    proc = _python("-m", "greenlint.cli", *argv)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_atexit_handlers_registered_before_run_still_run(tmp_path):
    script = (
        "import atexit, sys\n"
        "import greenlint.cli\n"
        "atexit.register(print, 'handler ran', file=sys.stderr)\n"
        f"sys.argv = ['greenlint', 'check', {str(tmp_path)!r}]\n"
        "greenlint.cli.run()\n"
        "print('run returned', file=sys.stderr)\n"
    )
    proc = _python("-c", script)
    assert (proc.returncode, proc.stderr) == (0, "handler ran\n")


def test_a_failed_flush_ends_with_status_120_and_no_traceback(project, monkeypatch):
    # Buffered stdout into a pipe whose reader is gone: the finding line is
    # written by the flush at exit, which fails with EPIPE.
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _python("-m", "greenlint.cli", "check", str(project), stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 120, proc.stderr
    assert proc.stderr == "error: [Errno 32] Broken pipe\n"
