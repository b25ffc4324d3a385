"""The cycle invariant behind `cli.run` turning the cyclic collector off.

A greenlint run may leave the collector off only while reference counting
alone frees everything the run makes, so no run may leave a reference
cycle behind. Each test here runs one command line through `cli.main` with
the collector off and asserts that a full collection afterwards finds
nothing. The command lines are check as text and JSON, fix in place and
with `--patch-dir`, corpus as CSV and JSON, and one usage error; they call
`engine.run_project` in report, fix and patch mode and the report module
on the corpus path.
"""

from __future__ import annotations

import gc
import json
import shutil
from pathlib import Path

import pytest

from conftest import CLEAN_CORPUS, GOLDEN
from greenlint import cli


def _golden(root: Path) -> None:
    shutil.copytree(GOLDEN, root)


def _clean(root: Path) -> None:
    shutil.copytree(CLEAN_CORPUS, root)


def _failing(root: Path) -> None:
    """Inputs that are skipped or fail to parse, next to one that is fixed."""
    (root / "src").mkdir(parents=True)
    (root / "res" / "layout").mkdir(parents=True)
    (root / "src" / "Open.java").write_bytes(b'class Open { String s = "no end; }\n')
    (root / "src" / "Brace.java").write_bytes(b"class Brace { void f() { if (x) }\n")
    (root / "src" / "Deep.java").write_bytes(
        b"class Deep { void f() " + b"{" * 3000 + b"}" * 3000 + b" }\n"
    )
    (root / "src" / "Latin.java").write_bytes(b"class Latin { String s = \"\xe9\"; }\n")
    (root / "res" / "layout" / "bad.xml").write_bytes(b"<LinearLayout><TextView></LinearLayout>")
    (root / "res" / "layout" / "latin.xml").write_bytes(b"<TextView text=\"\xe9\"/>")
    shutil.copy(GOLDEN / "recycle" / "before.java", root / "src" / "Recycle.java")


def _projects(root: Path) -> None:
    """Six projects, each with every golden `before` under its own names."""
    for k in range(6):
        app = root / f"app{k}"
        (app / "src" / "pkg").mkdir(parents=True)
        (app / "res" / f"layout-v{k}").mkdir(parents=True)
        for case in ("view_holder", "draw_allocation", "wake_lock", "recycle"):
            text = (GOLDEN / case / "before.java").read_bytes()
            (app / "src" / "pkg" / f"{case}{k}.java").write_bytes(text)
        layout = (GOLDEN / "obsolete_layout_param" / "before.xml").read_bytes()
        (app / "res" / f"layout-v{k}" / "main.xml").write_bytes(layout)
        shutil.copytree(CLEAN_CORPUS / "res" / "layout", app / "res" / "layout")


INPUTS = {"golden": _golden, "clean": _clean, "failing": _failing, "projects": _projects}


def _commands(root: Path, out: Path) -> dict:
    return {
        "check-text": ["check", str(root)],
        "check-json": ["check", str(root), "--format", "json"],
        "fix": ["fix", str(root)],
        "patch": ["fix", str(root), "--patch-dir", str(out / "patches")],
        "corpus-csv": ["corpus", str(root), "--out", str(out / "table.csv")],
        "corpus-json": ["corpus", str(root), "--out", str(out / "table.json"), "--format=json"],
        "usage-error": ["check", str(root), "--format", "xml"],
    }


def _cycles_left(command, monkeypatch) -> int:
    """What full collections find after ``command`` ran with the collector
    off. The cycle of closures that the standard library's pure-Python
    encoder leaves after each `json.dumps(..., indent=2)` is left out: it
    is one per JSON document written, whatever the input."""
    found = []
    real = json.dumps

    def dumps(*args, **kwargs):
        found.append(gc.collect())  # what the run left up to here
        text = real(*args, **kwargs)
        gc.collect()  # the encoder's own
        return text

    monkeypatch.setattr(json, "dumps", dumps)
    gc.collect()
    gc.disable()
    try:
        command()
        found.append(gc.collect())
    finally:
        gc.enable()
    return sum(found)


@pytest.mark.parametrize("command", list(_commands(Path(), Path())))
@pytest.mark.parametrize("name", list(INPUTS))
def test_a_run_leaves_nothing_for_the_collector(tmp_path, capsys, monkeypatch, name, command):
    root = tmp_path / "input"
    INPUTS[name](root)
    out = tmp_path / "out"
    out.mkdir()
    argv = _commands(root, out)[command]

    def run():
        return cli.main(argv)

    run()  # a first run loads every module the command imports
    if command == "fix":
        shutil.rmtree(root)
        INPUTS[name](root)
    assert _cycles_left(run, monkeypatch) == 0
    capsys.readouterr()

