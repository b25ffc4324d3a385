"""The benchmark's tracer (``bench/tracing.py``) must see every layer.

The tracer wraps module-level names; a refactor that calls a layer through
some other reference would silently blank that layer's bench metrics. This
runs the CLI under the tracer and checks that each layer records calls.
"""

import importlib.util
import sys
from pathlib import Path

import greenlint.cli as cli

from conftest import GOLDEN, GOLDEN_CASES

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench_module(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


RULE_LAYERS = {
    "engine.process_file",
    "java.parser.parse_java_source",
    "xmltree.parse_layout_xml",
    "rules.ViewHolder",
    "rules.DrawAllocation",
    "rules.WakeLock",
    "rules.Recycle",
    "rules.ObsoleteLayoutParam",
}


def _traced_layers(command: str, tmp_path, monkeypatch) -> set[str]:
    """The layers that record calls while ``command`` runs on the goldens."""
    for name, ext in GOLDEN_CASES.items():
        rel = f"src/{name}.java" if ext == "java" else f"res/layout/{name}.xml"
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes((GOLDEN / name / f"before.{ext}").read_bytes())
    _load_bench_module("corpus", monkeypatch)  # tracing imports it by this name
    tracing = _load_bench_module("tracing", monkeypatch)
    with tracing.traced_calls() as spans:
        assert cli.main([command, str(tmp_path), "--jobs", "1"]) == cli.EXIT_FINDINGS
    return {span.name for span in spans}


def test_tracer_sees_every_layer_of_a_check(tmp_path, monkeypatch):
    seen = _traced_layers("check", tmp_path, monkeypatch)
    assert RULE_LAYERS <= seen, RULE_LAYERS - seen


def test_tracer_sees_every_layer_of_a_fix(tmp_path, monkeypatch):
    # Edits built by a helper rather than by the rule itself must still be
    # counted under the rule's layer and applied through apply_edit_set.
    seen = _traced_layers("fix", tmp_path, monkeypatch)
    expected = RULE_LAYERS | {"spans.apply_edit_set"}
    assert expected <= seen, expected - seen
