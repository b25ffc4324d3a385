from __future__ import annotations

from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
CLEAN_CORPUS = FIXTURES / "clean_corpus"

GOLDEN_CASES = {
    "view_holder": "java",
    "draw_allocation": "java",
    "wake_lock": "java",
    "recycle": "java",
    "obsolete_layout_param": "xml",
}


@pytest.fixture
def golden():
    def load(name: str) -> tuple[bytes, bytes]:
        ext = GOLDEN_CASES[name]
        before = (GOLDEN / name / f"before.{ext}").read_bytes()
        after = (GOLDEN / name / f"after.{ext}").read_bytes()
        return before, after

    return load


def parse_java(data: bytes):
    from greenlint.java.parser import parse_java_source

    tree, diags = parse_java_source(data)
    assert tree is not None, diags
    return tree


def parse_xml(data: bytes):
    from greenlint.xmltree import parse_layout_xml

    tree, diags = parse_layout_xml(data)
    assert tree is not None, diags
    return tree


def fix_java(rule_fn, data: bytes, **kwargs) -> tuple[object, bytes]:
    from greenlint.spans import apply_edit_set

    result = rule_fn(parse_java(data), **kwargs)
    return result, apply_edit_set(data, result.edits)


def fix_xml(rule_fn, data: bytes, **kwargs) -> tuple[object, bytes]:
    from greenlint.spans import apply_edit_set

    result = rule_fn(parse_xml(data), **kwargs)
    return result, apply_edit_set(data, result.edits)


@pytest.fixture
def lexer_matches(monkeypatch) -> list[int]:
    """Counts the matches of the Java lexer's token regex from here on."""
    from greenlint.java import lexer

    count = [0]
    pattern = lexer._TOKEN

    class Counting:
        def match(self, data: bytes, pos: int):
            count[0] += 1
            return pattern.match(data, pos)

    monkeypatch.setattr(lexer, "_TOKEN", Counting())
    return count
