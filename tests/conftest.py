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
def parse_errors(monkeypatch) -> list[int]:
    """Counts the `ParseError`s the Java parser constructs from here on,
    whether raised to the caller or caught inside the parser."""
    from greenlint.java import parser

    count = [0]

    class Counting(parser.ParseError):
        def __init__(self, offset: int, message: str):
            count[0] += 1
            super().__init__(offset, message)

    monkeypatch.setattr(parser, "ParseError", Counting)
    return count


@pytest.fixture
def file_facts(monkeypatch) -> dict[str, int]:
    """Counts, from here on, the runs of the Java rules' indent regex
    ("indent") and of their line-end count ("eol") over a file's bytes."""
    import re

    from greenlint.rules import javautil

    count = {"indent": 0, "eol": 0}
    dominant_eol = javautil.dominant_eol

    class CountingRe:
        def __getattr__(self, name: str):
            return getattr(re, name)

        def findall(self, pattern, data, flags=0):
            count["indent"] += pattern == javautil._INDENT
            return re.findall(pattern, data, flags)

    def counting_eol(data: bytes) -> bytes:
        count["eol"] += 1
        return dominant_eol(data)

    monkeypatch.setattr(javautil, "re", CountingRe())
    monkeypatch.setattr(javautil, "dominant_eol", counting_eol)
    return count
