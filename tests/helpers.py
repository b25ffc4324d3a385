"""Test-only helpers over greenlint's data types: tree queries, span
containment, span soundness and synthetic corpus reports."""

from __future__ import annotations

import json

from greenlint.java.lexer import tokenize
from greenlint.java.parser import Node, SyntaxTree
from greenlint.report import CSV_HEADER, Row
from greenlint.rules import RuleId
from greenlint.spans import SourceSpan
from greenlint.xmltree import attributes


def find_all(tree: SyntaxTree, kind: str) -> list[Node]:
    return [n for n in tree.root.walk() if n.kind == kind]


def contains(outer: SourceSpan, inner: SourceSpan) -> bool:
    return outer.start <= inner.start and inner.end <= outer.end


def assert_spans_sound(tree) -> None:
    """Check what a tree's spans promise about its bytes.

    Java: the tokens are non-empty, in order, in bounds and do not overlap,
    and every gap between them, before the first and after the last, lexes
    to no token, so the tokens and the trivia between them are the whole
    input. XML: each element's span is its start tag, and each attribute's
    span lies inside it.
    """
    data = tree.data
    if isinstance(tree, SyntaxTree):
        tokens = tree.tokens
        assert all(s < e for s, e in zip(tokens.starts, tokens.ends))
        ends = [0] + tokens.ends
        starts = tokens.starts + [len(data)]
        for gap_start, gap_end in zip(ends, starts):
            assert gap_start <= gap_end
            assert len(tokenize(data[gap_start:gap_end])) == 0, data[gap_start:gap_end]
        return
    for element in tree.root.walk():
        start_tag = data[element.span.start : element.span.end]
        assert start_tag.startswith(b"<" + element.tag.encode()) and start_tag.endswith(b">")
        for _, start, end, _ in attributes(tree, element):
            assert contains(element.span, SourceSpan(start, end))


def make_counts(refactorings: dict[RuleId, int]) -> dict[RuleId, dict[str, int]]:
    """A project's `report.rule_counts` with the given per-rule refactoring
    counts, for aggregating without running the engine."""
    return {
        rule: {"refactorings": refactorings.get(rule, 0), "fixed": 0, "unfixable": 0}
        for rule in RuleId
    }


def parse_summary(data: bytes) -> tuple[list[Row], int]:
    """Inverse of emit(rows, 'json', corpus_size) for round-trip checks."""
    payload = json.loads(data.decode("utf-8"))
    keys = CSV_HEADER.split(",")
    return [tuple(entry[k] for k in keys) for entry in payload], payload[0]["corpus_size"]


def tree_shape(tree: SyntaxTree) -> list[tuple]:
    """Every node of ``tree`` in walk order as (kind, token range, child
    count, props), spans and nodes held in props compared by value."""

    def value(v):
        if isinstance(v, SourceSpan):
            return ("span", v.start, v.end)
        if isinstance(v, Node):
            return ("node", v.kind, v.tok_lo, v.tok_hi)
        if isinstance(v, dict):
            return tuple(sorted((k, value(x)) for k, x in v.items()))
        if isinstance(v, (list, tuple)):
            return tuple(value(x) for x in v)
        return v

    return [
        (n.kind, n.tok_lo, n.tok_hi, len(n.children), value(n.props))
        for n in tree.root.walk()
    ]
