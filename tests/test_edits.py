import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenlint.spans import Edit, EditError, SourceSpan, apply_edit_set


def test_empty_edit_set_is_identity():
    text = b"anything at all"
    assert apply_edit_set(text, []) == text


def test_simple_deletion():
    edits = [Edit.delete(2, 4)]
    assert apply_edit_set(b"abcdef", edits) == b"abef"


def test_replacement_and_insertion():
    edits = [Edit.replace(0, 3, b"XY"), Edit.insert(6, b"!")]
    assert apply_edit_set(b"abcdef", edits) == b"XYdef!"


def test_out_of_bounds_is_hard_error():
    with pytest.raises(EditError):
        apply_edit_set(b"abc", [Edit.delete(2, 5)])


def test_overlap_is_hard_error():
    edits = [Edit.delete(0, 3), Edit.replace(2, 4, b"x")]
    with pytest.raises(EditError):
        apply_edit_set(b"abcdef", edits)


def test_invalid_span_rejected():
    with pytest.raises(ValueError):
        SourceSpan(4, 2)


@st.composite
def text_and_disjoint_edits(draw):
    text = draw(st.binary(min_size=0, max_size=80))
    n = len(text)
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=0, max_size=8)))
    edits = []
    prev = 0
    it = iter(cuts)
    for start in it:
        end = next(it, None)
        if end is None:
            break
        if start < prev or (start == prev and end == start):
            continue  # same-offset insertions are ordered, not disjoint
        replacement = draw(st.binary(max_size=6))
        edits.append(Edit.replace(start, end, replacement))
        prev = end
    return text, edits


@given(text_and_disjoint_edits())
def test_bytes_outside_spans_untouched(case):
    text, edits = case
    result = apply_edit_set(text, edits)
    # independently rebuild: untouched slices interleaved with replacements
    expected = bytearray()
    cursor = 0
    for e in sorted(edits, key=lambda e: e.span.start):
        expected += text[cursor : e.span.start]
        expected += e.replacement
        cursor = e.span.end
    expected += text[cursor:]
    assert result == bytes(expected)


@given(text_and_disjoint_edits())
def test_disjoint_edit_sets_commute(case):
    text, edits = case
    evens = edits[0::2]
    odds = edits[1::2]
    combined = apply_edit_set(text, edits)
    # applying the two halves in one set equals applying all at once,
    # regardless of which half the edit landed in
    merged_a = evens + odds
    merged_b = odds + evens
    assert apply_edit_set(text, merged_a) == combined
    assert apply_edit_set(text, merged_b) == combined
