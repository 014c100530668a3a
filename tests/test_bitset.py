"""`holding`, the one routine for an AND of selected masks, against the
loop over every row."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seplat.bitset import holding
from seplat.errors import ValidationError
from seplat.ortho import AtomOrthogonality


def _and_of_selected(rows, raw, width):
    acc = (1 << width) - 1
    for k, row in enumerate(rows):
        if raw >> k & 1:
            acc &= row
    return acc


@st.composite
def selections(draw):
    """Rows (some with bits at or past `width`), a width, and a mask
    selecting some of the rows."""
    width = draw(st.integers(min_value=0, max_value=12))
    rows = draw(st.lists(st.integers(min_value=0, max_value=(1 << (width + 2)) - 1), max_size=10))
    raw = draw(st.integers(min_value=0, max_value=(1 << len(rows)) - 1))
    return rows, raw, width


@given(selections())
@example(([0b101, 0b011], 0, 3))
@example(([0b101, 0b011], 0b11, 0))
@example(([], 0, 0))
@settings(max_examples=300, deadline=None)
def test_holding_is_the_and_of_the_selected_rows(case):
    rows, raw, width = case
    assert holding(rows, raw, width) == _and_of_selected(rows, raw, width)


def test_a_negative_selection_is_rejected():
    for rows, width in (([1], 1), ([0b11, 0b10, 0b01], 2), ([], 0)):
        with pytest.raises(ValidationError) as exc:
            holding(rows, -1, width)
        assert (exc.value.law, exc.value.witness) == ("atom masks are nonnegative", -1)
    relation = AtomOrthogonality.from_pairs(4, [(0, 1), (2, 3)])
    with pytest.raises(ValidationError) as exc:
        relation.polar_of(-1)
    assert exc.value.law == "atom masks are nonnegative"
