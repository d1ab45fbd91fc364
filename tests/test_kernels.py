from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlang.kernels import first_of_max, run_starts

from oracles import naive_first_of_max, naive_run_starts


def columns(rows: list[tuple], width: int) -> list[np.ndarray]:
    return [np.array([row[k] for row in rows], dtype=np.int64) for k in range(width)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_run_starts_matches_row_by_row_oracle(data):
    """Over co-sorted keys, a row starts a run iff it differs from the row
    before in any key; few values, so runs are long and often broken in a
    later key only."""
    width = data.draw(st.integers(1, 3), label="keys")
    rows = sorted(data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * width), max_size=40)))
    assert run_starts(*columns(rows, width)).tolist() == naive_run_starts(rows)


@pytest.mark.parametrize(("rows", "expected"), [
    ([], []),
    ([(5, 1)], [True]),
    ([(3, 3)] * 4, [True, False, False, False]),
    ([(1, 1), (1, 2), (1, 2), (2, 2)], [True, True, False, True]),  # the first break is in key 2
])
def test_run_starts_edges(rows, expected):
    assert run_starts(*columns(rows, 2)).tolist() == expected == naive_run_starts(rows)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_first_of_max_matches_run_by_run_oracle(data):
    """Per run of the sorted groups, the first index of the run's largest
    value: values come from a few levels, so ties are common, and as ints or
    as the float shares the game compares."""
    groups = sorted(data.draw(st.lists(st.integers(0, 5), max_size=40), label="groups"))
    levels = data.draw(st.lists(st.integers(0, 3), min_size=len(groups), max_size=len(groups)))
    for values in (np.array(levels, dtype=np.int64), np.array(levels) / 3):
        found = first_of_max(np.array(groups, dtype=np.int64), values)
        assert found.tolist() == naive_first_of_max(groups, values.tolist())


@pytest.mark.parametrize(("groups", "values", "expected"), [
    ([], [], []),
    ([7], [2], [0]),
    ([4, 4, 4], [1, 1, 1], [0]),  # all equal: the first index wins
    ([0, 0, 0, 1, 1], [1, 3, 3, 2, 2], [1, 3]),  # ties for the largest value
    ([0, 1, 1, 2], [5, 0, 9, 5], [0, 2, 3]),
])
def test_first_of_max_edges(groups, values, expected):
    found = first_of_max(np.array(groups, dtype=np.int64), np.array(values, dtype=np.int64))
    assert found.tolist() == expected == naive_first_of_max(groups, values)
