from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlang.kernels import Stream, first_of_max, run_starts

from conftest import assert_uniform
from oracles import naive_below, naive_first_of_max, naive_run_starts, splitmix64_words


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


def assert_uniform_below(draws: np.ndarray, high: int) -> None:
    """``draws`` uniform over 0 .. high - 1: by value, or over the wide bound
    by which third of the range holds them."""
    cells = high if high <= 1000 else 3
    assert_uniform(np.bincount(draws // (high // cells), minlength=cells), cells)


def test_stream_without_a_key_is_splitmix64_from_zero():
    """The words of the empty key are SplitMix64's from state 0 (its published
    first outputs), read on across calls."""
    stream = Stream()
    assert stream.words(2).tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    assert stream.words(1).tolist() == [0x06C45D188009454F]


# negative parts and parts of 2**63 or more check that the key reduces them mod 2**63
KEY = st.lists(st.integers(0, 3) | st.integers(-(2**70), 2**70), max_size=3)


@settings(max_examples=200, deadline=None)
@given(KEY, st.lists(st.integers(0, 40), min_size=1, max_size=4))
def test_stream_words_match_the_python_integer_oracle(key, counts):
    """Each call reads the words after the last one read."""
    stream = Stream(*key)
    for count in counts:
        first = stream.used
        assert stream.words(count).tolist() == splitmix64_words(key, first, count)


@settings(max_examples=200, deadline=None)
@given(KEY, st.integers(1, 2**63) | st.sampled_from([3 * 2**61, 2**62 + 1, 5 * 2**60]),
       st.integers(0, 60))
def test_below_matches_the_python_integer_oracle(key, high, count):
    """The sampled bounds redraw about a quarter of their words."""
    assert Stream(*key).below(high, count).tolist() == naive_below(key, high, count)


def test_stream_words_depend_on_the_key_and_its_order():
    seed = 2**63 - 1
    assert Stream(seed, 1, 2).words(50).tolist() == Stream(seed, 1, 2).words(50).tolist()
    keys = [(seed, 1, 2), (seed, 2, 1), (seed, 1), (seed,), (0, 1, 2), ()]
    words = {tuple(Stream(*key).words(4).tolist()) for key in keys}
    assert len(words) == len(keys)


def test_stream_keys_reduce_each_part_mod_2_63():
    for part in (-3, -(2**63), 2**63, 2**63 + 5, 2**70, np.int64(-3), np.uint64(2**63 + 5)):
        reduced = int(part) % 2**63
        assert Stream(part, 1).words(3).tolist() == Stream(reduced, 1).words(3).tolist()
        assert Stream(1, part).words(3).tolist() == Stream(1, reduced).words(3).tolist()


# 2**64 % (3 * 2**61) = 2**62, so a quarter of the words are drawn again;
# reduced without, the thirds of 0 .. 3 * 2**61 - 1 would get 3/8, 3/8 and 2/8
WIDE = 3 * 2**61


@pytest.mark.parametrize("high", [1, 2, 7, 1000, WIDE])
def test_below_a_scalar_bound_is_uniform(high):
    stream = Stream(high)
    draws = stream.below(high, 30_000)
    assert draws.dtype == np.int64 and 0 <= draws.min() and draws.max() < high
    assert_uniform_below(draws, high)
    assert (stream.used > 30_000) == (high == WIDE)


def test_below_an_array_of_bounds_is_uniform_per_bound():
    """Bounds broadcast along rows, and each row is uniform below its own
    bound; the redraws of the wide row leave the others as they are."""
    highs = np.array([1, 2, 5, 6, WIDE])
    draws = Stream(3).below(highs[:, None], (len(highs), 20_000))
    assert draws.shape == (len(highs), 20_000)
    assert (draws.T < highs).all() and (draws >= 0).all()
    for high, row in zip(highs.tolist(), draws):
        assert_uniform_below(row, high)
    assert Stream(3).below(highs[:4, None], (4, 20_000)).tolist() == draws[:4].tolist()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.data())
def test_subset_is_sorted_distinct_and_in_range(total, data):
    count = data.draw(st.integers(0, total), label="count")
    chosen = Stream(data.draw(st.integers(0, 2**63 - 1), label="seed")).subset(total, count)
    assert len(chosen) == count and chosen.dtype == np.int64
    assert (np.diff(chosen) > 0).all()
    assert count == 0 or 0 <= chosen[0] and chosen[-1] < total


@pytest.mark.parametrize("count", [2, 4, 5])  # sparse; total // 2 + 1 and total - 1, dense
def test_subset_draws_every_subset_equally_often(count):
    total, trials = 6, 15_000
    stream = Stream(count)
    subsets = {subset: k for k, subset in enumerate(itertools.combinations(range(total), count))}
    drawn = [subsets[tuple(stream.subset(total, count).tolist())] for _ in range(trials)]
    assert_uniform(np.bincount(drawn, minlength=len(subsets)), len(subsets))
