"""Window planner and cutter tests: fixtures, properties, and positional-oracle
equivalence."""

from array import array
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlpack.sliding import (
    ContextStreamError,
    check_context,
    cut_windows,
    slide_optimized,
    slide_optimized_lossy,
    slide_standard,
)

from .oracles import reference_slide_lossy, reference_slide_optimized, reference_slide_standard

SPLIT = 0


def ctx(length: int, start: int = 1) -> list[int]:
    """A context of `length` tokens ending with the split id."""
    assert length >= 1
    return [start + k for k in range(length - 1)] + [SPLIT]


def lengths(streams):
    return [len(ids) for ids in streams]


def cut(streams, ranges) -> list[list[int]]:
    return [w.tolist() for w in cut_windows(streams, ranges)]


# Random streams of contexts with lengths in [1, max_factor * n].
@st.composite
def context_streams(draw, max_factor=1):
    n = draw(st.integers(2, 24))
    sizes = draw(st.lists(st.integers(1, max_factor * n), min_size=0, max_size=30))
    streams = [ctx(length, start=100 * k + 1) for k, length in enumerate(sizes)]
    return streams, n


class TestOptimizedFixtures:
    def test_equal_contexts_force_one_per_window(self):
        streams = [ctx(5), ctx(5), ctx(5)]
        ranges = list(slide_optimized(lengths(streams), 8))
        assert ranges == [(0, 5), (5, 10), (10, 15)]
        # Each closed window defers the n - len(w) tokens of its raw span.
        assert [8 - (end - start) for start, end in ranges[:-1]] == [3, 3]
        assert cut(streams, ranges) == reference_slide_optimized(streams, 8)

    def test_mixed_lengths(self):
        streams = [ctx(3), ctx(4), ctx(5)]
        ranges = list(slide_optimized(lengths(streams), 8))
        # Contexts 0-1 end at 7 and fill the first window; context 2 the second.
        assert ranges == [(0, 7), (7, 12)]
        assert cut(streams, ranges) == reference_slide_optimized(streams, 8)

    def test_exact_budget_context(self):
        assert list(slide_optimized([8], 8)) == [(0, 8)]

    def test_empty_stream(self):
        assert list(slide_optimized([], 8)) == []

    def test_window_indices_sequential(self):
        # Window k + 1 starts where window k ends, and the last ends the stream.
        ranges = list(slide_optimized([5] * 4, 8))
        assert [start for start, _ in ranges] == [0] + [end for _, end in ranges[:-1]]
        assert ranges[-1][1] == 20


class TestOptimizedErrors:
    """The context rules slide checks on every record, under every policy."""

    def test_well_formed_context_passes(self):
        check_context(ctx(8), 8, SPLIT, 0)

    def test_oversized_context_rejected(self):
        with pytest.raises(ContextStreamError) as err:
            check_context(ctx(9), 8, SPLIT, 0)
        assert "context 0" in str(err.value)

    def test_missing_terminal_split_rejected(self):
        with pytest.raises(ContextStreamError) as err:
            check_context([1, 2, 3], 8, SPLIT, 1)
        assert "context 1" in str(err.value)

    def test_interior_split_rejected(self):
        with pytest.raises(ContextStreamError):
            check_context([1, SPLIT, 2, SPLIT], 8, SPLIT, 0)

    def test_empty_context_rejected(self):
        with pytest.raises(ContextStreamError):
            check_context([], 8, SPLIT, 0)

    def test_split_bytes_across_two_ids_are_not_a_split(self):
        # Little-endian, 1 packs as 01 00 00 00 and 256 as 00 01 00 00, so the
        # record's bytes hold four zero bytes at offset 1, across two ids.
        check_context([1, 256, 0], 8, SPLIT, 0)
        check_context(array("I", [1, 256, 0]), 8, SPLIT, 0)
        with pytest.raises(ContextStreamError, match="lacks the terminal split token"):
            check_context([1, 256], 8, SPLIT, 0)
        with pytest.raises(ContextStreamError, match="lacks the terminal split token"):
            check_context([1, 256, 7], 8, SPLIT, 0)

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12),
           st.sampled_from([0, 1, 256, 65_536, 2**32 - 1, -1, 2**32]))
    def test_matches_the_index_rule(self, ids, split):
        # The rule of the first split occurrence, as array.index would find it;
        # no u32 record holds a split id outside the u32 range.
        expected = None
        if split not in ids:
            expected = "lacks the terminal split token"
        elif ids.index(split) != len(ids) - 1:
            expected = "interior split token"
        for record in (ids, array("I", ids)):
            if expected is None:
                check_context(record, 16, split, 0)
            else:
                with pytest.raises(ContextStreamError, match=expected):
                    check_context(record, 16, split, 0)


class TestCutWindows:
    def test_runs_the_stream_to_its_end(self):
        # The dropped final partial needs no record, yet every record is read.
        read = []

        def stream():
            for ids in [ctx(8), ctx(3)]:
                read.append(ids)
                yield ids

        assert cut(stream(), slide_standard([8, 3], 8, keep_final_partial=False)) == [ctx(8)]
        assert len(read) == 2

    def test_skips_tokens_between_ranges(self):
        assert cut([[1, 2, 3], [4, 5]], [(1, 2), (4, 5)]) == [[2], [5]]


@given(context_streams())
@settings(max_examples=200, deadline=None)
def test_optimized_matches_positional_oracle(stream_and_n):
    streams, n = stream_and_n
    ws = cut(streams, slide_optimized(lengths(streams), n))
    assert ws == reference_slide_optimized(streams, n)


@given(context_streams())
@settings(max_examples=200, deadline=None)
def test_optimized_properties(stream_and_n):
    streams, n = stream_and_n
    ranges = list(slide_optimized(lengths(streams), n))
    ws = cut(streams, ranges)
    flat_in = [t for ids in streams for t in ids]
    flat_out = [t for w in ws for t in w]
    # Losslessness: deferred, never discarded.
    assert flat_out == flat_in
    length_at = dict(zip(accumulate([0] + lengths(streams)), lengths(streams)))
    for k, w in enumerate(ws):
        assert 1 <= len(w) <= n
        assert w[-1] == SPLIT
        # Greedy maximality: the context that opens the next window would not have fit.
        if k + 1 < len(ranges):
            assert len(w) + length_at[ranges[k + 1][0]] > n
    # No context spans windows: each window is a concatenation of whole contexts.
    pos = 0
    for w in ws:
        consumed = 0
        while consumed < len(w):
            assert w[consumed : consumed + len(streams[pos])] == streams[pos]
            consumed += len(streams[pos])
            pos += 1
    assert pos == len(streams)


class TestStandardFixtures:
    def test_cuts_mid_context(self):
        streams = [ctx(3), ctx(4), ctx(5)]
        ranges = list(slide_standard(lengths(streams), 8))
        # Window 0 covers contexts 0-1 (ending at 7) and the head of context 2.
        assert ranges == [(0, 8), (8, 12)]
        ws = cut(streams, ranges)
        assert ws[0][-1] == streams[2][0]
        assert ws == reference_slide_standard(streams, 8)

    def test_exact_multiple_no_partial(self):
        assert list(slide_standard([8, 8], 8)) == [(0, 8), (8, 16)]

    def test_drop_final_partial(self):
        assert list(slide_standard([5], 8, keep_final_partial=False)) == []

    def test_keep_final_partial(self):
        assert list(slide_standard([5], 8, keep_final_partial=True)) == [(0, 5)]


@given(context_streams(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_standard_partition_property(stream_and_n, keep_partial):
    streams, n = stream_and_n
    ws = cut(streams, slide_standard(lengths(streams), n, keep_partial))
    total = sum(lengths(streams))
    sizes = [len(w) for w in ws]
    if keep_partial:
        assert sum(sizes) == total
        if sizes:
            assert all(l == n for l in sizes[:-1])
            assert 0 < sizes[-1] <= n
    else:
        assert all(l == n for l in sizes)
        assert sum(sizes) == total - total % n
    assert ws == reference_slide_standard(streams, n, keep_partial)


class TestLossy:
    def test_tails_are_discarded(self):
        # Raw window [0, 8): context 0 + head of context 1, whose head is dropped.
        streams = [ctx(5), ctx(5), ctx(5)]
        ranges = list(slide_optimized_lossy(lengths(streams), 8))
        assert ranges == [(0, 5), (8, 15)]
        ws = cut(streams, ranges)
        for w in ws:
            assert w[-1] == SPLIT
            assert len(w) <= 8
        assert sum(len(w) for w in ws) < sum(lengths(streams))

    def test_fitting_stream_is_unchanged(self):
        streams = [ctx(4), ctx(4), ctx(4), ctx(4)]
        ws = cut(streams, slide_optimized_lossy(lengths(streams), 8))
        assert [t for w in ws for t in w] == [t for s in streams for t in s]


# Contexts up to 2n long, so some raw windows hold no context end and are skipped.
@given(context_streams(max_factor=2))
@settings(max_examples=200, deadline=None)
def test_lossy_matches_chunk_oracle(stream_and_n):
    streams, n = stream_and_n
    ws = cut(streams, slide_optimized_lossy(lengths(streams), n))
    assert ws == reference_slide_lossy(streams, n)
