"""Unit and property tests for SortedListIndex (the 1-d range tree)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.interval import Interval
from repro.index.sorted_list import SortedListIndex

values = st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=50)


class TestBasics:
    def test_report_sorted_by_value(self):
        sl = SortedListIndex([0.5, 0.1, 0.9], ids=["mid", "lo", "hi"])
        assert sl.report(Interval.everything()) == ["lo", "mid", "hi"]

    def test_report_interval(self):
        sl = SortedListIndex([0.1, 0.5, 0.9])
        assert sl.report(Interval(0.2, 0.95)) == [1, 2]

    def test_open_endpoints(self):
        sl = SortedListIndex([0.1, 0.5, 0.9])
        assert sl.report(Interval(0.1, 0.9, lo_open=True, hi_open=True)) == [1]

    def test_count(self):
        sl = SortedListIndex([0.1, 0.5, 0.9])
        assert sl.count(Interval(0.0, 0.6)) == 2

    def test_report_first(self):
        sl = SortedListIndex([0.1, 0.5, 0.9])
        assert sl.report_first(Interval(0.4, 1.0)) == 1
        assert sl.report_first(Interval(2.0, 3.0)) is None

    def test_duplicate_values_all_reported(self):
        sl = SortedListIndex([0.5, 0.5, 0.5])
        assert sorted(sl.report(Interval(0.5, 0.5))) == [0, 1, 2]

    def test_unique_ids_enforced(self):
        with pytest.raises(ValueError):
            SortedListIndex([1.0, 2.0], ids=["a", "a"])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SortedListIndex([1.0], ids=["a", "b"])

    def test_values_of(self):
        sl = SortedListIndex([3.0, 1.0], ids=["x", "y"])
        assert sl.values_of("x") == 3.0


class TestActivation:
    def test_deactivate_hides(self):
        sl = SortedListIndex([0.1, 0.5, 0.9])
        sl.deactivate(1)
        assert sl.report(Interval.everything()) == [0, 2]
        assert sl.count(Interval.everything()) == 2

    def test_activate_restores(self):
        sl = SortedListIndex([0.1, 0.5])
        sl.deactivate(0)
        sl.activate(0)
        assert sl.report(Interval.everything()) == [0, 1]

    def test_double_deactivate_raises(self):
        sl = SortedListIndex([0.1])
        sl.deactivate(0)
        with pytest.raises(KeyError):
            sl.deactivate(0)

    def test_double_activate_raises(self):
        sl = SortedListIndex([0.1])
        with pytest.raises(KeyError):
            sl.activate(0)

    def test_is_active(self):
        sl = SortedListIndex([0.1])
        assert sl.is_active(0)
        sl.deactivate(0)
        assert not sl.is_active(0)

    def test_report_first_skips_inactive(self):
        sl = SortedListIndex([0.1, 0.2, 0.3])
        sl.deactivate(0)
        assert sl.report_first(Interval(0.0, 1.0)) == 1


class TestPropertyBased:
    @settings(max_examples=60, deadline=None)
    @given(vals=values, a=st.floats(-100, 100), b=st.floats(-100, 100))
    def test_report_matches_naive(self, vals, a, b):
        lo, hi = min(a, b), max(a, b)
        sl = SortedListIndex(vals)
        iv = Interval(lo, hi)
        expected = sorted(i for i, v in enumerate(vals) if lo <= v <= hi)
        assert sorted(sl.report(iv)) == expected
        assert sl.count(iv) == len(expected)

    @settings(max_examples=40, deadline=None)
    @given(
        vals=values,
        kill=st.sets(st.integers(0, 49)),
        a=st.floats(-100, 100),
        b=st.floats(-100, 100),
    )
    def test_activation_matches_naive(self, vals, kill, a, b):
        lo, hi = min(a, b), max(a, b)
        sl = SortedListIndex(vals)
        killed = {k for k in kill if k < len(vals)}
        for k in killed:
            sl.deactivate(k)
        expected = sorted(
            i for i, v in enumerate(vals) if lo <= v <= hi and i not in killed
        )
        assert sorted(sl.report(Interval(lo, hi))) == expected
        first = sl.report_first(Interval(lo, hi))
        assert (first is None) == (not expected)
        if expected:
            assert first in expected
