from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biasgraph import Interval, IntervalSet

F = Fraction


def iset(*pairs) -> IntervalSet:
    return IntervalSet.from_intervals(
        Interval(F(lo), None if hi is None else F(hi)) for lo, hi in pairs
    )


def test_basic_intersection():
    assert iset((0, 2), (4, 6)).intersect(iset((1, 5))) == iset((1, 2), (4, 5))


def test_identity_element():
    x = iset((1, 3), (5, None))
    assert x.intersect(IntervalSet.nonnegative()) == x


def test_empty_absorbs():
    x = iset((1, 3))
    assert x.intersect(IntervalSet.empty()) == IntervalSet.empty()
    assert IntervalSet.empty().is_empty


def test_touching_intervals_merge():
    assert iset((0, 1), (1, 2)) == iset((0, 2))


def test_overlap_with_unbounded():
    assert iset((0, None)).intersect(iset((3, 7))) == iset((3, 7))
    assert iset((2, None)).intersect(iset((0, None))) == iset((2, None))


def test_min_point_and_contains():
    x = iset((F(1, 2), 2), (4, None))
    assert x.min_point() == F(1, 2)
    assert x.contains(F(1, 2)) and x.contains(F(2)) and x.contains(F(100))
    assert not x.contains(F(3))


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        Interval(F(2), F(1))


def test_json_rendering():
    assert iset((1, None)).to_json_list() == [{"lo": "1", "hi": None}]


fractions_ = st.fractions(min_value=0, max_value=30, max_denominator=8)


@st.composite
def interval_sets(draw):
    pieces = draw(st.lists(st.tuples(fractions_, st.one_of(st.none(), fractions_)), max_size=5))
    return IntervalSet.from_intervals(
        Interval(lo, None if width is None else lo + width) for lo, width in pieces
    )


@given(interval_sets(), interval_sets())
def test_intersection_commutative(a, b):
    assert a.intersect(b) == b.intersect(a)


@given(interval_sets(), interval_sets(), interval_sets())
def test_intersection_associative(a, b, c):
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


@given(interval_sets())
def test_nonnegative_is_identity(a):
    assert a.intersect(IntervalSet.nonnegative()) == a


@given(interval_sets(), interval_sets(), fractions_)
def test_membership_respects_intersection(a, b, x):
    both = a.intersect(b)
    assert both.contains(x) == (a.contains(x) and b.contains(x))


@given(interval_sets())
def test_normal_form_is_disjoint_and_sorted(a):
    for left, right in zip(a.intervals, a.intervals[1:]):
        assert left.hi is not None
        assert left.hi < right.lo
