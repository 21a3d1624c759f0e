from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biasgraph import Interval, IntervalSet

from conftest import union

F = Fraction


def iset(*pairs) -> IntervalSet:
    return union(Interval(F(lo), None if hi is None else F(hi)) for lo, hi in pairs)


def meet(x: Interval, y: Interval) -> Interval | None:
    """The intersection of two closed intervals, or None when they are apart."""
    his = [hi for hi in (x.hi, y.hi) if hi is not None]
    lo, hi = max(x.lo, y.lo), min(his, default=None)
    return Interval(lo, hi) if hi is None or lo <= hi else None


def test_basic_intersection():
    assert iset((0, 2), (4, 6)).intersect(iset((1, 5))) == iset((1, 2), (4, 5))


def test_identity_element():
    x = iset((1, 3), (5, None))
    assert x.intersect(IntervalSet.nonnegative()) == x


def test_empty_absorbs():
    x = iset((1, 3))
    assert x.intersect(IntervalSet.empty()) == IntervalSet.empty()
    assert IntervalSet.empty().is_empty


def test_pieces_meeting_at_points_stay_apart():
    assert iset((0, 1), (2, 3)).intersect(iset((1, 2))) == iset((1, 1), (2, 2))


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
    return union(Interval(lo, None if width is None else lo + width) for lo, width in pieces)


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


@given(interval_sets(), interval_sets())
def test_normal_form_is_disjoint_and_sorted(a, b):
    both = a.intersect(b)
    for piece in both.intervals:
        assert piece.hi is None or piece.lo <= piece.hi
    for left, right in zip(both.intervals, both.intervals[1:]):
        assert left.hi is not None
        assert left.hi < right.lo
    assert both == union(meet(x, y) for x in a.intervals for y in b.intervals)
