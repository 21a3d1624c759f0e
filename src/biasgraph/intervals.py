"""Finite unions of disjoint closed intervals with exact rational endpoints.

An upper endpoint of ``None`` stands for +infinity.  Sets are built in a
canonical form (sorted, disjoint, no two intervals touching) so equality is
structural; the constructor takes the pieces as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction | None  # None = unbounded above; interval is closed

    def __post_init__(self) -> None:
        if self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, x: Fraction) -> bool:
        return x >= self.lo and (self.hi is None or x <= self.hi)

    def to_json_dict(self) -> dict:
        return {"lo": str(self.lo), "hi": None if self.hi is None else str(self.hi)}


@dataclass(frozen=True)
class IntervalSet:
    intervals: tuple[Interval, ...]

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def nonnegative(cls) -> "IntervalSet":
        """The identity element [0, inf) for intersection over reward sets."""
        return cls((Interval(Fraction(0), None),))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def min_point(self) -> Fraction | None:
        return self.intervals[0].lo if self.intervals else None

    def contains(self, x: Fraction) -> bool:
        return any(i.contains(x) for i in self.intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Pairwise intersection, linear in the total interval count.  Exact
        for canonical operands: any two pieces cut from them are separated by
        an open gap of positive length, so the output is canonical as built.
        Every set the package builds is canonical (``equilibria._sweep``'s
        pieces never touch; ``empty()`` and ``nonnegative()`` have one piece
        at most)."""
        out: list[Interval] = []
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            x, y = a[i], b[j]
            lo = max(x.lo, y.lo)
            hi = y.hi if x.hi is None else x.hi if y.hi is None else min(x.hi, y.hi)
            if hi is None or lo <= hi:
                out.append(Interval(lo, hi))
            # advance whichever interval ends first
            if x.hi is not None and (y.hi is None or x.hi <= y.hi):
                i += 1
            else:
                j += 1
        return IntervalSet(tuple(out))

    def to_json_list(self) -> list[dict]:
        return [i.to_json_dict() for i in self.intervals]
