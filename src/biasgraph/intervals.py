"""Finite unions of disjoint closed intervals with exact rational endpoints.

An upper endpoint of ``None`` stands for +infinity.  Sets are kept in a
canonical form (sorted, disjoint, touching intervals merged) so equality is
structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction | None  # None = unbounded above; interval is closed

    def __post_init__(self) -> None:
        if self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, x: Fraction) -> bool:
        return x >= self.lo and (self.hi is None or x <= self.hi)

    def intersect(self, other: "Interval") -> "Interval | None":
        lo = max(self.lo, other.lo)
        if self.hi is None:
            hi = other.hi
        elif other.hi is None:
            hi = self.hi
        else:
            hi = min(self.hi, other.hi)
        if hi is not None and lo > hi:
            return None
        return Interval(lo, hi)

    def to_json_dict(self) -> dict:
        return {"lo": str(self.lo), "hi": None if self.hi is None else str(self.hi)}


@dataclass(frozen=True)
class IntervalSet:
    intervals: tuple[Interval, ...]

    @classmethod
    def from_intervals(cls, items: Iterable[Interval | None]) -> "IntervalSet":
        """Normalize: drop Nones, sort, merge overlapping or touching intervals."""
        pieces = sorted((i for i in items if i is not None), key=lambda i: i.lo)
        merged: list[Interval] = []
        for piece in pieces:
            if merged:
                last = merged[-1]
                if last.hi is None or piece.lo <= last.hi:
                    if last.hi is None:
                        hi = None
                    elif piece.hi is None:
                        hi = None
                    else:
                        hi = max(last.hi, piece.hi)
                    merged[-1] = Interval(last.lo, hi)
                    continue
            merged.append(piece)
        return cls(tuple(merged))

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
        """Pairwise intersection, linear in the total interval count."""
        out: list[Interval] = []
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            piece = a[i].intersect(b[j])
            if piece is not None:
                out.append(piece)
            # advance whichever interval ends first
            if a[i].hi is None:
                j += 1
            elif b[j].hi is None:
                i += 1
            elif a[i].hi <= b[j].hi:
                i += 1
            else:
                j += 1
        return IntervalSet.from_intervals(out)

    def to_json_list(self) -> list[dict]:
        return [i.to_json_dict() for i in self.intervals]
