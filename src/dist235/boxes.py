"""Coordinate boxes and deterministic rational sampling.

A Box is a product of closed intervals with rational endpoints, one per
named coordinate.  Sampling uses a Halton sequence computed in exact
rational arithmetic, so sample points are reproducible and can be fed to
exact evaluators without rounding.  A box builds the points of each
(count, skip) it is asked for once and keeps them for as long as it
lives; each call returns them as fresh dicts.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Optional

from .frozen import Frozen

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _radical_inverse(index: int, base: int) -> tuple:
    """The van der Corput radical inverse of `index` in the given base,
    exact, as (numerator, denominator)."""
    num, denom = 0, 1
    while index > 0:
        index, digit = divmod(index, base)
        num, denom = num * base + digit, denom * base
    return num, denom


def _halton(intervals: tuple, count: int, skip: int) -> tuple:
    """Halton points skip+1 .. skip+count, as tuples of (name, value).

    With lo = a/b and hi - lo = c/d, the value at radical inverse n/m is
    (a*d*m + c*b*n) / (b*d*m): one `Fraction` from integers."""
    scaled = []
    for dim, (name, lo, hi) in enumerate(intervals):
        width = hi - lo
        scaled.append((name, _PRIMES[dim], lo.numerator * width.denominator,
                       width.numerator * lo.denominator,
                       lo.denominator * width.denominator))
    points = []
    for i in range(1 + skip, count + skip + 1):
        point = []
        for name, base, ad, cb, bd in scaled:
            n, m = _radical_inverse(i, base)
            point.append((name, Fraction(ad * m + cb * n, bd * m)))
        points.append(tuple(point))
    return tuple(points)


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"cannot convert {value!r} to a rational")
        return Fraction(value).limit_denominator(10**12)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


class Box(Frozen):
    """Product of rational intervals keyed by coordinate name:
    `intervals` holds (name, lo, hi) triples."""

    _key = attrgetter("intervals")

    def __init__(self, intervals: tuple[tuple[str, Fraction, Fraction], ...]):
        seen = set()
        for name, lo, hi in intervals:
            if name in seen:
                raise ValueError(f"duplicate coordinate {name!r} in box")
            seen.add(name)
            if lo > hi:
                raise ValueError(f"empty interval for {name!r}: [{lo}, {hi}]")
        self.__dict__["intervals"] = intervals

    @classmethod
    def around(cls, center: dict, half_width) -> "Box":
        """Box centered at `center`, in its coordinates and their order,
        with the given rational half-width."""
        h = as_fraction(half_width)
        if h <= 0:
            raise ValueError("box half-width must be positive")
        ivs = []
        for name, value in center.items():
            c = as_fraction(value)
            ivs.append((name, c - h, c + h))
        return cls(tuple(ivs))

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.intervals)

    def bounds(self, name: str) -> tuple[Fraction, Fraction]:
        for var, lo, hi in self.intervals:
            if var == name:
                return lo, hi
        raise KeyError(name)

    def scaled(self, factor) -> "Box":
        """Shrink or grow every interval about its center."""
        f = as_fraction(factor)
        if f <= 0:
            raise ValueError("box scale must be positive")
        ivs = []
        for name, lo, hi in self.intervals:
            c = (lo + hi) / 2
            r = (hi - lo) / 2 * f
            ivs.append((name, c - r, c + r))
        return Box(tuple(ivs))

    def contains(self, point: dict) -> bool:
        for name, lo, hi in self.intervals:
            v = point[name]
            if v < lo or v > hi:
                return False
        return True

    def sample_points(self, count: int, skip: int = 0) -> list[dict]:
        """`count` Halton points in the box, as exact rational dicts.

        The sequence is a pure function of the box's coordinate order, so
        repeated calls (and repeated runs) see identical points.  The box
        keeps the points of each (count, skip) it was asked for, in its
        `__dict__`, which equality and hashing ignore.
        """
        if len(self.intervals) > len(_PRIMES):
            raise ValueError("box has more coordinates than supported")
        known = self.__dict__.setdefault("_halton", {})
        points = known.get((count, skip))
        if points is None:
            points = known[count, skip] = _halton(self.intervals, count, skip)
        return [dict(pt) for pt in points]


# The default box's half-width in a direction coordinate: the cone
# direction of a family, or the fiber of a prolonged plane field.
DIRECTION_HALF_WIDTH = Fraction(1, 2)


def default_box(base_point: dict, direction: Optional[str] = None) -> Box:
    """The box used when none is given: half-width 1/4 about the base
    point in each coordinate, in the base point's order, except
    `direction`, which gets `DIRECTION_HALF_WIDTH` and comes last."""
    box = Box.around({name: value for name, value in base_point.items()
                      if name != direction}, Fraction(1, 4))
    if direction is None:
        return box
    center = as_fraction(base_point[direction])
    return Box(box.intervals + ((direction, center - DIRECTION_HALF_WIDTH,
                                 center + DIRECTION_HALF_WIDTH),))
