"""Shared helpers: seeded random expression trees and rational points,
and a recorder of field evaluations."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

from dist235.scalar import Const, Opaque, Pow, Prod, Sum, Var
from dist235.vecfield import VectorField


def random_rational(rng: random.Random, span: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_tree(rng: random.Random, variables, depth: int = 4,
                allow_quotients: bool = False, opaques=()):
    """A random expression tree; polynomial unless allow_quotients."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Const(random_rational(rng))
        if opaques and rng.random() < 0.2:
            name = rng.choice(list(opaques))
            return Opaque(name, Var(rng.choice(list(variables))))
        return Var(rng.choice(list(variables)))
    kind = rng.random()
    if kind < 0.4:
        n = rng.randint(2, 3)
        return Sum(tuple(random_tree(rng, variables, depth - 1,
                                     allow_quotients, opaques)
                         for _ in range(n)))
    if kind < 0.8:
        n = rng.randint(2, 3)
        return Prod(tuple(random_tree(rng, variables, depth - 1,
                                      allow_quotients, opaques)
                          for _ in range(n)))
    lo = -2 if allow_quotients else 0
    exponent = rng.randint(lo, 3)
    return Pow(random_tree(rng, variables, depth - 1,
                           allow_quotients, opaques), exponent)


def random_point(rng: random.Random, variables, span=Fraction(1, 2),
                 grid: int = 64) -> dict:
    return {v: span * Fraction(rng.randint(-grid, grid), grid)
            for v in variables}


def record_evaluations(monkeypatch) -> list:
    """Patch `VectorField.evaluate_at` to append (field, point items) for
    every evaluation to the returned list (which keeps each field alive,
    so no id is reused while it is read)."""
    calls = []
    original = VectorField.evaluate_at

    def recording(self, point, registry=None):
        calls.append((self, tuple(sorted(point.items()))))
        return original(self, point, registry)

    monkeypatch.setattr(VectorField, "evaluate_at", recording)
    return calls


def repeated_evaluations(calls) -> list:
    """The (field name, point) pairs evaluated more than once."""
    counts = Counter((id(f), pt) for f, pt in calls)
    names = {id(f): f.name for f, _ in calls}
    return [(names[key], pt) for (key, pt), n in counts.items() if n > 1]
