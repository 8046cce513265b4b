"""Shared helpers: seeded random expression trees and rational points,
a recorder of field evaluations, and the `Fraction` normal-form builder
kept as the reference of the integer one."""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from fractions import Fraction

from dist235 import scalar
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


def random_nf_tree(rng: random.Random, variables, opaques=(),
                   depth: int = 4):
    """A random tree for normal-form gates: rational constants (zero
    included), `variables`, opaque applications whose arguments are
    random trees themselves, integer powers from -2 to 3, and now and
    then a negative power of an identically zero sum."""
    if depth <= 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.3:
            return Const(random_rational(rng))
        if opaques and roll < 0.45:
            return Opaque(rng.choice(list(opaques)),
                          random_nf_tree(rng, variables, opaques,
                                         min(depth, 2) - 1))
        return Var(rng.choice(list(variables)))
    kind = rng.random()
    children = [random_nf_tree(rng, variables, opaques, depth - 1)
                for _ in range(rng.randint(2, 3))]
    if kind < 0.35:
        return Sum(tuple(children))
    if kind < 0.7:
        return Prod(tuple(children))
    if kind < 0.75:
        return Pow(Sum((children[0], -children[0])), -1)
    return Pow(children[0], rng.randint(-2, 3))


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


# ---------------------------------------------------------------------------
# reference normal form
#
# The builder `scalar._normal_form` had before polynomials became integer
# pairs with packed monomials: a polynomial is a dict {monomial:
# Fraction}, a monomial a sorted tuple of (atom key, exponent) pairs.
# The integer builder must return an equal `_NormalForm`, or raise the
# same error with the same message.

_POLY_ONE = {(): Fraction(1)}


def _poly_add(a, b):
    out = dict(a)
    for mono, coeff in b.items():
        s = out.get(mono, Fraction(0)) + coeff
        if s == 0:
            out.pop(mono, None)
        else:
            out[mono] = s
    return out


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for atom, exp in m2:
        merged[atom] = merged.get(atom, 0) + exp
    return tuple(sorted(merged.items()))


def _poly_mul(a, b):
    if not a or not b:
        return {}
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = _mono_mul(m1, m2)
            s = out.get(mono, Fraction(0)) + c1 * c2
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
    return out


def _poly_pow(a, k: int):
    result = dict(_POLY_ONE)
    base = a
    while True:
        if k & 1:
            result = _poly_mul(result, base)
        k >>= 1
        if not k:
            return result
        base = _poly_mul(base, base)


def _mono_cmp(a, b) -> int:
    # graded lex: higher total degree first, then higher power of the
    # earliest atom (in chart declaration order)
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return 1 if da > db else -1
    ia = ib = 0
    while ia < len(a) or ib < len(b):
        atom_a = a[ia][0] if ia < len(a) else None
        atom_b = b[ib][0] if ib < len(b) else None
        if atom_a == atom_b:
            ea, eb = a[ia][1], b[ib][1]
            if ea != eb:
                return 1 if ea > eb else -1
            ia += 1
            ib += 1
        elif atom_b is None or (atom_a is not None and atom_a < atom_b):
            return 1
        else:
            return -1
    return 0


_mono_sort_key = functools.cmp_to_key(_mono_cmp)


def _sorted_poly(poly):
    return tuple(sorted(poly.items(), key=lambda item: _mono_sort_key(item[0]),
                        reverse=True))


class _ReferenceBuilder:
    def __init__(self, chart, strict_chart: bool):
        self.chart = list(chart) if chart is not None else None
        self.strict = strict_chart and chart is not None
        self.atom_exprs = {}

    def var_atom(self, name: str):
        if self.chart is not None and name in self.chart:
            idx = self.chart.index(name)
        elif self.strict:
            raise scalar.UndeclaredVariableError(name)
        else:
            idx = scalar._NO_CHART_INDEX
        key = (0, idx, name)
        self.atom_exprs.setdefault(key, Var(name))
        return key

    def opaque_atom(self, name: str, arg):
        num, den = self.visit(arg)
        canon_arg = scalar._quotient_tree(_sorted_poly(num), _sorted_poly(den),
                                          self.atom_exprs)
        key = (1, name, scalar.to_text(canon_arg))
        self.atom_exprs.setdefault(key, Opaque(name, canon_arg))
        return key

    def visit(self, expr):
        if isinstance(expr, Const):
            return ({(): expr.value} if expr.value != 0 else {},
                    dict(_POLY_ONE))
        if isinstance(expr, Var):
            atom = self.var_atom(expr.name)
            return {((atom, 1),): Fraction(1)}, dict(_POLY_ONE)
        if isinstance(expr, Opaque):
            atom = self.opaque_atom(expr.name, expr.arg)
            return {((atom, 1),): Fraction(1)}, dict(_POLY_ONE)
        if isinstance(expr, Sum):
            num, den = {}, dict(_POLY_ONE)
            for t in expr.terms:
                tn, td = self.visit(t)
                if td == den:
                    num = _poly_add(num, tn)
                else:
                    num = _poly_add(_poly_mul(num, td), _poly_mul(tn, den))
                    den = _poly_mul(den, td)
            return num, den
        if isinstance(expr, Prod):
            num, den = dict(_POLY_ONE), dict(_POLY_ONE)
            for f in expr.factors:
                fn, fd = self.visit(f)
                num = _poly_mul(num, fn)
                den = _poly_mul(den, fd)
            return num, den
        if isinstance(expr, Pow):
            bn, bd = self.visit(expr.base)
            k = expr.exponent
            if k >= 0:
                return _poly_pow(bn, k), _poly_pow(bd, k)
            if not bn:
                raise scalar.ZeroDenominatorError(
                    "negative power of an identically zero base")
            return _poly_pow(bd, -k), _poly_pow(bn, -k)
        raise TypeError(f"not a scalar expression: {expr!r}")


def _content_normalize(num, den):
    if not den:
        raise scalar.ZeroDenominatorError("denominator normalizes to zero")
    if not num:
        return {}, dict(_POLY_ONE)
    lcm = 1
    for c in list(num.values()) + list(den.values()):
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    gcd = 0
    for c in list(num.values()) + list(den.values()):
        gcd = math.gcd(gcd, abs(int(c * lcm)))
    scale = Fraction(lcm, gcd)
    num = {m: c * scale for m, c in num.items()}
    den = {m: c * scale for m, c in den.items()}
    if den[max(den, key=_mono_sort_key)] < 0:
        num = {m: -c for m, c in num.items()}
        den = {m: -c for m, c in den.items()}
    return num, den


def reference_normal_form(expr, chart_key, strict: bool):
    """The `_NormalForm` of `expr`, built in `Fraction` arithmetic."""
    builder = _ReferenceBuilder(chart_key, strict)
    num, den = _content_normalize(*builder.visit(expr))
    return scalar._NormalForm(_sorted_poly(num), _sorted_poly(den),
                              tuple(sorted(builder.atom_exprs.items())))


def normal_form_outcome(build, expr, chart_key, strict: bool):
    """What `build` gives for expr: its normal form, or the type and
    message of the error it raises."""
    try:
        return build(expr, chart_key, strict)
    except (scalar.ExprError, TypeError) as exc:
        return type(exc), str(exc)
