"""Shared helpers: seeded random expression trees and rational points,
vector fields from texts, a recorder of field evaluations, small
oracles the program itself does not need (among them the tree folds
of a bracket and of a decomposition, the references of the folds on
records), and the `Fraction` normal-form builder kept as the reference
of the integer one."""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import random
import signal
from collections import Counter
from fractions import Fraction

from dist235 import linalg, scalar, vecfield
from dist235.scalar import Const, Opaque, Pow, Prod, Sum, Var
from dist235.vecfield import Frame, VectorField


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


def normalized_pieces(rng: random.Random, count: int, charts, variables,
                      opaques=()) -> list:
    """`count` outputs of `normalize` under charts drawn from `charts`,
    and now and then the derivative of one, with opaque atoms, variables
    outside the chart and atom roots among them.  The charts' registry
    holds the opaques."""
    pieces = []
    while len(pieces) < count:
        chart = rng.choice(charts)
        tree = random_nf_tree(rng, variables, opaques, depth=2)
        try:
            piece = scalar.normalize(tree, chart)
            if chart.variables and rng.random() < 0.3:
                piece = scalar.differentiate(
                    piece, rng.choice(chart.variables), chart)
        except scalar.ZeroDenominatorError:
            continue
        pieces.append(piece)
    return pieces


def random_tree_with_pieces(rng: random.Random, variables, pieces,
                            opaques=(), depth: int = 2):
    """A random tree over `pieces` (see `normalized_pieces`), fresh
    subtrees of `random_nf_tree`, and opaque applications whose
    arguments are either, nested."""
    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.5:
            return rng.choice(pieces)
        if opaques and roll < 0.7:
            arg = (rng.choice(pieces) if rng.random() < 0.5 else
                   random_tree_with_pieces(rng, variables, pieces, opaques,
                                           min(depth, 2) - 1))
            return Opaque(rng.choice(list(opaques)), arg)
        return random_nf_tree(rng, variables, opaques, depth=1)
    children = [random_tree_with_pieces(rng, variables, pieces, opaques,
                                        depth - 1)
                for _ in range(rng.randint(2, 3))]
    kind = rng.random()
    if kind < 0.4:
        return Sum(tuple(children))
    if kind < 0.8:
        return Prod(tuple(children))
    return Pow(children[0], rng.randint(-2, 2))


# a variable u no chart of the tests declares, only inside an argument
# of the opaque F (see `identity_registry`), only in a denominator, or
# present but cancelled
HIDDEN_OFF_CHART = ("x1 + F(u)", "x2/(1 + u)", "F(x1*u^2)/x3", "x4 + u - u")


def identity_registry() -> scalar.OpaqueRegistry:
    """A registry with the opaque F, evaluated as the identity."""
    registry = scalar.OpaqueRegistry()
    registry.register("F", lambda u: u, "F")
    return registry


def count_calls(monkeypatch, owner, name: str) -> list:
    """Patch owner.name to append the positional arguments of each call
    to the returned list."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@contextlib.contextmanager
def time_budget(seconds: float):
    """Raise `TimeoutError` inside the block once `seconds` of wall time
    have passed, so that a hang fails its test instead of stalling the
    suite (SIGALRM: the main thread only)."""
    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds:g} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def random_point(rng: random.Random, variables, span=Fraction(1, 2),
                 grid: int = 64) -> dict:
    return {v: span * Fraction(rng.randint(-grid, grid), grid)
            for v in variables}


def random_box_points(box, count: int, rng: random.Random,
                      grid: int = 4096) -> list:
    """Seeded random rational points on a uniform grid in the box."""
    return [{name: lo + (hi - lo) * Fraction(rng.randint(0, grid), grid)
             for name, lo, hi in box.intervals}
            for _ in range(count)]


def text_field(chart, texts, name: str = "") -> VectorField:
    """The vector field on `chart` whose components are parsed from
    `texts`, with the opaques of the chart's registry."""
    return VectorField(chart, tuple(
        scalar.parse_expr(text, chart.variables, chart.registry)
        for text in texts), name)


def on_fresh_charts(value, charts=None):
    """`value` with every `Chart`, `VectorField` and `Frame` in it (in
    tuples and lists too) rebuilt on a fresh `Chart` of the same names and
    registry: one per chart, which starts a memo of its own, so nothing
    computed on the old chart is hit."""
    if charts is None:
        charts = {}
    if isinstance(value, vecfield.Chart):
        if value not in charts:
            charts[value] = vecfield.Chart(value.variables, value.registry)
        return charts[value]
    if isinstance(value, VectorField):
        return VectorField(on_fresh_charts(value.chart, charts),
                           value.components, value.name)
    if isinstance(value, Frame):
        return Frame(on_fresh_charts(value.chart, charts),
                     on_fresh_charts(value.fields, charts),
                     value.base_point)
    if isinstance(value, (tuple, list)):
        return type(value)(on_fresh_charts(item, charts) for item in value)
    return value


# ---------------------------------------------------------------------------
# oracles

def apply_to(field: VectorField, f):
    """Directional derivative of the scalar f along the field."""
    chart = field.chart
    return scalar.normalize(
        Sum(tuple(Prod((comp, scalar.differentiate(f, var, chart)))
                  for var, comp in zip(chart.variables, field.components))),
        chart)


def zero_field(chart) -> VectorField:
    return VectorField(chart, tuple(Const(Fraction(0))
                                    for _ in range(chart.dimension)))


def full_frame(dist) -> Frame:
    """The frame (eta1, ..., eta5) of a `Distribution235` at its base
    point."""
    return Frame(dist.chart,
                 (dist.eta1, dist.eta2, dist.eta3, dist.eta4, dist.eta5),
                 dist.base_point)


def tree_bracket(chart, v, w) -> VectorField:
    """`vecfield._bracket` by the tree fold: each component is the
    normal form of the tree sum_i v^i d(w^j) + (-1) w^i d(v^j), built
    from the printed derivatives.  The reference of the fold on
    records."""
    comps = []
    for j in range(chart.dimension):
        terms = []
        for i, var in enumerate(chart.variables):
            terms.append(Prod((v[i], scalar.differentiate(w[j], var, chart))))
            terms.append(Prod((scalar.MINUS_ONE, w[i],
                               scalar.differentiate(v[j], var, chart))))
        comps.append(scalar.normalize(Sum(tuple(terms)), chart))
    return VectorField(chart, tuple(comps))


def tree_exterior_derivative(alpha) -> vecfield.TwoForm:
    """`vecfield.exterior_derivative` by the tree fold: each coefficient
    is the normal form of the tree da_j/dx_i + (-1) da_i/dx_j of the
    printed derivatives.  The reference of the fold on records."""
    chart = alpha.chart
    comps = {}
    for i in range(chart.dimension):
        for j in range(i + 1, chart.dimension):
            c = scalar.normalize(Sum((
                scalar.differentiate(alpha.components[j],
                                     chart.variables[i], chart),
                Prod((scalar.MINUS_ONE, scalar.differentiate(
                    alpha.components[i], chart.variables[j], chart))))),
                chart)
            if c != scalar.ZERO:
                comps[(i, j)] = scalar._normal_form(c, chart)
    return vecfield.TwoForm(chart, comps)


def tree_coefficient(form, i: int, j: int):
    """`vecfield.TwoForm.coefficient` by the tree fold: below the
    diagonal, the normal form of the tree (-1) c_ji."""
    if i <= j:
        return form.coefficient(i, j).tree
    return scalar.normalize(Prod((scalar.MINUS_ONE,
                                  form.coefficient(j, i).tree)), form.chart)


def tree_pair(form, v, w=None):
    """`vecfield.pair` by the tree fold: the normal form of the tree
    sum_i a_i v^i, or of sum_{i<j} c_ij (v^i w^j + (-1) v^j w^i)."""
    if w is None:
        return scalar.normalize(Sum(tuple(
            Prod((a, c)) for a, c in zip(form.components, v.components))),
            form.chart)
    return scalar.normalize(Sum(tuple(
        Prod((c, Sum((Prod((v.components[i], w.components[j])),
                      Prod((scalar.MINUS_ONE, v.components[j],
                            w.components[i]))))))
        for (i, j), c in sorted(
            (ij, nf.tree) for ij, nf in form.records.items()))),
        form.chart)


def full_width_decompose(targets, basis, base_point):
    """`vecfield.symbolic_decompose` by the full-width Gauss-Jordan loop:
    every step scales and eliminates every column, those no later step
    reads included.  The reference of the live-column elimination."""
    chart = targets[0].chart
    n = chart.dimension
    columns = tuple(basis) + tuple(targets)
    width = len(columns)
    rows = [[scalar.normalize(f.components[i], chart) for f in columns]
            for i in range(n)]
    pivot_of_col = {}
    free = list(range(n))
    for col in range(n):
        pick = linalg.largest_nonzero(
            [scalar.evaluate(rows[r][col], base_point, chart.registry)
             for r in free])
        best_row = free.pop(pick)
        pivot_of_col[col] = best_row
        inv = Pow(rows[best_row][col], -1)
        rows[best_row] = [scalar.normalize(Prod((entry, inv)), chart)
                          for entry in rows[best_row]]
        for r in range(n):
            if r == best_row:
                continue
            factor = rows[r][col]
            if isinstance(factor, Const) and factor.value == 0:
                continue
            rows[r] = [scalar.normalize(
                Sum((rows[r][j],
                     Prod((scalar.MINUS_ONE, factor, rows[best_row][j])))),
                chart) for j in range(width)]
    return tuple(tuple(rows[pivot_of_col[col]][j] for col in range(n))
                 for j in range(n, width))


def every_bracket_flag(generators: Frame, box=None, samples: int = 16
                       ) -> vecfield.DistributionFlag:
    """`vecfield.derived_flag` by the loop that brackets every generator
    with every frame field to the end of each pass, and ranks every frame
    at every sample point.  The reference of the flag that skips self,
    mirror and surplus brackets and full-rank prefixes."""
    chart = generators.chart
    base = generators.base_point
    at_base = vecfield.PointValues(base)
    frames = [generators]
    growth = [generators.rank]
    while frames[-1].rank < chart.dimension:
        current = frames[-1]
        extended = list(current.fields)
        for gen in generators.fields:
            for fld in current.fields:
                b = vecfield.lie_bracket(gen, fld)
                if all(c == scalar.ZERO for c in b.components):
                    continue
                if at_base.rank(extended + [b]) > len(extended):
                    extended.append(b)
        if len(extended) == current.rank:
            break
        frames.append(Frame(chart, tuple(extended), base, at_base))
        growth.append(len(extended))
    constant_rank = True
    witnesses = []
    if box is not None:
        top = frames[-1]
        candidates = tuple(vecfield.lie_bracket(gen, fld)
                           for gen in generators.fields
                           for fld in top.fields
                           if top.rank < chart.dimension)
        for pt in box.sample_points(samples):
            at = vecfield.PointValues(pt)
            for k, fr in enumerate(frames):
                r = at.rank(fr.fields)
                if r != fr.rank:
                    constant_rank = False
                    witnesses.append((k, tuple(sorted(pt.items())), r))
            if candidates:
                r = at.rank(top.fields + candidates)
                if r != top.rank:
                    constant_rank = False
                    witnesses.append((len(frames) - 1,
                                      tuple(sorted(pt.items())), r))
    return vecfield.DistributionFlag(tuple(frames), tuple(growth),
                                     constant_rank, tuple(witnesses))


def contact_volume(alpha, point: dict):
    """Value of the 5-form alpha ^ d(alpha) ^ d(alpha) on the coordinate
    frame at a point of a 5-dimensional chart."""
    chart = alpha.chart
    if chart.dimension != 5:
        raise vecfield.ChartError(
            "contact check needs a 5-dimensional chart")
    d = vecfield.exterior_derivative(alpha)
    registry = chart.registry
    a_vals = [scalar.evaluate(c, point, registry) for c in alpha.components]
    d_vals = {}
    for i in range(5):
        for j in range(5):
            d_vals[(i, j)] = scalar.evaluate(d.coefficient(i, j).tree, point,
                                             registry)
    total = 0
    indices = range(5)
    for one in indices:
        rest = [i for i in indices if i != one]
        for pair_1 in itertools.combinations(rest, 2):
            pair_2 = tuple(i for i in rest if i not in pair_1)
            perm = (one,) + pair_1 + pair_2
            total += (_perm_sign(perm) * a_vals[one]
                      * d_vals[pair_1] * d_vals[pair_2])
    return total


def _perm_sign(perm) -> int:
    sign = 1
    p = list(perm)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


def end_point(trace) -> dict:
    """The last state of a `FlowTrace`, by coordinate name."""
    return dict(zip(trace.chart.variables, map(float, trace.states[-1])))


def record_evaluations(monkeypatch) -> list:
    """Patch `VectorField.evaluate_at` to append (field, point items) for
    every evaluation to the returned list (which keeps each field alive,
    so no id is reused while it is read)."""
    calls = []
    original = VectorField.evaluate_at

    def recording(self, point):
        calls.append((self, tuple(sorted(point.items()))))
        return original(self, point)

    monkeypatch.setattr(VectorField, "evaluate_at", recording)
    return calls


def repeated_evaluations(calls) -> list:
    """The (field name, point) pairs at which a field, or one equal to
    it (the same registry and components), was evaluated more than
    once."""
    counts = Counter(((f.chart.registry, f.components), pt)
                     for f, pt in calls)
    names = {(f.chart.registry, f.components): f.name for f, _ in calls}
    return [(names[key], pt) for (key, pt), n in counts.items() if n > 1]


# ---------------------------------------------------------------------------
# reference normal form
#
# The builder `scalar._normal_form` had before polynomials became integer
# pairs with packed monomials: a polynomial is a dict {monomial:
# Fraction}, a monomial a sorted tuple of (atom key, exponent) pairs.
# The integer builder must return a `_NormalForm` with the same terms in
# the same print order and the same term atoms (`normal_form_terms`), or
# raise the same error with the same message.

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
    def __init__(self, chart):
        self.names = list(chart.variables)
        self.atom_exprs = {}

    def var_atom(self, name: str):
        if name in self.names:
            idx = self.names.index(name)
        else:
            idx = scalar._NO_CHART_INDEX
        key = (0, idx, name)
        self.atom_exprs.setdefault(key, Var(name))
        return key

    def opaque_atom(self, name: str, arg):
        num, den = self.visit(arg)
        # scalar's printer reads monomials packed over numbered atoms
        atoms = tuple((key, i * scalar._EXP_BITS, expr) for i, (key, expr)
                      in enumerate(sorted(self.atom_exprs.items())))
        offsets = {key: offset for key, offset, _ in atoms}

        def packed(poly):
            terms = [(sum(e << offsets[atom] for atom, e in mono), c)
                     for mono, c in _sorted_poly(poly)]
            return (dict(terms), 1), [m for m, _ in terms]

        (pnum, num_order), (pden, den_order) = packed(num), packed(den)
        canon_arg = scalar._quotient_tree(pnum, pden, (num_order, den_order),
                                          atoms)
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


def reference_normal_form(expr, chart):
    """The numerator and denominator terms of `expr` on `chart`, built in
    `Fraction` arithmetic, and the atoms ((atom key, expr), ...) of those
    terms."""
    builder = _ReferenceBuilder(chart)
    num, den = _content_normalize(*builder.visit(expr))
    used = {atom for poly in (num, den) for mono in poly for atom, _ in mono}
    return (_sorted_poly(num), _sorted_poly(den),
            tuple(sorted((key, expr) for key, expr in builder.atom_exprs.items()
                         if key in used)))


def normal_form_terms(nf):
    """A `scalar._NormalForm` in the shape `reference_normal_form` gives,
    its terms in the record's print order."""
    def terms(poly, order):
        return tuple(
            (tuple((key, e) for (key, _, _), e
                   in zip(nf.atoms, scalar._exponents(m, nf.atoms)) if e),
             Fraction(poly[m]))
            for m in order)

    num_order, den_order = nf.order
    return (terms(nf.num, num_order), terms(nf.den, den_order),
            tuple((key, expr) for key, _, expr in nf.atoms))


def integer_normal_form(expr, chart):
    """`normal_form_terms` of what `scalar._normal_form` builds for expr
    on `chart`, bypassing its memo."""
    return normal_form_terms(scalar._normal_form.__wrapped__(expr, chart))


def normal_form_outcome(build, expr, chart):
    """What `build` gives for expr on `chart`: its normal form, or the
    type and message of the error it raises."""
    try:
        return build(expr, chart)
    except (scalar.ExprError, TypeError) as exc:
        return type(exc), str(exc)
