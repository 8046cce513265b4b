"""Vector fields, frames, derived flags, and differential forms on charts.

All coefficient arithmetic is symbolic through the scalar engine; rank
and membership decisions happen pointwise, exactly at rational points.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .boxes import Box, as_fraction
from .scalar import (
    Const, OpaqueRegistry, Pow, Prod, ScalarExpr, Sum, default_registry,
    differentiate, evaluate, free_variables, normalize, parse_expr, to_text,
)

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class ChartError(Exception):
    pass


class ChartMismatchError(ChartError):
    pass


class DegenerateFrameError(Exception):
    pass


@dataclass(frozen=True)
class Chart:
    """An ordered tuple of coordinate names; the order fixes the monomial
    order of every normal form computed on the chart."""

    variables: tuple

    def __post_init__(self):
        names = tuple(self.variables)
        object.__setattr__(self, "variables", names)
        seen = set()
        for name in names:
            if not _IDENT.match(name):
                raise ChartError(f"bad coordinate name {name!r}")
            if name in seen:
                raise ChartError(f"duplicate coordinate {name!r}")
            seen.add(name)

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ChartError(f"{name!r} is not a coordinate of this chart")

    def extend(self, *names: str) -> "Chart":
        return Chart(self.variables + tuple(names))

    def point(self, *values) -> dict:
        if len(values) != len(self.variables):
            raise ChartError("wrong number of coordinate values")
        return {name: as_fraction(v) if not isinstance(v, float) else v
                for name, v in zip(self.variables, values)}

    def origin(self) -> dict:
        return {name: Fraction(0) for name in self.variables}

    def parse(self, text: str, registry: Optional[OpaqueRegistry] = None
              ) -> ScalarExpr:
        return parse_expr(text, self.variables, registry)


def _check_components(chart: Chart, components) -> tuple:
    comps = tuple(components)
    if len(comps) != chart.dimension:
        raise ChartError(
            f"expected {chart.dimension} components, got {len(comps)}")
    for c in comps:
        if not isinstance(c, ScalarExpr):
            raise TypeError(f"component {c!r} is not a scalar expression")
        extra = free_variables(c) - set(chart.variables)
        if extra:
            raise ChartError(
                f"components use undeclared variables {sorted(extra)}")
    return comps


@dataclass(frozen=True)
class VectorField:
    chart: Chart
    components: tuple
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "components",
                           _check_components(self.chart, self.components))

    def evaluate_at(self, point: dict,
                    registry: Optional[OpaqueRegistry] = None) -> list:
        return [evaluate(c, point, registry) for c in self.components]

    def apply_to(self, f: ScalarExpr,
                 registry: Optional[OpaqueRegistry] = None) -> ScalarExpr:
        """Directional derivative of a scalar along this field."""
        terms = []
        for var, comp in zip(self.chart.variables, self.components):
            terms.append(Prod((comp, differentiate(f, var, self.chart.variables,
                                                   registry))))
        return normalize(Sum(tuple(terms)), self.chart.variables)

    def normalized(self) -> "VectorField":
        comps = tuple(normalize(c, self.chart.variables)
                      for c in self.components)
        return VectorField(self.chart, comps, self.name)

    def lifted(self, chart: Chart) -> "VectorField":
        """The same field on an extended chart (zero new components)."""
        n = self.chart.dimension
        if chart.variables[:n] != self.chart.variables:
            raise ChartMismatchError(
                "target chart does not extend this field's chart")
        pad = tuple(Const(Fraction(0))
                    for _ in range(chart.dimension - n))
        return VectorField(chart, self.components + pad, self.name)

    def renamed(self, name: str) -> "VectorField":
        return VectorField(self.chart, self.components, name)

    def __add__(self, other: "VectorField") -> "VectorField":
        if self.chart != other.chart:
            raise ChartMismatchError("cannot add fields on different charts")
        comps = tuple(Sum((a, b))
                      for a, b in zip(self.components, other.components))
        return VectorField(self.chart, comps)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (other * Const(Fraction(-1)))

    def __mul__(self, factor) -> "VectorField":
        if not isinstance(factor, ScalarExpr):
            factor = Const(as_fraction(factor))
        comps = tuple(Prod((factor, c)) for c in self.components)
        return VectorField(self.chart, comps)

    __rmul__ = __mul__

    def __str__(self):
        parts = []
        for var, comp in zip(self.chart.variables, self.components):
            text = to_text(comp)
            if text != "0":
                parts.append(f"({text})*d/d{var}")
        return " + ".join(parts) if parts else "0"


def coordinate_field(chart: Chart, name: str) -> VectorField:
    i = chart.index(name)
    comps = tuple(Const(Fraction(1 if j == i else 0))
                  for j in range(chart.dimension))
    return VectorField(chart, comps, name=f"d/d{name}")


def zero_field(chart: Chart) -> VectorField:
    return VectorField(chart, tuple(Const(Fraction(0))
                                    for _ in range(chart.dimension)))


def field_from_strings(chart: Chart, texts: Sequence[str],
                       registry: Optional[OpaqueRegistry] = None,
                       name: str = "") -> VectorField:
    return VectorField(chart, tuple(chart.parse(t, registry) for t in texts),
                       name)


def lie_bracket(v: VectorField, w: VectorField,
                registry: Optional[OpaqueRegistry] = None) -> VectorField:
    """[v, w]^j = sum_i v^i d(w^j)/dx_i - w^i d(v^j)/dx_i, normalized."""
    if v.chart != w.chart:
        raise ChartMismatchError("bracket of fields on different charts")
    chart_vars = v.chart.variables
    comps = []
    for j in range(v.chart.dimension):
        terms = []
        for i, var in enumerate(chart_vars):
            terms.append(Prod((v.components[i],
                               differentiate(w.components[j], var,
                                             chart_vars, registry))))
            terms.append(Prod((Const(Fraction(-1)), w.components[i],
                               differentiate(v.components[j], var,
                                             chart_vars, registry))))
        comps.append(normalize(Sum(tuple(terms)), chart_vars))
    return VectorField(v.chart, tuple(comps))


def rank_at(fields: Sequence[VectorField], point: dict,
            rtol: float = linalg.FLOAT_RTOL,
            registry: Optional[OpaqueRegistry] = None) -> int:
    rows = [f.evaluate_at(point, registry) for f in fields]
    return linalg.matrix_rank(rows, rtol)


@dataclass(frozen=True)
class Frame:
    """An ordered list of fields required to be independent at the base
    point."""

    chart: Chart
    fields: tuple
    base_point: dict = field(compare=False)
    registry: Optional[OpaqueRegistry] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(self.fields))
        for f in self.fields:
            if f.chart != self.chart:
                raise ChartMismatchError("frame fields live on another chart")
        r = rank_at(self.fields, self.base_point, registry=self.registry)
        if r != len(self.fields):
            raise DegenerateFrameError(
                f"frame fields have rank {r} < {len(self.fields)} at the "
                f"base point")

    @property
    def rank(self) -> int:
        return len(self.fields)

    def matrix_at(self, point: dict,
                  registry: Optional[OpaqueRegistry] = None) -> list:
        reg = registry if registry is not None else self.registry
        return [f.evaluate_at(point, reg) for f in self.fields]

    def extended(self, *extra: VectorField) -> "Frame":
        return Frame(self.chart, self.fields + tuple(extra), self.base_point,
                     self.registry)


@dataclass(frozen=True)
class ReduceResult:
    member: bool
    coefficients: Optional[tuple]
    residual: tuple

    def __bool__(self):
        return self.member


def reduce_mod(v: VectorField, frame: Frame, point: dict,
               rtol: float = linalg.FLOAT_RTOL,
               registry: Optional[OpaqueRegistry] = None) -> ReduceResult:
    """Decompose v(point) over the frame: member with coefficients, or a
    nonzero residual vector."""
    if v.chart != frame.chart:
        raise ChartMismatchError("field and frame on different charts")
    reg = registry if registry is not None else frame.registry
    columns = frame.matrix_at(point, reg)
    b = v.evaluate_at(point, reg)
    coeffs, residual = linalg.solve_membership(columns, b, rtol)
    ok = linalg.residual_is_zero(residual, b, rtol)
    return ReduceResult(ok, tuple(coeffs) if ok else None, tuple(residual))


def symbolic_decompose(v: VectorField, basis: Sequence[VectorField],
                       base_point: dict,
                       registry: Optional[OpaqueRegistry] = None) -> tuple:
    """Coefficient expressions c_i with v = sum_i c_i * basis_i, obtained by
    symbolic Gaussian elimination.

    The basis must be square (as many fields as chart dimensions) and
    invertible at the base point; each pivot is the remaining entry of
    largest magnitude there, so every denominator introduced along the way
    is nonzero at the base point and the result is valid on a neighbourhood
    of it.
    """
    if registry is None:
        registry = default_registry()
    chart = v.chart
    n = chart.dimension
    if len(basis) != n:
        raise DegenerateFrameError(
            "symbolic decomposition needs a square basis "
            f"({len(basis)} fields on a {n}-dimensional chart)")
    for b in basis:
        if b.chart != chart:
            raise ChartMismatchError("basis field on a different chart")
    variables = chart.variables
    # Augmented rows: one per chart component, columns follow the basis
    # order with the target field appended.
    rows = [[normalize(b.components[i], variables) for b in basis]
            + [normalize(v.components[i], variables)]
            for i in range(n)]
    pivot_of_col = {}
    used_rows = set()
    for col in range(n):
        best_row, best_mag = None, 0.0
        for r in range(n):
            if r in used_rows:
                continue
            val = evaluate(rows[r][col], base_point, registry)
            mag = abs(float(val))
            if mag > best_mag:
                best_row, best_mag = r, mag
        if best_row is None or best_mag <= 1e-12:
            raise DegenerateFrameError(
                "basis degenerates at the base point "
                f"(no usable pivot in column {col})")
        used_rows.add(best_row)
        pivot_of_col[col] = best_row
        pivot = rows[best_row][col]
        inv = Pow(pivot, -1)
        rows[best_row] = [normalize(Prod((entry, inv)), variables)
                          for entry in rows[best_row]]
        for r in range(n):
            if r == best_row:
                continue
            factor = rows[r][col]
            if isinstance(factor, Const) and factor.value == 0:
                continue
            rows[r] = [normalize(
                Sum((rows[r][j],
                     Prod((Const(Fraction(-1)), factor, rows[best_row][j])))),
                variables) for j in range(n + 1)]
    return tuple(rows[pivot_of_col[col]][n] for col in range(n))


@dataclass(frozen=True)
class DistributionFlag:
    """Weak derived flag of a generating frame: frames of increasing rank,
    the growth vector, and whether ranks were constant on the sampled box."""

    frames: tuple
    growth: tuple
    stabilized: bool
    constant_rank: bool
    rank_witnesses: tuple = ()

    @property
    def top(self) -> Frame:
        return self.frames[-1]

    def frame(self, depth: int) -> Frame:
        return self.frames[depth]


def derived_flag(generators: Frame, max_depth: int = 8,
                 box: Optional[Box] = None, samples: int = 16,
                 registry: Optional[OpaqueRegistry] = None) -> DistributionFlag:
    """Iterate F_{i+1} = F_i + [F_0, F_i] until the rank stabilizes or
    fills the chart, extending frames in deterministic bracket order."""
    if registry is None:
        registry = generators.registry
    chart = generators.chart
    base = generators.base_point
    frames = [generators]
    growth = [generators.rank]
    bracket_cache = {}
    stabilized = False
    depth = 0
    while depth < max_depth:
        current = frames[-1]
        extended = list(current.fields)
        grew = False
        for i, gen in enumerate(generators.fields):
            for fld in current.fields:
                key = (i, fld)
                if key not in bracket_cache:
                    bracket_cache[key] = lie_bracket(gen, fld, registry)
                b = bracket_cache[key]
                if all(c == Const(Fraction(0)) for c in b.components):
                    continue
                if rank_at(extended + [b], base, registry=registry) \
                        > len(extended):
                    extended.append(b)
                    grew = True
        if not grew:
            stabilized = True
            break
        frames.append(Frame(chart, tuple(extended), base, registry))
        growth.append(len(extended))
        depth += 1
        if len(extended) == chart.dimension:
            # the next pass could not grow past the chart dimension
            stabilized = True
            break
    constant_rank = True
    witnesses = []
    if box is not None:
        top = frames[-1]
        candidates = []
        if stabilized and top.rank < chart.dimension:
            # brackets that failed to grow the span at the base point must
            # keep failing on the box, else the growth is not constant
            for i, gen in enumerate(generators.fields):
                for fld in top.fields:
                    key = (i, fld)
                    if key not in bracket_cache:
                        bracket_cache[key] = lie_bracket(gen, fld, registry)
                    candidates.append(bracket_cache[key])
        for pt in box.sample_points(samples):
            for k, fr in enumerate(frames):
                r = rank_at(fr.fields, pt, registry=registry)
                if r != fr.rank:
                    constant_rank = False
                    witnesses.append((k, tuple(sorted(pt.items())), r))
            if candidates:
                r = rank_at(list(top.fields) + candidates, pt,
                            registry=registry)
                if r != top.rank:
                    constant_rank = False
                    witnesses.append((len(frames) - 1,
                                      tuple(sorted(pt.items())), r))
    return DistributionFlag(tuple(frames), tuple(growth), stabilized,
                            constant_rank, tuple(witnesses))


# ---------------------------------------------------------------------------
# differential forms

@dataclass(frozen=True)
class OneForm:
    chart: Chart
    components: tuple  # coefficient of dx_i per chart variable

    def __post_init__(self):
        object.__setattr__(self, "components",
                           _check_components(self.chart, self.components))

    def __call__(self, v: VectorField) -> ScalarExpr:
        return pair(self, v)


@dataclass(frozen=True)
class TwoForm:
    chart: Chart
    components: dict  # (i, j) with i < j -> coefficient of dx_i ^ dx_j

    def coefficient(self, i: int, j: int) -> ScalarExpr:
        if i == j:
            return Const(Fraction(0))
        if i < j:
            return self.components.get((i, j), Const(Fraction(0)))
        flipped = self.components.get((j, i), Const(Fraction(0)))
        return normalize(Prod((Const(Fraction(-1)), flipped)),
                         self.chart.variables)


def exterior_derivative(alpha: OneForm,
                        registry: Optional[OpaqueRegistry] = None) -> TwoForm:
    """d(sum a_i dx_i) = sum_{i<j} (da_j/dx_i - da_i/dx_j) dx_i ^ dx_j."""
    chart = alpha.chart
    comps = {}
    n = chart.dimension
    for i in range(n):
        for j in range(i + 1, n):
            c = normalize(
                Sum((differentiate(alpha.components[j], chart.variables[i],
                                   chart.variables, registry),
                     Prod((Const(Fraction(-1)),
                           differentiate(alpha.components[i],
                                         chart.variables[j],
                                         chart.variables, registry))))),
                chart.variables)
            if c != Const(Fraction(0)):
                comps[(i, j)] = c
    return TwoForm(chart, comps)


def pair(form, v: VectorField, w: Optional[VectorField] = None) -> ScalarExpr:
    """Pair a one-form with a field, or a two-form with two fields."""
    if isinstance(form, OneForm):
        if w is not None:
            raise TypeError("one-form pairs with a single field")
        if form.chart != v.chart:
            raise ChartMismatchError("form and field on different charts")
        terms = tuple(Prod((a, c))
                      for a, c in zip(form.components, v.components))
        return normalize(Sum(terms), form.chart.variables)
    if isinstance(form, TwoForm):
        if w is None:
            raise TypeError("two-form needs two fields")
        if form.chart != v.chart or form.chart != w.chart:
            raise ChartMismatchError("form and fields on different charts")
        terms = []
        for (i, j), c in sorted(form.components.items()):
            terms.append(Prod((c, Sum((
                Prod((v.components[i], w.components[j])),
                Prod((Const(Fraction(-1)), v.components[j], w.components[i])),
            )))))
        return normalize(Sum(tuple(terms)), form.chart.variables)
    raise TypeError(f"not a form: {form!r}")


def contact_volume(alpha: OneForm, point: dict,
                   registry: Optional[OpaqueRegistry] = None):
    """Value of the 5-form alpha ^ d(alpha) ^ d(alpha) on the coordinate
    frame at a point of a 5-dimensional chart."""
    chart = alpha.chart
    if chart.dimension != 5:
        raise ChartError("contact check needs a 5-dimensional chart")
    d = exterior_derivative(alpha, registry)
    a_vals = [evaluate(c, point, registry) for c in alpha.components]
    d_vals = {}
    for i in range(5):
        for j in range(5):
            d_vals[(i, j)] = evaluate(d.coefficient(i, j), point, registry)
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


def check_contact(alpha: OneForm, point: dict,
                  rtol: float = linalg.FLOAT_RTOL,
                  registry: Optional[OpaqueRegistry] = None) -> bool:
    """True when alpha is a contact form at the point."""
    vol = contact_volume(alpha, point, registry)
    if isinstance(vol, Fraction):
        return vol != 0
    return abs(vol) > rtol


def cauchy_characteristic_at(sub: Frame, ambient: Frame, point: dict,
                             registry: Optional[OpaqueRegistry] = None
                             ) -> list:
    """Coefficient vectors c such that [sum_i c_i v_i, w_j] lies in the
    ambient span at the point for every generator w_j of `sub`.

    Pre: the sub-frame's span is contained in the ambient span at the
    point (so the Leibniz terms w_j(c_i) v_i cannot spoil membership).
    """
    if sub.chart != ambient.chart:
        raise ChartMismatchError("frames on different charts")
    for v in sub.fields:
        red = reduce_mod(v, ambient, point, registry=registry)
        if not red.member:
            raise DegenerateFrameError(
                "sub-frame is not contained in the ambient span at the point")
    rows = []
    k = len(sub.fields)
    for w in sub.fields:
        residuals = []
        for v in sub.fields:
            b = lie_bracket(v, w, registry)
            red = reduce_mod(b, ambient, point, registry=registry)
            residuals.append(red.residual)
        n = len(residuals[0])
        for component in range(n):
            rows.append([residuals[i][component] for i in range(k)])
    if linalg.is_rational_matrix(rows):
        return linalg.exact_nullspace(rows)
    return linalg.float_nullspace(rows)
