"""Cone families inside a contact structure: non-degeneracy, Lagrangian
compatibility, the osculating condition, the Cauchy-characteristic
correction, and the induced splitting on the space of cone directions.

A family is stored in normal form: on a 5-dimensional chart with a
direction coordinate, the moving generator is

    zeta2 = d/dx1 + A d/dx2 + B d/dx3 + S d/dx4 + T d/dx5

with A, B, S, T scalar expressions in the base coordinates and the
direction coordinate.  Successive direction-derivatives zeta3, zeta4,
zeta5 describe the curve of directions to third order; the fiber field
zeta1 = d/d(theta) completes the picture on the 6-chart.  Radial scaling
is dropped throughout (cones are scale-invariant); it reappears only in
the path integration module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, wraps
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

from . import linalg
from .boxes import Box, default_box
from .distduality import (
    Distribution235, PseudoProductStructure, StructureError, _format_point,
)
from .frozen import Frozen
from .models import BUNDLED, _FIELDS, ModelFile, document_text, parse_model
from .scalar import (
    _MINUS_ONE, _NF_ONE, _NF_ZERO, Const, ScalarExpr, Var, _derivative,
    _NFBuilder, _NormalForm, evaluate, is_zero, min_degree, substitute,
    to_text,
)
from .vecfield import (
    Chart, ChartError, DegenerateFrameError, Frame, OneForm, PointValues,
    TwoForm, VectorField, _records, check_contact, combine,
    coordinate_field, lie_bracket, pair, rank_at, symbolic_decompose,
)


def _witness(verdict) -> Optional[str]:
    """The witness text of an `is_zero` verdict: its value at the point
    where it is nonzero, or None when the verdict is not "nonzero"."""
    if verdict.status != "nonzero":
        return None
    return f"value {verdict.value} at {_format_point(verdict.witness)}"


def _once_per_family(check):
    """`check(family)`, kept on the family object, which with the
    write-once registry its chart carries is all the result depends on;
    a call with more arguments, or one that raises, is not kept."""
    key = "_once_" + check.__name__

    @wraps(check)
    def once(family, *args, **kwargs):
        if args or kwargs:
            return check(family, *args, **kwargs)
        if key not in family.__dict__:
            family.__dict__[key] = check(family)
        return family.__dict__[key]
    return once


# ---------------------------------------------------------------------------
# the family
# ---------------------------------------------------------------------------

class ConeFamily(Frozen):
    """A one-parameter family of base directions in normal form, together
    with the contact form whose kernel contains every direction: the
    `records` of (A, B, S, T) on `z_chart`, `x_chart` extended by
    `theta`.  It keeps the default-argument results of
    `check_nondegenerate`, `check_lagrangian`,
    `check_osculating_condition` and `solve_U`; what they, `prolong_cone`
    and the derived zetas compute fills the memo of its chart.  Equality
    ignores `z_chart`, the base point, the box and `alpha_status`."""

    _key = attrgetter("x_chart", "theta", "records", "alpha", "name")

    def __init__(self, x_chart: Chart, theta: str, records: tuple,
                 alpha: OneForm, z_chart: Chart, base_point: dict, box: Box,
                 name: str = "cone-family", alpha_status: str = "unchecked"):
        self.__dict__.update(x_chart=x_chart, theta=theta, records=records,
                             alpha=alpha, z_chart=z_chart,
                             base_point=base_point, box=box, name=name,
                             alpha_status=alpha_status)

    @classmethod
    def build(cls, x_chart: Chart, components: Sequence, alpha: OneForm,
              theta: str = "th", base_point: Optional[dict] = None,
              box: Optional[Box] = None,
              name: str = "cone-family") -> "ConeFamily":
        """The family whose generator has the components (A, B, S, T),
        trees or records on `x_chart` extended by `theta`, checked against
        the contact form `alpha` on `x_chart`.  The box defaults to
        `boxes.default_box` about the base point, `theta` last."""
        if x_chart.dimension != 5:
            raise ChartError("cone families live over a 5-dimensional "
                             "chart")
        if theta in x_chart.variables:
            raise ChartError(
                f"direction coordinate {theta!r} collides with a base "
                "coordinate")
        z_chart = x_chart.extend(theta)
        components = tuple(components)
        if len(components) != 4:
            raise StructureError(
                "a family needs the four non-trivial generator components")
        records = _records(z_chart, components)
        if alpha.chart != x_chart:
            raise ChartError("contact form lives on the wrong chart")
        if base_point is None:
            base_point = z_chart.origin()
        if box is None:
            box = default_box({v: base_point[v] for v in z_chart.variables},
                              theta)

        family = cls(x_chart=x_chart, theta=theta, records=records,
                     alpha=alpha, z_chart=z_chart, base_point=base_point,
                     box=box, name=name)

        x_base = {v: base_point[v] for v in x_chart.variables}
        if not check_contact(alpha, x_base):
            raise StructureError(
                f"{name}: the one-form is not contact at the base point")
        verdict = is_zero(family.annihilation, box, z_chart)
        if verdict.status == "nonzero":
            raise StructureError(
                f"{name}: the contact form does not annihilate the "
                f"directions; {_witness(verdict)}")
        family.__dict__["alpha_status"] = verdict.status
        return family

    @cached_property
    def lifted_alpha(self) -> OneForm:
        """The contact form on the extended chart."""
        return self.alpha.lifted(self.z_chart)

    @cached_property
    def annihilation(self) -> _NormalForm:
        """The record of the lifted contact form paired with zeta2, which
        `build` certifies zero on the box and `check_lagrangian` reports."""
        return pair(self.lifted_alpha, self.zeta(2))

    def zeta(self, k: int) -> VectorField:
        """zeta1 is the direction-coordinate field; zeta2 the moving
        generator; zeta(k+1) its k-th direction-derivative."""
        return self._zetas[k - 1]

    @cached_property
    def _zetas(self) -> tuple:
        z_chart = self.z_chart
        zeta1 = coordinate_field(z_chart, self.theta).renamed("zeta1")
        records = (_NF_ONE,) + self.records + (_NF_ZERO,)
        fields = [zeta1, VectorField(z_chart, records, "zeta2")]
        for k in (3, 4, 5):
            prev = fields[-1]
            fields.append(VectorField(
                z_chart,
                tuple(_derivative(nf, self.theta, z_chart)
                      for nf in prev.records),
                f"zeta{k}"))
        return tuple(fields)

    @cached_property
    def bracket_decomposition(self) -> tuple:
        """(coefficients, complement): the records of the coefficients
        of [zeta2, zeta3] over the 6-frame of the zetas completed by the
        field `complement`, with pivots chosen at the base point."""
        fields, complement = _full_frame(self)
        bracket = lie_bracket(self.zeta(2), self.zeta(3))
        (coeffs,) = symbolic_decompose((bracket,), fields, self.base_point)
        return coeffs, complement


def cone_frame(family: ConeFamily) -> tuple:
    """(zeta1, ..., zeta5): the fiber field, the generator, and its first
    three direction-derivatives."""
    return tuple(family.zeta(k) for k in range(1, 6))


# ---------------------------------------------------------------------------
# non-degeneracy
# ---------------------------------------------------------------------------

@_once_per_family
def check_nondegenerate(family: ConeFamily,
                        point: Optional[dict] = None) -> bool:
    """True when the generator and its three direction-derivatives have
    rank 4 at the point and along 8 evenly spaced directions through it.

    Equivalently: the curve of directions is non-degenerate (no
    osculating subspace collapses) near the point.
    """
    if point is None:
        point = family.base_point
    fields = tuple(family.zeta(k) for k in (2, 3, 4, 5))
    lo, hi = family.box.bounds(family.theta)
    theta_values = [point[family.theta]]
    for i in range(8):
        theta_values.append(lo + (hi - lo) * Fraction(2 * i + 1, 16))
    for theta in theta_values:
        probe = dict(point)
        probe[family.theta] = theta
        if rank_at(fields, probe) != 4:
            return False
    return True


# ---------------------------------------------------------------------------
# Lagrangian compatibility
# ---------------------------------------------------------------------------

class LagrangianReport(NamedTuple):
    """Outcome of the isotropy checks for the family's tangent planes.

    With no section given the checks run symbolically in the direction
    coordinate, certifying every section at once over `box`; with a
    section they run on the base chart after substitution.  The box the
    certificate refers to is always recorded.
    """

    passed: bool
    checks: tuple          # (name, status, witness text or None)
    box: Box
    section: Optional[str] = None

    def __bool__(self):
        return self.passed


@_once_per_family
def check_lagrangian(family: ConeFamily,
                     section: Optional[ScalarExpr] = None
                     ) -> LagrangianReport:
    """Check that the plane spanned by the generator and its first
    direction-derivative is annihilated by the contact form and isotropic
    for its exterior derivative, over the family's box; with a section
    theta = s(x), a tree on the base chart, substituted into each
    quantity, over the base part of the box."""
    # d(alpha) has no theta part, so the base chart's records, which
    # the contact check of `ConeFamily.build` read, serve
    d_alpha = TwoForm(family.z_chart, family.alpha.derivative.records)
    zeta2, zeta3 = family.zeta(2), family.zeta(3)
    quantities = (
        ("contact form annihilates the generator", family.annihilation),
        ("contact form annihilates the derivative direction",
         pair(family.lifted_alpha, zeta3)),
        ("tangent plane is isotropic", pair(d_alpha, zeta2, zeta3)),
    )
    if section is None:
        check_box = family.box
        verdicts = [(name, is_zero(nf, check_box, family.z_chart))
                    for name, nf in quantities]
        section_text = None
    else:
        chart = family.x_chart
        _records(chart, (section,), what="section uses undeclared variables")
        check_box = Box(tuple(iv for iv in family.box.intervals
                              if iv[0] != family.theta))
        mapping = {family.theta: section}
        verdicts = [(name, is_zero(substitute(nf.tree, mapping),
                                   check_box, chart))
                    for name, nf in quantities]
        section_text = to_text(section)

    checks = [(name, verdict.status, _witness(verdict))
              for name, verdict in verdicts]
    return LagrangianReport(passed=all(w is None for _, _, w in checks),
                            checks=tuple(checks), box=check_box,
                            section=section_text)


# ---------------------------------------------------------------------------
# the osculating condition and the Cauchy-characteristic correction
# ---------------------------------------------------------------------------

def _full_frame(family: ConeFamily) -> tuple:
    """(fields, complement): the five zetas completed to a 6-frame by the
    first coordinate field keeping full rank at the base point."""
    zetas = cone_frame(family)
    at = PointValues(family.base_point)
    for var in reversed(family.x_chart.variables):
        candidate = coordinate_field(family.z_chart, var)
        if at.rank(zetas + (candidate,)) == 6:
            return zetas + (candidate,), candidate
    raise DegenerateFrameError(
        "no coordinate field completes the direction frame at the base "
        "point")


class OsculatingConditionReport(NamedTuple):
    """Verdict of the bracket-osculation condition: the bracket of the
    generator with its derivative must stay in the span of the fiber
    field, the generator, and its first two derivatives, identically.

    The two residual coefficients (along the third derivative and along
    the completing coordinate direction) are recorded as expressions with
    their zero-check statuses; a failure carries a pointwise witness.
    """

    passed: bool
    residuals: tuple       # (label, expression text, status, witness)
    box: Optional[Box] = None

    def __bool__(self):
        return self.passed


@_once_per_family
def check_osculating_condition(family: ConeFamily
                               ) -> OsculatingConditionReport:
    """Check [zeta2, zeta3] = 0 modulo (zeta1, zeta2, zeta3, zeta4)
    identically over the family's box.

    This single identity on the direction space discharges the
    section-wise condition for every direction field at once.
    """
    box = family.box
    coeffs, complement = family.bracket_decomposition
    labels = ("coefficient along the third derivative direction",
              f"coefficient along {complement.name}")
    residuals = []
    for label, nf in zip(labels, coeffs[4:6]):
        verdict = is_zero(nf, box, family.z_chart)
        residuals.append((label, to_text(nf.tree), verdict.status,
                          _witness(verdict)))
    return OsculatingConditionReport(
        passed=all(w is None for _, _, _, w in residuals),
        residuals=tuple(residuals), box=box)


class SolveUResult(NamedTuple):
    """The correction scalar making the generator a Cauchy characteristic
    of the derived plane field, with the corrected generator."""

    expression: _NormalForm
    l_field: VectorField
    k_field: VectorField
    report: OsculatingConditionReport


@_once_per_family
def solve_U(family: ConeFamily) -> SolveUResult:
    """Solve for U with [zeta2 + U*zeta1, zeta3] = 0 modulo
    (zeta1, zeta2, zeta3).

    Since [zeta1, zeta3] is exactly zeta4, U is the negated
    fourth-frame coefficient of [zeta2, zeta3]; existence requires the
    osculating condition (the residual coefficients vanish).
    """
    report = check_osculating_condition(family)
    if not report.passed:
        details = "; ".join(w for _, _, _, w in report.residuals if w)
        raise StructureError(
            f"{family.name}: no correction scalar exists, the bracket "
            f"leaves the osculating span ({details})")
    coeffs, _ = family.bracket_decomposition
    builder = _NFBuilder(family.z_chart)
    u = builder.finish(builder.product((_MINUS_ONE, builder.reuse(coeffs[3]))))
    zeta1, zeta2 = family.zeta(1), family.zeta(2)
    l_field = combine(zeta2, u, zeta1, "L")
    # Self-check: the corrected generator's bracket with zeta3 reduces
    # into (zeta1, zeta2, zeta3) at 20 Halton points of the box.
    low_frame = Frame(family.z_chart,
                      (zeta1, zeta2, family.zeta(3)),
                      family.base_point)
    corrected_bracket = lie_bracket(l_field, family.zeta(3))
    for point in family.box.sample_points(20):
        if not PointValues(point).member(
                corrected_bracket, low_frame):
            raise StructureError(
                "correction self-check failed: the corrected bracket "
                f"leaves the low span at {_format_point(point)}")
    return SolveUResult(expression=u, l_field=l_field,
                        k_field=zeta1.renamed("K"), report=report)


# ---------------------------------------------------------------------------
# the induced splitting
# ---------------------------------------------------------------------------

def prolong_cone(family: ConeFamily) -> PseudoProductStructure:
    """Build the splitting of the direction-space plane field: K is the
    fiber line, L the corrected generator line.

    Preconditions (each failure names its clause): the family must be
    non-degenerate, Lagrangian-compatible, and satisfy the osculating
    condition.
    """
    if not check_nondegenerate(family):
        raise StructureError(
            f"{family.name}: cannot build the splitting, the "
            "non-degeneracy check fails")
    lagrange = check_lagrangian(family)
    if not lagrange.passed:
        failing = [name for name, _, witness in lagrange.checks if witness]
        raise StructureError(
            f"{family.name}: cannot build the splitting, the Lagrangian "
            f"compatibility fails ({', '.join(failing)})")
    try:
        solved = solve_U(family)
    except StructureError as exc:
        raise StructureError(
            f"{family.name}: cannot build the splitting, the osculating "
            f"condition fails: {exc}") from exc
    return PseudoProductStructure.build(
        family.z_chart, (family.zeta(1), family.zeta(2)),
        solved.k_field, solved.l_field, family.base_point, family.box,
        name=family.name)


# ---------------------------------------------------------------------------
# building models from their documents
# ---------------------------------------------------------------------------

def build_model(model: ModelFile, box: Optional[Box] = None):
    """The object a parsed model document describes: a
    `Distribution235`, a `ConeFamily` or a `PseudoProductStructure`.

    It is built on `box`, by default the model's own (`ModelFile.box`).
    A parameter-driven cone family gets its components A, B, S, T from
    the parameters ``a`` or ``b``, ``c``.  Its chart starts the memo
    that all the work on the object fills.
    """
    if box is None:
        box = model.box
    chart = Chart(model.chart, model.registry)
    exprs = model.expressions
    base_point = dict(model.base_point)
    if model.kind == "cone-family":
        if "A" in exprs:
            components = tuple(exprs[key] for key in "ABST")
        else:
            components = _driver_components(exprs, chart)
        return ConeFamily.build(
            chart, components, OneForm(chart, model.alpha), theta=model.theta,
            base_point=base_point, box=box, name=model.name)
    fields = tuple(VectorField(chart, exprs[key], key)
                   for key in _FIELDS[model.kind][0])
    if model.kind == "distribution235":
        return Distribution235(chart, *fields, base_point, box=box,
                               name=model.name)
    e1, e2, k_field, l_field = fields
    return PseudoProductStructure.build(
        chart, (e1, e2), k_field, l_field, base_point, box=box,
        name=model.name)


def builtin_model(name: str, params: Optional[dict] = None):
    """Build the bundled model `name`: its document in `BUNDLED`, with
    `params` in place of the document's expressions when given, written
    by `document_text` (the text `dist235 models show` prints), parsed
    by `parse_model` and built by `build_model`.

    * ``hilbert-cartan``: the flat growth-(2,3,5) plane field (a
      distribution, not a cone family).
    * ``flat-cone``: the homogeneous cubic family.
    * ``cubic-a``: cubic family driven by a function of the first base
      coordinate (parameter ``a``, vanishing at 0; bundled a = x1).
    * ``noncubic-bc``, ``noncubic-bc-violating``: family perturbed by
      functions of the direction (parameters ``b``, ``c`` with lowest
      orders at least 3 and 4).

    `params` must name exactly the document's expression keys.  An
    unknown name or other keys raise StructureError; parameter text the
    document schema rejects raises ModelError.
    """
    try:
        doc = BUNDLED[name]
    except KeyError:
        raise StructureError(
            f"unknown model {name!r}; available: "
            + ", ".join(BUNDLED)) from None
    if params:
        keys = sorted(doc["expressions"])
        if sorted(params) != keys:
            raise StructureError(
                f"model {name!r} takes exactly the parameters "
                + ", ".join(repr(key) for key in keys))
        doc = dict(doc, expressions=dict(params))
    return build_model(parse_model(document_text(doc), name))


def _driver_components(params: dict, chart: Chart) -> tuple:
    """The records of the components (A, B, S, T) of a parameter-driven
    family over the standard chart `chart` extended by ``th``, after
    checking its parameters: ``a`` for the cubic family (b = a,
    c = -3*th*a), ``b`` and ``c`` for the non-cubic one.  One builder
    folds each parameter tree once and composes B = th^2 + b,
    S = th^3 + c and T = x3*th - 2*x2*B + x1*S on the triples."""
    builder = _NFBuilder(chart.extend("th"))
    fold, product = builder.visit, builder.product
    if "a" in params:
        a = params["a"]
        b = fold(a)
        extra = tuple(sorted(builder.variables() - {"x1"}))
        if extra:
            raise StructureError(
                f"parameter 'a' may only involve x1, found {extra}")
        if not linalg.is_zero_value(evaluate(a, {"x1": Fraction(0)},
                                             chart.registry)):
            raise StructureError(
                "parameter 'a' must vanish at the base point")
        c = product((fold(Const(-3)), fold(Var("th")), b))
    else:
        drivers = []
        for label, bound in (("b", 3), ("c", 4)):
            triple = fold(params[label])
            extra = tuple(sorted(builder.variables() - {"th"}))
            if extra:
                raise StructureError(
                    f"parameter {label!r} may only involve the direction "
                    f"coordinate, found {extra}")
            order = min_degree(builder.finish(triple), "th")
            if order is not None and order < bound:
                raise StructureError(
                    f"parameter {label!r} has lowest order {order}, "
                    f"need at least {bound}")
            drivers.append(triple)
        b, c = drivers
    # th is folded after the checks: they read every variable met so far
    th = fold(Var("th"))
    comp_b = builder.sum((builder.power(th, 2), b))
    comp_s = builder.sum((builder.power(th, 3), c))
    # T makes the standard contact form annihilate the generator.
    comp_t = builder.sum((
        product((fold(Var("x3")), th)),
        product((fold(Const(-2)), fold(Var("x2")), comp_b)),
        product((fold(Var("x1")), comp_s))))
    return tuple(map(builder.finish, (th, comp_b, comp_s, comp_t)))
