"""Rank-two distributions with growth (2,3,5), their fiberwise direction
prolongation, and the seven-condition certification of the induced
splitting of the prolonged plane field.

The prolonged space carries a rank-2 plane field E spanned by a horizontal
generator and the fiber direction.  Inside E live two distinguished line
fields: K (the horizontal line, corrected by a scalar multiple of the
fiber direction) and L (the fiber line).  `solve_e` determines the unique
correction scalar; `verify_pseudo_product` certifies the seven bracket
conditions that make (K, L) a genuine splitting; `symbol_algebra_at`
checks the graded nilpotent bracket table at a point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from . import linalg
from .boxes import Box
from .scalar import (
    Const, OpaqueRegistry, Pow, Prod, ScalarExpr, Sum, Var,
    default_registry, evaluate, is_zero, normalize, to_text,
)
from .vecfield import (
    Chart, ChartError, ChartMismatchError, DegenerateFrameError,
    DistributionFlag, Frame, VectorField, coordinate_field, derived_flag,
    lie_bracket, rank_at, reduce_mod, symbolic_decompose,
)


class StructureError(Exception):
    """A structural premise of the construction fails."""


class GrowthError(StructureError):
    """A growth vector does not match what the construction requires.

    `report` is the failing growth check, when one produced the error.
    """

    def __init__(self, message: str,
                 report: Optional[Check235Report] = None):
        super().__init__(message)
        self.report = report


class GradingError(StructureError):
    """The graded frames needed for symbol computations do not exist."""


_GROWTH_235 = (2, 3, 5)
_GROWTH_PROLONGED = (2, 3, 4, 5, 6)


def _format_point(point: dict) -> str:
    return "(" + ", ".join(f"{k}={point[k]}" for k in point) + ")"


def default_box(base_point: dict) -> Box:
    """The box used when none is given: half-width 1/4 about the base
    point in every coordinate."""
    return Box.around(base_point, Fraction(1, 4))


# ---------------------------------------------------------------------------
# growth-(2,3,5) verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check235Report:
    """Outcome of the growth check for a pair of candidate generators."""

    growth: tuple
    passed: bool
    constant_rank: bool
    stabilized: bool
    failures: tuple = ()
    flag: Optional[DistributionFlag] = field(default=None, compare=False)

    def __bool__(self):
        return self.passed


def check_235(eta1: VectorField, eta2: VectorField, base_point: dict,
              box: Optional[Box] = None, samples: int = 16,
              registry: Optional[OpaqueRegistry] = None) -> Check235Report:
    """Check that two vector fields on a 5-dimensional chart generate a
    plane field of growth (2, 3, 5) at the base point and across the box.

    Degeneracies are reported, not raised: a dependent pair, a stalled
    flag, or a rank that wanders over the box all come back as a failed
    report carrying human-readable witnesses.
    """
    if eta1.chart != eta2.chart:
        raise ChartMismatchError("generators live on different charts")
    chart = eta1.chart
    if chart.dimension != 5:
        raise ChartError(
            f"growth-(2,3,5) check needs a 5-dimensional chart, "
            f"got dimension {chart.dimension}")
    if registry is None:
        registry = default_registry()
    if box is None:
        box = default_box(base_point)

    failures = []
    base_rank = rank_at((eta1, eta2), base_point, registry=registry)
    if base_rank < 2:
        failures.append(
            f"generators have rank {base_rank} at {_format_point(base_point)}")
        return Check235Report(growth=(base_rank,), passed=False,
                              constant_rank=False, stabilized=False,
                              failures=tuple(failures), flag=None)

    frame = Frame(chart, (eta1, eta2), base_point, registry)
    flag = derived_flag(frame, box=box, samples=samples, registry=registry)
    if flag.growth != _GROWTH_235:
        failures.append(
            f"growth vector at {_format_point(base_point)} is "
            f"{flag.growth}, expected {_GROWTH_235}")
    if not flag.constant_rank:
        for witness in flag.rank_witnesses:
            failures.append(str(witness))
        if not flag.rank_witnesses:
            failures.append("rank is not constant over the sampled box")
    passed = flag.growth == _GROWTH_235 and flag.constant_rank
    return Check235Report(growth=flag.growth, passed=passed,
                          constant_rank=flag.constant_rank,
                          stabilized=flag.stabilized,
                          failures=tuple(failures), flag=flag)


@dataclass(frozen=True)
class Distribution235:
    """A plane field of growth (2, 3, 5) on a 5-dimensional chart.

    Construction validates the growth vector; the brackets that fill the
    weak derived flag are exposed as `eta3`, `eta4`, `eta5`.
    """

    chart: Chart
    eta1: VectorField
    eta2: VectorField
    base_point: dict = field(compare=False)
    box: Optional[Box] = field(default=None, compare=False)
    registry: Optional[OpaqueRegistry] = field(default=None, compare=False)
    name: str = "distribution"

    def __post_init__(self):
        if self.registry is None:
            object.__setattr__(self, "registry", default_registry())
        if self.box is None:
            object.__setattr__(self, "box", default_box(self.base_point))
        report = check_235(self.eta1, self.eta2, self.base_point,
                           box=self.box, registry=self.registry)
        if not report.passed:
            raise GrowthError(
                f"{self.name}: " + "; ".join(report.failures), report)
        object.__setattr__(self, "_report", report)

    @property
    def report(self) -> Check235Report:
        return self._report

    @cached_property
    def eta3(self) -> VectorField:
        return lie_bracket(self.eta1, self.eta2, self.registry).renamed(
            "eta3")

    @cached_property
    def eta4(self) -> VectorField:
        return lie_bracket(self.eta1, self.eta3, self.registry).renamed(
            "eta4")

    @cached_property
    def eta5(self) -> VectorField:
        return lie_bracket(self.eta2, self.eta3, self.registry).renamed(
            "eta5")

    @cached_property
    def full_frame(self) -> Frame:
        return Frame(self.chart,
                     (self.eta1, self.eta2, self.eta3, self.eta4, self.eta5),
                     self.base_point, self.registry)


# ---------------------------------------------------------------------------
# prolongation to the 6-dimensional direction space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProlongedDistribution:
    """The rank-2 plane field E on the 6-chart of fiberwise directions.

    `zeta1` is the horizontal generator (the direction being prolonged),
    `zeta2` the fiber coordinate field.  `layer_frame(k)` returns a frame
    of the k-th weak derived layer, k = 0 (E itself, rank 2) through 4
    (the whole tangent space, rank 6).
    """

    source: Distribution235
    z_chart: Chart
    fiber: str
    antipodal: bool
    zeta1: VectorField
    zeta2: VectorField
    etas: tuple
    w4: VectorField
    base_point: dict = field(compare=False)
    box: Box = field(compare=False)
    flag: DistributionFlag = field(compare=False)
    registry: OpaqueRegistry = field(compare=False)

    @property
    def complement_field(self) -> VectorField:
        """The frame direction complementary to layer 3 near the base
        point: the bracket of the fiber direction with the layer-3
        generator w4 equals exactly this field."""
        return self.etas[3] if self.antipodal else self.etas[4]

    @cached_property
    def _layer_frames(self) -> tuple:
        e1, e2, e3, _, _ = self.etas
        layers = (
            (self.zeta1, self.zeta2),
            (e1, e2, self.zeta2),
            (e1, e2, e3, self.zeta2),
            (e1, e2, e3, self.w4, self.zeta2),
            (e1, e2, e3, self.w4, self.zeta2, self.complement_field),
        )
        return tuple(Frame(self.z_chart, fields, self.base_point,
                           self.registry) for fields in layers)

    def layer_frame(self, depth: int) -> Frame:
        return self._layer_frames[depth]

    @property
    def growth(self) -> tuple:
        return self.flag.growth


def prolong_235(dist: Distribution235, fiber: str = "t",
                antipodal: bool = False) -> ProlongedDistribution:
    """Prolong a growth-(2,3,5) plane field to the 6-chart of directions.

    In the default chart the fiber coordinate parametrizes directions as
    (first generator) + fiber * (second generator); with `antipodal=True`
    the roles are exchanged, covering the direction missed at infinity.
    """
    if fiber in dist.chart.variables:
        raise ChartError(
            f"fiber coordinate {fiber!r} collides with a base coordinate")
    z_chart = dist.chart.extend(fiber)
    registry = dist.registry
    e1, e2, e3, e4, e5 = (f.lifted(z_chart) for f in (
        dist.eta1, dist.eta2, dist.eta3, dist.eta4, dist.eta5))
    tvar = Var(fiber)
    zeta2 = coordinate_field(z_chart, fiber).renamed("zeta2")
    if antipodal:
        horizontal = tuple(
            normalize(Sum((Prod((tvar, a)), b)), z_chart.variables)
            for a, b in zip(e1.components, e2.components))
        w4_comps = tuple(
            normalize(Sum((Prod((tvar, a)), b)), z_chart.variables)
            for a, b in zip(e4.components, e5.components))
    else:
        horizontal = tuple(
            normalize(Sum((a, Prod((tvar, b)))), z_chart.variables)
            for a, b in zip(e1.components, e2.components))
        w4_comps = tuple(
            normalize(Sum((a, Prod((tvar, b)))), z_chart.variables)
            for a, b in zip(e4.components, e5.components))
    zeta1 = VectorField(z_chart, horizontal, "zeta1")
    w4 = VectorField(z_chart, w4_comps, "w4")

    z_base = dict(dist.base_point)
    z_base[fiber] = Fraction(0)
    z_box = Box(dist.box.intervals
                + ((fiber, Fraction(-1, 2), Fraction(1, 2)),))

    frame = Frame(z_chart, (zeta1, zeta2), z_base, registry)
    flag = derived_flag(frame, box=z_box, registry=registry)
    if flag.growth != _GROWTH_PROLONGED:
        raise GrowthError(
            f"prolonged plane field has growth {flag.growth}, "
            f"expected {_GROWTH_PROLONGED}")

    prolonged = ProlongedDistribution(
        source=dist, z_chart=z_chart, fiber=fiber, antipodal=antipodal,
        zeta1=zeta1, zeta2=zeta2, etas=(e1, e2, e3, e4, e5), w4=w4,
        base_point=z_base, box=z_box, flag=flag, registry=registry)
    # The closed-form layer frames must be genuine frames at the base
    # point and must reproduce the ranks the flag found.
    for depth in range(5):
        try:
            layer = prolonged.layer_frame(depth)
        except DegenerateFrameError as exc:
            raise GrowthError(
                f"closed-form layer {depth} frame degenerates at the "
                f"base point: {exc}") from exc
        if layer.rank != flag.growth[depth]:
            raise GrowthError(
                f"layer {depth} frame has rank {layer.rank}, "
                f"flag reports {flag.growth[depth]}")
    return prolonged


# ---------------------------------------------------------------------------
# the splitting of E and its certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionResult:
    """One of the seven bracket conditions, evaluated over sample points."""

    index: int
    name: str
    requires_growth: Optional[int]
    inclusion_ok: bool
    growth_ok: bool
    witnesses: tuple = ()

    @property
    def passed(self) -> bool:
        return self.inclusion_ok and self.growth_ok


@dataclass(frozen=True)
class PseudoProductReport:
    """Aggregate verdict over the seven bracket conditions."""

    conditions: tuple
    splitting_ok: bool
    growth: tuple
    valid: bool
    splitting_witnesses: tuple = ()

    def condition(self, index: int) -> ConditionResult:
        for c in self.conditions:
            if c.index == index:
                return c
        raise KeyError(index)

    def failed_conditions(self) -> tuple:
        return tuple(c.index for c in self.conditions if not c.passed)

    def summary_lines(self) -> tuple:
        lines = []
        lines.append("splitting K + L = E: "
                     + ("ok" if self.splitting_ok else "FAIL"))
        lines.append(f"flag growth: {self.growth}")
        for c in self.conditions:
            verdict = "ok" if c.passed else "FAIL"
            lines.append(f"condition {c.index} ({c.name}): {verdict}")
            for w in c.witnesses[:1]:
                lines.append(f"  witness: {w}")
        lines.append("verdict: " + ("valid" if self.valid else "INVALID"))
        return tuple(lines)


@dataclass(frozen=True)
class PseudoProductStructure:
    """A rank-2 plane field E on a 6-chart together with two line fields
    K, L that split it.  `build` validates the splitting and computes the
    weak derived flag of E; `verify_pseudo_product` certifies the seven
    bracket conditions.  Everything `build` validates is symmetric in K
    and L, and the flag depends on E alone, so `swapped` reuses both."""

    z_chart: Chart
    e_generators: tuple
    k_field: VectorField
    l_field: VectorField
    base_point: dict = field(compare=False)
    box: Box = field(compare=False)
    flag: DistributionFlag = field(compare=False)
    registry: OpaqueRegistry = field(compare=False)
    name: str = "structure"

    @classmethod
    def build(cls, z_chart: Chart, e_generators: Sequence[VectorField],
              k_field: VectorField, l_field: VectorField, base_point: dict,
              box: Optional[Box] = None,
              registry: Optional[OpaqueRegistry] = None,
              name: str = "structure") -> "PseudoProductStructure":
        if registry is None:
            registry = default_registry()
        if box is None:
            box = default_box(base_point)
        gens = tuple(e_generators)
        if len(gens) != 2:
            raise StructureError("E needs exactly two generators")
        for f in gens + (k_field, l_field):
            if f.chart != z_chart:
                raise ChartMismatchError(
                    "all fields must live on the same 6-chart")
        if z_chart.dimension != 6:
            raise ChartError("the prolonged chart must be 6-dimensional")
        e_frame = Frame(z_chart, gens, base_point, registry)
        # K and L must be sections of E, independent at the base point.
        for line, label in ((k_field, "K"), (l_field, "L")):
            res = reduce_mod(line, e_frame, base_point, registry=registry)
            if not res.member:
                raise StructureError(
                    f"{label} generator is not a section of E at the "
                    f"base point (residual {res.residual})")
        if rank_at((k_field, l_field), base_point, registry=registry) != 2:
            raise StructureError(
                "K and L generators are dependent at the base point")
        flag = derived_flag(e_frame, box=box, registry=registry)
        if flag.growth != _GROWTH_PROLONGED:
            raise GrowthError(
                f"{name}: plane field has growth {flag.growth}, "
                f"expected {_GROWTH_PROLONGED}")
        return cls(z_chart=z_chart, e_generators=gens, k_field=k_field,
                   l_field=l_field, base_point=base_point, box=box,
                   flag=flag, registry=registry, name=name)

    def swapped(self) -> "PseudoProductStructure":
        """The same plane field with the roles of K and L exchanged."""
        return replace(self, k_field=self.l_field, l_field=self.k_field,
                       name=self.name + "-swapped")


_CONDITIONS = (
    # (index, name, source role, layer bracketed, inclusion target layer,
    #  required rank after adding the brackets, or None)
    (1, "[K, L] fills layer 1", "pair", 0, 1, 3),
    (2, "[K, layer 1] fills layer 2", "K", 1, 2, 4),
    (3, "[L, layer 1] stays in layer 1", "L", 1, 1, None),
    (4, "[K, layer 2] fills layer 3", "K", 2, 3, 5),
    (5, "[L, layer 2] stays in layer 2", "L", 2, 2, None),
    (6, "[K, layer 3] stays in layer 3", "K", 3, 3, None),
    (7, "[L, layer 3] fills the tangent space", "L", 3, 4, 6),
)


class _PointValues:
    """Field values and layer spans at one point, each computed once.

    Membership and rank are decided by `linalg`, exactly when the values
    are rational and with a relative tolerance otherwise, as `reduce_mod`
    and `rank_at` do.
    """

    def __init__(self, point: dict, registry: OpaqueRegistry, rtol: float):
        self.point = point
        self.registry = registry
        self.rtol = rtol
        self._values = {}  # id(field) -> values
        self._spans = {}   # id(frame) -> linalg.Span

    def value(self, f: VectorField) -> list:
        key = id(f)
        if key not in self._values:
            self._values[key] = f.evaluate_at(self.point, self.registry)
        return self._values[key]

    def member(self, f: VectorField, frame: Frame) -> bool:
        span = self._spans.get(id(frame))
        if span is None:
            span = linalg.Span([self.value(w) for w in frame.fields],
                               self.rtol)
            self._spans[id(frame)] = span
        return span.contains(self.value(f))

    def rank(self, fields: Sequence[VectorField]) -> int:
        return linalg.matrix_rank([self.value(f) for f in fields], self.rtol)


def verify_pseudo_product(structure: PseudoProductStructure,
                          box: Optional[Box] = None, samples: int = 32,
                          rtol: float = linalg.FLOAT_RTOL
                          ) -> PseudoProductReport:
    """Evaluate the seven bracket conditions of the splitting.

    Each condition is checked as an inclusion (every bracket lies in the
    span of the target layer frame) and, where the condition asserts
    equality with the next layer, as a rank-increase check (the brackets
    together with the smaller layer achieve the larger layer's rank).
    Both checks, and the splitting check that K and L are independent
    sections of E, are sampled: they run at the base point and at
    `samples` deterministic Halton points of the box.  At each point every
    field (layer generators, K, L and the brackets) is evaluated once and
    each layer frame is eliminated once, in exact integer arithmetic when
    the values are rational.  A failing bracket is witnessed by the first
    point where it leaves its layer, a stalled condition by the first
    point where the rank falls short.
    """
    box = box if box is not None else structure.box
    registry = structure.registry
    flag = structure.flag
    points = [structure.base_point] + list(box.sample_points(samples))
    frames = flag.frames[:5]
    k_field, l_field = structure.k_field, structure.l_field
    role_fields = {"K": k_field, "L": l_field}

    brackets = []  # per condition: ((bracket, a name, b name), ...)
    for _, _, role, depth, _, _ in _CONDITIONS:
        if role == "pair":
            pairs = [(k_field, l_field)]
        else:
            pairs = [(role_fields[role], w) for w in frames[depth].fields]
        brackets.append(tuple(
            (lie_bracket(a, b, registry), a.name or role, b.name or "w")
            for a, b in pairs))

    splitting_witnesses = []
    exits = [[None] * len(group) for group in brackets]
    stalls = [None] * len(_CONDITIONS)
    for point in points:
        at = _PointValues(point, registry, rtol)
        # Splitting check: K, L sections of E, jointly of rank 2.
        for label in ("K", "L"):
            if not at.member(role_fields[label], frames[0]):
                splitting_witnesses.append(
                    f"{label} leaves E at {_format_point(point)}")
        pair_rank = at.rank((k_field, l_field))
        if pair_rank != 2:
            splitting_witnesses.append(
                f"K and L have joint rank {pair_rank} at "
                f"{_format_point(point)}")
        for c, (_, _, _, depth, target, required) in enumerate(_CONDITIONS):
            group = brackets[c]
            for j, (bracket_field, _, _) in enumerate(group):
                if exits[c][j] is None and not at.member(
                        bracket_field, frames[target]):
                    exits[c][j] = point
            if required is not None and stalls[c] is None:
                achieved = at.rank(frames[depth].fields
                                   + tuple(b for b, _, _ in group))
                if achieved != required:
                    stalls[c] = (point, achieved)
    splitting_ok = not splitting_witnesses

    results = []
    for c, (index, name, _, _, target, required) in enumerate(_CONDITIONS):
        witnesses = [
            f"[{a_name}, {b_name}] leaves layer {target} at "
            f"{_format_point(point)}"
            for (_, a_name, b_name), point in zip(brackets[c], exits[c])
            if point is not None]
        inclusion_ok = not witnesses
        if stalls[c] is not None:
            point, achieved = stalls[c]
            witnesses.append(
                f"rank stalls at {achieved} (need {required}) at "
                f"{_format_point(point)}")
        results.append(ConditionResult(
            index=index, name=name, requires_growth=required,
            inclusion_ok=inclusion_ok, growth_ok=stalls[c] is None,
            witnesses=tuple(witnesses)))

    valid = splitting_ok and all(r.passed for r in results)
    return PseudoProductReport(
        conditions=tuple(results), splitting_ok=splitting_ok,
        growth=flag.growth, valid=valid,
        splitting_witnesses=tuple(splitting_witnesses))


# ---------------------------------------------------------------------------
# solving for the K-generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveEResult:
    """The correction scalar making the horizontal line bracket-invariant
    on layer 3, together with the resulting K and L generators.

    When the symbolic route succeeds, `expression` holds the closed form
    and `symbolic` is True.  Otherwise `table` holds pointwise samples
    (point, value) and `warning` explains that no closed form was
    produced; nothing is interpolated silently.
    """

    symbolic: bool
    expression: Optional[ScalarExpr]
    k_field: Optional[VectorField]
    l_field: VectorField
    table: tuple = ()
    warning: Optional[str] = None

    def structure(self, prolonged: ProlongedDistribution,
                  name: str = "structure") -> PseudoProductStructure:
        if not self.symbolic:
            raise StructureError(
                "no closed-form K generator available (pointwise table "
                "fallback was used)")
        return PseudoProductStructure.build(
            prolonged.z_chart, (prolonged.zeta1, prolonged.zeta2),
            self.k_field, self.l_field, prolonged.base_point,
            prolonged.box, prolonged.registry, name=name)


def _correction_pair(prolonged: ProlongedDistribution, w: VectorField,
                     basis: Sequence[VectorField], complement_index: int):
    """The affine pair (a, b) with complement-coordinate of
    [zeta1 + e*zeta2, w]  =  a + e*b.  The derivative term (w e) * zeta2
    never contributes: it multiplies a field lying inside layer 3."""
    registry = prolonged.registry
    bracket1 = lie_bracket(prolonged.zeta1, w, registry)
    bracket2 = lie_bracket(prolonged.zeta2, w, registry)
    coeffs1 = symbolic_decompose(bracket1, basis, prolonged.base_point,
                                 registry)
    coeffs2 = symbolic_decompose(bracket2, basis, prolonged.base_point,
                                 registry)
    return coeffs1[complement_index], coeffs2[complement_index]


def solve_e(prolonged: ProlongedDistribution, samples: int = 20,
            rtol: float = linalg.FLOAT_RTOL) -> SolveEResult:
    """Determine the scalar e with K = zeta1 + e*zeta2 whose bracket with
    every layer-3 frame generator stays in layer 3.

    For each generator w of the layer-3 frame the complement coordinate of
    [zeta1 + e*zeta2, w] is affine in e; the system is solved symbolically
    by exact elimination (pivots chosen nonzero at the base point).  If
    the elimination degenerates, the solver falls back to pointwise
    sampling and returns the sampled values as a table with a warning
    instead of inventing a closed form.
    """
    registry = prolonged.registry
    layer3 = prolonged.layer_frame(3)
    basis = layer3.fields + (prolonged.complement_field,)
    complement_index = len(basis) - 1
    l_field = prolonged.zeta2

    try:
        pairs = [_correction_pair(prolonged, w, basis, complement_index)
                 for w in layer3.fields]
    except DegenerateFrameError as exc:
        return _solve_e_pointwise(prolonged, samples, rtol, str(exc))

    # Pick the equation whose linear coefficient is largest at the base
    # point; for the canonical construction this is the bracket with the
    # fourth layer generator, whose coefficient is exactly 1.
    best, best_mag = None, 0.0
    for a, b in pairs:
        mag = abs(float(evaluate(b, prolonged.base_point, registry)))
        if mag > best_mag:
            best, best_mag = (a, b), mag
    if best is None or best_mag <= rtol:
        raise StructureError(
            "no bracket produces a usable linear coefficient for the "
            "correction scalar at the base point")
    a, b = best
    e_expr = normalize(Prod((Const(Fraction(-1)), a, Pow(b, -1))),
                       prolonged.z_chart.variables)

    # Consistency: every other equation a_w + e*b_w must vanish.  The
    # check is numeric over the box (the equations may involve opaque
    # coefficients), with a hard failure instead of a silent bad answer.
    box = prolonged.box
    for a_w, b_w in pairs:
        residual = normalize(Sum((a_w, Prod((e_expr, b_w)))),
                             prolonged.z_chart.variables)
        verdict = is_zero(residual, box, prolonged.z_chart.variables,
                          registry)
        if verdict.status == "nonzero":
            raise StructureError(
                "correction equations are inconsistent: residual "
                f"{to_text(residual)} is nonzero at "
                f"{_format_point(verdict.witness)}")

    k_field = VectorField(
        prolonged.z_chart,
        tuple(normalize(Sum((c1, Prod((e_expr, c2)))),
                        prolonged.z_chart.variables)
              for c1, c2 in zip(prolonged.zeta1.components,
                                prolonged.zeta2.components)),
        "K")
    return SolveEResult(symbolic=True, expression=e_expr, k_field=k_field,
                        l_field=l_field.renamed("L"))


def _solve_e_pointwise(prolonged: ProlongedDistribution, samples: int,
                       rtol: float, reason: str) -> SolveEResult:
    """Fallback: sample the correction scalar pointwise over the box.

    At each point the bracket of the horizontal generator with w4 is
    decomposed over the full frame; the complement coordinate of the
    fiber bracket [zeta2, w4] is exactly 1, so the sampled value is the
    negated complement coordinate of the horizontal bracket.
    """
    registry = prolonged.registry
    bracket1 = lie_bracket(prolonged.zeta1, prolonged.w4, registry)
    rows = []
    points = [prolonged.base_point] + list(
        prolonged.box.sample_points(samples))
    for point in points:
        red = reduce_mod(bracket1, prolonged.layer_frame(4), point, rtol,
                         registry)
        if not red.member:
            raise StructureError(
                "pointwise correction solve is inconsistent at "
                + _format_point(point))
        rows.append((tuple(sorted(point.items())),
                     -float(red.coefficients[-1])))
    warning = ("no closed form produced (symbolic elimination degenerated: "
               + reason + "); values are pointwise samples only")
    return SolveEResult(symbolic=False, expression=None, k_field=None,
                        l_field=prolonged.zeta2.renamed("L"),
                        table=tuple(rows), warning=warning)


# ---------------------------------------------------------------------------
# symbol algebra at a point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolAlgebraReport:
    """Graded bracket table of the splitting at a point.

    The graded basis is built by bracketing: the K and L values span the
    degree -1 part, then e3 = [K, L], e4 = [K, e3], e5 = [K, e4],
    e6 = [L, e5].  Under this normalization only three relations are
    genuine tests (the three that assert a bracket drops weight); the
    remaining table entries hold by construction.  `entries` records
    (name, passed, detail) triples; `passed` requires all gradings to be
    achieved and the three vanishing relations to hold.
    """

    point: tuple
    entries: tuple
    passed: bool
    representatives: tuple = ()

    def entry(self, name: str):
        for e in self.entries:
            if e[0] == name:
                return e
        raise KeyError(name)


def symbol_algebra_at(structure: PseudoProductStructure,
                      point: Optional[dict] = None,
                      rtol: float = linalg.FLOAT_RTOL) -> SymbolAlgebraReport:
    """Evaluate the graded bracket table of the splitting at a point."""
    registry = structure.registry
    if point is None:
        point = structure.base_point
    flag = structure.flag
    if flag.growth != _GROWTH_PROLONGED:
        raise GradingError(
            f"flag growth {flag.growth} does not provide the five graded "
            "layers")
    k, l = structure.k_field, structure.l_field
    e3 = lie_bracket(k, l, registry).renamed("e3")
    e4 = lie_bracket(k, e3, registry).renamed("e4")
    e5 = lie_bracket(k, e4, registry).renamed("e5")
    e6 = lie_bracket(l, e5, registry).renamed("e6")

    layer_fields = {d: flag.frames[d].fields for d in range(5)}
    entries = []

    def grading(name, rep, depth, expected_rank):
        achieved = rank_at(layer_fields[depth] + (rep,), point, rtol,
                           registry)
        ok = achieved == expected_rank
        detail = (f"rank of layer {depth} plus {name} is {achieved}, "
                  f"expected {expected_rank}")
        entries.append((f"{name} generates its layer", ok, detail))
        return ok

    def vanishing(name, bracket_field, depth):
        res = reduce_mod(
            bracket_field,
            Frame(structure.z_chart, layer_fields[depth],
                  structure.base_point, registry),
            point, rtol, registry)
        detail = ("reduces into layer " + str(depth) if res.member else
                  f"residual {tuple(float(r) for r in res.residual)}")
        entries.append((name, res.member, detail))
        return res.member

    ok = True
    ok &= grading("e3", e3, 0, 3)
    ok &= grading("e4", e4, 1, 4)
    ok &= grading("e5", e5, 2, 5)
    ok &= grading("e6", e6, 3, 6)
    ok &= vanishing("[L, e3] drops weight", lie_bracket(l, e3, registry), 1)
    ok &= vanishing("[L, e4] drops weight", lie_bracket(l, e4, registry), 2)
    ok &= vanishing("[K, e5] drops weight", lie_bracket(k, e5, registry), 3)

    reps = tuple(
        (f.name, tuple(f.evaluate_at(point, registry)))
        for f in (k.renamed("e1"), l.renamed("e2"), e3, e4, e5, e6))
    return SymbolAlgebraReport(
        point=tuple(sorted(point.items())), entries=tuple(entries),
        passed=bool(ok), representatives=reps)
