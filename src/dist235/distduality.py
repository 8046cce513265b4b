"""Rank-two distributions with growth (2,3,5), their fiberwise direction
prolongation, and the seven-condition certification of the induced
splitting of the prolonged plane field.

The prolonged space carries a rank-2 plane field E spanned by a horizontal
generator and the fiber direction.  Inside E live two distinguished line
fields: K (the horizontal line, corrected by a scalar multiple of the
fiber direction) and L (the fiber line).  `solve_e` determines the unique
correction scalar; `verify_pseudo_product` certifies the seven bracket
conditions that make (K, L) a genuine splitting; `symbol_algebra_at`
checks the graded nilpotent bracket table at a point.  Their work
fills the memo of the chart it is done on (`vecfield.Chart.memo`),
which the prolonged chart shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from . import linalg
from .boxes import DIRECTION_HALF_WIDTH, Box, default_box
from .scalar import (
    _MINUS_ONE, ScalarExpr, Var, _NFBuilder, _value, is_zero, to_text,
)
from .vecfield import (
    Chart, ChartError, ChartMismatchError, DistributionFlag, Frame,
    PointValues, VectorField, combine, coordinate_field, derived_flag,
    lie_bracket, symbolic_decompose,
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
FIBER = "t"  # the direction coordinate of the prolonged chart


def _format_point(point: dict) -> str:
    return "(" + ", ".join(f"{k}={point[k]}" for k in point) + ")"


def _rank_drop(flag: DistributionFlag, witness) -> str:
    """One of `flag.rank_witnesses`, as text."""
    layer, items, rank = witness
    values = dict(items)
    point = {v: values[v] for v in flag.frames[0].chart.variables}
    return (f"rank {rank} in layer {layer} at {_format_point(point)}, "
            f"{flag.growth[layer]} at the base point")


# ---------------------------------------------------------------------------
# growth-(2,3,5) verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check235Report:
    """Outcome of the growth check for a pair of candidate generators."""

    growth: tuple
    passed: bool
    constant_rank: bool
    failures: tuple = ()
    flag: Optional[DistributionFlag] = field(default=None, compare=False)

    def __bool__(self):
        return self.passed


def check_235(eta1: VectorField, eta2: VectorField, base_point: dict,
              box: Optional[Box] = None, samples: int = 16
              ) -> Check235Report:
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
    if box is None:
        box = default_box(base_point)

    failures = []
    at_base = PointValues(base_point)
    base_rank = at_base.rank((eta1, eta2))
    if base_rank < 2:
        failures.append(
            f"generators have rank {base_rank} at {_format_point(base_point)}")
        return Check235Report(growth=(base_rank,), passed=False,
                              constant_rank=False,
                              failures=tuple(failures), flag=None)

    frame = Frame(chart, (eta1, eta2), base_point, at_base)
    flag = derived_flag(frame, box=box, samples=samples)
    if flag.growth != _GROWTH_235:
        failures.append(
            f"growth vector at {_format_point(base_point)} is "
            f"{flag.growth}, expected {_GROWTH_235}")
    failures.extend(f"plane field has {_rank_drop(flag, witness)}"
                    for witness in flag.rank_witnesses)
    passed = flag.growth == _GROWTH_235 and flag.constant_rank
    return Check235Report(growth=flag.growth, passed=passed,
                          constant_rank=flag.constant_rank,
                          failures=tuple(failures), flag=flag)


@dataclass(frozen=True)
class Distribution235:
    """A plane field of growth (2, 3, 5) on a 5-dimensional chart.

    Construction checks that the generators live on `chart` and validates
    the growth vector; the brackets that fill the weak derived flag are
    exposed as `eta3`, `eta4`, `eta5`.
    """

    chart: Chart
    eta1: VectorField
    eta2: VectorField
    base_point: dict = field(compare=False)
    box: Optional[Box] = field(default=None, compare=False)
    name: str = "distribution"

    def __post_init__(self):
        if self.eta1.chart != self.chart:
            raise ChartMismatchError(
                "generators live on another chart than the distribution")
        if self.box is None:
            object.__setattr__(self, "box", default_box(self.base_point))
        report = check_235(self.eta1, self.eta2, self.base_point,
                           box=self.box)
        if not report.passed:
            raise GrowthError(
                f"{self.name}: " + "; ".join(report.failures), report)
        object.__setattr__(self, "_report", report)

    @property
    def report(self) -> Check235Report:
        return self._report

    @cached_property
    def eta3(self) -> VectorField:
        return lie_bracket(self.eta1, self.eta2).renamed("eta3")

    @cached_property
    def eta4(self) -> VectorField:
        return lie_bracket(self.eta1, self.eta3).renamed("eta4")

    @cached_property
    def eta5(self) -> VectorField:
        return lie_bracket(self.eta2, self.eta3).renamed("eta5")


# ---------------------------------------------------------------------------
# prolongation to the 6-dimensional direction space
# ---------------------------------------------------------------------------

def _check_prolonged_flag(flag: DistributionFlag, what: str) -> None:
    """Raise GrowthError unless the flag grows as (2, 3, 4, 5, 6) at the
    base point and every layer keeps its rank at the sampled points of
    the box."""
    if flag.growth != _GROWTH_PROLONGED:
        raise GrowthError(
            f"{what} has growth {flag.growth}, "
            f"expected {_GROWTH_PROLONGED}")
    if not flag.constant_rank:
        raise GrowthError(
            f"{what} has {_rank_drop(flag, flag.rank_witnesses[0])}")


@dataclass(frozen=True)
class ProlongedDistribution:
    """The rank-2 plane field E on the 6-chart of fiberwise directions.

    `zeta1` is the horizontal generator (the direction being prolonged),
    `zeta2` the fiber coordinate field.  `flag.frames[k]` is the frame of
    the k-th weak derived layer, k = 0 (E itself, rank 2) through 4 (the
    whole tangent space, rank 6).
    """

    z_chart: Chart
    zeta1: VectorField
    zeta2: VectorField
    base_point: dict = field(compare=False)
    box: Box = field(compare=False)
    flag: DistributionFlag = field(compare=False)

    @property
    def growth(self) -> tuple:
        return self.flag.growth


def prolong_235(dist: Distribution235) -> ProlongedDistribution:
    """Prolong a growth-(2,3,5) plane field to the 6-chart of directions,
    whose fiber coordinate `FIBER` parametrizes the directions as
    (first generator) + FIBER * (second generator)."""
    if FIBER in dist.chart.variables:
        raise ChartError(
            f"fiber coordinate {FIBER!r} collides with a base coordinate")
    z_chart = dist.chart.extend(FIBER)
    e1, e2 = (f.lifted(z_chart) for f in (dist.eta1, dist.eta2))
    zeta2 = coordinate_field(z_chart, FIBER).renamed("zeta2")
    zeta1 = combine(e1, Var(FIBER), e2, "zeta1")

    z_base = dict(dist.base_point)
    z_base[FIBER] = Fraction(0)
    z_box = Box(dist.box.intervals
                + ((FIBER, -DIRECTION_HALF_WIDTH, DIRECTION_HALF_WIDTH),))

    frame = Frame(z_chart, (zeta1, zeta2), z_base)
    flag = derived_flag(frame, box=z_box)
    _check_prolonged_flag(flag, "prolonged plane field")
    return ProlongedDistribution(
        z_chart=z_chart, zeta1=zeta1, zeta2=zeta2, base_point=z_base,
        box=z_box, flag=flag)


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
    name: str = "structure"

    @classmethod
    def build(cls, z_chart: Chart, e_generators: Sequence[VectorField],
              k_field: VectorField, l_field: VectorField, base_point: dict,
              box: Optional[Box] = None, name: str = "structure",
              flag: Optional[DistributionFlag] = None
              ) -> "PseudoProductStructure":
        """Validate the splitting and derive the weak derived flag of E on
        the box, or take `flag`, one already derived from these
        generators on this box."""
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
        at_base = PointValues(base_point)
        e_frame = Frame(z_chart, gens, base_point, at_base)
        # K and L must be sections of E, independent at the base point.
        for line, label in ((k_field, "K"), (l_field, "L")):
            residual = at_base.residual(line, e_frame)
            if residual is not None:
                raise StructureError(
                    f"{label} generator is not a section of E at the "
                    f"base point (residual {residual})")
        if at_base.rank((k_field, l_field)) != 2:
            raise StructureError(
                "K and L generators are dependent at the base point")
        if flag is None:
            flag = derived_flag(e_frame, box=box)
        elif flag.frames[0] != e_frame:
            raise StructureError("the given flag is not that of E")
        _check_prolonged_flag(flag, f"{name}: plane field")
        return cls(z_chart=z_chart, e_generators=gens, k_field=k_field,
                   l_field=l_field, base_point=base_point, box=box,
                   flag=flag, name=name)

    @cached_property
    def bracket_chain(self) -> tuple:
        """(e3, e4, e5, e6) = ([K, L], [K, e3], [K, e4], [L, e5])."""
        k, l = self.k_field, self.l_field
        e3 = lie_bracket(k, l)
        e4 = lie_bracket(k, e3)
        e5 = lie_bracket(k, e4)
        return e3, e4, e5, lie_bracket(l, e5)

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


def verify_pseudo_product(structure: PseudoProductStructure,
                          samples: int = 32) -> PseudoProductReport:
    """Evaluate the seven bracket conditions of the splitting.

    Each condition is checked as an inclusion (every bracket lies in the
    span of the target layer frame) and, where the condition asserts
    equality with the next layer, as a rank-increase check (the brackets
    together with the smaller layer achieve the larger layer's rank).
    Both checks, and the splitting check that K and L are independent
    sections of E, are sampled: they run at the base point and at
    `samples` deterministic Halton points of the structure's box.  At each
    point one `PointValues` table evaluates every field (layer generators,
    K, L and the brackets) once and eliminates each layer frame once, in
    exact integer arithmetic when the values are rational.  A failing
    bracket is witnessed by the first point where it leaves its layer, a
    stalled condition by the first point where the rank falls short.
    """
    flag = structure.flag
    points = [structure.base_point] + list(
        structure.box.sample_points(samples))
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
            (lie_bracket(a, b), a.name or role, b.name or "w")
            for a, b in pairs))

    splitting_witnesses = []
    exits = [[None] * len(group) for group in brackets]
    stalls = [None] * len(_CONDITIONS)
    for point in points:
        at = PointValues(point)
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
    on layer 3, as a closed form, together with the resulting K and L
    generators."""

    expression: ScalarExpr
    k_field: VectorField
    l_field: VectorField

    def structure(self, prolonged: ProlongedDistribution,
                  name: str = "structure") -> PseudoProductStructure:
        return PseudoProductStructure.build(
            prolonged.z_chart, (prolonged.zeta1, prolonged.zeta2),
            self.k_field, self.l_field, prolonged.base_point,
            prolonged.box, name=name,
            flag=prolonged.flag)


def solve_e(prolonged: ProlongedDistribution) -> SolveEResult:
    """Determine the scalar e with K = zeta1 + e*zeta2 whose bracket with
    every layer-3 frame generator stays in layer 3.

    The layer-4 frame of the flag is the layer-3 frame plus one field,
    the complement.  For each generator w of the layer-3 frame the
    complement coordinate of [zeta1 + e*zeta2, w] is a + e*b, with a and
    b the complement coordinates of [zeta1, w] and [zeta2, w]: the
    derivative term (w e) * zeta2 never contributes, since zeta2 lies
    inside layer 3.  The flag's passes built those of these brackets
    they tried (all but the mirror [zeta2, zeta1] for the Hilbert-Cartan
    and cubic models), and the chart's memo returns them; all are
    decomposed over the layer-4 frame in one exact elimination (pivots
    chosen nonzero at the base point); the system is then solved.
    `prolong_235` found that frame to have rank 6 at the base point, so
    the elimination always finds its pivots.
    """
    z_chart = prolonged.z_chart
    layer3, layer4 = prolonged.flag.frames[3:5]
    l_field = prolonged.zeta2

    brackets = [lie_bracket(z, w) for w in layer3.fields
                for z in (prolonged.zeta1, prolonged.zeta2)]
    coeffs = symbolic_decompose(brackets, layer4.fields,
                                prolonged.base_point)
    complement = [c[-1] for c in coeffs]
    pairs = list(zip(complement[::2], complement[1::2]))

    # Pick the equation whose linear coefficient is largest at the base
    # point; for the Hilbert-Cartan model this is the bracket with the
    # last layer-3 generator, whose coefficient is exactly 1.
    best = linalg.largest_nonzero(
        [_value(b, prolonged.base_point, z_chart.registry)
         for _, b in pairs])
    if best is None:
        raise StructureError(
            "no bracket produces a usable linear coefficient for the "
            "correction scalar at the base point")
    a, b = pairs[best]
    builder = _NFBuilder(z_chart)
    reuse = builder.reuse
    e = builder.finish(builder.product(
        (_MINUS_ONE, reuse(a), builder.power(reuse(b), -1))))

    # Consistency: every other equation a_w + e*b_w must vanish (the
    # picked one is a - (a/b)*b, zero in exact arithmetic).  The check
    # is numeric over the box (the equations may involve opaque
    # coefficients), with a hard failure instead of a silent bad answer.
    box = prolonged.box
    for a_w, b_w in pairs[:best] + pairs[best + 1:]:
        residual = builder.finish(builder.sum(
            (reuse(a_w), builder.product((reuse(e), reuse(b_w))))))
        verdict = is_zero(residual, box, z_chart)
        if verdict.status == "nonzero":
            raise StructureError(
                "correction equations are inconsistent: residual "
                f"{to_text(residual.tree)} is nonzero at "
                f"{_format_point(verdict.witness)}")

    k_field = combine(prolonged.zeta1, e, prolonged.zeta2, "K")
    return SolveEResult(expression=e.tree, k_field=k_field,
                        l_field=l_field.renamed("L"))


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
                      point: Optional[dict] = None) -> SymbolAlgebraReport:
    """Evaluate the graded bracket table of the splitting at a point,
    against the layer frames of the structure's flag; one `PointValues`
    table evaluates each field once."""
    if point is None:
        point = structure.base_point
    flag = structure.flag
    if flag.growth != _GROWTH_PROLONGED:
        raise GradingError(
            f"flag growth {flag.growth} does not provide the five graded "
            "layers")
    chain = (structure.k_field, structure.l_field) + structure.bracket_chain
    k, l, e3, e4, e5 = chain[:5]

    at = PointValues(point)
    entries = []

    def grading(name, rep, depth, expected_rank):
        achieved = at.rank(flag.frames[depth].fields + (rep,))
        ok = achieved == expected_rank
        detail = (f"rank of layer {depth} plus {name} is {achieved}, "
                  f"expected {expected_rank}")
        entries.append((f"{name} generates its layer", ok, detail))
        return ok

    def vanishing(name, bracket_field, depth):
        residual = at.residual(bracket_field, flag.frames[depth])
        member = residual is None
        detail = ("reduces into layer " + str(depth) if member else
                  f"residual {tuple(float(r) for r in residual)}")
        entries.append((name, member, detail))
        return member

    ok = True
    for depth in range(4):
        ok &= grading(f"e{depth + 3}", chain[depth + 2], depth, depth + 3)
    ok &= vanishing("[L, e3] drops weight", lie_bracket(l, e3), 1)
    ok &= vanishing("[L, e4] drops weight", lie_bracket(l, e4), 2)
    ok &= vanishing("[K, e5] drops weight", lie_bracket(k, e5), 3)

    reps = tuple((f"e{i}", tuple(at.value(f)))
                 for i, f in enumerate(chain, 1))
    return SymbolAlgebraReport(
        point=tuple(sorted(point.items())), entries=tuple(entries),
        passed=bool(ok), representatives=reps)
