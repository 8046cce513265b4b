"""Tests for growth-(2,3,5) verification, prolongation, the correction
scalar, and the seven-condition certification of the splitting."""

import functools
import random
from fractions import Fraction

import numpy as np
import pytest

from dist235 import distduality, linalg, vecfield
from dist235.boxes import Box
from dist235.conedual import (
    ConeFamily, builtin_model, check_nondegenerate, prolong_cone,
)
from dist235.distduality import (
    _CONDITIONS, Check235Report, ConditionResult, Distribution235,
    GradingError, GrowthError, PseudoProductReport, PseudoProductStructure,
    StructureError, _format_point, check_235, prolong_235, solve_e, symbol_algebra_at, verify_pseudo_product,
)
from dist235.models import BUNDLED
from dist235.scalar import (
    OpaqueRegistry, evaluate, is_zero, parse_expr, to_text,
)
from dist235.vecfield import (
    Chart, ChartError, ChartMismatchError, Frame, OneForm, VectorField,
    _bracket, combine, coordinate_field, lie_bracket, rank_at,
)

from helpers import (
    count_calls, full_frame, on_fresh_charts, random_point,
    record_evaluations, repeated_evaluations, text_field,
)

TOL = 1e-9
SEED = 20260822

BASE_CHART = Chart(("x", "y", "y1", "y2", "z"))


def flat_model():
    """The classical flat model: one generator carries the square of the
    last jet variable into the z-slot."""
    eta1 = text_field(
        BASE_CHART, ["1", "y1", "y2", "0", "y2^2"], name="eta1")
    eta2 = text_field(
        BASE_CHART, ["0", "0", "0", "1", "0"], name="eta2")
    return eta1, eta2


def cubic_model():
    """Flat model perturbed by a cubic term in the middle jet variable."""
    eta1 = text_field(
        BASE_CHART, ["1", "y1", "y2", "0", "y2^2 + y1^3"], name="eta1")
    eta2 = text_field(
        BASE_CHART, ["0", "0", "0", "1", "0"], name="eta2")
    return eta1, eta2


def make_registry():
    """Opaque chain a -> a1 -> a2 with cubic evaluators (a is u^3)."""
    reg = OpaqueRegistry()
    reg.register("a2", evaluator=lambda u: 6.0 * u,
                 derivative=parse_expr("6", ()))
    reg.register("a1", evaluator=lambda u: 3.0 * u * u, derivative="a2")
    reg.register("a", evaluator=lambda u: u ** 3, derivative="a1")
    return reg


# ---------------------------------------------------------------------------
# growth checking
# ---------------------------------------------------------------------------

class TestCheck235:
    def test_flat_model_passes(self):
        eta1, eta2 = flat_model()
        report = check_235(eta1, eta2, BASE_CHART.origin())
        assert report.passed
        assert report.growth == (2, 3, 5)
        assert report.constant_rank
        assert bool(report)

    def test_involutive_pair_fails_with_growth_2(self):
        eta1 = text_field(BASE_CHART, ["1", "0", "0", "0", "0"])
        eta2 = text_field(BASE_CHART, ["0", "1", "0", "0", "0"])
        report = check_235(eta1, eta2, BASE_CHART.origin())
        assert not report.passed
        assert report.growth == (2,)
        assert any("growth" in f for f in report.failures)

    def test_dependent_pair_fails_with_witness(self):
        eta1, _ = flat_model()
        eta2 = text_field(
            BASE_CHART, ["x", "x*y1", "x*y2", "0", "x*y2^2"])
        report = check_235(eta1, eta2, BASE_CHART.origin())
        assert not report.passed
        assert report.growth == (1,)
        assert any("rank" in f for f in report.failures)

    def test_rank_drop_on_the_box_reads_as_text(self):
        # layer 2 loses rank where 1 - 8x vanishes, inside the default box
        _, eta2 = flat_model()
        eta1 = text_field(
            BASE_CHART, ["1", "y1", "y2", "0", "(1 - 8*x)*y2^2"])
        report = check_235(eta1, eta2, BASE_CHART.origin())
        assert not report.passed and not report.constant_rank
        assert report.growth == (2, 3, 5)
        assert report.failures == (
            "plane field has rank 4 in layer 2 at (x=1/8, y=-7/36, "
            "y1=1/20, y2=-1/28, z=-5/44), 5 at the base point",)

    def test_wrong_dimension_rejected(self):
        chart = Chart(("x", "y", "z"))
        v = text_field(chart, ["1", "0", "0"])
        w = text_field(chart, ["0", "1", "0"])
        with pytest.raises(ChartError):
            check_235(v, w, chart.origin())

    def test_chart_mismatch_rejected(self):
        eta1, _ = flat_model()
        other = Chart(("a", "b", "c", "d", "e"))
        w = text_field(other, ["0", "0", "0", "1", "0"])
        with pytest.raises(ChartMismatchError):
            check_235(eta1, w, BASE_CHART.origin())


class TestDistribution235:
    def test_constructor_validates(self):
        eta1, eta2 = flat_model()
        dist = Distribution235(BASE_CHART, eta1, eta2, BASE_CHART.origin())
        assert dist.report.passed

    def test_generators_on_another_chart_rejected(self):
        # the flat model written on a second chart: a valid (2,3,5) pair,
        # but not on the chart the distribution declares
        other = Chart(("a", "b", "c", "d", "e"))
        eta1 = text_field(other, ["1", "c", "d", "0", "d^2"])
        eta2 = text_field(other, ["0", "0", "0", "1", "0"])
        assert check_235(eta1, eta2, other.origin()).passed
        with pytest.raises(ChartMismatchError):
            Distribution235(BASE_CHART, eta1, eta2, other.origin())

    def test_constructor_rejects_involutive(self):
        eta1 = text_field(BASE_CHART, ["1", "0", "0", "0", "0"])
        eta2 = text_field(BASE_CHART, ["0", "1", "0", "0", "0"])
        with pytest.raises(GrowthError):
            Distribution235(BASE_CHART, eta1, eta2, BASE_CHART.origin())

    def test_constructor_rejects_dependent_pair(self):
        eta1, _ = flat_model()
        eta2 = text_field(
            BASE_CHART, ["x", "x*y1", "x*y2", "0", "x*y2^2"])
        with pytest.raises(GrowthError):
            Distribution235(BASE_CHART, eta1, eta2, BASE_CHART.origin())

    def test_flat_model_bracket_components(self):
        # Frozen by hand: eta3 = -(d/dy1 + 2 y2 d/dz), eta4 = d/dy,
        # eta5 = -2 d/dz.
        eta1, eta2 = flat_model()
        dist = Distribution235(BASE_CHART, eta1, eta2, BASE_CHART.origin())
        assert [to_text(c) for c in dist.eta3.components] == \
            ["0", "0", "-1", "0", "-2*y2"]
        assert [to_text(c) for c in dist.eta4.components] == \
            ["0", "1", "0", "0", "0"]
        assert [to_text(c) for c in dist.eta5.components] == \
            ["0", "0", "0", "0", "-2"]

    def test_full_frame_has_rank_five(self):
        eta1, eta2 = flat_model()
        dist = Distribution235(BASE_CHART, eta1, eta2, BASE_CHART.origin())
        assert full_frame(dist).rank == 5


# ---------------------------------------------------------------------------
# prolongation
# ---------------------------------------------------------------------------

class TestProlong:
    def test_flat_growth_23456(self):
        eta1, eta2 = flat_model()
        dist = Distribution235(BASE_CHART, eta1, eta2, BASE_CHART.origin())
        pro = prolong_235(dist)
        assert pro.growth == (2, 3, 4, 5, 6)
        assert pro.z_chart.variables == ("x", "y", "y1", "y2", "z", "t")

    def test_horizontal_fiber_bracket_is_minus_second_generator(self):
        # [zeta1, zeta2] = -eta2 holds as an exact identity of components.
        eta1, eta2 = flat_model()
        dist = Distribution235(BASE_CHART, eta1, eta2, BASE_CHART.origin())
        pro = prolong_235(dist)
        bracket = lie_bracket(pro.zeta1, pro.zeta2)
        expected = dist.eta2.lifted(pro.z_chart)
        for got, want in zip(bracket.components, expected.components):
            total = parse_expr(f"({to_text(got)}) + ({to_text(want)})",
                               pro.z_chart.variables)
            assert is_zero(total, pro.box,
                           pro.z_chart).status == "provably-zero"

    def test_fiber_name_collision_rejected(self):
        # a model chart may name a coordinate after the fiber
        chart = Chart(("x", "y", "y1", "y2", "t"))
        eta1 = text_field(chart, ["1", "y1", "y2", "0", "y2^2"])
        eta2 = text_field(chart, ["0", "0", "0", "1", "0"])
        dist = Distribution235(chart, eta1, eta2, chart.origin())
        with pytest.raises(ChartError, match="collides"):
            prolong_235(dist)


# ---------------------------------------------------------------------------
# the correction scalar
# ---------------------------------------------------------------------------

class TestSolveE:
    def test_one_elimination_for_every_bracket(self, monkeypatch):
        # the ten brackets [zeta1, w] and [zeta2, w] share one elimination
        # of the frame, and each target's coefficients are those it gets
        # alone
        eta1, eta2 = cubic_model()
        pro = prolong_235(Distribution235(BASE_CHART, eta1, eta2,
                                          BASE_CHART.origin()))
        calls = count_calls(monkeypatch, distduality, "symbolic_decompose")
        assert to_text(solve_e(pro).expression) == "3*y1*y2"
        assert len(calls) == 1
        layer3, layer4 = pro.flag.frames[3:5]
        basis = layer4.fields
        assert basis[:5] == layer3.fields
        targets = [lie_bracket(z, w)
                   for w in layer3.fields
                   for z in (pro.zeta1, pro.zeta2)]
        together = vecfield.symbolic_decompose(
            targets, basis, pro.base_point)
        assert len(together) == 10
        for target, coeffs in zip(targets, together):
            assert vecfield.symbolic_decompose(
                (target,), basis, pro.base_point) == (coeffs,)

    def test_no_bracket_beyond_the_flag(self):
        # the flag's passes built every bracket [zeta_k, w] that solve_e
        # decomposes but the mirror [zeta2, zeta1], which no pass folds
        eta1, eta2 = on_fresh_charts(cubic_model())
        pro = prolong_235(Distribution235(eta1.chart, eta1, eta2,
                                          BASE_CHART.origin()))
        misses = _bracket.cache_info().misses
        solve_e(pro)
        assert _bracket.cache_info().misses == misses + 1
        lie_bracket(pro.zeta2, pro.zeta1)
        assert _bracket.cache_info().misses == misses + 1

    def test_picked_equation_not_checked_again(self, monkeypatch):
        # the picked equation's residual a - (a/b)*b is zero by
        # construction; the consistency check tests the four others
        pro = prolong_235(Distribution235(BASE_CHART, *cubic_model(),
                                          BASE_CHART.origin()))
        calls = count_calls(monkeypatch, distduality, "is_zero")
        assert to_text(solve_e(pro).expression) == "3*y1*y2"
        assert len(calls) == 4

    def test_flat_model_correction_vanishes(self):
        eta1, eta2 = flat_model()
        dist = Distribution235(BASE_CHART, eta1, eta2, BASE_CHART.origin())
        pro = prolong_235(dist)
        result = solve_e(pro)
        assert to_text(result.expression) == "0"

    def test_cubic_model_closed_form(self):
        # Frozen by hand: the cubic perturbation contributes
        # 6*y1*y2 * d/dz to [zeta1, eta4 + t*eta5], and the complement
        # direction eta5 is -2 d/dz, so the correction scalar is 3*y1*y2.
        eta1, eta2 = cubic_model()
        dist = Distribution235(BASE_CHART, eta1, eta2, BASE_CHART.origin())
        pro = prolong_235(dist)
        result = solve_e(pro)
        difference = parse_expr(
            f"({to_text(result.expression)}) - 3*y1*y2", pro.z_chart.variables)
        assert is_zero(difference, pro.box,
                       pro.z_chart).status == "provably-zero"

    def test_cubic_model_against_pointwise_oracle(self):
        # Independent oracle: at 50 random points, solve the 6x6 linear
        # systems of [zeta1, w] and [zeta2, w], w the last layer-3
        # generator, numerically with numpy; e = -a/b for their
        # complement coordinates a and b.
        eta1, eta2 = cubic_model()
        dist = Distribution235(BASE_CHART, eta1, eta2, BASE_CHART.origin())
        pro = prolong_235(dist)
        result = solve_e(pro)
        frame_fields = pro.flag.frames[4].fields
        w = pro.flag.frames[3].fields[-1]
        brackets = [lie_bracket(z, w) for z in (pro.zeta1, pro.zeta2)]
        rng = random.Random(SEED)
        for _ in range(50):
            point = random_point(rng, pro.z_chart.variables)
            columns = np.array(
                [[float(v) for v in f.evaluate_at(point)]
                 for f in frame_fields]).T
            a, b = (np.linalg.solve(columns, np.array(
                [float(v) for v in bracket.evaluate_at(point)]))[-1]
                for bracket in brackets)
            oracle = -a / b
            symbolic = float(evaluate(result.expression, point))
            assert abs(symbolic - oracle) <= TOL * (1.0 + abs(oracle))

    def test_self_check_bracket_invariance_at_samples(self):
        # With the returned correction, [K, w] reduces into layer 3 for
        # every layer-3 generator w at 20 sample points.
        eta1, eta2 = cubic_model()
        dist = Distribution235(BASE_CHART, eta1, eta2, BASE_CHART.origin())
        pro = prolong_235(dist)
        result = solve_e(pro)
        layer3 = pro.flag.frames[3]
        for w in layer3.fields:
            bracket = lie_bracket(result.k_field, w)
            for point in pro.box.sample_points(20):
                assert reference_member(bracket, layer3, point)

    def test_opaque_coefficient_matches_cubic_model(self):
        # Same geometry with the cubic entering through an opaque symbol:
        # the computed correction must agree numerically with 3*y1*y2.
        registry = make_registry()
        chart = Chart(BASE_CHART.variables, registry)
        eta1 = text_field(
            chart, ["1", "y1", "y2", "0", "y2^2 + a(y1)"], name="eta1")
        eta2 = text_field(chart, ["0", "0", "0", "1", "0"], name="eta2")
        dist = Distribution235(chart, eta1, eta2, chart.origin())
        pro = prolong_235(dist)
        result = solve_e(pro)
        rng = random.Random(SEED + 1)
        for _ in range(30):
            point = random_point(rng, pro.z_chart.variables)
            got = float(evaluate(result.expression, point, registry))
            want = 3.0 * float(point["y1"]) * float(point["y2"])
            assert abs(got - want) <= TOL * (1.0 + abs(want))

    def test_small_scale_pivot_solves_symbolically(self):
        # A pivot is zero only when it is exactly 0: with eta2 scaled by
        # 10^-7 the frame's pivots fall far below any float cut-off, and
        # the correction is still solved in closed form.
        eta1, _ = flat_model()
        eta2 = text_field(
            BASE_CHART, ["0", "0", "0", "1/10000000", "0"], name="eta2")
        dist = Distribution235(BASE_CHART, eta1, eta2, BASE_CHART.origin())
        result = solve_e(prolong_235(dist))
        assert to_text(result.expression) == "0"


# ---------------------------------------------------------------------------
# reparametrization invariance and the round trip
# ---------------------------------------------------------------------------

class TestInvariance:
    def test_second_generator_shift_preserves_k_line(self):
        # Replacing the second generator by eta2 + lambda*eta1 moves the
        # fiber coordinate by t -> t/(1 - lambda*t); the K-lines at
        # corresponding points must agree as lines.
        lam = Fraction(1, 3)
        eta1, eta2 = cubic_model()
        shifted = text_field(
            BASE_CHART,
            [f"({to_text(b)}) + ({lam}) * ({to_text(a)})"
             for a, b in zip(eta1.components, eta2.components)],
            name="eta2s")
        dist = Distribution235(BASE_CHART, eta1, eta2, BASE_CHART.origin())
        dist2 = Distribution235(BASE_CHART, eta1, shifted,
                                BASE_CHART.origin())
        pro = prolong_235(dist)
        pro2 = prolong_235(dist2)
        k1 = solve_e(pro).k_field
        k2 = solve_e(pro2).k_field
        rng = random.Random(SEED + 2)
        for _ in range(10):
            point = random_point(rng, pro.z_chart.variables, span=0.25)
            t = point["t"]
            t2 = t / (1 - lam * t)
            point2 = dict(point)
            point2["t"] = t2
            v1 = np.array([float(c) for c in k1.evaluate_at(point)])
            # push the fiber component through the coordinate change
            jac = 1.0 / float((1 - lam * t) ** 2)
            v1[-1] *= jac
            v2 = np.array([float(c) for c in k2.evaluate_at(point2)])
            v1 /= np.linalg.norm(v1)
            v2 /= np.linalg.norm(v2)
            residual = v1 - np.dot(v1, v2) * v2
            assert np.linalg.norm(residual) <= 1e-9

    def test_projected_k_lines_span_the_plane_field(self):
        # The first five components of K at (y, t), collected over a few
        # fiber values, recover exactly the plane at y.
        eta1, eta2 = cubic_model()
        dist = Distribution235(BASE_CHART, eta1, eta2, BASE_CHART.origin())
        pro = prolong_235(dist)
        k = solve_e(pro).k_field
        fiber_values = [Fraction(0), Fraction(1, 3), Fraction(-1, 2)]
        for point in dist.box.sample_points(20):
            projected = []
            for t in fiber_values:
                zp = dict(point)
                zp["t"] = t
                projected.append(tuple(k.evaluate_at(zp))[:5])
            plane = [tuple(eta1.evaluate_at(point)),
                     tuple(eta2.evaluate_at(point))]
            # rank-2 agreement: projections span the plane and no more
            assert rank_at((eta1, eta2), point) == 2
            combined = [list(r) for r in plane] + [list(r)
                                                  for r in projected]
            mat = np.array([[float(v) for v in row] for row in combined])
            rank = np.linalg.matrix_rank(mat, tol=1e-9)
            assert rank == 2


# ---------------------------------------------------------------------------
# the seven conditions
# ---------------------------------------------------------------------------

def build_flat_structure():
    eta1, eta2 = flat_model()
    dist = Distribution235(BASE_CHART, eta1, eta2, BASE_CHART.origin())
    pro = prolong_235(dist)
    result = solve_e(pro)
    return pro, result.structure(pro, name="flat")


class TestVerifyPseudoProduct:
    def test_flat_structure_valid(self):
        _, structure = build_flat_structure()
        report = verify_pseudo_product(structure)
        assert report.valid
        assert report.splitting_ok
        assert report.growth == (2, 3, 4, 5, 6)
        assert all(c.passed for c in report.conditions)
        assert len(report.conditions) == 7

    def test_each_field_evaluated_once_per_point(self, monkeypatch):
        # conditions on nested frames ask for the same brackets again:
        # equal fields share one row of the point's table
        _, structure = build_flat_structure()
        calls = record_evaluations(monkeypatch)
        assert verify_pseudo_product(structure).valid
        assert calls and repeated_evaluations(calls) == []

    def test_cubic_structure_valid(self):
        eta1, eta2 = cubic_model()
        dist = Distribution235(BASE_CHART, eta1, eta2, BASE_CHART.origin())
        pro = prolong_235(dist)
        structure = solve_e(pro).structure(pro, name="cubic")
        report = verify_pseudo_product(structure)
        assert report.valid

    def test_swapped_roles_fail_with_rank_witness(self):
        # Exchanging K and L preserves condition 1 but stalls the growth
        # of condition 2: brackets of the fiber direction with the first
        # layer add no rank.
        _, structure = build_flat_structure()
        report = verify_pseudo_product(structure.swapped())
        assert not report.valid
        assert report.condition(1).passed
        cond2 = report.condition(2)
        assert not cond2.passed
        assert not cond2.growth_ok
        assert any("rank stalls" in w for w in cond2.witnesses)

    def test_swapped_roles_failure_set_is_frozen(self):
        # Frozen by hand for the flat model: with the roles exchanged,
        # conditions 2, 4, 7 stall in rank and 3, 5, 6 fail inclusion.
        _, structure = build_flat_structure()
        report = verify_pseudo_product(structure.swapped())
        assert report.failed_conditions() == (2, 3, 4, 5, 6, 7)
        for index in (3, 5, 6):
            assert not report.condition(index).inclusion_ok
        for index in (2, 4, 7):
            assert not report.condition(index).growth_ok

    def test_wrong_growth_rejected_at_build(self):
        # A plane field on a 6-chart whose flag stalls is rejected before
        # any condition is evaluated.
        chart = Chart(("a", "b", "c", "d", "e", "f"))
        v = text_field(chart, ["1", "0", "0", "0", "0", "0"])
        w = text_field(chart, ["0", "1", "0", "0", "0", "0"])
        with pytest.raises(GrowthError):
            PseudoProductStructure.build(
                chart, (v, w), v, w, chart.origin())

    def test_rank_drop_on_the_box_rejected_at_build(self):
        # A non-degenerate cone family whose plane field grows as
        # (2, 3, 4, 5, 6) at the origin, while layers 3 and 4 have rank 4
        # at the first Halton point of its box: the sampled rank verdict
        # must reject the splitting, not only the base-point growth.
        s = "(th^3 + (13/22)*th^4)"
        chart = Chart(("x1", "x2", "x3", "x4", "x5"))
        components = tuple(
            parse_expr(text, chart.variables + ("th",))
            for text in ("th", "th^2", s, f"x3*th - 2*x2*th^2 + x1*{s}"))
        alpha = OneForm(chart, tuple(
            parse_expr(text, chart.variables)
            for text in ("0", "-x3", "2*x2", "-x1", "1")))
        family = ConeFamily.build(chart, components, alpha)
        assert check_nondegenerate(family)
        zeta1, zeta2 = family.zeta(1), family.zeta(2)
        drop = r"rank 4 in layer 3 at \(x1=0, .*, th=-11/26\)"
        with pytest.raises(GrowthError, match=drop):
            PseudoProductStructure.build(
                family.z_chart, (zeta1, zeta2), zeta1, zeta2,
                family.base_point, family.box)

    def test_flag_of_another_plane_field_rejected(self):
        pro, structure = build_flat_structure()
        other = prolong_235(Distribution235(
            BASE_CHART, *cubic_model(), BASE_CHART.origin()))
        with pytest.raises(StructureError, match="flag"):
            PseudoProductStructure.build(
                structure.z_chart, structure.e_generators,
                structure.k_field, structure.l_field, structure.base_point,
                structure.box, flag=other.flag)

    def test_non_section_k_rejected(self):
        pro, structure = build_flat_structure()
        dist = Distribution235(BASE_CHART, *flat_model(), BASE_CHART.origin())
        outsider = dist.eta3.lifted(pro.z_chart)  # not a section of E
        with pytest.raises(StructureError):
            PseudoProductStructure.build(
                structure.z_chart, structure.e_generators, outsider,
                structure.l_field, structure.base_point)

    def test_field_on_a_chart_with_another_registry_rejected(self):
        _, structure = build_flat_structure()
        twin = Chart(structure.z_chart.variables, OpaqueRegistry())
        l_field = VectorField(twin, structure.l_field.components, "L")
        with pytest.raises(ChartMismatchError):
            PseudoProductStructure.build(
                structure.z_chart, structure.e_generators,
                structure.k_field, l_field, structure.base_point)


def reference_member(v, frame, point):
    """Membership decided apart from `PointValues`: a `linalg.Span` of
    the frame's values, evaluated afresh at the point."""
    span = linalg.Span([w.evaluate_at(point) for w in frame.fields])
    return span.contains(v.evaluate_at(point))


def reference_verify(structure, samples=32):
    """The per-bracket loop verify_pseudo_product replaced, kept as its
    reference: every membership goes through reference_member and every
    rank through rank_at, re-evaluating the layer frame for each bracket
    at each point."""
    flag = structure.flag
    points = [structure.base_point] + list(
        structure.box.sample_points(samples))
    frames = {depth: flag.frames[depth] for depth in range(5)}
    role_fields = {"K": structure.k_field, "L": structure.l_field}

    splitting_witnesses = []
    for point in points:
        for label in ("K", "L"):
            if not reference_member(role_fields[label], frames[0], point):
                splitting_witnesses.append(
                    f"{label} leaves E at {_format_point(point)}")
        pair_rank = rank_at((structure.k_field, structure.l_field), point)
        if pair_rank != 2:
            splitting_witnesses.append(
                f"K and L have joint rank {pair_rank} at "
                f"{_format_point(point)}")
    splitting_ok = not splitting_witnesses

    results = []
    for index, name, role, depth, target, required in _CONDITIONS:
        if role == "pair":
            pairs = [(structure.k_field, structure.l_field)]
        else:
            pairs = [(role_fields[role], w) for w in frames[depth].fields]
        brackets = [(lie_bracket(a, b), a.name or role, b.name or "w")
                    for a, b in pairs]
        witnesses = []
        inclusion_ok = True
        for bracket_field, a_name, b_name in brackets:
            for point in points:
                if not reference_member(bracket_field, frames[target],
                                        point):
                    inclusion_ok = False
                    witnesses.append(
                        f"[{a_name}, {b_name}] leaves layer {target} at "
                        f"{_format_point(point)}")
                    break
        growth_ok = True
        if required is not None:
            extended = frames[depth].fields + tuple(b for b, _, _ in brackets)
            for point in points:
                achieved = rank_at(extended, point)
                if achieved != required:
                    growth_ok = False
                    witnesses.append(
                        f"rank stalls at {achieved} (need {required}) at "
                        f"{_format_point(point)}")
                    break
        results.append(ConditionResult(
            index=index, name=name, requires_growth=required,
            inclusion_ok=inclusion_ok, growth_ok=growth_ok,
            witnesses=tuple(witnesses)))

    valid = splitting_ok and all(r.passed for r in results)
    return PseudoProductReport(
        conditions=tuple(results), splitting_ok=splitting_ok,
        growth=flag.growth, valid=valid,
        splitting_witnesses=tuple(splitting_witnesses))


@functools.lru_cache(maxsize=None)
def bundled_structure(name):
    """The splitting the analyze suite certifies for a bundled model."""
    if name == "hilbert-cartan":
        pro = prolong_235(builtin_model(name))
        return solve_e(pro).structure(pro, name=name)
    params = BUNDLED[name]["expressions"] if name != "flat-cone" else None
    return prolong_cone(builtin_model(name, params))


def leaving_structure():
    """The flat splitting with K tilted by x*d/dz: a section of E at the
    base point (x = 0) only, so K leaves E at most box points."""
    pro, structure = build_flat_structure()
    chart = structure.z_chart
    k_field = combine(structure.k_field, parse_expr("x", chart.variables),
                      coordinate_field(chart, "z"), "K")
    return PseudoProductStructure.build(
        chart, structure.e_generators, k_field, structure.l_field,
        structure.base_point, structure.box, name="leaving")


def opaque_structure():
    """The cubic splitting with the cubic entering through an opaque
    symbol, so every value is a float and membership is decided with
    the relative tolerance."""
    chart = Chart(BASE_CHART.variables, make_registry())
    eta1 = text_field(
        chart, ["1", "y1", "y2", "0", "y2^2 + a(y1)"], name="eta1")
    eta2 = text_field(chart, ["0", "0", "0", "1", "0"], name="eta2")
    dist = Distribution235(chart, eta1, eta2, chart.origin())
    pro = prolong_235(dist)
    return solve_e(pro).structure(pro, name="opaque")


class TestVerifyMatchesReference:
    """The point-outer exact rewrite reports exactly what the per-bracket
    membership loop reports: verdicts, witnesses and their order."""

    @pytest.mark.parametrize("swap", [False, True],
                             ids=["valid", "swapped"])
    @pytest.mark.parametrize("name", ["hilbert-cartan", "flat-cone",
                                      "noncubic-bc"])
    def test_bundled_structures(self, name, swap):
        structure = bundled_structure(name)
        if swap:
            structure = structure.swapped()
        report = verify_pseudo_product(structure)
        assert report == reference_verify(structure)
        assert report.valid != swap
        if swap:
            assert any(c.witnesses for c in report.conditions)

    def test_splitting_witnesses(self):
        structure = leaving_structure()
        report = verify_pseudo_product(structure)
        assert report == reference_verify(structure)
        assert not report.splitting_ok
        assert any(w.startswith("K leaves E at ")
                   for w in report.splitting_witnesses)
        assert not any(w.startswith("L leaves E")
                       for w in report.splitting_witnesses)

    def test_float_values_use_the_tolerance_path(self):
        structure = opaque_structure()
        point = structure.box.sample_points(1)[0]
        assert isinstance(structure.k_field.evaluate_at(point)[4], float)
        for swap in (False, True):
            s = structure.swapped() if swap else structure
            report = verify_pseudo_product(s, samples=8)
            assert report == reference_verify(s, samples=8)
            assert report.valid != swap

    def test_float_span_is_factored_once(self, monkeypatch):
        # one QR per span and one per rank call; the membership tests
        # against a span reuse its QR
        structure = opaque_structure()
        factored = count_calls(monkeypatch, linalg, "_FloatQR")
        spans = count_calls(monkeypatch, linalg, "Span")
        ranks = count_calls(monkeypatch, linalg, "float_rank")
        assert verify_pseudo_product(structure, samples=8).valid
        assert spans and len(factored) <= len(spans) + len(ranks)


def rebuilt_swap(structure):
    """Reference for `swapped`: the swapped structure validated and its
    flag derived again by `PseudoProductStructure.build`."""
    return PseudoProductStructure.build(
        structure.z_chart, structure.e_generators, structure.l_field,
        structure.k_field, structure.base_point, structure.box,
        name=structure.name + "-swapped")


class TestSwapped:
    @pytest.mark.parametrize("name", ["hilbert-cartan", "flat-cone",
                                      "noncubic-bc"])
    def test_swap_reuses_the_flag(self, name):
        structure = bundled_structure(name)
        swapped = structure.swapped()
        assert swapped.flag is structure.flag
        assert (swapped.k_field, swapped.l_field) == \
            (structure.l_field, structure.k_field)
        rebuilt = rebuilt_swap(structure)
        assert swapped == rebuilt
        assert verify_pseudo_product(swapped) == \
            verify_pseudo_product(rebuilt)

    @pytest.mark.parametrize("name", ["hilbert-cartan", "flat-cone",
                                      "noncubic-bc"])
    def test_swap_verification_computes_no_new_bracket(self, name):
        # [L, w] and [K, w] of the swap are [K, w] and [L, w] of the first
        # verification, and [L, K] is [L, zeta1]: in these models K has
        # the components of the layer generator zeta1 (e = 0 for
        # hilbert-cartan; K is the fiber field of a cone family).
        structure = bundled_structure(name)
        verify_pseudo_product(structure)
        misses = _bracket.cache_info().misses
        verify_pseudo_product(structure.swapped())
        assert _bracket.cache_info().misses == misses


# ---------------------------------------------------------------------------
# symbol algebra
# ---------------------------------------------------------------------------

class TestSymbolAlgebra:
    def test_flat_structure_passes_at_base(self):
        _, structure = build_flat_structure()
        report = symbol_algebra_at(structure)
        assert report.passed
        assert len(report.entries) == 7

    def test_flat_structure_passes_off_base(self):
        _, structure = build_flat_structure()
        point = dict(structure.base_point)
        point["x"] = Fraction(1, 8)
        point["t"] = Fraction(-1, 8)
        report = symbol_algebra_at(structure, point)
        assert report.passed

    def test_representatives_recorded(self):
        _, structure = build_flat_structure()
        report = symbol_algebra_at(structure)
        names = [name for name, _ in report.representatives]
        assert names == ["e1", "e2", "e3", "e4", "e5", "e6"]

    def test_bracket_chain_built_once(self, monkeypatch):
        _, structure = build_flat_structure()
        k, l = structure.k_field, structure.l_field
        e3, e4, e5, e6 = structure.bracket_chain
        assert structure.bracket_chain is structure.bracket_chain
        for got, (a, b) in zip((e3, e4, e5, e6),
                               ((k, l), (k, e3), (k, e4), (l, e5))):
            assert got.components == lie_bracket(a, b).components
        # the table brackets only the three weight drops itself
        calls = count_calls(monkeypatch, distduality, "lie_bracket")
        assert symbol_algebra_at(structure).passed
        assert len(calls) == 3

    @pytest.mark.parametrize("name", ["hilbert-cartan", "flat-cone"])
    def test_one_table_and_no_frame(self, monkeypatch, name):
        structure = bundled_structure(name)
        frames = []
        validate = Frame.__post_init__

        def counting(self, values):
            frames.append(self)
            validate(self, values)

        monkeypatch.setattr(Frame, "__post_init__", counting)
        calls = record_evaluations(monkeypatch)
        report = symbol_algebra_at(structure)
        assert report.passed
        assert frames == []
        assert calls and repeated_evaluations(calls) == []

    def test_swapped_structure_fails_weight_drop(self):
        # Frozen by hand: with roles exchanged the bracket [L, e3]
        # produces the bracket of the horizontal generator with the
        # second plane generator, which leaves the first layer.
        _, structure = build_flat_structure()
        report = symbol_algebra_at(structure.swapped())
        assert not report.passed
        assert not report.entry("[L, e3] drops weight")[1]
        assert not report.entry("e4 generates its layer")[1]

    def test_verified_structures_pass_symbol_check(self):
        # Consistency: every structure certified by the seven conditions
        # also realizes the graded bracket table.
        for builder in (flat_model, cubic_model):
            eta1, eta2 = builder()
            dist = Distribution235(BASE_CHART, eta1, eta2,
                                   BASE_CHART.origin())
            pro = prolong_235(dist)
            structure = solve_e(pro).structure(pro)
            assert verify_pseudo_product(structure, samples=8).valid
            assert symbol_algebra_at(structure).passed

    def test_random_perturbations_pass_when_verified(self):
        # Seeded family: random polynomial perturbations of the flat
        # model in the z-slot keep the growth and must certify.
        rng = random.Random(SEED + 3)
        accepted = 0
        for _ in range(5):
            c1 = Fraction(rng.randint(-2, 2))
            c2 = Fraction(rng.randint(-2, 2))
            text = f"y2^2 + ({c1})*y1^2 + ({c2})*y1*y2"
            eta1 = text_field(
                BASE_CHART, ["1", "y1", "y2", "0", text], name="eta1")
            eta2 = text_field(
                BASE_CHART, ["0", "0", "0", "1", "0"], name="eta2")
            report = check_235(eta1, eta2, BASE_CHART.origin())
            if not report.passed:
                continue
            dist = Distribution235(BASE_CHART, eta1, eta2,
                                   BASE_CHART.origin())
            pro = prolong_235(dist)
            structure = solve_e(pro).structure(pro)
            assert verify_pseudo_product(structure, samples=8).valid
            assert symbol_algebra_at(structure).passed
            accepted += 1
        assert accepted >= 3
