"""Tests for cone families: construction, non-degeneracy, Lagrangian
compatibility, the osculating spaces, the bracket-osculation condition,
the Cauchy-characteristic correction, and the induced splitting."""

import json
import random
from fractions import Fraction

import pytest

from dist235 import conedual
from dist235.cli import canonical_json, run_suite
from dist235.conedual import (
    ConeFamily, build_model, builtin_model,
    check_lagrangian, check_nondegenerate, check_osculating_condition,
    cone_frame, prolong_cone, solve_U,
)
from dist235.distduality import (
    Distribution235, StructureError, symbol_algebra_at,
    verify_pseudo_product,
)
from dist235.models import BUNDLED, ModelError, parse_model
from dist235.scalar import (
    Const, OpaqueRegistry, Sum, _normal_form, evaluate, is_zero, normalize,
    parse_expr, to_text,
)
from dist235.vecfield import (
    Chart, ChartError, Frame, OneForm, PointValues, exterior_derivative,
    lie_bracket, pair,
)

from helpers import count_calls, time_budget
from test_cli import check_named

TOL = 1e-9
SEED = 47110815

X_CHART = Chart(("x1", "x2", "x3", "x4", "x5"))
Z_VARIABLES = X_CHART.variables + ("th",)
ALPHA = OneForm(X_CHART, tuple(parse_expr(text, X_CHART.variables)
                               for text in ("0", "-x3", "2*x2", "-x1", "1")))


def family_from(a_text, b_text, s_text, name="family"):
    """Family in normal form with the compatible fifth component."""
    t_text = (f"x3*({a_text}) - 2*x2*({b_text}) + x1*({s_text})")
    components = tuple(parse_expr(text, Z_VARIABLES)
                       for text in (a_text, b_text, s_text, t_text))
    return ConeFamily.build(X_CHART, components, ALPHA, name=name)


def compliant_bc(terms):
    """Example family from direction-only perturbations satisfying the
    integral relation: for b = sum beta*th^k the matching c has
    c = sum 3*(k-1)/(k+1) * beta * th^(k+1)."""
    b_parts, c_parts = [], []
    for beta, k in terms:
        b_parts.append(f"({beta})*th^{k}")
        coeff = Fraction(3 * (k - 1), k + 1) * Fraction(beta)
        c_parts.append(f"({coeff})*th^{k + 1}")
    b_text = " + ".join(b_parts) if b_parts else "0"
    c_text = " + ".join(c_parts) if c_parts else "0"
    return builtin_model("noncubic-bc", {"b": b_text, "c": c_text})


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

class TestConeFamilyBuild:
    def test_flat_family_builds_with_exact_annihilation(self):
        family = builtin_model("flat-cone")
        assert family.alpha_status == "provably-zero"
        assert family.z_chart.variables == \
            ("x1", "x2", "x3", "x4", "x5", "th")

    def test_non_contact_form_rejected(self):
        components = tuple(parse_expr(text, Z_VARIABLES)
                           for text in ("th", "th^2", "th^3", "0"))
        alpha = OneForm(X_CHART, tuple(
            parse_expr(text, X_CHART.variables)
            for text in ("0", "0", "0", "0", "1")))
        with pytest.raises(StructureError):
            ConeFamily.build(X_CHART, components, alpha)

    def test_non_annihilating_form_rejected(self):
        # The compatible fifth component replaced by zero: the contact
        # form no longer annihilates the generator.
        components = tuple(parse_expr(text, Z_VARIABLES)
                           for text in ("th", "th^2", "th^3", "0"))
        with pytest.raises(StructureError):
            ConeFamily.build(X_CHART, components, ALPHA)

    def test_wrong_dimension_rejected(self):
        chart = Chart(("x1", "x2", "x3"))
        th = parse_expr("th", ("th",))
        alpha = OneForm(chart, tuple(parse_expr(text, chart.variables)
                                     for text in ("0", "0", "1")))
        with pytest.raises(ChartError):
            ConeFamily.build(chart, (th, th, th, th), alpha)

    def test_direction_name_collision_rejected(self):
        # With trees: text parsed on a chart where the direction is x1
        # would fail to parse "th" before the collision is checked.
        th = parse_expr("th", Z_VARIABLES)
        with pytest.raises(ChartError):
            ConeFamily.build(X_CHART, (th, th, th, th), ALPHA,
                             theta="x1")

    def test_tree_outside_the_chart_rejected(self):
        components = tuple(parse_expr(text, Z_VARIABLES + ("u",))
                           for text in ("th", "th^2", "th^3 + u", "0"))
        with pytest.raises(ChartError, match="undeclared"):
            ConeFamily.build(X_CHART, components, ALPHA)

    @pytest.mark.parametrize("text", (
        "th^3 + F(u)", "th^3/(1 + u)", "th^3 + F(th*u^2)/x1", "th^3 + u - u"))
    def test_hidden_variable_outside_the_chart_rejected(self, text):
        # inside an opaque argument, only in a denominator, or cancelled:
        # a variable the chart does not declare is still named
        registry = OpaqueRegistry()
        registry.register("F", lambda u: u, "F")
        x_chart = Chart(X_CHART.variables, registry)
        alpha = OneForm(x_chart, ALPHA.components)
        components = tuple(parse_expr(t, registry=registry)
                           for t in ("th", "th^2", text, "0"))
        with pytest.raises(ChartError, match=r"undeclared variables \['u'\]"):
            ConeFamily.build(x_chart, components, alpha)

    def test_contact_form_on_another_chart_rejected(self):
        chart = Chart(("y1", "y2", "y3", "y4", "y5"))
        alpha = OneForm(chart, tuple(
            parse_expr(text, chart.variables)
            for text in ("0", "-y3", "2*y2", "-y1", "1")))
        components = tuple(parse_expr(text, Z_VARIABLES)
                           for text in ("th", "th^2", "th^3", "0"))
        with pytest.raises(ChartError, match="wrong chart"):
            ConeFamily.build(X_CHART, components, alpha)

    def test_one_form_instance_accepted(self):
        components = tuple(
            parse_expr(text, Z_VARIABLES)
            for text in ("th", "th^2", "th^3", "x3*th - 2*x2*th^2 + x1*th^3"))
        family = ConeFamily.build(X_CHART, components, ALPHA)
        assert family.alpha is ALPHA


# ---------------------------------------------------------------------------
# the moving frame
# ---------------------------------------------------------------------------

class TestConeFrame:
    def test_flat_generator_components(self):
        family = builtin_model("flat-cone")
        zeta2 = family.zeta(2)
        assert [to_text(c) for c in zeta2.components] == [
            "1", "th", "th^2", "th^3",
            "x1*th^3 - 2*x2*th^2 + x3*th", "0"]

    def test_flat_first_derivative_matches_display(self):
        # Frozen: zeta3 = d2 + 2 th d3 + 3 th^2 d4
        #                + (x3 - 4 x2 th + 3 x1 th^2) d5.
        family = builtin_model("flat-cone")
        assert [to_text(c) for c in family.zeta(3).components] == [
            "0", "1", "2*th", "3*th^2",
            "3*x1*th^2 - 4*x2*th + x3", "0"]

    def test_frame_has_five_fields(self):
        family = builtin_model("flat-cone")
        frame = cone_frame(family)
        assert len(frame) == 5
        assert frame[0].components[5] == parse_expr("1", ())

    def test_third_derivative_is_constant_for_cubic(self):
        family = builtin_model("cubic-a", {"a": "x1"})
        zeta5 = family.zeta(5)
        assert [to_text(c) for c in zeta5.components] == [
            "0", "0", "0", "6", "6*x1", "0"]


# ---------------------------------------------------------------------------
# non-degeneracy
# ---------------------------------------------------------------------------

class TestNondegenerate:
    def test_flat_family_nondegenerate(self):
        assert check_nondegenerate(builtin_model("flat-cone"))

    def test_truncated_family_degenerate(self):
        # Without the cubic part the third derivative vanishes.
        family = family_from("th", "th^2", "0", name="truncated")
        assert not check_nondegenerate(family)

    def test_compliant_bc_family_nondegenerate(self):
        family = builtin_model("noncubic-bc",
                               {"b": "th^3", "c": "3/2*th^4"})
        assert check_nondegenerate(family)

    def test_off_base_point(self):
        family = builtin_model("flat-cone")
        probe = dict(family.base_point)
        probe["x2"] = Fraction(1, 8)
        probe["th"] = Fraction(-1, 4)
        assert check_nondegenerate(family, probe)


# ---------------------------------------------------------------------------
# Lagrangian compatibility
# ---------------------------------------------------------------------------

class TestLagrangian:
    def test_flat_family_passes_symbolically(self):
        report = check_lagrangian(builtin_model("flat-cone"))
        assert report.passed
        assert report.section is None
        assert [status for _, status, _ in report.checks] == \
            ["provably-zero"] * 3
        assert report.box.variables[-1] == "th"

    def test_flat_family_with_zero_section(self):
        report = check_lagrangian(builtin_model("flat-cone"),
                                  Const(0))
        assert report.passed
        assert report.section == "0"
        assert "th" not in report.box.variables

    @pytest.mark.parametrize("name, text, extra", [
        ("flat-cone", "y", "['y']"),
        ("flat-cone", "th", "['th']"),
        ("noncubic-bc-violating", "y", "['y']"),
        ("noncubic-bc-violating", "th", "['th']"),
        ("noncubic-bc-violating", "x1 + z*y/(1 + w)", "['w', 'y', 'z']"),
    ])
    def test_section_off_the_base_chart_rejected(self, name, text, extra):
        with pytest.raises(ChartError) as err:
            check_lagrangian(builtin_model(name), parse_expr(text))
        assert str(err.value) == f"section uses undeclared variables {extra}"

    def test_section_with_the_direction_inside_an_opaque_rejected(self):
        family = opaque_family(
            "cubic-a", {"a": "F(x1)"},
            opaque_chain("F", ("u^2", "2*u", "2"), "0"))
        section = parse_expr("x2 + F(x1 + th)",
                             registry=family.z_chart.registry)
        with pytest.raises(ChartError) as err:
            check_lagrangian(family, section)
        assert str(err.value) == "section uses undeclared variables ['th']"

    def test_compliant_bc_random_constant_sections(self):
        family = builtin_model("noncubic-bc",
                               {"b": "th^3", "c": "3/2*th^4"})
        rng = random.Random(SEED)
        for _ in range(10):
            value = Fraction(rng.randint(-8, 8), 16)
            report = check_lagrangian(family,
                                      Const(value))
            assert report.passed

    def test_isotropy_failure_detected(self):
        # Quartic term in the fourth slot without a matching correction:
        # annihilation still holds by construction, isotropy does not.
        family = family_from("th", "th^2", "th^3 + th^4",
                             name="nonlagrangian")
        report = check_lagrangian(family)
        assert not report.passed
        names = [name for name, _, witness in report.checks if witness]
        assert names == ["tangent plane is isotropic"]

    def test_isotropy_quantity_matches_hand_formula(self):
        # Frozen by hand: the isotropy pairing of the generator with its
        # derivative equals 3*(A*B_th - B*A_th) - S_th, here -4*th^3.
        family = family_from("th", "th^2", "th^3 + th^4",
                             name="nonlagrangian")
        from dist235.vecfield import exterior_derivative
        d_alpha = exterior_derivative(family.lifted_alpha)
        quantity = pair(d_alpha, family.zeta(2), family.zeta(3)).tree
        difference = parse_expr(
            f"({to_text(quantity)}) + 4*th^3", family.z_chart.variables)
        assert is_zero(difference, family.box,
                       family.z_chart).status == "provably-zero"


# ---------------------------------------------------------------------------
# osculating spaces
# ---------------------------------------------------------------------------

class TestOsculating:
    """The third osculating space along any direction field is the
    contact kernel: the contact form annihilates the generator and its
    three direction-derivatives identically on the box."""

    @staticmethod
    def assert_contact_kernel(family):
        for k in (2, 3, 4, 5):
            verdict = is_zero(pair(family.lifted_alpha, family.zeta(k)).tree,
                              family.box, family.z_chart)
            assert verdict.status == "provably-zero", k

    def test_flat_third_space_is_contact_kernel(self):
        self.assert_contact_kernel(builtin_model("flat-cone"))

    def test_noncubic_third_space_is_contact_kernel(self):
        self.assert_contact_kernel(builtin_model(
            "noncubic-bc", {"b": "th^3", "c": "3/2*th^4"}))


# ---------------------------------------------------------------------------
# the bracket-osculation condition
# ---------------------------------------------------------------------------

class TestOsculatingCondition:
    def test_flat_family_passes_exactly(self):
        family = builtin_model("flat-cone")
        assert check_osculating_condition(family).passed
        # the bracket vanishes identically: every coefficient is zero
        assert not any(c.num for c in family.bracket_decomposition[0])

    def test_decomposition_cached_per_base_point_and_registry(self):
        # ConeFamily equality ignores the base point, so the
        # decomposition is cached on the family object, not by equality:
        # the same components pivoted at the origin and at x1=1/8,
        # th=1/4 (or on a chart with another registry) are two
        # decompositions, not one cache hit.
        at_origin = builtin_model("noncubic-bc",
                                  {"b": "th^3", "c": "3/2*th^4"})
        base = dict(at_origin.base_point, x1=Fraction(1, 8),
                    th=Fraction(1, 4))
        moved = ConeFamily.build(at_origin.x_chart, at_origin.records,
                                 at_origin.alpha, base_point=base,
                                 name=at_origin.name)
        other_chart = Chart(at_origin.x_chart.variables, OpaqueRegistry())
        other_registry = ConeFamily.build(
            other_chart, [nf.tree for nf in at_origin.records],
            OneForm(other_chart, at_origin.alpha.components),
            name=at_origin.name)
        assert moved == at_origin != other_registry
        first = at_origin.bracket_decomposition
        second = moved.bracket_decomposition
        third = other_registry.bracket_decomposition
        assert second is not first and third is not first
        assert third is not second
        # within one family the decomposition is still computed once
        assert moved.bracket_decomposition is second

    def test_compliant_bc_passes(self):
        family = builtin_model("noncubic-bc",
                               {"b": "th^3", "c": "3/2*th^4"})
        report = check_osculating_condition(family)
        assert report.passed

    def test_violating_bc_fails_with_cubic_residual(self):
        # Frozen by hand: with b = th^3, c = th^4 the residual along the
        # completing direction is, up to the unit factor (3 th + 1)^2,
        # exactly c_th - (3 th b_th - 3 b) = -2 th^3.
        family = builtin_model("noncubic-bc", {"b": "th^3", "c": "th^4"})
        report = check_osculating_condition(family)
        assert not report.passed
        label, text, status, witness = report.residuals[1]
        assert status == "nonzero"
        assert witness is not None
        residual = parse_expr(text, family.z_chart.variables)
        target = parse_expr("-2*th^3", family.z_chart.variables)
        for point in family.box.sample_points(25):
            got = float(evaluate(residual, point))
            want = float(evaluate(target, point))
            assert abs(got - want) <= TOL

    def test_cubic_a_outcomes_recorded(self):
        # Computed outcome, not assumed: a identically zero passes; the
        # linear choice fails with the bracket equal to -1/2 times the
        # third derivative field.
        assert check_osculating_condition(
            builtin_model("flat-cone")).passed
        report = check_osculating_condition(
            builtin_model("cubic-a", {"a": "x1"}))
        assert not report.passed
        label, text, status, _ = report.residuals[0]
        assert "third derivative" in label
        assert status == "nonzero"
        from dist235.scalar import normalize
        difference = normalize(
            parse_expr(f"({text}) - (-1/2)", ("th",)), Chart(("th",)))
        assert to_text(difference) == "0"

    def test_cubic_a_bracket_is_half_fifth_frame_field(self):
        # The full decomposition for a = x1: [zeta2, zeta3] = -1/2 zeta5.
        family = builtin_model("cubic-a", {"a": "x1"})
        bracket = lie_bracket(family.zeta(2), family.zeta(3))
        half = family.zeta(5)
        for got, want in zip(bracket.components, half.components):
            difference = parse_expr(
                f"({to_text(got)}) + 1/2*({to_text(want)})",
                family.z_chart.variables)
            assert is_zero(difference, family.box,
                           family.z_chart).status == \
                "provably-zero"

    def test_affine_reparametrization_invariance(self):
        # th -> lam*th + mu preserves the verdict (the curve of
        # directions is unchanged, only its parametrization moves).
        rng = random.Random(SEED + 1)
        cases = (("flat", ("th", "th^2", "th^3"), True),
                 ("bad-bc", ("th", "th^2 + th^3", "th^3 + th^4"), False))
        for _, comps, expected in cases:
            for _ in range(5):
                lam = Fraction(rng.choice((1, 2, -1, 3)),
                               rng.choice((1, 2)))
                mu = Fraction(rng.randint(-2, 2), 8)
                new_theta = f"(({lam})*th + ({mu}))"
                a_text, b_text, s_text = (
                    c.replace("th", new_theta) for c in comps)
                family = family_from(a_text, b_text, s_text,
                                     name="reparam")
                report = check_osculating_condition(family)
                assert report.passed == expected


# ---------------------------------------------------------------------------
# the correction scalar
# ---------------------------------------------------------------------------

class TestSolveU:
    def test_flat_correction_vanishes(self):
        result = solve_U(builtin_model("flat-cone"))
        assert to_text(result.expression) == "0"
        assert result.report.passed

    def test_shifted_flat_has_frozen_correction(self):
        # Frozen by hand: shifting the direction parameter by the second
        # coordinate gives the correction -(th + x2).
        family = family_from("th + x2", "(th + x2)^2", "(th + x2)^3",
                             name="shifted")
        result = solve_U(family)
        difference = parse_expr(
            f"({to_text(result.expression)}) + th + x2",
            family.z_chart.variables)
        assert is_zero(difference, family.box,
                       family.z_chart).status == "provably-zero"

    def test_corrected_bracket_reduces_at_samples(self):
        family = builtin_model("noncubic-bc",
                               {"b": "th^3", "c": "3/2*th^4"})
        result = solve_U(family)
        low = Frame(family.z_chart,
                    (family.zeta(1), family.zeta(2), family.zeta(3)),
                    family.base_point)
        bracket = lie_bracket(result.l_field, family.zeta(3))
        for point in family.box.sample_points(50):
            assert PointValues(point).residual(bracket, low) is None

    def test_failing_condition_blocks_solve(self):
        family = builtin_model("noncubic-bc", {"b": "th^3", "c": "th^4"})
        with pytest.raises(StructureError, match="no correction"):
            solve_U(family)


# ---------------------------------------------------------------------------
# the induced splitting
# ---------------------------------------------------------------------------

class TestProlongCone:
    def test_flat_structure_passes_everything(self):
        structure = prolong_cone(builtin_model("flat-cone"))
        report = verify_pseudo_product(structure, samples=20)
        assert report.valid
        assert symbol_algebra_at(structure).passed

    def test_compliant_bc_structure_valid(self):
        family = builtin_model("noncubic-bc",
                               {"b": "th^3", "c": "3/2*th^4"})
        structure = prolong_cone(family)
        report = verify_pseudo_product(structure, samples=20)
        assert report.valid
        assert symbol_algebra_at(structure).passed

    def test_shifted_flat_structure_valid(self):
        family = family_from("th + x2", "(th + x2)^2", "(th + x2)^3",
                             name="shifted")
        structure = prolong_cone(family)
        assert verify_pseudo_product(structure, samples=8).valid

    def test_symbol_algebra_off_base(self):
        structure = prolong_cone(builtin_model("flat-cone"))
        for point in structure.box.sample_points(3):
            assert symbol_algebra_at(structure, point).passed

    def test_failing_osculating_names_clause(self):
        with pytest.raises(StructureError, match="osculating"):
            prolong_cone(builtin_model("cubic-a", {"a": "x1"}))

    def test_failing_nondegeneracy_names_clause(self):
        family = family_from("th", "th^2", "0", name="truncated")
        with pytest.raises(StructureError, match="non-degeneracy"):
            prolong_cone(family)

    def test_failing_isotropy_names_clause(self):
        family = family_from("th", "th^2", "th^3 + th^4",
                             name="nonlagrangian")
        with pytest.raises(StructureError, match="Lagrangian"):
            prolong_cone(family)

    def test_k_line_is_fiber_direction(self):
        structure = prolong_cone(builtin_model("flat-cone"))
        vec = structure.k_field.evaluate_at(structure.base_point)
        assert tuple(vec) == (0, 0, 0, 0, 0, 1)

    def test_off_origin_compliant_family_finishes(self):
        # the bundled components pivoted at x1=1/8, x3=3, th=1/4: the
        # full-width elimination of the osculating decomposition swelled
        # there and ran past 120 s; (j+1)c_(j+1) = 3(j-1)b_j holds, so
        # both residuals are identically zero
        at_origin = builtin_model("noncubic-bc")
        base = dict(at_origin.base_point, x1=Fraction(1, 8),
                    x3=Fraction(3), th=Fraction(1, 4))
        with time_budget(10.0):
            family = ConeFamily.build(
                at_origin.x_chart, at_origin.records, at_origin.alpha,
                base_point=base, name=at_origin.name)
            report = check_osculating_condition(family)
            solve_U(family)
            structure = prolong_cone(family)
        assert [status for _, _, status, _ in report.residuals] == \
            ["provably-zero", "provably-zero"]
        assert structure.flag.growth == (2, 3, 4, 5, 6)
        assert structure.flag.constant_rank


# ---------------------------------------------------------------------------
# results kept per family
# ---------------------------------------------------------------------------

class TestPerFamilyResults:
    def test_solve_U_computed_once(self):
        family = builtin_model("flat-cone")
        assert solve_U(family) is solve_U(family)
        assert solve_U(family).report is check_osculating_condition(family)

    def test_prolong_cone_reuses_the_checks(self, monkeypatch):
        family = builtin_model("noncubic-bc",
                               {"b": "th^3", "c": "3/2*th^4"})
        assert check_nondegenerate(family)
        assert check_lagrangian(family)
        assert check_osculating_condition(family)
        solve_U(family)
        members = count_calls(monkeypatch, PointValues, "member")
        prolong_cone(family)
        assert not members

    def test_failure_raises_on_every_call(self):
        family = builtin_model("noncubic-bc", {"b": "th^3", "c": "th^4"})
        report = check_osculating_condition(family)
        for _ in range(2):
            with pytest.raises(StructureError, match="no correction"):
                solve_U(family)
        assert check_osculating_condition(family) is report

    def test_each_family_reports_its_own_box(self):
        family = builtin_model("flat-cone")
        wide = ConeFamily.build(family.x_chart, family.records,
                                family.alpha, box=family.box.scaled(2),
                                name=family.name)
        assert wide == family and wide.box != family.box
        assert check_lagrangian(family).box == family.box
        assert check_lagrangian(wide).box == wide.box

    def test_explicit_point_computes_afresh(self, monkeypatch):
        # the cubic part vanishes where x2 = -1/4, so the family is
        # non-degenerate at the base point and degenerate there
        family = family_from("th", "th^2", "(1 + 4*x2)*th^3",
                             name="pinched")
        assert check_nondegenerate(family)
        probe = dict(family.base_point, x2=Fraction(-1, 4))
        ranks = count_calls(monkeypatch, conedual, "rank_at")
        assert not check_nondegenerate(family, probe)
        assert ranks
        section = Const(Fraction(1, 8))
        assert check_lagrangian(family, section=section).section == "1/8"


# ---------------------------------------------------------------------------
# bundled models
# ---------------------------------------------------------------------------

class TestBuiltinModels:
    def test_model_names(self):
        # every bundled document builds, under its own name
        for name in BUNDLED:
            assert builtin_model(name).name == name

    def test_flat_cone_equals_cubic_a_at_zero(self):
        flat = builtin_model("flat-cone")
        cubic = builtin_model("cubic-a", {"a": "0"})
        for lhs, rhs in zip(flat.records, cubic.records):
            difference = parse_expr(
                f"({to_text(lhs.tree)}) - ({to_text(rhs.tree)})",
                flat.z_chart.variables)
            assert is_zero(difference, flat.box,
                           flat.z_chart).status == \
                "provably-zero"

    def test_hilbert_cartan_is_distribution(self):
        model = builtin_model("hilbert-cartan")
        assert isinstance(model, Distribution235)
        assert model.report.growth == (2, 3, 5)

    def test_low_order_b_rejected(self):
        with pytest.raises(StructureError, match="order"):
            builtin_model("noncubic-bc", {"b": "th^2", "c": "th^4"})

    def test_low_order_c_rejected(self):
        with pytest.raises(StructureError, match="order"):
            builtin_model("noncubic-bc", {"b": "th^3", "c": "th^3"})

    @pytest.mark.parametrize("b", [
        "th^2*2^-1", "th^2/(1+1)", "th^3*th^-1", "th^2/(1+th)", "th^2/2"])
    def test_order_read_from_the_normal_form(self, b):
        # a constant denominator, a cancelled power and a denominator
        # that is 1 at th = 0 leave the order of vanishing at 2
        with pytest.raises(StructureError, match="lowest order 2"):
            builtin_model("noncubic-bc", {"b": b, "c": "th^4"})

    @pytest.mark.parametrize("b", ["th^5/(1+th)", "th^3"])
    def test_high_order_quotient_accepted(self, b):
        family = builtin_model("noncubic-bc", {"b": b, "c": "th^4"})
        assert family.name == "noncubic-bc"

    def test_order_bounds_inclusive(self):
        family = builtin_model("noncubic-bc",
                               {"b": "th^3", "c": "th^4"})
        assert family.name == "noncubic-bc"

    def test_cubic_a_requires_vanishing_at_origin(self):
        with pytest.raises(StructureError, match="vanish"):
            builtin_model("cubic-a", {"a": "x1 + 1"})

    def test_cubic_a_float_value_at_origin_must_be_zero(self):
        # a float value of `a` at the origin is decided by linalg's rule:
        # exactly 0.0 passes, and 1e-13 (under the old absolute 1e-12
        # cut-off) does not
        def cubic_a(a_text):
            opaque = [{"name": "f", "evaluator": "u", "derivative": "1"},
                      {"name": "g", "evaluator": "u + 1/10000000000000",
                       "derivative": "1"}]
            doc = dict(BUNDLED["cubic-a"], expressions={"a": a_text},
                       opaque=opaque)
            return build_model(parse_model(json.dumps(doc), "cubic-a"))

        family = cubic_a("f(x1)")
        assert family.name == "cubic-a"
        with pytest.raises(StructureError, match="vanish"):
            cubic_a("g(x1)")

    def test_cubic_a_rejects_other_variables(self):
        with pytest.raises(StructureError, match="x1"):
            builtin_model("cubic-a", {"a": "x2"})

    def test_unknown_model_rejected(self):
        with pytest.raises(StructureError, match="unknown"):
            builtin_model("engel")

    def test_cubic_a_without_parameters_is_the_bundled_driver(self):
        bundled = builtin_model("cubic-a")
        explicit = builtin_model("cubic-a", {"a": "x1"})
        assert bundled.records == explicit.records

    def test_malformed_parameter_is_a_model_error(self):
        with pytest.raises(ModelError, match=r"expressions\.b"):
            builtin_model("noncubic-bc", {"b": "th^", "c": "th^4"})

    def test_extraneous_params_rejected(self):
        with pytest.raises(StructureError):
            builtin_model("flat-cone", {"a": "0"})
        with pytest.raises(StructureError):
            builtin_model("hilbert-cartan", {"b": "0"})


def seeded_drivers(rng):
    """(model, expressions, opaque) for seeded drivers of both families:
    a polynomial, a rational one with its poles off the base point, an
    opaque one and a nested opaque one."""
    def coefficient():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))

    def poly(var, low, high):
        return " + ".join(f"({coefficient()})*{var}^{k}"
                          for k in range(low, high + 1))

    def pole_free(var):  # a denominator that is 1 at the base point
        return f"1 + ({coefficient()})*{var} + ({coefficient()})*{var}^2"

    chain = [{"name": "F", "evaluator": "u^2", "derivative": "F1"},
             {"name": "F1", "evaluator": "2*u", "derivative": "2"},
             {"name": "G", "evaluator": "u + 1", "derivative": "1"}]
    cases = []
    for _ in range(2):
        cases += [
            ("cubic-a", {"a": poly("x1", 1, 3)}, []),
            ("cubic-a", {"a": f"({poly('x1', 1, 2)})/({pole_free('x1')})"},
             []),
            ("cubic-a", {"a": f"({coefficient()})*F(x1)"}, chain),
            ("cubic-a", {"a": f"F(x1*G({poly('x1', 1, 2)}))"}, chain),
            ("noncubic-bc", {"b": poly("th", 3, 5), "c": poly("th", 4, 6)},
             []),
            ("noncubic-bc", {"b": f"({poly('th', 3, 4)})/({pole_free('th')})",
                             "c": f"({poly('th', 4, 5)})/({pole_free('th')})"},
             []),
            ("noncubic-bc", {"b": f"({coefficient()})*F(th)",
                             "c": "th^4*G(th)"}, chain),
            ("noncubic-bc", {"b": "F(th*G(th^2))",
                             "c": f"th^4*F(G({poly('th', 1, 2)}))"}, chain),
        ]
    return cases


class TestDriverTrees:
    """The components of a parameter-driven family are the records of
    the trees of the texts ``th``, ``th^2 + (b)``, ``th^3 + (c)`` and
    ``x3*th - 2*x2*(B) + x1*(S)``, with b = a and c = -3*th*a for the
    cubic family: a sum takes its common-denominator shortcut in the
    order its terms fold, so another order could give another normal
    form.  A rejected driver fails the build check with the record it
    had when the template trees were built."""

    @staticmethod
    def reference_texts(expressions):
        if "a" in expressions:
            a = expressions["a"]
            b_text, s_text = f"th^2 + ({a})", f"th^3 - 3*th*({a})"
        else:
            b_text = f"th^2 + ({expressions['b']})"
            s_text = f"th^3 + ({expressions['c']})"
        return ("th", b_text, s_text,
                f"x3*th - 2*x2*({b_text}) + x1*({s_text})")

    @pytest.mark.parametrize("name, expressions, opaque", [
        ("cubic-a", {"a": "x1"}, []),
        ("cubic-a", {"a": "F(x1)"},
         [{"name": "F", "evaluator": "u^2", "derivative": "F1"},
          {"name": "F1", "evaluator": "2*u", "derivative": "2"}]),
        ("cubic-a", {"a": "x1^2/(1+x1)"}, []),
        ("noncubic-bc", {"b": "th^3", "c": "(3/2)*th^4"}, []),
        ("noncubic-bc", {"b": "th^3", "c": "th^4/(1+th)"}, []),
    ] + seeded_drivers(random.Random(SEED + 11)))
    def test_components_are_the_template_trees(self, name, expressions,
                                               opaque):
        doc = dict(BUNDLED[name], expressions=expressions, opaque=opaque)
        family = build_model(parse_model(json.dumps(doc), name))
        z_chart = family.z_chart
        assert family.records == tuple(
            _normal_form(parse_expr(text, z_chart.variables,
                                    z_chart.registry), z_chart)
            for text in self.reference_texts(expressions))

    @pytest.mark.parametrize("name, expressions, detail", [
        ("noncubic-bc", {"b": "th^3", "c": "th^4 + x1"},
         "StructureError: parameter 'c' may only involve the direction "
         "coordinate, found ('x1',)"),
        ("cubic-a", {"a": "x1*th"},
         "StructureError: parameter 'a' may only involve x1, found "
         "('th',)"),
        ("noncubic-bc", {"b": "th^2", "c": "th^4"},
         "StructureError: parameter 'b' has lowest order 2, need at "
         "least 3"),
        ("noncubic-bc", {"b": "th^3", "c": "1/th"},
         "StructureError: parameter 'c' has lowest order -1, need at "
         "least 4"),
        ("noncubic-bc", {"b": "th^3/(th-th)", "c": "th^4"},
         "ZeroDenominatorError: negative power of an identically zero "
         "base"),
        ("noncubic-bc", {"b": "th^3", "c": "th^18446744073709551616"},
         "ExprError: exponent overflow: a degree of up to "
         "18446744073709551616 does not fit the 64-bit exponent field"),
        ("cubic-a", {"a": "1/x1"},
         "ZeroDivisionError: pole: zero base with negative exponent"),
        ("cubic-a", {"a": "x1^2/x1"},
         "ZeroDivisionError: pole: zero base with negative exponent"),
    ])
    def test_rejected_driver_record(self, name, expressions, detail):
        doc = dict(BUNDLED[name], expressions=expressions)
        report = run_suite(parse_model(json.dumps(doc), name), "verify", 0)
        message = detail.partition(": ")[2]
        assert canonical_json(check_named(report, "family-build")) == \
            canonical_json({"box": None, "detail": detail,
                            "name": "family-build", "residual": None,
                            "status": "fail",
                            "witness": {"message": message}})


# ---------------------------------------------------------------------------
# the osculating defect for opaque drivers
# ---------------------------------------------------------------------------

def opaque_chain(name, evaluators, last):
    """Opaque functions name, name1, ...: each one's derivative is the
    next, and the last one's is the template `last`."""
    names = [name] + [f"{name}{k}" for k in range(1, len(evaluators))]
    return [{"name": n, "evaluator": ev, "derivative": d}
            for n, ev, d in zip(names, evaluators, names[1:] + [last])]


def opaque_family(name, expressions, opaque):
    doc = dict(BUNDLED[name], expressions=expressions, opaque=opaque)
    return build_model(parse_model(json.dumps(doc), name))


def sum_text(family, *exprs):
    return to_text(normalize(Sum(exprs), family.z_chart))


class TestDefectIdentities:
    def test_isotropy_is_minus_the_defect(self):
        # b = B(th), c = C(th): the isotropy scalar of the Lagrangian
        # check is identically minus the osculating defect, and that
        # defect is c' - 3*th*b' + 3*b
        opaque = (opaque_chain("B", ("u^3", "3*u^2", "6*u", "6"), "0")
                  + opaque_chain("C", ("u^4", "4*u^3", "12*u^2", "24*u"),
                                 "24"))
        family = opaque_family("noncubic-bc", {"b": "B(th)", "c": "C(th)"},
                               opaque)
        d_alpha = exterior_derivative(family.lifted_alpha)
        iso = pair(d_alpha, family.zeta(2), family.zeta(3)).tree
        defect = family.bracket_decomposition[0][5].tree
        assert sum_text(family, iso, defect) == "0"
        closed_form = parse_expr(
            "C1(th) - 3*th*B1(th) + 3*B(th)", family.z_chart.variables,
            family.z_chart.registry)
        assert sum_text(family, iso, closed_form) == "0"

    def test_cubic_a_defect_is_minus_half_the_driver_slope(self):
        family = opaque_family(
            "cubic-a", {"a": "F(x1)"},
            opaque_chain("F", ("u^2", "2*u", "2"), "0"))
        along_third = family.bracket_decomposition[0][4].tree
        half_slope = parse_expr("F1(x1)/2", family.z_chart.variables,
                                family.z_chart.registry)
        assert sum_text(family, along_third, half_slope) == "0"
        assert not check_osculating_condition(family).passed


# ---------------------------------------------------------------------------
# cubic-versus-noncubic invariants
# ---------------------------------------------------------------------------

class TestCubicInvariants:
    def test_cubic_family_fourth_derivative_vanishes(self):
        from dist235.scalar import differentiate
        family = builtin_model("cubic-a", {"a": "x1"})
        for comp in family.zeta(5).components:
            fourth = differentiate(comp, "th", family.z_chart)
            assert to_text(fourth) == "0"

    def test_quartic_b_family_is_not_cubic(self):
        from dist235.scalar import differentiate
        family = builtin_model("noncubic-bc",
                               {"b": "th^3 + th^4", "c": "3/2*th^4"})
        nonzero = False
        for comp in family.zeta(5).components:
            fourth = differentiate(comp, "th", family.z_chart)
            if to_text(fourth) != "0":
                nonzero = True
        assert nonzero


# ---------------------------------------------------------------------------
# seeded sweep over direction perturbations
# ---------------------------------------------------------------------------

class TestBCSweep:
    def test_compliant_pairs_pass(self):
        rng = random.Random(SEED + 2)
        for _ in range(12):
            terms = []
            for k in (3, 4, 5):
                beta = rng.randint(-2, 2)
                if beta:
                    terms.append((beta, k))
            if not terms:
                terms = [(1, 3)]
            family = compliant_bc(terms)
            assert check_osculating_condition(family).passed

    def test_detuned_pairs_fail(self):
        rng = random.Random(SEED + 3)
        for _ in range(12):
            beta = rng.choice((-2, -1, 1, 2))
            k = rng.choice((3, 4))
            # the matching c detuned by a higher-order term
            b_text = f"({beta})*th^{k}"
            coeff = Fraction(3 * (k - 1), k + 1) * Fraction(beta)
            delta = rng.choice((-1, 1))
            c_text = f"({coeff})*th^{k + 1} + ({delta})*th^6"
            detuned = builtin_model("noncubic-bc",
                                    {"b": b_text, "c": c_text})
            assert not check_osculating_condition(detuned).passed
