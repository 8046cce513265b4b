"""Tests for singular-path numerics: expression compilation, control
systems, the costate pairing, the embedded Runge-Kutta drive, constrained
bi-extremals, trace classification, fiber lifts, and two-sided path
cross-validation."""

import copy
import inspect
import json
import math
import random
from fractions import Fraction

import pytest

from dist235.conedual import (
    ConeFamily, build_model, builtin_model, prolong_cone,
)
from dist235.distduality import (
    Distribution235, PseudoProductStructure, StructureError, prolong_235,
    solve_e,
)
from dist235 import paths, scalar
from dist235.linalg import exact_nullspace
from dist235.models import BUNDLED, parse_model
from dist235.paths import (
    BiExtremalTrace, ControlSystem, IntegrationError, classify_biextremal,
    compile_exprs, cone_system, distribution_system, hamiltonian,
    integrate_biextremal, integrate_flow, lift_fiber, prolonged_system,
    verify_duality,
)
from dist235.scalar import (
    MissingAssignmentError, OpaqueRegistry, Pow, Prod, Sum, Var,
    default_registry, differentiate, evaluate, normalize, parse_expr,
    to_text,
)
from dist235.vecfield import Chart, ChartError, OneForm, VectorField

from helpers import (
    HIDDEN_OFF_CHART, end_point, identity_registry, text_field,
)
import test_cli

TOL = 1e-9
TIGHT = 1e-12
SEED = 47110815

X_CHART = Chart(("x1", "x2", "x3", "x4", "x5"))
ALPHA = OneForm(X_CHART, tuple(parse_expr(text, X_CHART.variables)
                               for text in ("0", "-x3", "2*x2", "-x1", "1")))
BASE_CHART = Chart(("x", "y", "y1", "y2", "z"))


def allclose(a, b, rtol=1e-5, atol=1e-8) -> bool:
    """numpy.allclose on flat or nested float sequences of one shape:
    |a - b| <= atol + rtol * |b| entry by entry."""
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            allclose(x, y, rtol, atol) for x, y in zip(a, b))
    return abs(a - b) <= atol + rtol * abs(b)


def max_abs_gap(rows_a, rows_b) -> float:
    """The largest |a - b| over matching entries of two node lists."""
    return max(abs(a - b) for ra, rb in zip(rows_a, rows_b)
               for a, b in zip(ra, rb))


def pairing(a, b) -> float:
    return sum(float(x) * float(y) for x, y in zip(a, b))


def flat_cone_family():
    return builtin_model("flat-cone")


def shifted_family():
    a_t, b_t, s_t = "th + x2", "(th + x2)^2", "(th + x2)^3"
    t_t = f"x3*({a_t}) - 2*x2*({b_t}) + x1*({s_t})"
    z_variables = X_CHART.variables + ("th",)
    components = tuple(parse_expr(text, z_variables)
                       for text in (a_t, b_t, s_t, t_t))
    return ConeFamily.build(X_CHART, components, ALPHA, name="shifted")


def bc_family():
    return builtin_model("noncubic-bc", {"b": "th^3", "c": "3/2*th^4"})


def hilbert_cartan():
    return builtin_model("hilbert-cartan")


def cubic_distribution():
    eta1 = text_field(
        BASE_CHART, ["1", "y1", "y2", "0", "y2^2 + y1^3"], name="eta1")
    eta2 = text_field(
        BASE_CHART, ["0", "0", "0", "1", "0"], name="eta2")
    return Distribution235(BASE_CHART, eta1, eta2, BASE_CHART.origin(),
                           name="cubic")


def structure_of(dist):
    prolonged = prolong_235(dist)
    return solve_e(prolonged).structure(prolonged)


def annihilator_basis(structure, depth):
    """Exact nullspace of the pairing rows K, L, e3, ... up to `depth`
    fields, at the base point."""
    from dist235.vecfield import lie_bracket

    k, l = structure.k_field, structure.l_field
    e3 = lie_bracket(k, l)
    e4 = lie_bracket(k, e3)
    fields = (k, l, e3, e4)[:depth]
    rows = [f.evaluate_at(structure.base_point) for f in fields]
    return [tuple(float(c) for c in vec)
            for vec in exact_nullspace(rows)], e4


def synthetic_trace(structure, costates):
    base = tuple(float(structure.base_point[v])
                 for v in structure.z_chart.variables)
    n = len(costates)
    return BiExtremalTrace(
        chart=structure.z_chart,
        times=tuple(0.01 * i / (n - 1) for i in range(n)),
        states=(base,) * n,
        costates=tuple(tuple(c) for c in costates),
        controls=((0.0, 0.0),) * n,
        residuals=(0.0,) * n)


# ---------------------------------------------------------------------------
# expression compilation
# ---------------------------------------------------------------------------

class TestCompileExprs:
    def test_matches_evaluate_at_seeded_points(self):
        chart = ("x", "y", "z")
        texts = ("x^2*y - 3/4*z", "(x + y)^3 - z^2", "1/2",
                 "(1 + x)^-1 * y")
        exprs = tuple(parse_expr(t, chart) for t in texts)
        fn = compile_exprs(exprs, chart)
        rng = random.Random(SEED)
        for _ in range(50):
            vals = [rng.uniform(-0.5, 0.5) for _ in chart]
            point = dict(zip(chart, vals))
            got = fn(vals)
            want = [float(evaluate(e, point)) for e in exprs]
            assert allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_opaque_functions_bound(self):
        reg = OpaqueRegistry()
        reg.register("sq", evaluator=lambda u: u * u,
                     derivative=parse_expr("2*u", ("u",)))
        expr = parse_expr("sq(x) + y", ("x", "y"), reg)
        fn = compile_exprs((expr,), ("x", "y"), reg)
        assert fn([3.0, 1.0]) == [10.0]
        assert fn([-0.5, 0.25])[0] == pytest.approx(0.5, abs=TIGHT)

    def test_unknown_variable_rejected(self):
        expr = parse_expr("q", ("q",))
        with pytest.raises(MissingAssignmentError):
            compile_exprs((expr,), ("x",))


# ---------------------------------------------------------------------------
# control-system construction
# ---------------------------------------------------------------------------

class TestControlSystems:
    def test_cone_system_shape(self):
        family = flat_cone_family()
        cs = cone_system(family)
        assert cs.state_chart == family.x_chart
        assert cs.control_names == ("r", "th")
        assert cs.source is family
        assert to_text(cs.dynamics[0].tree) == "r"

    def test_distribution_system_shape(self):
        dist = hilbert_cartan()
        cs = distribution_system(dist)
        assert cs.source is dist
        assert cs.control_names == ("u1", "u2")
        assert to_text(cs.dynamics[0].tree) == "u1"
        assert to_text(cs.dynamics[3].tree) == "u2"

    def test_prolonged_system_fixed_mode(self):
        assert list(inspect.signature(prolonged_system).parameters) == [
            "structure"]
        structure = structure_of(hilbert_cartan())
        cs = prolonged_system(structure)
        assert cs.source is None
        assert cs.state_chart == structure.z_chart
        assert [to_text(c.tree) for c in cs.dynamics] == [
            to_text(normalize(Sum((Prod((Var("u1"), k)),
                                   Prod((Var("u2"), l)))),
                              cs.state_chart.extend("u1", "u2")))
            for k, l in zip(structure.k_field.components,
                            structure.l_field.components)]

    def test_derived_charts_carry_the_document_registry(self):
        # the family's z-chart, the prolonged chart and each system's
        # state chart carry the opaque functions the document declares
        # (the documents of the opaque-function report pins)
        for name, document in test_cli.TestReportPins.OPAQUE.items():
            base, expressions, opaque, _ = document
            doc = dict(BUNDLED[base], expressions=expressions, opaque=opaque)
            model = parse_model(json.dumps(doc), name)
            built = build_model(model)
            if isinstance(built, ConeFamily):
                structure = prolong_cone(built)
                charts = [built.z_chart, cone_system(built).state_chart]
            else:
                prolonged = prolong_235(built)
                structure = solve_e(prolonged).structure(prolonged)
                charts = [prolonged.z_chart,
                          distribution_system(built).state_chart]
            charts += [structure.z_chart,
                       prolonged_system(structure).state_chart]
            assert model.registry is not default_registry()
            assert all(chart.registry is model.registry for chart in charts)

    def test_control_collides_with_state(self):
        # the Hilbert-Cartan plane field on a chart with a coordinate
        # named like the first control
        chart = Chart(("x", "y", "y1", "u1", "z"))
        eta1 = text_field(chart, ["1", "y1", "u1", "0", "u1^2"])
        eta2 = text_field(chart, ["0", "0", "0", "1", "0"])
        dist = Distribution235(chart, eta1, eta2, chart.origin())
        with pytest.raises(ChartError, match="collides"):
            distribution_system(dist)

    def test_duplicate_controls_rejected(self):
        chart = Chart(("x",))
        with pytest.raises(StructureError, match="duplicate"):
            ControlSystem(state_chart=chart, control_names=("u", "u"),
                          dynamics=(parse_expr("u", ("u",)),))

    def test_radial_name_collisions(self):
        # a direction coordinate, then a base coordinate, named like the
        # radial control
        r_components = tuple(
            parse_expr(text, X_CHART.variables + ("r",))
            for text in ("r", "r^2", "r^3", "x3*r - 2*x2*r^2 + x1*r^3"))
        by_theta = ConeFamily.build(X_CHART, r_components, ALPHA, theta="r")
        with pytest.raises(ChartError, match="collides"):
            cone_system(by_theta)
        chart = Chart(("r", "x2", "x3", "x4", "x5"))
        components = tuple(
            parse_expr(text, chart.variables + ("th",))
            for text in ("th", "th^2", "th^3", "x3*th - 2*x2*th^2 + r*th^3"))
        alpha = OneForm(chart, tuple(
            parse_expr(text, chart.variables)
            for text in ("0", "-x3", "2*x2", "-r", "1")))
        by_base = ConeFamily.build(chart, components, alpha)
        with pytest.raises(ChartError, match="collides"):
            cone_system(by_base)

    def test_stray_dynamics_symbol_rejected(self):
        chart = Chart(("x",))
        with pytest.raises(ChartError, match="unknown symbols"):
            ControlSystem(state_chart=chart, control_names=("u",),
                          dynamics=(parse_expr("q", ("q",)),))

    @pytest.mark.parametrize("text", HIDDEN_OFF_CHART)
    def test_hidden_dynamics_symbol_rejected(self, text):
        # inside an opaque argument, only in a denominator, or cancelled:
        # the fold of the dynamics still names the stray symbol
        registry = identity_registry()
        chart = Chart(("x1", "x2", "x3", "x4"), registry)
        dynamics = (parse_expr(text, registry=registry),
                    parse_expr("v", ("v",)), parse_expr("x1*v", ("x1", "v")),
                    parse_expr("0", ()))
        with pytest.raises(ChartError,
                           match=r"dynamics mention unknown symbols "
                                 r"\['u'\]"):
            ControlSystem(state_chart=chart, control_names=("v",),
                          dynamics=dynamics)

    def test_fields(self):
        assert list(inspect.signature(ControlSystem).parameters) == [
            "state_chart", "control_names", "dynamics", "source"]

    def test_foreign_source_rejected(self):
        chart = Chart(("x",))
        with pytest.raises(StructureError, match="source"):
            ControlSystem(state_chart=chart, control_names=("u",),
                          dynamics=(parse_expr("u", ("u",)),),
                          source="newton")

    def test_sourceless_system_keeps_its_control(self):
        cs = ControlSystem(state_chart=Chart(("x",)), control_names=("u",),
                           dynamics=(parse_expr("u*x", ("x", "u")),))
        u = (0.25,)
        assert cs.prepared.resolve((1.0,), (1.0,), u, 50) is u

    def test_cone_dynamics_carry_their_normal_forms(self):
        # records on the system's chart, the chart the pairing and the
        # Jacobian are folded on: each printed compound component is its
        # own normal form there
        cs = cone_system(builtin_model("noncubic-bc",
                                       {"b": "th^3", "c": "th^5 - th^4"}))
        assert cs.chart.variables == cs.state_chart.variables + (
            "p1", "p2", "p3", "p4", "p5", "r", "th")
        assert all(c.names == cs.chart.variables for c in cs.dynamics)
        compound = [c.tree for c in cs.dynamics
                    if isinstance(c.tree, (Sum, Prod, Pow))]
        assert len(compound) == 4
        assert all(normalize(c, cs.chart) == c for c in compound)

# ---------------------------------------------------------------------------
# the costate pairing
# ---------------------------------------------------------------------------

class TestHamiltonian:
    def test_pairing_decomposes_over_dynamics(self):
        cs = distribution_system(cubic_distribution())
        ham = hamiltonian(cs)
        reconstructed = Sum(tuple(
            Prod((Var(p), comp.tree))
            for p, comp in zip(ham.costate_names, cs.dynamics)))
        difference = normalize(Sum((ham.h.tree, Prod((parse_expr("-1", ()),
                                                 reconstructed)))),
                               ham.chart)
        assert to_text(difference) == "0"

    def test_flat_cone_pairing_text(self):
        # Frozen by hand: the pairing of the scaled moving generator.
        cs = cone_system(flat_cone_family())
        ham = hamiltonian(cs)
        assert to_text(ham.h.tree) == (
            "x1*p5*r*th^3 - 2*x2*p5*r*th^2 + p4*r*th^3 + x3*p5*r*th "
            "+ p3*r*th^2 + p2*r*th + p1*r")

    def test_costate_partials_recover_dynamics(self):
        cs = distribution_system(hilbert_cartan())
        ham = hamiltonian(cs)
        for p, comp in zip(ham.costate_names, cs.dynamics):
            partial = differentiate(ham.h.tree, p, ham.chart)
            assert to_text(partial) == to_text(comp.tree)

    def test_single_field_pairing(self):
        chart = Chart(("x1", "x2"))
        cs = ControlSystem(state_chart=chart, control_names=("u",),
                           dynamics=(parse_expr("1", ()),
                                     parse_expr("0", ())))
        ham = hamiltonian(cs)
        assert to_text(ham.h.tree) == "p1"
        assert [to_text(differentiate(ham.h.tree, x, ham.chart))
                for x in chart.variables] == ["0", "0"]
        assert [to_text(d.tree) for d in ham.dh_du] == ["0"]

    def test_costate_name_collision_rejected(self):
        # the costates are coordinates of the system's chart, so a state
        # or a control named like one is rejected when the system is built
        for states, control in ((("p1", "q"), "u"), (("x", "q"), "p2")):
            with pytest.raises(ChartError, match="costate name"):
                ControlSystem(state_chart=Chart(states),
                              control_names=(control,),
                              dynamics=(parse_expr("0", ()),
                                        parse_expr("0", ())))


# ---------------------------------------------------------------------------
# the Runge-Kutta drive
# ---------------------------------------------------------------------------

class TestIntegrateFlow:
    def growth_field(self):
        chart = Chart(("w",))
        return VectorField(chart, (parse_expr("w", ("w",)),), "growth")

    def test_exponential_growth(self):
        trace = integrate_flow(self.growth_field(), {"w": 1}, 1.0)
        assert end_point(trace)["w"] == pytest.approx(math.e, abs=1e-9)

    def test_backward_time(self):
        trace = integrate_flow(self.growth_field(), {"w": 1}, -1.0)
        assert end_point(trace)["w"] == pytest.approx(
            math.exp(-1), abs=1e-9)
        assert all(b < a for a, b in zip(trace.times, trace.times[1:]))

    def test_fixed_step_grid(self):
        trace = integrate_flow(self.growth_field(), {"w": 1}, 1.0,
                               fixed_step=1 / 16)
        assert len(trace.times) == 17
        assert trace.times[-1] == 1.0
        assert allclose([b - a for a, b in zip(trace.times, trace.times[1:])],
                        [1 / 16] * 16)

    def test_fifth_order_convergence(self):
        errs = []
        for h in (1 / 8, 1 / 16, 1 / 32):
            trace = integrate_flow(self.growth_field(), {"w": 1}, 1.0,
                                   fixed_step=h)
            errs.append(abs(end_point(trace)["w"] - math.e))
        assert errs[0] / errs[1] >= 16
        assert errs[1] / errs[2] >= 16

    def test_derivatives_are_exact_rhs(self):
        trace = integrate_flow(self.growth_field(), {"w": 1}, 0.5)
        assert allclose(trace.derivatives, trace.states, atol=0)

    def test_empty_interval_rejected(self):
        with pytest.raises(IntegrationError, match="empty"):
            integrate_flow(self.growth_field(), {"w": 1}, 0.0)


class TestNonFinite:
    """NaN fails a numerical leg instead of passing it, and a pole of a
    compiled batch is an IntegrationError naming its time."""

    GRID = (0.0, 0.5, 1.0)
    SLOPES = ((1.0, 0.0),) * 3

    def curve(self, middle):
        values = ((0.0, 1.0), middle, (1.0, 1.0))
        return paths._hermite_curves(self.GRID, values, self.SLOPES)

    def test_sup_distance_of_finite_curves(self):
        sup = paths._sup_distance(self.curve((0.5, 1.0)),
                                  self.curve((0.5, 1.25)), 0.0, 1.0, 11)
        assert sup == 0.25

    def test_nan_component_fails(self):
        sup = paths._sup_distance(self.curve((0.5, 1.0)),
                                  self.curve((0.5, math.nan)), 0.0, 1.0, 11)
        assert math.isnan(sup)
        assert not sup <= 1e-6

    def test_all_nan_comparison_fails(self):
        nan_curve = self.curve((math.nan, math.nan))
        sup = paths._sup_distance(nan_curve, nan_curve, 0.4, 0.6, 5)
        assert math.isnan(sup)
        report = paths.DualityReport(
            passed=sup <= 1e-6, sup_distance=sup, tol=1e-6, side="K",
            coordinate="x", interval=(0.4, 0.6), samples=5)
        assert not report
        assert report.summary_line().startswith("FAIL")

    @staticmethod
    def nan_registry():
        reg = OpaqueRegistry()
        reg.register("blank", evaluator=lambda u: math.nan,
                     derivative=parse_expr("0", ("u",)))
        return reg

    def test_nan_dynamics_raise(self):
        reg = self.nan_registry()
        chart = Chart(("w",), reg)
        flow = VectorField(chart, (parse_expr("blank(w)", ("w",), reg),),
                           "blank")
        with pytest.raises(IntegrationError, match="non-finite"):
            integrate_flow(flow, {"w": 1}, 1.0)
        with pytest.raises(IntegrationError, match="non-finite"):
            integrate_flow(flow, {"w": 1}, 1.0, fixed_step=0.25)

    def test_nan_constraint_residual_raises(self):
        reg = self.nan_registry()
        chart = Chart(("x",), reg)
        cs = ControlSystem(
            state_chart=chart, control_names=("u",),
            dynamics=(parse_expr("u*blank(x)", ("x", "u"), reg),))
        with pytest.raises(StructureError, match="violates"):
            integrate_biextremal(cs, {"x": 0}, (1.0,), (1.0,), 0.5)

    def test_pole_at_the_start(self):
        chart = Chart(("a", "b"))
        flow = text_field(chart, ["1", "a^-1"], name="pole")
        with pytest.raises(IntegrationError, match="pole at t=0"):
            integrate_flow(flow, {"a": 0, "b": 0}, 1.0)

    def test_pole_inside_a_step(self):
        # a = t - 1/2 reaches the pole of b' = 1/a at a stage of the
        # second fixed step
        chart = Chart(("a", "b"))
        flow = text_field(chart, ["1", "a^-1"], name="pole")
        with pytest.raises(IntegrationError, match=r"pole at t=0\.5"):
            integrate_flow(flow, {"a": Fraction(-1, 2), "b": 0}, 1.0,
                           fixed_step=0.25)

    def test_overflow_is_not_a_pole(self):
        chart = Chart(("a",))
        flow = text_field(chart, ["a^3"], name="cube")
        with pytest.raises(IntegrationError, match="overflowed at t=0"):
            integrate_flow(flow, {"a": 10 ** 200}, 1.0)


# ---------------------------------------------------------------------------
# constrained bi-extremals
# ---------------------------------------------------------------------------

class TestBiExtremal:
    def test_zero_costate_rejected(self):
        cs = distribution_system(hilbert_cartan())
        with pytest.raises(StructureError, match="nonzero"):
            integrate_biextremal(cs, BASE_CHART.origin(),
                                 (0, 0, 0, 0, 0), (1, 0), 0.5)

    def test_initial_violation_rejected(self):
        cs = distribution_system(hilbert_cartan())
        with pytest.raises(StructureError, match="violates"):
            integrate_biextremal(cs, BASE_CHART.origin(),
                                 (1, 0, 0, 0, 0), (1, 0), 0.5)

    def test_flat_cone_path_is_straight(self):
        cs = cone_system(flat_cone_family())
        trace = integrate_biextremal(
            cs, X_CHART.origin(), (0, 0, 1, 0, 0),
            {"r": 1.0, "th": 0.0}, 0.5)
        line = [(t, 0.0, 0.0, 0.0, 0.0) for t in trace.times]
        assert max_abs_gap(trace.states, line) <= TIGHT
        assert max_abs_gap(trace.costates,
                           [trace.costates[0]] * len(line)) <= TIGHT
        assert trace.max_residual <= TIGHT
        assert max(abs(u[1]) for u in trace.controls) <= 1e-10

    def test_hilbert_cartan_path_is_straight(self):
        cs = distribution_system(hilbert_cartan())
        trace = integrate_biextremal(
            cs, BASE_CHART.origin(), (0, 0, 0, 0, 1), (1, 0), 0.5)
        line = [(t, 0.0, 0.0, 0.0, 0.0) for t in trace.times]
        assert max_abs_gap(trace.states, line) <= TIGHT
        assert max(abs(abs(u[0]) - 1) for u in trace.controls) <= 1e-10
        assert trace.max_residual <= TIGHT

    def test_residuals_cover_every_node(self):
        cs = cone_system(flat_cone_family())
        trace = integrate_biextremal(
            cs, X_CHART.origin(), (0, 0, 1, 0, 0),
            {"r": 1.0, "th": 0.0}, 0.25)
        assert len(trace.residuals) == len(trace.times)
        assert len(trace.controls) == len(trace.times)
        assert all(len(u) == 2 for u in trace.controls)
        assert trace.max_residual == max(trace.residuals)

    def test_array_and_dict_inputs_agree(self):
        cs = cone_system(flat_cone_family())
        a = integrate_biextremal(cs, X_CHART.origin(), (0, 0, 1, 0, 0),
                                 {"r": 1.0, "th": 0.0}, 0.25)
        b = integrate_biextremal(cs, [0, 0, 0, 0, 0], (0, 0, 1, 0, 0),
                                 [1.0, 0.0], 0.25)
        assert a.states == b.states
        assert a.costates == b.costates

    def test_missing_state_coordinate_rejected(self):
        cs = cone_system(flat_cone_family())
        with pytest.raises(ChartError, match="misses"):
            integrate_biextremal(cs, {"x1": 0}, (0, 0, 1, 0, 0),
                                 {"r": 1.0, "th": 0.0}, 0.25)

    def test_wrong_costate_length_rejected(self):
        cs = cone_system(flat_cone_family())
        with pytest.raises(StructureError, match="costate"):
            integrate_biextremal(cs, X_CHART.origin(), (1, 0, 0),
                                 {"r": 1.0, "th": 0.0}, 0.25)

    def test_point_accessor(self):
        cs = cone_system(flat_cone_family())
        trace = integrate_biextremal(
            cs, X_CHART.origin(), (0, 0, 1, 0, 0),
            {"r": 1.0, "th": 0.0}, 0.25)
        p = trace.point(0)
        assert set(p) == set(X_CHART.variables)
        assert p["x1"] == 0.0

    def test_newton_projection_tracks_invariant(self):
        # For the shifted family the sum of the direction and the second
        # coordinate is a first integral of the dual pair; the projected
        # direction control must preserve it without being told.
        family = shifted_family()
        cs = cone_system(family)
        x0 = {"x1": 0, "x2": Fraction(1, 16), "x3": 0, "x4": 0, "x5": 0}
        structure = prolong_cone(family)
        rows = [[evaluate(c, {**x0, "th": Fraction(1, 16)},
                          structure.z_chart.registry)
                 for c in family.zeta(k).components[:5]]
                for k in (2, 3)]
        basis = exact_nullspace(rows)
        prefer = [evaluate(c, {**x0, "th": Fraction(1, 16)},
                           structure.z_chart.registry)
                  for c in family.zeta(4).components[:5]]
        best = max(basis, key=lambda vec: abs(sum(
            float(a) * float(b) for a, b in zip(vec, prefer))))
        p0 = tuple(float(v) for v in best)
        trace = integrate_biextremal(
            cs, x0, p0, {"r": 1.0, "th": 1 / 16}, 0.3)
        invariant = [u[1] + x[1]
                     for u, x in zip(trace.controls, trace.states)]
        assert max(abs(v - 0.125) for v in invariant) <= 1e-10

    def test_newton_iteration_budget_respected(self):
        family = shifted_family()
        cs = cone_system(family)
        x0 = {"x1": 0, "x2": Fraction(1, 16), "x3": 0, "x4": 0, "x5": 0}
        trace = integrate_biextremal(
            cs, x0, (0, 0, 1, 0, 0), {"r": 1.0, "th": -1 / 16}, 0.3)
        assert trace.max_residual <= TOL
        with pytest.raises(IntegrationError, match="0 iterations"):
            integrate_biextremal(
                cs, x0, (0, 0, 1, 0, 0), {"r": 1.0, "th": -1 / 16}, 0.3,
                max_newton=0)

    def test_warm_start_from_the_last_accepted_node(self, monkeypatch):
        # The cubic model's singular control turns along the path, and a
        # tight rtol with a large h_max forces rejected steps; no stage,
        # of a rejected step or an accepted one, may start the
        # projection from another stage's control.
        received = []
        resolve = paths.PreparedSystem.resolve

        def spy(self, x, p, u, max_newton):
            received.append(tuple(u))
            return resolve(self, x, p, u, max_newton)

        monkeypatch.setattr(paths.PreparedSystem, "resolve", spy)
        cs = distribution_system(cubic_distribution())
        trace = integrate_biextremal(
            cs, BASE_CHART.origin(), (0, 1, 0, 0, 1), (1, 0), 1.0,
            rtol=1e-10, atol=1e-14, h_max=1.0)
        steps = len(trace.times) - 1
        assert len(received) > 1 + 6 * steps  # some step was rejected
        turn = [u[1] for u in trace.controls]
        assert max(turn) - min(turn) > 1e-2
        assert received[0] == (1.0, 0.0)
        for u in received[1:]:
            assert u in trace.controls

    def test_singular_rule_rank_guard(self):
        # A costate annihilating both depth-three pairings leaves the
        # direction rule undetermined.
        dist = hilbert_cartan()
        cs = distribution_system(dist)
        rows = [f.evaluate_at(BASE_CHART.origin())
                for f in (dist.eta1, dist.eta2, dist.eta4, dist.eta5)]
        basis = exact_nullspace(rows)
        assert basis
        p0 = tuple(float(v) for v in basis[0])
        with pytest.raises(IntegrationError, match="lost rank"):
            integrate_biextremal(cs, BASE_CHART.origin(), p0, (1, 0),
                                 0.25)


class TestPreparedSystem:
    def test_built_once_per_system(self, monkeypatch):
        # The pairing and the compiled batches of a system are built on
        # its first integration; later launches and the duality
        # comparison reuse them.  Each leaf flow compiles its own field.
        built, compiled = [], []
        real_hamiltonian, real_compile = paths.hamiltonian, \
            paths.compile_exprs
        monkeypatch.setattr(paths, "hamiltonian", lambda cs: (
            built.append(cs), real_hamiltonian(cs))[1])
        monkeypatch.setattr(paths, "compile_exprs", lambda *args: (
            compiled.append(args), real_compile(*args))[1])
        family = flat_cone_family()
        structure = prolong_cone(family)
        cs = cone_system(family)
        for _ in range(3):
            assert verify_duality(structure, cs, X_CHART.origin(), 0, 0.5)
        assert len(built) == 1
        # dynamics, Jacobian, constraint, Newton pair; one leaf per run
        assert len(compiled) == 4 + 3


class TestRecordOracle:
    """A system compiles what the tree path compiled: the normal forms
    and derivatives of printed trees, on the states plus the controls
    for the dynamics and their Jacobian, and on the states, costates and
    controls for the pairing, its control partials and the Newton pair.
    The tree path runs on a fresh chart of the same names and registry,
    whose memo holds none of the records' entries."""

    @staticmethod
    def tree_path(cs, columns, scaled_by):
        """(dynamics, H, the batches PreparedSystem compiles but the
        distribution's rule), each a printed tree, from the printed
        columns that `scaled_by` scale."""
        states, controls = cs.state_chart.variables, cs.control_names
        fresh = Chart(states, cs.state_chart.registry)
        f_chart = fresh.extend(*controls)
        dynamics = [normalize(Sum(tuple(Prod((Var(u), c.tree))
                                        for u, c in zip(scaled_by, row))),
                              f_chart)
                    for row in zip(*columns)]
        costates = tuple(f"p{i + 1}" for i in range(len(states)))
        h_chart = fresh.extend(*costates, *controls)
        h = normalize(Sum(tuple(Prod((Var(p), comp))
                                for p, comp in zip(costates, dynamics))),
                      h_chart)
        dh_du = [differentiate(h, u, h_chart) for u in controls]
        batches = [dynamics,
                   [differentiate(comp, v, f_chart)
                    for comp in dynamics for v in states],
                   dh_du]
        if isinstance(cs.source, ConeFamily):
            g = dh_du[controls.index(cs.source.theta)]
            batches.append([g, differentiate(g, cs.source.theta, h_chart)])
        return dynamics, h, batches

    @staticmethod
    def cases():
        """(name, system, columns, controls scaling them)."""
        quotients = {
            name: parse_model(json.dumps(dict(
                BUNDLED["hilbert-cartan"],
                expressions=test_cli.TestRationalComponentPins.PINS[name][1])),
                name)
            for name in ("hc-half-quotient-trace", "hc-quotient-trace")}
        for name, dist in [("hilbert-cartan", hilbert_cartan())] + [
                (name, build_model(model))
                for name, model in quotients.items()]:
            yield (name, distribution_system(dist),
                   (dist.eta1.records, dist.eta2.records), ("u1", "u2"))
        for name in ("flat-cone", "noncubic-bc"):
            family = builtin_model(name)
            yield (name, cone_system(family),
                   (family.zeta(2).records[:5],), ("r",))
        structure = structure_of(hilbert_cartan())
        yield ("hilbert-cartan prolonged", prolonged_system(structure),
               (structure.k_field.records, structure.l_field.records),
               ("u1", "u2"))

    def test_records_print_the_tree_path(self, monkeypatch):
        compiled = []
        real = paths.compile_exprs
        monkeypatch.setattr(paths, "compile_exprs", lambda exprs, *rest: (
            compiled.append(list(exprs)), real(exprs, *rest))[1])
        for name, cs, columns, scaled_by in self.cases():
            dynamics, h, batches = self.tree_path(cs, columns, scaled_by)
            assert [c.tree for c in cs.dynamics] == dynamics, name
            compiled.clear()
            prepared = cs.prepared
            assert prepared.ham.h.tree == h, name
            assert [d.tree for d in prepared.ham.dh_du] == batches[2], name
            assert compiled[:len(batches)] == batches, name

    def test_preparing_a_polynomial_system_folds_no_tree(self, monkeypatch):
        # no normal-form lookup, and the pairing's builder visits only
        # the costate variables: it reads the dynamics records in place
        visited = []
        visit = scalar._NFBuilder.visit
        monkeypatch.setattr(scalar._NFBuilder, "visit", lambda self, expr: (
            visited.append(type(expr)), visit(self, expr))[1])
        for name in ("hilbert-cartan", "flat-cone", "noncubic-bc"):
            built = builtin_model(name)
            cs = (cone_system(built) if isinstance(built, ConeFamily)
                  else distribution_system(built))
            before = scalar._normal_form.cache_info()
            visited.clear()
            assert cs.prepared.ham.dh_du
            assert scalar._normal_form.cache_info() == before, name
            assert set(visited) == {Var}, name


class TestSingularLaunch:
    """A launch toward a huge direction parameter gets a unit costate
    from exact annihilator rows whose floats would overflow."""

    def test_huge_direction_gives_a_unit_costate(self):
        dist = hilbert_cartan()
        p0, u0 = paths.singular_launch(distribution_system(dist),
                                       dict(dist.base_point), 10 ** 160)
        assert math.hypot(*p0) == pytest.approx(1.0, abs=1e-12)
        assert u0 == (1e-160, 1.0)

    def test_huge_cone_direction_converts(self):
        family = flat_cone_family()
        p0, _ = paths.singular_launch(cone_system(family),
                                      X_CHART.origin(), 10 ** 200)
        assert math.hypot(*p0) == pytest.approx(1.0, abs=1e-12)

    def test_only_a_vector_that_does_not_convert_is_scaled(self):
        assert paths._float_direction(
            [Fraction(0), Fraction(2, 7), Fraction(10 ** 100)]) \
            == [0.0, 2 / 7, 1e100]
        tiny = Fraction(1, 10 ** 200)
        assert paths._float_direction([tiny, -2 * tiny]) == [0.5, -1.0]
        assert paths._float_direction([0, 0]) == [0.0, 0.0]


# ---------------------------------------------------------------------------
# fiber lifts and classification
# ---------------------------------------------------------------------------

class TestLiftsAndClassification:
    def test_l_lift_is_regular_singular(self):
        for model in (hilbert_cartan(), cubic_distribution()):
            structure = structure_of(model)
            trace = lift_fiber(structure, "L")
            assert trace.max_residual <= TOL
            assert classify_biextremal(structure, trace) \
                == "regular-singular"

    def test_k_lift_is_totally_irregular(self):
        for model in (hilbert_cartan(), cubic_distribution()):
            structure = structure_of(model)
            trace = lift_fiber(structure, "K")
            assert trace.max_residual <= TOL
            assert classify_biextremal(structure, trace) \
                == "totally-irregular"

    def test_cone_side_lifts(self):
        structure = prolong_cone(flat_cone_family())
        assert classify_biextremal(structure, lift_fiber(structure, "L")) \
            == "regular-singular"
        assert classify_biextremal(structure, lift_fiber(structure, "K")) \
            == "totally-irregular"

    def test_shallow_costate_breaks_on_k_leaf(self):
        # Annihilating only the plane field and its first extension is
        # enough for the L-leaf but not for the K-leaf: the deeper
        # conditions are not preserved and the constraint drifts.  The
        # asymmetry is measured, not imposed.
        structure = structure_of(hilbert_cartan())
        basis, e4 = annihilator_basis(structure, 3)
        e4_row = [float(c) for c in e4.evaluate_at(structure.base_point)]
        shallow = max(basis, key=lambda b: abs(pairing(b, e4_row)))
        assert abs(pairing(shallow, e4_row)) > TOL
        size = math.sqrt(pairing(shallow, shallow))
        cs = prolonged_system(structure)
        with pytest.raises(IntegrationError, match="constraint residual"):
            integrate_biextremal(cs, structure.base_point,
                                 tuple(x / size for x in shallow),
                                 (1.0, 0.0), 0.5)

    def test_classification_chart_guard(self):
        structure = structure_of(hilbert_cartan())
        other = prolong_cone(flat_cone_family())
        trace = lift_fiber(other, "L")
        with pytest.raises(ChartError):
            classify_biextremal(structure, trace)

    def test_shallow_failure_is_unclassified(self):
        structure = structure_of(hilbert_cartan())
        bad = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)  # pairs the K generator
        trace = synthetic_trace(structure, [bad, bad])
        assert classify_biextremal(structure, trace) == "unclassified"

    def test_mixed_depth_is_unclassified(self):
        structure = structure_of(hilbert_cartan())
        basis3, e4 = annihilator_basis(structure, 3)
        e4_row = [float(c) for c in e4.evaluate_at(structure.base_point)]
        deep_hit = max(basis3, key=lambda b: abs(pairing(b, e4_row)))
        basis4, _ = annihilator_basis(structure, 4)
        deep_miss = basis4[0]
        assert abs(pairing(deep_hit, e4_row)) > TOL
        assert abs(pairing(deep_miss, e4_row)) <= TOL
        trace = synthetic_trace(structure, [deep_hit, deep_miss])
        assert classify_biextremal(structure, trace) == "unclassified"

    def test_side_validation(self):
        structure = structure_of(hilbert_cartan())
        with pytest.raises(StructureError, match="side must be"):
            lift_fiber(structure, "M")

    def test_lift_from_off_base_point(self):
        structure = structure_of(cubic_distribution())
        z0 = dict(structure.base_point)
        z0["y1"] = Fraction(1, 8)
        z0["t"] = Fraction(1, 16)
        trace = lift_fiber(structure, "L", z0=z0, t_end=0.3)
        assert classify_biextremal(structure, trace) == "regular-singular"


# ---------------------------------------------------------------------------
# two-sided cross-validation
# ---------------------------------------------------------------------------

class TestVerifyDuality:
    def test_flat_cone(self):
        family = flat_cone_family()
        structure = prolong_cone(family)
        rep = verify_duality(structure, cone_system(family),
                             X_CHART.origin(), 0, 0.5)
        assert rep.passed and bool(rep)
        assert rep.side == "L"
        assert rep.sup_distance <= TOL
        assert rep.coordinate == "x1"
        assert rep.meta["path_max_residual"] <= TOL
        assert rep.summary_line().startswith("pass")

    def test_hilbert_cartan(self):
        dist = hilbert_cartan()
        structure = structure_of(dist)
        rep = verify_duality(structure, distribution_system(dist),
                             BASE_CHART.origin(), 0, 0.5)
        assert rep.passed
        assert rep.side == "K"
        assert rep.sup_distance <= TOL

    def test_cubic_generic_points(self):
        dist = cubic_distribution()
        structure = structure_of(dist)
        cs = distribution_system(dist)
        rng = random.Random(SEED)
        for _ in range(4):
            x0 = {v: Fraction(rng.randint(-8, 8), 64)
                  for v in BASE_CHART.variables}
            theta0 = Fraction(rng.randint(-8, 8), 64)
            rep = verify_duality(structure, cs, x0, theta0, 0.3)
            assert rep.passed, rep.summary_line()

    def test_bc_family_both_time_directions(self):
        family = bc_family()
        structure = prolong_cone(family)
        cs = cone_system(family)
        x0 = {"x1": Fraction(1, 16), "x2": Fraction(-1, 16),
              "x3": Fraction(1, 32), "x4": 0, "x5": Fraction(1, 8)}
        for t_end in (0.4, -0.4):
            rep = verify_duality(structure, cs, x0, Fraction(1, 8),
                                 t_end)
            assert rep.passed, rep.summary_line()
            assert rep.side == "L"

    def test_shifted_family_curved_leaf(self):
        family = shifted_family()
        structure = prolong_cone(family)
        cs = cone_system(family)
        x0 = {"x1": 0, "x2": Fraction(1, 16), "x3": 0, "x4": 0, "x5": 0}
        rep = verify_duality(structure, cs, x0, Fraction(1, 16), 0.3)
        assert rep.passed, rep.summary_line()

    def test_failing_report_reads_as_failure(self):
        dist = cubic_distribution()
        structure = structure_of(dist)
        cs = distribution_system(dist)
        x0 = {"x": Fraction(1, 16), "y": 0, "y1": Fraction(1, 8),
              "y2": Fraction(-1, 16), "z": 0}
        rep = verify_duality(structure, cs, x0, Fraction(1, 8), 0.4,
                             tol=1e-60)
        assert not rep
        assert rep.summary_line().startswith("FAIL")
        assert rep.sup_distance > 0

    def test_chart_mismatch_rejected(self):
        structure = structure_of(cubic_distribution())
        cs = cone_system(flat_cone_family())
        with pytest.raises(ChartError):
            verify_duality(structure, cs, X_CHART.origin(), 0, 0.5)

    def test_ambiguous_side_rejected(self):
        family = flat_cone_family()
        structure = prolong_cone(family)
        doctored = PseudoProductStructure(
            structure.z_chart, structure.e_generators, structure.l_field,
            structure.l_field, structure.base_point, structure.box,
            structure.flag, structure.name)
        with pytest.raises(StructureError, match="cannot decide"):
            verify_duality(doctored, cone_system(family),
                           X_CHART.origin(), 0, 0.5)

    def test_time_reversal_closes(self):
        from dist235.paths import singular_launch

        dist = cubic_distribution()
        cs = distribution_system(dist)
        x0 = {"x": Fraction(1, 16), "y": 0, "y1": Fraction(1, 8),
              "y2": Fraction(-1, 16), "z": 0}
        p0, u0 = singular_launch(cs, x0, Fraction(1, 8))
        fwd = integrate_biextremal(cs, x0, p0, u0, 0.4)
        back = integrate_biextremal(cs, fwd.states[-1],
                                    fwd.costates[-1],
                                    fwd.controls[-1], -0.4)
        start = tuple(float(x0[v]) for v in BASE_CHART.variables)
        assert max_abs_gap([back.states[-1]], [start]) <= 1e-10
        assert max_abs_gap([back.costates[-1]], [p0]) <= 1e-10

    def test_fixed_step_convergence_order(self):
        dist = cubic_distribution()
        structure = structure_of(dist)
        cs = distribution_system(dist)
        x0 = {"x": Fraction(1, 16), "y": 0, "y1": Fraction(1, 8),
              "y2": Fraction(-1, 16), "z": 0}
        sups = []
        for h in (1 / 8, 1 / 16, 1 / 32):
            rep = verify_duality(structure, cs, x0, Fraction(1, 8), 0.4,
                                 fixed_step=h, samples=100)
            sups.append(rep.sup_distance)
        assert sups[0] / sups[1] >= 4
        assert sups[0] / sups[2] >= 30

    def test_report_metadata(self):
        family = flat_cone_family()
        structure = prolong_cone(family)
        rep = verify_duality(structure, cone_system(family),
                             X_CHART.origin(), 0, 0.5)
        assert rep.interval[0] == pytest.approx(0.0, abs=1e-12)
        assert rep.interval[1] == pytest.approx(0.5, abs=1e-6)
        assert rep.samples == 200
        assert rep.meta["t_end"] == 0.5
        assert rep.meta["leaf_steps"] >= 64


def test_built_objects_are_read_only_and_copies_equal():
    # each object is written once, by its constructor, and a shallow
    # copy is an equal object
    family = flat_cone_family()
    structure = prolong_cone(family)
    objects = [family, family.box, family.z_chart, family.alpha,
               family.zeta(2), family.records[1], structure,
               structure.flag.frames[0], hilbert_cartan(),
               cone_system(family)]
    for obj in objects:
        with pytest.raises(AttributeError):
            obj.name = "changed"
        with pytest.raises(AttributeError):
            del obj.box
        assert copy.copy(obj) == obj
