"""Tests for singular-path numerics: expression compilation, control
systems, the costate pairing, the embedded Runge-Kutta drive, constrained
bi-extremals, trace classification, fiber lifts, two-sided path
cross-validation, and slice projection."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dist235.boxes import Box
from dist235.conedual import ConeFamily, builtin_model, prolong_cone
from dist235.distduality import (
    Distribution235, StructureError, prolong_235, solve_e,
)
from dist235 import paths
from dist235.linalg import exact_nullspace
from dist235.paths import (
    BiExtremalTrace, IntegrationError, SliceSpec, classify_biextremal,
    compile_exprs, cone_system, distribution_system, hamiltonian,
    integrate_biextremal, integrate_flow, leaf_project, lift_fiber,
    prolonged_system, singular_path_field, verify_duality,
)
from dist235.scalar import (
    MissingAssignmentError, OpaqueRegistry, Prod, Sum, Var,
    default_registry, evaluate, normalize, parse_expr, to_text,
)
from dist235.vecfield import Chart, ChartError, VectorField, \
    field_from_strings

TOL = 1e-9
TIGHT = 1e-12
SEED = 47110815

X_CHART = Chart(("x1", "x2", "x3", "x4", "x5"))
ALPHA = ("0", "-x3", "2*x2", "-x1", "1")
BASE_CHART = Chart(("x", "y", "y1", "y2", "z"))


def flat_cone_family():
    return builtin_model("flat-cone")


def shifted_family():
    a_t, b_t, s_t = "th + x2", "(th + x2)^2", "(th + x2)^3"
    t_t = f"x3*({a_t}) - 2*x2*({b_t}) + x1*({s_t})"
    return ConeFamily.build(X_CHART, (a_t, b_t, s_t, t_t), ALPHA,
                            name="shifted")


def bc_family():
    return builtin_model("noncubic-bc", {"b": "th^3", "c": "3/2*th^4"})


def hilbert_cartan():
    return builtin_model("hilbert-cartan")


def cubic_distribution():
    eta1 = field_from_strings(
        BASE_CHART, ["1", "y1", "y2", "0", "y2^2 + y1^3"], name="eta1")
    eta2 = field_from_strings(
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
    reg = structure.registry
    e3 = lie_bracket(k, l, reg)
    e4 = lie_bracket(k, e3, reg)
    fields = (k, l, e3, e4)[:depth]
    rows = [f.evaluate_at(structure.base_point, reg) for f in fields]
    return [np.array([float(c) for c in vec])
            for vec in exact_nullspace(rows)], e4


def synthetic_trace(structure, costates):
    base = np.array([float(structure.base_point[v])
                     for v in structure.z_chart.variables])
    n = len(costates)
    return BiExtremalTrace(
        system_name="synthetic", chart=structure.z_chart,
        control_names=("u1", "u2"),
        times=np.linspace(0.0, 0.01, n),
        states=np.vstack([base] * n),
        costates=np.vstack(costates),
        controls=np.zeros((n, 2)),
        residuals=np.zeros(n))


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
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

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
        assert cs.mode == "newton"
        assert cs.newton_control == "th"
        assert to_text(cs.dynamics[0]) == "r"
        assert "th" not in cs.box.variables

    def test_distribution_system_shape(self):
        dist = hilbert_cartan()
        cs = distribution_system(dist)
        assert cs.mode == "linear-singular"
        assert cs.control_names == ("u1", "u2")
        assert cs.rule_fields[0] is dist.eta4
        assert cs.rule_fields[1] is dist.eta5
        assert to_text(cs.dynamics[0]) == "u1"
        assert to_text(cs.dynamics[3]) == "u2"

    def test_prolonged_system_fixed_mode(self):
        structure = structure_of(hilbert_cartan())
        cs = prolonged_system(structure, mode="fixed")
        assert cs.mode == "fixed"
        assert cs.state_chart == structure.z_chart

    def test_unknown_mode_rejected(self):
        structure = structure_of(hilbert_cartan())
        with pytest.raises(StructureError, match="unknown control mode"):
            prolonged_system(structure, mode="rk")

    def test_control_collides_with_state(self):
        dist = hilbert_cartan()
        with pytest.raises(ChartError, match="collides"):
            distribution_system(dist, controls=("x", "u2"))

    def test_duplicate_controls_rejected(self):
        dist = hilbert_cartan()
        with pytest.raises(StructureError, match="duplicate"):
            distribution_system(dist, controls=("u", "u"))

    def test_radial_name_collisions(self):
        family = flat_cone_family()
        with pytest.raises(ChartError):
            cone_system(family, radial="th")
        with pytest.raises(ChartError):
            cone_system(family, radial="x1")

    def test_stray_dynamics_symbol_rejected(self):
        from dist235.paths import ControlSystem

        chart = Chart(("x",))
        box = Box((("x", Fraction(-1, 4), Fraction(1, 4)),))
        with pytest.raises(ChartError, match="unknown symbols"):
            ControlSystem(state_chart=chart, control_names=("u",),
                          dynamics=(parse_expr("q", ("q",)),),
                          mode="fixed", box=box,
                          registry=default_registry())

    def test_mode_prerequisites(self):
        from dist235.paths import ControlSystem

        chart = Chart(("x",))
        box = Box((("x", Fraction(-1, 4), Fraction(1, 4)),))
        zero = parse_expr("0", ())
        with pytest.raises(StructureError, match="newton_control"):
            ControlSystem(state_chart=chart, control_names=("u",),
                          dynamics=(zero,), mode="newton", box=box,
                          registry=default_registry())
        with pytest.raises(StructureError, match="rule fields"):
            ControlSystem(state_chart=chart, control_names=("u",),
                          dynamics=(zero,), mode="linear-singular",
                          box=box, registry=default_registry())


# ---------------------------------------------------------------------------
# the costate pairing
# ---------------------------------------------------------------------------

class TestHamiltonian:
    def test_pairing_decomposes_over_dynamics(self):
        cs = distribution_system(cubic_distribution())
        ham = hamiltonian(cs)
        reconstructed = Sum(tuple(
            Prod((Var(p), comp))
            for p, comp in zip(ham.costate_names, cs.dynamics)))
        difference = normalize(Sum((ham.h, Prod((parse_expr("-1", ()),
                                                 reconstructed)))),
                               ham.variables)
        assert to_text(difference) == "0"

    def test_flat_cone_pairing_text(self):
        # Frozen by hand: the pairing of the scaled moving generator.
        cs = cone_system(flat_cone_family())
        ham = hamiltonian(cs)
        assert to_text(ham.h) == (
            "x1*p5*r*th^3 - 2*x2*p5*r*th^2 + p4*r*th^3 + x3*p5*r*th "
            "+ p3*r*th^2 + p2*r*th + p1*r")

    def test_costate_partials_recover_dynamics(self):
        cs = distribution_system(hilbert_cartan())
        ham = hamiltonian(cs)
        for partial, comp in zip(ham.dh_dp, cs.dynamics):
            assert to_text(partial) == to_text(
                normalize(comp, ham.variables))

    def test_single_field_pairing(self):
        from dist235.paths import ControlSystem

        chart = Chart(("x1", "x2"))
        box = Box((("x1", Fraction(-1, 4), Fraction(1, 4)),
                   ("x2", Fraction(-1, 4), Fraction(1, 4))))
        cs = ControlSystem(state_chart=chart, control_names=("u",),
                           dynamics=(parse_expr("1", ()),
                                     parse_expr("0", ())),
                           mode="fixed", box=box,
                           registry=default_registry())
        ham = hamiltonian(cs)
        assert to_text(ham.h) == "p1"
        assert [to_text(d) for d in ham.dh_dx] == ["0", "0"]
        assert [to_text(d) for d in ham.dh_du] == ["0"]

    def test_costate_name_collision_rejected(self):
        from dist235.paths import ControlSystem

        chart = Chart(("p1", "q"))
        box = Box((("p1", Fraction(-1, 4), Fraction(1, 4)),
                   ("q", Fraction(-1, 4), Fraction(1, 4))))
        cs = ControlSystem(state_chart=chart, control_names=("u",),
                           dynamics=(parse_expr("0", ()),
                                     parse_expr("0", ())),
                           mode="fixed", box=box,
                           registry=default_registry())
        with pytest.raises(ChartError, match="collides"):
            hamiltonian(cs)


# ---------------------------------------------------------------------------
# the Runge-Kutta drive
# ---------------------------------------------------------------------------

class TestIntegrateFlow:
    def growth_field(self):
        chart = Chart(("w",))
        return VectorField(chart, (parse_expr("w", ("w",)),), "growth")

    def test_exponential_growth(self):
        trace = integrate_flow(self.growth_field(), {"w": 1}, 1.0)
        assert trace.end_point()["w"] == pytest.approx(math.e, abs=1e-9)

    def test_backward_time(self):
        trace = integrate_flow(self.growth_field(), {"w": 1}, -1.0)
        assert trace.end_point()["w"] == pytest.approx(
            math.exp(-1), abs=1e-9)
        assert np.all(np.diff(trace.times) < 0)

    def test_fixed_step_grid(self):
        trace = integrate_flow(self.growth_field(), {"w": 1}, 1.0,
                               fixed_step=1 / 16)
        assert len(trace.times) == 17
        assert trace.times[-1] == 1.0
        assert np.allclose(np.diff(trace.times), 1 / 16)

    def test_fifth_order_convergence(self):
        errs = []
        for h in (1 / 8, 1 / 16, 1 / 32):
            trace = integrate_flow(self.growth_field(), {"w": 1}, 1.0,
                                   fixed_step=h)
            errs.append(abs(trace.end_point()["w"] - math.e))
        assert errs[0] / errs[1] >= 16
        assert errs[1] / errs[2] >= 16

    def test_accept_hook_sees_every_node(self):
        seen = []
        trace = integrate_flow(self.growth_field(), {"w": 1}, 0.5,
                               accept_hook=lambda t, y, f: seen.append(t))
        assert seen == list(trace.times)

    def test_derivatives_are_exact_rhs(self):
        trace = integrate_flow(self.growth_field(), {"w": 1}, 0.5)
        assert np.allclose(trace.derivatives, trace.states, atol=0)

    def test_empty_interval_rejected(self):
        with pytest.raises(IntegrationError, match="empty"):
            integrate_flow(self.growth_field(), {"w": 1}, 0.0)


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
        line = np.zeros_like(trace.states)
        line[:, 0] = trace.times
        assert np.max(np.abs(trace.states - line)) <= TIGHT
        assert np.max(np.abs(trace.costates
                             - trace.costates[0])) <= TIGHT
        assert trace.max_residual <= TIGHT
        assert np.max(np.abs(trace.controls[:, 1])) <= 1e-10

    def test_hilbert_cartan_path_is_straight(self):
        cs = distribution_system(hilbert_cartan())
        trace = integrate_biextremal(
            cs, BASE_CHART.origin(), (0, 0, 0, 0, 1), (1, 0), 0.5)
        line = np.zeros_like(trace.states)
        line[:, 0] = trace.times
        assert np.max(np.abs(trace.states - line)) <= TIGHT
        assert np.max(np.abs(np.abs(trace.controls[:, 0]) - 1)) <= 1e-10
        assert trace.max_residual <= TIGHT

    def test_residuals_cover_every_node(self):
        cs = cone_system(flat_cone_family())
        trace = integrate_biextremal(
            cs, X_CHART.origin(), (0, 0, 1, 0, 0),
            {"r": 1.0, "th": 0.0}, 0.25)
        assert trace.residuals.shape == trace.times.shape
        assert trace.controls.shape == (len(trace.times), 2)
        assert trace.max_residual == np.max(trace.residuals)

    def test_array_and_dict_inputs_agree(self):
        cs = cone_system(flat_cone_family())
        a = integrate_biextremal(cs, X_CHART.origin(), (0, 0, 1, 0, 0),
                                 {"r": 1.0, "th": 0.0}, 0.25)
        b = integrate_biextremal(cs, [0, 0, 0, 0, 0], (0, 0, 1, 0, 0),
                                 [1.0, 0.0], 0.25)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.costates, b.costates)

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
                          structure.registry)
                 for c in family.zeta(k).components[:5]]
                for k in (2, 3)]
        basis = exact_nullspace(rows)
        prefer = [evaluate(c, {**x0, "th": Fraction(1, 16)},
                           structure.registry)
                  for c in family.zeta(4).components[:5]]
        best = max(basis, key=lambda vec: abs(sum(
            float(a) * float(b) for a, b in zip(vec, prefer))))
        p0 = np.array([float(v) for v in best])
        trace = integrate_biextremal(
            cs, x0, p0, {"r": 1.0, "th": 1 / 16}, 0.3)
        invariant = trace.controls[:, 1] + trace.states[:, 1]
        assert np.max(np.abs(invariant - 0.125)) <= 1e-10

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
        resolve = paths._ControlResolver.__call__

        def spy(self, x, p, u):
            received.append(np.array(u, dtype=float))
            return resolve(self, x, p, u)

        monkeypatch.setattr(paths._ControlResolver, "__call__", spy)
        cs = distribution_system(cubic_distribution())
        trace = integrate_biextremal(
            cs, BASE_CHART.origin(), (0, 1, 0, 0, 1), (1, 0), 1.0,
            rtol=1e-10, atol=1e-14, h_max=1.0)
        steps = len(trace.times) - 1
        assert len(received) > 1 + 6 * steps  # some step was rejected
        assert np.ptp(trace.controls[:, 1]) > 1e-2
        assert np.array_equal(received[0], [1.0, 0.0])
        for u in received[1:]:
            assert any(np.array_equal(u, c) for c in trace.controls)

    def test_singular_rule_rank_guard(self):
        # A costate annihilating both depth-three pairings leaves the
        # direction rule undetermined.
        dist = hilbert_cartan()
        cs = distribution_system(dist)
        rows = [f.evaluate_at(BASE_CHART.origin(), dist.registry)
                for f in (dist.eta1, dist.eta2, dist.eta4, dist.eta5)]
        basis = exact_nullspace(rows)
        assert basis
        p0 = np.array([float(v) for v in basis[0]])
        with pytest.raises(IntegrationError, match="lost rank"):
            integrate_biextremal(cs, BASE_CHART.origin(), p0, (1, 0),
                                 0.25)


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
        e4_row = [float(c) for c in
                  e4.evaluate_at(structure.base_point, structure.registry)]
        shallow = max(basis, key=lambda b: abs(float(np.dot(b, e4_row))))
        assert abs(float(np.dot(shallow, e4_row))) > TOL
        cs = prolonged_system(structure, mode="fixed")
        with pytest.raises(IntegrationError, match="constraint residual"):
            integrate_biextremal(cs, structure.base_point,
                                 shallow / np.linalg.norm(shallow),
                                 (1.0, 0.0), 0.5)

    def test_classification_chart_guard(self):
        structure = structure_of(hilbert_cartan())
        other = prolong_cone(flat_cone_family())
        trace = lift_fiber(other, "L")
        with pytest.raises(ChartError):
            classify_biextremal(structure, trace)

    def test_shallow_failure_is_unclassified(self):
        structure = structure_of(hilbert_cartan())
        bad = np.zeros(6)
        bad[0] = 1.0  # pairs the K generator
        trace = synthetic_trace(structure, [bad, bad])
        assert classify_biextremal(structure, trace) == "unclassified"

    def test_mixed_depth_is_unclassified(self):
        structure = structure_of(hilbert_cartan())
        basis3, e4 = annihilator_basis(structure, 3)
        e4_row = [float(c) for c in
                  e4.evaluate_at(structure.base_point, structure.registry)]
        deep_hit = max(basis3,
                       key=lambda b: abs(float(np.dot(b, e4_row))))
        basis4, _ = annihilator_basis(structure, 4)
        deep_miss = basis4[0]
        assert abs(float(np.dot(deep_hit, e4_row))) > TOL
        assert abs(float(np.dot(deep_miss, e4_row))) <= TOL
        trace = synthetic_trace(structure, [deep_hit, deep_miss])
        assert classify_biextremal(structure, trace) == "unclassified"

    def test_side_validation(self):
        structure = structure_of(hilbert_cartan())
        assert singular_path_field(structure, "K") is structure.k_field
        assert singular_path_field(structure, "L") is structure.l_field
        with pytest.raises(StructureError, match="side must be"):
            singular_path_field(structure, "E")
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
        doctored = dataclasses.replace(structure,
                                       k_field=structure.l_field)
        with pytest.raises(StructureError, match="cannot decide"):
            verify_duality(doctored, cone_system(family),
                           X_CHART.origin(), 0, 0.5)

    def test_time_reversal_closes(self):
        from dist235.paths import _annihilating_costate, \
            _mixed_depth_field

        dist = cubic_distribution()
        cs = distribution_system(dist)
        x0 = {"x": Fraction(1, 16), "y": 0, "y1": Fraction(1, 8),
              "y2": Fraction(-1, 16), "z": 0}
        theta0 = Fraction(1, 8)
        mixed = _mixed_depth_field(dist, theta0)
        rows = [f.evaluate_at(x0, dist.registry)
                for f in (dist.eta1, dist.eta2, dist.eta3, mixed)]
        prefer = dist.eta5.evaluate_at(x0, dist.registry)
        p0 = _annihilating_costate(rows, prefer)
        norm = math.hypot(1.0, float(theta0))
        u0 = (1.0 / norm, float(theta0) / norm)
        fwd = integrate_biextremal(cs, x0, p0, u0, 0.4)
        back = integrate_biextremal(cs, fwd.states[-1],
                                    fwd.costates[-1],
                                    fwd.controls[-1], -0.4)
        start = np.array([float(x0[v]) for v in BASE_CHART.variables])
        assert np.max(np.abs(back.states[-1] - start)) <= 1e-10
        assert np.max(np.abs(back.costates[-1] - p0)) <= 1e-10

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


# ---------------------------------------------------------------------------
# slice projection
# ---------------------------------------------------------------------------

class TestLeafProject:
    def test_projects_fiber_flow_to_base_slice(self):
        structure = prolong_cone(flat_cone_family())
        kf = singular_path_field(structure, "K")
        z0 = dict(structure.base_point)
        z0["th"] = Fraction(1, 4)
        hit = leaf_project(kf, SliceSpec("th", 0.0), z0, 1.0,
                           registry=structure.registry)
        assert hit["th"] == 0.0
        for v in X_CHART.variables:
            assert abs(hit[v]) <= TIGHT

    def test_projects_prolonged_fiber(self):
        structure = structure_of(cubic_distribution())
        lf = singular_path_field(structure, "L")
        z0 = dict(structure.base_point)
        z0["t"] = Fraction(1, 4)
        hit = leaf_project(lf, SliceSpec("t", 0.0), z0, 1.0,
                           registry=structure.registry)
        assert hit["t"] == 0.0
        for v in BASE_CHART.variables:
            assert abs(hit[v]) <= TIGHT

    def test_finds_backward_crossing(self):
        chart = Chart(("a", "b"))
        flow = field_from_strings(chart, ["1", "0"], name="drift")
        hit = leaf_project(flow, SliceSpec("a", 0.0),
                           {"a": 1, "b": Fraction(1, 8)}, 2.0)
        assert hit["a"] == 0.0
        assert hit["b"] == pytest.approx(0.125, abs=TIGHT)

    def test_crossing_interpolation_accuracy(self):
        # Along da/dt = 1, db/dt = a from (-1/2, 1/8) the crossing of
        # a = 0 happens exactly at b = 0.
        chart = Chart(("a", "b"))
        flow = field_from_strings(chart, ["1", "a"], name="turn")
        hit = leaf_project(flow, SliceSpec("a", 0.0),
                           {"a": Fraction(-1, 2), "b": Fraction(1, 8)},
                           1.0)
        assert hit["a"] == 0.0
        assert abs(hit["b"]) <= 1e-9

    def test_start_on_slice(self):
        chart = Chart(("a", "b"))
        flow = field_from_strings(chart, ["1", "0"], name="drift")
        hit = leaf_project(flow, SliceSpec("a", 0.0),
                           {"a": 0, "b": Fraction(1, 4)}, 1.0)
        assert hit == {"a": 0.0, "b": 0.25}

    def test_tangential_start_rejected(self):
        chart = Chart(("a", "b"))
        flow = field_from_strings(chart, ["b", "1"], name="sweep")
        with pytest.raises(IntegrationError, match="tangential"):
            leaf_project(flow, SliceSpec("a", 0.0), {"a": 0, "b": 0},
                         1.0)

    def test_tangential_crossing_rejected(self):
        # da/dt = b^2 with b = t - 1/4 crosses a = 0 at a cubic
        # inflection: the sign changes but the transversal speed
        # vanishes.
        chart = Chart(("a", "b"))
        flow = field_from_strings(chart, ["b^2", "1"], name="inflect")
        z0 = {"a": Fraction(-1, 192), "b": Fraction(-1, 4)}
        with pytest.raises(IntegrationError, match="tangential"):
            leaf_project(flow, SliceSpec("a", 0.0), z0, 0.5,
                         bisect_tol=1e-14)

    def test_no_crossing_reported(self):
        chart = Chart(("a", "b"))
        flow = field_from_strings(chart, ["1", "0"], name="drift")
        with pytest.raises(IntegrationError, match="no crossing"):
            leaf_project(flow, SliceSpec("b", 1.0),
                         {"a": 0, "b": 0}, 2.0)

    def test_unknown_coordinate_rejected(self):
        chart = Chart(("a", "b"))
        flow = field_from_strings(chart, ["1", "0"], name="drift")
        with pytest.raises(ChartError, match="not a chart variable"):
            leaf_project(flow, SliceSpec("c", 0.0), {"a": 0, "b": 0},
                         1.0)
