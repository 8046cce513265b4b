"""Control systems and singular-path numerics.

A control system pairs a state chart with a control-dependent dynamics
vector.  Singular (abnormal) trajectories are integrated as bi-extremals
of the Hamiltonian pairing between costate and dynamics, with the
control kept on the constraint manifold by per-stage projection.  Traces
are classified by which annihilation conditions the costate maintains,
and the leaf/path correspondence between the two sides of a splitting is
cross-validated numerically.  A system's dynamics, pairing and
derivatives are records on its state chart extended by the costates and
the controls, which shares its memo; only compiling prints a tree.
"""

import bisect
import math
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple, Optional

from .boxes import as_fraction
from .conedual import ConeFamily
from .distduality import (
    Distribution235, PseudoProductStructure, StructureError,
)
from .frozen import Frozen
from .linalg import is_zero_value, nullspace
from .scalar import (
    Var, _derivative, _NFBuilder, _NormalForm, compile_exprs,
)
from .vecfield import Chart, ChartError, VectorField, _records, combine


class IntegrationError(RuntimeError):
    """A numerical leg could not be completed."""


_CONSTRAINT_TOL = 1e-9
_NEWTON_TOL = 1e-12
_CLASSIFY_RTOL = 1e-8
_DUALITY_TOL = 1e-6
_DUALITY_RTOL = 1e-11
_DUALITY_ATOL = 1e-13
_COSTATE_FLOOR = 1e-10
_MAX_STEPS = 200000

_RADIAL = "r"
_CONTROLS = ("u1", "u2")


# Every vector below (state, costate, control, stage) is a tuple of
# floats, and every reduction is one of these loops, so a result has
# the same bits wherever it runs (a BLAS dot may fuse multiply-adds).

def _dot(a, b) -> float:
    """Sum of products, left to right."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _norm(a) -> float:
    return math.sqrt(_dot(a, a))


def _max_abs(values) -> float:
    """The largest |v|, or NaN as soon as one v is NaN."""
    worst = 0.0
    for v in values:
        v = abs(v)
        if not v <= worst:
            if v != v:
                return v
            worst = v
    return worst


def _at(t: float, fn, *args):
    """fn(*args), where float arithmetic raising on a division by zero
    (a pole) or on an overflowing power is an IntegrationError at t."""
    try:
        return fn(*args)
    except (ZeroDivisionError, OverflowError) as exc:
        what = ("hit a pole" if isinstance(exc, ZeroDivisionError)
                else "overflowed")
        raise IntegrationError(
            f"a compiled batch {what} at t={t:.6g}: {exc}") from exc


# ---------------------------------------------------------------------------
# control systems
# ---------------------------------------------------------------------------

class ControlSystem(Frozen):
    """Dynamics F(x, u) over a state chart with named controls: one
    record per state coordinate on `chart` from `vecfield._records`, the
    gate that rejects a symbol that is neither a state nor a control.

    `source` is the object the system was built from, and its type fixes
    how the control is kept on the singular-constraint manifold during
    integration:

    - a `ConeFamily`: damped Newton on the family's direction
      coordinate; the radial control stays at its initial (gauge) value.
    - a `Distribution235`: the dynamics are linear in the two controls,
      so the control gradient of the pairing does not involve the
      control, and the constraint only pins the control after
      differentiation; the resolved control is the kernel direction of
      the costate pairings with the depth-three brackets `eta4` and
      `eta5`, oriented continuously.
    - None: the control is held constant; this is the fixed-control
      leaf transport of a splitting's system, which `lift_fiber` uses.

    Equality ignores the source.
    """

    _key = attrgetter("state_chart", "control_names", "dynamics")

    def __init__(self, state_chart: Chart, control_names: tuple,
                 dynamics: tuple, source=None):
        if len(dynamics) != state_chart.dimension:
            raise ChartError(
                "dynamics must have one component per state coordinate")
        if not control_names:
            raise StructureError("a control system needs controls")
        if len(set(control_names)) != len(control_names):
            raise StructureError("duplicate control names")
        d = self.__dict__
        d["state_chart"], d["control_names"] = state_chart, control_names
        d["dynamics"] = _records(
            self.chart, dynamics,
            state_chart.variables + tuple(control_names),
            "dynamics mention unknown symbols")
        if not isinstance(source, (ConeFamily, Distribution235, type(None))):
            raise StructureError(
                "the source must be a cone family, a distribution or None")
        d["source"] = source

    @cached_property
    def chart(self) -> Chart:
        """The chart of the dynamics, the pairing and their derivatives."""
        return _system_chart(self.state_chart, self.control_names)

    @cached_property
    def prepared(self) -> "PreparedSystem":
        """The pairing and compiled batches, built on first use."""
        return PreparedSystem(self)


def _system_chart(state_chart: Chart, controls) -> Chart:
    """The state chart extended by the costates p1, ..., pm and then the
    controls; a control named like a state, or a costate named like a
    state or a control, is a `ChartError`."""
    states = state_chart.variables
    costates = tuple(f"p{i + 1}" for i in range(len(states)))
    for kind, names, taken in (("control", controls, states),
                               ("costate name", costates,
                                (*states, *controls))):
        for name in names:
            if name in taken:
                raise ChartError(f"{kind} {name!r} collides with a coordinate")
    return state_chart.extend(*costates, *controls)


def _controlled(state_chart: Chart, controls: tuple, columns: tuple,
                source=None) -> ControlSystem:
    """The system whose dynamics are sum_k controls[k] * columns[k], over
    the first len(columns) controls, each component folded on records
    on the chart of the system."""
    builder = _NFBuilder(_system_chart(state_chart, controls))
    us = [builder.visit(Var(u)) for u in controls[:len(columns)]]
    return ControlSystem(state_chart, controls, tuple(
        builder.finish(builder.sum(
            builder.product((u, builder.reuse(nf)))
            for u, nf in zip(us, row)))
        for row in zip(*columns)), source)


def cone_system(family: ConeFamily) -> ControlSystem:
    """Control system of a cone family: the states are the base
    coordinates, the controls are a radial scale `r` and the direction
    coordinate, and the dynamics is the scaled moving generator."""
    if _RADIAL in family.x_chart.variables or _RADIAL == family.theta:
        raise ChartError(
            f"radial control {_RADIAL!r} collides with a coordinate")
    return _controlled(family.x_chart, (_RADIAL, family.theta),
                       (family.zeta(2).records[:5],), family)


def distribution_system(dist: Distribution235) -> ControlSystem:
    """Control system of a rank-2 distribution: dynamics linear in the
    controls `u1`, `u2` along the generators, with the singular-control
    rule on the depth-three brackets (eta4, eta5)."""
    return _controlled(dist.chart, _CONTROLS,
                       (dist.eta1.records, dist.eta2.records), dist)


def prolonged_system(structure: PseudoProductStructure) -> ControlSystem:
    """Control system of the split plane field on the six-dimensional
    chart: dynamics linear in the controls `u1`, `u2` along the K- and
    L-generators, with the control held fixed, so that it transports
    along one leaf."""
    return _controlled(structure.z_chart, _CONTROLS,
                       (structure.k_field.records, structure.l_field.records))


# ---------------------------------------------------------------------------
# the Hamiltonian pairing
# ---------------------------------------------------------------------------

class HamiltonianData(NamedTuple):
    """The record of the costate pairing H = sum_i p_i F^i and those of
    its control partials, which the singular constraint dH/du = 0 reads,
    on `chart`, the chart of the system."""

    costate_names: tuple
    h: _NormalForm
    dh_du: tuple
    chart: Chart


def hamiltonian(cs: ControlSystem) -> HamiltonianData:
    """The pairing of a costate with the dynamics, folded on records in
    one builder, and its exact partial derivatives in the controls."""
    chart, m = cs.chart, cs.state_chart.dimension
    costates = chart.variables[m:2 * m]
    builder = _NFBuilder(chart)
    h = builder.finish(builder.sum(
        builder.product((builder.visit(Var(p)), builder.reuse(comp)))
        for p, comp in zip(costates, cs.dynamics)))
    dh_du = tuple(_derivative(h, u, chart) for u in cs.control_names)
    return HamiltonianData(costates, h, dh_du, chart)


class PreparedSystem:
    """What integrating a control system needs, built once per system:
    the pairing, and compiled batches of the dynamics, of their state
    Jacobian (row by row), of the control constraint dH/du, and of the
    control rule its source fixes, which `resolve` applies."""

    def __init__(self, cs: ControlSystem):
        self.source = source = cs.source
        self.m = cs.state_chart.dimension
        self.ham = ham = hamiltonian(cs)
        chart, states = cs.chart, cs.state_chart.variables

        def compiled(records, names=chart.variables):
            return compile_exprs([nf.tree for nf in records], names,
                                 chart.registry)

        f_vars = states + tuple(cs.control_names)
        self.f_fn = compiled(cs.dynamics, f_vars)
        self.jac_fn = compiled([_derivative(comp, v, chart)
                                for comp in cs.dynamics for v in states],
                               f_vars)
        self.res_fn = compiled(ham.dh_du)
        if isinstance(source, ConeFamily):
            self.slot = cs.control_names.index(source.theta)
            g = ham.dh_du[self.slot]
            self.g_fn = compiled((g, _derivative(g, source.theta, chart)))
        elif isinstance(source, Distribution235):
            self.rule_fn = compiled(source.eta4.records + source.eta5.records,
                                    states)

    def resolve(self, x, p, u, max_newton: int) -> tuple:
        """The control at (x, p) projected onto the constraint manifold
        by the rule of the system's source, warm-started from the
        control u."""
        if self.source is None:
            return u
        if isinstance(self.source, Distribution235):
            vals = self.rule_fn(x)
            w_a = _dot(p, vals[:self.m])
            w_b = _dot(p, vals[self.m:])
            size = math.hypot(w_a, w_b)
            if size <= 1e-12 * max(1.0, _norm(p)):
                raise IntegrationError(
                    "control rule lost rank: both singular pairings "
                    "vanish")
            candidate = (w_b / size, -w_a / size)
            if _dot(candidate, u) < 0.0:
                candidate = (-candidate[0], -candidate[1])
            return candidate
        # damped scalar Newton on the direction coordinate
        g_fn, slot = self.g_fn, self.slot
        scale = max(1.0, _norm(p))
        for _ in range(max_newton):
            g, gp = g_fn(x + p + u)
            if abs(g) <= _NEWTON_TOL * scale:
                return u
            if abs(gp) <= 1e-10 * scale:
                raise IntegrationError(
                    "constraint Jacobian lost rank during projection")
            step = -g / gp
            lam = 1.0
            while lam >= 1 / 1024:
                trial = u[:slot] + (u[slot] + lam * step,) + u[slot + 1:]
                g_new = g_fn(x + p + trial)[0]
                if abs(g_new) <= (1 - lam / 2) * abs(g):
                    u = trial
                    break
                lam /= 2
            else:
                raise IntegrationError(
                    "Newton projection diverged (no damping step "
                    "accepted)")
        raise IntegrationError(
            f"Newton projection failed to converge within "
            f"{max_newton} iterations")


# ---------------------------------------------------------------------------
# Runge-Kutta machinery (Dormand-Prince 5(4), first-same-as-last)
# ---------------------------------------------------------------------------

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)


# the nonzero (coefficient, stage) pairs of each tableau row and weight
_DP_ROWS = tuple(tuple((a, j) for j, a in enumerate(row) if a != 0.0)
                 for row in _DP_A)
_DP_W5 = tuple((b, j) for j, b in enumerate(_DP_B5) if b != 0.0)
_DP_W4 = tuple((b, j) for j, b in enumerate(_DP_B4) if b != 0.0)


def _advance(y, h, weights, ks) -> tuple:
    out = list(y)
    for b, j in weights:
        hb = h * b
        for i, k in enumerate(ks[j]):
            out[i] += hb * k
    return tuple(out)


def _dp_stages(rhs, t, y, f, h):
    """One Dormand-Prince step: fifth-order value, embedded fourth-order
    value, and the derivative at the new node (last stage)."""
    ks = [f]
    for stage in range(1, 7):
        terms = _DP_ROWS[stage]
        point = []
        for i, yi in enumerate(y):
            acc = 0.0
            for a, j in terms:
                acc += a * ks[j][i]
            point.append(yi + h * acc)
        t_stage = t + _DP_C[stage] * h
        ks.append(tuple(_at(t_stage, rhs, t_stage, tuple(point))))
    return _advance(y, h, _DP_W5, ks), _advance(y, h, _DP_W4, ks), ks[6]


def _step_error(y, y5, y4, rtol, atol) -> float:
    """RMS over the components of the embedded error, each scaled by
    atol + rtol * max(|y|, |y5|)."""
    total = 0.0
    for a, b, c in zip(y, y5, y4):
        q = (b - c) / (atol + rtol * max(abs(a), abs(b)))
        total += q * q
    return math.sqrt(total / len(y))


def _integrate(rhs, y0, t_end, *, rtol, atol, h_max=None, fixed_step=None,
               accept_hook=None):
    """Explicit embedded Runge-Kutta drive from t=0 to t=t_end (either
    sign).  Returns (times, states, derivatives) at accepted nodes.

    With `fixed_step` the interval is covered in equal steps and the
    error estimate only has to be finite.  `accept_hook(t, y, f)` runs
    at every accepted node (including the initial one) and may raise.
    A non-finite error estimate, or a pole of rhs or of the hook, raises
    IntegrationError.
    """
    span = abs(float(t_end))
    if span == 0.0:
        raise IntegrationError("empty integration interval")
    direction = 1.0 if t_end > 0 else -1.0
    y = tuple(float(v) for v in y0)
    t = 0.0
    f = tuple(_at(t, rhs, t, y))
    times, states, derivs = [t], [y], [f]
    if accept_hook is not None:
        _at(t, accept_hook, t, y, f)

    def record(t_new, y_new, f_new):
        times.append(t_new)
        states.append(y_new)
        derivs.append(f_new)
        if accept_hook is not None:
            _at(t_new, accept_hook, t_new, y_new, f_new)

    def step(t, y, f, h):
        y5, y4, f_new = _dp_stages(rhs, t, y, f, h)
        err = _step_error(y, y5, y4, rtol, atol)
        if not math.isfinite(err):
            raise IntegrationError(
                f"non-finite error estimate at t={t:.6g}")
        return y5, f_new, err

    if fixed_step is not None:
        count = max(1, int(round(span / abs(float(fixed_step)))))
        h = direction * span / count
        for i in range(count):
            y, f, _err = step(t, y, f, h)
            t = direction * span * (i + 1) / count
            record(t, y, f)
        return tuple(times), tuple(states), tuple(derivs)

    cap = h_max if h_max is not None else span / 16.0
    h = direction * min(span / 16.0, cap)
    steps = 0
    while abs(t) < span * (1 - 1e-14):
        if steps >= _MAX_STEPS:
            raise IntegrationError(
                f"step limit reached at t={t:.6g} (span {span:.6g})")
        steps += 1
        remaining = direction * span - t
        if abs(h) > abs(remaining):
            h = remaining
        if abs(h) > cap:
            h = direction * cap
        y5, f_new, err = step(t, y, f, h)
        if err > 1.0:
            h *= max(0.2, 0.9 * err ** -0.2)
            if abs(h) < 1e-15 * span:
                raise IntegrationError(
                    f"step size underflow at t={t:.6g}")
            continue
        t = t + h
        y = y5
        f = f_new
        record(t, y, f)
        if err > 0.0:
            h *= min(5.0, max(0.2, 0.9 * err ** -0.2))
    return tuple(times), tuple(states), tuple(derivs)


# ---------------------------------------------------------------------------
# plain flows
# ---------------------------------------------------------------------------

class FlowTrace(NamedTuple):
    """Integral curve of a vector field: nodes with exact derivatives.
    `times` is a tuple of floats; `states` and `derivatives` hold one
    tuple of floats per node."""

    chart: Chart
    times: tuple
    states: tuple
    derivatives: tuple


def integrate_flow(flow: VectorField, z0: dict, t_end: float, *,
                   rtol: float = 1e-10, atol: float = 1e-12,
                   h_max: Optional[float] = None,
                   fixed_step: Optional[float] = None) -> FlowTrace:
    """Integrate the flow of a vector field from a chart point."""
    chart = flow.chart
    fn = compile_exprs(flow.components, chart.variables, chart.registry)
    y0 = tuple(float(z0[v]) for v in chart.variables)
    times, states, derivs = _integrate(
        lambda _t, y: fn(y), y0, t_end, rtol=rtol, atol=atol, h_max=h_max,
        fixed_step=fixed_step)
    return FlowTrace(chart, times, states, derivs)


# ---------------------------------------------------------------------------
# bi-extremal traces
# ---------------------------------------------------------------------------

class BiExtremalTrace(NamedTuple):
    """A singular trajectory with its costate, resolved controls, and
    per-node constraint residuals.  `times` and `residuals` are tuples
    of floats; `states`, `costates` and `controls` hold one tuple of
    floats per node."""

    chart: Chart
    times: tuple
    states: tuple
    costates: tuple
    controls: tuple
    residuals: tuple

    @property
    def max_residual(self) -> float:
        return _max_abs(self.residuals)

    def point(self, index: int) -> dict:
        return dict(zip(self.chart.variables, self.states[index]))


def _as_vector(names: tuple, value, error, what: str) -> tuple:
    """A {name: value} point or a sequence in `names` order, as a tuple
    of floats."""
    if isinstance(value, dict):
        missing = [v for v in names if v not in value]
        if missing:
            raise error(f"{what} misses components {missing}")
        return tuple(float(value[v]) for v in names)
    vec = tuple(float(v) for v in value)
    if len(vec) != len(names):
        raise error(
            f"expected {len(names)} {what} values, got {len(vec)}")
    return vec


def integrate_biextremal(cs: ControlSystem, x0, p0, u0, t_end, *,
                         rtol: float = 1e-10, atol: float = 1e-12,
                         h_max: Optional[float] = None,
                         fixed_step: Optional[float] = None,
                         constraint_tol: float = _CONSTRAINT_TOL,
                         max_newton: int = 50) -> BiExtremalTrace:
    """Integrate the constrained costate system: the state follows the
    dynamics, the costate follows the negative state-gradient of the
    pairing, and the control is re-projected at every stage.

    The initial data must satisfy the control-gradient constraint; the
    costate must be nonzero and stay bounded away from zero.  Every
    accepted node is checked against `constraint_tol`.  The system's
    pairing and compiled batches are built once, on its first
    integration.
    """
    prep = cs.prepared
    m = cs.state_chart.dimension
    x_init = _as_vector(cs.state_chart.variables, x0, ChartError, "state")
    p_init = _as_vector(prep.ham.costate_names, p0, StructureError,
                        "costate")
    p_scale = _norm(p_init)
    if p_scale == 0.0:
        raise StructureError("the costate must be nonzero")
    u_init = _as_vector(cs.control_names, u0, StructureError, "control")

    def residual_of(x, p, u):
        return _max_abs(prep.res_fn(x + p + u))

    initial_residual = _at(0.0, residual_of, x_init, p_init, u_init)
    if not initial_residual <= constraint_tol * max(1.0, p_scale):
        raise StructureError(
            f"initial data violates the constraint: residual "
            f"{initial_residual:.3e}")

    residual_rows = []
    control_rows = []
    current_u = u_init

    def rhs(_t, y):
        # every stage, of accepted and rejected steps alike, starts from
        # the control of the last accepted node
        nonlocal current_u
        x, p = y[:m], y[m:]
        start = control_rows[-1] if control_rows else u_init
        current_u = prep.resolve(x, p, start, max_newton)
        fc = x + current_u
        jac = prep.jac_fn(fc)  # row by row: jac[j::m] is column j
        return (*prep.f_fn(fc), *(-_dot(p, jac[j::m]) for j in range(m)))

    def accept(t, y, _f):
        x, p = y[:m], y[m:]
        p_norm = _norm(p)
        if p_norm < _COSTATE_FLOOR * max(1.0, p_scale):
            raise IntegrationError(
                f"costate vanished at t={t:.6g}: the path is no longer "
                "abnormal")
        res = residual_of(x, p, current_u)
        if not res <= constraint_tol * max(1.0, p_norm):
            raise IntegrationError(
                f"constraint residual {res:.3e} exceeds "
                f"{constraint_tol:.1e} at t={t:.6g}")
        residual_rows.append(res)
        control_rows.append(current_u)

    times, ys, _derivs = _integrate(
        rhs, x_init + p_init, t_end,
        rtol=rtol, atol=atol, h_max=h_max, fixed_step=fixed_step,
        accept_hook=accept)
    return BiExtremalTrace(
        chart=cs.state_chart,
        times=times,
        states=tuple(y[:m] for y in ys),
        costates=tuple(y[m:] for y in ys),
        controls=tuple(control_rows),
        residuals=tuple(residual_rows))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify_biextremal(structure: PseudoProductStructure,
                        trace: BiExtremalTrace) -> str:
    """Classify a trace on the six-dimensional chart by its costate.

    regular-singular: the costate annihilates the plane field and its
    first bracket extension at every node, but never the second.
    totally-irregular: it annihilates the second extension at every
    node.  Anything else is unclassified.
    """
    if trace.chart != structure.z_chart:
        raise ChartError(
            "the trace does not live on the chart of the splitting")
    # K, L, e3, e4
    fields = (structure.k_field, structure.l_field) \
        + structure.bracket_chain[:2]
    n = structure.z_chart.dimension
    fields_fn = compile_exprs(
        [c for f in fields for c in f.components],
        structure.z_chart.variables, structure.z_chart.registry)
    deep_zero = True
    deep_nonzero = True
    for x, p in zip(trace.states, trace.costates):
        vals = fields_fn(x)
        tol = _CLASSIFY_RTOL * _norm(p)
        pairings = [_dot(p, vals[i * n:(i + 1) * n]) for i in range(4)]
        if not all(abs(q) <= tol for q in pairings[:3]):
            return "unclassified"
        if abs(pairings[3]) <= tol:
            deep_nonzero = False
        else:
            deep_zero = False
    if deep_zero:
        return "totally-irregular"
    if deep_nonzero:
        return "regular-singular"
    return "unclassified"


# ---------------------------------------------------------------------------
# leaf generators and fiber lifts
# ---------------------------------------------------------------------------

def _float_direction(vec) -> list:
    """The entries of a vector as floats, first divided exactly by the
    largest |entry| where plain conversion overflows or gives no finite
    positive norm, as a rational vector of huge or tiny entries does."""
    try:
        floats = [float(a) for a in vec]
        if 0.0 < _norm(floats) < math.inf \
                or not all(map(math.isfinite, floats)):
            return floats
    except OverflowError:
        pass
    top = max(abs(Fraction(a)) for a in vec)
    return [float(Fraction(a) / top) for a in vec] if top else floats


def _annihilating_costate(rows, prefer_row) -> tuple:
    """A nullspace element of the rows, chosen to maximize the pairing
    with `prefer_row`, unit-normalized.  Exact elimination for rational
    data, otherwise a floating nullspace."""
    basis = nullspace(rows)
    if not basis:
        raise StructureError("the annihilator conditions leave no costate")
    prefer = _float_direction(prefer_row)
    best, best_val = None, -1.0
    for vec in basis:
        vec = _float_direction(vec)
        val = abs(_dot(vec, prefer))
        if val > best_val:
            best, best_val = vec, val
    size = _norm(best)
    return tuple(x / size for x in best)


def lift_fiber(structure: PseudoProductStructure, side: str,
               z0: Optional[dict] = None,
               t_end: float = 0.5) -> BiExtremalTrace:
    """Transport a costate along one leaf of the splitting with the
    control held fixed on that leaf's generator.

    The initial costate solves exact annihilator conditions: for the
    L-leaf it annihilates the plane field and its first bracket
    extension (picked for a large pairing against the second); for the
    K-leaf it annihilates the extension chain through depth three.  The
    persistence of the constraint along the leaf is not imposed, it is
    measured.
    """
    if side not in ("K", "L"):
        raise StructureError(f"side must be 'K' or 'L', got {side!r}")
    if z0 is None:
        z0 = structure.base_point
    # K, L, e3, ..., e6: the L-leaf annihilates K, L, e3 and prefers e4,
    # the K-leaf annihilates K, ..., e5 and prefers e6
    chain = (structure.k_field, structure.l_field) + structure.bracket_chain
    depth, u0 = (3, (0.0, 1.0)) if side == "L" else (5, (1.0, 0.0))
    rows = [f.evaluate_at(z0) for f in chain[:depth]]
    prefer = chain[depth].evaluate_at(z0)
    p0 = _annihilating_costate(rows, prefer)
    cs = prolonged_system(structure)
    return integrate_biextremal(cs, z0, p0, u0, t_end)


# ---------------------------------------------------------------------------
# cross-validation of the two-sided correspondence
# ---------------------------------------------------------------------------

class DualityReport(NamedTuple):
    """Outcome of comparing a projected leaf against an independently
    integrated singular bi-extremal; `meta` holds the step counts and
    residuals of the comparison that `verify_duality` made."""

    passed: bool
    sup_distance: float
    tol: float
    side: str
    coordinate: str
    interval: tuple
    samples: int
    meta: Optional[dict] = None

    def __bool__(self):
        return self.passed

    def summary_line(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        lo, hi = self.interval
        return (f"{verdict}: sup-distance {self.sup_distance:.3e} "
                f"(tol {self.tol:.1e}) over {self.coordinate} in "
                f"[{lo:.4g}, {hi:.4g}]")


def _hermite_curves(params, values, slopes):
    """Evaluator for a batch of cubic Hermite interpolants sharing a
    strictly increasing parameter grid; it returns a tuple of floats."""

    def at(s):
        idx = bisect.bisect_right(params, s) - 1
        idx = min(max(idx, 0), len(params) - 2)
        width = params[idx + 1] - params[idx]
        u = (s - params[idx]) / width
        h00 = 2 * u ** 3 - 3 * u ** 2 + 1
        h10 = u ** 3 - 2 * u ** 2 + u
        h01 = -2 * u ** 3 + 3 * u ** 2
        h11 = u ** 3 - u ** 2
        return tuple(
            h00 * v0 + h10 * width * s0 + h01 * v1 + h11 * width * s1
            for v0, s0, v1, s1 in zip(values[idx], slopes[idx],
                                      values[idx + 1], slopes[idx + 1]))

    return at


def _sup_distance(curve_a, curve_b, lo, hi, samples) -> float:
    """The largest coordinate gap between two curves over `samples`
    evenly spaced parameters in [lo, hi]; NaN when any gap is NaN, so
    that no tolerance passes it.  The parameters are numpy's linspace:
    i * step + lo, with hi itself last."""
    step = (hi - lo) / (samples - 1)
    grid = [i * step + lo for i in range(samples - 1)] + [hi]
    return _max_abs(a - b for s in grid
                    for a, b in zip(curve_a(s), curve_b(s)))


def _reparametrized(states, derivs, column):
    """(parameter grid, values, slopes) of a curve re-read as a graph
    over one strictly monotone state column, grid put in increasing
    order."""
    params = [y[column] for y in states]
    diffs = [b - a for a, b in zip(params, params[1:])]
    if all(d > 0 for d in diffs):
        order = 1
    elif all(d < 0 for d in diffs):
        order = -1
    else:
        raise IntegrationError(
            "the reparametrizing coordinate is not strictly monotone "
            "along the curve")
    if any(abs(f[column]) < 1e-14 for f in derivs):
        raise IntegrationError(
            "the reparametrizing coordinate stalls along the curve")
    slopes = [tuple(x / f[column] for x in f) for f in derivs]
    return params[::order], states[::order], slopes[::order]


def singular_launch(cs: ControlSystem, x0: dict, theta0):
    """Initial costate and control for the singular path launched from
    x0 toward the direction parameter theta0.

    The costate solves the exact annihilator conditions of the side the
    system was built from (its source cone family or distribution); the
    control is the matching unit direction.
    """
    if isinstance(cs.source, ConeFamily):
        family = cs.source
        z0 = {**x0, family.theta: theta0}
        rows = [family.zeta(k).evaluate_at(z0)[:5] for k in (2, 3)]
        prefer = family.zeta(4).evaluate_at(z0)[:5]
        p0 = _annihilating_costate(rows, prefer)
        return p0, (1.0, float(theta0))
    if isinstance(cs.source, Distribution235):
        dist = cs.source
        ratio = as_fraction(theta0)
        mixed = combine(dist.eta4, ratio, dist.eta5, "eta4+ratio*eta5")
        rows = [f.evaluate_at(x0)
                for f in (dist.eta1, dist.eta2, dist.eta3, mixed)]
        prefer = dist.eta5.evaluate_at(x0)
        p0 = _annihilating_costate(rows, prefer)
        size = math.hypot(1.0, float(ratio))
        u0 = (1.0 / size, float(ratio) / size)
        return p0, u0
    raise StructureError(
        "the control system does not carry its cone family or "
        "distribution")


def verify_duality(structure: PseudoProductStructure, cs: ControlSystem,
                   x0: dict, theta0, t_end: float,
                   tol: float = _DUALITY_TOL, *,
                   fixed_step: Optional[float] = None,
                   samples: int = 200) -> DualityReport:
    """Compare the projected leaf through (x0, theta0) with the singular
    bi-extremal of the control system launched from x0 toward theta0.

    Both legs are integrated independently, re-read as graphs over the
    first state coordinate, and compared in sup norm on the common
    window.  The annihilator conditions fixing the initial costate are
    solved exactly; the report states the certified window.
    """
    z_vars = structure.z_chart.variables
    state_vars = cs.state_chart.variables
    extra = [v for v in z_vars if v not in state_vars]
    if len(extra) != 1 or tuple(v for v in z_vars if v != extra[0]) \
            != state_vars:
        raise ChartError(
            "the control system chart must be the splitting chart minus "
            "one fiber coordinate")
    fiber = extra[0]
    z0 = {**x0, fiber: theta0}

    # Which generator projects to a moving direction (a value that is
    # not zero by linalg's rule) decides the side.
    keep = [i for i, v in enumerate(z_vars) if v != fiber]
    k_moves, l_moves = (
        not all(is_zero_value(values[i]) for i in keep)
        for values in (structure.k_field.evaluate_at(z0),
                       structure.l_field.evaluate_at(z0)))
    if k_moves == l_moves:
        raise StructureError(
            "cannot decide the leaf side: exactly one generator must "
            "project to a moving direction")
    side = "K" if k_moves else "L"
    leaf = structure.k_field if side == "K" else structure.l_field

    # a fixed step, when given, replaces the step cap
    h_max = abs(float(t_end)) / 64
    try:
        leaf_trace = integrate_flow(
            leaf, z0, t_end, rtol=_DUALITY_RTOL, atol=_DUALITY_ATOL,
            h_max=h_max, fixed_step=fixed_step)
    except IntegrationError as exc:
        raise IntegrationError(f"leaf-flow leg failed: {exc}") from exc

    # Initial costate from exact annihilator conditions, by side.
    kind, what = ((ConeFamily, "cone family") if side == "L"
                  else (Distribution235, "distribution"))
    if not isinstance(cs.source, kind):
        raise StructureError(f"the control system does not carry its {what}")
    p0, u0 = singular_launch(cs, x0, theta0)

    try:
        path_trace = integrate_biextremal(
            cs, x0, p0, u0, t_end, rtol=_DUALITY_RTOL, atol=_DUALITY_ATOL,
            h_max=h_max, fixed_step=fixed_step)
    except (IntegrationError, StructureError) as exc:
        raise IntegrationError(f"bi-extremal leg failed: {exc}") from exc

    # Project the leaf and compare both legs as graphs over the first
    # state coordinate.
    leaf_states = [tuple(y[i] for i in keep) for y in leaf_trace.states]
    leaf_derivs = [tuple(f[i] for i in keep)
                   for f in leaf_trace.derivatives]
    column = 0
    grid_a, vals_a, slopes_a = _reparametrized(
        leaf_states, leaf_derivs, column)

    f_fn = cs.prepared.f_fn
    path_derivs = [tuple(f_fn(x + u))
                   for x, u in zip(path_trace.states, path_trace.controls)]
    grid_b, vals_b, slopes_b = _reparametrized(
        path_trace.states, path_derivs, column)

    lo = max(grid_a[0], grid_b[0])
    hi = min(grid_a[-1], grid_b[-1])
    if hi <= lo:
        raise IntegrationError(
            "the two legs share no window in the reparametrizing "
            "coordinate")
    sup = _sup_distance(_hermite_curves(grid_a, vals_a, slopes_a),
                        _hermite_curves(grid_b, vals_b, slopes_b),
                        lo, hi, samples)
    return DualityReport(
        passed=sup <= tol,
        sup_distance=sup,
        tol=tol,
        side=side,
        coordinate=state_vars[column],
        interval=(lo, hi),
        samples=samples,
        meta={"leaf_steps": len(leaf_trace.times) - 1,
              "path_steps": len(path_trace.times) - 1,
              "path_max_residual": path_trace.max_residual,
              "t_end": float(t_end)})
