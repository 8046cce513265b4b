"""Control systems and singular-path numerics.

A control system pairs a state chart with a control-dependent dynamics
vector.  Singular (abnormal) trajectories are integrated as bi-extremals
of the Hamiltonian pairing between costate and dynamics, with the
control kept on the constraint manifold by per-stage projection.  Traces
are classified by which annihilation conditions the costate maintains,
and the leaf/path correspondence between the two sides of a splitting is
cross-validated numerically.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .boxes import Box, as_fraction
from .conedual import ConeFamily
from .distduality import (
    Distribution235, PseudoProductStructure, StructureError,
)
from .linalg import nullspace
from .scalar import (
    Const, OpaqueRegistry, Prod, ScalarExpr, Sum, Var, compile_exprs,
    differentiate, evaluate, free_variables, normalize,
)
from .vecfield import Chart, ChartError, VectorField, lie_bracket


class IntegrationError(RuntimeError):
    """A numerical leg could not be completed."""


_CONSTRAINT_TOL = 1e-9
_NEWTON_TOL = 1e-12
_CLASSIFY_RTOL = 1e-8
_DUALITY_TOL = 1e-6
_BISECT_TOL = 1e-10
_COSTATE_FLOOR = 1e-10

_MODES = ("newton", "linear-singular", "fixed")


# ---------------------------------------------------------------------------
# control systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlSystem:
    """Dynamics F(x, u) over a state chart with named controls.

    `mode` selects how the control is kept on the singular-constraint
    manifold during integration:

    - "newton": damped Newton on the single control named by
      `newton_control`; the remaining controls stay at their initial
      (gauge) values.
    - "linear-singular": for dynamics linear in two controls the
      control gradient of the pairing does not involve the control, so
      the constraint only pins the control after differentiation; the
      resolved control is the kernel direction of the costate pairings
      with the two `rule_fields`, oriented continuously.
    - "fixed": the control is held constant (leaf transport).
    """

    state_chart: Chart
    control_names: tuple
    dynamics: tuple
    mode: str
    box: Box = field(compare=False)
    registry: OpaqueRegistry = field(compare=False)
    name: str = "system"
    newton_control: Optional[str] = None
    rule_fields: Optional[tuple] = field(default=None, compare=False)
    source: object = field(default=None, compare=False)

    def __post_init__(self):
        if self.mode not in _MODES:
            raise StructureError(
                f"unknown control mode {self.mode!r}; expected one of "
                f"{_MODES}")
        if len(self.dynamics) != self.state_chart.dimension:
            raise ChartError(
                "dynamics must have one component per state coordinate")
        if not self.control_names:
            raise StructureError("a control system needs controls")
        if len(set(self.control_names)) != len(self.control_names):
            raise StructureError("duplicate control names")
        for control in self.control_names:
            if control in self.state_chart.variables:
                raise ChartError(
                    f"control {control!r} collides with a state "
                    "coordinate")
        allowed = set(self.state_chart.variables) | set(self.control_names)
        for comp in self.dynamics:
            stray = free_variables(comp) - allowed
            if stray:
                raise ChartError(
                    f"dynamics mention unknown symbols {sorted(stray)}")
        if self.mode == "newton" and \
                self.newton_control not in self.control_names:
            raise StructureError(
                "newton mode needs `newton_control` among the controls")
        if self.mode == "linear-singular":
            if self.rule_fields is None or len(self.rule_fields) != 2:
                raise StructureError(
                    "linear-singular mode needs the two rule fields")


def cone_system(family: ConeFamily, radial: str = "r") -> ControlSystem:
    """Control system of a cone family: the states are the base
    coordinates, the controls are a radial scale and the direction
    coordinate, and the dynamics is the scaled moving generator."""
    if radial in family.x_chart.variables or radial == family.theta:
        raise ChartError(
            f"radial control {radial!r} collides with a coordinate")
    generator = family.zeta(2)
    dynamics = tuple(
        normalize(Prod((Var(radial), comp)),
                  family.z_chart.variables + (radial,))
        for comp in generator.components[:5])
    state_box = Box(tuple(iv for iv in family.box.intervals
                          if iv[0] != family.theta))
    return ControlSystem(
        state_chart=family.x_chart,
        control_names=(radial, family.theta),
        dynamics=dynamics,
        mode="newton",
        box=state_box,
        registry=family.registry,
        name=family.name,
        newton_control=family.theta,
        source=family)


def distribution_system(dist: Distribution235,
                        controls: tuple = ("u1", "u2")) -> ControlSystem:
    """Control system of a rank-2 distribution: dynamics linear in two
    controls along the generators.  The singular-control rule pairs the
    costate with the two depth-three brackets."""
    u1, u2 = controls
    dynamics = tuple(
        normalize(Sum((Prod((Var(u1), a)), Prod((Var(u2), b)))),
                  dist.chart.variables + tuple(controls))
        for a, b in zip(dist.eta1.components, dist.eta2.components))
    return ControlSystem(
        state_chart=dist.chart,
        control_names=tuple(controls),
        dynamics=dynamics,
        mode="linear-singular",
        box=dist.box,
        registry=dist.registry,
        name=dist.name,
        rule_fields=(dist.eta4, dist.eta5),
        source=dist)


def prolonged_system(structure: PseudoProductStructure,
                     mode: str = "linear-singular",
                     controls: tuple = ("u1", "u2")) -> ControlSystem:
    """Control system of the split plane field on the six-dimensional
    chart: dynamics linear in two controls along the K- and L-generators.

    With mode "linear-singular" the resolved control follows the
    singular rule; with mode "fixed" a constant control transports along
    one leaf.
    """
    u1, u2 = controls
    k_field, l_field = structure.k_field, structure.l_field
    dynamics = tuple(
        normalize(Sum((Prod((Var(u1), a)), Prod((Var(u2), b)))),
                  structure.z_chart.variables + tuple(controls))
        for a, b in zip(k_field.components, l_field.components))
    e3 = lie_bracket(k_field, l_field, structure.registry)
    rule = (lie_bracket(k_field, e3, structure.registry),
            lie_bracket(l_field, e3, structure.registry))
    return ControlSystem(
        state_chart=structure.z_chart,
        control_names=tuple(controls),
        dynamics=dynamics,
        mode=mode,
        box=structure.box,
        registry=structure.registry,
        name=structure.name,
        rule_fields=rule,
        source=structure)


# ---------------------------------------------------------------------------
# the Hamiltonian pairing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianData:
    """The costate pairing H = sum_i p_i F^i with all first partials."""

    state_names: tuple
    costate_names: tuple
    control_names: tuple
    h: ScalarExpr
    dh_dx: tuple
    dh_dp: tuple
    dh_du: tuple

    @property
    def variables(self) -> tuple:
        return self.state_names + self.costate_names + self.control_names


def hamiltonian(cs: ControlSystem) -> HamiltonianData:
    """Build the pairing of a costate with the dynamics, plus its exact
    partial derivatives in states, costates, and controls."""
    states = cs.state_chart.variables
    costates = tuple(f"p{i + 1}" for i in range(len(states)))
    taken = set(states) | set(cs.control_names)
    for name in costates:
        if name in taken:
            raise ChartError(
                f"costate name {name!r} collides with a coordinate")
    variables = states + costates + cs.control_names
    h = normalize(
        Sum(tuple(Prod((Var(p), comp))
                  for p, comp in zip(costates, cs.dynamics))),
        variables)
    dh_dx = tuple(differentiate(h, v, variables, cs.registry)
                  for v in states)
    dh_dp = tuple(differentiate(h, v, variables, cs.registry)
                  for v in costates)
    dh_du = tuple(differentiate(h, v, variables, cs.registry)
                  for v in cs.control_names)
    return HamiltonianData(states, costates, cs.control_names,
                           h, dh_dx, dh_dp, dh_du)


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


def _dp_stages(rhs, t, y, f, h):
    """One Dormand-Prince step: fifth-order value, embedded fourth-order
    value, and the derivative at the new node (last stage)."""
    ks = [f]
    for stage in range(1, 7):
        acc = np.zeros_like(y)
        for j, a in enumerate(_DP_A[stage]):
            if a != 0.0:
                acc = acc + a * ks[j]
        ks.append(np.asarray(rhs(t + _DP_C[stage] * h, y + h * acc),
                             dtype=float))
    y5 = y.copy()
    y4 = y.copy()
    for b5, b4, k in zip(_DP_B5, _DP_B4, ks):
        if b5 != 0.0:
            y5 = y5 + (h * b5) * k
        if b4 != 0.0:
            y4 = y4 + (h * b4) * k
    return y5, y4, ks[6]


def _integrate(rhs, y0, t_end, *, rtol, atol, h_max=None, fixed_step=None,
               accept_hook=None, max_steps=200000):
    """Explicit embedded Runge-Kutta drive from t=0 to t=t_end (either
    sign).  Returns (times, states, derivatives) at accepted nodes.

    With `fixed_step` the interval is covered in equal steps and the
    error estimate is ignored.  `accept_hook(t, y, f)` runs at every
    accepted node (including the initial one) and may raise.
    """
    span = abs(float(t_end))
    if span == 0.0:
        raise IntegrationError("empty integration interval")
    direction = 1.0 if t_end > 0 else -1.0
    y = np.asarray(y0, dtype=float).copy()
    t = 0.0
    f = np.asarray(rhs(t, y), dtype=float)
    times, states, derivs = [t], [y.copy()], [f.copy()]
    if accept_hook is not None:
        accept_hook(t, y, f)

    def record(t_new, y_new, f_new):
        times.append(t_new)
        states.append(y_new.copy())
        derivs.append(f_new.copy())
        if accept_hook is not None:
            accept_hook(t_new, y_new, f_new)

    if fixed_step is not None:
        count = max(1, int(round(span / abs(float(fixed_step)))))
        h = direction * span / count
        for i in range(count):
            y5, _y4, f = _dp_stages(rhs, t, y, f, h)
            t = direction * span * (i + 1) / count
            y = y5
            record(t, y, f)
        return (np.array(times), np.vstack(states), np.vstack(derivs))

    cap = h_max if h_max is not None else span / 16.0
    h = direction * min(span / 16.0, cap)
    steps = 0
    while abs(t) < span * (1 - 1e-14):
        if steps >= max_steps:
            raise IntegrationError(
                f"step limit reached at t={t:.6g} (span {span:.6g})")
        steps += 1
        remaining = direction * span - t
        if abs(h) > abs(remaining):
            h = remaining
        if abs(h) > cap:
            h = direction * cap
        y5, y4, f_new = _dp_stages(rhs, t, y, f, h)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
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
    return (np.array(times), np.vstack(states), np.vstack(derivs))


# ---------------------------------------------------------------------------
# plain flows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowTrace:
    """Integral curve of a vector field: nodes with exact derivatives."""

    chart: Chart
    times: np.ndarray = field(compare=False)
    states: np.ndarray = field(compare=False)
    derivatives: np.ndarray = field(compare=False)

    def end_point(self) -> dict:
        return dict(zip(self.chart.variables, map(float, self.states[-1])))


def integrate_flow(flow: VectorField, z0: dict, t_end: float, *,
                   registry: Optional[OpaqueRegistry] = None,
                   rtol: float = 1e-10, atol: float = 1e-12,
                   h_max: Optional[float] = None,
                   fixed_step: Optional[float] = None,
                   accept_hook=None) -> FlowTrace:
    """Integrate the flow of a vector field from a chart point."""
    chart = flow.chart
    fn = compile_exprs(flow.components, chart.variables, registry)
    y0 = np.array([float(z0[v]) for v in chart.variables])

    def rhs(_t, y):
        return fn(y)

    times, states, derivs = _integrate(
        rhs, y0, t_end, rtol=rtol, atol=atol, h_max=h_max,
        fixed_step=fixed_step, accept_hook=accept_hook)
    return FlowTrace(chart, times, states, derivs)


# ---------------------------------------------------------------------------
# bi-extremal traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiExtremalTrace:
    """A singular trajectory with its costate, resolved controls, and
    per-node constraint residuals."""

    system_name: str
    chart: Chart
    control_names: tuple
    times: np.ndarray = field(compare=False)
    states: np.ndarray = field(compare=False)
    costates: np.ndarray = field(compare=False)
    controls: np.ndarray = field(compare=False)
    residuals: np.ndarray = field(compare=False)
    classification: str = "unclassified"
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))

    def point(self, index: int) -> dict:
        return dict(zip(self.chart.variables,
                        map(float, self.states[index])))


def _as_state_array(chart: Chart, value) -> np.ndarray:
    if isinstance(value, dict):
        missing = [v for v in chart.variables if v not in value]
        if missing:
            raise ChartError(f"point misses coordinates {missing}")
        return np.array([float(value[v]) for v in chart.variables])
    arr = np.asarray(value, dtype=float)
    if arr.shape != (chart.dimension,):
        raise ChartError(
            f"expected {chart.dimension} state values, got {arr.shape}")
    return arr.copy()


def _as_control_array(cs: ControlSystem, value) -> np.ndarray:
    if isinstance(value, dict):
        missing = [u for u in cs.control_names if u not in value]
        if missing:
            raise StructureError(f"control misses components {missing}")
        return np.array([float(value[u]) for u in cs.control_names])
    arr = np.asarray(value, dtype=float)
    if arr.shape != (len(cs.control_names),):
        raise StructureError(
            f"expected {len(cs.control_names)} control values, got "
            f"{arr.shape}")
    return arr.copy()


class _ControlResolver:
    """Per-stage projection of the control onto the constraint manifold,
    warm-started from the control it is given."""

    def __init__(self, cs, ham, *, newton_tol, max_newton):
        self.cs = cs
        self.mode = cs.mode
        self.newton_tol = newton_tol
        self.max_newton = max_newton
        self.m = cs.state_chart.dimension
        if self.mode == "newton":
            self.slot = cs.control_names.index(cs.newton_control)
            g = ham.dh_du[self.slot]
            gp = differentiate(g, cs.newton_control, ham.variables,
                               cs.registry)
            self.g_fn = compile_exprs((g, gp), ham.variables, cs.registry)
        elif self.mode == "linear-singular":
            a_field, b_field = cs.rule_fields
            self.rule_fn = compile_exprs(
                a_field.components + b_field.components,
                cs.state_chart.variables, cs.registry)

    def __call__(self, x, p, u):
        if self.mode == "fixed":
            return u
        if self.mode == "linear-singular":
            vals = self.rule_fn(x)
            w_a = float(np.dot(p, vals[:self.m]))
            w_b = float(np.dot(p, vals[self.m:]))
            norm = float(np.hypot(w_a, w_b))
            if norm <= 1e-12 * max(1.0, float(np.linalg.norm(p))):
                raise IntegrationError(
                    "control rule lost rank: both singular pairings "
                    "vanish")
            candidate = np.array([w_b / norm, -w_a / norm])
            if float(np.dot(candidate, u)) < 0.0:
                candidate = -candidate
            return candidate
        # damped scalar Newton on the designated control
        u = u.copy()
        scale = max(1.0, float(np.linalg.norm(p)))
        for _ in range(self.max_newton):
            g, gp = self.g_fn(np.concatenate([x, p, u]))
            if abs(g) <= self.newton_tol * scale:
                return u
            if abs(gp) <= 1e-10 * scale:
                raise IntegrationError(
                    "constraint Jacobian lost rank during projection")
            step = -g / gp
            lam = 1.0
            while lam >= 1 / 1024:
                trial = u.copy()
                trial[self.slot] += lam * step
                g_new = self.g_fn(np.concatenate([x, p, trial]))[0]
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
            f"{self.max_newton} iterations")


def integrate_biextremal(cs: ControlSystem, x0, p0, u0, t_end, *,
                         rtol: float = 1e-10, atol: float = 1e-12,
                         h_max: Optional[float] = None,
                         fixed_step: Optional[float] = None,
                         constraint_tol: float = _CONSTRAINT_TOL,
                         newton_tol: float = _NEWTON_TOL,
                         max_newton: int = 50) -> BiExtremalTrace:
    """Integrate the constrained costate system: the state follows the
    dynamics, the costate follows the negative state-gradient of the
    pairing, and the control is re-projected at every stage.

    The initial data must satisfy the control-gradient constraint; the
    costate must be nonzero and stay bounded away from zero.  Every
    accepted node is checked against `constraint_tol`.
    """
    ham = hamiltonian(cs)
    m = cs.state_chart.dimension
    x_init = _as_state_array(cs.state_chart, x0)
    p_init = np.asarray(p0, dtype=float).copy()
    if p_init.shape != (m,):
        raise StructureError(
            f"expected {m} costate values, got {p_init.shape}")
    p_scale = float(np.linalg.norm(p_init))
    if p_scale == 0.0:
        raise StructureError("the costate must be nonzero")
    u_init = _as_control_array(cs, u0)

    f_vars = cs.state_chart.variables + cs.control_names
    f_fn = compile_exprs(cs.dynamics, f_vars, cs.registry)
    jac_exprs = tuple(
        differentiate(comp, v, f_vars, cs.registry)
        for comp in cs.dynamics for v in cs.state_chart.variables)
    jac_fn = compile_exprs(jac_exprs, f_vars, cs.registry)
    res_fn = compile_exprs(ham.dh_du, ham.variables, cs.registry)

    def residual_of(x, p, u):
        vals = res_fn(np.concatenate([x, p, u]))
        return float(np.max(np.abs(vals)))

    initial_residual = residual_of(x_init, p_init, u_init)
    if initial_residual > constraint_tol * max(1.0, p_scale):
        raise StructureError(
            f"initial data violates the constraint: residual "
            f"{initial_residual:.3e}")

    resolver = _ControlResolver(cs, ham, newton_tol=newton_tol,
                                max_newton=max_newton)
    residual_rows = []
    control_rows = []
    current_u = u_init

    def rhs(_t, y):
        # every stage, of accepted and rejected steps alike, starts from
        # the control of the last accepted node
        nonlocal current_u
        x, p = y[:m], y[m:]
        start = control_rows[-1] if control_rows else u_init
        current_u = resolver(x, p, start)
        fc = np.concatenate([x, current_u])
        x_dot = np.array(f_fn(fc))
        jac = np.array(jac_fn(fc)).reshape(m, m)
        p_dot = -(p @ jac)
        return np.concatenate([x_dot, p_dot])

    def accept(t, y, _f):
        x, p = y[:m], y[m:]
        p_norm = float(np.linalg.norm(p))
        if p_norm < _COSTATE_FLOOR * max(1.0, p_scale):
            raise IntegrationError(
                f"costate vanished at t={t:.6g}: the path is no longer "
                "abnormal")
        res = residual_of(x, p, current_u)
        if res > constraint_tol * max(1.0, p_norm):
            raise IntegrationError(
                f"constraint residual {res:.3e} exceeds "
                f"{constraint_tol:.1e} at t={t:.6g}")
        residual_rows.append(res)
        control_rows.append(current_u.copy())

    times, ys, _derivs = _integrate(
        rhs, np.concatenate([x_init, p_init]), t_end,
        rtol=rtol, atol=atol, h_max=h_max, fixed_step=fixed_step,
        accept_hook=accept)
    return BiExtremalTrace(
        system_name=cs.name,
        chart=cs.state_chart,
        control_names=cs.control_names,
        times=times,
        states=ys[:, :m],
        costates=ys[:, m:],
        controls=np.vstack(control_rows),
        residuals=np.array(residual_rows),
        meta={"mode": cs.mode, "interval": (0.0, float(t_end)),
              "constraint_tol": constraint_tol,
              "steps": len(times) - 1})


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify_biextremal(structure: PseudoProductStructure,
                        trace: BiExtremalTrace, *,
                        rtol: float = _CLASSIFY_RTOL) -> str:
    """Classify a trace on the six-dimensional chart by its costate.

    regular-singular: the costate annihilates the plane field and its
    first bracket extension at every node, but never the second.
    totally-irregular: it annihilates the second extension at every
    node.  Anything else is unclassified.
    """
    if trace.chart != structure.z_chart:
        raise ChartError(
            "the trace does not live on the chart of the splitting")
    k_field, l_field = structure.k_field, structure.l_field
    e3 = lie_bracket(k_field, l_field, structure.registry)
    e4 = lie_bracket(k_field, e3, structure.registry)
    n = structure.z_chart.dimension
    fields_fn = compile_exprs(
        k_field.components + l_field.components + e3.components
        + e4.components,
        structure.z_chart.variables, structure.registry)
    deep_zero = True
    deep_nonzero = True
    for x, p in zip(trace.states, trace.costates):
        vals = fields_fn(x)
        tol = rtol * float(np.linalg.norm(p))
        pairings = [float(np.dot(p, vals[i * n:(i + 1) * n]))
                    for i in range(4)]
        if max(abs(q) for q in pairings[:3]) > tol:
            return "unclassified"
        if abs(pairings[3]) > tol:
            deep_zero = False
        else:
            deep_nonzero = False
    if deep_zero:
        return "totally-irregular"
    if deep_nonzero:
        return "regular-singular"
    return "unclassified"


# ---------------------------------------------------------------------------
# leaf generators and fiber lifts
# ---------------------------------------------------------------------------

def singular_path_field(structure: PseudoProductStructure,
                        side: str) -> VectorField:
    """The generator of the chosen half of the splitting; its integral
    curves project (by dropping the sixth coordinate) onto the putative
    singular paths of the opposite side."""
    if side == "K":
        return structure.k_field
    if side == "L":
        return structure.l_field
    raise StructureError(f"side must be 'K' or 'L', got {side!r}")


def _exact_values(fields, point, registry) -> list:
    return [[evaluate(comp, point, registry) for comp in v.components]
            for v in fields]


def _annihilating_costate(rows, prefer_row) -> np.ndarray:
    """A nullspace element of the rows, chosen to maximize the pairing
    with `prefer_row`, unit-normalized.  Exact elimination for rational
    data, otherwise a floating nullspace."""
    basis = nullspace(rows)
    if not basis:
        raise StructureError("the annihilator conditions leave no costate")
    best, best_val = None, -1.0
    for vec in basis:
        val = abs(sum(float(a) * float(b)
                      for a, b in zip(vec, prefer_row)))
        if val > best_val:
            best, best_val = vec, val
    arr = np.array([float(x) for x in best])
    return arr / np.linalg.norm(arr)


def lift_fiber(structure: PseudoProductStructure, side: str,
               z0: Optional[dict] = None, t_end: float = 0.5,
               **options) -> BiExtremalTrace:
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
    k_field, l_field = structure.k_field, structure.l_field
    registry = structure.registry
    e3 = lie_bracket(k_field, l_field, registry)
    e4 = lie_bracket(k_field, e3, registry)
    if side == "L":
        rows = _exact_values((k_field, l_field, e3), z0, registry)
        prefer = _exact_values((e4,), z0, registry)[0]
        u0 = (0.0, 1.0)
    else:
        e5 = lie_bracket(k_field, e4, registry)
        rows = _exact_values((k_field, l_field, e3, e4, e5), z0, registry)
        prefer = _exact_values(
            (lie_bracket(l_field, e5, registry),), z0, registry)[0]
        u0 = (1.0, 0.0)
    p0 = _annihilating_costate(rows, prefer)
    cs = prolonged_system(structure, mode="fixed")
    return integrate_biextremal(cs, z0, p0, u0, t_end, **options)


# ---------------------------------------------------------------------------
# cross-validation of the two-sided correspondence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualityReport:
    """Outcome of comparing a projected leaf against an independently
    integrated singular bi-extremal."""

    passed: bool
    sup_distance: float
    tol: float
    side: str
    coordinate: str
    interval: tuple
    samples: int
    meta: dict = field(default_factory=dict, compare=False)

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
    strictly increasing parameter grid."""
    params = np.asarray(params)

    def at(s):
        idx = int(np.searchsorted(params, s, side="right") - 1)
        idx = min(max(idx, 0), len(params) - 2)
        width = params[idx + 1] - params[idx]
        u = (s - params[idx]) / width
        h00 = 2 * u ** 3 - 3 * u ** 2 + 1
        h10 = u ** 3 - 2 * u ** 2 + u
        h01 = -2 * u ** 3 + 3 * u ** 2
        h11 = u ** 3 - u ** 2
        return (h00 * values[idx] + h10 * width * slopes[idx]
                + h01 * values[idx + 1] + h11 * width * slopes[idx + 1])

    return at


def _reparametrized(states, derivs, column):
    """(parameter grid, values, slopes) of a curve re-read as a graph
    over one strictly monotone state column, grid put in increasing
    order."""
    params = states[:, column]
    diffs = np.diff(params)
    if np.all(diffs > 0):
        order = slice(None)
    elif np.all(diffs < 0):
        order = slice(None, None, -1)
    else:
        raise IntegrationError(
            "the reparametrizing coordinate is not strictly monotone "
            "along the curve")
    speeds = derivs[:, column]
    if np.any(np.abs(speeds) < 1e-14):
        raise IntegrationError(
            "the reparametrizing coordinate stalls along the curve")
    slopes = derivs / speeds[:, None]
    return params[order], states[order], slopes[order]


def _mixed_depth_field(dist: Distribution235, ratio: Fraction) -> VectorField:
    """The depth-three combination eta4 + ratio * eta5."""
    comps = tuple(
        normalize(Sum((a, Prod((Const(ratio), b)))), dist.chart.variables)
        for a, b in zip(dist.eta4.components, dist.eta5.components))
    return VectorField(dist.chart, comps, "eta4+ratio*eta5")


def singular_launch(cs: ControlSystem, x0: dict, theta0):
    """Initial costate and control for the singular path launched from
    x0 toward the direction parameter theta0.

    The costate solves the exact annihilator conditions of the side the
    system was built from (its source cone family or distribution); the
    control is the matching unit direction.
    """
    if isinstance(cs.source, ConeFamily):
        family = cs.source
        z0 = dict(x0)
        z0[family.theta] = theta0
        rows = [row[:5] for row in _exact_values(
            (family.zeta(2), family.zeta(3)), z0, family.registry)]
        prefer = [evaluate(c, z0, family.registry)
                  for c in family.zeta(4).components[:5]]
        p0 = _annihilating_costate(rows, prefer)
        u0 = {cs.control_names[0]: 1.0,
              cs.control_names[1]: float(theta0)}
        return p0, u0
    if isinstance(cs.source, Distribution235):
        dist = cs.source
        ratio = as_fraction(theta0)
        mixed = _mixed_depth_field(dist, ratio)
        rows = _exact_values(
            (dist.eta1, dist.eta2, dist.eta3, mixed), x0, dist.registry)
        prefer = _exact_values((dist.eta5,), x0, dist.registry)[0]
        p0 = _annihilating_costate(rows, prefer)
        norm = float(np.hypot(1.0, float(ratio)))
        u0 = (1.0 / norm, float(ratio) / norm)
        return p0, u0
    raise StructureError(
        "the control system does not carry its cone family or "
        "distribution")


def verify_duality(structure: PseudoProductStructure, cs: ControlSystem,
                   x0: dict, theta0, t_end: float,
                   tol: float = _DUALITY_TOL, *,
                   rtol: float = 1e-11, atol: float = 1e-13,
                   h_max: Optional[float] = None,
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
    z0 = dict(x0)
    z0[fiber] = theta0

    # Which generator projects to a moving direction decides the side.
    keep = [i for i, v in enumerate(z_vars) if v != fiber]
    k_proj = [evaluate(structure.k_field.components[i], z0,
                       structure.registry) for i in keep]
    l_proj = [evaluate(structure.l_field.components[i], z0,
                       structure.registry) for i in keep]
    k_moves = max(abs(float(x)) for x in k_proj) > 1e-12
    l_moves = max(abs(float(x)) for x in l_proj) > 1e-12
    if k_moves == l_moves:
        raise StructureError(
            "cannot decide the leaf side: exactly one generator must "
            "project to a moving direction")
    side = "K" if k_moves else "L"
    leaf = singular_path_field(structure, side)

    if h_max is None and fixed_step is None:
        h_max = abs(float(t_end)) / 64

    try:
        leaf_trace = integrate_flow(
            leaf, z0, t_end, registry=structure.registry, rtol=rtol,
            atol=atol, h_max=h_max, fixed_step=fixed_step)
    except IntegrationError as exc:
        raise IntegrationError(f"leaf-flow leg failed: {exc}") from exc

    # Initial costate from exact annihilator conditions, by side.
    if side == "L" and not isinstance(cs.source, ConeFamily):
        raise StructureError(
            "the control system does not carry its cone family")
    if side == "K" and not isinstance(cs.source, Distribution235):
        raise StructureError(
            "the control system does not carry its distribution")
    p0, u0 = singular_launch(cs, x0, theta0)

    try:
        path_trace = integrate_biextremal(
            cs, x0, p0, u0, t_end, rtol=rtol, atol=atol, h_max=h_max,
            fixed_step=fixed_step)
    except (IntegrationError, StructureError) as exc:
        raise IntegrationError(f"bi-extremal leg failed: {exc}") from exc

    # Project the leaf and compare both legs as graphs over the first
    # state coordinate.
    leaf_states = leaf_trace.states[:, keep]
    leaf_derivs = leaf_trace.derivatives[:, keep]
    column = 0
    grid_a, vals_a, slopes_a = _reparametrized(
        leaf_states, leaf_derivs, column)

    f_vars = cs.state_chart.variables + cs.control_names
    f_fn = compile_exprs(cs.dynamics, f_vars, cs.registry)
    path_derivs = np.vstack([
        f_fn(np.concatenate([x, u]))
        for x, u in zip(path_trace.states, path_trace.controls)])
    grid_b, vals_b, slopes_b = _reparametrized(
        path_trace.states, path_derivs, column)

    lo = max(grid_a[0], grid_b[0])
    hi = min(grid_a[-1], grid_b[-1])
    if hi <= lo:
        raise IntegrationError(
            "the two legs share no window in the reparametrizing "
            "coordinate")
    curve_a = _hermite_curves(grid_a, vals_a, slopes_a)
    curve_b = _hermite_curves(grid_b, vals_b, slopes_b)
    sup = 0.0
    for s in np.linspace(lo, hi, samples):
        sup = max(sup, float(np.max(np.abs(curve_a(s) - curve_b(s)))))
    return DualityReport(
        passed=sup <= tol,
        sup_distance=sup,
        tol=tol,
        side=side,
        coordinate=state_vars[column],
        interval=(float(lo), float(hi)),
        samples=samples,
        meta={"leaf_steps": len(leaf_trace.times) - 1,
              "path_steps": len(path_trace.times) - 1,
              "path_max_residual": path_trace.max_residual,
              "t_end": float(t_end)})


# ---------------------------------------------------------------------------
# slice crossings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SliceSpec:
    """A transversal hypersurface: one coordinate pinned to a level."""

    coordinate: str
    level: float = 0.0


class _CrossingFound(Exception):
    def __init__(self, bracket):
        self.bracket = bracket


def leaf_project(flow: VectorField, slice_spec: SliceSpec, z0: dict,
                 t_max: float, *, registry: Optional[OpaqueRegistry] = None,
                 rtol: float = 1e-10, atol: float = 1e-12,
                 h_max: Optional[float] = None,
                 bisect_tol: float = _BISECT_TOL) -> dict:
    """Follow the flow from z0 until it crosses the slice; the crossing
    is bisected to `bisect_tol` on the dense step interpolant.

    Both time directions are tried (the leaf through a point extends
    both ways).  A crossing with vanishing transversal speed and a
    missing crossing are reported as errors.
    """
    chart = flow.chart
    if slice_spec.coordinate not in chart.variables:
        raise ChartError(
            f"slice coordinate {slice_spec.coordinate!r} is not a chart "
            "variable")
    idx = chart.variables.index(slice_spec.coordinate)
    level = float(slice_spec.level)
    span = abs(float(t_max))
    if h_max is None:
        h_max = span / 64

    def transversal_or_raise(point: dict):
        speed = [float(evaluate(c, point, registry))
                 for c in flow.components]
        if abs(speed[idx]) < 1e-8 * max(1.0, max(map(abs, speed))):
            raise IntegrationError(
                "tangential crossing: the transversal speed vanishes at "
                "the slice")

    start_gap = float(z0[slice_spec.coordinate]) - level
    if abs(start_gap) <= bisect_tol:
        transversal_or_raise(z0)
        result = {v: float(z0[v]) for v in chart.variables}
        result[slice_spec.coordinate] = level
        return result

    for direction in (1.0, -1.0):
        prev = {}

        def hook(t, y, f):
            gap = y[idx] - level
            if prev and prev["gap"] * gap <= 0.0:
                raise _CrossingFound(dict(
                    t0=prev["t"], y0=prev["y"], f0=prev["f"],
                    t1=t, y1=y.copy(), f1=f.copy()))
            prev.update(t=t, y=y.copy(), f=f.copy(), gap=gap)

        try:
            integrate_flow(flow, z0, direction * span, registry=registry,
                           rtol=rtol, atol=atol, h_max=h_max,
                           accept_hook=hook)
        except _CrossingFound as found:
            bracket = found.bracket
            width = bracket["t1"] - bracket["t0"]
            curve = _hermite_curves(
                np.array([0.0, 1.0]),
                np.vstack([bracket["y0"], bracket["y1"]]),
                np.vstack([bracket["f0"] * width,
                           bracket["f1"] * width]))
            lo_u, hi_u = 0.0, 1.0
            g_lo = bracket["y0"][idx] - level
            mid = 1.0
            g_mid = bracket["y1"][idx] - level
            for _ in range(200):
                if abs(g_mid) <= bisect_tol:
                    break
                mid = 0.5 * (lo_u + hi_u)
                g_mid = curve(mid)[idx] - level
                if g_lo * g_mid <= 0.0:
                    hi_u = mid
                else:
                    lo_u, g_lo = mid, g_mid
            point_vals = curve(mid)
            crossing = dict(zip(chart.variables,
                                map(float, point_vals)))
            transversal_or_raise(crossing)
            crossing[slice_spec.coordinate] = level
            return crossing
    raise IntegrationError(
        f"no crossing of {slice_spec.coordinate} = {level:g} within "
        f"|t| <= {span:g}")
