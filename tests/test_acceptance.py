"""End-to-end acceptance: ten observable properties of the toolchain.

Each test certifies one property at its stated tolerance and time
budget and prints a single verdict line; together they exercise the
growth checks, the prolongations, the splitting certification, the
osculating and Lagrangian conditions, the two-sided path duality, the
path classification asymmetry, the scalar engine, the parameter-driven
family ledger, and report determinism.
"""

import hashlib
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from dist235.boxes import Box
from dist235.cli import bundled_document, canonical_json, main, run_suite
from dist235.conedual import DirectionField, builtin_model, \
    check_lagrangian, check_osculating_condition, prolong_cone
from dist235.distduality import Distribution235, check_235, prolong_235, \
    solve_e, symbol_algebra_at, verify_pseudo_product
from dist235.models import BUNDLED, parse_model
from dist235.paths import classify_biextremal, cone_system, \
    distribution_system, lift_fiber, verify_duality
from dist235.scalar import Const, Pow, Prod, Sum, Var, \
    ZeroDenominatorError, differentiate, evaluate, is_zero, normalize, \
    parse_expr, to_text
from dist235.vecfield import Chart, VectorField, check_contact, lie_bracket

from helpers import random_box_points

SEED = 20260822
# exit code and report SHA-256 of each bundled model at seed 7, recorded
# for the benchmark when the reports were last changed on purpose
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" \
    / "reference.json"
DUALITY_TOL = 1e-6
CLASSIFY_RTOL = 1e-8


def _verdict(index: int, summary: str, elapsed: float,
             limit: float = None):
    budget = f"{elapsed:.2f}s"
    if limit is not None:
        assert elapsed < limit, \
            f"property {index} exceeded its {limit:g}s budget: {elapsed:.2f}s"
        budget += f" < {limit:g}s"
    print(f"acceptance {index:02d}: pass - {summary} ({budget})")


def _assert_components(field, expected):
    chart = field.chart
    for comp, text in zip(field.components, expected):
        want = parse_expr(text, chart.variables, chart.registry)
        diff = normalize(
            Sum((comp, Prod((Const(Fraction(-1)), want)))), chart)
        assert to_text(diff) == "0", \
            f"component {to_text(comp)} differs from {text}"


def _hilbert_cartan() -> Distribution235:
    return builtin_model("hilbert-cartan")


def _cubic_distribution() -> Distribution235:
    chart = Chart(("x", "y", "y1", "y2", "z"))
    eta1 = VectorField(chart, tuple(
        parse_expr(text, chart.variables)
        for text in ("1", "y1", "y2", "0", "y2^2 + y1^3")), "eta1")
    eta2 = VectorField(chart, tuple(
        parse_expr(text, chart.variables)
        for text in ("0", "0", "0", "1", "0")), "eta2")
    return Distribution235(chart, eta1, eta2, chart.origin(), name="cubic")


def _structure_from(dist: Distribution235):
    prolonged = prolong_235(dist)
    return solve_e(prolonged).structure(prolonged), prolonged


def _draw_offsets(rng, box: Box, variables):
    point = {}
    for var in variables:
        lo, hi = box.bounds(var)
        center = (lo + hi) / 2
        point[var] = center + (hi - lo) * Fraction(rng.randint(-16, 16), 64)
    return point


def test_01_growth_and_exact_brackets():
    start = time.perf_counter()
    dist = _hilbert_cartan()
    report = check_235(dist.eta1, dist.eta2, dist.base_point, box=dist.box,
                       samples=32)
    assert report.passed
    assert report.growth == (2, 3, 5)
    _assert_components(dist.eta3, ("0", "0", "-1", "0", "-2*y2"))
    _assert_components(dist.eta4, ("0", "1", "0", "0", "0"))
    _assert_components(dist.eta5, ("0", "0", "0", "0", "-2"))
    _verdict(1, "growth (2, 3, 5) over 32 samples with exact brackets",
             time.perf_counter() - start, 1.0)


def test_02_prolongation_and_zero_correction():
    start = time.perf_counter()
    dist = _hilbert_cartan()
    prolonged = prolong_235(dist)
    assert prolonged.growth == (2, 3, 4, 5, 6)
    bracket = lie_bracket(prolonged.zeta1, prolonged.zeta2)
    _assert_components(bracket, ("0", "0", "0", "-1", "0", "0"))
    solved = solve_e(prolonged)
    assert solved.expression is not None
    verdict = is_zero(solved.expression, prolonged.box, prolonged.z_chart)
    assert verdict.status == "provably-zero"
    _verdict(2, "growth (2, 3, 4, 5, 6) and a provably-zero correction",
             time.perf_counter() - start, 5.0)


def test_03_splitting_certified_and_swap_breaks_it():
    start = time.perf_counter()
    s_dist, _ = _structure_from(_hilbert_cartan())
    assert verify_pseudo_product(s_dist).valid
    s_cone = prolong_cone(builtin_model("flat-cone"))
    assert verify_pseudo_product(s_cone).valid
    assert symbol_algebra_at(s_dist).passed
    assert symbol_algebra_at(s_cone).passed

    swapped_report = verify_pseudo_product(s_dist.swapped())
    assert not swapped_report.valid
    # Condition 1 is symmetric under the swap and survives; everything
    # else breaks, in particular both K-direction rank-growth conditions.
    assert swapped_report.failed_conditions() == (2, 3, 4, 5, 6, 7)
    for index in (2, 4):
        condition = swapped_report.condition(index)
        assert not condition.passed
        assert condition.witnesses
    _verdict(3, "both splittings certified; the swapped one fails "
                "conditions 2-7 with witnesses",
             time.perf_counter() - start, 10.0)


def _defect(b_text: str, c_text: str, chart):
    """The residual c' - 3*th*b' + 3*b that obstructs the turning
    bracket from staying inside the osculating span, on the chart of
    th."""
    b = parse_expr(b_text, chart.variables, chart.registry)
    c = parse_expr(c_text, chart.variables, chart.registry)
    b_th = differentiate(b, "th", chart)
    c_th = differentiate(c, "th", chart)
    expr = Sum((c_th,
                Prod((Const(Fraction(-3)), Var("th"), b_th)),
                Prod((Const(Fraction(3)), b))))
    return normalize(expr, chart)


def _random_direction_poly(rng, low_order: int, top_order: int) -> str:
    terms = []
    for k in range(low_order, top_order + 1):
        numer = rng.randint(-3, 3)
        if numer:
            denom = rng.choice((1, 2, 4))
            terms.append(f"({Fraction(numer, denom)})*th^{k}")
    return " + ".join(terms) if terms else "0"


def test_04_osculating_condition_matches_the_defect():
    start = time.perf_counter()
    assert check_osculating_condition(builtin_model("flat-cone")).passed
    compliant = builtin_model("noncubic-bc",
                              {"b": "th^3", "c": "(3/2)*th^4"})
    assert check_osculating_condition(compliant).passed

    violating = builtin_model("noncubic-bc", {"b": "th^3", "c": "th^4"})
    report = check_osculating_condition(violating)
    assert not report.passed
    witness_texts = [expr_text for _, expr_text, status, _
                     in report.residuals if status == "nonzero"]
    assert witness_texts
    z_vars = violating.z_chart.variables
    registry = violating.z_chart.registry
    witness = parse_expr(witness_texts[0], z_vars, registry)
    oracle = _defect("th^3", "th^4", Chart(("th",), registry))
    probes = (Fraction(1, 8), Fraction(-1, 8), Fraction(1, 4),
              Fraction(3, 16), Fraction(-5, 16))
    pairs = []
    for q in probes:
        point = {var: Fraction(0) for var in z_vars}
        point["th"] = q
        pairs.append((evaluate(witness, point, registry),
                      evaluate(oracle, point, registry)))
    same = all(w == o for w, o in pairs)
    negated = all(w == -o for w, o in pairs)
    assert same or negated, "the witness is not the defect expression"

    theta_box = Box((("th", Fraction(-1, 2), Fraction(1, 2)),))
    rng = random.Random(SEED)
    agreements = 0
    for _ in range(50):
        b_text = _random_direction_poly(rng, 3, 6)
        c_text = _random_direction_poly(rng, 4, 7)
        family = builtin_model("noncubic-bc", {"b": b_text, "c": c_text})
        decided = check_osculating_condition(family).passed
        theta = Chart(("th",), family.x_chart.registry)
        oracle_zero = bool(is_zero(_defect(b_text, c_text, theta),
                                   theta_box, theta))
        assert decided == oracle_zero, (b_text, c_text)
        agreements += 1
    assert agreements == 50
    _verdict(4, "witness equals the defect and 50 random families agree "
                "with its vanishing",
             time.perf_counter() - start, 30.0)


def test_05_lagrangian_and_contact_certificates():
    start = time.perf_counter()
    families = (builtin_model("flat-cone"),
                builtin_model("noncubic-bc",
                              {"b": "th^3", "c": "(3/2)*th^4"}))
    for family in families:
        symbolic = check_lagrangian(family)
        assert symbolic.passed
        assert all(status == "provably-zero"
                   for _, status, _ in symbolic.checks)
        section = DirectionField(
            parse_expr("x1", family.x_chart.variables,
                       family.x_chart.registry))
        sectioned = check_lagrangian(family, section=section)
        assert sectioned.passed
        assert all(status == "provably-zero"
                   for _, status, _ in sectioned.checks)
        origin = {var: Fraction(0) for var in family.x_chart.variables}
        assert check_contact(family.alpha, origin)
    _verdict(5, "annihilation and isotropy provably zero along sections; "
                "contact at the origin",
             time.perf_counter() - start, 2.0)


def test_06_duality_two_sided_with_step_halving():
    start = time.perf_counter()
    rng = random.Random(SEED)

    family = builtin_model("flat-cone")
    s_cone = prolong_cone(family)
    cs_cone = cone_system(family)
    x_vars = family.x_chart.variables
    base = {var: Fraction(0) for var in x_vars}
    report = verify_duality(s_cone, cs_cone, base, 0, 0.5,
                            tol=DUALITY_TOL)
    assert report.passed and report.sup_distance <= DUALITY_TOL
    for _ in range(5):
        x0 = _draw_offsets(rng, family.box, x_vars)
        lo, hi = family.box.bounds(family.theta)
        theta0 = (lo + hi) / 2 + (hi - lo) * Fraction(
            rng.randint(-16, 16), 64)
        report = verify_duality(s_cone, cs_cone, x0, theta0, 0.5,
                                tol=DUALITY_TOL)
        assert report.passed and report.sup_distance <= DUALITY_TOL

    dist = _hilbert_cartan()
    s_dist, _ = _structure_from(dist)
    cs_dist = distribution_system(dist)
    base = {var: Fraction(0) for var in dist.chart.variables}
    report = verify_duality(s_dist, cs_dist, base, 0, 0.5,
                            tol=DUALITY_TOL)
    assert report.passed and report.sup_distance <= DUALITY_TOL
    for _ in range(5):
        x0 = _draw_offsets(rng, dist.box, dist.chart.variables)
        theta0 = Fraction(rng.randint(-16, 16), 64)
        report = verify_duality(s_dist, cs_dist, x0, theta0, 0.5,
                                tol=DUALITY_TOL)
        assert report.passed and report.sup_distance <= DUALITY_TOL

    # The flat trajectories are polynomial and integrate exactly, so the
    # step-halving study runs on a curved model where the mismatch is
    # nonzero and must shrink at third order or better.
    cubic = _cubic_distribution()
    s_cubic, _ = _structure_from(cubic)
    cs_cubic = distribution_system(cubic)
    x0 = {"x": Fraction(1, 16), "y": 0, "y1": Fraction(1, 8),
          "y2": Fraction(-1, 16), "z": 0}
    sups = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        rep = verify_duality(s_cubic, cs_cubic, x0, Fraction(1, 8), 0.4,
                             fixed_step=h, samples=100)
        sups.append(rep.sup_distance)
    assert sups[0] / sups[1] >= 4
    assert sups[0] / sups[2] >= 30
    _verdict(6, "12 launches match within 1e-06 and halving the step "
                "shrinks the gap at order >= 3",
             time.perf_counter() - start, 60.0)


def _annihilation_residual(structure, trace, fields) -> float:
    worst = 0.0
    variables = structure.z_chart.variables
    for i in range(len(trace.times)):
        point = dict(zip(variables, trace.states[i]))
        costate = trace.costates[i]
        scale = math.sqrt(sum(c * c for c in costate))
        for f in fields:
            values = [float(evaluate(c, point, structure.z_chart.registry))
                      for c in f.components]
            worst = max(worst,
                        abs(sum(c * v for c, v in zip(costate, values)))
                        / scale)
    return worst


def test_07_fiber_lift_asymmetry():
    start = time.perf_counter()
    s_dist, _ = _structure_from(_hilbert_cartan())
    s_cone = prolong_cone(builtin_model("flat-cone"))
    structures = (s_dist, s_cone, s_dist, s_cone, s_dist)
    rng = random.Random(SEED)

    for expected, side, depth in (
            ("regular-singular", "L", 3), ("totally-irregular", "K", 4)):
        for structure in structures:
            z0 = random_box_points(structure.box.scaled(Fraction(1, 2)),
                                   1, rng)[0]
            trace = lift_fiber(structure, side, z0=z0, t_end=0.5)
            assert classify_biextremal(structure, trace) == expected
            e3 = lie_bracket(structure.k_field, structure.l_field)
            e4 = lie_bracket(structure.k_field, e3)
            annihilated = (structure.k_field, structure.l_field,
                           e3, e4)[:depth]
            residual = _annihilation_residual(structure, trace,
                                              annihilated)
            assert residual <= CLASSIFY_RTOL
    _verdict(7, "5 L-fiber lifts regular-singular and 5 K-fiber lifts "
                "totally-irregular within 1e-08*|p|",
             time.perf_counter() - start, 30.0)


_EXPR_VARIABLES = ("x", "y", "w")
_EXPR_CHART = Chart(_EXPR_VARIABLES)


def _random_expr(rng, depth: int, allow_inverse: bool = True):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        if rng.random() < 0.5:
            return Const(Fraction(rng.randint(-4, 4),
                                  rng.choice((1, 2, 3))))
        return Var(rng.choice(_EXPR_VARIABLES))
    if roll < 0.55:
        return Sum(tuple(_random_expr(rng, depth - 1, allow_inverse)
                         for _ in range(rng.randint(2, 3))))
    if roll < 0.85:
        return Prod(tuple(_random_expr(rng, depth - 1, allow_inverse)
                          for _ in range(2)))
    exponents = (2, 3, -1) if allow_inverse else (2, 3)
    return Pow(_random_expr(rng, depth - 1, allow_inverse),
               rng.choice(exponents))


def test_08_scalar_engine():
    start = time.perf_counter()
    rng = random.Random(SEED)

    # derivative against central finite differences
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 1000:
        attempts += 1
        expr = _random_expr(rng, 3)
        var = rng.choice(_EXPR_VARIABLES)
        point = {v: 0.4 + 0.8 * rng.random() for v in _EXPR_VARIABLES}
        try:
            deriv = differentiate(expr, var, _EXPR_CHART)
            h = 1e-6
            up = dict(point)
            down = dict(point)
            up[var] = point[var] + h
            down[var] = point[var] - h
            fd = (float(evaluate(expr, up))
                  - float(evaluate(expr, down))) / (2 * h)
            sym = float(evaluate(deriv, point))
        except (ZeroDivisionError, ZeroDenominatorError):
            continue
        if not (math.isfinite(fd) and math.isfinite(sym)) \
                or max(abs(fd), abs(sym)) > 1e6:
            continue
        scale = max(1.0, abs(fd), abs(sym))
        assert abs(sym - fd) <= 1e-6 * scale, to_text(expr)
        checked += 1
    assert checked == 100

    # parse/print round trip over the model corpus plus generated texts
    corpus = []
    for name in BUNDLED:
        doc = json.loads(bundled_document(name))
        for value in doc["expressions"].values():
            corpus.extend(value if isinstance(value, list) else [value])
        corpus.extend(doc.get("alpha", []))
    corpus.extend(["3*y1*y2", "(1 + x)^-1 * y", "x^2 - 2*x*y + y^2",
                   "-1*2^-1", "0", "(3/2)*th^4 - th^3"])
    for text in corpus:
        expr = parse_expr(text)
        printed = to_text(expr)
        assert to_text(parse_expr(printed)) == printed

    # soundness of the zero decision on 500 opaque-free expressions
    box = Box.around({v: Fraction(0) for v in _EXPR_VARIABLES},
                     Fraction(1, 4))
    probes = ({"x": Fraction(1, 8), "y": Fraction(-1, 8),
               "w": Fraction(1, 16)},
              {"x": Fraction(-3, 16), "y": Fraction(1, 4),
               "w": Fraction(-1, 8)},
              {"x": Fraction(1, 32), "y": Fraction(1, 32),
               "w": Fraction(-3, 32)})
    for trial in range(500):
        expr = _random_expr(rng, 2, allow_inverse=False)
        if trial % 5 == 0:
            expr = Sum((expr, Prod((Const(Fraction(-1)), expr))))
        verdict = is_zero(expr, box, _EXPR_CHART)
        if trial % 5 == 0:
            assert bool(verdict)
        if verdict:
            for probe in probes:
                assert evaluate(expr, probe) == 0
    _verdict(8, "100 derivative checks at 1e-06, round trips, and 500 "
                "sound zero decisions",
             time.perf_counter() - start, 10.0)


def test_09_parameter_driver_ledger():
    start = time.perf_counter()
    model_x1 = parse_model(bundled_document("cubic-a"), "cubic-a")
    report_x1 = run_suite(model_x1, "verify", 7)
    outcome_x1 = next(c["status"] for c in report_x1["checks"]
                      if c["name"] == "osculating-condition")
    assert outcome_x1 in ("pass", "fail")  # recorded, never asserted
    assert report_x1["notes"]
    assert "open question" in report_x1["notes"][0]

    zero_doc = json.loads(bundled_document("cubic-a"))
    zero_doc["name"] = "cubic-zero"
    zero_doc["expressions"] = {"a": "0"}
    report_zero = run_suite(
        parse_model(canonical_json(zero_doc), "cubic-zero"), "verify", 7)
    outcome_zero = next(c["status"] for c in report_zero["checks"]
                        if c["name"] == "osculating-condition")
    assert outcome_zero == "pass"
    _verdict(9, f"a=x1 recorded as '{outcome_x1}' with the open question "
                "noted; a=0 passes",
             time.perf_counter() - start, 10.0)


def test_10_reports_are_byte_identical(tmp_path):
    start = time.perf_counter()
    reference = json.loads(REFERENCE.read_text())
    for name in BUNDLED:
        blobs = []
        codes = []
        for attempt in range(2):
            out = tmp_path / f"{name}-{attempt}.json"
            codes.append(main(["analyze", name, "--suite", "all",
                               "--seed", "7", "--out", str(out)]))
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"{name} reports differ between runs"
        assert codes[0] == codes[1]
        assert hashlib.sha256(blobs[0]).hexdigest() == \
            reference[name]["sha256"], \
            f"{name} report differs from the recorded reference"
        assert codes[0] == reference[name]["exit"]
    _verdict(10, f"two seed-7 runs byte-identical on all "
                 f"{len(BUNDLED)} bundled models and equal to "
                 "the recorded reports",
             time.perf_counter() - start)
