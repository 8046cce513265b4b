"""Command-line front end: model files, verification suites, reports.

A model file is a small JSON document declaring a chart and named
expressions.  Three kinds are understood:

* ``distribution235`` — two frame fields ``eta1``/``eta2`` on a
  5-dimensional chart;
* ``cone-family`` — generator components ``A``/``B``/``S``/``T`` (or the
  parameter shortcuts ``a`` resp. ``b``/``c``) with a direction
  coordinate and a contact form;
* ``pseudo-product`` — ``e1``/``e2``/``K``/``L`` on a 6-dimensional
  chart.

``analyze`` runs a named suite of checks over a model and emits a
report; the JSON form is canonical (sorted keys, fixed float format)
so that identical runs produce identical bytes.  ``models`` lists and
prints the bundled model documents, and ``trace`` integrates one
singular path and prints its nodes as JSON lines.

Exit codes: 0 when every check passes, 1 when any check fails, 2 when
any check errors out, 3 for usage and model-file problems.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .boxes import Box, as_fraction
from .conedual import BUNDLED, STANDARD_ALPHA, STANDARD_CHART, ConeFamily, \
    _driver_components, check_lagrangian, check_nondegenerate, \
    check_osculating_condition, default_family_box, prolong_cone, solve_U
from .distduality import FIBER, Distribution235, GrowthError, \
    ProlongedDistribution, PseudoProductStructure, SolveEResult, \
    default_box, prolong_235, solve_e, symbol_algebra_at, \
    verify_pseudo_product
from .paths import cone_system, distribution_system, integrate_biextremal, \
    singular_launch, verify_duality
from .scalar import OpaqueRegistry, compile_expr, parse_expr, to_text
from .vecfield import Chart, field_from_strings

__all__ = [
    "BUNDLED", "ModelError", "ModelFile", "bundled_document",
    "bundled_names", "canonical_json", "format_text", "main",
    "parse_model", "run_suite", "trace_lines",
]

_VERSION = "0.1.0"

_KINDS = ("distribution235", "cone-family", "pseudo-product")
_SUITES = ("verify", "prolong", "duality", "all")
_DUALITY_T = Fraction(1, 2)


class ModelError(Exception):
    """A model file or command line that cannot be used (exit code 3)."""


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def _float_text(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def _emit(value, out: list):
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, Fraction):
        out.append(json.dumps(str(value)))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_float_text(float(value)))
    elif isinstance(value, dict):
        out.append("{")
        first = True
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r} in report")
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(key))
            out.append(":")
            _emit(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def canonical_json(value) -> str:
    """Serialize to JSON with sorted keys and a fixed float format, so
    equal values always produce equal bytes."""
    out: list = []
    _emit(value, out)
    return "".join(out)


# ---------------------------------------------------------------------------
# bundled model documents
# ---------------------------------------------------------------------------

# `BUNDLED` is defined in `conedual`, beside `builtin_model`.

def bundled_names() -> tuple:
    return tuple(BUNDLED)


def bundled_document(name: str) -> str:
    """The canonical JSON text of a bundled model document."""
    try:
        doc = BUNDLED[name]
    except KeyError:
        raise ModelError(
            f"no bundled model named {name!r}; available: "
            + ", ".join(BUNDLED)) from None
    return canonical_json(doc) + "\n"


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelFile:
    """A parsed and schema-checked model document.

    Expression texts are validated against the declared chart at parse
    time; the geometric objects themselves are built later, inside the
    suite, so that a model that parses but fails verification is
    reported as a failing check rather than a usage error.
    """

    kind: str
    name: str
    chart: tuple
    expressions: dict = field(compare=False)
    theta: Optional[str] = None
    alpha: Optional[tuple] = None
    base_point: dict = field(default_factory=dict, compare=False)
    box: Optional[Box] = field(default=None, compare=False)
    notes: tuple = ()
    registry: Optional[OpaqueRegistry] = field(default=None, compare=False)
    sha256: str = ""


def _require(doc: dict, key: str, origin: str):
    if key not in doc:
        raise ModelError(f"{origin}: missing required field {key!r}")
    return doc[key]


def _string(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ModelError(f"{where}: expected a non-empty string")
    return value


def _string_list(value, count: Optional[int], where: str) -> tuple:
    if not isinstance(value, list) or \
            any(not isinstance(item, str) for item in value):
        raise ModelError(f"{where}: expected a list of strings")
    if count is not None and len(value) != count:
        raise ModelError(
            f"{where}: expected {count} entries, found {len(value)}")
    return tuple(value)


def _rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ModelError(
            f"{where}: expected a rational written as a string")
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelError(f"{where}: not a rational: {exc}") from None


def _parse_text(text: str, variables, registry, where: str):
    try:
        return parse_expr(text, variables, registry)
    except Exception as exc:
        raise ModelError(f"{where}: {exc}") from None


def _build_registry(doc: dict, origin: str) -> OpaqueRegistry:
    registry = OpaqueRegistry()
    entries = doc.get("opaque", [])
    if not isinstance(entries, list):
        raise ModelError(f"{origin}: 'opaque' must be a list")
    names = []
    for i, entry in enumerate(entries):
        where = f"{origin}: opaque[{i}]"
        if not isinstance(entry, dict):
            raise ModelError(f"{where}: expected an object")
        extra = set(entry) - {"name", "evaluator", "derivative"}
        if extra:
            raise ModelError(
                f"{where}: unknown fields {sorted(extra)}")
        name = _string(_require(entry, "name", where), f"{where}.name")
        ev_text = _string(_require(entry, "evaluator", where),
                          f"{where}.evaluator")
        dv_text = _string(_require(entry, "derivative", where),
                          f"{where}.derivative")
        ev_expr = _parse_text(ev_text, ("u",), None, f"{where}.evaluator")
        evaluator = compile_expr(ev_expr, ("u",))
        if dv_text in names or dv_text == name:
            derivative = dv_text
        else:
            derivative = _parse_text(dv_text, ("u",), None,
                                     f"{where}.derivative")
        registry.register(name, evaluator, derivative)
        names.append(name)
    return registry


_DRIVER_SETS = ({"a"}, {"b", "c"})
_COMPONENT_SET = {"A", "B", "S", "T"}


def parse_model(text: str, origin: str = "model") -> ModelFile:
    """Parse a model document, checking the schema and every expression.

    Raises ModelError on any structural or syntactic problem; the
    result carries a content hash of the exact input bytes.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"{origin}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelError(f"{origin}: the top level must be an object")

    known = {"kind", "name", "chart", "theta", "alpha", "expressions",
             "base_point", "box", "notes", "opaque"}
    extra = set(doc) - known
    if extra:
        raise ModelError(f"{origin}: unknown fields {sorted(extra)}")

    kind = _string(_require(doc, "kind", origin), f"{origin}: kind")
    if kind not in _KINDS:
        raise ModelError(
            f"{origin}: unknown kind {kind!r}; expected one of "
            + ", ".join(_KINDS))
    name = _string(_require(doc, "name", origin), f"{origin}: name")

    dimension = 6 if kind == "pseudo-product" else 5
    chart = _string_list(_require(doc, "chart", origin), dimension,
                         f"{origin}: chart")
    if len(set(chart)) != len(chart):
        raise ModelError(f"{origin}: chart variables repeat")

    registry = _build_registry(doc, origin)
    notes = tuple(_string_list(doc.get("notes", []), None,
                               f"{origin}: notes"))

    theta = None
    alpha = None
    if kind == "cone-family":
        theta = _string(_require(doc, "theta", origin), f"{origin}: theta")
        if theta in chart:
            raise ModelError(
                f"{origin}: theta {theta!r} collides with a chart variable")
        if "alpha" not in doc:
            raise ModelError(
                f"{origin}: a cone-family model must declare the contact "
                "form 'alpha'")
        alpha = _string_list(doc["alpha"], 5, f"{origin}: alpha")
        for i, text_i in enumerate(alpha):
            _parse_text(text_i, chart, registry, f"{origin}: alpha[{i}]")
    else:
        for forbidden in ("theta", "alpha"):
            if forbidden in doc:
                raise ModelError(
                    f"{origin}: field {forbidden!r} only applies to "
                    "cone-family models")

    expressions = _require(doc, "expressions", origin)
    if not isinstance(expressions, dict):
        raise ModelError(f"{origin}: 'expressions' must be an object")
    keys = set(expressions)

    if kind == "distribution235":
        if keys != {"eta1", "eta2"}:
            raise ModelError(
                f"{origin}: a distribution235 model needs exactly the "
                "expressions 'eta1' and 'eta2'")
        for key in ("eta1", "eta2"):
            comps = _string_list(expressions[key], 5,
                                 f"{origin}: expressions.{key}")
            for i, text_i in enumerate(comps):
                _parse_text(text_i, chart, registry,
                            f"{origin}: expressions.{key}[{i}]")
    elif kind == "cone-family":
        z_vars = chart + (theta,)
        if keys == _COMPONENT_SET:
            for key in sorted(_COMPONENT_SET):
                text_k = _string(expressions[key],
                                 f"{origin}: expressions.{key}")
                _parse_text(text_k, z_vars, registry,
                            f"{origin}: expressions.{key}")
        elif keys in _DRIVER_SETS:
            if chart != STANDARD_CHART or theta != "th" \
                    or alpha != STANDARD_ALPHA:
                raise ModelError(
                    f"{origin}: parameter-driven cone families use the "
                    "standard chart x1..x5, direction 'th', and the "
                    "standard contact form")
            for key in sorted(keys):
                text_k = _string(expressions[key],
                                 f"{origin}: expressions.{key}")
                _parse_text(text_k, z_vars, registry,
                            f"{origin}: expressions.{key}")
        else:
            raise ModelError(
                f"{origin}: a cone-family model needs either the "
                "components 'A','B','S','T' or the parameters 'a' "
                "(cubic) or 'b','c' (non-cubic)")
    else:  # pseudo-product
        if keys != {"e1", "e2", "K", "L"}:
            raise ModelError(
                f"{origin}: a pseudo-product model needs exactly the "
                "expressions 'e1', 'e2', 'K', and 'L'")
        for key in ("e1", "e2", "K", "L"):
            comps = _string_list(expressions[key], 6,
                                 f"{origin}: expressions.{key}")
            for i, text_i in enumerate(comps):
                _parse_text(text_i, chart, registry,
                            f"{origin}: expressions.{key}[{i}]")

    all_vars = chart + ((theta,) if theta else ())
    base_point = {v: Fraction(0) for v in all_vars}
    if "base_point" in doc:
        given = doc["base_point"]
        if not isinstance(given, dict):
            raise ModelError(f"{origin}: 'base_point' must be an object")
        for var, value in given.items():
            if var not in all_vars:
                raise ModelError(
                    f"{origin}: base_point names unknown variable {var!r}")
            base_point[var] = _rational(value,
                                        f"{origin}: base_point.{var}")

    box = None
    if "box" in doc:
        given = doc["box"]
        if not isinstance(given, dict):
            raise ModelError(f"{origin}: 'box' must be an object")
        if set(given) != set(all_vars):
            raise ModelError(
                f"{origin}: a box must list every coordinate "
                f"({', '.join(all_vars)})")
        intervals = []
        for var in all_vars:
            pair_v = given[var]
            if not isinstance(pair_v, list) or len(pair_v) != 2:
                raise ModelError(
                    f"{origin}: box.{var} must be a [lo, hi] pair")
            lo = _rational(pair_v[0], f"{origin}: box.{var}[0]")
            hi = _rational(pair_v[1], f"{origin}: box.{var}[1]")
            if lo >= hi:
                raise ModelError(
                    f"{origin}: box.{var} is empty or reversed")
            intervals.append((var, lo, hi))
        box = Box(tuple(intervals))
        for var, lo, hi in intervals:
            if not lo <= base_point[var] <= hi:
                raise ModelError(
                    f"{origin}: base_point.{var} lies outside the box")

    if kind == "cone-family" and keys in _DRIVER_SETS \
            and ("base_point" in doc or "box" in doc):
        raise ModelError(
            f"{origin}: parameter-driven cone families fix the base "
            "point and box; drop those fields or spell out A,B,S,T")

    return ModelFile(
        kind=kind, name=name, chart=tuple(chart),
        expressions={k: (tuple(v) if isinstance(v, list) else v)
                     for k, v in expressions.items()},
        theta=theta, alpha=alpha, base_point=base_point, box=box,
        notes=notes, registry=registry,
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest())


def load_model(path_or_name: str) -> ModelFile:
    """Parse a model from a file path, or from the bundled set when the
    argument names a bundled model and no such file exists."""
    import os
    if os.path.exists(path_or_name):
        try:
            with open(path_or_name, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ModelError(f"cannot read {path_or_name}: {exc}") from None
        return parse_model(text, origin=path_or_name)
    if path_or_name in BUNDLED:
        return parse_model(bundled_document(path_or_name),
                           origin=path_or_name)
    raise ModelError(
        f"no such model file or bundled model: {path_or_name}")


# ---------------------------------------------------------------------------
# building the geometric objects
# ---------------------------------------------------------------------------

def _model_box(model: ModelFile, box_scale: Fraction) -> Box:
    """The box a run builds every object on: the model's box, or the
    default box of its kind, scaled about its center."""
    box = model.box
    if box is None:
        if model.kind == "cone-family":
            box = default_family_box(Chart(model.chart), model.theta,
                                     model.base_point)
        else:
            box = default_box(model.base_point)
    return box.scaled(box_scale)


def _build_distribution(model: ModelFile,
                        box: Optional[Box]) -> Distribution235:
    chart = Chart(model.chart)
    eta1, eta2 = (field_from_strings(chart, model.expressions[key],
                                     model.registry, key)
                  for key in ("eta1", "eta2"))
    return Distribution235(chart, eta1, eta2, dict(model.base_point),
                           box=box, registry=model.registry,
                           name=model.name)


def _build_family(model: ModelFile, box: Optional[Box]) -> ConeFamily:
    keys = set(model.expressions)
    if keys in _DRIVER_SETS:
        template = "cubic-a" if keys == {"a"} else "noncubic-bc"
        components = _driver_components(template, model.expressions,
                                        model.registry)
    else:
        components = tuple(model.expressions[k] for k in "ABST")
    return ConeFamily.build(
        Chart(model.chart), components, model.alpha, theta=model.theta,
        base_point=dict(model.base_point), box=box,
        registry=model.registry, name=model.name)


def _build_pseudo(model: ModelFile, box: Box) -> PseudoProductStructure:
    chart = Chart(model.chart)
    e1, e2, k_field, l_field = (
        field_from_strings(chart, model.expressions[key], model.registry,
                           key)
        for key in ("e1", "e2", "K", "L"))
    return PseudoProductStructure.build(
        chart, (e1, e2), k_field, l_field, dict(model.base_point), box=box,
        registry=model.registry, name=model.name)


# ---------------------------------------------------------------------------
# suite machinery
# ---------------------------------------------------------------------------

class _Skip(Exception):
    """A check that cannot run because a prerequisite failed."""


def _box_json(box: Optional[Box]):
    if box is None:
        return None
    return {var: [str(lo), str(hi)] for var, lo, hi in box.intervals}


def _record(status: str, detail: str, witness=None,
            box: Optional[Box] = None, residual=None) -> dict:
    """One check's record, without its name."""
    return {"status": status, "detail": detail, "witness": witness,
            "residual": residual, "box": _box_json(box)}


class _SuiteRun:
    """Runs named checks in order, recording outcome and wall time."""

    def __init__(self, model: ModelFile, seed: int, box_scale: Fraction):
        self.model = model
        self.seed = seed
        self.box = _model_box(model, box_scale)
        self.records: list = []
        self.times: list = []
        self.ctx: dict = {}
        self.rng = random.Random(seed)

    def run(self, name: str, fn):
        start = time.perf_counter()
        try:
            record = fn()
        except _Skip as skip:
            record = _record("error", str(skip))
        except Exception as exc:
            record = _record("error", f"{type(exc).__name__}: {exc}")
        record["name"] = name
        self.records.append(record)
        self.times.append(time.perf_counter() - start)

    # -- memoized builders ------------------------------------------------

    def _memo(self, key: str, builder, what: str):
        if key not in self.ctx:
            try:
                self.ctx[key] = builder()
            except Exception as exc:  # remembered so later checks skip
                self.ctx[key] = exc
        value = self.ctx[key]
        if isinstance(value, Exception):
            raise _Skip(f"skipped: {what} could not be built ({value})")
        return value

    def distribution(self) -> Distribution235:
        return self._memo(
            "dist", lambda: _build_distribution(self.model, self.box),
            "the distribution")

    def family(self) -> ConeFamily:
        return self._memo(
            "family", lambda: _build_family(self.model, self.box),
            "the cone family")

    def prolonged(self) -> ProlongedDistribution:
        return self._memo(
            "prolonged", lambda: prolong_235(self.distribution()),
            "the prolongation")

    def solved_e(self) -> SolveEResult:
        prolonged = self.prolonged()
        return self._memo(
            "solved_e", lambda: solve_e(prolonged),
            "the correction scalar")

    def structure(self) -> PseudoProductStructure:
        kind = self.model.kind
        if kind == "distribution235":
            def build():
                prolonged = self.prolonged()
                return self.solved_e().structure(
                    prolonged, name=self.model.name)
            return self._memo("structure", build, "the splitting")
        if kind == "cone-family":
            return self._memo(
                "structure", lambda: prolong_cone(self.family()),
                "the splitting")
        return self._memo(
            "structure", lambda: _build_pseudo(self.model, self.box),
            "the splitting")

    def control_system(self):
        if self.model.kind == "distribution235":
            return self._memo(
                "system",
                lambda: distribution_system(self.distribution()),
                "the control system")
        return self._memo(
            "system", lambda: cone_system(self.family()),
            "the control system")

    # -- shared check bodies ----------------------------------------------

    def check_pseudo_product(self):
        structure = self.structure()
        report = verify_pseudo_product(structure)
        held = sum(1 for c in report.conditions if c.passed)
        detail = (f"{held}/7 conditions hold; "
                  f"splitting {'ok' if report.splitting_ok else 'FAIL'}; "
                  f"growth {report.growth}")
        if report.valid:
            return _record("pass", detail, box=structure.box)
        witnesses = []
        for cond in report.conditions:
            witnesses.extend(cond.witnesses)
        witnesses = list(witnesses) + list(report.splitting_witnesses)
        return _record(
            "fail", detail,
            {"conditions": list(report.failed_conditions()),
             "messages": witnesses[:4]},
            structure.box)

    def check_symbol_algebra(self):
        structure = self.structure()
        report = symbol_algebra_at(structure)
        if report.passed:
            return _record("pass", "the graded nilpotent symbol checks out "
                                   "at the base point")
        failing = [(name, detail) for name, ok, detail in report.entries
                   if not ok]
        return _record("fail", f"{len(failing)} symbol entries fail",
                       {"entries": [list(item) for item in failing]})

    def check_swapped(self):
        structure = self.structure()
        swapped = structure.swapped()
        report = verify_pseudo_product(swapped)
        if not report.valid:
            failed = list(report.failed_conditions())
            return _record("pass", "the swapped splitting fails conditions "
                                   f"{failed}, so the two line fields are "
                                   "not interchangeable")
        return _record("fail", "the swapped splitting passed every condition",
                       {"message": "swapping K and L should break the "
                                   "rank-growth conditions"})

    def _draw(self, lo: Fraction, hi: Fraction, center: Fraction):
        return center + (hi - lo) * Fraction(self.rng.randint(-16, 16), 64)

    def duality_launch(self, index: int):
        """Launch data for duality check `index`: 0 is the splitting's
        base point, higher indices draw seeded rational offsets inside
        its box.  The splitting's last coordinate is the direction."""
        structure = self.structure()
        variables = structure.z_chart.variables
        x0 = {v: as_fraction(structure.base_point[v]) for v in variables}
        if index:
            for var in variables:
                lo, hi = structure.box.bounds(var)
                x0[var] = self._draw(lo, hi, x0[var])
        theta0 = x0.pop(variables[-1])
        return x0, theta0

    def check_duality(self, index: int):
        structure = self.structure()
        system = self.control_system()
        x0, theta0 = self.duality_launch(index)
        report = verify_duality(structure, system, x0, theta0,
                                float(_DUALITY_T))
        point = {var: str(value) for var, value in x0.items()}
        point["theta0"] = str(theta0)
        detail = f"side {report.side}; " + report.summary_line()
        if report.passed:
            return _record("pass", detail, residual=report.sup_distance)
        return _record("fail", detail,
                       {"launch": point, "sup_distance": report.sup_distance,
                        "tol": report.tol},
                       residual=report.sup_distance)

    # -- kind-specific check bodies ---------------------------------------

    def check_growth_235(self):
        # The growth check is the one the distribution ran when it was
        # built; a failed one comes back on the GrowthError.
        try:
            report = self.distribution().report
        except _Skip:
            exc = self.ctx["dist"]
            if not isinstance(exc, GrowthError):
                raise exc
            report = exc.report
        if report.passed:
            return _record("pass", f"growth {report.growth}; ranks constant "
                                   "over the box", box=self.box)
        return _record("fail", "; ".join(report.failures),
                       {"failures": list(report.failures)}, self.box)

    def check_prolong_235(self):
        prolonged = self.prolonged()
        return _record("pass", f"fiber {FIBER!r}; growth {prolonged.growth}",
                       box=prolonged.box)

    def check_solve_e(self):
        solved = self.solved_e()
        return _record("pass", f"e = {to_text(solved.expression)}")

    def check_family_build(self):
        try:
            family = self.family()
        except _Skip:
            exc = self.ctx.get("family")
            return _record("fail", f"{type(exc).__name__}: {exc}",
                           {"message": str(exc)})
        return _record("pass", "contact form verified and annihilation "
                               f"certified ({family.alpha_status})",
                       box=family.box)

    def check_nondegenerate(self):
        family = self.family()
        if check_nondegenerate(family):
            return _record("pass", "the direction curve keeps rank 4 with "
                                   "its derivatives")
        return _record("fail", "an osculating space collapses along the "
                               "direction curve",
                       {"message": "rank of the generator and its three "
                                   "derivatives drops below 4"})

    def check_lagrangian(self):
        family = self.family()
        report = check_lagrangian(family)
        if report.passed:
            return _record("pass", "; ".join(f"{name}: {status}"
                                             for name, status, _ in
                                             report.checks),
                           box=report.box)
        failing = [[name, status, witness]
                   for name, status, witness in report.checks if witness]
        return _record("fail",
                       "; ".join(item[0] for item in failing) + " (nonzero)",
                       {"checks": failing}, report.box)

    def check_osculating(self):
        family = self.family()
        report = check_osculating_condition(family)
        if report.passed:
            return _record("pass", "the turning bracket stays inside the "
                                   "osculating span", box=report.box)
        failing = [[label, expr_text, witness]
                   for label, expr_text, status, witness in report.residuals
                   if status == "nonzero"]
        return _record("fail", "; ".join(f"{label} = {expr_text}"
                                         for label, expr_text, _ in failing),
                       {"residuals": failing}, report.box)

    def check_solve_u(self):
        family = self.family()
        solved = self._memo("solved_u", lambda: solve_U(family),
                            "the correction scalar")
        return _record("pass", f"U = {to_text(solved.expression)}")

    def check_splitting_build(self):
        try:
            structure = self.structure()
        except _Skip:
            exc = self.ctx.get("structure")
            return _record("fail", f"{type(exc).__name__}: {exc}",
                           {"message": str(exc)})
        return _record("pass", "two transverse line fields on a 6-chart "
                               "with the expected flag", box=structure.box)


def _check_sequence(kind: str, suite: str) -> tuple:
    if kind == "distribution235":
        verify = ("check-235",)
        prolong = ("prolong-235", "solve-e", "pseudo-product",
                   "symbol-algebra", "swapped-splitting-fails")
        duality = ("duality-base", "duality-random-1", "duality-random-2")
    elif kind == "cone-family":
        verify = ("family-build", "nondegenerate", "lagrangian",
                  "osculating-condition")
        prolong = ("solve-U", "prolong-cone", "symbol-algebra",
                   "swapped-splitting-fails")
        duality = ("duality-base", "duality-random-1", "duality-random-2")
    else:
        verify = ("splitting-build", "pseudo-product", "symbol-algebra")
        prolong = ("swapped-splitting-fails",)
        duality = ()

    if suite == "verify":
        return verify
    if suite == "prolong":
        return verify + prolong
    return verify + prolong + duality


def run_suite(model: ModelFile, suite: str, seed: int,
              out: Optional[str] = None,
              box_scale: Fraction = Fraction(1),
              clock: Optional[list] = None) -> dict:
    """Run the named check suite over a model and return the report.

    With `out` the report is also written there as canonical JSON.  The
    report never contains wall-clock data — identical runs produce
    identical bytes — so per-check timings go to `clock` when a list is
    passed.
    """
    if suite not in _SUITES:
        raise ModelError(
            f"unknown suite {suite!r}; expected one of " + ", ".join(_SUITES))
    if suite == "duality" and model.kind == "pseudo-product":
        raise ModelError(
            "the duality suite requires a distribution235 or cone-family "
            "model")
    if box_scale <= 0:
        raise ModelError("box scale must be positive")

    run = _SuiteRun(model, seed, box_scale)
    bodies = {
        "check-235": run.check_growth_235,
        "prolong-235": run.check_prolong_235,
        "solve-e": run.check_solve_e,
        "pseudo-product": run.check_pseudo_product,
        "symbol-algebra": run.check_symbol_algebra,
        "swapped-splitting-fails": run.check_swapped,
        "family-build": run.check_family_build,
        "nondegenerate": run.check_nondegenerate,
        "lagrangian": run.check_lagrangian,
        "osculating-condition": run.check_osculating,
        "solve-U": run.check_solve_u,
        "prolong-cone": run.check_pseudo_product,
        "splitting-build": run.check_splitting_build,
        "duality-base": lambda: run.check_duality(0),
        "duality-random-1": lambda: run.check_duality(1),
        "duality-random-2": lambda: run.check_duality(2),
    }
    for name in _check_sequence(model.kind, suite):
        run.run(name, bodies[name])

    counts = {"pass": 0, "fail": 0, "error": 0}
    for record in run.records:
        counts[record["status"]] += 1

    box = None
    for key in ("dist", "family", "structure"):
        value = run.ctx.get(key)
        if value is not None and not isinstance(value, Exception):
            box = value.box
            break

    report = {
        "tool": {"name": "dist235", "version": _VERSION},
        "model": {"name": model.name, "kind": model.kind,
                  "sha256": model.sha256},
        "suite": suite,
        "seed": seed,
        "box_scale": str(box_scale),
        "box": _box_json(box),
        "checks": run.records,
        "notes": list(model.notes),
        "summary": counts,
    }
    if clock is not None:
        clock.extend(run.times)
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(report) + "\n")
    return report


def exit_code(report: dict) -> int:
    summary = report["summary"]
    if summary["error"]:
        return 2
    if summary["fail"]:
        return 1
    return 0


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

def format_text(report: dict, times: Optional[list] = None) -> str:
    """Human-oriented rendering of a report, with per-check wall times
    when available."""
    lines = []
    model = report["model"]
    lines.append(f"model: {model['name']} ({model['kind']})")
    lines.append(f"sha256: {model['sha256']}")
    lines.append(f"suite: {report['suite']}   seed: {report['seed']}"
                 f"   box-scale: {report['box_scale']}")
    if report["box"]:
        parts = [f"{var} in [{lo}, {hi}]"
                 for var, (lo, hi) in sorted(report["box"].items())]
        lines.append("box: " + "; ".join(parts))
    lines.append("checks:")
    for i, check in enumerate(report["checks"]):
        stamp = ""
        if times is not None and i < len(times):
            stamp = f"  {times[i]:7.3f}s"
        lines.append(f"  {check['status']:5s} {check['name']:24s}"
                     f"{stamp}  {check['detail']}")
        if check["witness"] is not None:
            lines.append(f"        witness: "
                         f"{canonical_json(check['witness'])}")
    for note in report["notes"]:
        lines.append(f"note: {note}")
    summary = report["summary"]
    lines.append(f"summary: {summary['pass']} pass, {summary['fail']} "
                 f"fail, {summary['error']} error")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def trace_lines(model: ModelFile, x0: Optional[dict], theta0: Fraction,
                t_end: Fraction, tol: float) -> list:
    """Integrate one singular path and return its nodes as canonical
    JSON lines."""
    if model.kind == "distribution235":
        dist = _build_distribution(model, model.box)
        system = distribution_system(dist)
    elif model.kind == "cone-family":
        family = _build_family(model, model.box)
        system = cone_system(family)
    else:
        raise ModelError(
            "trace requires a distribution235 or cone-family model")
    if x0 is None:
        x0 = {var: as_fraction(model.base_point[var])
              for var in system.state_chart.variables}
    p0, u0 = singular_launch(system, x0, theta0)
    trace = integrate_biextremal(system, x0, p0, u0, float(t_end),
                                 constraint_tol=tol)
    lines = []
    for i in range(len(trace.times)):
        lines.append(canonical_json({
            "t": float(trace.times[i]),
            "x": [float(v) for v in trace.states[i]],
            "p": [float(v) for v in trace.costates[i]],
            "u": [float(v) for v in trace.controls[i]],
            "residual": float(trace.residuals[i]),
        }))
    return lines


def _parse_x0(text: str, model: ModelFile) -> dict:
    variables = model.chart
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != len(variables):
        raise ModelError(
            f"--x0 needs {len(variables)} comma-separated rationals "
            f"({', '.join(variables)})")
    return {var: _rational(part, f"--x0 {var}")
            for var, part in zip(variables, parts)}


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ModelError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="dist235",
        description="Verify plane-field and cone-family models and "
                    "cross-validate their singular paths.")
    sub = parser.add_subparsers(dest="command")

    analyze = sub.add_parser(
        "analyze", help="run a check suite over a model file")
    analyze.add_argument("model", help="model file path or bundled name")
    analyze.add_argument("--suite", choices=_SUITES, default="all")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--box-scale", default="1",
                         help="rational factor applied to the box")
    analyze.add_argument("--format", choices=("json", "text"),
                         default="json")
    analyze.add_argument("--out", default=None,
                         help="also write the canonical JSON report here")

    models = sub.add_parser("models", help="bundled model documents")
    models.add_argument("action", choices=("list", "show"))
    models.add_argument("name", nargs="?", default=None)

    trace = sub.add_parser(
        "trace", help="integrate one singular path, print JSON lines")
    trace.add_argument("model", help="model file path or bundled name")
    trace.add_argument("--x0", default=None,
                       help="starting state, comma-separated rationals")
    trace.add_argument("--theta0", default="0",
                       help="launch direction (rational)")
    trace.add_argument("--T", default="1/2",
                       help="integration time (rational, may be negative)")
    trace.add_argument("--tol", type=float, default=1e-9,
                       help="per-step constraint tolerance")
    return parser


def _cmd_analyze(args) -> int:
    model = load_model(args.model)
    seed = args.seed
    if seed < 0:
        raise ModelError("--seed must be a non-negative integer")
    scale = _rational(args.box_scale, "--box-scale")
    if scale <= 0:
        raise ModelError("--box-scale must be positive")
    clock: list = []
    report = run_suite(model, args.suite, seed, out=args.out,
                       box_scale=scale, clock=clock)
    if args.format == "json":
        if args.out is None:
            sys.stdout.write(canonical_json(report) + "\n")
    else:
        sys.stdout.write(format_text(report, clock))
    return exit_code(report)


def _cmd_models(args) -> int:
    if args.action == "list":
        for name in bundled_names():
            sys.stdout.write(name + "\n")
        return 0
    if args.name is None:
        raise ModelError("models show needs a model name")
    sys.stdout.write(bundled_document(args.name))
    return 0


def _cmd_trace(args) -> int:
    model = load_model(args.model)
    x0 = _parse_x0(args.x0, model) if args.x0 is not None else None
    theta0 = _rational(args.theta0, "--theta0")
    t_end = _rational(args.T, "--T")
    if t_end == 0:
        raise ModelError("--T must be nonzero")
    if not args.tol > 0:
        raise ModelError("--tol must be positive")
    try:
        lines = trace_lines(model, x0, theta0, t_end, args.tol)
    except ModelError:
        raise
    except Exception as exc:  # what a suite check records as an error
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    for line in lines:
        sys.stdout.write(line + "\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "models":
            return _cmd_models(args)
        if args.command == "trace":
            return _cmd_trace(args)
        raise ModelError("missing command (analyze, models, or trace)")
    except ModelError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
