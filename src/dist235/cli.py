"""Command-line front end: model files, verification suites, reports.

A model file is parsed by `dist235.models` and built by
`conedual.build_model`.  ``analyze`` runs a named suite of checks over
a model and emits a report; the JSON form is canonical (sorted keys,
fixed float format) so that identical runs produce identical bytes.
``models`` lists and prints the bundled model documents, and ``trace``
integrates one singular path and prints its nodes as JSON lines.

Exit codes: 0 when every check passes, 1 when any check fails, 2 when
any check errors out, 3 for usage and model-file problems.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
import time
from fractions import Fraction
from typing import Optional

from .boxes import Box, as_fraction
from .conedual import build_model, check_lagrangian, check_nondegenerate, \
    check_osculating_condition, prolong_cone, solve_U
from .distduality import FIBER, GrowthError, ProlongedDistribution, \
    PseudoProductStructure, SolveEResult, prolong_235, solve_e, \
    symbol_algebra_at, verify_pseudo_product
from .models import BUNDLED, ModelError, ModelFile, _rational, \
    document_text, parse_model
from .paths import cone_system, distribution_system, integrate_biextremal, \
    singular_launch, verify_duality
from .scalar import to_text

__all__ = [
    "bundled_document", "canonical_json", "exit_code", "format_text",
    "load_model", "main", "run_suite", "trace_lines",
]

_VERSION = "0.1.0"

_SUITES = ("verify", "prolong", "duality", "all")
_DUALITY_T = Fraction(1, 2)


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

def bundled_document(name: str) -> str:
    """The canonical JSON text of a bundled model document."""
    try:
        doc = BUNDLED[name]
    except KeyError:
        raise ModelError(
            f"no bundled model named {name!r}; available: "
            + ", ".join(BUNDLED)) from None
    return document_text(doc)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

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


_BUILT = {"distribution235": "the distribution",
          "cone-family": "the cone family",
          "pseudo-product": "the splitting"}

_SYSTEMS = {"distribution235": distribution_system,
            "cone-family": cone_system}


class _SuiteRun:
    """Runs named checks in order, recording outcome and wall time."""

    def __init__(self, model: ModelFile, seed: int, box_scale: Fraction):
        self.model = model
        self.seed = seed
        self.box = model.box.scaled(box_scale)
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

    def built(self):
        """The object the model document describes, built on the run's
        box: a distribution, a cone family or a splitting."""
        return self._memo(
            "built", lambda: build_model(self.model, self.box),
            _BUILT[self.model.kind])

    def built_or_error(self):
        """`built()`, or the exception its construction raised."""
        try:
            return self.built()
        except _Skip:
            return self.ctx["built"]

    def prolonged(self) -> ProlongedDistribution:
        return self._memo(
            "prolonged", lambda: prolong_235(self.built()),
            "the prolongation")

    def solved_e(self) -> SolveEResult:
        prolonged = self.prolonged()
        return self._memo(
            "solved_e", lambda: solve_e(prolonged),
            "the correction scalar")

    def structure(self) -> PseudoProductStructure:
        kind = self.model.kind
        if kind == "pseudo-product":
            return self.built()
        if kind == "cone-family":
            return self._memo("structure", lambda: prolong_cone(self.built()),
                              "the splitting")
        return self._memo(
            "structure", lambda: self.solved_e().structure(
                self.prolonged(), name=self.model.name), "the splitting")

    def control_system(self):
        system = _SYSTEMS[self.model.kind]
        return self._memo(
            "system", lambda: system(self.built()), "the control system")

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
        witnesses = [w for cond in report.conditions for w in cond.witnesses]
        witnesses += report.splitting_witnesses
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
        built = self.built_or_error()
        if isinstance(built, Exception) and not isinstance(built, GrowthError):
            raise built
        report = built.report
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

    def check_built(self, detail: str):
        """The build check: `detail`, formatted with the built object,
        when it builds, else its construction error as a failure."""
        built = self.built_or_error()
        if isinstance(built, Exception):
            return _record("fail", f"{type(built).__name__}: {built}",
                           {"message": str(built)})
        return _record("pass", detail.format(built), box=built.box)

    def check_nondegenerate(self):
        family = self.built()
        if check_nondegenerate(family):
            return _record("pass", "the direction curve keeps rank 4 with "
                                   "its derivatives")
        return _record("fail", "an osculating space collapses along the "
                               "direction curve",
                       {"message": "rank of the generator and its three "
                                   "derivatives drops below 4"})

    def check_lagrangian(self):
        family = self.built()
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
        family = self.built()
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
        family = self.built()
        solved = self._memo("solved_u", lambda: solve_U(family),
                            "the correction scalar")
        return _record("pass", f"U = {to_text(solved.expression)}")


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
    passed.  The run builds the model once, on a chart whose memo all
    its work fills, so it does not depend on what ran before it.
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
        "family-build": lambda: run.check_built(
            "contact form verified and annihilation certified "
            "({.alpha_status})"),
        "nondegenerate": run.check_nondegenerate,
        "lagrangian": run.check_lagrangian,
        "osculating-condition": run.check_osculating,
        "solve-U": run.check_solve_u,
        "prolong-cone": run.check_pseudo_product,
        "splitting-build": lambda: run.check_built(
            "two transverse line fields on a 6-chart with the expected "
            "flag"),
        "duality-base": lambda: run.check_duality(0),
        "duality-random-1": lambda: run.check_duality(1),
        "duality-random-2": lambda: run.check_duality(2),
    }
    for name in _check_sequence(model.kind, suite):
        run.run(name, bodies[name])

    counts = {"pass": 0, "fail": 0, "error": 0}
    for record in run.records:
        counts[record["status"]] += 1

    built = run.ctx.get("built")
    box = None if built is None or isinstance(built, Exception) else built.box

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
    """Integrate one singular path of the model, built anew, and return
    its nodes as canonical JSON lines."""
    if model.kind not in _SYSTEMS:
        raise ModelError(
            "trace requires a distribution235 or cone-family model")
    system = _SYSTEMS[model.kind](build_model(model))
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


def _float_rational(text: str, where: str) -> Fraction:
    """A rational option that is also used as a float (`trace`
    integrates in floats, and `analyze` samples its box in floats): one
    too large for a float is an input error, not a failed run."""
    value = _rational(text, where)
    try:
        float(value)
    except OverflowError:
        raise ModelError(f"{where}: {text} is too large for a float") \
            from None
    return value


def _parse_x0(text: str, model: ModelFile) -> dict:
    variables = model.chart
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != len(variables):
        raise ModelError(
            f"--x0 needs {len(variables)} comma-separated rationals "
            f"({', '.join(variables)})")
    return {var: _float_rational(part, f"--x0 {var}")
            for var, part in zip(variables, parts)}


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -1/8, -1e-3 and -1/8,0,0,0,0 are values, not options: argparse's
        # own pattern takes only forms such as -1 and -0.5 for numbers
        self._negative_number_matcher = re.compile(r"-\.?\d")

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
    scale = _float_rational(args.box_scale, "--box-scale")
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
        for name in BUNDLED:
            sys.stdout.write(name + "\n")
        return 0
    if args.name is None:
        raise ModelError("models show needs a model name")
    sys.stdout.write(bundled_document(args.name))
    return 0


def _cmd_trace(args) -> int:
    model = load_model(args.model)
    x0 = _parse_x0(args.x0, model) if args.x0 is not None else None
    theta0 = _float_rational(args.theta0, "--theta0")
    t_end = _float_rational(args.T, "--T")
    if float(t_end) == 0:
        raise ModelError("--T must be nonzero")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ModelError("--tol must be positive and finite")
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
