"""Model documents: the schema, the parser, and the bundled documents.

A model file is a small JSON document declaring a chart and named
expressions.  Three kinds are understood:

* ``distribution235`` — two frame fields ``eta1``/``eta2`` on a
  5-dimensional chart;
* ``cone-family`` — generator components ``A``/``B``/``S``/``T`` (or the
  parameter shortcuts ``a`` resp. ``b``/``c``) with a direction
  coordinate and a contact form;
* ``pseudo-product`` — ``e1``/``e2``/``K``/``L`` on a 6-dimensional
  chart.

`parse_model` checks a document into a `ModelFile` holding one tree per
expression text and the document's box; `conedual.build_model` builds
its object from them.  `document_text` is the one text of a document.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .boxes import Box, default_box
from .scalar import OpaqueRegistry, compile_expr, default_registry, \
    parse_expr

_KINDS = ("distribution235", "cone-family", "pseudo-product")


class ModelError(Exception):
    """A model file or command line that cannot be used (exit code 3)."""


# ---------------------------------------------------------------------------
# bundled model documents
# ---------------------------------------------------------------------------

# The standard chart and contact form of the parameter-driven families.
STANDARD_CHART = ("x1", "x2", "x3", "x4", "x5")
STANDARD_ALPHA = ("0", "-x3", "2*x2", "-x1", "1")

BUNDLED = {
    "hilbert-cartan": {
        "kind": "distribution235",
        "name": "hilbert-cartan",
        "chart": ["x", "y", "y1", "y2", "z"],
        "expressions": {
            "eta1": ["1", "y1", "y2", "0", "y2^2"],
            "eta2": ["0", "0", "0", "1", "0"],
        },
    },
    "flat-cone": {
        "kind": "cone-family",
        "name": "flat-cone",
        "chart": list(STANDARD_CHART),
        "theta": "th",
        "alpha": list(STANDARD_ALPHA),
        "expressions": {
            "A": "th",
            "B": "th^2",
            "S": "th^3",
            "T": "x3*th - 2*x2*th^2 + x1*th^3",
        },
    },
    "cubic-a": {
        "kind": "cone-family",
        "name": "cubic-a",
        "chart": list(STANDARD_CHART),
        "theta": "th",
        "alpha": list(STANDARD_ALPHA),
        "expressions": {"a": "x1"},
        "notes": [
            "open question: whether a nonzero driver a(x1) is compatible "
            "with the osculating identity is not asserted either way; "
            "the osculating-condition entry below records the computed "
            "outcome for a = x1.",
        ],
    },
    "noncubic-bc": {
        "kind": "cone-family",
        "name": "noncubic-bc",
        "chart": list(STANDARD_CHART),
        "theta": "th",
        "alpha": list(STANDARD_ALPHA),
        "expressions": {"b": "th^3", "c": "(3/2)*th^4"},
    },
    "noncubic-bc-violating": {
        "kind": "cone-family",
        "name": "noncubic-bc-violating",
        "chart": list(STANDARD_CHART),
        "theta": "th",
        "alpha": list(STANDARD_ALPHA),
        "expressions": {"b": "th^3", "c": "th^4"},
    },
}


def document_text(doc: dict) -> str:
    """The one text of a model document: JSON with sorted keys and no
    spaces, and a final newline.  A document holds only strings, lists
    and objects, so this is also its canonical report JSON."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelFile:
    """A parsed and schema-checked model document.

    Each expression text is parsed once against the declared chart and
    kept as a tree (a tuple of trees for a frame field and `alpha`).  The
    box is the document's own, else `boxes.default_box` about the base
    point with a cone family's direction last.  The objects are built
    later, inside the suite, so that a model that parses but fails
    verification is a failing check rather than a usage error.
    """

    kind: str
    name: str
    chart: tuple
    expressions: dict = field(compare=False)
    box: Box = field(compare=False)
    theta: Optional[str] = None
    alpha: Optional[tuple] = None
    base_point: dict = field(default_factory=dict, compare=False)
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
    except ValueError as exc:
        raise ModelError(f"{where}: not a rational: {exc}") from None
    except ZeroDivisionError:
        raise ModelError(
            f"{where}: {value} has a zero denominator") from None


def _parse_text(text: str, variables, registry, where: str):
    try:
        return parse_expr(text, variables, registry)
    except Exception as exc:
        raise ModelError(f"{where}: {exc}") from None


def _parse_texts(value, count: int, variables, registry, where: str):
    return tuple(_parse_text(text, variables, registry, f"{where}[{i}]")
                 for i, text in enumerate(_string_list(value, count, where)))


def _build_registry(doc: dict, origin: str) -> OpaqueRegistry:
    """The document's opaque functions, or the shared default registry
    when it declares none.  A derivative may name any declared function,
    whatever the order of declaration."""
    entries = doc.get("opaque", [])
    if not isinstance(entries, list):
        raise ModelError(f"{origin}: 'opaque' must be a list")
    if not entries:
        return default_registry()
    registry = OpaqueRegistry()
    declared = [entry.get("name") for entry in entries
                if isinstance(entry, dict)]
    for i, entry in enumerate(entries):
        where = f"{origin}: opaque[{i}]"
        if not isinstance(entry, dict):
            raise ModelError(f"{where}: expected an object")
        extra = set(entry) - {"name", "evaluator", "derivative"}
        if extra:
            raise ModelError(
                f"{where}: unknown fields {sorted(extra)}")
        name = _string(_require(entry, "name", where), f"{where}.name")
        if name in registry:
            raise ModelError(f"{where}: opaque {name!r} is declared twice")
        ev_text = _string(_require(entry, "evaluator", where),
                          f"{where}.evaluator")
        dv_text = _string(_require(entry, "derivative", where),
                          f"{where}.derivative")
        ev_expr = _parse_text(ev_text, ("u",), None, f"{where}.evaluator")
        evaluator = compile_expr(ev_expr, ("u",))
        if dv_text in declared:
            derivative = dv_text
        else:
            derivative = _parse_text(dv_text, ("u",), None,
                                     f"{where}.derivative")
        registry.register(name, evaluator, derivative)
    return registry


_DRIVER_SETS = ({"a"}, {"b", "c"})
_COMPONENT_SET = {"A", "B", "S", "T"}
_FIELDS = {"distribution235": (("eta1", "eta2"), "'eta1' and 'eta2'"),
           "pseudo-product": (("e1", "e2", "K", "L"),
                              "'e1', 'e2', 'K', and 'L'")}


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
        alpha = _parse_texts(doc["alpha"], 5, chart, registry,
                             f"{origin}: alpha")
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

    parsed = {}
    if kind == "cone-family":
        if keys != _COMPONENT_SET and keys not in _DRIVER_SETS:
            raise ModelError(
                f"{origin}: a cone-family model needs either the "
                "components 'A','B','S','T' or the parameters 'a' "
                "(cubic) or 'b','c' (non-cubic)")
        if keys in _DRIVER_SETS and (chart != STANDARD_CHART
                                     or theta != "th"
                                     or tuple(doc["alpha"]) != STANDARD_ALPHA):
            raise ModelError(
                f"{origin}: parameter-driven cone families use the "
                "standard chart x1..x5, direction 'th', and the "
                "standard contact form")
        for key in sorted(keys):
            text_k = _string(expressions[key], f"{origin}: expressions.{key}")
            parsed[key] = _parse_text(text_k, chart + (theta,), registry,
                                      f"{origin}: expressions.{key}")
    else:
        fields, listed = _FIELDS[kind]
        if keys != set(fields):
            raise ModelError(f"{origin}: a {kind} model needs exactly the "
                             f"expressions {listed}")
        for key in fields:
            parsed[key] = _parse_texts(
                expressions[key], dimension, chart, registry,
                f"{origin}: expressions.{key}")

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

    box = default_box(base_point, theta)
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
        kind=kind, name=name, chart=tuple(chart), expressions=parsed,
        theta=theta, alpha=alpha, base_point=base_point, box=box,
        notes=notes, registry=registry,
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest())
