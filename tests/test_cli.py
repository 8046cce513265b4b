"""Command-line layer: model files, check suites, canonical reports."""

import cProfile
import hashlib
import json
import math
import os
import pstats
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dist235.cli import (
    bundled_document, canonical_json, exit_code, format_text, load_model,
    main, run_suite, trace_lines,
)
from dist235 import conedual
from dist235.conedual import ConeFamily, build_model, builtin_model
from dist235.models import BUNDLED, ModelError, document_text, parse_model
from dist235.scalar import parse_expr
from dist235 import distduality
from dist235.distduality import Distribution235, check_235
from dist235.vecfield import Chart, DegenerateFrameError, derived_flag

from helpers import count_calls

TOL = 1e-9


def flat_cone_model():
    return parse_model(bundled_document("flat-cone"), "flat-cone")


def hc_model():
    return parse_model(bundled_document("hilbert-cartan"), "hilbert-cartan")


PSEUDO_DOC = {
    "kind": "pseudo-product",
    "name": "flat-splitting",
    "chart": ["x", "y", "y1", "y2", "z", "t"],
    "expressions": {
        "e1": ["1", "y1", "y2", "t", "y2^2", "0"],
        "e2": ["0", "0", "0", "0", "0", "1"],
        "K": ["1", "y1", "y2", "t", "y2^2", "0"],
        "L": ["0", "0", "0", "0", "0", "1"],
    },
}


def pseudo_model(swap=False):
    doc = json.loads(json.dumps(PSEUDO_DOC))
    if swap:
        doc["expressions"]["K"], doc["expressions"]["L"] = \
            doc["expressions"]["L"], doc["expressions"]["K"]
    return parse_model(json.dumps(doc), "pseudo")


def call_counts(fn, *functions):
    """How many times each of `functions` is called while `fn` runs."""
    profile = cProfile.Profile()
    profile.runcall(fn)
    stats = pstats.Stats(profile).stats
    counts = []
    for f in functions:
        code = f.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        counts.append(stats[key][1] if key in stats else 0)
    return counts


def check_named(report, name):
    for check in report["checks"]:
        if check["name"] == name:
            return check
    raise AssertionError(f"no check named {name!r}")


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

class TestCanonicalJson:
    def test_sorted_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_scalars(self):
        assert canonical_json(None) == "null"
        assert canonical_json(True) == "true"
        assert canonical_json(False) == "false"
        assert canonical_json(3) == "3"
        assert canonical_json("a\"b") == '"a\\"b"'

    def test_floats_fixed_format(self):
        assert canonical_json(0.5) == "0.5"
        assert canonical_json(1.0 / 3.0) == "%.17g" % (1.0 / 3.0)
        assert canonical_json(1e-9) == "%.17g" % 1e-9

    def test_non_finite_floats_become_strings(self):
        assert canonical_json(math.nan) == '"nan"'
        assert canonical_json(math.inf) == '"inf"'
        assert canonical_json(-math.inf) == '"-inf"'

    def test_fractions_quoted(self):
        assert canonical_json(Fraction(1, 3)) == '"1/3"'
        assert canonical_json(Fraction(-2)) == '"-2"'

    def test_sequences_align(self):
        data = [0.5, 1.5, 2.5]
        assert canonical_json(tuple(data)) == canonical_json(data)
        # trace rows are tuples of floats inside a tuple
        assert canonical_json((tuple(data),)) == canonical_json([data])

    def test_numpy_scalars(self):
        assert canonical_json(np.float64(0.25)) == "0.25"

    def test_nested_deterministic(self):
        value = {"z": [1, {"q": 0.1, "a": None}], "a": "x"}
        assert canonical_json(value) == canonical_json(value)
        parsed = json.loads(canonical_json(value))
        assert parsed["z"][1]["q"] == 0.1

    def test_non_string_key_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({1: "a"})


# ---------------------------------------------------------------------------
# model parsing
# ---------------------------------------------------------------------------

class TestParseModel:
    def test_flat_cone_parses(self):
        model = flat_cone_model()
        assert model.kind == "cone-family"
        assert model.name == "flat-cone"
        assert model.chart == ("x1", "x2", "x3", "x4", "x5")
        assert model.theta == "th"
        assert model.alpha == tuple(parse_expr(text, model.chart) for text
                                    in ("0", "-x3", "2*x2", "-x1", "1"))
        assert len(model.sha256) == 64
        assert model.base_point["th"] == 0

    def test_hilbert_cartan_parses(self):
        model = hc_model()
        assert model.kind == "distribution235"
        assert model.theta is None
        assert set(model.base_point) == set(model.chart)
        assert all(v == 0 for v in model.base_point.values())

    def test_not_json(self):
        with pytest.raises(ModelError, match="not valid JSON"):
            parse_model("{oops", "f")

    def test_top_level_must_be_object(self):
        with pytest.raises(ModelError, match="top level"):
            parse_model("[1, 2]", "f")

    def test_missing_kind(self):
        with pytest.raises(ModelError, match="missing required field"):
            parse_model('{"name": "m"}', "f")

    def test_unknown_kind(self):
        with pytest.raises(ModelError, match="unknown kind"):
            parse_model('{"kind": "mystery", "name": "m"}', "f")

    def test_unknown_top_level_field(self):
        doc = json.loads(bundled_document("hilbert-cartan"))
        doc["extra"] = 1
        with pytest.raises(ModelError, match="unknown fields"):
            parse_model(json.dumps(doc), "f")

    def test_chart_length_checked(self):
        doc = json.loads(bundled_document("hilbert-cartan"))
        doc["chart"] = doc["chart"][:4]
        with pytest.raises(ModelError, match="expected 5 entries"):
            parse_model(json.dumps(doc), "f")

    def test_chart_repeats_rejected(self):
        doc = json.loads(bundled_document("hilbert-cartan"))
        doc["chart"] = ["x", "x", "y1", "y2", "z"]
        with pytest.raises(ModelError, match="repeat"):
            parse_model(json.dumps(doc), "f")

    def test_missing_contact_form_is_schema_error(self):
        doc = json.loads(bundled_document("flat-cone"))
        del doc["alpha"]
        with pytest.raises(ModelError, match="contact form"):
            parse_model(json.dumps(doc), "f")

    def test_theta_collision(self):
        doc = json.loads(bundled_document("flat-cone"))
        doc["theta"] = "x3"
        with pytest.raises(ModelError, match="collides"):
            parse_model(json.dumps(doc), "f")

    def test_alpha_on_distribution_rejected(self):
        doc = json.loads(bundled_document("hilbert-cartan"))
        doc["alpha"] = ["0", "0", "0", "0", "1"]
        with pytest.raises(ModelError, match="only applies to"):
            parse_model(json.dumps(doc), "f")

    def test_distribution_needs_both_frames(self):
        doc = json.loads(bundled_document("hilbert-cartan"))
        del doc["expressions"]["eta2"]
        with pytest.raises(ModelError, match="eta1"):
            parse_model(json.dumps(doc), "f")

    def test_bad_expression_reports_location(self):
        doc = json.loads(bundled_document("hilbert-cartan"))
        doc["expressions"]["eta1"][4] = "qq + 1"
        with pytest.raises(ModelError, match=r"expressions\.eta1\[4\]"):
            parse_model(json.dumps(doc), "f")

    def test_cone_component_sets(self):
        doc = json.loads(bundled_document("flat-cone"))
        doc["expressions"] = {"A": "th", "B": "th^2"}
        with pytest.raises(ModelError, match="either the"):
            parse_model(json.dumps(doc), "f")

    def test_driver_route_parses(self):
        model = parse_model(bundled_document("cubic-a"), "cubic-a")
        assert set(model.expressions) == {"a"}
        assert model.notes

    def test_driver_route_needs_standard_chart(self):
        doc = json.loads(bundled_document("cubic-a"))
        doc["chart"] = ["q1", "q2", "q3", "q4", "q5"]
        doc["alpha"] = ["0", "-q3", "2*q2", "-q1", "1"]
        with pytest.raises(ModelError, match="standard chart"):
            parse_model(json.dumps(doc), "f")

    def test_driver_route_fixes_base(self):
        doc = json.loads(bundled_document("cubic-a"))
        doc["base_point"] = {"x1": "1/8"}
        with pytest.raises(ModelError, match="fix the base"):
            parse_model(json.dumps(doc), "f")

    def test_base_point_unknown_variable(self):
        doc = json.loads(bundled_document("hilbert-cartan"))
        doc["base_point"] = {"w": "0"}
        with pytest.raises(ModelError, match="unknown variable"):
            parse_model(json.dumps(doc), "f")

    def test_base_point_rationals(self):
        doc = json.loads(bundled_document("hilbert-cartan"))
        doc["base_point"] = {"y1": "1/8", "z": "0.25"}
        model = parse_model(json.dumps(doc), "f")
        assert model.base_point["y1"] == Fraction(1, 8)
        assert model.base_point["z"] == Fraction(1, 4)
        assert model.base_point["x"] == 0

    def test_box_must_cover_every_coordinate(self):
        doc = json.loads(bundled_document("hilbert-cartan"))
        doc["box"] = {"x": ["-1/4", "1/4"]}
        with pytest.raises(ModelError, match="every coordinate"):
            parse_model(json.dumps(doc), "f")

    def test_box_reversed_interval(self):
        doc = json.loads(bundled_document("hilbert-cartan"))
        doc["box"] = {v: ["-1/4", "1/4"] for v in doc["chart"]}
        doc["box"]["z"] = ["1/4", "-1/4"]
        with pytest.raises(ModelError, match="empty or reversed"):
            parse_model(json.dumps(doc), "f")

    def test_base_point_outside_box(self):
        doc = json.loads(bundled_document("hilbert-cartan"))
        doc["box"] = {v: ["-1/4", "1/4"] for v in doc["chart"]}
        doc["base_point"] = {"z": "1/2"}
        with pytest.raises(ModelError, match="outside the box"):
            parse_model(json.dumps(doc), "f")

    def test_opaque_declarations(self):
        doc = json.loads(bundled_document("hilbert-cartan"))
        doc["opaque"] = [
            {"name": "sq", "evaluator": "u^2", "derivative": "2*u"}]
        doc["expressions"]["eta1"][4] = "sq(y2)"
        model = parse_model(json.dumps(doc), "f")
        assert "sq" in model.registry

    def test_opaque_derivative_may_name_opaque(self):
        doc = json.loads(bundled_document("hilbert-cartan"))
        doc["opaque"] = [
            {"name": "g", "evaluator": "u^3", "derivative": "g"}]
        model = parse_model(json.dumps(doc), "f")
        assert "g" in model.registry

    def test_opaque_derivative_may_name_a_later_function(self):
        # f' = f1, f1' = f2, f2' = 0 in either order of declaration
        chain = [{"name": "f", "evaluator": "u^2", "derivative": "f1"},
                 {"name": "f1", "evaluator": "2*u", "derivative": "f2"},
                 {"name": "f2", "evaluator": "2", "derivative": "0"}]
        models = []
        for entries in (chain, chain[::-1]):
            doc = json.loads(bundled_document("cubic-a"))
            doc["opaque"] = entries
            doc["expressions"]["a"] = "f(x1)"
            models.append(parse_model(json.dumps(doc), "f"))
        natural, reversed_ = (run_suite(m, "all", 0) for m in models)
        assert natural["model"]["sha256"] != reversed_["model"]["sha256"]
        assert natural["checks"] == reversed_["checks"]
        assert check_named(natural, "family-build")["status"] == "pass"

    def test_opaque_bad_shape(self):
        doc = json.loads(bundled_document("hilbert-cartan"))
        doc["opaque"] = [{"name": "sq", "evaluator": "u^2"}]
        with pytest.raises(ModelError, match="derivative"):
            parse_model(json.dumps(doc), "f")

    def test_sha_tracks_text(self):
        text = bundled_document("flat-cone")
        a = parse_model(text, "f").sha256
        b = parse_model(text, "f").sha256
        c = parse_model(text.replace("flat-cone", "flat-clone"),
                        "f").sha256
        assert a == b
        assert a != c

    def test_pseudo_product_parses(self):
        model = pseudo_model()
        assert model.kind == "pseudo-product"
        assert len(model.chart) == 6

    def test_pseudo_product_needs_all_four(self):
        doc = json.loads(json.dumps(PSEUDO_DOC))
        del doc["expressions"]["L"]
        with pytest.raises(ModelError, match="'e1', 'e2', 'K', and 'L'"):
            parse_model(json.dumps(doc), "f")


class TestLoadAndBundled:
    def test_bundled_names(self):
        assert tuple(BUNDLED) == (
            "hilbert-cartan", "flat-cone", "cubic-a", "noncubic-bc",
            "noncubic-bc-violating")

    def test_every_bundled_document_parses(self):
        for name in BUNDLED:
            model = parse_model(bundled_document(name), name)
            assert model.name == name

    def test_documents_are_canonical(self):
        for name in BUNDLED:
            text = bundled_document(name)
            assert canonical_json(json.loads(text)) + "\n" == text

    @pytest.mark.parametrize("name", list(BUNDLED))
    def test_document_text_is_the_canonical_json(self, name):
        doc = BUNDLED[name]
        assert document_text(doc) == canonical_json(doc) + "\n"

    @pytest.mark.parametrize("name", list(BUNDLED))
    def test_builtin_model_parses_the_shown_document(self, monkeypatch,
                                                     name):
        # the bytes `dist235 models show <name>` prints, so the two
        # parse to models with one content hash
        calls = count_calls(monkeypatch, conedual, "parse_model")
        builtin_model(name)
        assert calls == [(bundled_document(name), name)]

    @pytest.mark.parametrize("name, variables", [
        ("hilbert-cartan", ("x", "y", "y1", "y2", "z")),
        ("flat-cone", ("x1", "x2", "x3", "x4", "x5", "th")),
        ("cubic-a", ("x1", "x2", "x3", "x4", "x5", "th")),
        ("noncubic-bc", ("x1", "x2", "x3", "x4", "x5", "th")),
        ("noncubic-bc-violating", ("x1", "x2", "x3", "x4", "x5", "th")),
    ])
    def test_one_default_box(self, name, variables):
        # the document's box, the built object's box, and the box each
        # constructor defaults to are one box: half-width 1/4 about the
        # base point, 1/2 in the direction coordinate, which comes last
        model = parse_model(bundled_document(name), name)
        built = build_model(model)
        chart = Chart(model.chart, model.registry)
        if model.kind == "cone-family":
            default = ConeFamily.build(
                chart, [nf.tree for nf in built.records], built.alpha,
                theta=model.theta,
                base_point=dict(model.base_point)).box
        else:
            default = Distribution235(chart, built.eta1, built.eta2,
                                      dict(model.base_point)).box
        assert model.box == built.box == default
        assert model.box.variables == variables
        half_widths = [(hi - lo) / 2 for _, lo, hi in model.box.intervals]
        assert half_widths == [Fraction(1, 4)] * 5 + \
            [Fraction(1, 2)] * (len(variables) - 5)

    def test_unknown_bundled_name(self):
        with pytest.raises(ModelError, match="no bundled model"):
            bundled_document("mystery")

    def test_load_model_prefers_files(self, tmp_path):
        path = tmp_path / "m.json"
        doc = json.loads(bundled_document("flat-cone"))
        doc["name"] = "from-file"
        path.write_text(json.dumps(doc))
        assert load_model(str(path)).name == "from-file"

    def test_load_model_falls_back_to_bundled(self):
        assert load_model("flat-cone").name == "flat-cone"

    def test_load_model_unknown(self):
        with pytest.raises(ModelError, match="no such model"):
            load_model("no-such-file.json")

    # the number of expression texts in each bundled document
    TEXTS = {"hilbert-cartan": 10, "flat-cone": 9, "cubic-a": 6,
             "noncubic-bc": 7, "noncubic-bc-violating": 7}

    @pytest.mark.parametrize("name", sorted(TEXTS))
    def test_each_text_is_parsed_once(self, name):
        assert call_counts(lambda: build_model(load_model(name)),
                           parse_expr) == [self.TEXTS[name]]

    def test_builtin_model_parses_each_text_once(self):
        params = {"b": "th^3 - th^4", "c": "(3/2)*th^4 - 2*th^5"}
        assert call_counts(lambda: builtin_model("noncubic-bc", params),
                           parse_expr) == [7]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

class TestRunSuite:
    def test_flat_cone_all_every_check_passes(self):
        report = run_suite(flat_cone_model(), "all", 7)
        assert [c["status"] for c in report["checks"]] == \
            ["pass"] * len(report["checks"])
        assert [c["name"] for c in report["checks"]] == [
            "family-build", "nondegenerate", "lagrangian",
            "osculating-condition", "solve-U", "prolong-cone",
            "symbol-algebra", "swapped-splitting-fails",
            "duality-base", "duality-random-1", "duality-random-2"]
        assert report["summary"] == {"pass": 11, "fail": 0, "error": 0}
        assert exit_code(report) == 0
        assert report["box"]["th"] == ["-1/2", "1/2"]

    def test_flat_cone_solve_u_is_zero(self):
        report = run_suite(flat_cone_model(), "prolong", 0)
        assert check_named(report, "solve-U")["detail"] == "U = 0"

    def test_hilbert_cartan_all_passes_on_side_k(self):
        report = run_suite(hc_model(), "all", 7)
        assert exit_code(report) == 0
        assert check_named(report, "solve-e")["detail"] == "e = 0"
        for name in ("duality-base", "duality-random-1"):
            assert check_named(report, name)["detail"].startswith("side K")

    def test_degenerate_correction_is_a_named_error(self, monkeypatch):
        # solve_e has no second route: a degenerate elimination is
        # recorded as the error of solve-e, and every check that needs
        # the splitting is skipped
        def degenerate(*args, **kwargs):
            raise DegenerateFrameError("forced degeneration")

        monkeypatch.setattr(distduality, "symbolic_decompose", degenerate)
        report = run_suite(hc_model(), "all", 7)
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["check-235"] == statuses["prolong-235"] == "pass"
        solve = check_named(report, "solve-e")
        assert solve["status"] == "error"
        assert solve["detail"] == ("skipped: the correction scalar could "
                                   "not be built (forced degeneration)")
        for name in ("pseudo-product", "symbol-algebra",
                     "swapped-splitting-fails", "duality-base",
                     "duality-random-1", "duality-random-2"):
            check = check_named(report, name)
            assert check["status"] == "error"
            assert check["detail"].startswith(
                "skipped: the splitting could not be built")
            assert "forced degeneration" in check["detail"]
        assert exit_code(report) == 2

    def test_verify_suite_is_a_prefix(self):
        full = run_suite(flat_cone_model(), "prolong", 0)
        short = run_suite(flat_cone_model(), "verify", 0)
        names = [c["name"] for c in full["checks"]]
        assert [c["name"] for c in short["checks"]] == names[:4]

    def test_violating_family_fails_osculating_with_witness(self):
        model = parse_model(bundled_document("noncubic-bc-violating"),
                            "noncubic-bc-violating")
        report = run_suite(model, "verify", 0)
        check = check_named(report, "osculating-condition")
        assert check["status"] == "fail"
        assert check["witness"]["residuals"]
        label, expr_text, witness = check["witness"]["residuals"][0]
        assert "th" in expr_text
        assert "value" in witness
        assert exit_code(report) == 1

    def test_violating_family_also_breaks_isotropy(self):
        # For this normal form the isotropy pairing and the osculating
        # residual agree up to sign, so both entries fail together.
        model = parse_model(bundled_document("noncubic-bc-violating"),
                            "noncubic-bc-violating")
        report = run_suite(model, "verify", 0)
        assert check_named(report, "lagrangian")["status"] == "fail"

    def test_compliant_family_passes_verify(self):
        model = parse_model(bundled_document("noncubic-bc"), "noncubic-bc")
        report = run_suite(model, "verify", 0)
        assert report["summary"] == {"pass": 4, "fail": 0, "error": 0}

    def test_cubic_a_records_outcome_without_asserting(self):
        model = parse_model(bundled_document("cubic-a"), "cubic-a")
        report = run_suite(model, "all", 7)
        check = check_named(report, "osculating-condition")
        assert check["status"] in ("pass", "fail")
        assert report["notes"]
        assert "open question" in report["notes"][0]
        if check["status"] == "fail":
            assert exit_code(report) == 2
            assert check_named(report, "solve-U")["status"] == "error"
            assert check_named(
                report, "solve-U")["detail"].startswith("skipped")

    def test_pseudo_product_verify_passes(self):
        report = run_suite(pseudo_model(), "verify", 0)
        assert report["summary"] == {"pass": 3, "fail": 0, "error": 0}
        assert [c["name"] for c in report["checks"]] == [
            "splitting-build", "pseudo-product", "symbol-algebra"]

    def test_swapped_pseudo_product_fails_condition_two(self):
        report = run_suite(pseudo_model(swap=True), "verify", 0)
        check = check_named(report, "pseudo-product")
        assert check["status"] == "fail"
        assert 2 in check["witness"]["conditions"]
        assert check["witness"]["messages"]
        assert exit_code(report) == 1

    def test_duality_suite_rejected_for_pseudo_product(self):
        with pytest.raises(ModelError, match="duality suite requires"):
            run_suite(pseudo_model(), "duality", 0)

    def test_pseudo_product_all_stops_at_prolong(self):
        report = run_suite(pseudo_model(), "all", 0)
        assert [c["name"] for c in report["checks"]][-1] == \
            "swapped-splitting-fails"
        assert report["summary"]["pass"] == 4

    def test_unknown_suite(self):
        with pytest.raises(ModelError, match="unknown suite"):
            run_suite(flat_cone_model(), "everything", 0)

    def test_same_seed_same_bytes(self):
        first = canonical_json(run_suite(flat_cone_model(), "all", 3))
        second = canonical_json(run_suite(flat_cone_model(), "all", 3))
        assert first == second

    def test_seed_moves_the_random_launches(self):
        one = run_suite(hc_model(), "all", 1)
        two = run_suite(hc_model(), "all", 2)
        assert check_named(one, "duality-base")["detail"] == \
            check_named(two, "duality-base")["detail"]
        assert check_named(one, "duality-random-1")["detail"] != \
            check_named(two, "duality-random-1")["detail"]

    def test_box_scale_shrinks_report_box(self):
        report = run_suite(flat_cone_model(), "verify", 0,
                           box_scale=Fraction(1, 2))
        assert report["box"]["x1"] == ["-1/8", "1/8"]
        assert report["box"]["th"] == ["-1/4", "1/4"]
        assert report["box_scale"] == "1/2"

    def test_box_scale_rebuilds_the_family_on_the_scaled_box(self):
        # alpha(zeta2) = x1^20 * f(x1) = x1^21: numerically zero on the
        # default box (|x1| <= 1/4), not on the box scaled by 4
        doc = json.loads(bundled_document("flat-cone"))
        doc["name"] = "x1-power"
        doc["opaque"] = [{"name": "f", "evaluator": "u", "derivative": "1"}]
        doc["expressions"]["T"] += " + x1^20*f(x1)"
        model = parse_model(json.dumps(doc), "x1-power")
        check = check_named(run_suite(model, "verify", 0), "family-build")
        assert check["status"] == "pass"
        assert "numerically-zero" in check["detail"]
        report = run_suite(model, "verify", 0, box_scale=Fraction(4))
        check = check_named(report, "family-build")
        assert check["status"] == "fail"
        assert "does not annihilate" in check["detail"]

    @pytest.mark.parametrize("expressions, message", [
        ({"b": "th^2", "c": "th^4"},
         "parameter 'b' has lowest order 2, need at least 3"),
        ({"a": "x1 + 1"}, "parameter 'a' must vanish at the base point"),
        ({"a": "x1*x2"}, "parameter 'a' may only involve x1, found ('x2',)"),
    ])
    def test_rejected_driver_fails_the_build_check(self, expressions,
                                                   message):
        name = "cubic-a" if "a" in expressions else "noncubic-bc"
        doc = dict(BUNDLED[name], expressions=expressions)
        report = run_suite(parse_model(json.dumps(doc), name), "all", 0)
        check = check_named(report, "family-build")
        assert check["status"] == "fail"
        assert check["detail"] == f"StructureError: {message}"
        assert check["witness"] == {"message": message}
        assert report["box"] is None
        assert report["summary"] == {"pass": 0, "fail": 1, "error": 10}

    def test_growth_check_failure_record(self):
        doc = json.loads(bundled_document("hilbert-cartan"))
        doc["expressions"] = {"eta1": ["1", "0", "0", "0", "0"],
                              "eta2": ["0", "1", "0", "0", "0"]}
        report = run_suite(parse_model(json.dumps(doc), "abelian"),
                           "prolong", 0, box_scale=Fraction(2))
        check = check_named(report, "check-235")
        assert check["status"] == "fail"
        assert check["witness"] == {"failures": [check["detail"]]}
        assert "is (2,), expected (2, 3, 5)" in check["detail"]
        assert check["box"]["x"] == ["-1/2", "1/2"]
        assert check_named(report, "prolong-235")["status"] == "error"

    def test_growth_check_error_is_the_construction_error(self):
        doc = json.loads(bundled_document("hilbert-cartan"))
        doc["opaque"] = [{"name": "g", "evaluator": "u^-1",
                          "derivative": "-u^-2"}]
        doc["expressions"]["eta1"][4] = "g(y2)"
        report = run_suite(parse_model(json.dumps(doc), "pole"), "verify", 0)
        check = check_named(report, "check-235")
        assert check["status"] == "error"
        assert check["detail"].startswith("ZeroDivisionError: ")

    def test_each_object_is_built_once(self):
        # hilbert-cartan: the flag of its plane field and that of the
        # prolonged E, which the splitting of `solve_e` reuses
        assert call_counts(lambda: run_suite(hc_model(), "prolong", 7),
                           check_235, derived_flag) == [1, 2]
        assert call_counts(lambda: run_suite(flat_cone_model(), "prolong",
                                             7),
                           derived_flag) == [1]

    def test_clock_collects_wall_times(self):
        clock = []
        report = run_suite(flat_cone_model(), "verify", 0, clock=clock)
        assert len(clock) == len(report["checks"])
        assert all(t >= 0 for t in clock)

    def test_out_writes_canonical_bytes(self, tmp_path):
        path = tmp_path / "report.json"
        report = run_suite(flat_cone_model(), "verify", 0, out=str(path))
        assert path.read_text() == canonical_json(report) + "\n"

    def test_report_never_contains_wall_times(self):
        report = run_suite(flat_cone_model(), "verify", 0)
        text = canonical_json(report)
        assert "time" not in text
        assert "seconds" not in text

    def test_duality_residual_recorded(self):
        report = run_suite(hc_model(), "all", 7)
        check = check_named(report, "duality-base")
        assert check["residual"] is not None
        assert check["residual"] <= 1e-6


class TestReportPins:
    """SHA-256 of `canonical_json(run_suite(...))` beyond the seed-7
    reports: a change to these bytes is a change to the reports."""

    # two bundled models at seed 3 on the half-size box, where both
    # random duality launches draw from the scaled box
    BUNDLED_SHA256 = {
        "hilbert-cartan":
            "ea01076711b92054f8c7f02a7abd567bbc36684b4d7072084714844c2a3de6d6",
        "flat-cone":
            "cd84e31716c5ffca60092c79caabe2b0054b0efa940c965a2d977227345f1801",
    }

    # noncubic-bc documents with generated b and c, at seed 3: the first
    # satisfies the osculating identity, the second does not
    GENERATED = {
        "generated-compliant": (
            {"b": "(-1/2)*th^3 + (2)*th^4 + (-1/4)*th^5 + (1/4)*th^6",
             "c": "(-3/4)*th^4 + (18/5)*th^5 + (-1/2)*th^6 "
                  "+ (15/28)*th^7"},
            "2002ffe9326f98e24b8247a4c32404dca131dab7082a9b02fa42af3f1a5d30e5"),
        "generated-violating": (
            {"b": "(2)*th^3 + (2)*th^4 + (1/2)*th^5 + (2)*th^6",
             "c": "(-1/2)*th^4 + (1/4)*th^5 + (1)*th^6 + (1/4)*th^7"},
            "c8135f73fbf5323e853f98dd3fa3b0c5d53074e63eb2d6c12ec459df802636ab"),
    }

    # documents that declare opaque functions, at seed 3 on the half-size
    # box: the only pins whose charts carry a registry of their own, and
    # whose duality checks compile opaque evaluators
    OPAQUE = {
        "bc-opaque": (
            "noncubic-bc", {"b": "B(th)", "c": "C(th)"},
            [{"name": "B", "evaluator": "u^3", "derivative": "3*u^2"},
             {"name": "C", "evaluator": "3/2*u^4", "derivative": "6*u^3"}],
            "5c4b0f145d62dfa69e6ecdd9553a6269"
            "bc788e0126388bc33a18805a0cbd9a8b"),
        "hc-opaque": (
            "hilbert-cartan",
            {"eta1": ["1", "y1", "y2", "0", "y2^2 + g(y1)"],
             "eta2": ["0", "0", "0", "1", "0"]},
            [{"name": "g", "evaluator": "u^2", "derivative": "2*u"}],
            "b6e207d35d841b8b69ac5d2a68d10b14"
            "34e07128673ddf2648a39450f7d340da"),
    }

    @staticmethod
    def digest(report) -> str:
        return hashlib.sha256(canonical_json(report).encode()).hexdigest()

    @staticmethod
    def bundled_report(name: str) -> dict:
        model = parse_model(bundled_document(name), name)
        return run_suite(model, "all", 3, box_scale=Fraction(1, 2))

    @classmethod
    def generated_report(cls, name: str) -> dict:
        doc = dict(json.loads(bundled_document("noncubic-bc")), name=name,
                   expressions=cls.GENERATED[name][0])
        return run_suite(parse_model(json.dumps(doc), name), "all", 3)

    @classmethod
    def opaque_report(cls, name: str) -> dict:
        base, expressions, opaque, _ = cls.OPAQUE[name]
        doc = dict(json.loads(bundled_document(base)), name=name,
                   expressions=expressions, opaque=opaque)
        return run_suite(parse_model(json.dumps(doc), name), "all", 3,
                         box_scale=Fraction(1, 2))

    @pytest.mark.parametrize("name", sorted(BUNDLED_SHA256))
    def test_half_box_seed_three(self, name):
        assert self.digest(self.bundled_report(name)) == \
            self.BUNDLED_SHA256[name]

    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_generated_noncubic_bc(self, name):
        assert self.digest(self.generated_report(name)) == \
            self.GENERATED[name][1]

    @pytest.mark.parametrize("name", sorted(OPAQUE))
    def test_opaque_functions_half_box_seed_three(self, name):
        report = self.opaque_report(name)
        assert report["summary"]["fail"] == report["summary"]["error"] == 0
        assert self.digest(report) == self.OPAQUE[name][3]


class TestRationalComponentPins:
    """SHA-256 of the stdout of runs on documents whose components are
    quotients over a non-constant denominator: bundled documents with
    one expression replaced, written to a file and run through `main`."""

    TRACE_ARGS = ["--x0", "1/8,-1/8,1/8,1/16,0", "--theta0", "1/4",
                  "--T", "1/16"]

    # (bundled document, its expressions, command, exit code, digest)
    PINS = {
        "hc-half-quotient-trace": (
            "hilbert-cartan",
            {"eta1": ["1", "y1", "y2", "0", "(1/2)*y2^2/(1+y1)"],
             "eta2": ["0", "0", "0", "1", "0"]},
            ["trace"] + TRACE_ARGS, 0,
            "3a12ee2a0b9682887e7c3aeab91ceb49"
            "33a87a7fe855474b34fc3bfa58fcda67"),
        "hc-quotient-trace": (
            "hilbert-cartan",
            {"eta1": ["1", "y1", "y2", "0", "y2^2/(1+y1)"],
             "eta2": ["0", "0", "0", "1", "0"]},
            ["trace"] + TRACE_ARGS, 0,
            "0bace3db36e2715687c3443c771ccaa9"
            "dbb5f5930d42f9cec3259b41bb7f72be"),
        "cubic-a-quotient": (
            "cubic-a", {"a": "x1^2/(1+x1)"},
            ["analyze", "--suite", "all", "--seed", "3"], 2,
            "f3135630af4a20ad3b1d77a8b016a46d"
            "db878cb819b0a92ce189a589da1e624f"),
        "noncubic-bc-quotient": (
            "noncubic-bc", {"b": "th^3", "c": "th^4/(1+th)"},
            ["analyze", "--suite", "all", "--seed", "3"], 2,
            "b791622cc7ef0ec4b2f17ea4c35974d8"
            "12e2c4510eae84c8ee8e025b2026c861"),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_output_is_pinned(self, name, tmp_path, capsys):
        base, expressions, command, code, digest = self.PINS[name]
        doc = dict(json.loads(bundled_document(base)), name=name,
                   expressions=expressions)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main([command[0], str(path)] + command[1:]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

class TestFormatText:
    def test_mentions_model_and_summary(self):
        report = run_suite(flat_cone_model(), "verify", 0)
        text = format_text(report)
        assert "model: flat-cone (cone-family)" in text
        assert "summary: 4 pass, 0 fail, 0 error" in text
        for check in report["checks"]:
            assert check["name"] in text

    def test_witness_lines_for_failures(self):
        model = parse_model(bundled_document("noncubic-bc-violating"),
                            "noncubic-bc-violating")
        report = run_suite(model, "verify", 0)
        text = format_text(report)
        assert "witness:" in text

    def test_wall_times_only_in_text(self):
        clock = []
        report = run_suite(flat_cone_model(), "verify", 0, clock=clock)
        with_times = format_text(report, clock)
        without = format_text(report)
        assert with_times.count("s  ") >= len(report["checks"])
        assert with_times != without

    def test_notes_rendered(self):
        model = parse_model(bundled_document("cubic-a"), "cubic-a")
        report = run_suite(model, "verify", 0)
        assert "note: open question" in format_text(report)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

class TestTrace:
    def test_hilbert_cartan_nodes(self):
        model = hc_model()
        lines = trace_lines(model, None, Fraction(0), Fraction(1, 8), 1e-9)
        nodes = [json.loads(line) for line in lines]
        assert set(nodes[0]) == {"p", "residual", "t", "u", "x"}
        assert nodes[0]["t"] == 0
        assert nodes[0]["x"] == [0, 0, 0, 0, 0]
        assert nodes[-1]["t"] == pytest.approx(0.125, abs=1e-12)
        times = [node["t"] for node in nodes]
        assert times == sorted(times)
        assert all(len(node["x"]) == 5 for node in nodes)
        assert all(abs(node["residual"]) <= 1e-9 for node in nodes)

    def test_flat_cone_straight_line(self):
        model = flat_cone_model()
        x0 = {"x1": Fraction(1, 16), "x2": 0, "x3": 0, "x4": 0,
              "x5": Fraction(1, 32)}
        lines = trace_lines(model, x0, Fraction(0), Fraction(1, 8), 1e-9)
        last = json.loads(lines[-1])
        assert last["x"][0] == pytest.approx(1 / 16 + 1 / 8, abs=1e-12)
        assert last["x"][4] == pytest.approx(1 / 32, abs=1e-12)

    def test_pseudo_product_has_no_trace(self):
        with pytest.raises(ModelError, match="trace requires"):
            trace_lines(pseudo_model(), None, Fraction(0), Fraction(1, 8),
                        1e-9)


# ---------------------------------------------------------------------------
# entry point and exit codes
# ---------------------------------------------------------------------------

class TestMain:
    def test_models_list(self, capsys):
        assert main(["models", "list"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == list(BUNDLED)

    def test_models_show(self, capsys):
        assert main(["models", "show", "flat-cone"]) == 0
        assert capsys.readouterr().out == bundled_document("flat-cone")

    def test_models_show_unknown(self, capsys):
        assert main(["models", "show", "mystery"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_repeated_opaque_name_is_a_model_error(self, tmp_path, capsys):
        doc = json.loads(bundled_document("hilbert-cartan"))
        doc["opaque"] = [
            {"name": "f", "evaluator": "u", "derivative": "1"},
            {"name": "f", "evaluator": "u^2", "derivative": "2*u"}]
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: opaque[1]: opaque 'f' is declared twice\n")

    def test_models_show_needs_name(self, capsys):
        assert main(["models", "show"]) == 3
        capsys.readouterr()

    def test_analyze_pass_exit_zero(self, capsys):
        assert main(["analyze", "flat-cone", "--suite", "verify"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["summary"]["fail"] == 0
        assert out == canonical_json(report) + "\n"

    def test_analyze_fail_exit_one(self, capsys):
        code = main(["analyze", "noncubic-bc-violating",
                     "--suite", "verify"])
        capsys.readouterr()
        assert code == 1

    def test_analyze_error_exit_two(self, capsys):
        code = main(["analyze", "cubic-a", "--suite", "prolong"])
        capsys.readouterr()
        assert code == 2

    def test_analyze_unknown_model_exit_three(self, capsys):
        assert main(["analyze", "no-such-model"]) == 3
        assert "no such model" in capsys.readouterr().err

    def test_analyze_bad_suite_exit_three(self, capsys):
        assert main(["analyze", "flat-cone", "--suite", "bogus"]) == 3
        capsys.readouterr()

    def test_analyze_negative_seed_exit_three(self, capsys):
        assert main(["analyze", "flat-cone", "--seed", "-3"]) == 3
        capsys.readouterr()

    def test_analyze_zero_box_scale_exit_three(self, capsys):
        assert main(["analyze", "flat-cone", "--box-scale", "0"]) == 3
        capsys.readouterr()

    def test_analyze_box_scale_too_large_for_a_float_exit_three(self,
                                                                 capsys):
        # the duality checks sample the box in floats
        assert main(["analyze", "hilbert-cartan",
                     "--box-scale", "1e400"]) == 3
        assert capsys.readouterr().err == (
            "error: --box-scale: 1e400 is too large for a float\n")

    def test_zero_denominator_exit_three(self, tmp_path, capsys):
        assert main(["analyze", "hilbert-cartan",
                     "--box-scale", "1/0"]) == 3
        assert capsys.readouterr().err == (
            "error: --box-scale: 1/0 has a zero denominator\n")
        doc = json.loads(bundled_document("hilbert-cartan"))
        doc["base_point"] = {"y1": "3/0"}
        path = tmp_path / "pole.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 3
        assert capsys.readouterr().err.endswith(
            ": base_point.y1: 3/0 has a zero denominator\n")

    def test_analyze_text_format(self, capsys):
        assert main(["analyze", "flat-cone", "--suite", "verify",
                     "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("model: flat-cone")
        assert "summary:" in out

    def test_analyze_out_keeps_stdout_quiet(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        assert main(["analyze", "flat-cone", "--suite", "verify",
                     "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(path.read_text())["suite"] == "verify"

    def test_trace_json_lines(self, capsys):
        assert main(["trace", "hilbert-cartan", "--T", "1/16"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) >= 2
        for line in lines:
            node = json.loads(line)
            assert set(node) == {"p", "residual", "t", "u", "x"}

    # SHA-256 of the stdout of `dist235 trace <model> --T 1/8`; a change
    # to these bytes is a change to the trace output
    TRACE_SHA256 = {
        "hilbert-cartan":
            "fe656290200e4f0e27acca1a34d20a8e777dbb808c12c36fe63ae13e2150847a",
        "flat-cone":
            "8c9aefdeba206a47f170cf06b670a3ee8f6723afdeb84f9fd812314d2a644a88",
        "cubic-a":
            "b1c98b21567fc1a7bac5606081fe671ec80c5c22f5e2c251871827f43946af67",
        "noncubic-bc":
            "8c9aefdeba206a47f170cf06b670a3ee8f6723afdeb84f9fd812314d2a644a88",
        "noncubic-bc-violating":
            "8c9aefdeba206a47f170cf06b670a3ee8f6723afdeb84f9fd812314d2a644a88",
    }

    @pytest.mark.parametrize("name", sorted(TRACE_SHA256))
    def test_trace_output_is_pinned(self, name, capsys):
        assert main(["trace", name, "--T", "1/8"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() \
            == self.TRACE_SHA256[name]

    def test_trace_pins_cover_every_bundled_model(self):
        assert sorted(self.TRACE_SHA256) == sorted(BUNDLED)

    def test_trace_model_that_does_not_build_exit_two(self, tmp_path,
                                                      capsys):
        # d/dx and d/dy commute: growth (2,), so no distribution to trace
        doc = json.loads(bundled_document("hilbert-cartan"))
        doc["expressions"] = {"eta1": ["1", "0", "0", "0", "0"],
                              "eta2": ["0", "1", "0", "0", "0"]}
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc))
        assert main(["trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: GrowthError: ")

    def test_trace_integration_failure_exit_two(self, capsys):
        assert main(["trace", "hilbert-cartan", "--theta0", "1/4",
                     "--tol", "1e-30"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: IntegrationError: constraint residual ")

    def test_trace_zero_time_exit_three(self, capsys):
        # 1e-400 is a nonzero rational whose float is 0.0
        for t_end in ("0", "1e-400"):
            assert main(["trace", "flat-cone", "--T", t_end]) == 3
            assert capsys.readouterr().err == "error: --T must be nonzero\n"

    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "0", "-1e-9"])
    def test_trace_tolerance_not_positive_finite_exit_three(self, tol,
                                                            capsys):
        # an infinite tolerance would switch the per-step check off
        assert main(["trace", "hilbert-cartan", f"--tol={tol}"]) == 3
        assert capsys.readouterr().err == (
            "error: --tol must be positive and finite\n")

    @pytest.mark.parametrize("option, where", [
        (["--T", "1e400"], "--T"), (["--theta0", "1e400"], "--theta0"),
        (["--x0", "1e400,0,0,0,0"], "--x0 x")])
    def test_trace_value_too_large_for_a_float_exit_three(
            self, option, where, capsys):
        assert main(["trace", "hilbert-cartan"] + option) == 3
        assert capsys.readouterr().err == (
            f"error: {where}: 1e400 is too large for a float\n")

    @pytest.mark.parametrize("option, value", [
        ("--T", "-1/8"), ("--T", "-1e-3"), ("--theta0", "-1/8"),
        ("--x0", "-1/8,0,0,0,0")])
    def test_trace_negative_value_after_its_option(self, option, value,
                                                   capsys):
        # a negative rational is a value, not an unknown option
        assert main(["trace", "flat-cone", f"{option}={value}"]) == 0
        joined = capsys.readouterr().out
        assert main(["trace", "flat-cone", option, value]) == 0
        assert capsys.readouterr().out == joined
        assert len(joined.splitlines()) >= 2

    def test_analyze_negative_box_scale_exit_three(self, capsys):
        assert main(["analyze", "hilbert-cartan", "--box-scale",
                     "-1/2"]) == 3
        assert capsys.readouterr().err == (
            "error: --box-scale must be positive\n")

    def test_trace_bad_x0_exit_three(self, capsys):
        assert main(["trace", "flat-cone", "--x0", "1,2"]) == 3
        assert "--x0 needs 5" in capsys.readouterr().err

    def test_missing_command_exit_three(self, capsys):
        assert main([]) == 3
        capsys.readouterr()

    def test_schema_error_exit_three(self, tmp_path, capsys):
        doc = json.loads(bundled_document("flat-cone"))
        del doc["alpha"]
        path = tmp_path / "noalpha.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 3
        assert "contact form" in capsys.readouterr().err


def child_env():
    """The environment of a fresh interpreter that imports this dist235."""
    import dist235

    src = str(Path(dist235.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestRuntimeImports:
    def test_conedual_loads_neither_cli_nor_paths(self):
        # the family sweep imports only conedual, which builds models
        # through the parser in `models`; that must not pull in the
        # command line or the path integrator
        script = ("import sys, dist235.conedual\n"
                  "print(sorted(m for m in sys.modules"
                  " if m.startswith('dist235')))\n")
        done = subprocess.run([sys.executable, "-c", script],
                              env=child_env(), capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        loaded = done.stdout
        assert "'dist235.models'" in loaded
        assert "'dist235.cli'" not in loaded
        assert "'dist235.paths'" not in loaded

    def test_analyze_does_not_import_numpy(self):
        # numpy is a test-time oracle only; a fresh process that runs a
        # full analysis of a bundled model must never load it
        env = child_env()
        script = (
            "import sys\n"
            "from dist235.cli import main\n"
            "code = main(['analyze', 'hilbert-cartan', '--suite', 'all',"
            " '--seed', '7'])\n"
            "print(code, 'numpy' in sys.modules, file=sys.stderr)\n")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stderr.split()[-2:] == ["0", "False"]
        assert json.loads(done.stdout)["model"]["name"] == "hilbert-cartan"
