"""Tests of the benchmark's own parts.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import cProfile
import itertools
import json
import pstats
import random
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import run
from tracer import summarize
from workloads import WORKLOADS, make, random_family

HERE = Path(__file__).resolve().parent


def test_oracle_on_the_bundled_pair():
    assert oracle.osculating_holds(oracle.parse_poly("th^3"),
                                   oracle.parse_poly("(3/2)*th^4"))
    residue = oracle.defect(oracle.parse_poly("th^3"),
                            oracle.parse_poly("th^4"))
    # c' - 3 th b' + 3 b = 4 th^3 - 9 th^3 + 3 th^3 = -2 th^3
    assert residue == {3: Fraction(-2)}


def test_poly_text_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        family = random_family(rng, compliant=False)
        for text in family.values():
            assert oracle.poly_text(oracle.parse_poly(text)) == text


def test_compliant_generator_has_zero_defect():
    rng = random.Random(11)
    for _ in range(500):
        family = random_family(rng, compliant=True)
        b = oracle.parse_poly(family["b"])
        c = oracle.parse_poly(family["c"])
        assert oracle.defect(b, c) == {}


def _first_items(name, seed, count, tmp_path):
    cls = WORKLOADS[name]
    workload = make(cls, tmp_path)
    items = itertools.islice(workload.inputs(seed), count)
    return json.dumps(list(items), sort_keys=True).encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = _first_items(name, 3, 40, tmp_path)
    assert first == _first_items(name, 3, 40, tmp_path)
    assert first != _first_items(name, 4, 40, tmp_path)


def _key(layer, name):
    return (f"/checkout/src/dist235/{layer}.py", 1, name)


HARNESS = ("/checkout/perfbench/workloads.py", 5, "run")
FRACTION_ADD = ("/usr/lib/python3/fractions.py", 10, "_add")
GCD = ("~", 0, "<built-in method math.gcd>")


def test_self_time_on_a_synthetic_profile():
    """pstats rows: key -> (primitive calls, calls, internal time,
    cumulative time, {caller: (same four figures for that edge)})."""
    solve_u, normalize = _key("conedual", "solve_U"), _key("scalar",
                                                          "normalize")
    table = {
        HARNESS: (1, 1, 0.5, 10.0, {}),
        # one outer call from the harness and one recursive call
        solve_u: (1, 2, 3.0, 9.0, {HARNESS: (1, 1, 2.0, 9.0),
                                   solve_u: (0, 1, 1.0, 4.0)}),
        normalize: (2, 2, 1.0, 4.0, {solve_u: (2, 2, 1.0, 4.0)}),
        FRACTION_ADD: (3, 3, 1.5, 2.5, {normalize: (2, 2, 1.0, 2.0),
                                        HARNESS: (1, 1, 0.5, 0.5)}),
        GCD: (3, 3, 1.0, 1.0, {FRACTION_ADD: (3, 3, 1.0, 1.0)}),
    }
    result = summarize(table)
    functions = result["functions"]
    assert functions["conedual.solve_U"] == {
        "calls": 2, "self_s": 3.0, "total_s": 9.0}
    # own 1.0, Fraction time under it 1.0, and the gcd time of the
    # Fraction calls in proportion to time under each caller: 2.0 of 2.5
    assert functions["scalar.normalize"]["self_s"] == pytest.approx(2.8)
    layers = result["layers"]
    assert layers["scalar"] == {"calls": 2, "self_s": pytest.approx(2.8)}
    assert layers["conedual"] == {"calls": 2, "self_s": 3.0}
    assert layers["paths"] == {"calls": 0, "self_s": 0.0}
    assert result["profiled_s"] == pytest.approx(7.0)
    # what the harness ran without dist235 stays unattributed
    attributed = sum(entry["self_s"] for entry in layers.values())
    assert result["profiled_s"] - attributed == pytest.approx(1.2)


def test_edges_count_direct_calls_from_the_caller():
    verify = _key("distduality", "verify_pseudo_product")
    rank_at = _key("vecfield", "rank_at")
    table = {
        verify: (1, 1, 1.0, 5.0, {}),
        rank_at: (1, 1, 0.5, 1.5, {verify: (1, 1, 0.5, 1.5)}),
        _key("vecfield", "reduce_mod"): (
            4, 4, 2.0, 2.0, {verify: (3, 3, 1.5, 1.5),
                             rank_at: (1, 1, 0.5, 0.5)}),
    }
    assert summarize(table)["edges"] == {
        "vecfield.reduce_mod<distduality.verify_pseudo_product": 3}


def test_a_real_profile_of_foreign_code_is_unattributed():
    profile = cProfile.Profile()
    profile.enable()
    sum(Fraction(1, k) for k in range(1, 50))
    profile.disable()
    result = summarize(pstats.Stats(profile).stats)
    assert result["functions"] == {}
    assert result["profiled_s"] > 0


def test_clock_scales_by_the_calibrations_around_the_work(monkeypatch):
    readings = iter([0.1, 0.3])
    monkeypatch.setattr(run, "calibrate", lambda: next(readings))
    ticks = iter([1.0, 3.0])
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(ticks))
    clock = run.Clock()
    result, raw, scaled = clock.time(lambda: "done")
    assert (result, raw) == ("done", 2.0)
    # the machine ran at 0.05 / mean(0.1, 0.3) of the reference speed
    assert scaled == pytest.approx(2.0 * 0.05 / 0.2)
    assert clock.last == 0.3


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 19) is None
    value, percentile, count = run.tail([float(i) for i in range(40)])
    assert (value, percentile, count) == (29.0, 75.0, 40)


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
