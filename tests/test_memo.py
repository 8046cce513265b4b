"""Tests for the memo tables' lifetime: a suite run, a trace and a cone
family each fill a memo of their own, the process default is left alone,
the process-wide counts the benchmark reads still add up, and the Halton
points each memo builds again are exact."""

import gc
import json
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from dist235 import boxes, memo, scalar, vecfield
from dist235.boxes import Box
from dist235.cli import canonical_json, exit_code, load_model, run_suite
from dist235.conedual import (
    build_model, builtin_model, check_lagrangian, check_nondegenerate,
    check_osculating_condition, prolong_cone, solve_U,
)
from dist235.distduality import (
    Distribution235, PseudoProductStructure, prolong_235, solve_e,
    symbol_algebra_at, verify_pseudo_product,
)
from dist235.models import BUNDLED
from dist235.paths import (
    cone_system, distribution_system, lift_fiber, verify_duality,
)
from dist235.vecfield import Chart, lie_bracket

from helpers import text_field
from test_cli import child_env

ROOT = Path(__file__).resolve().parents[1]
NONCUBIC = dict(BUNDLED["noncubic-bc"]["expressions"])


def swept_family(params=None):
    """A noncubic-bc family through the family sweep's calls."""
    family = builtin_model("noncubic-bc", params or NONCUBIC)
    assert check_nondegenerate(family)
    assert check_lagrangian(family).passed
    assert check_osculating_condition(family).passed
    solve_U(family)
    prolong_cone(family)
    return family


def test_a_family_leaves_the_default_memo_alone():
    before = memo.DEFAULT.cache_info()
    swept_family()
    assert memo.DEFAULT.cache_info() == before


def test_a_distribution_leaves_the_default_memo_alone():
    before = memo.DEFAULT.cache_info()
    dist = builtin_model("hilbert-cartan")
    prolonged = prolong_235(dist)
    solved = solve_e(prolonged)
    structure = solved.structure(prolonged)
    swapped = structure.swapped()
    report = verify_pseudo_product(structure)
    assert report.valid
    assert not verify_pseudo_product(swapped).valid
    symbol = symbol_algebra_at(structure)
    assert memo.DEFAULT.cache_info() == before
    # what each call returns keeps the memo the distribution was built in
    kept = memo.kept(dist)
    assert kept is not memo.DEFAULT
    for derived in (prolonged, solved, structure, swapped, report, symbol):
        assert memo.kept(derived) is kept
    # a splitting built directly keeps a memo of its own
    direct = PseudoProductStructure.build(
        prolonged.z_chart, (prolonged.zeta1, prolonged.zeta2),
        solved.k_field, solved.l_field, prolonged.base_point)
    assert verify_pseudo_product(direct).valid
    assert memo.kept(direct) not in (memo.DEFAULT, kept)
    assert memo.DEFAULT.cache_info() == before


def test_every_entry_point_on_a_model_leaves_the_default_memo_alone():
    # control systems and their compiled batches, launches, lifts,
    # duality checks and derived brackets run in the memo the model
    # keeps, and a distribution built directly keeps a memo of its own
    before = memo.DEFAULT.cache_info()
    family = builtin_model("noncubic-bc")
    cone_cs = cone_system(family)
    origin = {v: Fraction(0) for v in family.x_chart.variables}
    assert verify_duality(prolong_cone(family), cone_cs, origin, 0,
                          Fraction(1, 2)).passed
    dist = builtin_model("hilbert-cartan")
    assert dist.eta4.name == "eta4" and dist.eta5.name == "eta5"
    prolonged = prolong_235(dist)
    structure = solve_e(prolonged).structure(prolonged)
    assert len(structure.bracket_chain) == 4
    dist_cs = distribution_system(dist)
    assert dist_cs.prepared is dist_cs.prepared
    assert verify_duality(structure, dist_cs, dict(dist.base_point), 0,
                          Fraction(1, 2)).passed
    lift_fiber(structure, "L")
    direct = Distribution235(dist.chart, dist.eta1, dist.eta2,
                             dist.chart.origin())
    assert memo.kept(direct) not in (memo.DEFAULT, memo.kept(dist))
    direct_prolonged = prolong_235(direct)
    solve_e(direct_prolonged).structure(direct_prolonged)
    assert memo.DEFAULT.cache_info() == before


def test_a_family_memo_dies_with_the_family():
    family = swept_family()
    kept = memo.kept(family)
    assert kept is not memo.DEFAULT
    assert kept.cache_info()["scalar._normal_form"].currsize > 0
    alive = weakref.ref(kept)
    del family, kept
    gc.collect()
    assert alive() is None


def test_a_model_built_in_a_scope_keeps_the_scope_memo():
    outer = memo.Memo()
    with memo.scope(outer):
        family = build_model(load_model("flat-cone"))
        check_osculating_condition(family)
    assert memo.kept(family) is outer
    assert outer.cache_info()["vecfield._bracket"].misses > 0


@pytest.mark.parametrize("name,misses", [
    pytest.param(name, misses, id=name) for name, misses in (
        ("hilbert-cartan", 36), ("flat-cone", 40), ("cubic-a", 27),
        ("noncubic-bc", 42), ("noncubic-bc-violating", 30))])
def test_suite_counts_do_not_depend_on_history(name, misses):
    # each run does the work of a first run in a fresh process
    runs = []
    for _ in range(3):
        before = scalar._normal_form.cache_info().misses
        report = run_suite(load_model(name), "all", 7)
        runs.append((scalar._normal_form.cache_info().misses - before,
                     canonical_json(report)))
    assert runs[0][0] == misses
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_a_bracket_is_shared_within_a_memo_only():
    chart = Chart(("x", "y", "z"))
    v = text_field(chart, ("1", "0", "y"))
    w = text_field(chart, ("0", "1", "x"))
    with memo.scope(memo.Memo()):
        first = lie_bracket(v, w)
        assert lie_bracket(v, w) is first
    with memo.scope(memo.Memo()):
        again = lie_bracket(v, w)
    assert again is not first and again == first


def test_halton_points_are_kept_per_memo():
    box = Box.around({"x": 0, "y": 0}, "1/2")
    inner = memo.Memo()
    with memo.scope(inner):
        points = box.sample_points(5)
        assert box.sample_points(5) == points
    assert inner.cache_info()["boxes._halton"] == (1, 1, None, 1)
    assert boxes._halton.cache_info().hits >= 1


def test_halton_points_are_the_exact_radical_inverses():
    # each memo builds its points again, in integers: they must be
    # lo + (hi - lo) * sum(digit_k / base^k) exactly
    def radical_inverse(index, base):
        inv, denom = Fraction(0), base
        while index:
            index, digit = divmod(index, base)
            inv += Fraction(digit, denom)
            denom *= base
        return inv

    rng = random.Random(20261019)
    for _ in range(50):
        intervals = [("i", -1, 2)]
        for k in range(rng.randrange(1, 8)):
            lo = Fraction(rng.randrange(-50, 50), rng.randrange(1, 30))
            intervals.append((f"x{k}", lo, lo + Fraction(
                rng.randrange(0, 50), rng.randrange(1, 30))))
        count, skip = rng.randrange(1, 40), rng.randrange(0, 20)
        want = [{name: lo + (hi - lo) * radical_inverse(i, base)
                 for (name, lo, hi), base in zip(intervals, boxes._PRIMES)}
                for i in range(skip + 1, skip + count + 1)]
        got = Box(tuple(intervals)).sample_points(count, skip)
        assert got == want
        assert all(type(v) is Fraction for pt in got for v in pt.values())


class TestHarnessInterface:
    """`perfbench` reads `scalar._normal_form.cache_info()` in process
    and through `perfbench/launcher.py`: it must count every memo."""

    def test_totals_count_every_memo(self):
        start = scalar._normal_form.cache_info()
        swept_family({"b": "th^3", "c": "(3/2)*th^4"})
        middle = scalar._normal_form.cache_info()
        swept_family({"b": "th^3", "c": "(3/2)*th^4"})
        end = scalar._normal_form.cache_info()
        # the second family misses in its own memo what the first did
        assert start.misses < middle.misses < end.misses
        assert end.misses - middle.misses == middle.misses - start.misses
        for info in (start, middle, end):
            assert type(info.hits) is int and type(info.misses) is int
        assert vecfield._bracket.cache_info().misses > 0

    def test_launcher_writes_integer_counts(self, tmp_path):
        prefix = tmp_path / "p"
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "launcher.py"),
             str(prefix), "analyze", "cubic-a", "--suite", "all",
             "--seed", "7"],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=300)
        assert done.returncode == exit_code(
            run_suite(load_model("cubic-a"), "all", 7)), done.stderr
        counts = json.loads((tmp_path / "p.json").read_text())
        assert sorted(counts) == ["hits", "misses"]
        assert all(type(v) is int for v in counts.values())
        assert counts["misses"] == 27
