"""Tests for the memo tables' lifetime: each `Chart(...)` starts a memo
that every chart it extends to shares, so a suite run, a trace and a cone
family each fill a memo of their own, which reference counting frees
with the model; all the work lands in the model's memo, the
process-wide counts the benchmark reads still add up, and a box keeps
its own exact Halton points."""

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
    builtin_model, check_lagrangian, check_nondegenerate,
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
from dist235.scalar import OpaqueRegistry, normalize, parse_expr
from dist235.vecfield import Chart, VectorField, lie_bracket

from helpers import text_field
from test_cli import child_env

ROOT = Path(__file__).resolve().parents[1]
NONCUBIC = dict(BUNDLED["noncubic-bc"]["expressions"])


def swept_family():
    """A noncubic-bc family through the family sweep's calls."""
    family = builtin_model("noncubic-bc", NONCUBIC)
    assert check_nondegenerate(family)
    assert check_lagrangian(family).passed
    assert check_osculating_condition(family).passed
    solve_U(family)
    prolong_cone(family)
    return family


def rational_family():
    """A noncubic-bc family with c = th^4/(1 + th) after its Lagrangian
    and osculating checks: the derivatives of its non-constant
    denominators still fold a tree through `scalar._normal_form`."""
    family = builtin_model("noncubic-bc", {"b": "th^3", "c": "th^4/(1+th)"})
    check_lagrangian(family)
    check_osculating_condition(family)
    return family


MEMOIZED = (scalar._normal_form, scalar._derivative, vecfield._bracket)


@pytest.fixture
def model_memos():
    """A list the test fills with the memos of the model charts it works
    on.  There is no process default memo: every miss of a memoized
    function during the test must be a miss in one of those memos."""
    memos = []
    before = [fn.cache_info().misses for fn in MEMOIZED]
    yield memos
    kept = set(memos)
    for fn, start in zip(MEMOIZED, before):
        assert fn.cache_info().misses - start == sum(
            m.tables[fn].misses for m in kept if fn in m.tables), fn.__name__


@pytest.fixture
def no_cyclic_collector():
    """Only reference counting frees what the test drops."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def test_a_chart_starts_a_memo_that_its_extensions_share():
    chart = Chart(("x", "y"))
    other = Chart(("x", "y"))
    assert isinstance(chart.memo, memo.Memo)
    assert other.memo is not chart.memo
    extended = chart.extend("z")
    assert extended.memo is chart.memo
    assert extended.extend("u", "v").memo is chart.memo
    assert Chart(extended.variables).memo is not chart.memo
    # what is computed on an extension fills the memo of the chart
    tree = normalize(parse_expr("(x + z)^2", extended.variables), extended)
    assert chart.memo.cache_info()["scalar._normal_form"].misses == 1
    assert normalize(tree, extended.extend("w")) == tree
    assert chart.memo.cache_info()["scalar._normal_form"].misses == 2
    assert len(chart.memo.tables[scalar._normal_form]) == 2
    assert other.memo.tables == {}


def test_equality_and_hash_ignore_the_memo():
    registry = OpaqueRegistry()
    chart = Chart(("x", "y"), registry)
    same = Chart(("x", "y"), registry)
    assert chart.memo is not same.memo
    assert chart == same and hash(chart) == hash(same)
    assert chart.extend("z") == Chart(("x", "y", "z"), registry)
    assert chart != Chart(("x", "y"))  # another registry
    assert "memo" not in repr(chart)
    assert len({chart, same, chart.extend()}) == 1


def test_a_family_leaves_the_default_memo_alone(model_memos):
    model_memos.append(swept_family().x_chart.memo)


def test_a_distribution_leaves_the_default_memo_alone(model_memos):
    dist = builtin_model("hilbert-cartan")
    prolonged = prolong_235(dist)
    solved = solve_e(prolonged)
    structure = solved.structure(prolonged)
    swapped = structure.swapped()
    report = verify_pseudo_product(structure)
    assert report.valid
    assert not verify_pseudo_product(swapped).valid
    symbol_algebra_at(structure)
    # every chart the work derives shares the memo of the model's chart
    kept = dist.chart.memo
    model_memos.append(kept)
    assert kept.cache_info()["vecfield._bracket"].misses > 0
    for chart in (prolonged.z_chart, structure.z_chart, swapped.z_chart,
                  solved.k_field.chart):
        assert chart.memo is kept
    # and so does a splitting built directly on the prolonged chart
    direct = PseudoProductStructure.build(
        prolonged.z_chart, (prolonged.zeta1, prolonged.zeta2),
        solved.k_field, solved.l_field, prolonged.base_point)
    assert verify_pseudo_product(direct).valid
    assert direct.z_chart.memo is kept


def test_every_entry_point_on_a_model_leaves_the_default_memo_alone(
        model_memos):
    # the family checks, control systems and their compiled batches,
    # launches, lifts, duality checks and derived brackets, and a
    # distribution built directly, all work on charts with a memo
    family = swept_family()
    cone_cs = cone_system(family)
    assert cone_cs.prepared is cone_cs.prepared
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
    chart = Chart(dist.chart.variables, dist.chart.registry)
    direct = Distribution235(
        chart, *(VectorField(chart, f.components, f.name)
                 for f in (dist.eta1, dist.eta2)), chart.origin())
    direct_prolonged = prolong_235(direct)
    solve_e(direct_prolonged).structure(direct_prolonged)
    assert chart.memo.cache_info()["vecfield._bracket"].misses > 0
    model_memos.extend((family.x_chart.memo, dist.chart.memo, chart.memo))


def test_a_family_memo_dies_with_the_family(no_cyclic_collector):
    # no memo entry refers to a chart, so no cycle keeps a memo alive
    family = rational_family()
    kept = family.x_chart.memo
    assert kept.cache_info()["scalar._normal_form"].misses > 0
    assert kept.cache_info()["vecfield._bracket"].misses > 0
    alive = weakref.ref(kept)
    del family, kept
    assert alive() is None


def started_memos(monkeypatch) -> list:
    """Weak references to every memo started from now on."""
    started = []
    start = memo.Memo.__init__

    def recording(self):
        start(self)
        started.append(weakref.ref(self))

    monkeypatch.setattr(memo.Memo, "__init__", recording)
    return started


def test_a_suite_runs_memo_dies_with_the_run(monkeypatch,
                                             no_cyclic_collector):
    started = started_memos(monkeypatch)
    report = run_suite(load_model("noncubic-bc"), "all", 7)
    assert report["summary"]["error"] == 0
    assert started and all(alive() is None for alive in started)


def test_every_chart_sharing_a_memo_has_its_registry(monkeypatch):
    # `extend` hands the registry on with the memo, so a memo's tables,
    # keyed by the charts' names, serve one registry
    from test_cli import TestReportPins as pins
    charts = []
    init = Chart.__post_init__

    def recording(self):
        init(self)
        charts.append(self)

    monkeypatch.setattr(Chart, "__post_init__", recording)
    for name in BUNDLED:
        run_suite(load_model(name), "all", 7)
    for name in pins.OPAQUE:
        pins.opaque_report(name)
    registries = {}
    for chart in charts:
        registries.setdefault(id(chart.memo), set()).add(id(chart.registry))
    assert len(registries) > 5
    assert all(len(kept) == 1 for kept in registries.values())
    assert len(set().union(*registries.values())) > 2


@pytest.mark.parametrize("name,misses", [
    pytest.param(name, misses, id=name) for name, misses in (
        ("hilbert-cartan", 0), ("flat-cone", 0), ("cubic-a", 0),
        ("noncubic-bc", 0), ("noncubic-bc-violating", 0))])
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
    first = lie_bracket(v, w)
    assert lie_bracket(v, w) == first
    # the same fields on a fresh chart miss in its fresh memo
    fresh = Chart(chart.variables)
    again = lie_bracket(*(VectorField(fresh, f.components) for f in (v, w)))
    assert again == first
    assert chart.memo.cache_info()["vecfield._bracket"] == (1, 1)
    assert fresh.memo.cache_info()["vecfield._bracket"] == (0, 1)


def test_a_box_keeps_its_own_halton_points():
    box = Box.around({"x": 0, "y": 0}, "1/2")
    points = box.sample_points(5)
    assert box.sample_points(5) == points
    assert box.sample_points(5) is not points  # fresh dicts each call
    kept = box.__dict__["_halton"]
    assert list(kept) == [(5, 0)]
    assert box.sample_points(5, skip=2)[:3] == points[2:]
    assert list(kept) == [(5, 0), (5, 2)]
    # an equal box keeps points of its own; equality and hashing
    # ignore them
    twin = Box(box.intervals)
    assert twin == box and hash(twin) == hash(box)
    assert "_halton" not in twin.__dict__
    assert twin.sample_points(5) == points
    assert twin.__dict__["_halton"] is not kept


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
        rational_family()
        middle = scalar._normal_form.cache_info()
        rational_family()
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
        assert counts["misses"] == 0
