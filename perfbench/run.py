"""dist235 benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Workloads (see README.md): ``analyze-cold`` and ``family-sweep``.  Run
from the root of a source checkout; the program is imported from
``src``.

Each run times a fixed item set: the first K items of the seeded input
stream, K set from ``--seconds`` so the set fills most of the run.
Items after the K-th keep the loop going until ``--seconds`` have
passed; they are checked but not timed into the metrics.  Set-up probes
run between the timed items.  Every timed item and probe is bracketed
by a fixed calibration loop that does not touch the program, and its
time is scaled by the machine's speed at that moment (see
``calibrate``), so the metrics read in reference seconds.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` the run makes an untraced run of the first third of the
item set in a child process, then repeats set-up and those items under
``cProfile`` (in this process, or in every analyze process via
``launcher.py``), and the last line holds the per-layer metrics.  The
lines before it are an environment block and a detail block with every
figure, including those not in the last line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from fractions import Fraction

from workloads import ROOT, SRC, WORKLOADS, child_env, make

SETUP_PROBES = 16
TAIL_BEYOND = 10
# Calibration time that marks a reference second: about what the loop
# takes on the machine the baseline was recorded on at its fast level.
CALIBRATION_REFERENCE_S = 0.05

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics in the last line of a traced run: every count, and
# every time that is nonzero on every workload.  The detail block
# also has the times of layers that some workload never calls.
PER_LAYER = {
    "scalar.self_s": "s", "scalar.calls": "count",
    "scalar.normalize.calls": "count", "scalar.normalize.total_s": "s",
    "scalar.differentiate.total_s": "s", "scalar.is_zero.total_s": "s",
    "scalar.evaluate.calls": "count", "scalar.evaluate.total_s": "s",
    "scalar.nf_cache.hits": "count", "scalar.nf_cache.misses": "count",
    "scalar.nf_cache.hit_ratio": "ratio",
    "vecfield.self_s": "s", "vecfield.calls": "count",
    "vecfield.lie_bracket.calls": "count",
    "vecfield.lie_bracket.total_s": "s",
    "vecfield.symbolic_decompose.total_s": "s",
    "vecfield.reduce_mod.calls": "count",
    "vecfield.reduce_mod.total_s": "s",
    "vecfield.rank_at.calls": "count",
    "linalg.self_s": "s", "linalg.calls": "count",
    "linalg.solve_membership.calls": "count",
    "linalg.solve_membership.total_s": "s",
    "linalg.exact_rank.total_s": "s",
    "boxes.self_s": "s", "boxes.calls": "count",
    "distduality.calls": "count",
    "distduality.verify_pseudo_product.calls": "count",
    "distduality.reduce_mod_per_verify": "ratio",
    "conedual.self_s": "s", "conedual.calls": "count",
    "conedual.check_osculating_condition.total_s": "s",
    "conedual.solve_U.total_s": "s", "conedual.prolong_cone.total_s": "s",
    "paths.calls": "count", "paths.compile_exprs.calls": "count",
    "paths.steps_accepted": "count", "paths.compiled_calls": "count",
    "paths.compiled_calls_per_step": "ratio",
    "cli.calls": "count", "cli.report_drift": "count",
    "trace.unattributed_s": "s", "trace.overhead_s": "s",
}


def environment(cls, seed: int, items: int) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model,
            "commit": git_commit(),
            "workload": cls.name, "seed": seed,
            "fixed_items": items}


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fixed_items(cls, seconds: int) -> int:
    return max(cls.min_items, round(cls.items_per_second * seconds))


def calibrate() -> float:
    """Wall time of a fixed loop of exact rational arithmetic and dict
    updates, the kind of work the program's hot paths do, but none of
    the program's code.  The machine is shared and its speed changes
    from minute to minute by up to 2x; a time divided by the mean of
    the calibrations just before and after it, and multiplied by
    CALIBRATION_REFERENCE_S, reads the same at any machine speed, while
    any change in the program still shows in full."""
    start = time.perf_counter()
    for _ in range(4):
        total, table = Fraction(0), {}
        for k in range(1, 2500):
            q = Fraction(k % 7 + 1, k % 11 + 2)
            total += q
            table[k % 13] = table.get(k % 13, 0) + q * q
    return time.perf_counter() - start


class Clock:
    """Times work bracketed by calibrations; ``scaled`` holds reference
    seconds, ``raw`` the wall seconds as measured."""

    def __init__(self):
        self.last = calibrate()

    def time(self, work):
        start = time.perf_counter()
        result = work()
        raw = time.perf_counter() - start
        before, self.last = self.last, calibrate()
        scale = 2 * CALIBRATION_REFERENCE_S / (before + self.last)
        return result, raw, raw * scale


def probe(workload) -> None:
    proc = subprocess.run(workload.probe_argv(), env=child_env(), cwd=ROOT,
                          capture_output=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise RuntimeError(f"{workload.name} set-up probe failed")


def run_item(workload, item) -> bool:
    try:
        return workload.check(item, workload.run(item))
    except Exception:
        sys.stderr.write(f"item failed: {item}\n")
        traceback.print_exc()
        return False


def measure(workload, seed: int, seconds: int, fixed: int) -> dict:
    """Run the fixed item set with SETUP_PROBES set-up probes spread
    through it, then untimed items until ``seconds`` have passed."""
    probes_before = [j * fixed // SETUP_PROBES for j in range(SETUP_PROBES)]
    clock = Clock()
    raw, scaled, setups = [], [], []
    attempted = failed = 0
    rss = None
    start = time.perf_counter()
    for index, item in enumerate(workload.inputs(seed)):
        if index < fixed:
            for _ in range(probes_before.count(index)):
                setups.append(clock.time(lambda: probe(workload))[2])
            ok, t_raw, t_scaled = clock.time(
                lambda: run_item(workload, item))
            raw.append(t_raw)
            scaled.append(t_scaled)
        else:
            ok = run_item(workload, item)
        attempted += 1
        failed += not ok
        if attempted == fixed:
            rss = workload.peak_rss_mb()
        if attempted >= fixed and time.perf_counter() - start >= seconds:
            break
    return {"raw": raw, "scaled": scaled, "setups": setups, "rss": rss,
            "attempted": attempted, "failed": failed}


def tail(times: list):
    """The highest percentile with at least TAIL_BEYOND samples above
    it, as (value, percentile, sample count); None below 2*TAIL_BEYOND
    samples."""
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(times)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def as_metrics(values: dict, names) -> dict:
    return {name: {"value": values[name][0], "unit": values[name][1]}
            for name in names}


def run_untraced(cls, args, fixed: int, work: Path) -> dict:
    workload = make(cls, work)
    workload.setup()
    workload.warm_up()
    run = measure(workload, args.seed, args.seconds, fixed)
    values = {"setup_s": (statistics.median(run["setups"]), "s"),
              "wall_s": (sum(run["scaled"]), "s"),
              "peak_rss_mb": (run["rss"], "MB")}
    detail = {"item_p50_s": statistics.median(run["scaled"]),
              "raw_wall_s": sum(run["raw"]),
              "machine_speed": sum(run["scaled"]) / sum(run["raw"]),
              "item_times_s": run["scaled"],
              "setup_runs_s": run["setups"],
              "padding_items": run["attempted"] - fixed,
              "op_error_ratio": run["failed"] / run["attempted"]}
    tail_figure = tail(run["scaled"])
    if tail_figure is not None:
        value, percentile, count = tail_figure
        detail["item_tail_s"] = {"value": value, "percentile": percentile,
                                 "samples": count}
    print(json.dumps({"detail": detail}))
    return {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": as_metrics(values, END_TO_END)}


def layer_metrics(s: dict, cache: dict, unattributed: float,
                  overhead: float, report_drift: int) -> dict:
    """Every per-layer figure, as {name: (value, unit)}."""
    from tracer import LAYERS, TOTAL_NAMES

    def fn(name):
        return s["functions"].get(name, {"calls": 0, "self_s": 0.0,
                                         "total_s": 0.0})

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (s["layers"][layer]["self_s"], "s")
        m[f"{layer}.calls"] = (s["layers"][layer]["calls"], "count")
    for name in ("scalar.normalize", "scalar.evaluate",
                 "vecfield.lie_bracket", "vecfield.reduce_mod",
                 "linalg.solve_membership", "paths.compile_exprs"):
        m[f"{name}.calls"] = (fn(name)["calls"], "count")
    m["vecfield.rank_at.calls"] = (fn("vecfield.rank_at")["calls"], "count")
    verifies = fn("distduality.verify_pseudo_product")["calls"]
    m["distduality.verify_pseudo_product.calls"] = (verifies, "count")
    for name in TOTAL_NAMES:
        m[f"{name}.total_s"] = (fn(name)["total_s"], "s")
    m["distduality.reduce_mod_per_verify"] = (ratio(s["edges"][
        "vecfield.reduce_mod<distduality.verify_pseudo_product"],
        verifies), "ratio")
    hits, misses = cache["hits"], cache["misses"]
    m["scalar.nf_cache.hits"] = (hits, "count")
    m["scalar.nf_cache.misses"] = (misses, "count")
    m["scalar.nf_cache.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    # _integrate's nested record() runs once per accepted step, and
    # compile_exprs returns its nested batch() as the compiled callable.
    steps = fn("paths.record")["calls"]
    compiled = fn("paths.batch")["calls"]
    m["paths.steps_accepted"] = (steps, "count")
    m["paths.compiled_calls"] = (compiled, "count")
    m["paths.compiled_calls_per_step"] = (ratio(compiled, steps), "ratio")
    m["cli.report_drift"] = (report_drift, "count")
    m["trace.unattributed_s"] = (unattributed, "s")
    m["trace.overhead_s"] = (overhead, "s")
    return m


def untraced_child(args, seconds: int) -> dict:
    """The detail and result lines of an untraced run in a child."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120 + seconds)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError("untraced run failed")
    lines = proc.stdout.strip().splitlines()
    return {**json.loads(lines[-2])["detail"], **json.loads(lines[-1])}


def run_traced(cls, args, fixed: int, work: Path) -> dict:
    """Profile the fixed item set of a run a third as long; its untraced
    wall time comes from a child making that shorter run."""
    import cProfile
    import pstats
    from tracer import summarize
    seconds = max(1, args.seconds // 3)
    fixed = fixed_items(cls, seconds)
    baseline = untraced_child(args, seconds)
    workload = make(cls, work, traced=True)
    start = time.perf_counter()
    if cls.in_process:
        profile = cProfile.Profile()
        profile.enable()
    workload.setup()
    workload.warm_up()
    times, failed = [], 0
    for item in itertools.islice(workload.inputs(args.seed), fixed):
        t0 = time.perf_counter()
        failed += not run_item(workload, item)
        times.append(time.perf_counter() - t0)
    if cls.in_process:
        profile.disable()
        traced_total = time.perf_counter() - start
        stats = pstats.Stats(profile)
        from dist235 import scalar
        info = scalar._normal_form.cache_info()
        cache = {"hits": info.hits, "misses": info.misses}
        drift = 0
    else:
        traced_total = sum(times)
        stats = pstats.Stats(*(p + ".prof" for p in workload.profiles))
        cache = {"hits": 0, "misses": 0}
        for prefix in workload.profiles:
            counts = json.loads(Path(prefix + ".json").read_text())
            for key in cache:
                cache[key] += counts[key]
        drift = workload.report_drift
    summary = summarize(stats.stats)
    attributed = sum(e["self_s"] for e in summary["layers"].values())
    traced_wall = sum(times)
    values = layer_metrics(summary, cache, traced_total - attributed,
                           traced_wall - baseline["raw_wall_s"], drift)
    layers = {name[:-len(".self_s")]: values[name][0] for name in values
              if name.count(".") == 1 and name.endswith(".self_s")}
    print(json.dumps({"detail": {
        "traced_items": fixed,
        "untraced_wall_s": baseline["raw_wall_s"],
        "traced_wall_s": traced_wall,
        "top_layer": max(layers, key=layers.get),
        "all_per_layer": as_metrics(values, values)}}))
    failed += baseline["failed"]
    attempted = fixed + baseline["attempted"]
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": as_metrics(values, PER_LAYER)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "dist235" / "__init__.py").is_file():
        sys.stderr.write(f"error: no dist235 sources under {SRC}; run "
                         "from the root of a dist235 checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]
    items = fixed_items(cls, args.seconds)
    print(json.dumps({"environment": environment(cls, args.seed, items)}))
    # Calibrations must see the processor the timed work runs on, and
    # the CPUs of a shared machine can run at different speeds, so this
    # process and every process it starts keep to one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=ROOT) as work:
        run = run_traced if args.trace else run_untraced
        result = run(cls, args, items, Path(work))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
