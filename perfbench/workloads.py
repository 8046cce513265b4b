"""The benchmark workloads: inputs, one item's work, and its check.

Every workload is a closed loop in one process with no threads: the
next item starts when the previous one has finished.  ``inputs(seed)``
is an endless, seeded stream of JSON-serializable items; the program
only ever sees what the stream generates.  ``run`` does one item's work
and ``check`` compares its outcome with a reference that does not come
from the code being timed (the Fraction oracle in ``oracle.py`` or the
reports recorded in ``reference.json``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

BUNDLED = ("hilbert-cartan", "flat-cone", "cubic-a", "noncubic-bc",
           "noncubic-bc-violating")
BUNDLED_SEED = 7


def _random_poly(rng: random.Random, low: int, high: int) -> dict:
    """Random direction polynomial with a term at every order from low
    to high: numerators +-1..3, denominators 1, 2 or 4, as in the
    acceptance tests but never 0, so that every family has the same
    terms and costs about the same whatever the seed."""
    return {k: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                        rng.choice((1, 2, 4)))
            for k in range(low, high + 1)}


def random_family(rng: random.Random, compliant: bool) -> dict:
    """One ``noncubic-bc`` family as model texts.  A compliant family
    takes c from ``oracle.compliant_c``, so its defect is zero by
    construction; the other draws b and c independently."""
    b = _random_poly(rng, 3, 6)
    c = oracle.compliant_c(b) if compliant else _random_poly(rng, 4, 7)
    return {"b": oracle.poly_text(b), "c": oracle.poly_text(c)}


def expected_osculating(family: dict) -> bool:
    return oracle.osculating_holds(oracle.parse_poly(family["b"]),
                                   oracle.parse_poly(family["c"]))


def child_env() -> dict:
    """Environment for child processes: the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# analyze-cold
# ---------------------------------------------------------------------------

class AnalyzeCold:
    """Fresh ``python -m dist235.cli analyze <model> --suite all``
    processes, one at a time: what a user runs, paying interpreter
    start, import and the cold normal-form cache every time.  The stream
    cycles through the five bundled models (at seed 7, so their
    canonical reports can be compared with the bytes recorded at the
    baseline commit) and two generated ``noncubic-bc`` documents, one
    compliant by construction and one random."""

    name = "analyze-cold"
    items_per_second = 0.3
    min_items = 7
    in_process = False

    def __init__(self, work_dir: Path, traced: bool = False):
        self.work_dir = work_dir
        self.traced = traced
        self.reference = json.loads(REFERENCE.read_text())
        self.profiles: list = []
        self.report_drift = 0

    def inputs(self, seed: int):
        rng = random.Random(seed)
        index = 0
        while True:
            for name in BUNDLED:
                yield {"model": name, "seed": BUNDLED_SEED}
            for compliant in (True, False):
                yield {"model": f"generated-{index}",
                       "family": random_family(rng, compliant),
                       "seed": rng.randrange(1 << 20)}
                index += 1

    def probe_argv(self) -> list:
        return [sys.executable, "-c", "import dist235.cli"]

    def setup(self):
        from dist235.cli import bundled_document
        self.template = json.loads(bundled_document("noncubic-bc"))

    def warm_up(self):
        """Each item is a fresh process, so nothing is warmed."""

    def _model_arg(self, item: dict) -> str:
        if "family" not in item:
            return item["model"]
        doc = dict(self.template, name=item["model"],
                   expressions=dict(item["family"]))
        path = self.work_dir / f"{item['model']}.json"
        path.write_text(json.dumps(doc, sort_keys=True) + "\n")
        return str(path)

    def run(self, item: dict):
        argv = ["analyze", self._model_arg(item), "--suite", "all",
                "--seed", str(item["seed"])]
        if self.traced:
            prefix = str(self.work_dir / f"profile-{len(self.profiles)}")
            self.profiles.append(prefix)
            cmd = [sys.executable, str(HERE / "launcher.py"), prefix] + argv
        else:
            cmd = [sys.executable, "-m", "dist235.cli"] + argv
        return subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, timeout=170)

    def check(self, item: dict, proc) -> bool:
        if proc.returncode not in (0, 1, 2):
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            return False
        statuses = [c["status"] for c in json.loads(proc.stdout)["checks"]]
        if "family" in item:
            shape = ("noncubic-bc" if expected_osculating(item["family"])
                     else "noncubic-bc-violating")
            want = self.reference[shape]
            return (proc.returncode == want["exit"]
                    and statuses == want["statuses"])
        want = self.reference[item["model"]]
        digest = hashlib.sha256(proc.stdout).hexdigest()
        self.report_drift += digest != want["sha256"]
        return (proc.returncode == want["exit"]
                and statuses == want["statuses"]
                and digest == want["sha256"])

    def peak_rss_mb(self) -> float:
        return resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# family-sweep
# ---------------------------------------------------------------------------

class FamilySweep:
    """In-process parameter sweep over seeded ``noncubic-bc`` families:
    almost all symbolic ``scalar`` work, no pointwise splitting
    certification and no integration.  An item is one compliant family
    and one random family back to back, because a compliant family also
    runs ``solve_U`` and ``prolong_cone`` and costs about twice as
    much: the median of single families would fall in the gap between
    the two modes."""

    name = "family-sweep"
    items_per_second = 0.8
    min_items = 4
    in_process = True

    def inputs(self, seed: int):
        rng = random.Random(seed)
        while True:
            yield {"families": [random_family(rng, True),
                                random_family(rng, False)]}

    def probe_argv(self) -> list:
        return [sys.executable, str(HERE / "setup_probe.py"), self.name]

    def setup(self):
        from dist235 import conedual
        self.conedual = conedual

    def warm_up(self):
        """One fixed pair, the bundled compliant and violating
        parameters, so set-up does not depend on the seed."""
        item = {"families": [{"b": "th^3", "c": "(3/2)*th^4"},
                             {"b": "th^3", "c": "th^4"}]}
        if not self.check(item, self.run(item)):
            raise RuntimeError("family-sweep warm-up item failed")

    def run(self, item: dict):
        cd = self.conedual
        outcomes = []
        for params in item["families"]:
            family = cd.builtin_model("noncubic-bc", dict(params))
            nondegenerate = cd.check_nondegenerate(family)
            lagrangian = cd.check_lagrangian(family).passed
            osculating = cd.check_osculating_condition(family).passed
            if osculating:
                cd.solve_U(family)
                cd.prolong_cone(family)
            outcomes.append((nondegenerate, lagrangian, osculating))
        return outcomes

    def check(self, item: dict, outcomes) -> bool:
        for params, got in zip(item["families"], outcomes):
            holds = expected_osculating(params)
            want = (True, holds, holds)
            if tuple(got) != want:
                sys.stderr.write(f"family {params}: got {got}, "
                                 f"want {want}\n")
                return False
        return True

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (AnalyzeCold, FamilySweep)}


def make(cls, work_dir: Path, traced: bool = False):
    return cls() if cls.in_process else cls(work_dir, traced)
