"""Record the bundled models' reports as the benchmark's reference.

Runs ``python -m dist235.cli analyze <model> --suite all --seed 7`` for
each bundled model and writes its exit code, check statuses and the
SHA-256 of the canonical JSON report to ``reference.json``.  Run it only
when a change alters the reports on purpose:

    python3 perfbench/record_reference.py
"""

import hashlib
import json
import subprocess
import sys

from workloads import BUNDLED, BUNDLED_SEED, REFERENCE, ROOT, child_env


def main() -> int:
    reference = {}
    for name in BUNDLED:
        proc = subprocess.run(
            [sys.executable, "-m", "dist235.cli", "analyze", name,
             "--suite", "all", "--seed", str(BUNDLED_SEED)],
            env=child_env(), cwd=ROOT, capture_output=True, check=False)
        if proc.returncode not in (0, 1, 2):
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            return 1
        reference[name] = {
            "exit": proc.returncode,
            "statuses": [c["status"]
                         for c in json.loads(proc.stdout)["checks"]],
            "sha256": hashlib.sha256(proc.stdout).hexdigest(),
        }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
