"""One fresh set-up of an in-process workload: import, fixtures and one
warm-up item, then exit.  ``run.py`` times whole probe processes.

    python3 perfbench/setup_probe.py <workload>
"""

import sys

from workloads import WORKLOADS


def main() -> int:
    workload = WORKLOADS[sys.argv[1]]()
    workload.setup()
    workload.warm_up()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
