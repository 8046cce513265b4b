"""Profiled stand-in for ``python -m dist235.cli``.

    python3 perfbench/launcher.py <out-prefix> <dist235 cli argv...>

Runs ``dist235.cli.main`` with the given argv under ``cProfile``, import
included (its report goes to stdout as usual).  At exit it writes the
profile to <out-prefix>.prof and the normal-form cache statistics to
<out-prefix>.json.  The exit code is the CLI's.
"""

import cProfile
import json
import sys


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    profile = cProfile.Profile()
    profile.enable()
    try:
        from dist235 import cli
        return cli.main(argv)
    finally:
        profile.disable()
        profile.dump_stats(prefix + ".prof")
        from dist235 import scalar
        info = scalar._normal_form.cache_info()
        with open(prefix + ".json", "w") as out:
            json.dump({"hits": info.hits, "misses": info.misses}, out)


if __name__ == "__main__":
    raise SystemExit(main())
