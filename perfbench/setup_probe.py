"""One cold start of a workload: import gfmarkov, then build its inputs.

Usage: python perfbench/setup_probe.py WORKLOAD SEED WORK_DIR

Prints {"import_s": ...} as one JSON line. The caller times the whole
process, interpreter start included.
"""

from time import perf_counter

t0 = perf_counter()
import gfmarkov  # noqa: E402,F401  (the import is what is timed)

t1 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    name, seed, work_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[name]().build(seed, work_dir)
    print(json.dumps({"import_s": t1 - t0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
