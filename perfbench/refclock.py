"""Host-speed references: fixed work timed next to every measured op.

The benchmark runs on a few CPUs of a shared host. Their speed drifts by
up to 1.5x over minutes as other tenants come and go, and CPU time drifts
with wall time, so longer runs do not average it out: over ten seeds the
wall-clock op latency and throughput of one workload spread up to 18 %
(quartile distance over median), and in another ten-seed set up to 26 %.
Every op slows with the host, and so does fixed work that does not use
gfmarkov at all. The end-to-end timings are therefore reported in
reference seconds: a wall time t, measured while the reference took r
seconds, is reported as t * nominal / r, the time the same work takes on
a host where the reference takes its nominal time. Over ten seeds per
workload, the op timings then spread 0.6-3.8 % and set-up 5.5-11 %.

Different kinds of work slow by different amounts, so each workload is
scaled by the reference that does the kind of work its op spends most
time in. On a 2-vCPU VM, op latency over 20-second windows spread 6-15 %
unscaled, and these references cut it to:

- "numpy", LU solves of a fixed dense 400 x 400 matrix: 1.5 % on
  solve-sparse (half LU) and 0.9 % on estimate (many small numpy calls).
  The Python loop below left 7.5 % and 3.1 % there.
- "python+numpy", a breadth-first search and a gcd pass written as a
  Python loop over numpy index arrays, with sets and dicts, then the
  "numpy" work: 1.6 % on solve-dense, whose op is mostly such a loop (the
  structural gate) and otherwise LU and numpy calls. The LU part alone
  left 2.9 %. With the loop alone, over ten seeds, the slowest ops read
  5-13 % higher in the runs where the host ran 1.3-1.7x faster than
  usual than in the others, because the loop sped up more than the op.
- "process", starting an interpreter that imports numpy and scipy.linalg
  and exits: 1.5 % on cli-check, down from 5.2 %, which starts such an
  interpreter per op. It also scales the set-up cold starts. Process
  start-up did not follow the in-process references, and starting bare
  interpreters or importing numpy alone left 4.1-4.6 %.

A change to gfmarkov cannot change the time of any reference, so any
speed-up or slow-down of the program shows in full. The nominal times fix
only the scale of the reported values; they must stay as they are, or the
numbers of later runs are not comparable with earlier ones.
"""

from __future__ import annotations

import subprocess
import sys
from math import gcd
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(0)
_N = 200
_SUPPORT = _rng.random((_N, _N)) < 0.5
_A = _rng.random((400, 400)) + 400.0 * np.eye(400)


def _loop() -> None:
    level = {0: 0}
    frontier = [0]
    members = set(range(_N))
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(_SUPPORT[u])[0]:
                v = int(v)
                if v in members and v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in range(_N):
        for v in np.nonzero(_SUPPORT[u])[0]:
            g = gcd(g, level[u] + 1 - level[int(v)])


def _numpy() -> None:
    for _ in range(3):
        np.linalg.solve(_A, _A[0])


def _loop_numpy() -> None:
    _loop()
    _numpy()


def _process() -> None:
    # -I keeps the environment the benchmark sets (PYTHONPATH) out of it
    subprocess.run([sys.executable, "-I", "-c", "import numpy, scipy.linalg"],
                   check=True, timeout=60, stdout=subprocess.DEVNULL)


# name -> (work, its time on the host the benchmark was written on:
# 2 vCPUs, OpenBLAS with one thread; rounded)
REFERENCES = {
    "numpy": (_numpy, 0.010),
    "python+numpy": (_loop_numpy, 0.024),
    "process": (_process, 0.50),
}


def reference_s(name: str) -> float:
    """Wall time of one pass of the named reference."""
    work, _ = REFERENCES[name]
    t0 = perf_counter()
    work()
    return perf_counter() - t0


def scale(wall_s: float, ref_s: float, name: str) -> float:
    """wall_s in reference seconds, given the named reference's time then."""
    return wall_s * REFERENCES[name][1] / ref_s
