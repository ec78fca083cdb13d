"""Self-test of the benchmark's failure accounting.

Usage (from the repository root): python3 perfbench/selftest.py

For every workload it runs one real op, then hands the same oracle a
deliberately wrong copy of the output and an op that raised. The real
output must pass; the other two must each count as one failed op, which
is what lowers success_rate and sets "correct" to false in a run.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import sys

import run


def _wrong(name: str, out: dict) -> dict:
    out = dict(out)
    if name.startswith("solve-"):
        out["g"] = out["g"].copy()
        out["g"][0] += 1e-6  # breaks the Poisson equation
    elif name == "estimate":
        out["g_hat"] = out["g_hat"] + 1.0
    else:
        out["stdout"] = out["stdout"].replace('"passed":true', '"passed":false', 1)
    return out


def main() -> int:
    if not (run.SRC / "gfmarkov" / "__init__.py").is_file():
        print(f"error: no gfmarkov sources under {run.SRC}", file=sys.stderr)
        return 2
    run._prepare_environment()
    from workloads import WORKLOADS

    ok = True
    for name, make in WORKLOADS.items():
        w = make()
        w.build(0, run.WORK)
        good = run._call(w, 1)
        if isinstance(good, Exception):
            print(f"{name}: FAILED (the real op raised {good!r})")
            ok = False
            continue
        # indices 1, 1 + k and 1 + 2k run on the same input of a pool of k
        k = getattr(w, "POOL", 1)
        ops = [(1, good), (1 + k, _wrong(name, good)),
               (1 + 2 * k, RuntimeError("raised"))]
        failed = run._failures(w, ops)
        counted = [line.split(":", 1)[0] for line in failed]
        passed = counted == [f"op {1 + k}", f"op {1 + 2 * k}"]
        ok &= passed
        print(f"{name}: {'ok' if passed else 'FAILED'} (failed ops: {counted})")
        for line in failed:
            print(f"    {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
