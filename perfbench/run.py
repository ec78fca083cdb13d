"""gfmarkov benchmark: one workload per run, end-to-end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-dense --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

    solve-dense   every formula-table row on a dense random model, n = 400
    solve-sparse  the same op on a ring-banded model, n = 600
    cli-check     `python -m gfmarkov check` on a dense dtmc file, n = 200
    estimate      online_potentials, n = 100, 40 000 steps per op

Each run is a closed loop with one caller: one warm-up op, then ops back to
back for --seconds. Every output is checked by a numpy-only oracle after
the timed region. The last stdout line is the result object; the line
before it holds the environment and run details.

The end-to-end timings are in reference seconds (see refclock.py): fixed
reference work is timed between ops, and each wall time is scaled by how
fast the host ran that work around it. The wall-clock values and the host
speed are on the detail line.

--trace 0 reports the end-to-end metrics. --trace 1 spends half the time
untraced and half with the tracer installed, and reports the per-layer
metrics; the spans are written to .bench_work/ at the end.

The program is imported from src/ of the checkout the script sits in;
without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

# One BLAS thread, set before numpy is first imported (by refclock) and
# inherited by every child process. On a 2-CPU machine the second OpenBLAS
# thread busy-waits between calls; there it made the LU-bound solve-sparse
# op about 40 % slower and its latency range twice as wide.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from refclock import reference_s, scale  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# set-up samples per run, each a fresh interpreter; the main process has
# already imported everything once, so bytecode caches are warm
SETUP_STARTS = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _prepare_environment() -> None:
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out) if out.isdigit() else None


def _env(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "seed": seed,
    }


# Each wall time is scaled by the median of the reference times taken
# within this many samples of it on either side. One reference pass is
# short and noisy; the host's speed drifts over seconds to minutes.
REF_WINDOW = 3


@dataclass
class Timings:
    """Wall times, and times of the named reference taken between them:
    refs[k] just before walls[k], refs[k + 1] just after it."""

    reference: str
    walls: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)

    def scaled(self) -> list[float]:
        return [scale(t, median(self.refs[max(0, k + 1 - REF_WINDOW):
                                          k + 1 + REF_WINDOW]),
                      self.reference)
                for k, t in enumerate(self.walls)]


@dataclass
class Setup(Timings):
    """Cold starts, and what each printed."""

    infos: list[dict] = field(default_factory=list)


@dataclass
class Run(Timings):
    """Op latencies, outputs and (when traced) per-op spans of one loop."""

    outputs: list[tuple[int, object]] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)


def _setup_samples(workload: str, seed: int) -> Setup:
    """Wall time of fresh interpreter + import + input build, repeated."""
    from workloads import run_child
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
           str(WORK)]
    out = WORK / "setup.out"
    setup = Setup("process")
    setup.refs.append(reference_s(setup.reference))
    for _ in range(SETUP_STARTS):
        t0 = perf_counter()
        code, _ = run_child(cmd, out)
        wall = perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        setup.walls.append(wall)
        setup.refs.append(reference_s(setup.reference))
        setup.infos.append(json.loads(out.read_text(encoding="utf-8")))
    return setup


def _call(w, i: int, tracer=None):
    try:
        return w.op_traced(i, tracer) if tracer is not None else w.op(i)
    except Exception as e:  # a raising op is a failed op; keep measuring
        return e


def _measure(w, seconds: float, first: int, tracer=None) -> Run:
    run = Run(w.reference)
    i = first
    gc.collect()
    deadline = perf_counter() + seconds
    run.refs.append(reference_s(run.reference))
    while perf_counter() < deadline:
        if tracer is not None:
            tracer.spans = []
        t0 = perf_counter()
        out = _call(w, i, tracer)
        run.walls.append(perf_counter() - t0)
        run.refs.append(reference_s(run.reference))
        run.outputs.append((i, out))
        if tracer is not None:
            run.spans.append(tracer.spans)
        i += 1
    return run


def _failures(w, outputs) -> list[str]:
    """One line per failed op: it raised or its oracle found it wrong."""
    bad = []
    for i, out in outputs:
        if isinstance(out, Exception):
            bad.append(f"op {i}: raised "
                       + "".join(traceback.format_exception_only(out)).strip())
            continue
        reasons = w.check(i, out)
        if reasons:
            bad.append(f"op {i}: " + "; ".join(reasons))
    return bad


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples above it, and which one."""
    s = sorted(latencies)
    k = max(0, len(s) - 11)
    return s[k], 100.0 * (k + 1) / len(s)


def _end_to_end(run: Run, failed: int, attempted: int, rss_mb: float,
                setup: Setup) -> tuple[dict, dict]:
    ops = run.scaled()
    tail, pct = _tail(ops)
    completed = sum(not isinstance(out, Exception) for _, out in run.outputs)
    metrics = {
        "setup_s": (median(setup.scaled()), "s"),
        "op_p50_s": (median(ops), "s"),
        "op_tail_s": (tail, "s"),
        "ops_per_s": (completed / sum(ops), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    detail = {"samples": len(ops), "op_tail_percentile": pct,
              "setup_starts": len(setup.walls),
              "reference": run.reference,
              "host_speed": scale(1.0, median(run.refs), run.reference),
              "wall_clock": {"setup_s": median(setup.walls),
                             "op_p50_s": median(run.walls),
                             "op_tail_s": _tail(run.walls)[0],
                             "ops_per_s": completed / sum(run.walls)}}
    return metrics, detail


def _per_layer(per_op: list[dict], steps: list[int], import_s: float,
               overhead: float) -> tuple[dict, dict]:
    def med(name, key):
        return median(s.get(name, {}).get(key, 0) for s in per_op)

    def gflops(s):
        lu = s.get("_linalg.lu_factor")
        return lu["flops"] / lu["s"] / 1e9 if lu and lu["s"] > 0 else 0.0

    def steps_per_s(s, n):
        upd = s.get("estimator.online_potentials")
        return n / upd["self_s"] if upd and upd["self_s"] > 0 else 0.0

    metrics = {
        "model.diagnose_chain.calls": (med("model.diagnose_chain", "calls"), "count"),
        "model.diagnose_chain.s": (med("model.diagnose_chain", "s"), "s"),
        "model.validate.s": (med("model.validate", "s"), "s"),
        "_linalg.lu_factor.calls": (med("_linalg.lu_factor", "calls"), "count"),
        "_linalg.lu_factor.s": (med("_linalg.lu_factor", "s"), "s"),
        "_linalg.lu_gflops": (median(map(gflops, per_op)), "GFLOP/s"),
        "_linalg.lu_solve.calls": (med("_linalg.lu_solve", "calls"), "count"),
        "_linalg.lu_solve.s": (med("_linalg.lu_solve", "s"), "s"),
        "gfm.fundamental_matrix.self_s": (med("gfm.fundamental_matrix", "self_s"), "s"),
        "gfm.series_fundamental.self_s": (med("gfm.series_fundamental", "self_s"), "s"),
        "gfm.series_fundamental.matmuls": (med("gfm.series_fundamental", "matmuls"), "count"),
        "gfm.potentials.self_s": (med("gfm.potentials", "self_s"), "s"),
        "gfm.stationary.self_s": (med("gfm.stationary", "self_s"), "s"),
        "ctmc.ctmc_potentials.self_s": (med("ctmc.ctmc_potentials", "self_s"), "s"),
        "qfactors.qfactors_solve.self_s": (med("qfactors.qfactors_solve", "self_s"), "s"),
        "import.gfmarkov_s": (import_s, "s"),
        "modelio.load_model.s": (med("modelio.load_model", "s"), "s"),
        "modelio.dumps_document.s": (med("modelio.dumps_document", "s"), "s"),
        "cli.main.self_s": (med("cli.main", "self_s"), "s"),
        "estimator.sample_s": (med("estimator.sample", "s"), "s"),
        "estimator.update_s": (med("estimator.online_potentials", "self_s"), "s"),
        "estimator.steps_per_s": (median(map(steps_per_s, per_op, steps)), "1/s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    counts = {name: sorted({s.get(name, {}).get(key, 0) for s in per_op})
              for name, key in (("model.diagnose_chain", "calls"),
                                  ("_linalg.lu_factor", "calls"),
                                  ("_linalg.lu_solve", "calls"),
                                  ("gfm.series_fundamental", "matmuls"))}
    detail = {"traced_ops": len(per_op),
              "counts_repeat": all(len(v) == 1 for v in counts.values()),
              "count_values": counts}
    return metrics, detail


def _write_spans(path: Path, runs_spans: list[list]) -> None:
    rows = [{"op": k, "name": sp[0], "start": sp[1], "end": sp[2],
             "parent": sp[3], "flops": sp[4], "matmuls": sp[5]}
            for k, spans in enumerate(runs_spans) for sp in spans]
    path.write_text(json.dumps(rows), encoding="utf-8")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "gfmarkov" / "__init__.py").is_file():
        print(f"error: no gfmarkov sources under {SRC}", file=sys.stderr)
        return 2
    _prepare_environment()

    import gfmarkov
    if Path(gfmarkov.__file__).resolve().parent != SRC / "gfmarkov":
        print(f"error: imported gfmarkov from {gfmarkov.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracer import Tracer, summarize
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    setup = _setup_samples(args.workload, args.seed)
    w = WORKLOADS[args.workload]()
    w.build(args.seed, WORK)
    warm = [(0, _call(w, 0))]  # untimed; checked and counted like the rest

    if args.trace == 0:
        run = _measure(w, args.seconds, 1)
        rss_mb = w.peak_rss_mb()
        outputs = warm + run.outputs
        bad = _failures(w, outputs)
        metrics, detail = _end_to_end(run, len(bad), len(outputs), rss_mb, setup)
    else:
        plain = _measure(w, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _measure(w, args.seconds / 2, 1 + len(plain.outputs), tracer)
        finally:
            tracer.uninstall()
        outputs = warm + plain.outputs + traced.outputs
        bad = _failures(w, outputs)
        per_op = [summarize(spans) for spans in traced.spans]
        steps = [out.get("steps_run", 0) if isinstance(out, dict) else 0
                 for _, out in traced.outputs]
        metrics, detail = _per_layer(
            per_op, steps, median(info["import_s"] for info in setup.infos),
            median(traced.scaled()) / median(plain.scaled()))
        _write_spans(WORK / f"spans-{args.workload}-{args.seed}.json",
                     traced.spans)

    for line in bad[:5]:
        print(f"failed {line}", file=sys.stderr)
    detail["failures"] = bad[:5]
    print(json.dumps({"env": _env(args.seed), "workload": args.workload,
                      "trace": args.trace, "detail": detail}))
    print(json.dumps({
        "correct": not bad,
        "attempted": len(outputs),
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
