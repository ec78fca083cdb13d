"""The benchmark's workloads: seeded inputs, one op each, and its oracle.

Inputs are made with numpy alone from the workload seed; gfmarkov sees
only the generated arrays, or for the CLI the generated model file. Every
op of a workload does the same amount of work, so the latency tail comes
from the machine and not from a mix of op sizes.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median

import numpy as np

import oracle

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60


def run_child(cmd: list[str], stdout_path: Path) -> tuple[int, int]:
    """Run cmd to completion with stdout to a file; return (exit code, peak RSS KiB).

    os.wait4 reaps the child and returns its own resource usage, which
    Popen.wait would discard.
    """
    def on_alarm(signum, frame):
        raise TimeoutError(f"{cmd[:4]} ran longer than {CHILD_TIMEOUT_S} s")

    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(cmd, stdout=out)
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # timeout or interrupt: stop the child, then re-raise
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def dense_chain(rng: np.random.Generator, n: int) -> np.ndarray:
    """Row-stochastic matrix with every entry positive."""
    P = rng.random((n, n)) + 0.01
    return P / P.sum(axis=1, keepdims=True)


def ring_chain(rng: np.random.Generator, n: int, half_width: int = 5) -> np.ndarray:
    """Row-stochastic band: state i reaches i-5 .. i+5 around a ring."""
    offsets = np.arange(-half_width, half_width + 1)
    w = rng.random((n, offsets.size)) + 0.1
    P = np.zeros((n, n))
    cols = (np.arange(n)[:, None] + offsets) % n
    P[np.arange(n)[:, None], cols] = w / w.sum(axis=1, keepdims=True)
    return P


class Workload:
    """One op repeated in a closed loop by a single caller."""

    # the refclock reference that does the kind of work the op spends most
    # time in
    reference = "numpy"

    def build(self, seed: int, work_dir: Path) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def op_traced(self, i: int, tracer):
        # in-process ops are traced by the wrappers already installed
        return self.op(i)

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Solve(Workload):
    """Every row of the formula table on one model from a small pool.

    The pool holds raw arrays only, so each op validates from scratch and
    no library object carries over from one op to the next.
    """

    POOL = 4

    def __init__(self, n: int, chain, reference: str):
        self.n, self.chain, self.reference = n, chain, reference

    def _model(self, rng: np.random.Generator) -> dict:
        n, S, A = self.n, self.n // 2, 2
        P = self.chain(rng, n)
        pol = rng.random((S, A)) + 0.1
        return {
            "P": P, "f": rng.random(n), "B": P - np.eye(n),
            "p": np.stack([self.chain(rng, S) for _ in range(A)], axis=1),
            "rew": rng.random((S, A)),
            "pol": pol / pol.sum(axis=1, keepdims=True),
        }

    def build(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        self.pool = [self._model(rng) for _ in range(self.POOL)]

    def op(self, i):
        from gfmarkov import ctmc, gfm, model, qfactors
        raw = self.pool[i % self.POOL]
        P = model.validate_stochastic(raw["P"])
        sol = gfm.potentials(P, raw["f"])
        pi = gfm.stationary(P)
        csol = ctmc.ctmc_potentials(raw["B"], raw["f"])
        q = qfactors.qfactors_solve(
            model.validate_mdp(raw["p"], raw["rew"], raw["pol"]))
        return {"g": sol.g, "eta": sol.eta, "pi": pi.pi,
                "g_ctmc": csol.g, "eta_ctmc": csol.eta, "q": q.q, "eta_q": q.eta}

    def check(self, i, out):
        return oracle.check_solve(self.pool[i % self.POOL], out)


class Estimate(Workload):
    """online_potentials on one validated chain; op i simulates with seed i.

    epsilon is far below any reachable change of g_hat, so the stopping
    rule never fires and every op runs all STEPS steps.
    """

    N = 100
    STEPS = 40_000

    def build(self, seed, work_dir):
        from gfmarkov import estimator, model
        rng = np.random.default_rng(seed)
        self.P, self.f = dense_chain(rng, self.N), rng.random(self.N)
        self.seed = seed
        self.chain = model.validate_stochastic(self.P)
        self.schedule = estimator.StepSchedule.robbins_monro(100.0, 1000.0, 1.0)

    def op(self, i):
        from gfmarkov import estimator
        cfg = estimator.SimulationConfig(seed=self.seed * 1_000_000 + i,
                                         max_steps=self.STEPS, epsilon=1e-300)
        tr = estimator.online_potentials(self.chain, self.f, None,
                                         self.schedule, cfg)
        return {"g_hat": tr.g_hat, "steps_run": tr.steps_run,
                "converged": tr.converged}

    def check(self, i, out):
        if not hasattr(self, "g_direct"):
            self.g_direct = oracle.direct_potentials(self.P, self.f)
        return oracle.check_estimate(self.g_direct, self.STEPS, out)


class CliCheck(Workload):
    """`python -m gfmarkov check --model <file>` as a fresh process per op."""

    reference = "process"

    N = 200

    def build(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        self.P, self.f = dense_chain(rng, self.N), rng.random(self.N)
        self.model_path = work_dir / "cli-check.json"
        doc = {"kind": "dtmc", "states": self.N,
               "P": self.P.tolist(), "f": self.f.tolist()}
        self.model_path.write_text(json.dumps(doc), encoding="utf-8")
        self.stdout_path = work_dir / "cli-check.out"
        self.spans_path = work_dir / "cli-check.spans.json"
        self.child_rss_kb: list[int] = []

    def _run(self, cmd: list[str]) -> dict:
        code, rss_kb = run_child(cmd, self.stdout_path)
        self.child_rss_kb.append(rss_kb)
        return {"returncode": code,
                "stdout": self.stdout_path.read_text(encoding="utf-8")}

    def op(self, i):
        return self._run([sys.executable, "-m", "gfmarkov", "check",
                          "--model", str(self.model_path)])

    def op_traced(self, i, tracer):
        self.spans_path.unlink(missing_ok=True)
        out = self._run([sys.executable, str(HERE / "traced_cli.py"),
                         str(self.spans_path), "check",
                         "--model", str(self.model_path)])
        tracer.spans = json.loads(self.spans_path.read_text(encoding="utf-8"))
        return out

    def check(self, i, out):
        if not hasattr(self, "model_failures"):
            self.model_failures = oracle.check_cli_model(self.P, self.f)
        return self.model_failures + oracle.check_cli(out["returncode"],
                                                      out["stdout"])

    def peak_rss_mb(self):
        # each op is its own process; report that process's peak
        return median(self.child_rss_kb) / 1024.0


WORKLOADS = {
    # dense: mostly the structural gate's Python loop; sparse: LU is half
    "solve-dense": lambda: Solve(400, dense_chain, "python+numpy"),
    "solve-sparse": lambda: Solve(600, ring_chain, "numpy"),
    "cli-check": CliCheck,
    "estimate": Estimate,
}
