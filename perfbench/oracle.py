"""Correctness oracles for the benchmark ops, written with numpy only.

Nothing here imports gfmarkov: every check recomputes the defining
identity of a returned quantity from the raw input arrays, so a wrong
answer from the library cannot also corrupt its own check. Each function
returns a list of failure descriptions; an empty list means the output
is correct.
"""

from __future__ import annotations

import json

import numpy as np

# Poisson-equation residual bound; equals the library's default poisson_tol.
POISSON_TOL = 1e-8

# Largest |g_hat - g_direct| accepted from one estimate op, fixed before any
# estimator change. Measured on the estimate workload (n = 100, 40 000
# steps, a/(b+t) with a = 100, b = 1000): workload seeds 0..9, 12 ops each,
# gave errors from 0.039 to 0.104. The bound is about three times the worst.
ESTIMATE_BOUND = 0.3

# Checks `gfmarkov check` runs on an aperiodic dtmc with more than 3 states.
CLI_CHECKS = (
    "poisson_residual",
    "eta_vs_stationary_reward",
    "stationary_row_identity",
    "stationary_sums_to_one",
    "ones_column_eigenvector",
    "series_vs_solve",
)


class _Failures(list):
    def need(self, name: str, resid, limit: float = POISSON_TOL) -> None:
        resid = float(resid)
        if not resid <= limit:  # also catches NaN
            self.append(f"{name}: {resid:.3e} > {limit:.0e}")


def _vec(out: dict, key: str, n: int) -> np.ndarray:
    v = np.asarray(out[key], dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{key} has shape {v.shape}, expected ({n},)")
    return v


def check_solve(raw: dict, out: dict) -> list[str]:
    """Every row of the formula table, against the raw model arrays.

    With the uniform reference r = e/n: g solves the Poisson equation with
    r.g = eta; pi P = pi, pi sums to 1 and eta = pi.f; the continuous-time
    g on B solves -B g = f - eta e with r.g = -eta; the Q-factors satisfy
    their pointwise definition with r.Q = eta.
    """
    P, f, B = raw["P"], raw["f"], raw["B"]
    n = f.shape[0]
    bad = _Failures()
    try:
        g, eta = _vec(out, "g", n), float(out["eta"])
        bad.need("poisson_residual", np.abs(g - f + eta - P @ g).max())
        bad.need("r.g=eta", abs(g.mean() - eta))

        pi = _vec(out, "pi", n)
        bad.need("pi.P=pi", np.abs(pi @ P - pi).max())
        bad.need("sum(pi)=1", abs(pi.sum() - 1.0))
        bad.need("pi>=0", max(0.0, -pi.min()), 0.0)
        bad.need("eta=pi.f", abs(eta - pi @ f))

        gc, etac = _vec(out, "g_ctmc", n), float(out["eta_ctmc"])
        bad.need("ctmc_poisson_residual", np.abs(-B @ gc - (f - etac)).max())
        bad.need("ctmc_r.g=-eta", abs(gc.mean() + etac))
        bad.need("ctmc_eta=pi.f", abs(etac - pi @ f))

        p, rew, pol = raw["p"], raw["rew"], raw["pol"]
        S, A = pol.shape
        q, etaq = _vec(out, "q", S * A), float(out["eta_q"])
        induced = (pol * q.reshape(S, A)).sum(axis=1)
        point = q - (rew.reshape(-1) - etaq + p.reshape(S * A, S) @ induced)
        bad.need("q_definition", np.abs(point).max())
        bad.need("r.Q=eta", abs(q.mean() - etaq))
    except (KeyError, ValueError, TypeError) as e:
        bad.append(f"malformed output: {e}")
    return bad


def direct_potentials(P: np.ndarray, f: np.ndarray) -> np.ndarray:
    """g from (I - P + e r) g = f with r = e/n, by numpy's dense solver."""
    n = P.shape[0]
    return np.linalg.solve(np.eye(n) - P + 1.0 / n, f)


def check_estimate(g_direct: np.ndarray, steps: int, out: dict) -> list[str]:
    """The estimate ran every step and landed near the direct solution."""
    bad = _Failures()
    try:
        g_hat = _vec(out, "g_hat", g_direct.shape[0])
        bad.need("max|g_hat-g|", np.abs(g_hat - g_direct).max(), ESTIMATE_BOUND)
        if out["steps_run"] != steps:
            bad.append(f"ran {out['steps_run']} steps, expected {steps}")
        if out["converged"]:
            bad.append("stopping rule fired")
    except (KeyError, ValueError, TypeError) as e:
        bad.append(f"malformed output: {e}")
    return bad


def check_cli_model(P: np.ndarray, f: np.ndarray) -> list[str]:
    """Solve the model in process and confirm every `check` would pass.

    This is the reference the CLI's verdict has to agree with: the same
    residuals from numpy's own solves, and the support facts that decide
    which checks run (positive diagonal, hence aperiodic).
    """
    n = P.shape[0]
    bad = _Failures()
    g = direct_potentials(P, f)
    eta = g.mean()
    A = np.vstack([(np.eye(n) - P).T, np.ones(n)])
    pi = np.linalg.lstsq(A, np.r_[np.zeros(n), 1.0], rcond=None)[0]
    bad.need("poisson_residual", np.abs(g - f + eta - P @ g).max())
    bad.need("eta_vs_stationary_reward", abs(eta - pi @ f))
    bad.need("stationary_row_identity", np.abs(pi @ P - pi).max())
    bad.need("stationary_sums_to_one", abs(pi.sum() - 1.0))
    if n <= 3 or not np.all(np.diag(P) > 0):
        bad.append("model must be aperiodic with more than 3 states")
    return bad


def check_cli(returncode: int, stdout: str) -> list[str]:
    """`gfmarkov check` exited 0 and reported every expected check passed."""
    bad = _Failures()
    if returncode != 0:
        bad.append(f"exit code {returncode}")
    try:
        doc = json.loads(stdout)
        if doc["passed"] is not True:
            bad.append("report not passed")
        names = tuple(c["name"] for c in doc["checks"])
        if names != CLI_CHECKS:
            bad.append(f"checks {names}, expected {CLI_CHECKS}")
        for c in doc["checks"]:
            if c["passed"] is not True or "residual" not in c:
                bad.append(f"check {c['name']} failed or skipped")
            else:
                bad.need(c["name"], c["residual"])
    except (KeyError, ValueError, TypeError) as e:
        bad.append(f"malformed output: {e}")
    return bad
