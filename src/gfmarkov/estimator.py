"""Sample-path simulation and online potential estimation.

The estimator follows the single-component stochastic-approximation
loop: observe (s, f_t, s'), form the residual

    z_t = f_t - sum_i r(i) ghat(i) + ghat(s') - ghat(s)

with the current estimate, and update only ghat(s) by alpha_t * z_t.
Its fixed point is the solution of (I - P + e r) g = f, the same vector
the direct solve returns, normalized by r.g = eta. Convergence is
statistical, never per-seed guaranteed.

Because one component moves per step, sum_i r(i) ghat(i) is carried as
a running sum (each step adds r(s) alpha_t z_t), so a step costs O(1),
not O(n). The sum is recomputed exactly at the first step of every
check interval, which bounds its rounding drift. The loop runs on plain
Python ints and floats: it reads the sampled path as the list the
sampler builds, and zips slices of the path and of the step sizes, since
list indexing per step costs more than iteration.

A run whose estimate ends non-finite (a step size too large for the
chain makes the update overflow) raises ``EstimateDivergentError``
rather than returning it.

Randomness comes from numpy's PCG64 bit generator, which has a
documented, platform-stable 64-bit stream: identical seeds reproduce
identical paths and traces bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import EstimateDivergentError, ScheduleInvalidError
from .gfm import _as_chain, _as_reference, _as_rewards, _require_irreducible
from .model import RewardVector, StochasticMatrix, _integer

__all__ = [
    "StepSchedule",
    "SimulationConfig",
    "EstimateTrace",
    "simulate_chain",
    "online_potentials",
    "truncated_accumulated_reward",
    "write_trace_csv",
]


@dataclass(frozen=True)
class StepSchedule:
    """Step sizes alpha_t for the stochastic-approximation update.

    The power family alpha_t = a / (b + t)^p satisfies the
    sum alpha = inf, sum alpha^2 < inf conditions when 0.5 < p <= 1.
    For 0 < p <= 0.5 only the looser pair (sum alpha = inf, alpha -> 0)
    holds, and ``loose_only`` flags that no convergence claim is attached.
    """

    kind: str  # "robbins_monro_power" | "constant" | "custom"
    a: float = 1.0
    b: float = 10.0
    p: float = 1.0
    alpha_const: float = 0.1
    fn: Callable[[int], float] | None = field(default=None, compare=False)

    def __post_init__(self):
        # written as "not (0 < x < inf)" so that NaN fails too
        if self.kind == "robbins_monro_power":
            if not (0.0 < self.a < np.inf and 0.0 < self.b < np.inf
                    and 0.0 < self.p <= 1.0):
                raise ScheduleInvalidError(
                    f"power schedule needs finite a > 0, b > 0 and "
                    f"0 < p <= 1; got a={self.a}, b={self.b}, p={self.p}")
        elif self.kind == "constant":
            if not 0.0 < self.alpha_const < np.inf:
                raise ScheduleInvalidError(
                    "constant step size must be positive and finite")
        elif self.kind == "custom":
            if self.fn is None:
                raise ScheduleInvalidError("custom schedule needs a callable")
        else:
            raise ScheduleInvalidError(f"unknown schedule kind {self.kind!r}")

    @classmethod
    def robbins_monro(cls, a: float = 1.0, b: float = 10.0, p: float = 1.0) -> "StepSchedule":
        return cls("robbins_monro_power", a=a, b=b, p=p)

    @classmethod
    def constant(cls, alpha: float) -> "StepSchedule":
        return cls("constant", alpha_const=alpha)

    @classmethod
    def custom(cls, fn: Callable[[int], float]) -> "StepSchedule":
        return cls("custom", fn=fn)

    @property
    def satisfies_robbins_monro(self) -> bool:
        return self.kind == "robbins_monro_power" and 0.5 < self.p <= 1.0

    @property
    def loose_only(self) -> bool:
        return self.kind == "robbins_monro_power" and self.p <= 0.5

    def alpha(self, t: int) -> float:
        if self.kind == "robbins_monro_power":
            return self.a / (self.b + t) ** self.p
        if self.kind == "constant":
            return self.alpha_const
        return float(self.fn(t))

    def alphas(self, steps: int) -> np.ndarray:
        """Vectorized alpha_0 .. alpha_{steps-1}, validated positive and
        finite."""
        if self.kind == "robbins_monro_power":
            out = self.a / (self.b + np.arange(steps, dtype=float)) ** self.p
        elif self.kind == "constant":
            out = np.full(steps, self.alpha_const)
        else:
            out = np.array([float(self.fn(t)) for t in range(steps)])
        # NaN fails both comparisons
        if steps and not (float(out.min()) > 0.0 and float(out.max()) < np.inf):
            t_bad = int(np.argmin((out > 0.0) & (out < np.inf)))
            raise ScheduleInvalidError(
                f"step size alpha_{t_bad} = {out[t_bad]:.6g} is not positive "
                "and finite", t=t_bad)
        return out


DEFAULT_SCHEDULE = StepSchedule.robbins_monro(1.0, 10.0, 1.0)


@dataclass(frozen=True)
class SimulationConfig:
    """Run length, stopping rule, and seed for one estimation run."""

    seed: int = 0
    max_steps: int = 100_000
    epsilon: float = 1e-4
    check_interval: int = 1000

    def __post_init__(self):
        # the counts size arrays and the seed seeds PCG64, so each must be a
        # Python or numpy integer; a float would fail at sampling or truncate
        for name, low in (("seed", 0), ("max_steps", 1), ("check_interval", 1)):
            if _integer(name, getattr(self, name)) < low:
                raise ValueError(f"{name} must be >= {low}")
        if not 0.0 < self.epsilon < np.inf:  # NaN fails too
            raise ValueError("epsilon must be positive and finite")


@dataclass(frozen=True)
class EstimateTrace:
    """Result of one estimation run.

    ``history`` holds (t, max-abs change of ghat since the previous
    checkpoint); ``samples`` holds (t, state, reward, z_t, eta_hat) rows
    for CSV export. ``residual_count/sum/sumsq`` accumulate z_t statistics
    when requested.
    """

    g_hat: np.ndarray
    eta_hat: float
    steps_run: int
    converged: bool
    seed: int
    history: tuple[tuple[int, float], ...] = ()
    samples: tuple[tuple[int, int, float, float, float], ...] = ()
    residual_count: int = 0
    residual_sum: float = 0.0
    residual_sumsq: float = 0.0

    @property
    def residual_mean(self) -> float:
        return self.residual_sum / self.residual_count if self.residual_count else 0.0

    @property
    def residual_std(self) -> float:
        if self.residual_count < 2:
            return 0.0
        mean = self.residual_mean
        var = self.residual_sumsq / self.residual_count - mean * mean
        return max(var, 0.0) ** 0.5


def _sample_states(P: np.ndarray, s0: int, steps: int, seed: int) -> list[int]:
    """Walk the chain for `steps` transitions by inverse-CDF sampling.

    Each transition consumes one uniform draw and picks the first index
    whose cumulative row probability exceeds it, in stored row order; a
    draw past every cumulative sum but the last picks the last state.
    Returns the `steps + 1` visited states, s0 first, as a list of ints,
    the form the estimator's loop reads.
    """
    n = P.shape[0]
    s = _integer("s0", s0)
    if not 0 <= s < n:
        raise ValueError(f"start state {s} out of range [0, {n})")
    rng = np.random.Generator(np.random.PCG64(_integer("seed", seed)))
    u = rng.random(steps).tolist()
    # without the last column bisect_right returns at most n - 1
    rows = np.cumsum(P, axis=1)[:, :-1].tolist()
    return [s] + [s := bisect_right(rows[s], x) for x in u]


def simulate_chain(P, f, s0: int, steps: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic seeded sample path of (state, reward) pairs.

    Returns `steps` transitions as arrays of length steps + 1: the
    visited states starting at s0, and the reward f(state) at each. An
    s0 or seed that is not an integer is a ValueError, not truncated.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    P = _as_chain(P)
    f = _as_rewards(f, P.size)
    states = np.array(_sample_states(np.asarray(P.matrix), s0, steps, seed),
                      dtype=np.int64)
    return states, f.values[states]


def truncated_accumulated_reward(P, f, horizon: int) -> np.ndarray:
    """Expected reward accumulated over t = 0..horizon, by recursion.

    acc_0 = f and acc_k = f + P acc_{k-1}; exact matrix arithmetic, no
    simulation. Feeds the reference-level potential formula.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    P = _as_chain(P)
    f = _as_rewards(f, P.size)
    acc = f.values.copy()
    for _ in range(horizon):
        acc = f.values + P.matrix @ acc
    return acc


def online_potentials(source, f, r=None, schedule: StepSchedule | None = None,
                      cfg: SimulationConfig | None = None, *,
                      s0: int = 0, g0=None, track_residuals: bool = False,
                      allow_unchecked: bool = False,
                      tolerances: Tolerances = DEFAULT) -> EstimateTrace:
    """Estimate potentials online from a sample path.

    ``source`` is either a StochasticMatrix (a path of cfg.max_steps
    transitions is simulated with cfg.seed from s0) or a precomputed
    state path of integers (a float path or s0 is a ValueError, not
    truncated). Every step updates the single component ghat(s) and adds
    r(s) alpha_t z_t to a running sum_i r(i) ghat(i), so a step is O(1).
    The steps run in chunks of cfg.check_interval: the first step of a
    chunk records the sample row and resets the running sum to the exact
    O(n) value, so its rounding drift never spans more than one chunk;
    the end of a full chunk records the history delta and tests the
    stopping rule.

    Stops when the max-abs change of ghat over a check interval falls
    below cfg.epsilon, or at cfg.max_steps. eta_hat = r.ghat at the end.
    Raises EstimateDivergentError (detail: seed, steps_run) when ghat or
    eta_hat is not finite then; the test runs once per run, not per step.
    """
    schedule = schedule or DEFAULT_SCHEDULE
    cfg = cfg or SimulationConfig()

    if isinstance(source, StochasticMatrix) or np.ndim(source) == 2:
        source = _as_chain(source)
        if not allow_unchecked:
            _require_irreducible(source, tolerances, need_aperiodic=True)
        st = _sample_states(np.asarray(source.matrix), s0, cfg.max_steps,
                            cfg.seed)
        n = source.size
    else:
        states = np.asarray(source)
        if states.ndim != 1 or states.shape[0] < 2:
            raise ValueError("state path must be 1-D with at least 2 entries")
        if states.dtype.kind not in "iu":
            raise ValueError(
                f"state path must hold integers, got dtype {states.dtype}")
        n = len(f) if isinstance(f, RewardVector) else np.size(f)
        if states.min() < 0 or states.max() >= n:
            raise ValueError("state path entries out of range for the rewards")
        st = states.tolist()

    f = _as_rewards(f, n)
    r = _as_reference(r, n, tolerances)
    steps = len(st) - 1
    alphas = schedule.alphas(steps).tolist()

    # hot loop on plain python lists (the path st too); numpy scalar
    # indexing is slower here
    fv = f.values.tolist()
    rv = r.values.tolist()
    g = [0.0] * n if g0 is None else [float(x) for x in np.asarray(g0).reshape(-1)]
    if len(g) != n:
        raise ValueError(f"g0 must have length {n}")

    interval = cfg.check_interval
    eps = cfg.epsilon
    snapshot = list(g)
    history: list[tuple[int, float]] = []
    samples: list[tuple[int, int, float, float, float]] = []
    converged = False
    steps_run = steps
    zc = 0
    zs = 0.0
    zss = 0.0

    # rdot is the running r.ghat; the first step of a chunk is the sample
    # row and resets it to the exact sum
    rdot = 0.0
    for ri, gi in zip(rv, g):
        rdot += ri * gi
    for start in range(0, steps, interval):
        end = min(start + interval, steps)
        s = st[start]
        z = fv[s] - rdot + g[st[start + 1]] - g[s]
        g[s] += alphas[start] * z
        rdot = 0.0
        for ri, gi in zip(rv, g):
            rdot += ri * gi
        samples.append((start, s, fv[s], z, rdot))
        if track_residuals:
            zc += 1
            zs += z
            zss += z * z
        for s, s2, a in zip(st[start + 1:end], st[start + 2:end + 1],
                            alphas[start + 1:end]):
            z = fv[s] - rdot + g[s2] - g[s]
            dz = a * z
            g[s] += dz
            rdot += rv[s] * dz
            if track_residuals:
                zc += 1
                zs += z
                zss += z * z
        if end - start == interval:
            delta = max(abs(a - b) for a, b in zip(g, snapshot))
            history.append((end, delta))
            if delta < eps:
                converged = True
                steps_run = end
                break
            snapshot = list(g)

    g_arr = np.array(g)
    eta_hat = float(r.values @ g_arr)
    if not (np.isfinite(g_arr).all() and np.isfinite(eta_hat)):
        raise EstimateDivergentError(
            f"online estimate diverged: g_hat or eta_hat is not finite "
            f"after {steps_run} steps",
            seed=int(cfg.seed), steps_run=steps_run)
    return EstimateTrace(
        g_hat=g_arr,
        eta_hat=eta_hat,
        steps_run=steps_run,
        converged=converged,
        seed=int(cfg.seed),
        history=tuple(history),
        samples=tuple(samples),
        residual_count=zc,
        residual_sum=zs,
        residual_sumsq=zss,
    )


def write_trace_csv(trace: EstimateTrace, stream) -> None:
    """Write the sampled trace rows as CSV: t, state, reward, z_t, eta_hat."""
    stream.write("t,state,reward,z_t,eta_hat\n")
    for t, s, rew, z, eta in trace.samples:
        stream.write(f"{t},{s},{rew:.12g},{z:.12g},{eta:.12g}\n")
