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
check interval, by a left fold, which bounds its rounding drift. The
loop runs on plain Python ints and floats, one check interval at a
time: each chunk draws its own uniforms (or takes its stretch of a
given path as a list) and zips them with its own slice of the step
sizes. The draws and step sizes are read through memoryviews, which
make each Python float as its step takes it; a list would make the
whole chunk's first. Each step of a walked run picks its next state by
inverse CDF inside the update, from the cumulative row that it reads,
with the state's reward and reference weight, from one per-state tuple;
no list of states is built. So a run holds the step-size array and one
chunk's draws, not the whole path, and samples nothing past an early
stop.

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
from functools import reduce
from itertools import repeat
from operator import add, mul, sub
from typing import Callable

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import EstimateDivergentError, ScheduleInvalidError
from .gfm import _as_reference
from .model import (RewardVector, _ValidatedMatrix, _integer,
                    _require_irreducible, reward_vector, validate_stochastic)
from .modelio import format_csv

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

    def _fill(self, t: np.ndarray, ts) -> np.ndarray:
        """Overwrite the float array t of the steps ts with alpha at each, the
        one formula of alpha and alphas, so both round alike and a run holds
        one array; the custom kind calls fn on each step of ts as given."""
        if self.kind == "robbins_monro_power":
            t += self.b
            t **= self.p
            return np.divide(self.a, t, out=t)
        if self.kind == "constant":
            t.fill(self.alpha_const)
        else:
            t[:] = [float(self.fn(x)) for x in ts]
        return t

    def alpha(self, t: int) -> float:
        """alpha_t, bit for bit the entry t of :meth:`alphas`."""
        return float(self._fill(np.array([t], dtype=float), (t,))[0])

    def alphas(self, steps: int) -> np.ndarray:
        """Vectorized alpha_0 .. alpha_{steps-1}, validated positive and
        finite."""
        out = self._fill(np.arange(steps, dtype=float), range(steps))
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


def _walker(P: np.ndarray, s0: int, seed: int) -> tuple[list, int, np.random.Generator]:
    """Cumulative rows, checked start state and PCG64 generator of a walk.

    An s0 or seed that is not an integer, or an s0 outside the chain, is
    a ValueError.
    """
    n = P.shape[0]
    s = _integer("s0", s0)
    if not 0 <= s < n:
        raise ValueError(f"start state {s} out of range [0, {n})")
    rng = np.random.Generator(np.random.PCG64(_integer("seed", seed)))
    # without the last column bisect_right returns at most n - 1
    return np.cumsum(P, axis=1)[:, :-1].tolist(), s, rng


def _walk(rows: list, s: int, u: list) -> list[int]:
    """The walk from s, one transition per uniform draw in u, by inverse CDF.

    Each transition picks the first index whose cumulative row
    probability exceeds its draw, in stored row order; a draw past every
    cumulative sum but the last picks the last state. Returns the
    `len(u) + 1` visited states, s first, as a list of ints. PCG64 draws
    taken in chunks form the same stream as one long draw, so
    :func:`online_potentials`, which draws chunk by chunk and makes the
    same bisection inside its update, visits the states this walks from
    the same seed.
    """
    return [s] + [s := bisect_right(rows[s], x) for x in u]


def _sample_states(P: np.ndarray, s0: int, steps: int, seed: int) -> list[int]:
    """Walk the chain for `steps` transitions by inverse-CDF sampling.

    Returns the `steps + 1` visited states, s0 first, as a list of ints.
    """
    rows, s, rng = _walker(P, s0, seed)
    return _walk(rows, s, rng.random(steps).tolist())


def simulate_chain(P, f, s0: int, steps: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic seeded sample path of (state, reward) pairs.

    Returns `steps` transitions as arrays of length steps + 1: the
    visited states starting at s0, and the reward f(state) at each. An
    s0, steps or seed that is not an integer is a ValueError. A raw P is
    validated under DEFAULT tolerances; this takes none of its own.
    """
    steps = _integer("steps", steps)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    P = validate_stochastic(P)
    f = reward_vector(f, P.size)
    states = np.array(_sample_states(np.asarray(P.matrix), s0, steps, seed),
                      dtype=np.int64)
    return states, f.values[states]


def truncated_accumulated_reward(P, f, horizon: int) -> np.ndarray:
    """Expected reward accumulated over t = 0..horizon, by recursion.

    acc_0 = f and acc_k = f + P acc_{k-1}; exact matrix arithmetic, no
    simulation. Feeds the reference-level potential formula. A horizon
    that is not an integer is a ValueError. A raw P is validated under
    DEFAULT tolerances; this takes none of its own.
    """
    horizon = _integer("horizon", horizon)
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    P = validate_stochastic(P)
    f = reward_vector(f, P.size)
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

    ``source`` is either a chain, validated under ``tolerances`` if raw
    (a path of up to cfg.max_steps transitions is walked with cfg.seed
    from s0; a rate matrix is a TypeError), or a precomputed state path
    of integers, which starts at its own first state (a float path or
    s0 is a ValueError, not truncated, on both routes). Every step
    updates the single component ghat(s) and adds r(s) alpha_t z_t to a
    running sum_i r(i) ghat(i), so a step is O(1). The steps run in
    chunks of cfg.check_interval: a chunk draws its uniforms (or takes
    its slice of the given path) and takes its slice of the step sizes,
    and a walked step draws its next state inside the update, so neither
    the path nor its draws are ever held whole. The first step of a
    chunk records the sample row and resets the running sum to the exact
    O(n) value, a left fold over the states in order, so its rounding
    drift never spans more than one chunk; the end of a full chunk
    records the history delta and tests the stopping rule.

    Stops when the max-abs change of ghat over a check interval falls
    below cfg.epsilon, or at cfg.max_steps; nothing is sampled past the
    stop. eta_hat = r.ghat at the end. All step sizes are computed and
    validated before the first step. Raises EstimateDivergentError
    (detail: seed, steps_run) when ghat or eta_hat is not finite then;
    the test runs once per run, not per step.
    """
    schedule = schedule or DEFAULT_SCHEDULE
    cfg = cfg or SimulationConfig()

    if isinstance(source, _ValidatedMatrix) or np.ndim(source) == 2:
        source = validate_stochastic(source, cfg=tolerances)
        if not allow_unchecked:
            _require_irreducible(source, tolerances, need_aperiodic=True)
        rows, s, rng = _walker(np.asarray(source.matrix), s0, cfg.seed)
        states = None
        n = source.size
        steps = cfg.max_steps
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
        steps = states.shape[0] - 1
        _integer("s0", s0)
        s = int(states[0])
        rows = repeat(None, n)

    f = reward_vector(f, n)
    r = _as_reference(r, n, tolerances)
    alphas = schedule.alphas(steps)

    # hot loop on plain python lists and floats; numpy scalar indexing is
    # slower here. info[s] holds state s's reward, reference weight and
    # cumulative row (None on a given path), one lookup per step
    fv = f.values.tolist()
    rv = r.values.tolist()
    info = list(zip(fv, rv, rows))
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
    # row and resets it to the exact sum, by a left-to-right fold (sum()
    # of floats is compensated from Python 3.12 on)
    rdot = reduce(add, map(mul, rv, g), 0.0)
    for start in range(0, steps, interval):
        end = min(start + interval, steps)
        # each step of the chunk takes its draw (or next state) and alpha_t
        al = memoryview(alphas[start:end])
        if states is None:
            chunk = zip(memoryview(rng.random(end - start)), al)
        else:
            chunk = zip(states[start + 1:end + 1].tolist(), al)
        x, a = next(chunk)
        fs, rs, row = info[s]
        s2 = x if row is None else bisect_right(row, x)
        z = fs - rdot + g[s2] - g[s]
        g[s] += a * z
        rdot = reduce(add, map(mul, rv, g), 0.0)
        samples.append((start, s, fs, z, rdot))
        if track_residuals:
            zc += 1
            zs += z
            zss += z * z
        s = s2
        if states is None:
            for x, a in chunk:
                fs, rs, row = info[s]
                s2 = bisect_right(row, x)
                z = fs - rdot + g[s2] - g[s]
                dz = a * z
                g[s] += dz
                rdot += rs * dz
                if track_residuals:
                    zc += 1
                    zs += z
                    zss += z * z
                s = s2
        else:
            for s2, a in chunk:
                fs, rs, _ = info[s]
                z = fs - rdot + g[s2] - g[s]
                dz = a * z
                g[s] += dz
                rdot += rs * dz
                if track_residuals:
                    zc += 1
                    zs += z
                    zss += z * z
                s = s2
        if end - start == interval:
            delta = max(map(abs, map(sub, g, snapshot)))
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
    stream.write(format_csv(["t", "state", "reward", "z_t", "eta_hat"],
                            trace.samples))
