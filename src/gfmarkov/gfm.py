"""Shifted fundamental matrix of a discrete-time chain and what it yields.

For a row-stochastic P and any row vector r with r.e != 0, the matrix
I - P + e r is invertible (the zero eigenvalue of I - P shifts to r.e,
the rest stay at 1 - lambda_i). One factorization of it produces:

* potentials: g solves (I - P + e r) g = f and satisfies r.g = eta,
* the stationary distribution: pi solves pi (I - P + e r) = r,
* the classical fundamental matrix as the special case r = pi.

No pre-computation of pi is needed for the first two. Whenever
0 < r.e < 2 the inverse also equals the power series sum_n (P - e r)^n,
which grounds the truncated/sample-path approximations in this module.

The stationary front (reference, structural gate, solve and guard) and
the shift-lemma checks are one body each for chains and rate matrices,
which ``ctmc`` calls too; only the matrix type tells them apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log

import numpy as np

from . import _linalg
from .config import DEFAULT, Tolerances
from .errors import (
    DimensionMismatchError,
    NearSingularError,
    ReferenceNotDistributionLikeError,
    SeriesDivergentError,
)
from .model import (
    GeneratorMatrix,
    ReferenceVector,
    StochasticMatrix,
    _integer,
    _require_irreducible,
    reference_vector,
    reward_vector,
    uniform_reference,
    validate_stochastic,
)
from .report import CheckResult, VerificationReport, _residual_check, _reward_scale

__all__ = [
    "FundamentalMatrix",
    "PotentialSolution",
    "StationaryDistribution",
    "SpectralRadiusEstimate",
    "NORM_ETA",
    "NORM_MINUS_ETA",
    "NORM_ZERO",
    "fundamental_matrix",
    "stationary",
    "potentials",
    "potentials_classic",
    "renormalize_potentials",
    "series_fundamental",
    "potentials_reference_level",
    "spectral_radius_estimate",
    "verify_spectral_shift",
]

NORM_ETA = "r·g=eta"
NORM_MINUS_ETA = "r·g=-eta"
NORM_ZERO = "r·g=0"


@dataclass(frozen=True)
class FundamentalMatrix:
    """Inverse (exact or truncated-series) of the shifted matrix.

    ``tail_norm`` is only set for series approximations and reports
    ||(P - e r)^(T+1)||_inf, an upper-bound proxy for the truncation error.
    """

    Z: np.ndarray
    reference: ReferenceVector
    source: StochasticMatrix
    condition_estimate: float | None = None
    tail_norm: float | None = None
    terms: int | None = None


@dataclass(frozen=True)
class PotentialSolution:
    """Potential vector with its average reward and normalization record.

    ``normalization`` states which linear condition pins down the member
    of the g + c e family that ``g`` is: r.g = eta for discrete-chain
    solves, r.g = -eta for the continuous-time shifted solve, r.g = 0 for
    reference-level approximations.
    """

    g: np.ndarray
    eta: float
    reference: ReferenceVector
    normalization: str = NORM_ETA


@dataclass(frozen=True)
class StationaryDistribution:
    """Long-run state occupancy; nonnegative, sums to one."""

    pi: np.ndarray


@dataclass(frozen=True)
class SpectralRadiusEstimate:
    """Power-iteration estimate of a spectral radius.

    ``uncertain`` flags runs whose growth ratios had not settled; the value
    is still the best available estimate.
    """

    value: float
    uncertain: bool
    iterations: int

    def __float__(self) -> float:
        return self.value


def _as_reference(r, n: int, cfg: Tolerances) -> ReferenceVector:
    if r is None:
        return uniform_reference(n, cfg=cfg)
    r = reference_vector(r, cfg=cfg)
    if len(r) != n:
        raise DimensionMismatchError(
            f"reference vector has length {len(r)}, expected {n}",
            expected=n, got=len(r))
    return r


def _stationary_from(source: StochasticMatrix | GeneratorMatrix, r,
                     allow_unchecked: bool, cfg: Tolerances) -> StationaryDistribution:
    """pi from pi (A + e r) = r, on the LU that ``_linalg.shifted_system``
    keeps for a chain (A = I - P) or a rate matrix (A = B).

    The one stationary front: r is coerced (None is uniform) and, unless
    allow_unchecked, the structural gate runs before the solve. Entries
    within solve tolerance below zero are clamped and the vector
    renormalized; anything more negative signals numerical failure.
    """
    r = _as_reference(r, source.size, cfg)
    pi = _linalg.shifted_system(source, r.values, cfg,
                                not allow_unchecked).solve_row(r.values)
    low = float(pi.min(initial=0.0))
    if low < -cfg.solve_tol_for(pi.shape[0]):
        what = "process" if isinstance(source, GeneratorMatrix) else "chain"
        raise NearSingularError(
            f"stationary solve produced entry {low:.3e} below -solve_tol; "
            f"the {what} is numerically reducible", min_entry=low)
    pi = np.maximum(pi, 0.0)
    return StationaryDistribution(pi / pi.sum())


def fundamental_matrix(P, r=None, *, allow_unchecked: bool = False,
                       cfg: Tolerances = DEFAULT) -> FundamentalMatrix:
    """Explicit inverse of I - P + e r, from one block solve against I.

    Exists for inspection and verification; bulk consumers should prefer
    the single solves in :func:`potentials` / :func:`stationary`.
    """
    P = validate_stochastic(P, cfg=cfg)
    r = _as_reference(r, P.size, cfg)
    Z = _linalg.shifted_system(P, r.values, cfg, not allow_unchecked).inverse()
    # the LU overwrote its own copy of M
    norm = np.abs(_linalg.shifted_matrix(P, r.values)).sum(axis=0).max()
    cond = float(norm * np.abs(Z).sum(axis=0).max())
    return FundamentalMatrix(Z, r, P, condition_estimate=cond)


def stationary(P, r=None, *, allow_unchecked: bool = False,
               cfg: Tolerances = DEFAULT) -> StationaryDistribution:
    """Stationary distribution via one row solve of the shifted matrix.

    pi solves pi (I - P + e r) = r; no explicit inverse and no
    pre-computed pi are involved. Entries within solve tolerance below
    zero are clamped and the vector renormalized; anything more negative
    signals numerical failure.
    """
    return _stationary_from(validate_stochastic(P, cfg=cfg), r, allow_unchecked, cfg)


def potentials(P, f, r=None, *, allow_unchecked: bool = False,
               cfg: Tolerances = DEFAULT) -> PotentialSolution:
    """Potential vector from one linear solve, no pi required.

    g solves (I - P + e r) g = f; the returned solution satisfies the
    Poisson equation g = f - eta e + P g with eta = r.g (= pi.f), which
    lies in [min f, max f] in exact arithmetic. An eta outside that range
    widened by solve_tol_for(n) * max(1, max |f|) means the LU passed its
    pivot test on a matrix too close to singular to trust g: NearSingular.
    """
    P = validate_stochastic(P, cfg=cfg)
    r = _as_reference(r, P.size, cfg)
    f = reward_vector(f, P.size)
    g = _linalg.shifted_system(P, r.values, cfg, not allow_unchecked).solve(f.values)
    eta = float(r.values @ g)
    low, high = float(f.values.min()), float(f.values.max())
    slack = cfg.solve_tol_for(P.size) * _reward_scale(f.values)
    if not low - slack <= eta <= high + slack:
        raise NearSingularError(
            f"average reward r.g = {eta:.10g} lies outside [min f, max f] = "
            f"[{low:.6g}, {high:.6g}]; the shifted matrix is singular to "
            "working precision", eta=eta)
    return PotentialSolution(g, eta, r, NORM_ETA)


def potentials_classic(P, f, *, allow_unchecked: bool = False,
                       cfg: Tolerances = DEFAULT) -> PotentialSolution:
    """Potentials of the classical route, r = pi: pi.g = eta.

    pi and the uniform-r potentials come from the one LU kept on P; the
    classical g is theirs plus the constant of :func:`renormalize_potentials`.
    """
    P = validate_stochastic(P, cfg=cfg)
    pi = stationary(P, None, allow_unchecked=allow_unchecked, cfg=cfg)
    sol = potentials(P, f, None, allow_unchecked=allow_unchecked, cfg=cfg)
    return renormalize_potentials(sol, pi.pi, cfg=cfg)


def renormalize_potentials(sol: PotentialSolution, r_new, *,
                           cfg: Tolerances = DEFAULT) -> PotentialSolution:
    """Shift a potential solution by the constant that makes r_new.g = eta.

    Any g + c e solves the same Poisson equation; this picks
    c = (eta - r_new.g) / (r_new.e).
    """
    r_new = _as_reference(r_new, sol.g.shape[0], cfg)
    c = (sol.eta - float(r_new.values @ sol.g)) / r_new.dot_with_ones
    return PotentialSolution(sol.g + c, sol.eta, r_new, NORM_ETA)


def series_fundamental(P, r=None, terms: int = 50, *,
                       allow_unchecked: bool = False,
                       cfg: Tolerances = DEFAULT) -> FundamentalMatrix:
    """Truncated power series sum_{n=0}^{T} (P - e r)^n.

    Converges to the exact inverse iff the spectral radius of P - e r is
    below one, which for an irreducible aperiodic chain happens exactly
    when 0 < r.e < 2. The reported tail_norm is ||(P - e r)^(T+1)||_inf.
    The sum is built by binary doubling in O(log T) matrix products, and
    the products stop once a power of P - e r is exactly zero: every later
    step would add exact zeros to a sum that holds no -0.0, so Z,
    tail_norm and terms are bit for bit those of the full loop. A NaN or
    infinite power is not zero and never stops it. A terms that is not an
    integer is a ValueError, not truncated.
    """
    P = validate_stochastic(P, cfg=cfg)
    r = _as_reference(r, P.size, cfg)
    terms = _integer("terms", terms)
    if terms < 0:
        raise ValueError("terms must be >= 0")
    re = r.dot_with_ones
    if not (cfg.series_margin < re < 2.0 - cfg.series_margin):
        raise SeriesDivergentError(
            f"series diverges: r.e = {re:.6g} is outside (0, 2)",
            dot_with_ones=re)
    if not allow_unchecked:
        _require_irreducible(P, cfg, need_aperiodic=True)
    M = P.matrix - r.values  # P - e r
    # S = sum_{k<m} M^k and W = M^m, from m = 1 up to m = T + 1 along the
    # binary digits of T + 1: each digit doubles m, a one digit adds 1
    S = np.eye(P.size)
    W = M
    for digit in bin(terms + 1)[3:]:
        if not W.any():
            break
        S += W @ S
        W = W @ W
        if digit == "1":
            S += W
            W = W @ M
    tail_norm = float(np.abs(W).sum(axis=1).max())
    return FundamentalMatrix(S, r, P, tail_norm=tail_norm, terms=terms)


def potentials_reference_level(P, f, r=None, horizon: int = 50, *,
                               allow_unchecked: bool = False,
                               cfg: Tolerances = DEFAULT) -> PotentialSolution:
    """Potentials as accumulated reward minus a scalar reference level.

    Computes the truncated accumulated reward acc_T = sum_{t<=T} P^t f and
    returns g = acc_T - e (r . acc_T). Requires r.e = 1; the result is the
    member of the potential family with r.g = 0, approached as T grows
    past the chain's mixing time. eta is reported separately as pi.f.
    A horizon that is not an integer is a ValueError.
    """
    P = validate_stochastic(P, cfg=cfg)
    r = _as_reference(r, P.size, cfg)
    f = reward_vector(f, P.size)
    horizon = _integer("horizon", horizon)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if abs(r.dot_with_ones - 1.0) > cfg.re_eq1_tol:
        raise ReferenceNotDistributionLikeError(
            f"reference-level form needs r.e = 1, got {r.dot_with_ones:.6g}",
            dot_with_ones=r.dot_with_ones)
    if not allow_unchecked:
        _require_irreducible(P, cfg, need_aperiodic=True)
    from .estimator import truncated_accumulated_reward
    acc = truncated_accumulated_reward(P, f, horizon)
    g = acc - float(r.values @ acc)
    pi = stationary(P, r, allow_unchecked=allow_unchecked, cfg=cfg)
    eta = float(pi.pi @ f.values)
    return PotentialSolution(g, eta, r, NORM_ZERO)


def spectral_radius_estimate(M, iters: int = 200, seed: int = 0) -> SpectralRadiusEstimate:
    """Estimate the spectral radius by seeded power iteration.

    Tracks per-step growth ratios of the normalized iterate and returns
    the geometric mean over a trailing window, which smooths the
    oscillation a dominant complex pair induces. This is an estimate, not
    a certificate; ``uncertain`` is set when the last two windows disagree.
    An empty, non-square or non-finite M has no estimate and is a
    ValueError, and so is an iters or seed that is not an integer.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise ValueError(f"M must be a nonempty square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("M must be finite")
    iters = _integer("iters", iters)
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = np.random.Generator(np.random.PCG64(_integer("seed", seed)))
    v = rng.standard_normal(M.shape[0])
    v = v / float(np.linalg.norm(v))
    ratios: list[float] = []
    for k in range(iters):
        w = M @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return SpectralRadiusEstimate(0.0, False, k + 1)
        ratios.append(nw)
        v = w / nw
    window = min(len(ratios), 32)
    tail = ratios[-window:]
    value = exp(sum(log(x) for x in tail) / window)
    uncertain = True
    if len(ratios) >= 2 * window:
        prev = ratios[-2 * window:-window]
        prev_value = exp(sum(log(x) for x in prev) / window)
        uncertain = abs(value - prev_value) > 1e-6 * max(1.0, value)
    return SpectralRadiusEstimate(value, uncertain, iters)


def _shift_checks(source: StochasticMatrix | GeneratorMatrix,
                  r: ReferenceVector, lam: np.ndarray | None, zero_name: str,
                  cfg: Tolerances) -> tuple[list[CheckResult], int | None]:
    """The shift-lemma checks of M = A + e r: M e = (r.e) e and, given the
    eigenvalues lam of A (1 - lambda(P) or lambda(B); None for n > 3), that
    the one nearest zero is zero (check zero_name) and that M's spectrum
    is {r.e} union the rest. Returns the checks and that one's index."""
    n = source.size
    M = _linalg.shifted_matrix(source, r.values)
    ones = np.ones(n)
    checks = [_residual_check("ones_column_eigenvector",
                              M @ ones - r.dot_with_ones * ones,
                              cfg.solve_tol_for(n))]
    if lam is None:
        return checks, None
    k0 = int(np.argmin(np.abs(lam)))
    # the scalar's own abs: np.abs of a complex128 may differ in the last bit
    checks.append(_residual_check(zero_name, abs(lam[k0]), 1e-8))
    expected = np.array([complex(r.dot_with_ones)]
                        + [lam[i] for i in range(n) if i != k0])
    worst = _linalg.match_spectra(expected,
                                  _linalg.small_matrix_eigenvalues(M))
    checks.append(CheckResult("shifted_spectrum", worst <= 1e-8, worst))
    return checks, k0


def verify_spectral_shift(P, r=None, *, cfg: Tolerances = DEFAULT) -> VerificationReport:
    """Check the eigenvalue-shift facts of the matrix I - P + e r.

    Always verifies (I - P + e r) e = (r.e) e. For 2x2 and 3x3 inputs it
    additionally compares the full spectrum against {r.e} union
    {1 - lambda_i} using closed-form characteristic-polynomial roots, so
    no general eigensolver is involved.
    """
    P = validate_stochastic(P, cfg=cfg)
    r = _as_reference(r, P.size, cfg)
    lam = (1.0 - _linalg.small_matrix_eigenvalues(P.matrix)
           if P.size <= 3 else None)
    checks, _ = _shift_checks(P, r, lam, "chain_unit_eigenvalue", cfg)
    return VerificationReport(tuple(checks))
