"""Continuous-time analogues built on the shifted generator B + e r.

For an ergodic rate matrix B the zero eigenvalue is simple with
eigenvector e, so B + e r is invertible whenever r.e != 0, giving

* pi from one transposed solve of pi (B + e r) = r, and
* potentials from (B + e r) g = -f.

This module keeps only what a rate matrix changes: the sign convention
below, eta from pi and the gamma-disk checks. The rest is the chain's
code, which tells a rate matrix by its type: :func:`ctmc_stationary` is
``gfm._stationary_from`` (reference, gate, one LU of B + e r) on B, and
:func:`verify_generator_spectrum` runs ``gfm._shift_checks`` on the
eigenvalues of B, as ``verify_spectral_shift`` does on those of I - P.

Sign convention: the second system's solution has r.g = -eta (the
Poisson equation -B g = f - eta e forces it), as recorded in
``PotentialSolution.normalization``. The classical (B - e pi) g = -f has
pi.g = +eta: the same g, shifted by a constant, from the same LU.
"""

from __future__ import annotations

import numpy as np

from . import _linalg
from .config import DEFAULT, Tolerances
from .gfm import (
    NORM_MINUS_ETA,
    PotentialSolution,
    StationaryDistribution,
    _as_reference,
    _shift_checks,
    _stationary_from,
    renormalize_potentials,
)
from .model import _checked_gamma, reward_vector, validate_generator
from .report import CheckResult, VerificationReport, _residual_check

__all__ = [
    "ctmc_stationary",
    "ctmc_potentials",
    "ctmc_potentials_classic",
    "verify_generator_spectrum",
]


def ctmc_stationary(B, r=None, *, allow_unchecked: bool = False,
                    cfg: Tolerances = DEFAULT) -> StationaryDistribution:
    """Stationary distribution of the process: pi solves pi (B + e r) = r."""
    return _stationary_from(validate_generator(B, cfg=cfg), r, allow_unchecked, cfg)


def _ctmc_solves(B, f, r, allow_unchecked: bool, cfg: Tolerances
                 ) -> tuple[PotentialSolution, StationaryDistribution]:
    """The potentials of :func:`ctmc_potentials` and the pi behind their
    eta, both solved on the one LU of B + e r; pi's front runs the gate."""
    B = validate_generator(B, cfg=cfg)
    r = _as_reference(r, B.size, cfg)
    f = reward_vector(f, B.size)
    pi = _stationary_from(B, r, allow_unchecked, cfg)
    g = _linalg.shifted_system(B, r.values, cfg.pivot_tol).solve(-f.values)
    eta = float(pi.pi @ f.values)
    return PotentialSolution(g, eta, r, NORM_MINUS_ETA), pi


def ctmc_potentials(B, f, r=None, *, allow_unchecked: bool = False,
                    cfg: Tolerances = DEFAULT) -> PotentialSolution:
    """Process potentials and pi from one factorization of B + e r.

    The returned g satisfies the continuous-time Poisson equation
    -B g = f - eta e with eta = pi.f, and is normalized by r.g = -eta
    (recorded on the solution).
    """
    return _ctmc_solves(B, f, r, allow_unchecked, cfg)[0]


def ctmc_potentials_classic(B, f, *, allow_unchecked: bool = False,
                            cfg: Tolerances = DEFAULT) -> PotentialSolution:
    """Potentials of the classical route (B - e pi) g = -f: pi.g = +eta.

    That g is the :func:`ctmc_potentials` output at uniform r, from the
    one LU kept on B, plus the constant of
    :func:`~gfmarkov.gfm.renormalize_potentials` at r = pi. The pi is the
    one that body already solved for eta, so the route takes two solves
    on the LU, as for a chain.
    """
    sol, pi = _ctmc_solves(B, f, None, allow_unchecked, cfg)
    return renormalize_potentials(sol, pi.pi, cfg=cfg)


def verify_generator_spectrum(B, gamma: float, r=None, *,
                              cfg: Tolerances = DEFAULT) -> VerificationReport:
    """Check the spectral facts of B and B + e r.

    Verifies B e = 0 and (B + e r) e = (r.e) e on any size. For 2x2/3x3
    inputs it also compares spectra against closed-form roots and places
    every nonzero eigenvalue of B inside the disk of radius gamma centered
    at -gamma. At gamma exactly equal to the largest exit rate, real
    eigenvalues can sit on the disk boundary; those are reported with a
    "boundary" note instead of silently passing the strict test.
    """
    B = validate_generator(B, cfg=cfg)
    gamma, rate = _checked_gamma(B, gamma)
    r = _as_reference(r, B.size, cfg)
    lam = _linalg.small_matrix_eigenvalues(B.matrix) if B.size <= 3 else None
    shared, k0 = _shift_checks(B, r, lam, "generator_zero_eigenvalue", cfg)
    checks = [_residual_check("generator_zero_row_sums", B.matrix @ np.ones(B.size),
                              cfg.row_tol), *shared]
    if lam is not None:
        at_minimum = gamma <= rate * (1.0 + 1e-12)
        for i in range(B.size):
            if i == k0:
                continue
            dist = float(abs(lam[i] + gamma))
            name = f"eigenvalue_{i}_in_gamma_disk"
            if at_minimum and dist >= gamma * (1.0 - 1e-12):
                checks.append(CheckResult(
                    name, dist <= gamma * (1.0 + 1e-12), dist,
                    note="on the disk boundary at minimal gamma"))
            else:
                checks.append(CheckResult(name, dist < gamma, dist))

    return VerificationReport(tuple(checks))
