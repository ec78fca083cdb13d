"""Continuous-time analogues built on the shifted generator B + e r.

For an ergodic rate matrix B the zero eigenvalue is simple with
eigenvector e, so B + e r is invertible whenever r.e != 0, giving

* pi from one transposed solve of pi (B + e r) = r, and
* potentials from (B + e r) g = -f.

Ergodicity is judged by ``model.diagnose_chain`` and B + e r factored by
``_linalg.shifted_system``, the same two entry points that chains take.

Sign convention: the unique solution of the second system satisfies
r.g = -eta (substituting the Poisson equation -B g = f - eta e forces
it), and that is what ``PotentialSolution.normalization`` records. The
classical route (B - e pi) g = -f instead yields pi.g = +eta.
"""

from __future__ import annotations

import numpy as np

from . import _linalg
from .config import DEFAULT, Tolerances
from .errors import NotErgodicError
from .gfm import (
    NORM_ETA,
    NORM_MINUS_ETA,
    PotentialSolution,
    StationaryDistribution,
    _as_reference,
    _as_rewards,
    _stationary_from,
)
from .model import (
    GeneratorMatrix,
    _checked_gamma,
    diagnose_chain,
    reference_vector,
    validate_generator,
)
from .report import CheckResult, VerificationReport

__all__ = [
    "ctmc_stationary",
    "ctmc_potentials",
    "ctmc_potentials_classic",
    "verify_generator_spectrum",
]


def _as_generator(B) -> GeneratorMatrix:
    if isinstance(B, GeneratorMatrix):
        return B
    return validate_generator(B)


def _require_ergodic(B: GeneratorMatrix, cfg: Tolerances) -> None:
    diag = diagnose_chain(B, cfg=cfg)
    if not diag.irreducible:
        raise NotErgodicError(
            "generator is not ergodic "
            f"({diag.num_closed_classes} closed class(es))",
            num_closed_classes=diag.num_closed_classes)


def ctmc_stationary(B, r=None, *, allow_unchecked: bool = False,
                    cfg: Tolerances = DEFAULT) -> StationaryDistribution:
    """Stationary distribution of the process: pi solves pi (B + e r) = r."""
    B = _as_generator(B)
    r = _as_reference(r, B.size, cfg)
    if not allow_unchecked:
        _require_ergodic(B, cfg)
    system = _linalg.shifted_system(B, r.values, cfg.pivot_tol)
    return _stationary_from(system, r, cfg, "process")


def ctmc_potentials(B, f, r=None, *, allow_unchecked: bool = False,
                    cfg: Tolerances = DEFAULT) -> PotentialSolution:
    """Process potentials and pi from one factorization of B + e r.

    The returned g satisfies the continuous-time Poisson equation
    -B g = f - eta e with eta = pi.f, and is normalized by r.g = -eta
    (recorded on the solution).
    """
    B = _as_generator(B)
    r = _as_reference(r, B.size, cfg)
    f = _as_rewards(f, B.size)
    if not allow_unchecked:
        _require_ergodic(B, cfg)
    system = _linalg.shifted_system(B, r.values, cfg.pivot_tol)
    g = system.solve(-f.values)
    pi = _stationary_from(system, r, cfg, "process")
    eta = float(pi.pi @ f.values)
    return PotentialSolution(g, eta, r, NORM_MINUS_ETA)


def ctmc_potentials_classic(B, f, *, allow_unchecked: bool = False,
                            cfg: Tolerances = DEFAULT) -> PotentialSolution:
    """Classical route: compute pi first, solve (B - e pi) g = -f.

    The result satisfies pi.g = +eta, matching the widely used form; it
    differs from :func:`ctmc_potentials` output by a constant shift.
    """
    B = _as_generator(B)
    f = _as_rewards(f, B.size)
    if not allow_unchecked:
        _require_ergodic(B, cfg)
    pi = ctmc_stationary(B, None, allow_unchecked=True, cfg=cfg)
    g = _linalg.shifted_system(B, -pi.pi, cfg.pivot_tol).solve(-f.values)
    eta = float(pi.pi @ f.values)
    r_pi = reference_vector(pi.pi, cfg=cfg)
    return PotentialSolution(g, eta, r_pi, NORM_ETA)


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
    B = _as_generator(B)
    gamma, rate = _checked_gamma(B, gamma)
    r = _as_reference(r, B.size, cfg)
    n = B.size
    ones = np.ones(n)
    checks: list[CheckResult] = []

    resid = float(np.abs(np.asarray(B.matrix) @ ones).max())
    checks.append(CheckResult("generator_zero_row_sums",
                              resid <= cfg.row_tol, resid))

    D = B.matrix + r.values
    resid = float(np.abs(D @ ones - r.dot_with_ones * ones).max())
    checks.append(CheckResult("ones_column_eigenvector",
                              resid <= cfg.solve_tol_for(n), resid))

    if n <= 3:
        lam_b = _linalg.small_matrix_eigenvalues(B.matrix)
        k0 = int(np.argmin(np.abs(lam_b)))
        zero_resid = float(abs(lam_b[k0]))
        checks.append(CheckResult("generator_zero_eigenvalue",
                                  zero_resid <= 1e-8, zero_resid))

        expected = np.array(
            [complex(r.dot_with_ones)]
            + [lam_b[i] for i in range(n) if i != k0])
        computed = _linalg.small_matrix_eigenvalues(D)
        worst = _linalg.match_spectra(expected, computed)
        checks.append(CheckResult("shifted_spectrum", worst <= 1e-8, worst))

        at_minimum = gamma <= rate * (1.0 + 1e-12)
        for i in range(n):
            if i == k0:
                continue
            dist = float(abs(lam_b[i] + gamma))
            name = f"eigenvalue_{i}_in_gamma_disk"
            if at_minimum and dist >= gamma * (1.0 - 1e-12):
                checks.append(CheckResult(
                    name, dist <= gamma * (1.0 + 1e-12), dist,
                    note="on the disk boundary at minimal gamma"))
            else:
                checks.append(CheckResult(name, dist < gamma, dist))

    return VerificationReport(tuple(checks))
