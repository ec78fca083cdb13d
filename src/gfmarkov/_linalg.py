"""Dense linear-algebra helpers.

Every shifted matrix A + e r is built by one function, and its pivoted LU
is owned by one class, ``ShiftedSystem``: the pivot-floor check, the LU
format and the transposed solves for row systems live only here, so every
caller shares the same numerics and reads as many solutions (g, pi, the
explicit inverse) from one factorization as it needs.
Eigenvalues of 2x2 and 3x3 matrices come from closed-form roots of the
characteristic polynomial; nothing here requires a general eigensolver.
"""

from __future__ import annotations

import cmath
import warnings

import numpy as np
import scipy.linalg

from .errors import NearSingularError

OMEGA = complex(-0.5, 0.5 * 3.0 ** 0.5)  # primitive cube root of unity


def shifted_matrix(A: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Return A + e r for a row vector r.

    A is I - P for a chain P (or a state-action chain PL) and the rate
    matrix B itself for a continuous-time process.
    """
    return A + np.outer(np.ones(A.shape[0]), r)


class ShiftedSystem:
    """M = shifted_matrix(A, r) with its pivoted LU; rejects singular M.

    The smallest |U_ii| is compared with pivot_tol * max(1, largest |U_ii|);
    below that M is treated as singular to working precision. Every solve
    reuses the one factorization. M comes in built, so that a temporary
    A (I - P) is already freed when the LU allocates.
    """

    def __init__(self, M: np.ndarray, pivot_tol: float):
        self.matrix = M
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            self._lu_piv = scipy.linalg.lu_factor(self.matrix)
        pivots = np.abs(np.diag(self._lu_piv[0]))
        floor = pivot_tol * max(1.0, float(pivots.max(initial=0.0)))
        if pivots.size and float(pivots.min()) <= floor:
            raise NearSingularError(
                "factorization pivot below tolerance; matrix is singular to "
                f"working precision (min pivot {pivots.min():.3e})",
                min_pivot=float(pivots.min()),
            )

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with M x = b."""
        return scipy.linalg.lu_solve(self._lu_piv, b)

    def solve_row(self, b: np.ndarray) -> np.ndarray:
        """Row vector x with x M = b."""
        return scipy.linalg.lu_solve(self._lu_piv, b, trans=1)

    def inverse(self) -> np.ndarray:
        """M^-1, from one block solve against I."""
        return self.solve(np.eye(self.matrix.shape[0]))


def one_norm_condition(M: np.ndarray, M_inv: np.ndarray) -> float:
    """Exact 1-norm condition number given the explicit inverse."""
    norm = np.abs(M).sum(axis=0).max
    return float(norm() * np.abs(M_inv).sum(axis=0).max())


def _polish_root(x: complex, coeffs: tuple[float, ...]) -> complex:
    # one or two Newton steps on the monic polynomial; cheap insurance
    for _ in range(2):
        p = 0j
        dp = 0j
        for c in coeffs:
            dp = dp * x + p
            p = p * x + c
        if dp == 0:
            break
        x = x - p / dp
    return x


def _quadratic_roots(b: float, c: float) -> list[complex]:
    # x^2 + b x + c with real coefficients
    disc = b * b - 4.0 * c
    if disc >= 0.0:
        sq = disc ** 0.5
        q = -0.5 * (b + (sq if b >= 0.0 else -sq))
        if q != 0.0:
            return [complex(q), complex(c / q)]
        return [complex(0.0), complex(-b)]
    im = 0.5 * (-disc) ** 0.5
    re = -0.5 * b
    return [complex(re, im), complex(re, -im)]


def _cubic_roots(a: float, b: float, c: float) -> list[complex]:
    # x^3 + a x^2 + b x + c via the depressed cubic t^3 + p t + q
    p = b - a * a / 3.0
    q = 2.0 * a ** 3 / 27.0 - a * b / 3.0 + c
    shift = a / 3.0
    disc = cmath.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    u3 = -q / 2.0 + disc
    alt = -q / 2.0 - disc
    if abs(alt) > abs(u3):
        u3 = alt
    if u3 == 0:
        roots = [complex(-shift)] * 3
    else:
        u = u3 ** (1.0 / 3.0)
        roots = []
        for k in range(3):
            uk = u * OMEGA ** k
            roots.append(uk - p / (3.0 * uk) - shift)
    coeffs = (1.0, a, b, c)
    return [_polish_root(x, coeffs) for x in roots]


def small_matrix_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 1x1, 2x2, or 3x3 real matrix, in closed form."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if n == 1:
        return np.array([complex(M[0, 0])])
    if n == 2:
        tr = M[0, 0] + M[1, 1]
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        return np.array(_quadratic_roots(-tr, det))
    if n == 3:
        tr = M[0, 0] + M[1, 1] + M[2, 2]
        m2 = (M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
              + M[0, 0] * M[2, 2] - M[0, 2] * M[2, 0]
              + M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
        det = (M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
               - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
               + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0]))
        return np.array(_cubic_roots(-tr, m2, -det))
    raise ValueError("closed-form eigenvalues are only available up to 3x3")


def match_spectra(expected: np.ndarray, computed: np.ndarray) -> float:
    """Greedy multiset match; returns the largest pairing distance."""
    remaining = list(computed)
    worst = 0.0
    for lam in expected:
        dists = [abs(lam - mu) for mu in remaining]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        remaining.pop(k)
    return worst
