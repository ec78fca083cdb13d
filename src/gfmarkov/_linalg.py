"""Dense linear-algebra helpers.

``ShiftedSystem`` owns every shifted matrix M = A + e r (A = I - P for a
chain, A = B for a rate matrix): it factors M^T in place by pivoted LU,
checks the pivots and serves g, pi and the explicit inverse from that
one factorization; :func:`shifted_system` keeps the last one on the
validated matrix, so later calls with the same r reuse it.
``scipy.linalg`` is imported at the first factorization, not with the
package, so callers that never factor (validation, the structural gate,
the estimator) never load it; ``lu_factor`` and ``lu_solve`` are looked
up on that module at each call.
Eigenvalues of 2x2 and 3x3 matrices come from closed-form roots of the
characteristic polynomial; nothing here requires a general eigensolver.
"""

from __future__ import annotations

import cmath
import warnings

import numpy as np

from .errors import NearSingularError
from .model import GeneratorMatrix, StochasticMatrix, _memoized

OMEGA = complex(-0.5, 0.5 * 3.0 ** 0.5)  # primitive cube root of unity


class ShiftedSystem:
    """Pivoted LU of M^T for M = A + e r; rejects singular M.

    Build through :meth:`for_chain` or :meth:`for_rates`. M is written in
    C order, which is M^T in Fortran order, so LAPACK factors M^T in place
    with no copy and no finiteness scan; :meth:`solve` is then the
    transposed solve. A NaN or infinite pivot is refused, and so is a
    smallest |U_ii| at or below pivot_tol * max(1, largest |U_ii|).
    dgecon with norm "I" on this LU estimates rcond_1(M).
    """

    def __init__(self, M: np.ndarray, pivot_tol: float):
        import scipy.linalg

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            self._lu_piv = scipy.linalg.lu_factor(M.T, overwrite_a=True,
                                                  check_finite=False)
        pivots = np.abs(self._lu_piv[0].diagonal())
        largest = float(pivots.max(initial=0.0))  # NaN if any pivot is NaN
        if not np.isfinite(largest):
            raise NearSingularError("shifted matrix is not finite: a NaN or "
                                    "infinite entry, or overflow in its LU")
        floor = pivot_tol * max(1.0, largest)
        if pivots.size and float(pivots.min()) <= floor:
            raise NearSingularError(
                "factorization pivot below tolerance; matrix is singular to "
                f"working precision (min pivot {pivots.min():.3e})",
                min_pivot=float(pivots.min()),
            )

    @classmethod
    def for_chain(cls, P: np.ndarray, r: np.ndarray,
                  pivot_tol: float) -> ShiftedSystem:
        """I - P + e r for a chain or state-action chain P."""
        M = np.subtract(r, P)
        np.fill_diagonal(M, (1.0 - np.diagonal(P)) + r)
        return cls(M, pivot_tol)

    @classmethod
    def for_rates(cls, B: np.ndarray, r: np.ndarray,
                  pivot_tol: float) -> ShiftedSystem:
        """B + e r for a rate matrix B."""
        with np.errstate(over="ignore"):
            return cls(np.add(B, r), pivot_tol)

    def _solve(self, b: np.ndarray, trans: int) -> np.ndarray:
        # scipy's getrs wrapper shifts the pivot array to 1-based in place
        # for the LAPACK call and back after it; two threads solving on one
        # memoized system must not share that array, or the shifts stack
        # and rows are swapped out of bounds
        import scipy.linalg

        lu, piv = self._lu_piv
        return scipy.linalg.lu_solve((lu, piv.copy()), b, trans=trans)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with M x = b."""
        return self._solve(b, 1)

    def solve_row(self, b: np.ndarray) -> np.ndarray:
        """Row vector x with x M = b."""
        return self._solve(b, 0)

    def inverse(self) -> np.ndarray:
        """M^-1, from one block solve against I."""
        return self.solve(np.eye(self._lu_piv[0].shape[0]))


def shifted_system(source: StochasticMatrix | GeneratorMatrix, r: np.ndarray,
                   pivot_tol: float) -> ShiftedSystem:
    """The factored I - P + e r of a chain, or B + e r of a rate matrix.

    Read from the memo on `source` when its last factorization had the
    same r and pivot_tol, else factored and stored there. A NearSingular
    factorization is not stored, so every call with it raises again.
    """
    build = (ShiftedSystem.for_rates if isinstance(source, GeneratorMatrix)
             else ShiftedSystem.for_chain)
    return _memoized(source, "lu", (r.tobytes(), pivot_tol),
                     lambda: build(source.matrix, r, pivot_tol))


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
