"""Dense linear-algebra helpers.

This module owns every shifted matrix M = A + e r (A = I - P for a
chain, A = B for a rate matrix): :func:`shifted_matrix` alone forms it
and :func:`shifted_system` alone factors it, into a ``ShiftedSystem``
that checks the pivots and serves g, pi and the explicit inverse from
one LU of M^T, kept on the validated matrix for later calls with the
same r.
The LU comes from LAPACK's dgetrf and dgetrs (Anderson et al., *LAPACK
Users' Guide*, 3rd ed., 1999), called through :func:`getrf` and
:func:`getrs` on scipy's f2py extension ``scipy.linalg._flapack``. That
module is loaded by file at the first factorization, so callers that
never factor (validation, the structural gate, the estimator) load no
scipy, and a factoring process runs neither ``scipy/__init__.py`` nor
``scipy/linalg/__init__.py``: the scipy package is only located, never
imported. The LAPACK routines are looked up on the module at each call.
Eigenvalues of 2x2 and 3x3 matrices come from closed-form roots of the
characteristic polynomial; nothing here requires a general eigensolver.
"""

from __future__ import annotations

import cmath
import importlib
import os
import sys
import threading
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .errors import NearSingularError
from .model import GeneratorMatrix, StochasticMatrix, _memoized

OMEGA = complex(-0.5, 0.5 * 3.0 ** 0.5)  # primitive cube root of unity

_FLAPACK = "scipy.linalg._flapack"
_flapack_lock = threading.Lock()


def _flapack_by_file():
    """``_flapack`` loaded from its file under the located scipy package,
    or None if scipy or the file is not found."""
    scipy = find_spec("scipy")  # locates the package; its __init__ never runs
    if scipy is None:
        return None
    spec = PathFinder.find_spec(
        _FLAPACK, [os.path.join(path, "linalg")
                   for path in scipy.submodule_search_locations])
    if spec is None:
        return None
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _flapack():
    """scipy's f2py LAPACK module, loaded once per process.

    The extension file is found under ``scipy/linalg`` and loaded on its
    own, so neither ``scipy/__init__.py`` nor the ``scipy.linalg``
    package's ``__init__`` (and the numpy.f2py, numpy.testing and numpy.ma
    imports it pulls in) runs. It is registered in ``sys.modules`` under
    its own name, so a later ``import scipy.linalg`` reuses it, and a
    module already there is used as it is. If the file is not found, or
    loading it on its own fails (on some platforms scipy's ``__init__``
    prepares the DLL search path), the module is imported the usual way.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    with _flapack_lock:  # threads share the first factorization
        module = sys.modules.get(_FLAPACK)
        if module is not None:
            return module
        try:
            module = _flapack_by_file()
        except ImportError:
            module = None
        if module is None:
            return importlib.import_module(_FLAPACK)
        sys.modules[_FLAPACK] = module
        return module


def getrf(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK dgetrf: the pivoted LU of a, with 0-based pivots.

    An F-contiguous float64 `a` is factored in place, and no finiteness
    scan is made. A pivot that is exactly zero is left for the caller to
    judge.
    """
    lu, piv, info = _flapack().dgetrf(a, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgetrf")
    return lu, piv


def getrs(lu: np.ndarray, piv: np.ndarray, b: np.ndarray,
          trans: int) -> np.ndarray:
    """LAPACK dgetrs: x with A x = b (trans 0) or A^T x = b (trans 1),
    for the LU of A from :func:`getrf`; a NaN or infinite b is refused
    with ValueError. The wrapper shifts `piv` in place during the call.
    """
    x, info = _flapack().dgetrs(lu, piv, np.asarray_chkfinite(b), trans=trans)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgetrs")
    return x


class ShiftedSystem:
    """Pivoted LU of M^T for M = A + e r; rejects singular M.

    Built only by :func:`shifted_system`, on the C-ordered M of
    :func:`shifted_matrix`. That is M^T in Fortran order, so :func:`getrf`
    factors M^T in place, over M, with no copy and no finiteness scan;
    :meth:`solve` is then the transposed :func:`getrs`. The first
    factorization in a process loads the LAPACK module. A NaN or
    infinite pivot is refused, and so is a smallest |U_ii| at or below
    pivot_tol * max(1, largest |U_ii|).
    """

    def __init__(self, M: np.ndarray, pivot_tol: float):
        self._lu_piv = getrf(M.T)
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

    def _solve(self, b: np.ndarray, trans: int) -> np.ndarray:
        # the f2py getrs wrapper shifts the pivot array to 1-based in place
        # for the LAPACK call and back after it; two threads solving on one
        # memoized system must not share that array, or the shifts stack
        # and rows are swapped out of bounds
        lu, piv = self._lu_piv
        return getrs(lu, piv.copy(), b, trans)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with M x = b."""
        return self._solve(b, 1)

    def solve_row(self, b: np.ndarray) -> np.ndarray:
        """Row vector x with x M = b."""
        return self._solve(b, 0)

    def inverse(self) -> np.ndarray:
        """M^-1, from one block solve against I."""
        return self.solve(np.eye(self._lu_piv[0].shape[0]))


def shifted_matrix(source: StochasticMatrix | GeneratorMatrix,
                   r: np.ndarray) -> np.ndarray:
    """I - P + e r for a chain, or B + e r for a rate matrix: a fresh
    C-ordered array, which an overflow leaves infinite for the pivot check."""
    if isinstance(source, GeneratorMatrix):
        with np.errstate(over="ignore"):
            return np.add(source.matrix, r)
    P = source.matrix
    M = np.subtract(r, P)
    np.fill_diagonal(M, (1.0 - np.diagonal(P)) + r)
    return M


def shifted_system(source: StochasticMatrix | GeneratorMatrix, r: np.ndarray,
                   pivot_tol: float) -> ShiftedSystem:
    """The factored I - P + e r of a chain, or B + e r of a rate matrix.

    Read from the memo on `source` when its last factorization had the
    same r and pivot_tol, else factored and stored there. A NearSingular
    factorization is not stored, so every call with it raises again.
    """
    return _memoized(source, "lu", (r.tobytes(), pivot_tol),
                     lambda: ShiftedSystem(shifted_matrix(source, r),
                                           pivot_tol))


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
