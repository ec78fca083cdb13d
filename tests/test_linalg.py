from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gfmarkov import (
    ctmc_potentials,
    ctmc_potentials_classic,
    ctmc_stationary,
    fundamental_matrix,
    potentials,
    potentials_classic,
    qfactors_solve,
    stationary,
)
from gfmarkov import _linalg
from gfmarkov._linalg import ShiftedSystem, shifted_system
from gfmarkov.errors import NearSingularError
from gfmarkov.model import GeneratorMatrix, StochasticMatrix, validate_stochastic
from gfmarkov.modelio import load_model

from conftest import (
    count_calls,
    random_chain,
    random_generator_matrix,
    random_mdp,
    exact_solve,
    random_reference,
    reference_shifted_lu,
    reference_shifted_lu_direct,
)

EPS = np.finfo(float).eps


def _sparse_irreducible(rng: np.random.Generator, n: int, density: float):
    """Nonnegative weights with exact zeros, kept irreducible by a ring."""
    W = rng.random((n, n)) * (rng.random((n, n)) < density)
    W[np.arange(n), (np.arange(n) + 1) % n] += 0.5
    return W


def _random_system(seed, n, density, zero_r, rates):
    """(A, r, factored A + e r, rng) for a random chain or generator."""
    rng = np.random.default_rng(seed)
    W = _sparse_irreducible(rng, n, density)
    r = random_reference(rng, n)
    if zero_r and n > 1:
        r[rng.random(n) < 0.3] = 0.0
        if abs(r.sum()) < 0.1:
            r[0] += 1.0
    if rates:
        np.fill_diagonal(W, 0.0)
        A = W - np.diag(W.sum(axis=1))
        system = shifted_system(GeneratorMatrix(A), r, 1e-12)
    else:
        P = W / W.sum(axis=1, keepdims=True)
        A = np.eye(n) - P
        system = shifted_system(StochasticMatrix(P), r, 1e-12)
    return A, r, system, rng


_SYSTEMS = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
                density=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
                zero_r=st.booleans(), rates=st.booleans())


class TestShiftedSystemMatchesOracle:
    """shifted_system on a chain or a rate matrix against the literal
    C-ordered build.

    Both factor the transpose of the same entries, so every solve must be
    bit-identical to the oracle's with trans swapped.
    """

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(**_SYSTEMS)
    def test_random_systems(self, seed, n, density, zero_r, rates):
        A, r, system, rng = _random_system(seed, n, density, zero_r, rates)
        lu_piv = reference_shifted_lu(A, r)
        b = rng.normal(size=n)
        assert np.array_equal(system.solve(b),
                              scipy.linalg.lu_solve(lu_piv, b, trans=1))
        assert np.array_equal(system.solve_row(b),
                              scipy.linalg.lu_solve(lu_piv, b))
        assert np.array_equal(system.inverse(),
                              scipy.linalg.lu_solve(lu_piv, np.eye(n), trans=1))


class TestShiftedSystemMatchesDirectLU:
    """The LU of M^T against the LU of M that it replaced.

    Both are backward stable, so each solution differs from the other by
    at most a small multiple of n u cond(M) in norm. The bound is
    10 n^2 eps cond_1(M) relative to the oracle's largest entry: one n for
    the growth of |L||U| and one for cond_inf(M) <= n cond_1(M).
    """

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(**_SYSTEMS)
    def test_random_systems(self, seed, n, density, zero_r, rates):
        A, r, system, rng = _random_system(seed, n, density, zero_r, rates)
        M = A + np.outer(np.ones(n), r)
        bound = 10 * n * n * EPS * np.linalg.cond(M, 1)
        lu_piv = reference_shifted_lu_direct(A, r)
        b = rng.normal(size=n)
        for ours, direct in (
                (system.solve(b), scipy.linalg.lu_solve(lu_piv, b)),
                (system.solve_row(b), scipy.linalg.lu_solve(lu_piv, b, trans=1)),
                (system.inverse(), scipy.linalg.lu_solve(lu_piv, np.eye(n)))):
            scale = np.abs(direct).max()
            assert np.abs(ours - direct).max() <= bound * scale


class TestForwardErrorAgainstExactSolve:
    """g and pi of I - P + e r against the exact rational solve of the
    same float64 matrix.

    Chains P proportional to U^3 (U uniform), n from 2 to 12, with e1 and
    a signed random r. M is np.eye(n) - P + r, which rounds each entry as
    the library's build does, so the truth solves the very matrix that is
    factored. The forward error of each solve is bounded by
    4 n^2 eps cond(M) relative to its largest entry, with cond_inf(M) for
    the column solve g and cond_1(M) = cond_inf(M^T) for the row solve pi.
    """

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
           e1=st.booleans())
    def test_forward_error(self, seed, n, e1):
        rng = np.random.default_rng(seed)
        U = rng.random((n, n)) ** 3 + 1e-3
        chain = validate_stochastic(U / U.sum(axis=1, keepdims=True))
        P = chain.matrix
        r = np.eye(n)[0] if e1 else random_reference(rng, n)
        f = rng.normal(size=n)
        g = potentials(P, f, r, allow_unchecked=True).g
        pi = shifted_system(chain, r, 1e-12).solve_row(r)

        M = np.eye(n) - P + r
        for ours, true, cond in (
                (g, exact_solve(M, f), np.linalg.cond(M, np.inf)),
                (pi, exact_solve(M.T, r), np.linalg.cond(M, 1))):
            err = max(abs(Fraction(float(x)) - t) for x, t in zip(ours, true))
            scale = max(abs(t) for t in true)
            assert float(err) <= 4 * n * n * EPS * cond * float(scale)


class TestNonFiniteShiftedMatrix:
    """A NaN or infinite entry of M, or an overflow while building it,
    raises NearSingular naming the non-finite matrix: never a NaN
    solution, never the ValueError of getrs's finiteness scan."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_any_entry(self, value):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5):
            M0 = np.eye(n) - random_chain(rng, n).matrix + 1.0 / n
            for i in range(n):
                for j in range(n):
                    M = M0.copy()
                    M[i, j] = value
                    with pytest.raises(NearSingularError, match="not finite"):
                        ShiftedSystem(M, 1e-12)

    def test_overflowing_rates(self):
        # r.e = 1e308 is finite, but B + e r overflows in two entries
        B = np.array([[-1e308, 1e308, 0.0],
                      [0.0, -1e308, 1e308],
                      [1e308, 0.0, -1e308]])
        with pytest.raises(NearSingularError, match="not finite"):
            ctmc_potentials(B, [1.0, 0.0, 0.0], [1e308, -1e308, 1e308])

    def test_overflowing_policy_reference(self, models_dir):
        # r.e = 1e308 is finite, but r_S[1] = 1e308 + 1e308 overflows
        m = load_model(models_dir / "mdp_two_state.json").mdp
        with pytest.raises(NearSingularError, match="not finite"):
            qfactors_solve(m, [-1e308, 0.0, 1e308, 1e308])


def test_closed_form_eigenvalues_refuse_4x4():
    with pytest.raises(ValueError, match="only available up to 3x3"):
        _linalg.small_matrix_eigenvalues(np.eye(4))


class TestFactorLayout:
    """Every shifted factorization hands getrf the F-contiguous transpose
    of a C-ordered buffer, which LAPACK overwrites with the LU in place,
    with no copy and no finiteness scan."""

    @pytest.mark.parametrize("solve", [
        "potentials", "potentials_classic", "stationary", "fundamental_matrix",
        "ctmc_potentials", "ctmc_potentials_classic", "ctmc_stationary",
        "qfactors_solve"])
    def test_lu_factor_gets_fortran_buffer(self, monkeypatch, solve):
        rng = np.random.default_rng(3)
        P, B = random_chain(rng, 7), random_generator_matrix(rng, 7)
        f = rng.random(7)
        calls = {
            "potentials": lambda: potentials(P, f),
            "potentials_classic": lambda: potentials_classic(P, f),
            "stationary": lambda: stationary(P),
            "fundamental_matrix": lambda: fundamental_matrix(P),
            "ctmc_potentials": lambda: ctmc_potentials(B, f),
            "ctmc_potentials_classic": lambda: ctmc_potentials_classic(B, f),
            "ctmc_stationary": lambda: ctmc_stationary(B),
            "qfactors_solve": lambda: qfactors_solve(random_mdp(rng, 4, 2)),
        }
        factors = []
        real = _linalg.getrf

        def recorded(*args, **kwargs):
            factors.append((args, kwargs, real(*args, **kwargs)))
            return factors[-1][2]

        monkeypatch.setattr(_linalg, "getrf", recorded)
        calls[solve]()
        assert factors
        for (a, *rest), kwargs, (lu, _) in factors:
            assert (rest, kwargs) == ([], {})
            assert a.dtype == np.float64
            assert a.flags.f_contiguous and a.base.flags.c_contiguous
            assert np.shares_memory(lu, a.base)


class TestClassicRoutesFactorOnce:
    """The classical routes take pi and the uniform-r potentials from the
    one LU kept on the matrix, then shift g by a constant."""

    @pytest.mark.parametrize("route, make", [
        (potentials_classic, random_chain),
        (ctmc_potentials_classic, random_generator_matrix),
    ], ids=["potentials_classic", "ctmc_potentials_classic"])
    def test_one_lu(self, monkeypatch, route, make):
        rng = np.random.default_rng(5)
        source, f = make(rng, 7), rng.random(7)
        factors = count_calls(monkeypatch, _linalg, "getrf")
        route(source, f)
        assert len(factors) == 1
