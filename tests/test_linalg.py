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
from gfmarkov._linalg import ShiftedSystem

from conftest import (
    count_calls,
    random_chain,
    random_generator_matrix,
    random_mdp,
    random_reference,
    reference_shifted_lu,
)


def _sparse_irreducible(rng: np.random.Generator, n: int, density: float):
    """Nonnegative weights with exact zeros, kept irreducible by a ring."""
    W = rng.random((n, n)) * (rng.random((n, n)) < density)
    W[np.arange(n), (np.arange(n) + 1) % n] += 0.5
    return W


class TestShiftedSystemMatchesOracle:
    """for_chain / for_rates against the literal C-ordered build.

    Both write the same entries in the same order of operations, so every
    solve must be bit-identical to the oracle's.
    """

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           density=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
           zero_r=st.booleans(), rates=st.booleans())
    def test_random_systems(self, seed, n, density, zero_r, rates):
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
            system = ShiftedSystem.for_rates(A, r, 1e-12)
        else:
            P = W / W.sum(axis=1, keepdims=True)
            A = np.eye(n) - P
            system = ShiftedSystem.for_chain(P, r, 1e-12)
        lu_piv = reference_shifted_lu(A, r)
        b = rng.normal(size=n)
        assert np.array_equal(system.solve(b), scipy.linalg.lu_solve(lu_piv, b))
        assert np.array_equal(system.solve_row(b),
                              scipy.linalg.lu_solve(lu_piv, b, trans=1))
        assert np.array_equal(system.inverse(),
                              scipy.linalg.lu_solve(lu_piv, np.eye(n)))


class TestFactorLayout:
    """Every shifted factorization gets one column-major float64 buffer that
    LAPACK may overwrite, so lu_factor makes no copy of it."""

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
        factors = count_calls(monkeypatch, scipy.linalg, "lu_factor")
        calls[solve]()
        assert factors
        for args, kwargs in factors:
            a = args[0]
            assert a.dtype == np.float64
            assert a.flags.f_contiguous
            assert kwargs.get("overwrite_a") is True
