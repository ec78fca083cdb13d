import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfmarkov import (
    GammaTooSmallError,
    NearSingularError,
    NotErgodicError,
    ctmc_potentials,
    ctmc_potentials_classic,
    ctmc_stationary,
    diagnose_chain,
    min_uniformization_rate,
    potentials,
    reference_vector,
    renormalize_potentials,
    stationary,
    uniformize,
    validate_generator,
    verify_generator_spectrum,
)
from gfmarkov import _linalg, model
from gfmarkov.gfm import NORM_MINUS_ETA

from conftest import (
    count_calls,
    random_generator_matrix,
    random_reference,
    reference_diagnose_chain,
    spectra_gap,
)

FLIP = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
E1 = reference_vector([1.0, 0.0])


def oracle_ctmc_stationary(B: np.ndarray) -> np.ndarray:
    n = B.shape[0]
    A = np.vstack([B.T, np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pi


class TestCtmcStationary:
    def test_hand_solve(self):
        # pi (B + e r) = r with B + e r = [[0, 1], [2, -1]] gives (0.5, 0.5)
        assert np.abs(ctmc_stationary(FLIP, E1).pi - [0.5, 0.5]).max() < 1e-14

    def test_one_state(self):
        pi = ctmc_stationary(validate_generator([[0.0]]), reference_vector([1.0]))
        assert pi.pi[0] == 1.0

    def test_against_oracle(self):
        B = validate_generator([[-2.0, 2.0], [1.0, -1.0]])
        pi = ctmc_stationary(B, reference_vector([0.5, 0.5])).pi
        assert np.abs(pi - [1 / 3, 2 / 3]).max() < 1e-12
        assert np.abs(pi - oracle_ctmc_stationary(B.matrix)).max() < 1e-10

    def test_r_invariance_and_balance(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            B = random_generator_matrix(rng, n)
            pi1 = ctmc_stationary(B, reference_vector(random_reference(rng, n))).pi
            pi2 = ctmc_stationary(B, reference_vector(random_reference(rng, n))).pi
            assert np.abs(pi1 - pi2).max() < 1e-8
            assert np.abs(pi1 @ B.matrix).max() < 1e-8
            assert abs(pi1.sum() - 1.0) < 1e-12

    def test_non_ergodic_rejected(self):
        B = validate_generator([[0.0, 0.0], [1.0, -1.0]])
        with pytest.raises(NotErgodicError):
            ctmc_stationary(B, E1)


class TestCtmcPotentials:
    def test_worked_two_state_example(self):
        sol = ctmc_potentials(FLIP, [1.0, 0.0], E1)
        assert np.abs(sol.g - [-0.5, -1.0]).max() < 1e-12
        assert abs(sol.eta - 0.5) < 1e-12
        # -B g = f - eta e and the forced sign convention r.g = -eta
        assert np.abs(-FLIP.matrix @ sol.g - ([1.0, 0.0] - sol.eta * np.ones(2))).max() < 1e-12
        assert abs(E1.values @ sol.g + sol.eta) < 1e-12
        assert sol.normalization == NORM_MINUS_ETA

    def test_one_state(self):
        for c in (2.0, -1.5):
            sol = ctmc_potentials(validate_generator([[0.0]]), [c],
                                  reference_vector([1.0]))
            assert sol.g[0] == pytest.approx(-c)
            assert sol.eta == pytest.approx(c)

    def test_constant_reward(self):
        r = reference_vector([0.25, 0.5])
        c = 1.2
        sol = ctmc_potentials(FLIP, [c, c], r)
        expect = -(c / r.dot_with_ones) * np.ones(2)
        assert np.abs(sol.g - expect).max() < 1e-12
        assert sol.eta == pytest.approx(c)

    def test_poisson_residual_and_offsets(self):
        rng = np.random.default_rng(103)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            B = random_generator_matrix(rng, n)
            f = rng.uniform(-1, 1, size=n)
            s1 = ctmc_potentials(B, f, reference_vector(random_reference(rng, n)))
            s2 = ctmc_potentials(B, f, reference_vector(random_reference(rng, n)))
            resid = -B.matrix @ s1.g - (f - s1.eta)
            assert np.abs(resid).max() <= 1e-8
            diff = s1.g - s2.g
            assert diff.max() - diff.min() <= 1e-8
            assert abs(s1.eta - s2.eta) <= 1e-8

    def test_g_and_pi_share_one_factorization(self, monkeypatch):
        rng = np.random.default_rng(109)
        B = random_generator_matrix(rng, 7)
        r = reference_vector(random_reference(rng, 7))
        f = rng.uniform(size=7)
        factors = count_calls(monkeypatch, _linalg, "getrf")
        sol = ctmc_potentials(B, f, r, allow_unchecked=True)
        assert len(factors) == 1
        # the shared LU gives the same pi as the stand-alone solve, bit for bit
        assert sol.eta == float(ctmc_stationary(B, r).pi @ f)

    def test_generator_keeps_its_lu_and_gate(self, monkeypatch):
        rng = np.random.default_rng(113)
        B = random_generator_matrix(rng, 7)
        f = rng.uniform(size=7)
        factors = count_calls(monkeypatch, _linalg, "getrf")
        gates = count_calls(monkeypatch, model, "_support_diagnostics")
        sol = ctmc_potentials(B, f)
        pi = ctmc_stationary(B)
        assert (len(factors), len(gates)) == (1, 1)
        assert sol.eta == float(pi.pi @ f)


class TestCtmcPotentialsClassic:
    def test_hand_solve(self):
        sol = ctmc_potentials_classic(FLIP, [1.0, 0.0])
        assert np.abs(sol.g - [0.75, 0.25]).max() < 1e-12
        assert sol.eta == pytest.approx(0.5)
        assert sol.reference.values @ sol.g == pytest.approx(sol.eta)
        resid = -FLIP.matrix @ sol.g - ([1.0, 0.0] - sol.eta * np.ones(2))
        assert np.abs(resid).max() < 1e-12

    def test_one_state(self):
        sol = ctmc_potentials_classic(validate_generator([[0.0]]), [4.0])
        assert sol.g[0] == pytest.approx(4.0)
        assert sol.eta == pytest.approx(4.0)

    def test_is_constant_shift_of_generic(self):
        rng = np.random.default_rng(107)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            B = random_generator_matrix(rng, n)
            f = rng.uniform(-1, 1, size=n)
            classic = ctmc_potentials_classic(B, f)
            generic = ctmc_potentials(B, f, reference_vector(random_reference(rng, n)))
            shifted = renormalize_potentials(generic, classic.reference)
            assert np.abs(classic.g - shifted.g).max() <= 1e-8

    def test_two_solves_on_one_factorization(self, monkeypatch):
        # the g solve and the pi solve behind eta; pi is not solved again
        rng = np.random.default_rng(127)
        B = random_generator_matrix(rng, 5)
        f = rng.uniform(size=5)
        factors = count_calls(monkeypatch, _linalg, "getrf")
        solves = count_calls(monkeypatch, _linalg, "getrs")
        sol = ctmc_potentials_classic(B, f)
        assert (len(factors), len(solves)) == (1, 2)
        pi = ctmc_stationary(B).pi
        assert np.array_equal(sol.reference.values, pi)


class TestUniformizationRelations:
    def test_stationary_consistency_across_gamma(self):
        rng = np.random.default_rng(109)
        for _ in range(15):
            n = int(rng.integers(2, 9))
            B = random_generator_matrix(rng, n)
            r = reference_vector(random_reference(rng, n))
            pi_proc = ctmc_stationary(B, r).pi
            base = min_uniformization_rate(B)
            for mult in (1.0 + 1e-6, 2.0, 10.0):
                P = uniformize(B, base * mult)
                pi_chain = stationary(P, r, allow_unchecked=True).pi
                assert np.abs(pi_proc - pi_chain).max() <= 1e-8

    def test_chain_potentials_shift_to_process_potentials(self):
        # g_chain from (uniformize(B, gamma), f / gamma) solves the same
        # continuous Poisson equation, so it differs from g_process by a
        # constant vector
        rng = np.random.default_rng(113)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            B = random_generator_matrix(rng, n)
            f = rng.uniform(-1, 1, size=n)
            r = reference_vector(random_reference(rng, n))
            gamma = min_uniformization_rate(B) * 1.7
            g_proc = ctmc_potentials(B, f, r).g
            g_chain = potentials(uniformize(B, gamma), f / gamma, r,
                                 allow_unchecked=True).g
            diff = g_chain - g_proc
            assert diff.max() - diff.min() <= 1e-8


class TestVerifyGeneratorSpectrum:
    def test_boundary_at_minimal_gamma(self):
        rep = verify_generator_spectrum(FLIP, 1.0, E1)
        assert rep.passed
        notes = [c.note for c in rep.checks if c.note]
        assert any("boundary" in n for n in notes)

    def test_strict_interior_above_minimum(self):
        rep = verify_generator_spectrum(FLIP, 1.5, E1)
        assert rep.passed
        disk = [c for c in rep.checks if c.name.endswith("gamma_disk")]
        assert disk and disk[0].residual == pytest.approx(0.5)
        assert not disk[0].note

    def test_one_state_trivial(self):
        rep = verify_generator_spectrum(validate_generator([[0.0]]), 1.0)
        assert rep.passed

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_gamma_not_finite(self, gamma):
        with pytest.raises(GammaTooSmallError) as e:
            verify_generator_spectrum(FLIP, gamma, E1)
        assert set(e.value.detail) == {"gamma", "min_rate"}

    def test_small_sizes_against_numpy(self):
        rng = np.random.default_rng(127)
        for n in (2, 3):
            for _ in range(15):
                B = random_generator_matrix(rng, n)
                r = random_reference(rng, n)
                gamma = min_uniformization_rate(B) * 2.0
                rep = verify_generator_spectrum(B, gamma, reference_vector(r))
                assert rep.passed, [c for c in rep.checks if not c.passed]
                D = B.matrix + np.outer(np.ones(n), r)
                from gfmarkov._linalg import small_matrix_eigenvalues
                assert spectra_gap(small_matrix_eigenvalues(D),
                                   np.linalg.eigvals(D)) < 1e-8


class TestDiagnoseGenerator:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
           density=st.floats(0.02, 0.5), ring=st.booleans())
    def test_matches_uniformized_chain_diagnosis(self, seed, n, density, ring):
        # rates log-uniform in [1e-3, 1e3]; a ring of rates makes B
        # ergodic, a sparse support alone usually does not
        rng = np.random.default_rng(seed)
        rates = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, n))
        off = rates * (rng.random((n, n)) < density)
        if ring:
            off[np.arange(n), (np.arange(n) + 1) % n] += rates[:, 0]
        np.fill_diagonal(off, 0.0)
        B = validate_generator(off - np.diag(off.sum(axis=1)))
        gamma = min_uniformization_rate(B) + 1.0
        expected = reference_diagnose_chain(uniformize(B, gamma))
        assert diagnose_chain(B) == expected
        if ring and n > 1:
            assert expected.irreducible

    def test_rate_whose_quotient_underflows_is_an_edge(self):
        # 1e-30 / gamma is 0.0 at gamma = 1e300 + 1, yet the rate is
        # positive: the process is ergodic, and the solve then hits the
        # pivot floor
        B = validate_generator([[-1e300, 1e300], [1e-30, -1e-30]])
        assert diagnose_chain(B).irreducible
        with pytest.raises(NearSingularError):
            ctmc_stationary(B)
