import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfmarkov import (
    DimensionMismatchError,
    NearSingularError,
    NotAperiodicError,
    NotErgodicError,
    NotIrreducibleError,
    ReferenceDegenerateError,
    SeriesDivergentError,
    StochasticMatrix,
    Tolerances,
    fundamental_matrix,
    potentials,
    potentials_classic,
    potentials_reference_level,
    qfactors_solve,
    reference_vector,
    renormalize_potentials,
    series_fundamental,
    spectral_radius_estimate,
    stationary,
    uniform_reference,
    validate_generator,
    validate_mdp,
    validate_stochastic,
    verify_spectral_shift,
)
from gfmarkov import _linalg, model
from gfmarkov.ctmc import (
    ctmc_potentials,
    ctmc_potentials_classic,
    ctmc_stationary,
)
from gfmarkov._linalg import small_matrix_eigenvalues
from gfmarkov.errors import ReferenceNotDistributionLikeError
from gfmarkov.gfm import NORM_ETA

from conftest import (
    count_calls,
    oracle_potentials,
    oracle_stationary,
    random_chain,
    random_generator_matrix,
    random_periodic_chain,
    random_reference,
    reference_ctmc_potentials_classic,
    reference_potentials_classic,
    reference_series_fundamental,
    spectra_gap,
    termwise_series_fundamental,
)

SYM = validate_stochastic([[0.5, 0.5], [0.5, 0.5]])
LOPSIDED = validate_stochastic([[0.9, 0.1], [0.2, 0.8]])
E1 = reference_vector([1.0, 0.0])
HALF = reference_vector([0.5, 0.5])
# r.e ~ 7.1e-12, just above the re_tol floor: the LU of I - P + e r
# passes its pivot check, but pi and eta come out wrong
GUARD_P = [[0.9999964316829352, 3.5683170647280886e-06],
           [0.7382560348921869, 0.2617439651078131]]
GUARD_R = [1.0504674632795423, -1.0504674632724371]


class TestFundamentalMatrix:
    def test_hand_inverted_2x2(self):
        # (I - P + e r) = [[1.5, -0.5], [0.5, 0.5]], det 1
        fm = fundamental_matrix(SYM, E1)
        assert np.abs(fm.Z - [[0.5, 0.5], [-0.5, 1.5]]).max() < 1e-14

    def test_identity_when_shift_cancels(self):
        fm = fundamental_matrix(SYM, HALF)
        assert np.abs(fm.Z - np.eye(2)).max() < 1e-14

    def test_one_state(self):
        fm = fundamental_matrix(validate_stochastic([[1.0]]),
                                reference_vector([1.0]))
        assert fm.Z[0, 0] == pytest.approx(1.0)

    def test_matches_generic_inverse(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            P = random_chain(rng, n)
            r = random_reference(rng, n)
            fm = fundamental_matrix(P, reference_vector(r))
            M = np.eye(n) - P.matrix + np.outer(np.ones(n), r)
            assert np.abs(fm.Z - np.linalg.inv(M)).max() < 1e-10

    def test_inverse_identity_residual(self):
        rng = np.random.default_rng(29)
        for n in range(2, 17):
            P = random_chain(rng, n)
            r = reference_vector(random_reference(rng, n))
            fm = fundamental_matrix(P, r)
            M = np.eye(n) - P.matrix + np.outer(np.ones(n), r.values)
            assert np.abs(M @ fm.Z - np.eye(n)).max() <= 1e-10 * n

    def test_z_times_ones(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            P = random_chain(rng, n)
            r = reference_vector(random_reference(rng, n))
            Z = fundamental_matrix(P, r).Z
            resid = np.abs(Z @ np.ones(n) - 1.0 / r.dot_with_ones).max()
            assert resid < 1e-10 * n

    def test_rejects_reducible(self):
        P = validate_stochastic([[1, 0], [0.5, 0.5]])
        with pytest.raises(NotIrreducibleError):
            fundamental_matrix(P, E1)

    def test_allow_unchecked_skips_structure(self):
        P = validate_stochastic([[1, 0], [0.5, 0.5]])
        fm = fundamental_matrix(P, E1, allow_unchecked=True)
        assert np.isfinite(fm.Z).all()

    def test_one_factorization_and_one_block_solve(self, monkeypatch):
        factors = count_calls(monkeypatch, _linalg, "getrf")
        solves = count_calls(monkeypatch, _linalg, "getrs")
        P = random_chain(np.random.default_rng(37), 6)
        fundamental_matrix(P, uniform_reference(6))
        assert len(factors) == 1
        assert len(solves) == 1


def _solve(P, op: str, r, f) -> tuple:
    """The arrays and floats one public shifted-matrix call returns."""
    if op == "potentials":
        sol = potentials(P, f, r)
        return sol.g, sol.eta
    if op == "stationary":
        return (stationary(P, r).pi,)
    fm = fundamental_matrix(P, r)
    return fm.Z, fm.condition_estimate


def _same_bits(a: tuple, b: tuple) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


class TestFactorizationMemo:
    """A validated chain keeps its last LU of I - P + e r and its last gate."""

    def test_one_lu_and_one_gate_for_g_pi_and_z(self, monkeypatch):
        rng = np.random.default_rng(41)
        P = random_chain(rng, 8)
        r = reference_vector(random_reference(rng, 8))
        factors = count_calls(monkeypatch, _linalg, "getrf")
        gates = count_calls(monkeypatch, model, "_support_diagnostics")
        potentials(P, rng.uniform(size=8), r)
        stationary(P, reference_vector(r.values.copy()))
        fundamental_matrix(P, r)
        assert (len(factors), len(gates)) == (1, 1)

    # (LUs, gate passes) after the second call, then after going back to
    # the first key: only the last entry is kept
    @pytest.mark.parametrize("change, second, back", [
        ("r", (2, 1), (3, 1)), ("pivot_tol", (2, 1), (3, 1)),
        ("edge_tol", (1, 2), (1, 3))])
    def test_new_key_makes_a_new_entry(self, monkeypatch, change, second,
                                       back):
        P = random_chain(np.random.default_rng(43), 6)
        r, cfg = uniform_reference(6), Tolerances()
        other_r, other_cfg = r, cfg
        if change == "r":
            other_r = reference_vector(np.eye(6)[0])
        else:
            other_cfg = dataclasses.replace(
                cfg, **{change: 2 * getattr(cfg, change) or 1e-6})
        factors = count_calls(monkeypatch, _linalg, "getrf")
        gates = count_calls(monkeypatch, model, "_support_diagnostics")
        potentials(P, np.ones(6), r, cfg=cfg)
        stationary(P, other_r, cfg=other_cfg)
        assert (len(factors), len(gates)) == second
        fundamental_matrix(P, r, cfg=cfg)
        assert (len(factors), len(gates)) == back

    def test_near_singular_is_not_stored(self, monkeypatch):
        P = validate_stochastic(np.eye(2))  # two closed classes
        factors = count_calls(monkeypatch, _linalg, "getrf")
        for _ in range(2):
            with pytest.raises(NearSingularError):
                potentials(P, [1.0, 0.0], allow_unchecked=True)
        assert len(factors) == 2

    def test_stored_gate_verdict_still_raises(self, monkeypatch):
        reducible = validate_stochastic(np.eye(2))
        periodic = random_periodic_chain(4)
        gates = count_calls(monkeypatch, model, "_support_diagnostics")
        for _ in range(2):
            with pytest.raises(NotIrreducibleError):
                potentials(reducible, [1.0, 0.0])
            with pytest.raises(NotAperiodicError):
                series_fundamental(periodic, None, 5)
        assert len(gates) == 2

    def test_repr_and_equality_ignore_the_memo(self):
        P = random_chain(np.random.default_rng(47), 3)
        fresh = dataclasses.replace(P)
        potentials(P, [1.0, 0.0, 0.0])
        assert repr(P) == repr(fresh) == (
            f"StochasticMatrix(matrix={P.matrix!r}, max_correction=0.0)")
        assert P == fresh

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           calls=st.lists(st.tuples(
               st.sampled_from(["potentials", "stationary", "fundamental"]),
               st.integers(0, 1)), min_size=1, max_size=8))
    def test_results_match_a_fresh_object(self, seed, n, calls):
        rng = np.random.default_rng(seed)
        P = random_chain(rng, n)
        refs = [reference_vector(random_reference(rng, n)) for _ in range(2)]
        f = rng.uniform(size=n)
        for op, k in calls:
            fresh = StochasticMatrix(P.matrix, P.max_correction)
            assert _same_bits(_solve(P, op, refs[k], f),
                              _solve(fresh, op, refs[k], f)), (op, k)

    def test_threads_sharing_one_chain_get_identical_bits(self):
        rng = np.random.default_rng(53)
        n = 40
        P = random_chain(rng, n)
        refs = [reference_vector(random_reference(rng, n)) for _ in range(2)]
        f = rng.uniform(size=n)
        plan = [(op, k) for k in (0, 1, 1, 0)
                for op in ("potentials", "stationary", "fundamental")]
        expected = {(op, k): _solve(StochasticMatrix(P.matrix), op, refs[k], f)
                    for op, k in set(plan)}
        start = threading.Barrier(4)
        mismatches: list = []

        def worker(shift: int) -> None:
            start.wait(timeout=30)
            for i in range(20 * len(plan)):
                op, k = plan[(i + shift) % len(plan)]
                if not _same_bits(_solve(P, op, refs[k], f), expected[op, k]):
                    mismatches.append((op, k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(3 * i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []


class TestStationary:
    def test_hand_value_sym(self):
        assert np.abs(stationary(SYM, E1).pi - [0.5, 0.5]).max() < 1e-14

    def test_against_oracle(self):
        expect = oracle_stationary(np.asarray(LOPSIDED.matrix))
        assert np.abs(expect - [2 / 3, 1 / 3]).max() < 1e-12
        for r in (E1, HALF, reference_vector([0.2, 1.1])):
            assert np.abs(stationary(LOPSIDED, r).pi - expect).max() < 1e-10

    def test_one_state_any_reference(self):
        pi = stationary(validate_stochastic([[1.0]]), reference_vector([5.0]))
        assert pi.pi[0] == pytest.approx(1.0)

    def test_r_invariance_and_identities(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            P = random_chain(rng, n)
            r1 = reference_vector(random_reference(rng, n))
            r2 = reference_vector(random_reference(rng, n))
            pi1 = stationary(P, r1).pi
            pi2 = stationary(P, r2).pi
            assert np.abs(pi1 - pi2).max() < 1e-8
            assert np.abs(pi1 @ P.matrix - pi1).max() <= 1e-8
            assert abs(pi1.sum() - 1.0) <= 1e-8
            assert pi1.min() >= 0.0

    def test_periodic_chain_still_solvable(self):
        # direct solves only need irreducibility
        P = random_periodic_chain(4)
        pi = stationary(P, uniform_reference(4)).pi
        assert np.abs(pi - 0.25).max() < 1e-10

    @pytest.mark.parametrize("process", [False, True],
                             ids=["chain", "rate-matrix"])
    def test_negative_entry_guard(self, monkeypatch, process):
        # pi has an entry far below -solve_tol
        P = validate_stochastic(GUARD_P)
        r = reference_vector(GUARD_R)
        assert 0 < r.dot_with_ones < 1e-11
        source = (validate_generator(np.asarray(P.matrix) - np.eye(2))
                  if process else P)
        solve = ctmc_stationary if process else stationary
        factors = count_calls(monkeypatch, _linalg, "getrf")
        # the memo keeps the LU, not a verdict on pi: each call raises
        for _ in range(2):
            with pytest.raises(NearSingularError) as exc:
                solve(source, r, allow_unchecked=True)
            assert exc.value.code == "NearSingular"
            assert exc.value.detail["min_entry"] < -Tolerances().solve_tol_for(2)
        assert len(factors) == 1


class TestPotentials:
    def test_hand_values(self):
        sol = potentials(SYM, [1.0, 0.0], E1)
        assert np.abs(sol.g - [0.5, -0.5]).max() < 1e-14
        assert sol.eta == pytest.approx(0.5)

    def test_shift_cancellation_gives_f(self):
        sol = potentials(SYM, [1.0, 0.0], HALF)
        assert np.abs(sol.g - [1.0, 0.0]).max() < 1e-14
        assert sol.eta == pytest.approx(0.5)

    def test_one_state(self):
        for c in (-2.5, 0.0, 3.0):
            sol = potentials(validate_stochastic([[1.0]]), [c],
                             reference_vector([1.0]))
            assert sol.g[0] == pytest.approx(c)
            assert sol.eta == pytest.approx(c)

    def test_against_poisson_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            P = random_chain(rng, n)
            f = rng.uniform(-1, 1, size=n)
            r = random_reference(rng, n)
            g_exp, eta_exp = oracle_potentials(np.asarray(P.matrix), f, r)
            sol = potentials(P, f, reference_vector(r))
            assert abs(sol.eta - eta_exp) < 1e-9
            assert np.abs(sol.g - g_exp).max() < 1e-8

    def test_poisson_residual_and_normalization(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            P = random_chain(rng, n)
            f = rng.uniform(-1, 1, size=n)
            r = reference_vector(random_reference(rng, n))
            sol = potentials(P, f, r)
            resid = sol.g - f + sol.eta - P.matrix @ sol.g
            assert np.abs(resid).max() <= 1e-8
            assert abs(r.values @ sol.g - sol.eta) <= 1e-10 * n

    def test_constant_offset_family(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            P = random_chain(rng, n)
            f = rng.uniform(-1, 1, size=n)
            s1 = potentials(P, f, reference_vector(random_reference(rng, n)))
            s2 = potentials(P, f, reference_vector(random_reference(rng, n)))
            diff = s1.g - s2.g
            assert diff.max() - diff.min() <= 1e-8
            assert abs(s1.eta - s2.eta) <= 1e-8

    def test_eta_equals_stationary_reward(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            P = random_chain(rng, n)
            f = rng.uniform(-1, 1, size=n)
            r = reference_vector(random_reference(rng, n))
            sol = potentials(P, f, r)
            pi = stationary(P, r).pi
            assert abs(sol.eta - pi @ f) <= 1e-8


class TestEtaBound:
    """eta = r.g equals pi.f in exact arithmetic, so it lies in
    [min f, max f]; outside that range widened by
    solve_tol_for(n) * max(1, max |f|) it is NearSingular."""

    def test_guard_chain_with_signed_r(self):
        # g ~ -6e10 and eta 1.0000030 on the parent's code, exit 0
        P = validate_stochastic(GUARD_P)
        with pytest.raises(NearSingularError, match="average reward") as exc:
            potentials(P, [1.0, 0.0], reference_vector(GUARD_R))
        assert exc.value.detail["eta"] > 1.0 + Tolerances().solve_tol_for(2)

    def test_qfactors_inherit_the_bound(self):
        # one action per state: the policy chain is the guard chain
        m = validate_mdp(np.asarray(GUARD_P)[:, None, :], [[1.0], [0.0]],
                         [[1.0], [1.0]])
        with pytest.raises(NearSingularError, match="average reward"):
            qfactors_solve(m, GUARD_R)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           ring=st.booleans())
    def test_random_chains_with_signed_r_pass(self, seed, n, ring):
        # dense chains, and lazy rings, the slowest mixers here; r.e in
        # [0.1, 1.9] with signed entries, f over six decades of scale
        rng = np.random.default_rng(seed)
        if ring:
            stay = rng.uniform(0.05, 0.9)
            ahead = (1.0 - stay) * rng.uniform()
            eye = np.eye(n)
            P = validate_stochastic(stay * eye
                                    + ahead * np.roll(eye, 1, axis=1)
                                    + (1.0 - stay - ahead) * np.roll(eye, -1, axis=1))
        else:
            P = random_chain(rng, n)
        r = reference_vector(random_reference(rng, n))
        f = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        potentials(P, f, r)


class TestInputLengths:
    @pytest.mark.parametrize("solve, model", [
        (potentials, LOPSIDED), (ctmc_potentials, [[-1.0, 1.0], [2.0, -2.0]])],
        ids=["potentials", "ctmc_potentials"])
    @pytest.mark.parametrize("f, r, name", [
        ([1.0, 0.0, 2.0], E1, "reward"), ([1.0, 0.0], [1.0, 0.0, 0.0], "reference")])
    def test_wrong_length(self, solve, model, f, r, name):
        with pytest.raises(DimensionMismatchError) as exc:
            solve(model, f, r)
        assert str(exc.value) == f"{name} vector has length 3, expected 2"
        assert exc.value.detail == {"expected": 2, "got": 3}


class TestPotentialsClassic:
    def test_sym_chain(self):
        # pi = (0.5, 0.5); solving with r = pi gives g = (1, 0), pi.g = eta
        sol = potentials_classic(SYM, [1.0, 0.0])
        assert np.abs(sol.g - [1.0, 0.0]).max() < 1e-12
        assert sol.eta == pytest.approx(0.5)
        assert sol.reference.values @ sol.g == pytest.approx(sol.eta)

    def test_one_state(self):
        sol = potentials_classic(validate_stochastic([[1.0]]), [3.0])
        assert sol.g[0] == pytest.approx(3.0)
        assert sol.eta == pytest.approx(3.0)

    def test_lopsided_eta_and_residual(self):
        sol = potentials_classic(LOPSIDED, [1.0, 0.0])
        assert sol.eta == pytest.approx(2 / 3, abs=1e-12)
        resid = sol.g - [1.0, 0.0] + sol.eta - LOPSIDED.matrix @ sol.g
        assert np.abs(resid).max() < 1e-12

    def test_equals_renormalized_generic_solution(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            P = random_chain(rng, n)
            f = rng.uniform(-1, 1, size=n)
            r = reference_vector(random_reference(rng, n))
            classic = potentials_classic(P, f)
            pi = stationary(P, r).pi
            shifted = renormalize_potentials(potentials(P, f, r), pi)
            assert np.abs(classic.g - shifted.g).max() <= 1e-8


class TestClassicRoutesMatchOracle:
    """One LU and a constant shift give the two-LU classical routes' g to
    rounding, the same pi reference, and for a rate matrix the same eta,
    since both take it as pi.f."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 59))
    def test_random_dense(self, seed, n):
        rng = np.random.default_rng(seed)
        P, B = random_chain(rng, n), random_generator_matrix(rng, n)
        f = rng.uniform(-1.0, 1.0, n)
        for route, oracle, source in (
                (potentials_classic, reference_potentials_classic, P),
                (ctmc_potentials_classic, reference_ctmc_potentials_classic, B)):
            got, want = route(source, f), oracle(source, f)
            scale = max(1.0, float(np.abs(want.g).max()))
            assert float(np.abs(got.g - want.g).max()) <= 1e-12 * scale
            assert abs(got.eta - want.eta) <= 1e-12 * scale
            assert np.array_equal(got.reference.values, want.reference.values)
            assert got.normalization == want.normalization == NORM_ETA
        assert got.eta == want.eta


# state 0 is transient, so neither is irreducible, but the unit (zero)
# eigenvalue is simple: pi = (0, 6/13, 7/13) and (0, 3/5, 2/5)
UNICHAIN_P = [[0.5, 0.5, 0.0], [0.0, 0.3, 0.7], [0.0, 0.6, 0.4]]
UNICHAIN_B = [[-1.0, 1.0, 0.0], [0.0, -2.0, 2.0], [0.0, 3.0, -3.0]]
IRREDUCIBLE_P = [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.0, 0.6, 0.4]]
IRREDUCIBLE_B = [[-1.0, 1.0, 0.0], [1.0, -3.0, 2.0], [0.0, 3.0, -3.0]]
F3 = [1.0, 0.0, 2.0]


class TestCompositeRoutesPassTheFlag:
    """The routes built from other public solves hand allow_unchecked on:
    the first inner call gates, the others read its verdict."""

    ROUTES = pytest.mark.parametrize("route, validate, unichain, irreducible, "
                                     "error, eta", [
        (potentials_classic, validate_stochastic, UNICHAIN_P, IRREDUCIBLE_P,
         NotIrreducibleError, 14 / 13),
        (ctmc_potentials_classic, validate_generator, UNICHAIN_B,
         IRREDUCIBLE_B, NotErgodicError, 0.8),
        (potentials_reference_level, validate_stochastic, UNICHAIN_P,
         IRREDUCIBLE_P, NotIrreducibleError, 14 / 13),
    ], ids=["classic", "ctmc-classic", "reference-level"])

    @ROUTES
    def test_unichain_refused_unless_unchecked(self, route, validate, unichain,
                                               irreducible, error, eta):
        with pytest.raises(error):
            route(validate(unichain), F3)
        sol = route(validate(unichain), F3, allow_unchecked=True)
        assert sol.eta == pytest.approx(eta, abs=1e-12)

    @ROUTES
    def test_one_support_pass(self, monkeypatch, route, validate, unichain,
                              irreducible, error, eta):
        passes = count_calls(monkeypatch, model, "_support_diagnostics")
        route(validate(irreducible), F3)
        assert len(passes) == 1


class TestRenormalize:
    def test_hand_shift(self):
        sol = potentials(SYM, [1.0, 0.0], HALF)  # g = (1, 0), eta = 0.5
        out = renormalize_potentials(sol, E1)
        assert np.abs(out.g - [0.5, -0.5]).max() < 1e-14
        assert out.eta == sol.eta

    def test_already_normalized_is_identity(self):
        sol = potentials(SYM, [1.0, 0.0], E1)
        out = renormalize_potentials(sol, E1)
        assert np.array_equal(out.g, sol.g)

    def test_degenerate_target_rejected(self):
        sol = potentials(SYM, [1.0, 0.0], E1)
        with pytest.raises(ReferenceDegenerateError):
            renormalize_potentials(sol, [0.5, -0.5])


class TestSeriesFundamental:
    def test_zero_matrix_terms_zero(self):
        fm = series_fundamental(SYM, HALF, 0)
        assert np.array_equal(fm.Z, np.eye(2))
        assert fm.tail_norm == 0.0

    def test_converges_to_direct_solve(self):
        exact = fundamental_matrix(SYM, E1).Z
        fm = series_fundamental(SYM, E1, 50)
        assert np.abs(fm.Z - exact).max() < 1e-10

    def test_divergent_outside_interval(self):
        for re_target in (-0.5, 2.0, 2.5):
            r = reference_vector(np.array([0.6, 0.4]) * re_target)
            with pytest.raises(SeriesDivergentError):
                series_fundamental(LOPSIDED, r, 10)

    def test_inside_interval_accepted(self):
        for re_target in (0.5, 1.0, 1.5):
            r = reference_vector(np.array([0.6, 0.4]) * re_target)
            fm = series_fundamental(LOPSIDED, r, 200)
            exact = fundamental_matrix(LOPSIDED, r).Z
            assert np.abs(fm.Z - exact).max() < 1e-8

    def test_periodic_chain_refused(self):
        P = random_periodic_chain(3)
        with pytest.raises(NotAperiodicError):
            series_fundamental(P, uniform_reference(3), 10)

    def test_tail_bound_controls_error(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            P = random_chain(rng, n)
            r = reference_vector(random_reference(rng, n, 0.3, 1.7))
            exact = fundamental_matrix(P, r).Z
            for terms in (8, 32, 128):
                fm = series_fundamental(P, r, terms)
                if fm.tail_norm < 1e-8:
                    assert np.abs(fm.Z - exact).max() < 1e-8


class TestSeriesFundamentalMatchesOracle:
    """The binary-doubling series against the term-by-term oracle loop.

    Both sum the same powers in a different order, so Z must agree within
    4 eps (T+1) max(1, |M|inf) max(1, |Z|inf), and tail_norm within 1e-7
    relative plus that same bound.
    """

    EDGES = sorted({2**k + d for k in range(10) for d in (-1, 0, 1)
                    if 0 <= 2**k + d <= 600})

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
           terms=st.one_of(st.integers(0, 600), st.sampled_from(EDGES)))
    def test_random_chains(self, seed, n, terms):
        rng = np.random.default_rng(seed)
        P = random_chain(rng, n)
        r = reference_vector(random_reference(rng, n))
        new = series_fundamental(P, r, terms)
        ref = termwise_series_fundamental(P, r, terms)

        M = P.matrix - np.outer(np.ones(n), r.values)
        norm_m = float(np.abs(M).sum(axis=1).max())
        norm_z = float(np.abs(ref.Z).sum(axis=1).max())
        tol = (4 * np.finfo(float).eps * (terms + 1)
               * max(1.0, norm_m) * max(1.0, norm_z))
        assert new.terms == ref.terms == terms
        assert float(np.abs(new.Z - ref.Z).max()) <= tol
        assert abs(new.tail_norm - ref.tail_norm) <= 1e-7 * ref.tail_norm + tol


def _same_series(P, r, terms):
    """series_fundamental bit for bit as the loop that takes every product;
    returns the oracle's tail_norm."""
    new = series_fundamental(P, r, terms)
    ref = reference_series_fundamental(P, r, terms)
    assert new.Z.tobytes() == ref.Z.tobytes()
    assert new.tail_norm.hex() == ref.tail_norm.hex()
    assert new.terms == ref.terms == terms
    return ref.tail_norm


class TestSeriesStopsAtZeroPower:
    """Leaving the doubling loop at an exactly-zero power changes no bit."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30))
    def test_fast_mixers(self, seed, n):
        # strictly positive rows and |1 - r.e| <= 1/2: the power underflows
        # to exactly zero long before 4096 terms
        rng = np.random.default_rng(seed)
        P = random_chain(rng, n)
        r = reference_vector(random_reference(rng, n, 0.5, 1.5))
        assert _same_series(P, r, 4096) == 0.0

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), a=st.floats(1e-3, 0.05),
           b=st.floats(1e-3, 0.05), terms=st.integers(0, 4096))
    def test_slow_mixers(self, seed, a, b, terms):
        # second eigenvalue 1 - a - b >= 0.9: 0.9^4097 is far above the
        # smallest double, so the power never reaches zero
        rng = np.random.default_rng(seed)
        P = validate_stochastic([[1.0 - a, a], [b, 1.0 - b]])
        r = reference_vector(random_reference(rng, 2, 0.5, 1.5))
        assert _same_series(P, r, terms) > 0.0

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20),
           terms=st.one_of(st.integers(0, 4096),
                           st.sampled_from([0, 1, 2, 4095, 4096])))
    def test_any_terms(self, seed, n, terms):
        rng = np.random.default_rng(seed)
        P = random_chain(rng, n)
        r = reference_vector(random_reference(rng, n))
        _same_series(P, r, terms)

    def test_zero_shifted_matrix(self):
        # rows equal to r make P - e r itself exactly zero
        P = validate_stochastic([[0.25, 0.75], [0.25, 0.75]])
        r = reference_vector([0.25, 0.75])
        for terms in (0, 1, 4096):
            assert _same_series(P, r, terms) == 0.0


class TestReferenceLevel:
    def test_fast_mixing_chain(self):
        # exact potentials normalized to r.g = 0 are (0, -1) here
        sol = potentials_reference_level(SYM, [1.0, 0.0], E1, 30)
        assert np.abs(sol.g - [0.0, -1.0]).max() < 1e-9
        assert sol.eta == pytest.approx(0.5)
        assert float(np.array([1.0, 0.0]) @ sol.g) == pytest.approx(0.0, abs=1e-12)

    def test_constant_reward_gives_zero(self):
        for c in (0.7, -2.0):
            sol = potentials_reference_level(SYM, [c, c], E1, 5)
            assert np.abs(sol.g).max() < 1e-12

    def test_error_decreases_with_horizon(self):
        f = np.array([1.0, 0.0])
        exact = potentials(LOPSIDED, f, E1)
        target = exact.g - float(np.array([1.0, 0.0]) @ exact.g)
        errs = []
        for T in (1, 30):
            sol = potentials_reference_level(LOPSIDED, f, E1, T)
            errs.append(np.abs(sol.g - target).max())
        assert errs[1] < errs[0]

    def test_matches_exact_once_mixed(self):
        rng = np.random.default_rng(67)
        checked = 0
        for _ in range(10):
            n = int(rng.integers(2, 6))
            P = random_chain(rng, n, floor=0.1)
            f = rng.uniform(-1, 1, size=n)
            r_raw = rng.dirichlet(np.ones(n))
            r = reference_vector(r_raw)
            pi = stationary(P, r).pi
            T = 40
            mixing = np.abs(np.linalg.matrix_power(P.matrix, T)
                            - np.outer(np.ones(n), pi)).max()
            if mixing > 1e-9:
                continue
            sol = potentials_reference_level(P, f, r, T)
            exact = potentials(P, f, r)
            target = exact.g - float(r.values @ exact.g) / r.dot_with_ones
            assert np.abs(sol.g - target).max() <= 1e-8
            checked += 1
        assert checked >= 5

    def test_requires_unit_mass_reference(self):
        with pytest.raises(ReferenceNotDistributionLikeError):
            potentials_reference_level(SYM, [1.0, 0.0],
                                       reference_vector([1.0, 0.5]), 10)


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert spectral_radius_estimate(np.zeros((3, 3))).value == 0.0

    def test_nilpotent_two_state(self):
        M = SYM.matrix - np.outer(np.ones(2), [1.0, 0.0])
        assert np.abs(M @ M).max() == 0.0
        assert spectral_radius_estimate(M, 100, 0).value == 0.0

    def test_known_two_state_value(self):
        # eigenvalues of P - e r are {1 - r.e, 0.7} = {-0.5, 0.7}
        r = np.array([0.75, 0.75])
        M = LOPSIDED.matrix - np.outer(np.ones(2), r)
        est = spectral_radius_estimate(M, 300, 0)
        assert est.value == pytest.approx(0.7, abs=1e-9)
        assert float(est) < 1.0

    def test_divergence_boundary(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            P = random_chain(rng, n)
            for re_target in (-1e-12, 1e-12, 2.0 + 1e-6):
                r = random_reference(rng, n, 0.5, 1.5)
                r = r * (re_target / r.sum())
                M = P.matrix - np.outer(np.ones(n), r)
                est = spectral_radius_estimate(M, 600, 1)
                assert est.value >= 1.0 - 1e-6


class TestVerifySpectralShift:
    def test_sym_chain_double_unit_eigenvalue(self):
        rep = verify_spectral_shift(SYM, E1)
        assert rep.passed
        spectrum = small_matrix_eigenvalues(
            np.eye(2) - SYM.matrix + np.outer(np.ones(2), E1.values))
        assert sorted(x.real for x in spectrum) == pytest.approx([1.0, 1.0])

    def test_lopsided_expected_spectrum(self):
        rep = verify_spectral_shift(LOPSIDED, HALF)
        assert rep.passed
        spectrum = small_matrix_eigenvalues(
            np.eye(2) - LOPSIDED.matrix + np.outer(np.ones(2), HALF.values))
        assert sorted(x.real for x in spectrum) == pytest.approx([0.3, 1.0])

    def test_ones_identity_any_size(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            P = random_chain(rng, n)
            r = reference_vector(random_reference(rng, n))
            rep = verify_spectral_shift(P, r)
            assert rep.checks[0].name == "ones_column_eigenvector"
            assert rep.checks[0].passed

    def test_small_sizes_against_numpy_eigensolver(self):
        rng = np.random.default_rng(79)
        for n in (2, 3):
            for _ in range(20):
                P = random_chain(rng, n)
                r = random_reference(rng, n)
                rep = verify_spectral_shift(P, reference_vector(r))
                assert rep.passed, [c for c in rep.checks if not c.passed]
                M = np.eye(n) - P.matrix + np.outer(np.ones(n), r)
                ours = small_matrix_eigenvalues(M)
                theirs = np.linalg.eigvals(M)
                assert spectra_gap(ours, theirs) < 1e-8


class TestClosedFormRoots:
    def test_constructed_polynomials(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            roots = rng.uniform(-2, 2, size=3)
            M = np.diag(roots) + np.triu(rng.normal(size=(3, 3)), 1)
            ours = small_matrix_eigenvalues(M)
            assert spectra_gap(ours, roots.astype(complex)) < 1e-9

    def test_complex_pair(self):
        M = np.array([[0.0, -1.0], [1.0, 0.0]])  # eigenvalues +-i
        ours = small_matrix_eigenvalues(M)
        assert spectra_gap(ours, np.array([1j, -1j])) < 1e-12

    def test_rotation_3x3(self):
        c, s = np.cos(0.7), np.sin(0.7)
        M = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        assert spectra_gap(small_matrix_eigenvalues(M),
                           np.linalg.eigvals(M)) < 1e-10
