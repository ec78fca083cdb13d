import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfmarkov import (
    build_policy_matrix,
    build_state_action_chain,
    potentials,
    q_consistency_report,
    qfactors_solve,
    reference_vector,
    stationary,
    uniform_reference,
    validate_mdp,
    validate_stochastic,
)
from gfmarkov.config import DEFAULT
from gfmarkov.errors import NearSingularError
from gfmarkov.model import StochasticMatrix
from gfmarkov.qfactors import _pair_distribution, action_transition_matrix

from conftest import random_mdp, random_reference, reference_qfactors_solve


def sparse_mdp(rng: np.random.Generator, S: int, A: int, zero_frac: float,
               dead_frac: float, classes: int = 1):
    """MDP with exact zero transitions and zero-probability actions.

    Every action of a state moves one step along a ring inside the state's
    class, so the policy chain has exactly `classes` closed classes.
    """
    cls = np.arange(S) * classes // S
    W = rng.random((S, A, S)) * (rng.random((S, A, S)) >= zero_frac)
    W *= cls[:, None, None] == cls[None, None, :]
    for c in range(classes):
        ring = np.flatnonzero(cls == c)
        W[ring, :, np.roll(ring, -1)] += 0.5
    pol = rng.random((S, A)) + 0.05
    dead = rng.random((S, A)) < dead_frac
    dead[np.arange(S), rng.integers(A, size=S)] = False
    pol[dead] = 0.0
    return validate_mdp(W / W.sum(axis=2, keepdims=True),
                        rng.normal(size=(S, A)),
                        pol / pol.sum(axis=1, keepdims=True))


def assert_matches_oracle(q, ref, exact: bool):
    """The S x S route against the literal (S*A)^2 solve.

    Within 1e-10 max(1, |Q|inf), fixed before the first run; bit for bit
    when the MDP has one action.
    """
    if exact:
        assert np.array_equal(q.q, ref.q) and q.eta == ref.eta
        assert np.array_equal(q.induced_g, ref.induced_g)
        return
    tol = 1e-10 * max(1.0, float(np.abs(ref.q).max()))
    assert float(np.abs(q.q - ref.q).max()) <= tol
    assert abs(q.eta - ref.eta) <= tol
    assert float(np.abs(q.induced_g - ref.induced_g).max()) <= tol


def single_state_two_action():
    # both actions stay in the single state; policy always takes the first
    return validate_mdp(np.ones((1, 2, 1)), [[1.0, 0.0]], [[1.0, 0.0]])


class TestPolicyMatrix:
    def test_single_block(self):
        m = single_state_two_action()
        L = build_policy_matrix(m).L
        assert L.shape == (1, 2)
        assert np.array_equal(L, [[1.0, 0.0]])

    def test_one_action_identity(self):
        m = validate_mdp(np.full((2, 1, 2), 0.5), np.zeros((2, 1)),
                         np.ones((2, 1)))
        assert np.array_equal(build_policy_matrix(m).L, np.eye(2))

    def test_block_diagonal_layout(self):
        m = validate_mdp(np.full((2, 2, 2), 0.5), np.zeros((2, 2)),
                         [[0.3, 0.7], [1.0, 0.0]])
        L = build_policy_matrix(m).L
        assert np.array_equal(L, [[0.3, 0.7, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        assert np.abs(L.sum(axis=1) - 1.0).max() < 1e-15


class TestStateActionChain:
    def test_single_state_product(self):
        m = single_state_two_action()
        chain = build_state_action_chain(m)
        assert np.array_equal(chain.matrix, [[1.0, 0.0], [1.0, 0.0]])

    def test_one_action_collapses_to_chain(self):
        P = [[0.9, 0.1], [0.2, 0.8]]
        m = validate_mdp(np.asarray(P).reshape(2, 1, 2), np.zeros((2, 1)),
                         np.ones((2, 1)))
        chain = build_state_action_chain(m)
        assert np.array_equal(chain.matrix, P)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(131)
        for _ in range(25):
            m = random_mdp(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            chain = build_state_action_chain(m)
            assert np.abs(chain.matrix.sum(axis=1) - 1.0).max() <= 1e-12


class TestQfactorsSolve:
    def test_single_state_example(self):
        m = single_state_two_action()
        with pytest.warns(UserWarning, match="zero probability"):
            q = qfactors_solve(m, reference_vector([1.0, 0.0]))
        assert np.array_equal(q.q, [1.0, 0.0])
        assert q.eta == 1.0
        assert np.array_equal(q.induced_g, [1.0])
        # same successor distribution: Q gap equals the reward gap
        assert q.q[0] - q.q[1] == pytest.approx(1.0)

    def test_one_action_reduces_to_potentials_bitwise(self):
        P = validate_stochastic([[0.9, 0.1], [0.2, 0.8]])
        f = np.array([1.0, 0.0])
        m = validate_mdp(np.asarray(P.matrix).reshape(2, 1, 2),
                         f.reshape(2, 1), np.ones((2, 1)))
        r = reference_vector([0.7, 0.3])
        q = qfactors_solve(m, r)
        sol = potentials(P, f, r)
        assert np.array_equal(q.q, sol.g)
        assert q.eta == sol.eta

    def test_eta_equals_state_action_stationary_reward(self):
        rng = np.random.default_rng(137)
        for _ in range(15):
            m = random_mdp(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            n = m.states * m.actions
            r = uniform_reference(n)
            q = qfactors_solve(m, r)
            chain = build_state_action_chain(m)
            pi = stationary(StochasticMatrix(chain.matrix), r,
                            allow_unchecked=True).pi
            assert abs(q.eta - pi @ m.rewards.reshape(-1)) <= 1e-8

    def test_r_invariance_of_eta_and_offsets(self):
        rng = np.random.default_rng(139)
        for _ in range(15):
            m = random_mdp(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            n = m.states * m.actions
            v1 = rng.normal(size=n)
            v2 = rng.normal(size=n)
            q1 = qfactors_solve(m, reference_vector(v1 / max(abs(v1.sum()), 0.3)))
            q2 = qfactors_solve(m, reference_vector(v2 / max(abs(v2.sum()), 0.3)))
            assert abs(q1.eta - q2.eta) <= 1e-8
            diff = q1.q - q2.q
            assert diff.max() - diff.min() <= 1e-8

    def test_induced_g_solves_state_poisson_up_to_constant(self):
        rng = np.random.default_rng(149)
        for _ in range(15):
            m = random_mdp(rng, int(rng.integers(2, 5)), int(rng.integers(1, 5)))
            q = qfactors_solve(m, uniform_reference(m.states * m.actions))
            P_pol = np.einsum("sa,sat->st", m.policy, m.transitions)
            f_pol = (m.policy * m.rewards).sum(axis=1)
            resid = (np.eye(m.states) - P_pol) @ q.induced_g - (f_pol - q.eta)
            assert resid.max() - resid.min() <= 1e-8


class TestConsistencyReport:
    def test_single_state_machine_precision(self):
        m = single_state_two_action()
        with pytest.warns(UserWarning):
            q = qfactors_solve(m, reference_vector([1.0, 0.0]))
        rep = q_consistency_report(m, q)
        assert rep.passed
        assert all(c.residual <= 1e-14 for c in rep.checks if c.residual is not None)

    def test_one_action_matches_chain_residual(self):
        P = validate_stochastic([[0.9, 0.1], [0.2, 0.8]])
        f = np.array([1.0, 0.0])
        m = validate_mdp(np.asarray(P.matrix).reshape(2, 1, 2),
                         f.reshape(2, 1), np.ones((2, 1)))
        r = reference_vector([0.7, 0.3])
        q = qfactors_solve(m, r)
        rep = q_consistency_report(m, q)
        assert rep.passed
        sol = potentials(P, f, r)
        chain_resid = np.abs(sol.g - f + sol.eta - P.matrix @ sol.g).max()
        q_resid = [c for c in rep.checks if c.name == "q_fixed_point"][0].residual
        assert q_resid == pytest.approx(chain_resid, abs=1e-14)

    def test_random_mdps(self):
        rng = np.random.default_rng(151)
        for _ in range(25):
            m = random_mdp(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            q = qfactors_solve(m, uniform_reference(m.states * m.actions))
            rep = q_consistency_report(m, q)
            assert rep.passed
            for c in rep.checks:
                if c.name.startswith("q_"):
                    assert c.residual <= 1e-8


class TestThroughChainCalls:
    """Q-factors are potentials of the state-action chain."""

    def test_chain_is_a_stochastic_matrix(self):
        chain = build_state_action_chain(random_mdp(np.random.default_rng(3), 3, 2))
        assert isinstance(chain, StochasticMatrix)
        assert chain.size == 6 and chain.max_correction == 0.0

    def test_qfactors_are_chain_potentials_bitwise(self):
        # the S x S route against the literal solve on PL: within the
        # oracle tolerance, and bit for bit when A = 1
        rng = np.random.default_rng(163)
        for _ in range(10):
            m = random_mdp(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)))
            r = reference_vector(rng.normal(size=m.states * m.actions) + 0.5)
            q = qfactors_solve(m, r)
            assert_matches_oracle(q, reference_qfactors_solve(m, r),
                                  exact=m.actions == 1)
            pi = stationary(build_state_action_chain(m), r, allow_unchecked=True)
            rep = q_consistency_report(m, q)
            resid = [c for c in rep.checks
                     if c.name == "eta_vs_stationary_reward"][0].residual
            literal = float(abs(q.eta - pi.pi @ m.rewards.reshape(-1)))
            assert abs(resid - literal) <= 1e-10 * max(1.0, abs(q.eta))


class TestPolicyChainRouteMatchesOracle:
    """qfactors_solve factors I - P_pi + e r_S, the oracle I - PL + e r."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), S=st.integers(1, 30),
           A=st.sampled_from(range(1, 7)),
           zero_frac=st.sampled_from([0.0, 0.3, 0.7]),
           dead_frac=st.sampled_from([0.0, 0.3]),
           sign=st.sampled_from([-1.0, 1.0]), point=st.booleans())
    def test_random_mdps(self, seed, S, A, zero_frac, dead_frac, sign, point):
        rng = np.random.default_rng(seed)
        m = sparse_mdp(rng, S, A, zero_frac, dead_frac)
        r = sign * random_reference(rng, S * A, 0.3, 1.9)
        if point:
            # all of r on one pair, often not an action's first
            r = np.where(np.arange(S * A) == rng.integers(S * A), r.sum(), 0.0)
        r = reference_vector(r)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            q = qfactors_solve(m, r)
        with warnings.catch_warnings(record=True) as seen_ref:
            warnings.simplefilter("always")
            ref = reference_qfactors_solve(m, r)
        assert [str(w.message) for w in seen] == [str(w.message) for w in seen_ref]
        assert_matches_oracle(q, ref, exact=A == 1)
        pi = stationary(build_state_action_chain(m), None, allow_unchecked=True).pi
        assert float(np.abs(_pair_distribution(m, DEFAULT) - pi).max()) <= 1e-10

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), S=st.integers(2, 30),
           A=st.sampled_from(range(1, 7)),
           zero_frac=st.sampled_from([0.0, 0.3, 0.7]),
           dead_frac=st.sampled_from([0.0, 0.3]))
    def test_two_closed_classes_are_near_singular(self, seed, S, A, zero_frac,
                                                  dead_frac):
        rng = np.random.default_rng(seed)
        m = sparse_mdp(rng, S, A, zero_frac, dead_frac, classes=2)
        r = reference_vector(random_reference(rng, S * A, 0.3, 1.9))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            with pytest.raises(NearSingularError):
                reference_qfactors_solve(m, r)
            with pytest.raises(NearSingularError):
                qfactors_solve(m, r)


class TestActionTransitionMatrix:
    def test_layout(self):
        rng = np.random.default_rng(157)
        m = random_mdp(rng, 3, 2)
        P = action_transition_matrix(m).P
        for s in range(3):
            for a in range(2):
                assert np.array_equal(P[s * 2 + a], m.transitions[s, a])
        assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12
