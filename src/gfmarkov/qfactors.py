"""Q-factors of a fixed randomized policy, solved in closed form.

The state-action pairs of an MDP under a policy form a chain of their
own: lift the transition tensor to an (S*A) x S matrix P_sa, embed the
policy as the block-diagonal S x (S*A) matrix L, and their product P_sa L
is the row-stochastic state-action chain. The Q-factor vector solves
(I - P_sa L + e r) Q = f exactly like chain potentials do, with r any
state-action row vector with r.e != 0 and r.Q = eta on the solution.

That (S*A) x (S*A) system is never formed. The policy chain
P_pi = L P_sa has the same nonzero spectrum as P_sa L, with
multiplicities, so I - P_sa L + e r is singular exactly when the S x S
matrix I - P_pi + e r_S is, with r_S(s) = sum_a r(s,a) and r_S.e = r.e.
One factorization of the latter gives the state potentials g and
eta = r_S.g; the Q-factors are g lifted to pairs plus the advantage
f(s,a) - f_pi(s) + p(s,a,.).g - P_pi(s,.).g, shifted so that r.Q = eta.
P_pi is formed once, kept on the model as a StochasticMatrix and
factored through ``_linalg.shifted_system`` like any chain, so the
Q-factor solve and the pair distribution share it and its LU.
``q_consistency_report`` checks Q on the S x A x S tensor too; only
``build_state_action_chain`` forms P_sa L, for a caller that wants it.

State-action vectors are ordered state-major: (s0,a0), (s0,a1), ...,
(s1,a0), ..., the same order as ``rewards.reshape(-1)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import shifted_system
from .config import DEFAULT, Tolerances
from .gfm import _as_reference, _checked_eta, stationary
from .model import MdpModel, ReferenceVector, StochasticMatrix, _freeze, _memoized
from .report import CheckResult, VerificationReport

__all__ = [
    "PolicyMatrix",
    "ActionTransitionMatrix",
    "StateActionChain",
    "QSolution",
    "build_policy_matrix",
    "action_transition_matrix",
    "build_state_action_chain",
    "qfactors_solve",
    "q_consistency_report",
]


@dataclass(frozen=True)
class PolicyMatrix:
    """Block-diagonal embedding of the policy, shape S x (S*A).

    Row s holds the policy distribution over actions in the block of
    state s and zeros elsewhere, so rows sum to one.
    """

    L: np.ndarray


@dataclass(frozen=True)
class ActionTransitionMatrix:
    """Lifted transitions, shape (S*A) x S: row (s,a) is p(s,a,.)."""

    P: np.ndarray


@dataclass(frozen=True)
class StateActionChain(StochasticMatrix):
    """Row-stochastic chain on state-action pairs: the product P L.

    Its rows are checked to row_tol by :func:`build_state_action_chain`.
    """


@dataclass(frozen=True)
class QSolution:
    """Q-factor vector with its average reward and induced state values.

    ``induced_g[s]`` is the policy-weighted mean of Q over actions at s,
    which plays the role of the state potential.
    """

    q: np.ndarray
    eta: float
    reference: ReferenceVector
    induced_g: np.ndarray


def build_policy_matrix(m: MdpModel) -> PolicyMatrix:
    """Exact block-diagonal construction of L from the policy rows."""
    S, A = m.states, m.actions
    L = np.zeros((S, S * A))
    for s in range(S):
        L[s, s * A:(s + 1) * A] = m.policy[s]
    return PolicyMatrix(_freeze(L))


def action_transition_matrix(m: MdpModel) -> ActionTransitionMatrix:
    """Lift the transition tensor to rows indexed by (state, action)."""
    S, A = m.states, m.actions
    return ActionTransitionMatrix(_freeze(m.transitions.reshape(S * A, S).copy()))


def build_state_action_chain(m: MdpModel, *, cfg: Tolerances = DEFAULT) -> StateActionChain:
    """The state-action chain P L, re-checked for row stochasticity."""
    # L has one nonzero per column: PL((s,a),(s2,a2)) = p(s,a,s2) policy(s2,a2)
    tilde = (m.transitions[..., None] * m.policy).reshape(m.policy.size, -1)
    sums = tilde.sum(axis=1)
    worst = float(np.abs(sums - 1.0).max(initial=0.0))
    if worst > cfg.row_tol:
        # both factors are exactly row-stochastic, so this cannot happen
        # short of overflow-scale inputs
        raise AssertionError(f"state-action chain rows drifted by {worst:.3e}")
    return StateActionChain(_freeze(tilde))


def _zero_probability_actions(m: MdpModel) -> list[tuple[int, int]]:
    pairs = np.argwhere(m.policy == 0.0)
    return [(int(s), int(a)) for s, a in pairs]


def _policy_chain(m: MdpModel) -> StochasticMatrix:
    """The S x S policy chain P_pi = L P_sa, formed once and kept on m;
    its rows mix validated rows, so it is not validated again."""
    return _memoized(m, "policy_chain", None, lambda: StochasticMatrix(
        _freeze(np.einsum("sa,sat->st", m.policy, m.transitions))))


def _state_reference(r: ReferenceVector, S: int, A: int) -> np.ndarray:
    """r_S(s) = sum_a r(s,a): the reference of the policy-chain system."""
    with np.errstate(over="ignore"):  # an inf r_S fails the pivot check
        return r.values.reshape(S, A).sum(axis=1)


def _pair_distribution(m: MdpModel, r: ReferenceVector, cfg: Tolerances) -> np.ndarray:
    """Stationary distribution of the state-action chain P_sa L.

    pi_sa(s,a) = pi_S(s) policy(s,a) with pi_S stationary for P_pi:
    nu = pi_sa P_sa is pi_S P_pi = pi_S, so pi_sa P_sa L = pi_sa. pi_S is
    solved at the r_S of r, on the LU of a Q-factor solve at the same r.
    """
    # Q-factors need only a simple unit eigenvalue: P_pi is never gated
    r_S = _state_reference(r, m.states, m.actions)
    pi_S = stationary(_policy_chain(m), r_S, allow_unchecked=True, cfg=cfg).pi
    return (pi_S[:, None] * m.policy).reshape(-1)


def qfactors_solve(m: MdpModel, r=None, *, cfg: Tolerances = DEFAULT) -> QSolution:
    """Solve (I - PL + e r) Q = f over state-action pairs, at S x S cost.

    One factorization of I - P_pi + e r_S gives g and eta = r_S.g; then
    Q = g(s) + advantage(s,a), shifted by (eta - r.Q) / r.e. With one
    action the advantage and the shift are exactly zero, so Q is the
    chain's potential vector bit for bit.

    Only simplicity of the chain's unit eigenvalue is required (the solve
    raises NearSingular otherwise, as it does for an eta outside
    [min f_pi, max f_pi] beyond solve tolerance); actions the policy
    never takes keep their rows and get a warning, since they can make
    the state-action chain reducible even when the induced state chain
    is fine.
    """
    S, A = m.states, m.actions
    r = _as_reference(r, S * A, cfg)
    dead = _zero_probability_actions(m)
    if dead:
        warnings.warn(
            "policy assigns zero probability to state-action pairs "
            f"{dead}; the state-action chain may be reducible",
            stacklevel=2)
    P_pi = _policy_chain(m)
    f_pi = (m.policy * m.rewards).sum(axis=1)
    r_S = _state_reference(r, S, A)
    g = shifted_system(P_pi, r_S, cfg.pivot_tol).solve(f_pi)
    eta = _checked_eta(r_S, g, f_pi, cfg)
    # Q = f - eta e + P_sa g, written as g plus the advantage so that the
    # advantage vanishes exactly when A = 1
    adv = ((m.rewards - f_pi[:, None]).reshape(-1)
           + m.transitions.reshape(S * A, S) @ g
           - np.repeat(P_pi.matrix @ g, A))
    q = np.repeat(g, A) + adv
    q += (eta - float(r.values @ q)) / r.dot_with_ones
    induced_g = (m.policy * q.reshape(S, A)).sum(axis=1)
    return QSolution(q, eta, r, induced_g)


def q_consistency_report(m: MdpModel, q: QSolution, *,
                         cfg: Tolerances = DEFAULT) -> VerificationReport:
    """Residuals of the defining Q-factor relations for a solved model.

    Checks the pointwise definition Q(s,a) = f(s,a) - eta + sum_s2
    p(s,a,s2) g(s2) with g the induced state values, the fixed point
    Q = f - eta e + P_sa (L Q) with L Q taken afresh from Q, the row sums
    P_sa (L e) of P_sa L, and eta against the state-action stationary
    average reward. No (S*A)^2 array is formed.
    """
    S, A = m.states, m.actions
    f = m.rewards.reshape(-1)
    P_sa = m.transitions.reshape(S * A, S)
    Lq = (m.policy * q.q.reshape(S, A)).sum(axis=1)
    pi_sa = _pair_distribution(m, q.reference, cfg)
    gaps = (
        ("q_pointwise_definition", q.q - (f - q.eta + P_sa @ q.induced_g),
         cfg.poisson_tol),
        ("q_fixed_point", q.q - (f - q.eta + P_sa @ Lq), cfg.poisson_tol),
        ("state_action_rows_stochastic", P_sa @ m.policy.sum(axis=1) - 1.0,
         1e-12),
        ("eta_vs_stationary_reward", q.eta - pi_sa @ f, cfg.poisson_tol),
    )
    checks = []
    for name, gap, bound in gaps:
        resid = float(np.abs(gap).max())
        checks.append(CheckResult(name, resid <= bound, resid))
    return VerificationReport(tuple(checks))
