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
So ``qfactors_solve`` is ``gfm.potentials`` on the policy chain, with
f_pi and r_S: it gives g and eta = r_S.g, and the Q-factors are g lifted
to pairs plus the advantage f(s,a) - f_pi(s) + p(s,a,.).g - P_pi(s,.).g,
shifted so that r.Q = eta. P_pi is formed once and kept on the model, so
the Q-factor solve and the pair distribution share it, its LU and the
r_S of ``_state_reference``.
``q_consistency_report`` checks Q on the S x A x S tensor too; only
``build_state_action_chain`` forms P_sa L, for a caller that wants it.

State-action vectors are ordered state-major: (s0,a0), (s0,a1), ...,
(s1,a0), ..., the same order as ``rewards.reshape(-1)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import gfm
from .config import DEFAULT, Tolerances
from .errors import NumericalError
from .model import (MdpModel, ReferenceVector, StochasticMatrix, _freeze,
                    _memoized, reward_vector)
from .report import VerificationReport, _residual_check, _reward_scale

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
        # validate_mdp leaves both factors exactly row-stochastic
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


def _state_reference(r: ReferenceVector, S: int, A: int) -> ReferenceVector:
    """r_S(s) = sum_a r(s,a) with r_S.e = r.e, from the validated r and not
    validated again: an r_S that overflows or cancels fails the pivot check."""
    with np.errstate(over="ignore"):
        return ReferenceVector(_freeze(r.values.reshape(S, A).sum(axis=1)),
                               r.dot_with_ones)


def _pair_distribution(m: MdpModel, r: ReferenceVector, cfg: Tolerances) -> np.ndarray:
    """Stationary distribution of the state-action chain P_sa L.

    pi_sa(s,a) = pi_S(s) policy(s,a) with pi_S stationary for P_pi:
    nu = pi_sa P_sa is pi_S P_pi = pi_S, so pi_sa P_sa L = pi_sa. pi_S is
    solved at the r_S of r, on the LU of a Q-factor solve at the same r.
    """
    # Q-factors need only a simple unit eigenvalue: P_pi is never gated
    r_S = _state_reference(r, m.states, m.actions)
    pi_S = gfm.stationary(_policy_chain(m), r_S, allow_unchecked=True, cfg=cfg).pi
    return (pi_S[:, None] * m.policy).reshape(-1)


def qfactors_solve(m: MdpModel, r=None, *, cfg: Tolerances = DEFAULT) -> QSolution:
    """Solve (I - PL + e r) Q = f over state-action pairs, at S x S cost.

    ``gfm.potentials`` of P_pi, f_pi and r_S gives g and eta = r_S.g;
    then Q = g(s) + advantage(s,a), shifted by (eta - r.Q) / r.e. With
    one action the advantage and the shift are exactly zero, so Q is the
    chain's potential vector bit for bit.

    Only simplicity of the chain's unit eigenvalue is required: P_pi is
    not gated, and r_S, made from validated fields, is not validated
    again. f_pi is: a policy average of finite rewards that overflows is
    a DimensionMismatch, as a non-finite f is in ``gfm.potentials``. A g
    or a Q that overflows from finite rewards is a NumericalError.
    Actions the policy never takes keep their rows and get a warning,
    since they can make the state-action chain reducible even when the
    induced state chain is fine.
    """
    S, A = m.states, m.actions
    r = gfm._as_reference(r, S * A, cfg)
    dead = _zero_probability_actions(m)
    if dead:
        warnings.warn(
            "policy assigns zero probability to state-action pairs "
            f"{dead}; the state-action chain may be reducible",
            stacklevel=2)
    P_pi = _policy_chain(m)
    with np.errstate(over="ignore"):  # an infinite f_pi is refused here
        f_pi = reward_vector((m.policy * m.rewards).sum(axis=1), S)
    sol = gfm.potentials(P_pi, f_pi, _state_reference(r, S, A),
                         allow_unchecked=True, cfg=cfg)
    # Q = f - eta e + P_sa g, written as g plus the advantage so that the
    # advantage vanishes exactly when A = 1
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        adv = ((m.rewards - f_pi.values[:, None]).reshape(-1)
               + m.transitions.reshape(S * A, S) @ sol.g
               - np.repeat(P_pi.matrix @ sol.g, A))
        q = np.repeat(sol.g, A) + adv
        q += (sol.eta - float(r.values @ q)) / r.dot_with_ones
        induced_g = (m.policy * q.reshape(S, A)).sum(axis=1)
    if not (np.isfinite(q).all() and np.isfinite(induced_g).all()):
        raise NumericalError("overflow in the Q-factors: finite rewards and "
                             "potentials gave a non-finite Q")
    return QSolution(q, sol.eta, r, induced_g)


def q_consistency_report(m: MdpModel, q: QSolution, *,
                         cfg: Tolerances = DEFAULT) -> VerificationReport:
    """Residuals of the defining Q-factor relations for a solved model.

    Checks the pointwise definition Q(s,a) = f(s,a) - eta + sum_s2
    p(s,a,s2) g(s2) with g the induced state values, the fixed point
    Q = f - eta e + P_sa (L Q) with L Q taken afresh from Q, the row sums
    P_sa (L e) of P_sa L, and eta against the state-action stationary
    average reward. No (S*A)^2 array is formed. The bounds of the three
    residuals linear in f scale with max(1, max |f|).
    """
    S, A = m.states, m.actions
    f = m.rewards.reshape(-1)
    P_sa = m.transitions.reshape(S * A, S)
    Lq = (m.policy * q.q.reshape(S, A)).sum(axis=1)
    pi_sa = _pair_distribution(m, q.reference, cfg)
    tol = cfg.poisson_tol * _reward_scale(f)
    gaps = (
        ("q_pointwise_definition", q.q - (f - q.eta + P_sa @ q.induced_g), tol),
        ("q_fixed_point", q.q - (f - q.eta + P_sa @ Lq), tol),
        ("state_action_rows_stochastic", P_sa @ m.policy.sum(axis=1) - 1.0,
         1e-12),
        ("eta_vs_stationary_reward", q.eta - pi_sa @ f, tol),
    )
    return VerificationReport(tuple(_residual_check(name, gap, bound)
                                    for name, gap, bound in gaps))
