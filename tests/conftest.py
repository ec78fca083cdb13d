"""Shared test helpers: random instances and independent oracles.

The oracles deliberately avoid the library's solution path (the shifted
matrix): stationary distributions come from a least-squares solve of
pi P = pi with the normalization row appended, potentials from the
rank-completed Poisson system. Spectra come from numpy's eigensolver,
which the library itself never uses.
"""

from __future__ import annotations

import os
import warnings
from bisect import bisect_right
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from gfmarkov import (
    ChainDiagnostics,
    EstimateTrace,
    GeneratorMatrix,
    MdpModel,
    RewardVector,
    SimulationConfig,
    StepSchedule,
    StochasticMatrix,
    Tolerances,
    validate_generator,
    validate_mdp,
    validate_stochastic,
)
from gfmarkov import _linalg
from gfmarkov.config import DEFAULT
from gfmarkov.ctmc import ctmc_stationary
from gfmarkov.errors import (
    DimensionMismatchError,
    NegativeEntryError,
    NegativeOffDiagonalError,
    NonSquareError,
    RowSumViolationError,
    SeriesDivergentError,
)
from gfmarkov.estimator import DEFAULT_SCHEDULE, _sample_states
from gfmarkov.gfm import (
    NORM_ETA,
    FundamentalMatrix,
    PotentialSolution,
    _as_reference,
    _require_irreducible,
    potentials,
    stationary,
)
from gfmarkov.model import (
    _ROW_SUM_EXACT,
    _checked_gamma,
    _freeze,
    _settle_row_sums,
    reference_vector,
    reward_vector,
)
from gfmarkov.qfactors import (
    QSolution,
    _pair_distribution,
    _zero_probability_actions,
    build_state_action_chain,
)
from gfmarkov.report import CheckResult, VerificationReport

REPO_ROOT = Path(__file__).resolve().parent.parent
MODELS = REPO_ROOT / "models"
GOLDEN = Path(__file__).resolve().parent / "golden"

# pyproject's `pythonpath` puts src on this process's sys.path; child
# interpreters (`python -m gfmarkov`) read it from the environment
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))


@pytest.fixture
def models_dir() -> Path:
    return MODELS


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN


def random_chain(rng: np.random.Generator, n: int, floor: float = 0.02):
    """Strictly positive random transition matrix: irreducible, aperiodic."""
    raw = rng.gamma(1.0, 1.0, size=(n, n)) + floor
    return validate_stochastic(raw / raw.sum(axis=1, keepdims=True))


def random_periodic_chain(n: int):
    """Deterministic n-cycle: irreducible with period n."""
    P = np.zeros((n, n))
    for i in range(n):
        P[i, (i + 1) % n] = 1.0
    return validate_stochastic(P)


def random_reference(rng: np.random.Generator, n: int,
                     lo: float = 0.1, hi: float = 1.9) -> np.ndarray:
    """Signed random row vector with r.e drawn uniformly from [lo, hi]."""
    while True:
        v = rng.normal(size=n)
        s = v.sum()
        if abs(s) > 0.2:
            break
    return v * (rng.uniform(lo, hi) / s)


def random_generator_matrix(rng: np.random.Generator, n: int, floor: float = 0.02):
    """Strictly positive off-diagonal rates: ergodic generator."""
    off = rng.gamma(1.0, 1.0, size=(n, n)) + floor
    np.fill_diagonal(off, 0.0)
    B = off.copy()
    np.fill_diagonal(B, -off.sum(axis=1))
    return validate_generator(B)


def random_mdp(rng: np.random.Generator, S: int, A: int, floor: float = 0.05):
    """Strictly positive transitions and policy: irreducible closed chain."""
    p = rng.gamma(1.0, 1.0, size=(S, A, S)) + floor
    p = p / p.sum(axis=2, keepdims=True)
    policy = rng.gamma(1.0, 1.0, size=(S, A)) + floor
    policy = policy / policy.sum(axis=1, keepdims=True)
    rewards = rng.uniform(0.0, 1.0, size=(S, A))
    return validate_mdp(p, rewards, policy)


def count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap owner.name for the test; each call appends its arguments."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _bfs_period(adj: np.ndarray, nodes: np.ndarray) -> int:
    """gcd of cycle lengths inside one strongly connected component.

    Breadth-first levels from the component's first state; every
    in-component edge (u, v) contributes level(u) + 1 - level(v) to the
    gcd. Returns 0 for a cycle-free component.
    """
    members = set(int(x) for x in nodes)
    root = int(nodes[0])
    level = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(adj[u])[0]:
                v = int(v)
                if v in members and v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in members:
        for v in np.nonzero(adj[u])[0]:
            v = int(v)
            if v in members:
                g = gcd(g, level[u] + 1 - level[v])
    return abs(g)


def reference_diagnose_chain(P) -> ChainDiagnostics:
    """Loop-per-component, loop-per-edge diagnosis of a chain's support.

    The breadth-first form the library's vectorized gate replaced: one
    BFS per strongly connected component, a Python gcd per edge, and a
    closed-class test per component.
    """
    adj = np.asarray(P.matrix) > 0.0
    n_comp, labels = connected_components(
        csr_matrix(adj), directed=True, connection="strong")
    num_closed = 0
    period = 0
    for comp in range(n_comp):
        nodes = np.nonzero(labels == comp)[0]
        inside = labels == comp
        if not adj[np.ix_(nodes, ~inside)].any():
            num_closed += 1
        p = _bfs_period(adj, nodes)
        if p:
            period = gcd(period, p)
    period = period or 1
    return ChainDiagnostics(
        irreducible=bool(n_comp == 1),
        aperiodic=period == 1,
        period=int(period),
        num_closed_classes=int(num_closed),
    )


def reference_csgraph_diagnostics(adj: np.ndarray) -> ChainDiagnostics:
    """The csgraph gate the library used for every sparse, deep or hollow
    support, kept as the oracle of its numpy walks.

    One strong-components pass, closed classes as the components that no
    edge leaves, and without a self-loop the gcd over in-component edges
    of level(u) + 1 - level(v), with BFS levels from one root per
    component.
    """
    n = adj.shape[0]
    counts = np.count_nonzero(adj, axis=1)
    looped = bool(adj.diagonal().any())
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    v = (np.flatnonzero(adj) % n).astype(np.int32)
    g = csr_matrix((np.ones(v.size, dtype=bool), v, indptr), shape=(n, n))
    u = np.repeat(np.arange(n, dtype=np.int32), counts)
    n_comp, labels = connected_components(g, directed=True, connection="strong")
    cu, cv = labels[u], labels[v]
    inside = cu == cv
    num_closed = n_comp - np.unique(cu[~inside]).size

    period = 1
    if not looped:
        if n_comp > 1:
            u, v = u[inside], v[inside]
            g = csr_matrix((np.ones(u.size, dtype=bool), (u, v)), shape=(n, n))
        roots = np.unique(labels, return_index=True)[1]
        level = dijkstra(g, indices=roots, unweighted=True,
                         min_only=True).astype(np.int32)
        period = abs(int(np.gcd.reduce(level[u] + 1 - level[v]))) or 1
    return ChainDiagnostics(
        irreducible=bool(n_comp == 1),
        aperiodic=period == 1,
        period=period,
        num_closed_classes=int(num_closed),
    )


def reference_sample_states(P: np.ndarray, s0: int, steps: int,
                            seed: int) -> np.ndarray:
    """Inverse-CDF walk over full cumulative rows, clamped to the last state.

    The loop the library's sampler replaced, kept as its oracle: same
    draws, same bisection, but every step clamps an index past the last
    cumulative sum back to n - 1.
    """
    n = P.shape[0]
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    u = rng.random(steps).tolist()
    cum_rows = [row.tolist() for row in np.cumsum(P, axis=1)]
    last = n - 1
    out = [0] * (steps + 1)
    out[0] = s = int(s0)
    for t in range(steps):
        j = bisect_right(cum_rows[s], u[t])
        s = j if j < last else last
        out[t + 1] = s
    return np.array(out, dtype=np.int64)


def reference_online_potentials(source, f, r=None,
                                schedule: StepSchedule | None = None,
                                cfg: SimulationConfig | None = None, *,
                                s0: int = 0, g0=None,
                                track_residuals: bool = False,
                                allow_unchecked: bool = False,
                                tolerances: Tolerances = DEFAULT) -> EstimateTrace:
    """O(n)-per-step online estimator: r.ghat recomputed at every step.

    The loop the library's running-sum estimator replaced, kept as its
    oracle: same path, same update, same checkpoints, but every step sums
    r(i) ghat(i) over all n states.
    """
    schedule = schedule or DEFAULT_SCHEDULE
    cfg = cfg or SimulationConfig()

    if not isinstance(source, StochasticMatrix) and np.asarray(source).ndim == 2:
        source = validate_stochastic(source)

    if isinstance(source, StochasticMatrix):
        if not allow_unchecked:
            _require_irreducible(source, tolerances, need_aperiodic=True)
        states = np.asarray(_sample_states(np.asarray(source.matrix), s0,
                                           cfg.max_steps, cfg.seed),
                            dtype=np.int64)
        n = source.size
    else:
        states = np.asarray(source, dtype=np.int64)
        if states.ndim != 1 or states.shape[0] < 2:
            raise ValueError("state path must be 1-D with at least 2 entries")
        n = np.asarray(f).reshape(-1).shape[0]
        if states.min() < 0 or states.max() >= n:
            raise ValueError("state path entries out of range for the rewards")

    f = reward_vector(f, n)
    r = _as_reference(r, n, tolerances)
    steps = states.shape[0] - 1
    alphas = schedule.alphas(steps).tolist()

    # hot loop in plain python floats; numpy scalar indexing is slower here
    st = states.tolist()
    fv = f.values.tolist()
    rv = r.values.tolist()
    g = [0.0] * n if g0 is None else [float(x) for x in np.asarray(g0).reshape(-1)]
    if len(g) != n:
        raise ValueError(f"g0 must have length {n}")

    interval = cfg.check_interval
    eps = cfg.epsilon
    snapshot = list(g)
    history: list[tuple[int, float]] = []
    samples: list[tuple[int, int, float, float, float]] = []
    converged = False
    steps_run = steps
    zc = 0
    zs = 0.0
    zss = 0.0

    for t in range(steps):
        s = st[t]
        sp = st[t + 1]
        rdot = 0.0
        for ri, gi in zip(rv, g):
            rdot += ri * gi
        z = fv[s] - rdot + g[sp] - g[s]
        g[s] += alphas[t] * z
        if track_residuals:
            zc += 1
            zs += z
            zss += z * z
        if t % interval == 0:
            eta_t = 0.0
            for ri, gi in zip(rv, g):
                eta_t += ri * gi
            samples.append((t, s, fv[s], z, eta_t))
        if (t + 1) % interval == 0:
            delta = max(abs(a - b) for a, b in zip(g, snapshot))
            history.append((t + 1, delta))
            if delta < eps:
                converged = True
                steps_run = t + 1
                break
            snapshot = list(g)

    g_arr = np.array(g)
    eta_hat = float(r.values @ g_arr)
    return EstimateTrace(
        g_hat=g_arr,
        eta_hat=eta_hat,
        steps_run=steps_run,
        converged=converged,
        seed=int(cfg.seed),
        history=tuple(history),
        samples=tuple(samples),
        residual_count=zc,
        residual_sum=zs,
        residual_sumsq=zss,
    )


def reference_indexed_online_potentials(
        source, f, r=None, schedule: StepSchedule | None = None,
        cfg: SimulationConfig | None = None, *, s0: int = 0, g0=None,
        track_residuals: bool = False, allow_unchecked: bool = False,
        tolerances: Tolerances = DEFAULT) -> EstimateTrace:
    """Running-sum estimator that indexes the path and step sizes by t.

    The loop the library's zipped-slice update replaced, kept as its
    bit-for-bit oracle: the sampled path goes list -> int64 array -> list,
    and each step after a chunk's first reads st[t], st[t + 1] and
    alphas[t]. The arithmetic and its order are the library's, so every
    EstimateTrace field must match exactly; it never raises on divergence.
    """
    schedule = schedule or DEFAULT_SCHEDULE
    cfg = cfg or SimulationConfig()

    if isinstance(source, StochasticMatrix) or np.ndim(source) == 2:
        source = validate_stochastic(source, cfg=tolerances)
        if not allow_unchecked:
            _require_irreducible(source, tolerances, need_aperiodic=True)
        states = np.asarray(_sample_states(np.asarray(source.matrix), s0,
                                           cfg.max_steps, cfg.seed),
                            dtype=np.int64)
        n = source.size
    else:
        states = np.asarray(source, dtype=np.int64)
        if states.ndim != 1 or states.shape[0] < 2:
            raise ValueError("state path must be 1-D with at least 2 entries")
        n = len(f) if isinstance(f, RewardVector) else np.size(f)
        if states.min() < 0 or states.max() >= n:
            raise ValueError("state path entries out of range for the rewards")

    f = reward_vector(f, n)
    r = _as_reference(r, n, tolerances)
    steps = states.shape[0] - 1
    alphas = schedule.alphas(steps).tolist()

    # hot loop in plain python floats; numpy scalar indexing is slower here
    st = states.tolist()
    fv = f.values.tolist()
    rv = r.values.tolist()
    g = [0.0] * n if g0 is None else [float(x) for x in np.asarray(g0).reshape(-1)]
    if len(g) != n:
        raise ValueError(f"g0 must have length {n}")

    interval = cfg.check_interval
    eps = cfg.epsilon
    snapshot = list(g)
    history: list[tuple[int, float]] = []
    samples: list[tuple[int, int, float, float, float]] = []
    converged = False
    steps_run = steps
    zc = 0
    zs = 0.0
    zss = 0.0

    # rdot is the running r.ghat; the first step of a chunk is the sample
    # row and resets it to the exact sum
    rdot = 0.0
    for ri, gi in zip(rv, g):
        rdot += ri * gi
    for start in range(0, steps, interval):
        end = min(start + interval, steps)
        s = st[start]
        z = fv[s] - rdot + g[st[start + 1]] - g[s]
        g[s] += alphas[start] * z
        rdot = 0.0
        for ri, gi in zip(rv, g):
            rdot += ri * gi
        samples.append((start, s, fv[s], z, rdot))
        if track_residuals:
            zc += 1
            zs += z
            zss += z * z
        for t in range(start + 1, end):
            s = st[t]
            z = fv[s] - rdot + g[st[t + 1]] - g[s]
            dz = alphas[t] * z
            g[s] += dz
            rdot += rv[s] * dz
            if track_residuals:
                zc += 1
                zs += z
                zss += z * z
        if end - start == interval:
            delta = max(abs(a - b) for a, b in zip(g, snapshot))
            history.append((end, delta))
            if delta < eps:
                converged = True
                steps_run = end
                break
            snapshot = list(g)

    g_arr = np.array(g)
    eta_hat = float(r.values @ g_arr)
    return EstimateTrace(
        g_hat=g_arr,
        eta_hat=eta_hat,
        steps_run=steps_run,
        converged=converged,
        seed=int(cfg.seed),
        history=tuple(history),
        samples=tuple(samples),
        residual_count=zc,
        residual_sum=zs,
        residual_sumsq=zss,
    )


def reference_series_fundamental(P, r=None, terms: int = 50, *,
                                 allow_unchecked: bool = False,
                                 cfg: Tolerances = DEFAULT) -> FundamentalMatrix:
    """Binary-doubling series sum_{n=0}^{T} (P - e r)^n, every product taken.

    The loop as it was before the library's build learned to stop at an
    exactly-zero power, kept as its bit-for-bit oracle.
    """
    P = validate_stochastic(P, cfg=cfg)
    r = _as_reference(r, P.size, cfg)
    if terms < 0:
        raise ValueError("terms must be >= 0")
    re = r.dot_with_ones
    if not (cfg.series_margin < re < 2.0 - cfg.series_margin):
        raise SeriesDivergentError(
            f"series diverges: r.e = {re:.6g} is outside (0, 2)",
            dot_with_ones=re)
    if not allow_unchecked:
        _require_irreducible(P, cfg, need_aperiodic=True)
    M = P.matrix - r.values
    S = np.eye(P.size)
    W = M
    for digit in bin(terms + 1)[3:]:
        S += W @ S
        W = W @ W
        if digit == "1":
            S += W
            W = W @ M
    tail_norm = float(np.abs(W).sum(axis=1).max())
    return FundamentalMatrix(S, r, P, tail_norm=tail_norm, terms=terms)


def termwise_series_fundamental(P, r=None, terms: int = 50, *,
                                allow_unchecked: bool = False,
                                cfg: Tolerances = DEFAULT) -> FundamentalMatrix:
    """Term-by-term truncated series sum_{n=0}^{T} (P - e r)^n.

    The loop the library's binary-doubling build replaced, kept as its
    oracle: T + 1 matrix products, one power of P - e r at a time.
    """
    P = validate_stochastic(P, cfg=cfg)
    r = _as_reference(r, P.size, cfg)
    if terms < 0:
        raise ValueError("terms must be >= 0")
    re = r.dot_with_ones
    if not (cfg.series_margin < re < 2.0 - cfg.series_margin):
        raise SeriesDivergentError(
            f"series diverges: r.e = {re:.6g} is outside (0, 2)",
            dot_with_ones=re)
    if not allow_unchecked:
        _require_irreducible(P, cfg, need_aperiodic=True)
    n = P.size
    M = P.matrix - np.outer(np.ones(n), r.values)
    acc = np.eye(n)
    term = np.eye(n)
    for _ in range(terms):
        term = term @ M
        acc += term
    tail = term @ M
    tail_norm = float(np.abs(tail).sum(axis=1).max())
    return FundamentalMatrix(acc, r, P, tail_norm=tail_norm, terms=terms)


def reference_qfactors_solve(m: MdpModel, r=None, *, cfg: Tolerances = DEFAULT) -> QSolution:
    """Solve (I - PL + e r) Q = f over state-action pairs.

    Only simplicity of the chain's unit eigenvalue is required (the solve
    raises NearSingular otherwise); actions the policy never takes keep
    their rows and get a warning, since they can make the state-action
    chain reducible even when the induced state chain is fine.
    """
    S, A = m.states, m.actions
    chain = build_state_action_chain(m, cfg=cfg)
    r = _as_reference(r, S * A, cfg)
    dead = _zero_probability_actions(m)
    if dead:
        warnings.warn(
            "policy assigns zero probability to state-action pairs "
            f"{dead}; the state-action chain may be reducible",
            stacklevel=2)
    sol = potentials(chain, m.rewards.reshape(-1), r, allow_unchecked=True,
                     cfg=cfg)
    induced_g = (m.policy * sol.g.reshape(S, A)).sum(axis=1)
    return QSolution(sol.g, sol.eta, r, induced_g)


def reference_q_consistency_report(m: MdpModel, q: QSolution, *,
                                   cfg: Tolerances = DEFAULT) -> VerificationReport:
    """The Q-factor report on the literal state-action chain PL.

    Checks the pointwise definition Q(s,a) = f(s,a) - eta + sum_s2
    p(s,a,s2) g(s2) with g the induced state values, the equivalent
    fixed-point form through the state-action chain, the chain's row
    sums, and eta against the state-action stationary average reward.
    """
    S, A = m.states, m.actions
    f = m.rewards.reshape(-1)
    chain = build_state_action_chain(m, cfg=cfg)
    checks: list[CheckResult] = []

    P_sa = m.transitions.reshape(S * A, S)
    point = q.q - (f - q.eta + P_sa @ q.induced_g)
    resid = float(np.abs(point).max())
    checks.append(CheckResult("q_pointwise_definition",
                              resid <= cfg.poisson_tol, resid))

    fixed = q.q - (f - q.eta + chain.matrix @ q.q)
    resid = float(np.abs(fixed).max())
    checks.append(CheckResult("q_fixed_point",
                              resid <= cfg.poisson_tol, resid))

    rows = float(np.abs(chain.matrix.sum(axis=1) - 1.0).max())
    checks.append(CheckResult("state_action_rows_stochastic",
                              rows <= 1e-12, rows))

    resid = float(abs(q.eta - _pair_distribution(m, q.reference, cfg) @ f))
    checks.append(CheckResult("eta_vs_stationary_reward",
                              resid <= cfg.poisson_tol, resid))

    return VerificationReport(tuple(checks))


def reference_verify_spectral_shift(P, r=None, *,
                                    cfg: Tolerances = DEFAULT) -> VerificationReport:
    """The chain's shift-lemma report, written out for I - P + e r alone:
    the eigenvalue of P nearest 1 is 1, and the rest map to 1 - lambda."""
    P = validate_stochastic(P, cfg=cfg)
    r = _as_reference(r, P.size, cfg)
    n = P.size
    checks: list[CheckResult] = []

    M = _linalg.shifted_matrix(P, r.values)
    ones = np.ones(n)
    resid = float(np.abs(M @ ones - r.dot_with_ones * ones).max())
    tol = cfg.solve_tol_for(n)
    checks.append(CheckResult("ones_column_eigenvector", resid <= tol, resid))

    if n <= 3:
        lam = _linalg.small_matrix_eigenvalues(P.matrix)
        k1 = int(np.argmin(np.abs(lam - 1.0)))
        unit_resid = float(abs(lam[k1] - 1.0))
        checks.append(CheckResult("chain_unit_eigenvalue",
                                  unit_resid <= 1e-8, unit_resid))
        expected = np.array(
            [complex(r.dot_with_ones)]
            + [1.0 - lam[i] for i in range(n) if i != k1])
        computed = _linalg.small_matrix_eigenvalues(M)
        worst = _linalg.match_spectra(expected, computed)
        checks.append(CheckResult("shifted_spectrum", worst <= 1e-8, worst))

    return VerificationReport(tuple(checks))


def reference_verify_generator_spectrum(B, gamma: float, r=None, *,
                                        cfg: Tolerances = DEFAULT) -> VerificationReport:
    """The rate matrix's spectral report, written out for B + e r alone:
    zero row sums, the shift lemma with B's eigenvalue nearest 0, and
    the gamma-disk placement of the others."""
    B = validate_generator(B, cfg=cfg)
    gamma, rate = _checked_gamma(B, gamma)
    r = _as_reference(r, B.size, cfg)
    n = B.size
    ones = np.ones(n)
    checks: list[CheckResult] = []

    resid = float(np.abs(np.asarray(B.matrix) @ ones).max())
    checks.append(CheckResult("generator_zero_row_sums",
                              resid <= cfg.row_tol, resid))

    D = _linalg.shifted_matrix(B, r.values)
    resid = float(np.abs(D @ ones - r.dot_with_ones * ones).max())
    checks.append(CheckResult("ones_column_eigenvector",
                              resid <= cfg.solve_tol_for(n), resid))

    if n <= 3:
        lam_b = _linalg.small_matrix_eigenvalues(B.matrix)
        k0 = int(np.argmin(np.abs(lam_b)))
        zero_resid = float(abs(lam_b[k0]))
        checks.append(CheckResult("generator_zero_eigenvalue",
                                  zero_resid <= 1e-8, zero_resid))

        expected = np.array(
            [complex(r.dot_with_ones)]
            + [lam_b[i] for i in range(n) if i != k0])
        computed = _linalg.small_matrix_eigenvalues(D)
        worst = _linalg.match_spectra(expected, computed)
        checks.append(CheckResult("shifted_spectrum", worst <= 1e-8, worst))

        at_minimum = gamma <= rate * (1.0 + 1e-12)
        for i in range(n):
            if i == k0:
                continue
            dist = float(abs(lam_b[i] + gamma))
            name = f"eigenvalue_{i}_in_gamma_disk"
            if at_minimum and dist >= gamma * (1.0 - 1e-12):
                checks.append(CheckResult(
                    name, dist <= gamma * (1.0 + 1e-12), dist,
                    note="on the disk boundary at minimal gamma"))
            else:
                checks.append(CheckResult(name, dist < gamma, dist))

    return VerificationReport(tuple(checks))


def reference_potentials_classic(P, f, *, allow_unchecked: bool = False,
                                 cfg: Tolerances = DEFAULT):
    """Potentials with r = pi, from pi first and then a second LU, of
    I - P + e pi: the classical route, solved as it is written."""
    P = validate_stochastic(P, cfg=cfg)
    pi = stationary(P, None, allow_unchecked=allow_unchecked, cfg=cfg)
    r_pi = reference_vector(pi.pi, cfg=cfg)
    return potentials(P, f, r_pi, allow_unchecked=allow_unchecked, cfg=cfg)


def reference_ctmc_potentials_classic(B, f, *, allow_unchecked: bool = False,
                                      cfg: Tolerances = DEFAULT):
    """The classical (B - e pi) g = -f, from pi first and then a second
    LU, of B - e pi: pi.g = +eta."""
    B = validate_generator(B, cfg=cfg)
    f = reward_vector(f, B.size)
    pi = ctmc_stationary(B, None, allow_unchecked=allow_unchecked, cfg=cfg)
    g = _linalg.shifted_system(B, -pi.pi, cfg.pivot_tol).solve(-f.values)
    eta = float(pi.pi @ f.values)
    r_pi = reference_vector(pi.pi, cfg=cfg)
    return PotentialSolution(g, eta, r_pi, NORM_ETA)


def reference_shifted_lu(A: np.ndarray, r: np.ndarray):
    """Pivoted LU of (A + e r)^T, with A + e r built as a C-ordered sum.

    The literal build, kept as the oracle of the library's: A is I - P
    for a chain and B for a rate matrix. The library factors the
    transpose, so a solve with M takes trans=1 on this LU and a row
    solve trans=0.
    """
    M = A + np.outer(np.ones(A.shape[0]), r)
    return scipy.linalg.lu_factor(M.T)


def reference_shifted_lu_direct(A: np.ndarray, r: np.ndarray):
    """Pivoted LU of A + e r itself, the factorization the library made
    before it factored the transpose: a solve with M takes trans=0."""
    return scipy.linalg.lu_factor(A + np.outer(np.ones(A.shape[0]), r))


def exact_solve(M: np.ndarray, b: np.ndarray) -> list[Fraction]:
    """The exact solution of M x = b, for the float64 entries as given.

    Gaussian elimination in rationals: every double is a Fraction with no
    rounding, so this is the true solution of the matrix a float solver
    sees. Meant for n up to a dozen or so; raises ZeroDivisionError if M
    is exactly singular.
    """
    n = M.shape[0]
    rows = [[Fraction(float(v)) for v in M[i]] + [Fraction(float(b[i]))]
            for i in range(n)]
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k] != 0)
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(k + 1, n):
            m = rows[i][k] / rows[k][k]
            if m:
                rows[i] = [a - m * c for a, c in zip(rows[i], rows[k])]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (rows[i][n] - sum(rows[i][j] * x[j] for j in range(i + 1, n))
                ) / rows[i][i]
    return x


# The validators as they were before each one built a single n x n array,
# kept as their oracles: a finiteness rescan, a copy of the clamped array,
# and max_correction from the whole |out - a| difference.

def _require_square(raw, err: str) -> np.ndarray:
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"{err}: expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonSquareError(f"{err}: entries must be finite")
    return a


def _reference_validate_distribution_rows(a: np.ndarray, tol: float,
                                          what: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise NonSquareError(f"{what}: entries must be finite")
    low = a.min(initial=0.0)
    if low < -tol:
        i, j = np.unravel_index(int(np.argmin(a)), a.shape)
        raise NegativeEntryError(
            f"{what}: entry ({i},{j}) = {a[i, j]:.6g} is below -row_tol",
            row=int(i), col=int(j), value=float(a[i, j]))
    a = np.maximum(a, 0.0)
    sums = a.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > tol):
        i = int(np.argmax(np.abs(sums - 1.0)))
        raise RowSumViolationError(
            f"{what}: row {i} sums to {sums[i]:.17g}; |sum - 1| exceeds row_tol",
            row=i, row_sum=float(sums[i]))
    stale = np.abs(sums - 1.0) > _ROW_SUM_EXACT
    out = a.copy()
    out[stale] = a[stale] / sums[stale, None]
    _settle_row_sums(out, stale)
    return out


def reference_validate_stochastic(raw, row_tol: float | None = None, *,
                                  cfg: Tolerances = DEFAULT) -> StochasticMatrix:
    tol = cfg.row_tol if row_tol is None else float(row_tol)
    if tol <= 0:
        raise ValueError("row_tol must be positive")
    a = _require_square(raw, "transition matrix")
    out = _reference_validate_distribution_rows(a, tol, "transition matrix")
    correction = float(np.abs(out - a).max(initial=0.0))
    return StochasticMatrix(_freeze(out), correction)


def reference_validate_generator(raw, row_tol: float | None = None, *,
                                 cfg: Tolerances = DEFAULT) -> GeneratorMatrix:
    tol = cfg.row_tol if row_tol is None else float(row_tol)
    if tol <= 0:
        raise ValueError("row_tol must be positive")
    a = _require_square(raw, "generator matrix")
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    if off.min(initial=0.0) < -tol:
        i, j = np.unravel_index(int(np.argmin(off)), off.shape)
        raise NegativeOffDiagonalError(
            f"off-diagonal rate ({i},{j}) = {a[i, j]:.6g} is negative",
            row=int(i), col=int(j), value=float(a[i, j]))
    off = np.maximum(off, 0.0)
    rates = off.sum(axis=1)
    sums = rates + np.diag(a)
    if np.any(np.abs(sums) > tol):
        i = int(np.argmax(np.abs(sums)))
        raise RowSumViolationError(
            f"row {i} sums to {sums[i]:.17g}; |sum| exceeds row_tol",
            row=i, row_sum=float(sums[i]))
    np.fill_diagonal(off, -rates)
    correction = float(np.abs(off - a).max(initial=0.0))
    return GeneratorMatrix(_freeze(off), correction)


def reference_validate_mdp(transitions, rewards, policy,
                           row_tol: float | None = None, *,
                           cfg: Tolerances = DEFAULT) -> MdpModel:
    tol = cfg.row_tol if row_tol is None else float(row_tol)
    p = np.asarray(transitions, dtype=float)
    if p.ndim != 3 or p.shape[0] != p.shape[2]:
        raise NonSquareError(
            f"transition tensor must have shape (S, A, S), got {p.shape}")
    S, A = p.shape[0], p.shape[1]
    f = np.asarray(rewards, dtype=float)
    if f.shape != (S, A):
        raise DimensionMismatchError(
            f"rewards must have shape ({S}, {A}), got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise DimensionMismatchError("rewards must be finite")
    pol = np.asarray(policy, dtype=float)
    if pol.shape != (S, A):
        raise DimensionMismatchError(
            f"policy must have shape ({S}, {A}), got {pol.shape}")
    if not np.all(np.isfinite(pol)):
        raise DimensionMismatchError("policy must be finite")

    flat = _reference_validate_distribution_rows(p.reshape(S * A, S), tol,
                                                 "transition tensor")
    pol_rows = _reference_validate_distribution_rows(pol, tol, "policy")
    return MdpModel(
        _freeze(flat.reshape(S, A, S)),
        _freeze(f.copy()),
        _freeze(pol_rows),
    )


def oracle_stationary(P: np.ndarray) -> np.ndarray:
    """Solve pi P = pi, pi e = 1 by least squares on the stacked system."""
    n = P.shape[0]
    A = np.vstack([np.eye(n) - P.T, np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pi


def spectra_gap(a, b) -> float:
    """Largest pairing distance between two eigenvalue multisets."""
    b = list(b)
    worst = 0.0
    for lam in a:
        k = min(range(len(b)), key=lambda i: abs(lam - b[i]))
        worst = max(worst, abs(lam - b[k]))
        b.pop(k)
    return worst


def oracle_potentials(P: np.ndarray, f: np.ndarray, r: np.ndarray):
    """Poisson-equation solve with the normalization row r.g = eta appended.

    eta is pi.f from the stationary oracle; the stacked system
    [(I - P); r] g = [f - eta e; eta] pins the unique family member with
    r.g = eta.
    """
    n = P.shape[0]
    pi = oracle_stationary(P)
    eta = float(pi @ f)
    A = np.vstack([np.eye(n) - P, r.reshape(1, -1)])
    b = np.concatenate([f - eta, [eta]])
    g, *_ = np.linalg.lstsq(A, b, rcond=None)
    return g, eta
