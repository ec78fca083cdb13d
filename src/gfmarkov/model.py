"""Domain types for finite Markov models and their structural validation.

Covers row-stochastic transition matrices, transition-rate (generator)
matrices, reward and reference vectors, randomized-policy MDP models,
chain diagnostics (irreducibility, period), and uniformization of a
continuous-time process into an equivalent discrete chain.

All types are immutable after construction and safe to share across
threads; every operation in this module is a pure function of its
inputs. StochasticMatrix and GeneratorMatrix take their fields from one
private base: only the type tells a chain from a rate matrix. A
validated matrix carries one private memo: the LU of its last shifted
matrix A + e r and its last structural-gate verdict, so a second solve
or gate with the same reference and tolerances reuses them; an
MdpModel's memo keeps its policy chain P_pi, a StochasticMatrix. A memo
costs at most one n x n array per matrix and never changes a result;
concurrent first calls may each compute an entry, with identical bits.

:func:`diagnose_chain` is the one structural gate, for chains and rate
matrices alike. It decides every irreducible support, its period
included, by numpy alone, with no scipy loaded; only a reducible support
takes the csgraph route, which imports ``scipy.sparse`` at each call,
not with the package, to count the closed classes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    DimensionMismatchError,
    GammaTooSmallError,
    NegativeEntryError,
    NegativeOffDiagonalError,
    NonSquareError,
    ReferenceDegenerateError,
    RowSumViolationError,
)

__all__ = [
    "StochasticMatrix",
    "GeneratorMatrix",
    "RewardVector",
    "ReferenceVector",
    "MdpModel",
    "ChainDiagnostics",
    "validate_stochastic",
    "validate_generator",
    "validate_mdp",
    "diagnose_chain",
    "uniformize",
    "min_uniformization_rate",
    "reward_vector",
    "reference_vector",
    "uniform_reference",
    "e1_reference",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class _ValidatedMatrix:
    """The fields of both validated matrix types, which differ only in
    type; ``==`` compares classes, so a chain never equals a rate matrix."""

    matrix: np.ndarray
    max_correction: float = 0.0
    # {"lu": ((r bytes, pivot_tol), ShiftedSystem), "gate": (edge_tol,
    # ChainDiagnostics)}; each entry is one tuple, swapped in whole
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


class StochasticMatrix(_ValidatedMatrix):
    """Row-stochastic transition matrix of a finite discrete-time chain.

    Construct through :func:`validate_stochastic`; rows are guaranteed
    nonnegative with sums within a few ulp of 1. ``max_correction``
    reports the largest entry change validation applied.
    """


class GeneratorMatrix(_ValidatedMatrix):
    """Transition-rate matrix of a finite continuous-time process.

    Off-diagonal entries are nonnegative rates (1/time); each row sums to
    zero, with the diagonal adjusted during validation to absorb rounding.
    """


@dataclass(frozen=True)
class RewardVector:
    """Per-state (or per state-action pair) reward rates."""

    values: np.ndarray

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class ReferenceVector:
    """Row vector r with r.e bounded away from zero.

    The free parameter of every shifted-matrix formula: it selects which
    member of the constant-offset solution family is returned, via the
    normalization r.g = eta.
    """

    values: np.ndarray
    dot_with_ones: float

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class MdpModel:
    """Finite MDP with a fixed randomized policy.

    ``transitions[s, a, s2]`` is the probability of moving to s2 when
    action a is taken in state s; ``rewards[s, a]`` the one-step reward;
    ``policy[s, a]`` the probability the policy picks a in s.
    """

    transitions: np.ndarray
    rewards: np.ndarray
    policy: np.ndarray
    # {"policy_chain": (None, StochasticMatrix)}, as _ValidatedMatrix._memo
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def states(self) -> int:
        return self.transitions.shape[0]

    @property
    def actions(self) -> int:
        return self.transitions.shape[1]


@dataclass(frozen=True)
class ChainDiagnostics:
    """Structural facts about a chain's support graph."""

    irreducible: bool
    aperiodic: bool
    period: int
    num_closed_classes: int


def _integer(name: str, value) -> int:
    """value as an int, or a ValueError naming it; int() would truncate."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _memoized(source, slot: str, key, compute):
    """source._memo[slot]'s value if it was stored under key, else compute().

    The slot keeps only the last (key, value) pair, replaced in one store,
    so readers on other threads see an old pair or a new one, never a mix.
    A compute() that raises stores nothing.
    """
    hit = source._memo.get(slot)
    if hit is not None and hit[0] == key:
        return hit[1]
    value = compute()
    source._memo[slot] = (key, value)
    return value


def _require_square(raw: np.ndarray, err: str) -> np.ndarray:
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"{err}: expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise NonSquareError(f"{err}: a model needs at least one state, "
                             f"got shape {a.shape}")
    return a


# rows whose sums are this close to 1 are left untouched, which makes
# validation idempotent (renormalizing again would only shuffle last bits)
_ROW_SUM_EXACT = 16 * np.finfo(float).eps


def _settle_row_sums(m: np.ndarray, rows: np.ndarray) -> None:
    # nudge the largest entry of each renormalized row toward a bitwise-1.0
    # sum; pairwise-summation rounding can refuse the last ulp, so this is
    # best effort on top of the _ROW_SUM_EXACT guarantee
    for i in np.nonzero(rows)[0]:
        j = int(np.argmax(np.abs(m[i])))
        for _ in range(4):
            s = float(m[i].sum())
            if s == 1.0:
                break
            m[i, j] += 1.0 - s


def _row_tol(row_tol: float | None, cfg: Tolerances) -> float:
    tol = cfg.row_tol if row_tol is None else float(row_tol)
    if tol <= 0:
        raise ValueError("row_tol must be positive")
    return tol


def _validate_distribution_rows(a: np.ndarray, tol: float,
                                what: str) -> tuple[np.ndarray, float]:
    """Clamp tiny negatives, reject real ones, renormalize rows to sum 1.

    Returns the new rows and the largest entry change. NaN and +inf fail
    the row-sum test. Rows within _ROW_SUM_EXACT of sum 1 are only clamped.
    """
    low = a.min(initial=0.0)
    if low < -tol:
        i, j = np.unravel_index(int(np.argmin(a)), a.shape)
        raise NegativeEntryError(
            f"{what}: entry ({i},{j}) = {a[i, j]:.6g} is below -row_tol",
            row=int(i), col=int(j), value=float(a[i, j]))
    out = np.maximum(a, 0.0)
    sums = out.sum(axis=1)
    if not np.all(np.abs(sums - 1.0) <= tol):
        i = int(np.argmax(np.abs(sums - 1.0)))
        raise RowSumViolationError(
            f"{what}: row {i} sums to {sums[i]:.17g}; |sum - 1| exceeds row_tol",
            row=i, row_sum=float(sums[i]))
    stale = np.abs(sums - 1.0) > _ROW_SUM_EXACT
    out[stale] /= sums[stale, None]
    _settle_row_sums(out, stale)
    # a row left as it was changed only where a negative entry was clamped,
    # by -a[i, j] <= -low; the leading 0.0 keeps a -0.0 out of the result
    moved = float(np.abs(out[stale] - a[stale]).max(initial=0.0))
    return out, max(0.0, -float(low), moved)


def validate_stochastic(raw, row_tol: float | None = None, *,
                        cfg: Tolerances = DEFAULT) -> StochasticMatrix:
    """Validate and renormalize a transition matrix.

    Entries in [-row_tol, 0) are clamped to zero; anything more negative is
    rejected. Row sums must lie within row_tol of 1, then get renormalized
    so downstream algebra sees machine-consistent stochasticity. Validating
    the output again returns it unchanged, bit for bit. A NaN or +inf entry
    fails its row's sum (RowSumViolation); a -inf entry is a NegativeEntry.
    A StochasticMatrix is returned unchanged, whatever row_tol and cfg say.
    """
    if isinstance(raw, StochasticMatrix):
        return raw
    tol = _row_tol(row_tol, cfg)
    a = _require_square(raw, "transition matrix")
    out, correction = _validate_distribution_rows(a, tol, "transition matrix")
    return StochasticMatrix(_freeze(out), correction)


def validate_generator(raw, row_tol: float | None = None, *,
                       cfg: Tolerances = DEFAULT) -> GeneratorMatrix:
    """Validate a transition-rate matrix, forcing exact zero row sums.

    Off-diagonal rates in [-row_tol, 0) are clamped to zero; each row sum
    must lie within row_tol of 0 and the diagonal is then set to minus the
    off-diagonal sum, which also guarantees a nonpositive diagonal. A -inf
    rate is a NegativeOffDiagonal, any other non-finite entry a RowSumViolation.
    A GeneratorMatrix is returned unchanged, whatever row_tol and cfg say.
    """
    if isinstance(raw, GeneratorMatrix):
        return raw
    tol = _row_tol(row_tol, cfg)
    a = _require_square(raw, "generator matrix")
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    low = off.min(initial=0.0)
    if low < -tol:
        i, j = np.unravel_index(int(np.argmin(off)), off.shape)
        raise NegativeOffDiagonalError(
            f"off-diagonal rate ({i},{j}) = {a[i, j]:.6g} is negative",
            row=int(i), col=int(j), value=float(a[i, j]))
    np.maximum(off, 0.0, out=off)
    rates = off.sum(axis=1)
    with np.errstate(invalid="ignore"):  # +inf rate against a -inf diagonal
        sums = rates + np.diag(a)
    if not np.all(np.abs(sums) <= tol):
        i = int(np.argmax(np.abs(sums)))
        raise RowSumViolationError(
            f"row {i} sums to {sums[i]:.17g}; |sum| exceeds row_tol",
            row=i, row_sum=float(sums[i]))
    np.fill_diagonal(off, -rates)
    # off-diagonal entries moved only where clamped, by at most -low
    moved = float(np.abs(-rates - np.diag(a)).max(initial=0.0))
    return GeneratorMatrix(_freeze(off), max(0.0, -float(low), moved))


def reward_vector(values, expected_len: int | None = None) -> RewardVector:
    """A finite reward vector, of length expected_len if given. A
    RewardVector is returned unchanged; only its length is checked."""
    if not isinstance(values, RewardVector):
        v = np.array(values, dtype=float).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise DimensionMismatchError("reward vector entries must be finite")
        values = RewardVector(_freeze(v))
    if expected_len is not None and len(values) != expected_len:
        raise DimensionMismatchError(
            f"reward vector has length {len(values)}, expected {expected_len}",
            expected=expected_len, got=len(values))
    return values


def reference_vector(values, *, cfg: Tolerances = DEFAULT) -> ReferenceVector:
    """Build a reference vector, rejecting r with |r.e| below re_tol or
    not finite. A ReferenceVector is returned unchanged."""
    if isinstance(values, ReferenceVector):
        return values
    v = np.array(values, dtype=float).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ReferenceDegenerateError("reference vector entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        dot = float(v.sum())
    if not np.isfinite(dot):
        raise ReferenceDegenerateError(
            "r.e overflows; the shifted matrix would not be finite")
    if abs(dot) < cfg.re_tol:
        raise ReferenceDegenerateError(
            f"|r.e| = {abs(dot):.3e} is below re_tol; the shifted matrix "
            "would be singular", dot_with_ones=dot)
    return ReferenceVector(_freeze(v), dot)


def uniform_reference(n: int, *, cfg: Tolerances = DEFAULT) -> ReferenceVector:
    """The default reference (1/n, ..., 1/n); r.e = 1. Refused for n = 0,
    as the empty vector is."""
    return reference_vector(np.full(n, 1.0 / max(n, 1)), cfg=cfg)


def e1_reference(n: int, *, cfg: Tolerances = DEFAULT) -> ReferenceVector:
    """The first coordinate vector (1, 0, ..., 0). Refused for n = 0, as
    the empty vector is."""
    v = np.zeros(n)
    v[:1] = 1.0
    return reference_vector(v, cfg=cfg)


def validate_mdp(transitions, rewards, policy, row_tol: float | None = None, *,
                 cfg: Tolerances = DEFAULT) -> MdpModel:
    """Validate an MDP model with a fixed randomized policy.

    Transition rows p(s,a,.) and policy rows must be probability
    distributions within row_tol; both are exactly renormalized. Their
    non-finite entries fail as in validate_stochastic; rewards must be finite.
    """
    tol = _row_tol(row_tol, cfg)
    p = np.asarray(transitions, dtype=float)
    if p.ndim != 3 or p.shape[0] != p.shape[2]:
        raise NonSquareError(
            f"transition tensor must have shape (S, A, S), got {p.shape}")
    if p.shape[0] == 0:
        raise NonSquareError("transition tensor: a model needs at least one "
                             f"state, got shape {p.shape}")
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

    flat, _ = _validate_distribution_rows(p.reshape(S * A, S), tol,
                                          "transition tensor")
    pol_rows, _ = _validate_distribution_rows(pol, tol, "policy")
    return MdpModel(
        _freeze(flat.reshape(S, A, S)),
        _freeze(f.copy()),
        _freeze(pol_rows),
    )


def _levels(adj: np.ndarray) -> np.ndarray:
    """BFS levels from state 0 along the rows of `adj`, -1 where unreached.

    Each state enters the frontier once, so the walk is O(n^2) in all; it
    stops once every state has a level."""
    n = adj.shape[0]
    level = np.full(n, -1, dtype=np.intp)
    unseen = np.ones(n, dtype=bool)  # level < 0, kept apart: cheaper per level
    level[0], unseen[0] = 0, False
    front = np.zeros(1, dtype=np.intp)
    depth, left = 0, n - 1
    while front.size and left:
        depth += 1
        front = (adj[front].any(axis=0) & unseen).nonzero()[0]
        unseen[front] = False
        level[front] = depth
        left -= front.size
    return level


# support cells per row slice of an irreducible support's period gcd
_GCD_CELLS = 1 << 18


def _support_diagnostics(adj: np.ndarray) -> ChainDiagnostics:
    """Irreducibility, period, and closed-class count of a boolean support.

    The support is strongly connected iff BFS from state 0 reaches every
    state along the edges and against them (Sharir 1981). Then a set
    diagonal entry, a cycle of length 1, gives period 1; otherwise the
    period is the gcd over the edges (u, v) of level(u) + 1 - level(v),
    with the forward BFS levels (Jarvis & Shier 1999). Tree edges
    contribute 0, so an all-zero gcd means period 1. The edges are taken
    a slice of rows (about _GCD_CELLS cells) at a time, and the slices
    stop once the gcd is 1.

    Only a support that a walk does not cover, a reducible one, goes on
    to one strong-components pass over its edge list (Tarjan 1972):
    closed classes are the components that no edge leaves and, without a
    self-loop, the same gcd runs on levels from one root per component.
    Only this route loads scipy.sparse.
    """
    n = adj.shape[0]
    looped = bool(adj.diagonal().any())
    level = _levels(adj)
    if level.min() >= 0 and _levels(adj.T).min() >= 0:
        period = 1 if looped else 0
        step = max(1, _GCD_CELLS // n)
        for start in range(0, n, step):
            if period == 1:
                break
            # flat indices: far cheaper than a 2-d nonzero on a sparse slice
            u, v = np.divmod(np.flatnonzero(adj[start:start + step]), n)
            period = int(np.gcd.reduce(level[u + start] + 1 - level[v],
                                       initial=period))
        period = period or 1
        return ChainDiagnostics(True, period == 1, period, 1)
    counts = np.count_nonzero(adj, axis=1)
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, dijkstra
    # CSR arrays straight from the dense support: flat indices are
    # row-major, so they come sorted within each row
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
        u, v = u[inside], v[inside]
        g = csr_matrix((np.ones(u.size, dtype=bool), (u, v)), shape=(n, n))
        # each state is reachable in g only from the root of its own
        # component, so the minimum over roots is the level from that root
        roots = np.unique(labels, return_index=True)[1]
        level = dijkstra(g, indices=roots, unweighted=True,
                         min_only=True).astype(np.int32)
        period = abs(int(np.gcd.reduce(level[u] + 1 - level[v]))) or 1
    return ChainDiagnostics(
        irreducible=False,
        aperiodic=period == 1,
        period=period,
        num_closed_classes=int(num_closed),
    )


def diagnose_chain(P: StochasticMatrix | GeneratorMatrix, *,
                   cfg: Tolerances = DEFAULT) -> ChainDiagnostics:
    """Irreducibility, period, and closed-class count from the support graph.

    P is a chain or a rate matrix, as for ``_linalg.shifted_system``. In a
    chain an edge i -> j exists iff P(i,j) > edge_tol (default: strictly
    positive). A rate matrix B gets the support of its uniformized chain
    I + B / gamma at gamma = max rate + 1: its diagonal is set, so
    irreducibility there is exactly ergodicity of B. B is compared with
    edge_tol * gamma, not divided: a positive rate whose quotient
    underflows stays an edge. The reported period is the gcd of all
    directed cycle lengths; for reducible chains that is the gcd across
    the components that contain cycles, so aperiodic <=> period == 1 by
    construction. Two numpy BFS walks from state 0, along the edges and
    against them, decide an irreducible support and its period in O(n^2)
    work at any depth, one Python step per BFS level; only a reducible
    support takes a csgraph strong-components pass, O(n^2 + edges), which
    imports scipy.sparse. The verdict is kept on P for the next gate with
    the same edge_tol. Any P but a rate matrix goes through
    :func:`validate_stochastic` under cfg, as in the public solves.
    """
    if not isinstance(P, GeneratorMatrix):
        P = validate_stochastic(P, cfg=cfg)
    def gate() -> ChainDiagnostics:
        if not isinstance(P, GeneratorMatrix):
            return _support_diagnostics(np.asarray(P.matrix) > cfg.edge_tol)
        gamma = min_uniformization_rate(P) + 1.0
        adj = np.asarray(P.matrix) > cfg.edge_tol * gamma
        np.fill_diagonal(adj, True)
        return _support_diagnostics(adj)
    return _memoized(P, "gate", cfg.edge_tol, gate)


def min_uniformization_rate(B) -> float:
    """Largest exit rate max_s |B(s,s)|, the smallest admissible gamma;
    a raw B goes through :func:`validate_generator` under DEFAULT."""
    return float(np.abs(np.diag(validate_generator(B).matrix)).max(initial=0.0))


def _checked_gamma(B: GeneratorMatrix, gamma: float) -> tuple[float, float]:
    """gamma as a float and the largest exit rate, after the one gamma guard.

    GammaTooSmallError unless gamma is finite, positive and at least the
    largest exit rate; uniformize and verify_generator_spectrum share it.
    """
    gamma = float(gamma)
    rate = min_uniformization_rate(B)
    if not np.isfinite(gamma) or gamma <= 0.0 or gamma < rate:
        raise GammaTooSmallError(
            f"gamma = {gamma:.6g} must be finite, positive and at least the "
            f"largest exit rate {rate:.6g}", gamma=gamma, min_rate=rate)
    return gamma, rate


def uniformize(B, gamma: float, *,
               cfg: Tolerances = DEFAULT) -> StochasticMatrix:
    """Embed a rate matrix into the discrete chain P = I + B / gamma.

    gamma must be at least the largest exit rate, otherwise the diagonal
    of P would go negative. A raw B goes through
    :func:`validate_generator` under cfg.
    """
    B = validate_generator(B, cfg=cfg)
    gamma, _ = _checked_gamma(B, gamma)
    P = np.eye(B.size) + np.asarray(B.matrix) / gamma
    return validate_stochastic(P, cfg.row_tol, cfg=cfg)
