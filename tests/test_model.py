import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph as scipy_csgraph

from gfmarkov import (
    GammaTooSmallError,
    NegativeEntryError,
    SimulationConfig,
    ctmc_potentials,
    ctmc_potentials_classic,
    diagnose_chain,
    e1_reference,
    fundamental_matrix,
    min_uniformization_rate,
    online_potentials,
    potentials,
    potentials_classic,
    potentials_reference_level,
    reference_vector,
    reward_vector,
    series_fundamental,
    stationary,
    uniform_reference,
    uniformize,
    validate_generator,
    validate_mdp,
    validate_stochastic,
    verify_generator_spectrum,
    verify_spectral_shift,
)
from gfmarkov import model
from gfmarkov.config import DEFAULT
from gfmarkov.ctmc import ctmc_stationary
from gfmarkov.errors import (
    ModelError,
    NegativeOffDiagonalError,
    NonSquareError,
    ReferenceDegenerateError,
    RowSumViolationError,
)

from conftest import (
    count_calls,
    random_chain,
    random_generator_matrix,
    random_periodic_chain,
    random_reference,
    reference_csgraph_diagnostics,
    reference_diagnose_chain,
    reference_validate_generator,
    reference_validate_mdp,
    reference_validate_stochastic,
)


class TestValidateStochastic:
    def test_exact_rows(self):
        sm = validate_stochastic([[0.5, 0.5], [0.5, 0.5]], 1e-9)
        assert np.array_equal(sm.matrix, [[0.5, 0.5], [0.5, 0.5]])
        assert sm.max_correction == 0.0

    def test_one_state(self):
        sm = validate_stochastic([[1.0]], 1e-9)
        assert sm.matrix[0, 0] == 1.0
        assert sm.size == 1

    def test_row_sum_violation(self):
        with pytest.raises(RowSumViolationError) as exc:
            validate_stochastic([[0.7, 0.4], [0.5, 0.5]], 1e-9)
        assert exc.value.detail["row"] == 0

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntryError):
            validate_stochastic([[1.1, -0.1], [0.5, 0.5]])

    def test_tiny_negative_clamped(self):
        sm = validate_stochastic([[1.0, -1e-12], [0.5, 0.5]])
        assert sm.matrix[0, 1] == 0.0
        assert sm.matrix.min() >= 0.0

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            validate_stochastic([[0.5, 0.5]])

    def test_rows_renormalized_to_machine_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sm = random_chain(rng, int(rng.integers(2, 9)))
            assert np.abs(sm.matrix.sum(axis=1) - 1.0).max() <= 1e-14

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            sm = random_chain(rng, int(rng.integers(2, 9)))
            again = validate_stochastic(sm.matrix)
            assert np.array_equal(again.matrix, sm.matrix)
            assert again.max_correction == 0.0

    def test_result_is_readonly(self):
        sm = validate_stochastic([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            sm.matrix[0, 0] = 2.0


class TestValidateGenerator:
    def test_exact_zero_rows(self):
        gen = validate_generator([[-1.0, 1.0], [1.0, -1.0]], 1e-9)
        assert np.array_equal(gen.matrix, [[-1.0, 1.0], [1.0, -1.0]])

    def test_one_state_absorbing(self):
        gen = validate_generator([[0.0]])
        assert gen.matrix[0, 0] == 0.0

    def test_row_sum_violation(self):
        with pytest.raises(RowSumViolationError) as exc:
            validate_generator([[-1.0, 0.5], [1.0, -1.0]])
        assert exc.value.detail["row"] == 0

    def test_negative_off_diagonal(self):
        with pytest.raises(NegativeOffDiagonalError):
            validate_generator([[1.0, -1.0], [1.0, -1.0]])

    def test_diagonal_nonpositive_and_zero_sums(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            gen = random_generator_matrix(rng, int(rng.integers(2, 7)))
            assert np.all(np.diag(gen.matrix) <= 0.0)
            assert np.abs(gen.matrix.sum(axis=1)).max() < 1e-12


def _distribution_rows(rng: np.random.Generator, rows: int, n: int,
                       kind: str, tol: float) -> np.ndarray:
    """Random probability rows of one kind, as a validator's raw input.

    "exact": rows normalized by division, within a few ulp of sum 1.
    "stale": about half the rows scaled by up to 1 +- tol / 4.
    "tiny_negative": zero entries set to small negatives the validator
    clamps. "mixed": both. "rounded": entries rounded to 3 decimals, rows
    then off by up to n / 2000. "negative": one entry at -2 tol, which
    the validator rejects.
    """
    a = rng.gamma(1.0, 1.0, (rows, n)) * (rng.random((rows, n)) < 0.6)
    a[np.arange(rows), rng.integers(0, n, rows)] += 0.1
    a /= a.sum(axis=1, keepdims=True)
    if kind in ("tiny_negative", "mixed"):
        zero = (a == 0.0) & (rng.random(a.shape) < 0.5)
        a[zero] = -rng.uniform(0.0, tol / (4 * n), int(zero.sum()))
    if kind in ("stale", "mixed"):
        scale = rng.uniform(-tol / 4, tol / 4, (rows, 1))
        a *= 1.0 + scale * (rng.random((rows, 1)) < 0.5)
    elif kind == "rounded":
        a = np.round(a, 3)
    elif kind == "negative":
        a[rng.integers(0, rows), rng.integers(0, n)] = -2 * tol
    return a


def _outcome(validate, *args):
    try:
        return validate(*args), None
    except Exception as e:  # the oracle must raise the same error
        return None, (type(e), str(e), getattr(e, "detail", None))


class TestValidatorsMatchOracle:
    """The one-buffer validators against their earlier form, bit for bit."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           kind=st.sampled_from(["exact", "stale", "tiny_negative", "mixed",
                                 "rounded", "negative"]),
           tol=st.sampled_from([1e-9, 1e-6, 1e-2]),
           fortran=st.booleans())
    def test_random_inputs(self, seed, n, kind, tol, fortran):
        rng = np.random.default_rng(seed)
        a = _distribution_rows(rng, n, n, kind, tol)
        if fortran:
            a = np.asfortranarray(a)
        for validate, oracle, raw in (
                (validate_stochastic, reference_validate_stochastic, a),
                (validate_generator, reference_validate_generator, a - np.eye(n))):
            got, got_err = _outcome(validate, raw, tol)
            want, want_err = _outcome(oracle, raw, tol)
            assert got_err == want_err
            if want is not None:
                assert np.array_equal(got.matrix, want.matrix)
                assert got.matrix.flags.c_contiguous
                got_c, want_c = got.max_correction, want.max_correction
                assert type(got_c) is float and got_c == want_c
                assert math.copysign(1.0, got_c) == math.copysign(1.0, want_c)

        S, A = max(n // 2, 1), int(rng.integers(1, 4))
        p = _distribution_rows(rng, S * A, S, kind, tol).reshape(S, A, S)
        policy = _distribution_rows(rng, S, A, kind, tol)
        rewards = rng.normal(size=(S, A))
        got, got_err = _outcome(validate_mdp, p, rewards, policy, tol)
        want, want_err = _outcome(reference_validate_mdp, p, rewards, policy, tol)
        assert got_err == want_err
        if want is not None:
            for field in ("transitions", "rewards", "policy"):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_non_finite_entries(self):
        # the row-sum tests refuse them; the oracles' finiteness scan said
        # NonSquare, a code that names a shape fault
        nan, inf = float("nan"), float("inf")
        for validate, args, message, row_sum in (
                (validate_stochastic, ([[nan, 1.0], [0.5, 0.5]],),
                 "transition matrix: row 0 sums to nan; |sum - 1| exceeds "
                 "row_tol", nan),
                (validate_generator, ([[-1.0, inf], [1.0, -1.0]],),
                 "row 0 sums to inf; |sum| exceeds row_tol", inf),
                (validate_mdp,
                 (np.full((2, 1, 2), nan), np.zeros((2, 1)), np.ones((2, 1))),
                 "transition tensor: row 0 sums to nan; |sum - 1| exceeds "
                 "row_tol", nan)):
            got, (kind, text, detail) = _outcome(validate, *args)
            assert got is None and kind is RowSumViolationError
            assert text == message
            assert detail.keys() == {"row", "row_sum"} and detail["row"] == 0
            assert np.array_equal(detail["row_sum"], row_sum, equal_nan=True)

    @pytest.mark.parametrize("row_tol", [0.0, -1.0])
    def test_row_tol_must_be_positive(self, row_tol):
        mdp = (np.full((2, 1, 2), 0.5), np.zeros((2, 1)), np.ones((2, 1)))
        for call in (lambda: validate_stochastic([[1.0]], row_tol),
                     lambda: validate_generator([[0.0]], row_tol),
                     lambda: validate_mdp(*mdp, row_tol)):
            with pytest.raises(ValueError, match="row_tol must be positive"):
                call()


_NON_FINITE = {"nan": float("nan"), "+inf": float("inf"), "-inf": -float("inf")}


class TestNonFiniteEntries:
    """Each non-finite entry fails the sign or row-sum test that names it."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           target=st.sampled_from(["P", "B", "tensor", "policy"]),
           entries=st.lists(st.tuples(st.sampled_from(sorted(_NON_FINITE)),
                                      st.integers(0, 11), st.integers(0, 11)),
                            min_size=1, max_size=3))
    @example(seed=0, n=3, target="B", entries=[("+inf", 0, 1), ("-inf", 0, 0)])
    def test_random_placements(self, seed, n, target, entries):
        rng = np.random.default_rng(seed)
        S, A = n, int(rng.integers(1, 4))
        p = _distribution_rows(rng, S * A, S, "exact", 1e-9)
        policy = _distribution_rows(rng, S, A, "exact", 1e-9)
        a = {"P": p[:n], "B": p[:n] - np.eye(n), "tensor": p,
             "policy": policy}[target]
        placed = set()
        for value, i, d in entries:  # column i + d: d = 0 hits the diagonal
            i, j = i % a.shape[0], (i + d) % a.shape[1]
            a[i, j] = _NON_FINITE[value]
            # any non-finite diagonal rate fails its row sum, as +inf does
            placed.add("+inf" if target == "B" and i == j else value)
        codes = {"nan": "RowSumViolation", "+inf": "RowSumViolation",
                 "-inf": ("NegativeOffDiagonal" if target == "B"
                          else "NegativeEntry")}
        with warnings.catch_warnings(), pytest.raises(ModelError) as exc:
            warnings.simplefilter("error")
            if target == "P":
                validate_stochastic(a)
            elif target == "B":
                validate_generator(a)
            else:
                validate_mdp(p.reshape(S, A, S), np.zeros((S, A)), policy)
        assert exc.value.code in {codes[v] for v in placed}
        if exc.value.code == "RowSumViolation":
            assert not np.all(np.isfinite(a[exc.value.detail["row"]]))
        else:
            i, j = exc.value.detail["row"], exc.value.detail["col"]
            assert a[i, j] == -np.inf and (target != "B" or i != j)


class TestDiagnoseChain:
    def test_two_cycle_periodic(self):
        d = diagnose_chain(validate_stochastic([[0, 1], [1, 0]]))
        assert d.irreducible and not d.aperiodic and d.period == 2

    def test_positive_chain_aperiodic(self):
        d = diagnose_chain(validate_stochastic([[0.5, 0.5], [0.5, 0.5]]))
        assert d.irreducible and d.aperiodic and d.period == 1

    def test_absorbing_state_reducible(self):
        d = diagnose_chain(validate_stochastic([[1, 0], [0.5, 0.5]]))
        assert not d.irreducible
        assert d.num_closed_classes == 1

    def test_raw_array_is_validated_first(self):
        for raw in ([[0, 1], [1, 0]], [[1, 0], [0.5, 0.5]], [[0.5, 0.5], [0.2, 0.8]]):
            assert diagnose_chain(raw) == diagnose_chain(validate_stochastic(raw))
        with pytest.raises(RowSumViolationError):
            diagnose_chain([[0.5, 0.6], [0.5, 0.5]])

    def test_three_cycle(self):
        P = validate_stochastic([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        d = diagnose_chain(P)
        assert d.period == 3 and not d.aperiodic

    def test_self_loop_in_every_class_gives_aperiodic(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            sm = random_chain(rng, int(rng.integers(2, 8)))
            d = diagnose_chain(sm)
            # strictly positive chains have self loops everywhere
            assert d.aperiodic and d.period == 1
            assert d.aperiodic == (d.period == 1)

    def test_two_closed_classes(self):
        P = validate_stochastic([[1, 0, 0], [0, 1, 0], [0.5, 0.5, 0]])
        d = diagnose_chain(P)
        assert not d.irreducible
        assert d.num_closed_classes == 2

    def test_reducible_with_self_loops_everywhere_is_aperiodic(self):
        # every communicating class carries a positive diagonal entry
        P = validate_stochastic([
            [0.5, 0.5, 0.0],
            [0.5, 0.5, 0.0],
            [0.3, 0.3, 0.4],
        ])
        d = diagnose_chain(P)
        assert not d.irreducible
        assert d.aperiodic and d.period == 1

    def test_period_is_gcd_across_closed_classes(self):
        # closed cycles of lengths 2 and 3: gcd(2, 3) = 1
        P = np.zeros((5, 5))
        P[0, 1] = P[1, 0] = 1.0
        P[2, 3] = P[3, 4] = P[4, 2] = 1.0
        d = diagnose_chain(validate_stochastic(P))
        assert not d.irreducible and d.num_closed_classes == 2
        assert d.period == 1 and d.aperiodic

    def test_transient_state_without_cycle_adds_nothing(self):
        # 0 <-> 1 closed, 2 -> 0 transient with no self loop
        d = diagnose_chain(validate_stochastic([[0, 1, 0], [1, 0, 0], [1, 0, 0]]))
        assert not d.irreducible and d.num_closed_classes == 1
        assert d.period == 2 and not d.aperiodic

    def test_one_state(self):
        d = diagnose_chain(validate_stochastic([[1.0]]))
        assert d.irreducible and d.aperiodic and d.period == 1
        assert d.num_closed_classes == 1

    def test_long_cycle(self):
        d = diagnose_chain(random_periodic_chain(500))
        assert d.irreducible and d.period == 500 and not d.aperiodic


def _random_support(seed: int, n: int, density: float, kind: str,
                    period: int) -> np.ndarray:
    """Boolean support of one of three shapes; every row has an edge.

    "sparse": independent edges. "cyclic": states split into `period`
    nonempty classes, edges only from a class to the next one.
    "reducible": one to three closed blocks plus transient states that
    each reach a closed block.
    """
    rng = np.random.default_rng(seed)
    pick = rng.random((n, n))
    if kind == "sparse":
        allowed = np.ones((n, n), dtype=bool)
    elif kind == "cyclic":
        d = min(period, n)
        cls = rng.permutation(np.arange(n) % d)
        allowed = cls[None, :] == (cls[:, None] + 1) % d
    else:
        closed = int(rng.integers(1, n + 1))
        block = np.full(n, -1)
        block[:closed] = rng.integers(0, 3, size=closed)
        allowed = (block[:, None] == block[None, :]) | (block[:, None] < 0)
    adj = allowed & (pick < density)
    empty = ~adj.any(axis=1)
    adj[empty, np.argmax(pick * allowed, axis=1)[empty]] = True
    if kind == "reducible":
        adj[np.arange(closed, n), rng.integers(0, closed, size=n - closed)] = True
    perm = rng.permutation(n)
    return adj[np.ix_(perm, perm)]


class TestDiagnoseChainMatchesOracle:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           density=st.floats(0.02, 0.5),
           kind=st.sampled_from(["sparse", "cyclic", "reducible"]),
           period=st.integers(2, 5))
    def test_random_supports(self, seed, n, density, kind, period):
        adj = _random_support(seed, n, density, kind, period)
        weights = adj * (np.random.default_rng(seed).random((n, n)) + 0.1)
        P = validate_stochastic(weights / weights.sum(axis=1, keepdims=True))
        assert np.array_equal(P.matrix > 0, adj)
        assert diagnose_chain(P) == reference_diagnose_chain(P)


def _chain_on(adj: np.ndarray, seed: int = 0):
    """A validated chain whose support is exactly `adj`."""
    weights = adj * (np.random.default_rng(seed).random(adj.shape) + 0.1)
    P = validate_stochastic(weights / weights.sum(axis=1, keepdims=True))
    assert np.array_equal(P.matrix > 0, adj)
    return P


def _dense_support(seed: int, n: int, density: float, kind: str,
                   period: int) -> np.ndarray:
    """Dense boolean support of one of four shapes; every row has an edge.

    "diagonal" / "no_diagonal": independent edges with the diagonal all
    set / clear (n > 1). "cyclic": `period` classes with dense blocks from
    each class to the next. "reducible": a closed block of 1 to n-1
    states, which no edge leaves.
    """
    rng = np.random.default_rng(seed)
    pick = rng.random((n, n))
    allowed = np.ones((n, n), dtype=bool)
    if kind == "cyclic":
        d = min(period, n)
        cls = rng.permutation(np.arange(n) % d)
        allowed = cls[None, :] == (cls[:, None] + 1) % d
    elif kind == "reducible":
        closed = np.arange(n) < int(rng.integers(1, n))
        allowed[closed[:, None] & ~closed[None, :]] = False
    adj = allowed & (pick < density)
    if kind == "diagonal":
        np.fill_diagonal(adj, True)
    elif kind == "no_diagonal":
        np.fill_diagonal(adj, False)
    empty = ~adj.any(axis=1)
    if kind == "no_diagonal":
        allowed &= ~np.eye(n, dtype=bool)
    adj[empty, np.argmax(pick * allowed, axis=1)[empty]] = True
    perm = rng.permutation(n)
    return adj[np.ix_(perm, perm)]


class TestFrontierRouteMatchesOracle:
    """The two frontier walks decide every irreducible support; csgraph
    runs only on a reducible one."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120),
           density=st.floats(0.3, 1.0),
           kind=st.sampled_from(["diagonal", "no_diagonal", "cyclic",
                                 "reducible"]),
           period=st.integers(2, 5))
    def test_dense_supports(self, seed, n, density, kind, period):
        if kind == "reducible":
            n = max(n, 2)
        adj = _dense_support(seed, n, density, kind, period)
        P = _chain_on(adj, seed)
        expected = reference_diagnose_chain(P)
        with mock.patch.object(
                scipy_csgraph, "connected_components",
                wraps=scipy_csgraph.connected_components) as csgraph:
            assert diagnose_chain(P) == expected
        assert csgraph.call_count == (0 if expected.irreducible else 1)

    def test_decides_dense_irreducible_supports(self):
        n = 60
        full = np.ones((n, n), dtype=bool)
        hollow = ~np.eye(n, dtype=bool)
        three = (np.arange(n)[None, :] % 3) == ((np.arange(n)[:, None] + 1) % 3)
        for adj, period in ((full, 1), (hollow, 1), (three, 3)):
            P = _chain_on(adj)
            with mock.patch.object(
                    scipy_csgraph, "connected_components",
                    wraps=scipy_csgraph.connected_components) as csgraph:
                d = diagnose_chain(P)
            assert d == reference_diagnose_chain(P)
            assert d.irreducible and d.period == period
            assert csgraph.call_count == 0


def _ring(n: int, offsets) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    adj[np.arange(n)[:, None], (np.arange(n)[:, None] + offsets) % n] = True
    return adj


def _clique_with_tail(clique: int, n: int) -> np.ndarray:
    # a complete block whose last state starts a path through the other
    # n - clique states and back to state 0: irreducible, ~46 edges per
    # row at (300, 2000), but ~n - clique BFS levels deep
    adj = np.zeros((n, n), dtype=bool)
    adj[:clique, :clique] = True
    tail = np.arange(clique - 1, n)
    adj[tail, (tail + 1) % n] = True
    return adj


def _reducible_dense(state_0_closed: bool) -> np.ndarray:
    # two halves with self loops; edges run one way between them, so the
    # forward (state 0 closed) or the backward (state 0 transient) BFS
    # from state 0 misses a half
    adj = np.random.default_rng(23).random((200, 200)) < 0.5
    adj |= np.eye(200, dtype=bool)
    if state_0_closed:
        adj[:100, 100:] = False
    else:
        adj[100:, :100] = False
    return adj


_SUPPORTS = {
    "solve_sparse_ring": lambda: _ring(600, np.arange(-5, 6)),
    "cycle_500": lambda: _ring(500, [1]),
    "lazy_ring_600": lambda: _ring(600, [0, 1]),
    # ~9 edges per row but only a few BFS levels deep
    "shallow_sparse_600": lambda: _ring(600, [1]) | (
        np.random.default_rng(29).random((600, 600)) < 8 / 600),
    "reducible_dense_0_closed": lambda: _reducible_dense(True),
    "reducible_dense_0_transient": lambda: _reducible_dense(False),
    "clique_with_tail": lambda: _clique_with_tail(300, 2000),
}


class TestGateRoute:
    """Irreducible supports, however sparse or deep, skip csgraph; only a
    reducible support uses it."""

    def test_dense_dtmc_and_ctmc_skip_csgraph(self, monkeypatch):
        rng = np.random.default_rng(19)
        calls = count_calls(monkeypatch, scipy_csgraph, "connected_components")
        assert diagnose_chain(random_chain(rng, 60)).irreducible
        B = random_generator_matrix(rng, 60)
        assert diagnose_chain(B).irreducible
        assert calls == []

    @pytest.mark.parametrize("name", sorted(_SUPPORTS))
    def test_other_supports_use_csgraph(self, monkeypatch, name):
        P = _chain_on(_SUPPORTS[name]())
        calls = count_calls(monkeypatch, scipy_csgraph, "connected_components")
        d = diagnose_chain(P)
        reducible = name.startswith("reducible")
        assert len(calls) == (1 if reducible else 0)
        assert d.irreducible == (not reducible)
        assert d.period == (500 if name == "cycle_500" else 1)


class TestSelfLoopRule:
    """A set diagonal entry fixes the period at 1 on both routes."""

    @pytest.mark.parametrize("name", ["solve_sparse_ring", "lazy_ring_600",
                                      "reducible_dense_0_closed"])
    def test_self_loops_skip_the_level_pass(self, monkeypatch, name):
        P = _chain_on(_SUPPORTS[name]())
        calls = count_calls(monkeypatch, scipy_csgraph, "dijkstra")
        d = diagnose_chain(P)
        assert calls == []
        assert d == reference_diagnose_chain(P)

    def test_sparse_ctmc_skips_the_level_pass(self, monkeypatch):
        ring = _chain_on(_ring(300, [1, 2])).matrix
        B = validate_generator(ring - np.eye(300))
        calls = count_calls(monkeypatch, scipy_csgraph, "dijkstra")
        assert diagnose_chain(B).irreducible
        assert calls == []

    def test_cycle_takes_one_level_pass(self, monkeypatch):
        # the forward walk's levels give the period; the backward walk
        # only checks coverage, and csgraph never runs
        P = _chain_on(_SUPPORTS["cycle_500"]())
        walks = count_calls(monkeypatch, model, "_levels")
        csgraph = [count_calls(monkeypatch, scipy_csgraph, name)
                   for name in ("connected_components", "dijkstra")]
        assert diagnose_chain(P).period == 500
        assert len(walks) == 2
        assert csgraph == [[], []]


def _oracle_support(seed: int, n: int, kind: str, k: int,
                    looped: bool) -> np.ndarray:
    """A support of one of six shapes, its states shuffled.

    "random": independent edges, rows may be empty. "cyclic" and
    "reducible": as in _random_support, with period k. "ring": i -> i +- 1
    .. k around a ring, periodic at k = 1 and even n. "ring_one_way":
    i -> i + d for a random set of d in 1 .. k, so a ring that may be
    periodic or split into several closed cycles. "clique_tail":
    _clique_with_tail with a clique of k states.
    `looped` sets the whole diagonal, or, for clique_tail, keeps the
    clique's own; otherwise no diagonal entry is added.
    """
    rng = np.random.default_rng(seed)
    if kind == "random":
        adj = rng.random((n, n)) < rng.uniform(0.02, 0.5)
    elif kind in ("cyclic", "reducible"):
        adj = _random_support(seed, n, float(rng.uniform(0.05, 0.5)), kind, k)
    elif kind == "ring":
        adj = _ring(n, np.r_[-k:0, 1:k + 1])
    elif kind == "ring_one_way":
        steps = np.arange(1, k + 1)
        adj = _ring(n, steps[rng.random(k) < 0.5])
        adj |= _ring(n, [int(rng.integers(1, k + 1))])
    else:
        adj = _clique_with_tail(min(k, n), n)
        if not looped:
            np.fill_diagonal(adj, False)
    if looped and kind != "clique_tail":
        np.fill_diagonal(adj, True)
    perm = rng.permutation(n)
    return adj[np.ix_(perm, perm)]


class TestWalksMatchCsgraphOracle:
    """The numpy walks give the verdict the csgraph gate gave, and csgraph
    runs only on a reducible support."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           kind=st.sampled_from(["random", "cyclic", "ring", "ring_one_way",
                                 "clique_tail", "reducible"]),
           k=st.integers(1, 5), looped=st.booleans())
    def test_supports(self, seed, n, kind, k, looped):
        adj = _oracle_support(seed, n, kind, k, looped)
        expected = reference_csgraph_diagnostics(adj)
        with mock.patch.object(
                scipy_csgraph, "connected_components",
                wraps=scipy_csgraph.connected_components) as csgraph:
            assert model._support_diagnostics(adj) == expected
        assert csgraph.call_count == (0 if expected.irreducible else 1)

    # the period's gcd reads an irreducible support a row slice at a time;
    # a few cells per slice make every support span many slices
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60),
           kind=st.sampled_from(["random", "cyclic", "ring", "ring_one_way",
                                 "clique_tail"]),
           k=st.integers(1, 5), cells=st.sampled_from([1, 7, 64, 500]))
    def test_supports_over_many_slices(self, seed, n, kind, k, cells):
        adj = _oracle_support(seed, n, kind, k, False)
        with mock.patch.object(model, "_GCD_CELLS", cells):
            got = model._support_diagnostics(adj)
        assert got == reference_csgraph_diagnostics(adj)

    @pytest.mark.parametrize("support", [
        "hollow", [1], [-1, 1], [1, 3], [2, 5], [-4, 4]], ids=str)
    def test_supports_over_default_slices(self, support):
        # n = 700 is two slices of _GCD_CELLS = 2**18 cells, so a support
        # that is not aperiodic is read in both
        adj = (~np.eye(700, dtype=bool) if support == "hollow"
               else _ring(700, support))
        expected = reference_csgraph_diagnostics(adj)
        assert model._support_diagnostics(adj) == expected


class TestUniformize:
    def test_direct_formula(self):
        B = validate_generator([[-1, 1], [1, -1]])
        assert np.allclose(uniformize(B, 1.0).matrix, [[0, 1], [1, 0]])
        assert np.allclose(uniformize(B, 2.0).matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_one_state(self):
        assert uniformize(validate_generator([[0.0]]), 3.0).matrix[0, 0] == 1.0

    def test_gamma_too_small(self):
        B = validate_generator([[-2, 2], [1, -1]])
        with pytest.raises(GammaTooSmallError):
            uniformize(B, 1.5)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_gamma_not_finite(self, gamma):
        B = validate_generator([[-2, 2], [1, -1]])
        with pytest.raises(GammaTooSmallError) as e:
            uniformize(B, gamma)
        assert set(e.value.detail) == {"gamma", "min_rate"}

    def test_min_rate(self):
        assert min_uniformization_rate(validate_generator([[-1, 1], [1, -1]])) == 1.0
        assert min_uniformization_rate(validate_generator([[-3, 3], [0.5, -0.5]])) == 3.0
        assert min_uniformization_rate(validate_generator([[0.0]])) == 0.0

    def test_raw_rates(self):
        raw = [[-1.0, 1.0], [2.0, -2.0]]
        assert np.array_equal(uniformize(raw, 4.0).matrix,
                              uniformize(validate_generator(raw), 4.0).matrix)
        with pytest.raises(RowSumViolationError):
            uniformize([[-1.0, 1.5], [2.0, -2.0]], 4.0)

    def test_min_rate_of_raw_rates(self):
        assert min_uniformization_rate([[-1.0, 1.0], [2.0, -2.0]]) == 2.0
        with pytest.raises(NegativeOffDiagonalError):
            min_uniformization_rate([[1.0, -1.0], [2.0, -2.0]])

    def test_preserves_stationary_distribution(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            B = random_generator_matrix(rng, n)
            r = reference_vector(random_reference(rng, n))
            gamma = min_uniformization_rate(B) * float(rng.uniform(1.0, 5.0)) + 1e-9
            pi_chain = stationary(uniformize(B, gamma), r, allow_unchecked=True).pi
            pi_proc = ctmc_stationary(B, r).pi
            assert np.abs(pi_chain - pi_proc).max() < 1e-9


class TestValidateMdp:
    def test_shapes_and_renormalization(self):
        m = validate_mdp(np.ones((2, 3, 2)) * 0.5, np.zeros((2, 3)),
                         np.full((2, 3), 1 / 3))
        assert m.states == 2 and m.actions == 3
        assert np.abs(m.transitions.reshape(6, 2).sum(axis=1) - 1.0).max() <= 1e-14
        assert np.abs(m.policy.sum(axis=1) - 1.0).max() <= 1e-14

    def test_bad_transition_rows(self):
        p = np.ones((2, 2, 2)) * 0.4
        with pytest.raises(RowSumViolationError):
            validate_mdp(p, np.zeros((2, 2)), np.full((2, 2), 0.5))


class TestInputErrors:
    """Code and message of each shape and finiteness fault."""

    @pytest.mark.parametrize("p, f, pol, code, message", [
        (np.full((2, 2), 0.5), np.zeros((2, 1)), np.ones((2, 1)), "NonSquare",
         "transition tensor must have shape (S, A, S), got (2, 2)"),
        (np.full((2, 1, 2), 0.5), np.zeros(2), np.ones((2, 1)),
         "DimensionMismatch", "rewards must have shape (2, 1), got (2,)"),
        (np.full((2, 1, 2), 0.5), [[0.0], [np.inf]], np.ones((2, 1)),
         "DimensionMismatch", "rewards must be finite"),
        (np.full((2, 1, 2), 0.5), np.zeros((2, 1)), np.ones((1, 2)),
         "DimensionMismatch", "policy must have shape (2, 1), got (1, 2)"),
    ], ids=["tensor-shape", "rewards-shape", "rewards-non-finite",
            "policy-shape"])
    def test_validate_mdp(self, p, f, pol, code, message):
        with pytest.raises(ModelError) as exc:
            validate_mdp(p, f, pol)
        assert (exc.value.code, str(exc.value)) == (code, message)

    @pytest.mark.parametrize("call, code, message", [
        (lambda: validate_stochastic(np.zeros((0, 0))), "NonSquare",
         "transition matrix: a model needs at least one state, got shape (0, 0)"),
        (lambda: validate_generator(np.zeros((0, 0))), "NonSquare",
         "generator matrix: a model needs at least one state, got shape (0, 0)"),
        (lambda: validate_mdp(np.zeros((0, 2, 0)), np.zeros((0, 2)),
                              np.zeros((0, 2))), "NonSquare",
         "transition tensor: a model needs at least one state, "
         "got shape (0, 2, 0)"),
        # the solvers validate a raw array first, so they never divide by n = 0
        (lambda: potentials(np.zeros((0, 0)), []), "NonSquare",
         "transition matrix: a model needs at least one state, got shape (0, 0)"),
        (lambda: stationary(np.zeros((0, 0))), "NonSquare",
         "transition matrix: a model needs at least one state, got shape (0, 0)"),
        (lambda: ctmc_stationary(np.zeros((0, 0))), "NonSquare",
         "generator matrix: a model needs at least one state, got shape (0, 0)"),
        # as reference_vector([]) is
        (lambda: uniform_reference(0), "ReferenceDegenerate",
         "|r.e| = 0.000e+00 is below re_tol; the shifted matrix would be "
         "singular"),
        (lambda: e1_reference(0), "ReferenceDegenerate",
         "|r.e| = 0.000e+00 is below re_tol; the shifted matrix would be "
         "singular"),
    ], ids=["validate_stochastic", "validate_generator", "validate_mdp",
            "potentials", "stationary", "ctmc_stationary", "uniform_reference",
            "e1_reference"])
    def test_empty_model(self, call, code, message):
        with pytest.raises(ModelError) as exc:
            call()
        assert (exc.value.code, str(exc.value)) == (code, message)

    def test_non_finite_vectors(self):
        with pytest.raises(ModelError) as exc:
            reward_vector([1.0, np.nan])
        assert (exc.value.code, str(exc.value)) == (
            "DimensionMismatch", "reward vector entries must be finite")
        with pytest.raises(ModelError) as exc:
            reference_vector([1.0, -np.inf])
        assert (exc.value.code, str(exc.value)) == (
            "ReferenceDegenerate", "reference vector entries must be finite")


class TestReferenceVector:
    def test_degenerate_rejected(self):
        with pytest.raises(ReferenceDegenerateError):
            reference_vector([0.5, -0.5])

    @pytest.mark.parametrize("values", [
        [1e308, 1e308], [-1e308, -1e308], [1e308] * 9 + [-1e308] * 9])
    def test_overflowing_dot_rejected(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ReferenceDegenerateError, match="r.e overflows"):
                reference_vector(values)

    def test_caches_dot(self):
        r = reference_vector([0.3, 0.9])
        assert r.dot_with_ones == pytest.approx(1.2)

    def test_immutable(self):
        r = reference_vector([1.0, 0.0])
        with pytest.raises(ValueError):
            r.values[0] = 2.0

    def test_owns_its_buffer(self):
        r0 = np.array([0.5, 0.5])
        r = reference_vector(r0)
        r0[0] = 100.0
        assert r.values.tolist() == [0.5, 0.5]
        assert r.dot_with_ones == 1.0


class TestRewardVector:
    def test_owns_its_buffer(self):
        f0 = np.array([1.0, 2.0])
        f = reward_vector(f0)
        f0[0] = 100.0
        assert f.values.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            f.values[0] = 3.0


class TestValidatorsReturnTheirOwnType:
    def test_stochastic(self):
        P = validate_stochastic([[0.5, 0.5], [0.2, 0.8]])
        assert validate_stochastic(P) is P
        assert validate_stochastic(P, 1e-15) is P

    def test_generator(self):
        B = validate_generator([[-1.0, 1.0], [2.0, -2.0]])
        assert validate_generator(B) is B
        assert validate_generator(B, 1e-15) is B

    @pytest.mark.parametrize("call, given", [
        (validate_stochastic, "rates"),
        (lambda X: potentials(X, [1.0, 0.0]), "rates"),
        (stationary, "rates"),
        (fundamental_matrix, "rates"),
        (validate_generator, "chain"),
        (ctmc_stationary, "chain"),
        (lambda X: ctmc_potentials(X, [1.0, 0.0]), "chain"),
    ], ids=["validate_stochastic", "potentials", "stationary",
            "fundamental_matrix", "validate_generator", "ctmc_stationary",
            "ctmc_potentials"])
    def test_the_other_validated_type_is_a_type_error(self, call, given):
        X = (validate_generator([[-1.0, 1.0], [2.0, -2.0]]) if given == "rates"
             else validate_stochastic([[0.5, 0.5], [0.2, 0.8]]))
        with pytest.raises(TypeError) as exc:
            call(X)
        assert "StochasticMatrix" in str(exc.value)
        assert "GeneratorMatrix" in str(exc.value)

    def test_reward(self):
        f = reward_vector([1.0, 2.0])
        assert reward_vector(f) is f
        assert reward_vector(f, 2) is f
        with pytest.raises(ModelError) as exc:
            reward_vector(f, 3)
        assert (exc.value.code, str(exc.value), exc.value.detail) == (
            "DimensionMismatch", "reward vector has length 2, expected 3",
            {"expected": 3, "got": 2})

    def test_reference(self):
        r = reference_vector([0.3, 0.9])
        assert reference_vector(r) is r
        assert reference_vector(r, cfg=replace(DEFAULT, re_tol=10.0)) is r


# a chain row and a rate row 4e-4 off, and rows 1e-11 off
_LOOSE_CHAIN = [[0.5, 0.5004], [0.5, 0.5]]
_LOOSE_RATES = [[-1.0, 1.0004], [1.0, -1.0]]
_TIGHT_CHAIN = [[0.5, 0.5 + 1e-11], [0.5, 0.5]]
_TIGHT_RATES = [[-1.0, 1.0 + 1e-11], [1.0, -1.0]]
_F = [1.0, -2.0]


def _bits(*arrays) -> list:
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


# every public entry that takes tolerances and a raw matrix: (kind, the
# call on a matrix under a Tolerances, its result as comparable values)
_ENTRIES = {
    "fundamental_matrix": ("chain", lambda A, cfg: _bits(
        fundamental_matrix(A, cfg=cfg).Z)),
    "stationary": ("chain", lambda A, cfg: _bits(stationary(A, cfg=cfg).pi)),
    "potentials": ("chain", lambda A, cfg: (lambda s: _bits(s.g, s.eta))(
        potentials(A, _F, cfg=cfg))),
    "potentials_classic": ("chain", lambda A, cfg: _bits(
        potentials_classic(A, _F, cfg=cfg).g)),
    "series_fundamental": ("chain", lambda A, cfg: _bits(
        series_fundamental(A, None, 20, cfg=cfg).Z)),
    "potentials_reference_level": ("chain", lambda A, cfg: _bits(
        potentials_reference_level(A, _F, cfg=cfg).g)),
    "verify_spectral_shift": ("chain", lambda A, cfg:
                              verify_spectral_shift(A, cfg=cfg).to_dict()),
    "ctmc_stationary": ("rates", lambda A, cfg: _bits(
        ctmc_stationary(A, cfg=cfg).pi)),
    "ctmc_potentials": ("rates", lambda A, cfg: _bits(
        ctmc_potentials(A, _F, cfg=cfg).g)),
    "ctmc_potentials_classic": ("rates", lambda A, cfg: _bits(
        ctmc_potentials_classic(A, _F, cfg=cfg).g)),
    "verify_generator_spectrum": ("rates", lambda A, cfg:
                                  verify_generator_spectrum(A, 3.0, cfg=cfg).to_dict()),
    "online_potentials": ("chain", lambda A, cfg: _bits(online_potentials(
        A, _F, cfg=SimulationConfig(seed=3, max_steps=500),
        tolerances=cfg).g_hat)),
    "uniformize": ("rates", lambda A, cfg: _bits(uniformize(A, 3.0, cfg=cfg).matrix)),
    "diagnose_chain": ("chain", lambda A, cfg: diagnose_chain(A, cfg=cfg)),
}


class TestEntriesValidateUnderCallerTolerances:
    """Each public entry validates a raw matrix under the cfg it is given."""

    @pytest.mark.parametrize("name", sorted(_ENTRIES))
    def test_raw_matrix_follows_row_tol(self, name):
        kind, call = _ENTRIES[name]
        loose, tight, validate = (
            (_LOOSE_CHAIN, _TIGHT_CHAIN, validate_stochastic) if kind == "chain"
            else (_LOOSE_RATES, _TIGHT_RATES, validate_generator))
        cfg = replace(DEFAULT, row_tol=1e-3)
        with pytest.raises(RowSumViolationError):
            validate(loose)
        assert call(loose, cfg) == call(validate(loose, cfg=cfg), cfg)
        call(tight, DEFAULT)
        with pytest.raises(RowSumViolationError):
            call(tight, replace(DEFAULT, row_tol=1e-13))
