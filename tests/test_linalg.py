import os
import signal
import sys
import threading
import time
import warnings
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
from gfmarkov import _linalg, model
from gfmarkov._linalg import ShiftedSystem, shifted_system
from gfmarkov.config import DEFAULT, Tolerances
from gfmarkov.errors import (DimensionMismatchError, NearSingularError,
                             NotErgodicError, NotIrreducibleError,
                             NumericalError)
from gfmarkov.model import (GeneratorMatrix, StochasticMatrix,
                            _require_irreducible, diagnose_chain,
                            validate_generator, validate_mdp,
                            validate_stochastic)
from gfmarkov.modelio import load_model

from conftest import (
    count_calls,
    random_chain,
    random_generator_matrix,
    random_mdp,
    random_periodic_chain,
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
        system = shifted_system(GeneratorMatrix(A), r, DEFAULT, False)
    else:
        P = W / W.sum(axis=1, keepdims=True)
        A = np.eye(n) - P
        system = shifted_system(StochasticMatrix(P), r, DEFAULT, False)
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
        pi = shifted_system(chain, r, DEFAULT, False).solve_row(r)

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


class TestOverflowIsNotSingularity:
    """Finite inputs whose g, pi or Q overflows are a NumericalError that
    names the overflow: not NearSingular, not a non-finite result, and no
    numpy warning on the way."""

    HUGE = np.finfo(float).max

    @staticmethod
    def _outcome(call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return call()
            except Exception as e:
                return e

    def test_chain_potentials(self):
        e = self._outcome(lambda: potentials([[0.9, 0.1], [0.2, 0.8]],
                                             [self.HUGE, 0.0]))
        assert type(e) is NumericalError and "overflow" in str(e)

    def test_rate_matrix_potentials(self):
        e = self._outcome(lambda: ctmc_potentials([[-1.0, 1.0], [2.0, -2.0]],
                                                  [self.HUGE] * 2))
        assert type(e) is NumericalError and "overflow" in str(e)

    def test_qfactors_at_the_float_maximum(self):
        rng = np.random.default_rng(0)
        refused = set()
        for _ in range(200):
            p = rng.random((2, 3, 2)) + 0.05
            pol = rng.random((2, 3)) + 0.05
            m = validate_mdp(p / p.sum(axis=2, keepdims=True),
                             np.full((2, 3), self.HUGE),
                             pol / pol.sum(axis=1, keepdims=True))
            out = self._outcome(lambda: qfactors_solve(m))
            if isinstance(out, DimensionMismatchError):  # f_pi overflows
                continue
            if isinstance(out, Exception):
                assert type(out) is NumericalError, out
                assert "overflow" in str(out)
                refused.add(str(out))
            else:
                assert np.isfinite(out.q).all() and np.isfinite(out.eta)
        # the solve of g and the Q-factors after it each overflowed somewhere
        assert len(refused) == 2


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


WORKER = "gfmarkov-factor"


def _worker_idle() -> None:
    """Wait until the factor worker has run every job handed to it."""
    with _linalg._worker.idle:
        pass


def _factoring_threads(monkeypatch) -> list:
    """The name of the thread of each getrf call from now on."""
    names = []
    real = _linalg.getrf

    def recorded(*args, **kwargs):
        names.append(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(_linalg, "getrf", recorded)
    return names


def _fresh(P: StochasticMatrix) -> StochasticMatrix:
    return StochasticMatrix(P.matrix, P.max_correction)


def _solve_all(P, f) -> tuple:
    """g, eta, pi, Z and its condition estimate: every gated LU user."""
    sol = potentials(P, f)
    fm = fundamental_matrix(P)
    return sol.g, sol.eta, stationary(P).pi, fm.Z, fm.condition_estimate


def _same_bits(a: tuple, b: tuple) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


class TestFactorWorker:
    """Every LU miss is factored on the worker thread, a gated one while
    the gate runs on the caller's; a busy worker means the caller factors
    inline. The gate's exception wins, a refused matrix keeps no LU, and
    the bits are those of the inline factorization."""

    def setup_method(self):
        _worker_idle()

    def test_gated_miss_factors_on_the_one_worker(self, monkeypatch):
        rng = np.random.default_rng(71)
        P, f = random_chain(rng, 30), rng.random(30)
        names = _factoring_threads(monkeypatch)
        got = _solve_all(P, f)
        assert names == [WORKER]
        assert sum(t.name == WORKER for t in threading.enumerate()) == 1
        unchecked = _fresh(P)
        g = potentials(unchecked, f, allow_unchecked=True)
        assert names == [WORKER, WORKER]
        assert np.array_equal(got[0], g.g) and got[1] == g.eta
        assert _same_bits(got, _solve_all(_fresh(P), f))

    @pytest.mark.parametrize("solve", [
        lambda rng: potentials(random_chain(rng, 12), rng.random(12),
                               allow_unchecked=True),
        lambda rng: fundamental_matrix(random_chain(rng, 12),
                                       allow_unchecked=True),
        lambda rng: qfactors_solve(random_mdp(rng, 6, 3)),
    ], ids=["potentials", "fundamental_matrix", "policy_chain"])
    def test_unchecked_miss_factors_on_the_worker(self, monkeypatch, solve):
        gates = count_calls(monkeypatch, model, "_support_diagnostics")
        names = _factoring_threads(monkeypatch)
        solve(np.random.default_rng(72))
        assert names == [WORKER] and gates == []

    def test_stored_refusal_costs_no_lu(self, monkeypatch):
        P = validate_stochastic([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(NotIrreducibleError):
            potentials(P, [1.0, 0.0])
        _worker_idle()
        names = _factoring_threads(monkeypatch)
        for solve in (lambda: potentials(P, [1.0, 0.0]),
                      lambda: stationary(P), lambda: fundamental_matrix(P)):
            with pytest.raises(NotIrreducibleError):
                solve()
        _worker_idle()
        assert names == []

    def test_verdict_stored_by_diagnose_chain_is_read_first(self, monkeypatch):
        P = validate_stochastic([[1.0, 0.0], [0.5, 0.5]])
        diagnose_chain(P)  # as a CLI command's load does
        names = _factoring_threads(monkeypatch)
        with pytest.raises(NotIrreducibleError):
            potentials(P, [1.0, 0.0])
        _worker_idle()
        assert names == []

    def test_busy_worker_means_an_inline_solve(self, monkeypatch):
        rng = np.random.default_rng(73)
        P, f = random_chain(rng, 30), rng.random(30)
        expected = _solve_all(_fresh(P), f)
        _worker_idle()
        names = _factoring_threads(monkeypatch)
        with _linalg._worker.idle:  # the worker is busy
            got = _solve_all(P, f)
        assert names == [threading.current_thread().name]
        assert _same_bits(got, expected)

    @pytest.mark.parametrize("solve", [
        lambda P, **kw: potentials(P, [1.0, 0.0], **kw), stationary,
        fundamental_matrix],
        ids=["potentials", "stationary", "fundamental_matrix"])
    def test_gate_error_wins_over_a_singular_lu(self, monkeypatch, solve):
        # two closed classes: M = I - I + e r is singular, and the worker
        # finds it so while the gate refuses the chain
        P = validate_stochastic([[1.0, 0.0], [0.0, 1.0]])
        names = _factoring_threads(monkeypatch)
        with pytest.raises(NotIrreducibleError):
            solve(P)
        _worker_idle()
        assert names == [WORKER]
        with pytest.raises(NearSingularError):
            solve(_fresh(P), allow_unchecked=True)

    def test_rate_matrix_gate_error_wins(self):
        B = validate_generator([[0.0, 0.0], [1.0, -1.0]])
        with pytest.raises(NotErgodicError):
            ctmc_potentials(B, [1.0, 0.0])

    def test_refused_unichain_keeps_no_lu(self, monkeypatch):
        P = validate_stochastic([[1.0, 0.0], [0.5, 0.5]])
        names = _factoring_threads(monkeypatch)
        with pytest.raises(NotIrreducibleError):
            potentials(P, [1.0, 0.0])
        _worker_idle()
        assert names == [WORKER]  # the LU was made, and dropped
        assert "lu" not in P._memo and "gate" in P._memo

    def test_near_singular_after_the_gate_passes(self, monkeypatch):
        # every pivot is at or below a pivot_tol of 1
        P = random_chain(np.random.default_rng(79), 6)
        gates = count_calls(monkeypatch, model, "_support_diagnostics")
        with pytest.raises(NearSingularError, match="pivot below"):
            potentials(P, np.ones(6), cfg=Tolerances(pivot_tol=1.0))
        assert len(gates) == 1 and "lu" not in P._memo

    @pytest.mark.parametrize("singular", [False, True])
    def test_gate_error_wins_after_the_worker_is_done(self, monkeypatch,
                                                      singular):
        P = validate_stochastic(np.eye(2) if singular else [[0.5, 0.5],
                                                             [0.5, 0.5]])

        def gate(source, cfg):
            _worker_idle()  # the worker has stored nothing, and is done
            raise ValueError("refused")

        monkeypatch.setattr(_linalg, "_require_irreducible", gate)
        with pytest.raises(ValueError, match="refused"):
            shifted_system(P, np.full(2, 0.5), DEFAULT, True)
        assert "lu" not in P._memo

    @pytest.mark.skipif(not hasattr(signal, "setitimer"),
                        reason="needs signal.setitimer")
    def test_interrupted_caller_leaves_the_worker_serving(self, monkeypatch):
        class Interrupted(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupted

        real = _linalg.shifted_matrix

        def slow(source, r):
            time.sleep(0.5)
            return real(source, r)

        rng = np.random.default_rng(83)
        P, f = random_chain(rng, 8), rng.random(8)
        monkeypatch.setattr(_linalg, "shifted_matrix", slow)
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.1)
            with pytest.raises(Interrupted):
                potentials(P, f)  # waits on the worker when the alarm rings
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert "lu" not in P._memo
        monkeypatch.setattr(_linalg, "shifted_matrix", real)
        _worker_idle()
        names = _factoring_threads(monkeypatch)
        sol = potentials(P, f)
        assert names == [WORKER]
        assert np.array_equal(sol.g,
                              potentials(_fresh(P), f, allow_unchecked=True).g)

    def test_threads_with_their_own_chains_match_sequential_bits(self):
        # four first solves at once: one thread gets the worker, the rest
        # find it busy and factor inline
        rng = np.random.default_rng(89)
        chains = [random_chain(rng, 200) for _ in range(4)]
        f = rng.random(200)
        expected = [_solve_all(_fresh(P), f) for P in chains]
        start = threading.Barrier(4)
        got: list = [None] * 4

        def solve(i: int) -> None:
            start.wait(timeout=30)
            got[i] = _solve_all(chains[i], f)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(_same_bits(g, e) for g, e in zip(got, expected, strict=True))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings(
        "ignore:This process .* is multi-threaded, use of fork:DeprecationWarning")
    def test_fork_child_gets_its_own_worker(self):
        rng = np.random.default_rng(97)
        parent, child = random_chain(rng, 20), random_chain(rng, 20)
        f = rng.random(20)
        potentials(parent, f)  # the worker runs in this process
        expected = _solve_all(_fresh(child), f)
        pid = os.fork()
        if pid == 0:  # the child: exit 0 only on the worker's right bits
            ok = False
            try:
                ok = (_same_bits(_solve_all(child, f), expected)
                      and any(t.name == WORKER for t in threading.enumerate()))
            finally:
                os._exit(0 if ok else 1)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the fork child did not finish its solve")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0


class TestGatedSolvesMatchGateThenInline:
    """Every public gated solve returns, or raises, what the serial order
    returns or raises: the gate, then an unchecked solve on a fresh
    object. Chains are irreducible, reducible, periodic or near-singular
    (an r.e just above re_tol), at uniform, e1 and signed r."""

    @staticmethod
    def _outcome(call):
        try:
            out = call()
        except Exception as e:  # the error's type and message are compared
            return type(e), str(e)
        return tuple(np.asarray(x).tobytes() for x in out)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
           kind=st.sampled_from(["irreducible", "reducible", "periodic",
                                 "near-singular", "rates"]),
           ref=st.sampled_from(["uniform", "e1", "signed"]))
    def test_outcomes(self, seed, n, kind, ref):
        rng = np.random.default_rng(seed)
        if kind == "rates":
            source = random_generator_matrix(rng, n)
        elif kind == "periodic":
            source = random_periodic_chain(n)
        else:
            source = random_chain(rng, n)
            if kind == "reducible":  # state 0 absorbing
                raw = np.array(source.matrix)
                raw[0] = np.eye(n)[0]
                source = validate_stochastic(raw)
        r = {"uniform": None, "e1": np.eye(n)[0],
             "signed": random_reference(rng, n)}[ref]
        if kind == "near-singular":
            r = random_reference(rng, n)
            r[-1] -= r.sum() - 2e-12
        f = rng.random(n)
        cfg = Tolerances()

        def solves(source, allow_unchecked):
            if isinstance(source, GeneratorMatrix):
                return (
                    lambda: (ctmc_potentials(source, f, r,
                                             allow_unchecked=allow_unchecked).g,),
                    lambda: (ctmc_stationary(source, r,
                                             allow_unchecked=allow_unchecked).pi,))
            return (
                lambda: (potentials(source, f, r,
                                    allow_unchecked=allow_unchecked).g,),
                lambda: (stationary(source, r,
                                    allow_unchecked=allow_unchecked).pi,),
                lambda: (fundamental_matrix(source, r,
                                            allow_unchecked=allow_unchecked).Z,))

        kind_of = type(source)
        for k, gated in enumerate(solves(kind_of(source.matrix), False)):
            serial = kind_of(source.matrix)

            def gate_then_inline():
                _require_irreducible(serial, cfg)
                return solves(serial, True)[k]()

            assert self._outcome(gated) == self._outcome(gate_then_inline), k
