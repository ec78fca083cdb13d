import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfmarkov import (
    EstimateDivergentError,
    NotAperiodicError,
    ScheduleInvalidError,
    SimulationConfig,
    StepSchedule,
    online_potentials,
    potentials,
    potentials_reference_level,
    reference_vector,
    reward_vector,
    series_fundamental,
    simulate_chain,
    spectral_radius_estimate,
    truncated_accumulated_reward,
    validate_stochastic,
    write_trace_csv,
)
from gfmarkov import estimator
from gfmarkov.estimator import _sample_states

from conftest import (
    count_calls,
    random_chain,
    random_periodic_chain,
    random_reference,
    reference_indexed_online_potentials,
    reference_online_potentials,
    reference_sample_states,
)

SYM = validate_stochastic([[0.5, 0.5], [0.5, 0.5]])
E1 = reference_vector([1.0, 0.0])
F = np.array([1.0, 0.0])


class TestStepSchedule:
    def test_default_power_values(self):
        s = StepSchedule.robbins_monro(1.0, 10.0, 1.0)
        assert s.alpha(0) == 0.1
        assert s.alpha(90) == pytest.approx(0.01)
        assert s.satisfies_robbins_monro and not s.loose_only

    def test_loose_flag(self):
        s = StepSchedule.robbins_monro(1.0, 10.0, 0.4)
        assert s.loose_only and not s.satisfies_robbins_monro

    def test_invalid_parameters(self):
        with pytest.raises(ScheduleInvalidError):
            StepSchedule.robbins_monro(-1.0, 10.0, 1.0)
        with pytest.raises(ScheduleInvalidError):
            StepSchedule.robbins_monro(1.0, 10.0, 1.5)
        with pytest.raises(ScheduleInvalidError):
            StepSchedule.constant(0.0)
        for bad in (np.nan, np.inf):
            for make in (lambda: StepSchedule.robbins_monro(bad, 10.0, 1.0),
                         lambda: StepSchedule.robbins_monro(1.0, bad, 1.0),
                         lambda: StepSchedule.robbins_monro(1.0, 10.0, bad),
                         lambda: StepSchedule.constant(bad)):
                with pytest.raises(ScheduleInvalidError):
                    make()

    @pytest.mark.parametrize("schedule", [
        StepSchedule.robbins_monro(2.0, 3.0, 0.75), StepSchedule.constant(0.25),
        StepSchedule.custom(lambda t: 1.0 / (t + 2))],
        ids=["power", "constant", "custom"])
    def test_alpha_matches_alphas(self, schedule):
        assert [schedule.alpha(t) for t in range(6)] == pytest.approx(
            schedule.alphas(6).tolist(), rel=1e-15)

    def test_alpha_is_bitwise_the_step_alphas_takes(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            s = StepSchedule.robbins_monro(rng.uniform(0.01, 5.0),
                                           rng.uniform(0.01, 50.0),
                                           rng.uniform(0.05, 1.0))
            out = s.alphas(5000)
            for t in rng.integers(0, 5000, size=137).tolist():
                assert s.alpha(t) == out[t], (s, t)
        s = StepSchedule.constant(0.25)
        assert s.alpha(7) == s.alphas(8)[7]

    def test_custom_alpha_gets_the_callers_t(self):
        seen = []
        s = StepSchedule.custom(lambda t: seen.append(t) or 0.5)
        t = np.int64(3)
        assert s.alpha(t) == 0.5 and seen[0] is t
        s.alphas(2)
        assert [type(x) for x in seen[1:]] == [int, int]

    def test_custom_validated_at_run(self):
        s = StepSchedule.custom(lambda t: 0.1 - 0.2 * (t > 5))
        with pytest.raises(ScheduleInvalidError):
            s.alphas(10)
        assert s.alphas(3).tolist() == [0.1, 0.1, 0.1]
        for bad in (np.nan, np.inf, -np.inf):
            s = StepSchedule.custom(lambda t: bad if t in (4, 7) else 0.1)
            with pytest.raises(ScheduleInvalidError) as exc:
                s.alphas(10)
            assert exc.value.detail == {"t": 4}
            assert str(exc.value).endswith("is not positive and finite")


class TestSimulationConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("max_steps", 0, "max_steps must be >= 1"),
        ("max_steps", -5, "max_steps must be >= 1"),
        ("check_interval", 0, "check_interval must be >= 1"),
        ("check_interval", -1, "check_interval must be >= 1"),
        ("epsilon", 0.0, "epsilon must be positive and finite"),
        ("epsilon", -1e-4, "epsilon must be positive and finite"),
        # NaN would switch the stopping rule off, inf would stop at the
        # first check
        ("epsilon", np.nan, "epsilon must be positive and finite"),
        ("epsilon", np.inf, "epsilon must be positive and finite"),
        # a float count or seed fails only at sampling, or runs truncated
        ("max_steps", 1500.5, r"max_steps must be an integer, got 1500\.5"),
        ("max_steps", np.nan, "max_steps must be an integer, got nan"),
        ("check_interval", 10.5,
         r"check_interval must be an integer, got 10\.5"),
        ("check_interval", np.inf,
         "check_interval must be an integer, got inf"),
        ("seed", -1, "seed must be >= 0"),
        ("seed", 1.5, r"seed must be an integer, got 1\.5"),
        ("seed", np.float64(2.0),  # repr is np.float64(2.0) from numpy 2
         r"seed must be an integer, got (np\.float64\()?2\.0\)?"),
    ])
    def test_refused_values(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SimulationConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = SimulationConfig(seed=np.int64(3), max_steps=np.int32(50),
                               check_interval=np.uint16(10))
        trace = online_potentials(SYM, F, E1, cfg=cfg)
        assert trace.seed == 3 and trace.steps_run <= 50


class TestSimulateChain:
    def test_absorbing_state(self):
        states, rewards = simulate_chain(validate_stochastic([[1.0]]), [2.0],
                                         0, 10, 5)
        assert np.array_equal(states, np.zeros(11, dtype=int))
        assert np.array_equal(rewards, np.full(11, 2.0))

    def test_deterministic_alternation(self):
        P = validate_stochastic([[0.0, 1.0], [1.0, 0.0]])
        states, _ = simulate_chain(P, [0.0, 0.0], 0, 9, 3)
        assert states.dtype == np.int64
        assert np.array_equal(states, [0, 1, 0, 1, 0, 1, 0, 1, 0, 1])

    def test_visit_frequency_matches_stationary(self):
        states, _ = simulate_chain(SYM, F, 0, 100_000, 42)
        freq = (states == 0).mean()
        assert abs(freq - 0.5) <= 0.01

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           steps=st.integers(1, 3000), zeros=st.floats(0.0, 0.9),
           scale=st.sampled_from([1.0, 0.5]), data=st.data())
    def test_path_matches_clamped_oracle(self, seed, n, steps, zeros, scale,
                                         data):
        # zero entries put flat runs in the cumulative rows; rows scaled to
        # sum 0.5 send half the draws past the last sum, onto the clamp
        rng = np.random.default_rng(seed)
        raw = rng.random((n, n)) * (rng.random((n, n)) >= zeros)
        raw[np.arange(n), rng.integers(0, n, size=n)] += 0.1
        P = scale * np.asarray(validate_stochastic(
            raw / raw.sum(axis=1, keepdims=True)).matrix)
        s0 = data.draw(st.integers(0, n - 1), label="s0")
        path = _sample_states(P, s0, steps, seed)
        assert all(type(s) is int for s in path)
        assert np.array_equal(path, reference_sample_states(P, s0, steps, seed))

    def test_seed_determinism(self):
        a, _ = simulate_chain(SYM, F, 0, 5000, 11)
        b, _ = simulate_chain(SYM, F, 0, 5000, 11)
        c, _ = simulate_chain(SYM, F, 0, 5000, 12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_integer_seeds_keep_their_bits(self):
        path, _ = simulate_chain(SYM, F, 0, 200, np.int64(7))
        assert np.array_equal(path, simulate_chain(SYM, F, 0, 200, 7)[0])
        assert np.array_equal(path, reference_sample_states(
            np.asarray(SYM.matrix), 0, 200, 7))
        M = np.array([[0.2, 0.5], [0.4, -0.3]])
        assert (spectral_radius_estimate(M, 50, np.int64(2))
                == spectral_radius_estimate(M, 50, 2))


class TestTruncatedAccumulatedReward:
    def test_horizon_zero_is_f(self):
        assert np.array_equal(truncated_accumulated_reward(SYM, F, 0), F)

    def test_absorbing_sums(self):
        P1 = validate_stochastic([[1.0]])
        assert truncated_accumulated_reward(P1, [1.0], 9)[0] == pytest.approx(10.0)

    def test_hand_recursion(self):
        # f + Pf + P^2 f = (1,0) + (.5,.5) + (.5,.5)
        assert np.allclose(truncated_accumulated_reward(SYM, F, 2), [2.0, 1.0])


class TestOnlinePotentials:
    def test_single_state_fixed_point(self):
        # deterministic recursion: the error shrinks like 10 c / (10 + t)
        P1 = validate_stochastic([[1.0]])
        tr = online_potentials(P1, [3.0], reference_vector([1.0]),
                               cfg=SimulationConfig(seed=0, max_steps=30_000))
        assert abs(tr.g_hat[0] - 3.0) < 5e-3
        assert tr.eta_hat == pytest.approx(tr.g_hat[0])
        assert tr.converged

    def test_determinism_bitwise(self):
        cfg = SimulationConfig(seed=1, max_steps=40_000, epsilon=1e-12)
        t1 = online_potentials(SYM, F, E1, None, cfg)
        t2 = online_potentials(SYM, F, E1, None, cfg)
        assert np.array_equal(t1.g_hat, t2.g_hat)
        assert t1.history == t2.history
        assert t1.samples == t2.samples
        assert t1.eta_hat == t2.eta_hat

    def test_converges_to_exact_solution(self):
        exact = potentials(SYM, F, E1).g
        cfg = SimulationConfig(seed=3, max_steps=400_000, epsilon=1e-12,
                               check_interval=10_000)
        tr = online_potentials(SYM, F, E1, None, cfg)
        assert np.abs(tr.g_hat - exact).max() <= 0.05

    def test_constant_schedule_stays_bounded(self):
        cfg = SimulationConfig(seed=5, max_steps=5000, epsilon=1e-12)
        tr = online_potentials(SYM, F, E1, StepSchedule.constant(0.5), cfg)
        assert not tr.converged
        assert np.isfinite(tr.g_hat).all()

    @pytest.mark.parametrize("schedule", [
        StepSchedule.constant(5.0), StepSchedule.constant(1e300),
        StepSchedule.robbins_monro(1e300, 10.0, 1.0)])
    def test_divergent_estimate_raises(self, schedule):
        P = validate_stochastic([[0.9, 0.1], [0.4, 0.6]])
        cfg = SimulationConfig(seed=3, max_steps=2000, epsilon=1e-12)
        with pytest.raises(EstimateDivergentError) as info:
            online_potentials(P, F, E1, schedule, cfg)
        assert info.value.code == "EstimateDivergent"
        assert info.value.detail == {"seed": 3, "steps_run": 2000}
        # the oracle loop returns the non-finite estimate the library refuses
        ref = reference_indexed_online_potentials(P, F, E1, schedule, cfg)
        assert not np.isfinite(ref.g_hat).all()

    def test_non_finite_g0_raises(self):
        # a non-finite g0 poisons the estimate whatever the steps; the
        # history delta is NaN, so the stopping rule never fires
        cfg = SimulationConfig(seed=4, max_steps=3000, check_interval=1000)
        with pytest.raises(EstimateDivergentError) as info:
            online_potentials(SYM, F, E1, None, cfg, g0=[np.inf, 0.0])
        assert info.value.detail == {"seed": 4, "steps_run": 3000}

    def test_zero_mean_residual_from_exact_start(self):
        exact = potentials(SYM, F, E1).g
        cfg = SimulationConfig(seed=7, max_steps=100_000, epsilon=1e-12)
        tr = online_potentials(SYM, F, E1, None, cfg, g0=exact,
                               track_residuals=True)
        n = tr.residual_count
        assert n == 100_000
        bound = 3.0 * tr.residual_std / np.sqrt(n)
        assert abs(tr.residual_mean) <= bound

    def test_periodic_chain_refused(self):
        P = random_periodic_chain(3)
        with pytest.raises(NotAperiodicError):
            online_potentials(P, [1.0, 0.0, 0.0], reference_vector([1, 0, 0]))

    def test_path_source(self):
        states, _ = simulate_chain(SYM, F, 0, 50_000, 9)
        cfg = SimulationConfig(seed=9, max_steps=50_000, epsilon=1e-12)
        from_chain = online_potentials(SYM, F, E1, None, cfg)
        for f in (F, reward_vector(F)):
            from_path = online_potentials(states, f, E1, None, cfg)
            assert np.array_equal(from_path.g_hat, from_chain.g_hat)
            assert from_path.samples == from_chain.samples

    def test_history_records_checkpoints(self):
        cfg = SimulationConfig(seed=2, max_steps=5000, epsilon=1e-12,
                               check_interval=1000)
        tr = online_potentials(SYM, F, E1, None, cfg)
        assert [t for t, _ in tr.history] == [1000, 2000, 3000, 4000, 5000]
        assert all(d >= 0 for _, d in tr.history)

    def test_converged_implies_small_final_delta(self):
        cfg = SimulationConfig(seed=6, max_steps=200_000, epsilon=1e-4,
                               check_interval=1000)
        tr = online_potentials(SYM, F, E1, None, cfg)
        assert tr.steps_run <= cfg.max_steps
        if tr.converged:
            assert tr.history[-1][0] == tr.steps_run
            assert tr.history[-1][1] < cfg.epsilon
        assert tr.converged  # this benchmark settles well before 200k steps

    def test_trace_csv_format(self, tmp_path):
        cfg = SimulationConfig(seed=2, max_steps=3000, epsilon=1e-12,
                               check_interval=1000)
        tr = online_potentials(SYM, F, E1, None, cfg)
        out = tmp_path / "trace.csv"
        with out.open("w") as fh:
            write_trace_csv(tr, fh)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,state,reward,z_t,eta_hat"
        assert len(lines) == 1 + len(tr.samples)
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] in {"0", "1"}

    def test_trace_csv_of_no_samples_is_its_header(self):
        out = io.StringIO()
        write_trace_csv(estimator.EstimateTrace(np.zeros(2), 0.0, 0, False, 0),
                        out)
        assert out.getvalue() == "t,state,reward,z_t,eta_hat\n"


class TestStreamedRun:
    """A run walks and holds one check interval of its path at a time."""

    def test_early_stop_samples_no_further(self, monkeypatch):
        walks = count_calls(monkeypatch, estimator, "_walk")
        cfg = SimulationConfig(seed=6, max_steps=200_000, epsilon=1e-4,
                               check_interval=1000)
        tr = online_potentials(SYM, F, E1, None, cfg)
        assert tr.converged and tr.steps_run < cfg.max_steps
        draws = sum(len(u) for (_, _, u), _ in walks)
        chunks = -(-tr.steps_run // cfg.check_interval)
        assert draws <= chunks * cfg.check_interval

    def test_peak_memory_per_step(self):
        # the float64 step sizes take 8 B/step, also at the peak, as they
        # are computed in place; holding the whole path and its draws as lists
        # would take about 48
        steps = 100_000
        P = validate_stochastic([[0.9, 0.1], [0.4, 0.6]])
        cfg = SimulationConfig(seed=1, max_steps=steps, epsilon=1e-300)
        tracemalloc.start()
        try:
            tr = online_potentials(P, F, E1, None, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tr.steps_run == steps and not tr.converged
        assert peak / steps <= 24.0


# estimator runs drawn for the oracle comparisons: both sources, g0,
# residual tracking, intervals 1, 7, 1000 and beyond the run, early stops
_estimator_runs = given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
    steps=st.integers(1, 2500),
    schedule=st.sampled_from(["power", "constant"]),
    interval=st.sampled_from([1, 7, 1000, "beyond"]),
    source=st.sampled_from(["matrix", "path"]),
    with_g0=st.booleans(), track=st.booleans(),
    epsilon=st.sampled_from([1e-12, 1e-4, 1e-2]))


def _estimator_run(seed, n, steps, schedule, interval, source, with_g0,
                   track, epsilon):
    """Positional and keyword arguments of online_potentials for one draw."""
    rng = np.random.default_rng(seed)
    P = random_chain(rng, n)
    f = rng.normal(size=n)
    r = reference_vector(random_reference(rng, n))
    if schedule == "power":
        sched = StepSchedule.robbins_monro(rng.uniform(0.5, 2.0),
                                           rng.uniform(10.0, 1000.0),
                                           rng.uniform(0.55, 1.0))
    else:
        sched = StepSchedule.constant(rng.uniform(0.005, 0.1))
    if interval == "beyond":
        interval = steps + 1 + int(rng.integers(0, 100))
    cfg = SimulationConfig(seed=seed, max_steps=steps, epsilon=epsilon,
                           check_interval=interval)
    s0 = int(rng.integers(0, n))
    src = P if source == "matrix" else simulate_chain(P, f, s0, steps,
                                                      seed + 1)[0]
    kw = {"s0": s0, "track_residuals": track,
          "g0": rng.normal(size=n) if with_g0 else None}
    return (src, f, r, sched, cfg), kw


class TestOnlinePotentialsMatchesOracle:
    """The running-sum estimator against the O(n)-per-step oracle loop.

    Integer outputs must match exactly; floats within 1e-10 max(1, |g|inf)
    of the oracle's, and the sum of squared residuals within 1e-10
    relative.
    """

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @_estimator_runs
    def test_random_chains(self, **draw):
        args, kw = _estimator_run(**draw)
        new = online_potentials(*args, **kw)
        ref = reference_online_potentials(*args, **kw)

        tol = 1e-10 * max(1.0, float(np.abs(ref.g_hat).max()))
        assert new.steps_run == ref.steps_run
        assert new.converged == ref.converged
        assert new.residual_count == ref.residual_count
        assert [t for t, _ in new.history] == [t for t, _ in ref.history]
        assert [x[:3] for x in new.samples] == [x[:3] for x in ref.samples]
        assert np.abs(new.g_hat - ref.g_hat).max() <= tol
        assert abs(new.eta_hat - ref.eta_hat) <= tol
        for (_, d_new), (_, d_ref) in zip(new.history, ref.history):
            assert abs(d_new - d_ref) <= tol
        for a, b in zip(new.samples, ref.samples):
            assert abs(a[3] - b[3]) <= tol and abs(a[4] - b[4]) <= tol
        assert abs(new.residual_sum - ref.residual_sum) <= tol
        assert (abs(new.residual_sumsq - ref.residual_sumsq)
                <= 1e-10 * max(1.0, ref.residual_sumsq))


class TestOnlinePotentialsMatchesIndexedLoop:
    """The zipped-slice update against the loop that indexed by t.

    Same arithmetic in the same order, so every field is bit-identical.
    """

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @_estimator_runs
    def test_random_chains(self, **draw):
        args, kw = _estimator_run(**draw)
        new = online_potentials(*args, **kw)
        ref = reference_indexed_online_potentials(*args, **kw)
        assert np.array_equal(new.g_hat, ref.g_hat)
        assert new.eta_hat == ref.eta_hat
        assert new.steps_run == ref.steps_run
        assert new.converged == ref.converged
        assert new.seed == ref.seed
        assert new.history == ref.history
        assert new.samples == ref.samples
        assert new.residual_count == ref.residual_count
        assert new.residual_sum == ref.residual_sum
        assert new.residual_sumsq == ref.residual_sumsq


class TestRefusedInputs:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: simulate_chain(SYM, F, 2, 5, 0), ValueError,
         r"start state 2 out of range \[0, 2\)"),
        (lambda: online_potentials(SYM, F, s0=-1), ValueError,
         r"start state -1 out of range \[0, 2\)"),
        # int() would start these runs in states 1 and 0
        (lambda: simulate_chain(SYM, F, 1.9, 5, 0), ValueError,
         r"s0 must be an integer, got 1\.9"),
        (lambda: online_potentials(SYM, F, s0=0.5), ValueError,
         r"s0 must be an integer, got 0\.5"),
        (lambda: simulate_chain(SYM, F, 0, 0, 0), ValueError,
         "steps must be >= 1"),
        (lambda: truncated_accumulated_reward(SYM, F, -1), ValueError,
         "horizon must be >= 0"),
        (lambda: online_potentials([0], F), ValueError,
         "state path must be 1-D with at least 2 entries"),
        (lambda: online_potentials([0, 2], F), ValueError,
         "state path entries out of range for the rewards"),
        # the int64 cast would read this path as 0, 1, 0, 1, 0
        (lambda: online_potentials([0.7, 1.2, 0.9, 1.5, 0.1], F), ValueError,
         "state path must hold integers, got dtype float64"),
        (lambda: online_potentials(SYM, F, g0=[0.0]), ValueError,
         "g0 must have length 2"),
        (lambda: StepSchedule("custom"), ScheduleInvalidError,
         "custom schedule needs a callable"),
        (lambda: StepSchedule("bogus"), ScheduleInvalidError,
         "unknown schedule kind 'bogus'"),
        (lambda: series_fundamental(SYM, None, -1), ValueError,
         "terms must be >= 0"),
        (lambda: potentials_reference_level(SYM, F, E1, 0), ValueError,
         "horizon must be >= 1"),
        (lambda: spectral_radius_estimate(np.eye(2), 0), ValueError,
         "iters must be >= 1"),
        # int() would run these with seeds 1 and 2
        (lambda: simulate_chain(SYM, F, 0, 20, 1.9), ValueError,
         r"seed must be an integer, got 1\.9"),
        (lambda: spectral_radius_estimate(np.eye(2), 3, seed=2.7), ValueError,
         r"seed must be an integer, got 2\.7"),
    ], ids=["s0-high", "s0-negative", "s0-float", "s0-float-online",
            "steps", "horizon", "path-short", "path-range", "path-float",
            "g0-length", "custom-no-callable", "unknown-kind", "terms",
            "reference-horizon", "iters", "seed-float", "seed-float-spectral"])
    def test_raises(self, call, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            call()
