"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest

from gfmarkov import (
    SeriesDivergentError,
    SimulationConfig,
    StepSchedule,
    ctmc_potentials,
    ctmc_stationary,
    fundamental_matrix,
    min_uniformization_rate,
    online_potentials,
    potentials,
    potentials_classic,
    q_consistency_report,
    qfactors_solve,
    reference_vector,
    renormalize_potentials,
    series_fundamental,
    stationary,
    uniformize,
    validate_mdp,
    validate_stochastic,
    verify_spectral_shift,
)
from gfmarkov.cli import main as cli_main

from conftest import (
    random_chain,
    random_generator_matrix,
    random_mdp,
    random_reference,
)

N_CHAINS = 200
N_REFS = 3


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def chain_pool():
    rng = np.random.default_rng(20240817)
    pool = []
    for i in range(N_CHAINS):
        n = 2 + i % 7  # S in {2..8}
        P = random_chain(rng, n)
        refs = [reference_vector(random_reference(rng, n, 0.1, 1.9))
                for _ in range(N_REFS)]
        f = rng.uniform(-1.0, 1.0, size=n)
        pool.append((P, refs, f))
    return pool


def test_criterion_1_r_invariance(chain_pool):
    t0 = time.monotonic()
    worst_pair = worst_fix = worst_sum = 0.0
    for P, refs, _ in chain_pool:
        pis = [stationary(P, r).pi for r in refs]
        for i in range(len(pis)):
            for j in range(i + 1, len(pis)):
                worst_pair = max(worst_pair, np.abs(pis[i] - pis[j]).max())
        for pi in pis:
            worst_fix = max(worst_fix, np.abs(pi @ P.matrix - pi).max())
            worst_sum = max(worst_sum, abs(pi.sum() - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst_pair <= 1e-8 and worst_fix <= 1e-8 and worst_sum <= 1e-8 \
        and elapsed < 10.0
    _report(1, "r-invariance of the stationary distribution", ok,
            f"pairwise {worst_pair:.2e}, piP-pi {worst_fix:.2e}, "
            f"sum {worst_sum:.2e}, {elapsed:.1f}s")


def test_criterion_2_potential_family(chain_pool):
    worst_poisson = worst_eta = worst_const = worst_classic = 0.0
    for P, refs, f in chain_pool:
        sols = [potentials(P, f, r) for r in refs]
        pi = stationary(P, refs[0]).pi
        for sol in sols:
            resid = sol.g - f + sol.eta - P.matrix @ sol.g
            worst_poisson = max(worst_poisson, np.abs(resid).max())
            worst_eta = max(worst_eta, abs(sol.eta - pi @ f))
        for i in range(len(sols)):
            for j in range(i + 1, len(sols)):
                diff = sols[i].g - sols[j].g
                worst_const = max(worst_const, diff.max() - diff.min())
        classic = potentials_classic(P, f)
        shifted = renormalize_potentials(sols[0], pi)
        worst_classic = max(worst_classic, np.abs(classic.g - shifted.g).max())
    ok = (worst_poisson <= 1e-8 and worst_eta <= 1e-8
          and worst_const <= 1e-8 and worst_classic <= 1e-8)
    _report(2, "potential family identities", ok,
            f"poisson {worst_poisson:.2e}, eta {worst_eta:.2e}, "
            f"offset {worst_const:.2e}, classic {worst_classic:.2e}")


def test_criterion_3_spectral(chain_pool):
    worst_spectrum = worst_ones = worst_series = 0.0
    for P, refs, _ in chain_pool:
        n = P.size
        for r in refs:
            rep = verify_spectral_shift(P, r)
            by_name = {c.name: c for c in rep.checks}
            worst_ones = max(worst_ones,
                             by_name["ones_column_eigenvector"].residual)
            if n <= 3:
                worst_spectrum = max(worst_spectrum, by_name["shifted_spectrum"].residual)

    # series/solve agreement whenever the reported tail bound is < 1e-8
    for P, refs, _ in chain_pool[:40]:
        r = refs[0]
        exact = fundamental_matrix(P, r).Z
        terms = 64
        while terms <= 4096:
            approx = series_fundamental(P, r, terms)
            if approx.tail_norm < 1e-8:
                worst_series = max(worst_series,
                                   np.abs(approx.Z - exact).max())
                break
            terms *= 2

    # the divergence gate fires exactly outside (0, 2)
    gate_ok = True
    P = chain_pool[0][0]
    n = P.size
    base = np.abs(np.random.default_rng(5).normal(size=n)) + 0.1
    for target, should_raise in ((-0.3, True), (2.0, True), (2.5, True),
                                 (0.1, False), (1.0, False), (1.9, False)):
        r = reference_vector(base * (target / base.sum()))
        raised = False
        try:
            series_fundamental(P, r, 8)
        except SeriesDivergentError:
            raised = True
        gate_ok = gate_ok and (raised == should_raise)

    ok = (worst_spectrum <= 1e-8 and worst_ones <= 1e-13
          and worst_series <= 1e-8 and gate_ok)
    _report(3, "spectral shift, series agreement, divergence gate", ok,
            f"spectrum {worst_spectrum:.2e}, ones-identity {worst_ones:.2e}, "
            f"series {worst_series:.2e}, gate {'ok' if gate_ok else 'WRONG'}")


def test_criterion_4_ctmc():
    rng = np.random.default_rng(314159)
    worst_pi = worst_poisson = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 9))
        B = random_generator_matrix(rng, n)
        f = rng.uniform(-1.0, 1.0, size=n)
        r = reference_vector(random_reference(rng, n, 0.1, 1.9))
        pi_proc = ctmc_stationary(B, r).pi
        base = min_uniformization_rate(B)
        for mult in (1.0, 2.0, 10.0):
            pi_chain = stationary(uniformize(B, base * mult), r,
                                  allow_unchecked=True).pi
            worst_pi = max(worst_pi, np.abs(pi_proc - pi_chain).max())
        sol = ctmc_potentials(B, f, r)
        resid = -B.matrix @ sol.g - (f - sol.eta)
        worst_poisson = max(worst_poisson, np.abs(resid).max())

    # worked 2-state example, exact to 1e-12
    from gfmarkov import validate_generator
    B2 = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
    r2 = reference_vector([1.0, 0.0])
    sol2 = ctmc_potentials(B2, [1.0, 0.0], r2)
    ex_g = np.abs(sol2.g - [-0.5, -1.0]).max()
    ex_eta = abs(sol2.eta - 0.5)
    ex_sign = abs(float(r2.values @ sol2.g) + sol2.eta)
    example_ok = ex_g <= 1e-12 and ex_eta <= 1e-12 and ex_sign <= 1e-12

    ok = worst_pi <= 1e-8 and worst_poisson <= 1e-8 and example_ok
    _report(4, "continuous-time suite", ok,
            f"uniformization pi {worst_pi:.2e}, poisson {worst_poisson:.2e}, "
            f"example residuals {max(ex_g, ex_eta, ex_sign):.2e}")


def test_criterion_5_qfactors():
    rng = np.random.default_rng(2718281)

    # A=1 reduction is the same linear system, bit for bit
    bitwise_ok = True
    for _ in range(20):
        n = int(rng.integers(2, 6))
        P = random_chain(rng, n)
        f = rng.uniform(-1.0, 1.0, size=n)
        r = reference_vector(random_reference(rng, n, 0.1, 1.9))
        m = validate_mdp(np.asarray(P.matrix).reshape(n, 1, n),
                         f.reshape(n, 1), np.ones((n, 1)))
        q = qfactors_solve(m, r)
        sol = potentials(P, f, r)
        bitwise_ok = bitwise_ok and np.array_equal(q.q, sol.g) \
            and q.eta == sol.eta

    worst = 0.0
    for _ in range(100):
        m = random_mdp(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        q = qfactors_solve(m)
        rep = q_consistency_report(m, q)
        for c in rep.checks:
            if c.name.startswith("q_"):
                worst = max(worst, c.residual)

    m1 = validate_mdp(np.ones((1, 2, 1)), [[1.0, 0.0]], [[1.0, 0.0]])
    with pytest.warns(UserWarning):
        q1 = qfactors_solve(m1, reference_vector([1.0, 0.0]))
    example_ok = np.array_equal(q1.q, [1.0, 0.0]) and q1.eta == 1.0

    ok = bitwise_ok and worst <= 1e-8 and example_ok
    _report(5, "Q-factor suite", ok,
            f"bitwise A=1 {'ok' if bitwise_ok else 'BROKEN'}, "
            f"residual {worst:.2e}, example {'ok' if example_ok else 'BROKEN'}")


def test_criterion_6_estimator():
    t0 = time.monotonic()
    P = validate_stochastic([[0.5, 0.5], [0.5, 0.5]])
    f = [1.0, 0.0]
    r = reference_vector([1.0, 0.0])
    schedule = StepSchedule.robbins_monro(1.0, 10.0, 1.0)
    exact = np.array([0.5, -0.5])

    hits = 0
    for seed in range(1, 11):
        cfg = SimulationConfig(seed=seed, max_steps=1_000_000, epsilon=1e-12,
                               check_interval=10_000)
        trace = online_potentials(P, f, r, schedule, cfg)
        if np.abs(trace.g_hat - exact).max() <= 0.05:
            hits += 1

    cfg = SimulationConfig(seed=1, max_steps=200_000, epsilon=1e-12)
    t1 = online_potentials(P, f, r, schedule, cfg)
    t2 = online_potentials(P, f, r, schedule, cfg)
    deterministic = (np.array_equal(t1.g_hat, t2.g_hat)
                     and t1.history == t2.history
                     and t1.samples == t2.samples)
    elapsed = time.monotonic() - t0

    ok = hits >= 9 and deterministic and elapsed < 60.0
    _report(6, "online estimator (statistical)", ok,
            f"{hits}/10 seeds within 0.05, deterministic "
            f"{'ok' if deterministic else 'BROKEN'}, {elapsed:.1f}s")


def test_criterion_7_cli_golden(capsys, models_dir, golden_dir, tmp_path):
    cases = [
        (["stationary", "--model", str(models_dir / "two_state.json"),
          "--reference", "e1"], 0, "stationary_two_state.json"),
        (["potentials", "--model", str(models_dir / "two_state_sym.json"),
          "--reference", "e1"], 0, "potentials_two_state_sym.json"),
        (["validate", "--model", str(models_dir / "bad_rows.json")], 2,
         "validate_bad_rows.json"),
        *((["ctmc-" + command, "--model", str(models_dir / "ctmc_two_state.json"),
            "--reference", "e1", "--output", output], 0,
           f"ctmc_{command}_ctmc_two_state.{output}")
          for command in ("stationary", "potentials")
          for output in ("json", "csv")),
    ]
    golden_ok = True
    for argv, want_code, golden_name in cases:
        code = cli_main(argv)
        out = capsys.readouterr().out.encode("utf-8")
        golden = (golden_dir / golden_name).read_bytes()
        golden_ok = golden_ok and code == want_code and out == golden

    errors_ok = True
    for payload, want_error in (
            ({"kind": "dtmc", "states": 2, "P": [[0.7, 0.4], [0.5, 0.5]],
              "f": [0, 0]}, "RowSumViolation"),
            ({"kind": "dtmc", "states": 2, "P": [[1.2, -0.2], [0.5, 0.5]],
              "f": [0, 0]}, "NegativeEntry"),
            ({"kind": "nope", "states": 1, "P": [[1.0]], "f": [0]},
             "ModelFormat")):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(payload))
        code = cli_main(["validate", "--model", str(path)])
        out = capsys.readouterr().out
        doc = json.loads(out)
        errors_ok = errors_ok and code == 2 and doc["error"] == want_error

    ok = golden_ok and errors_ok
    _report(7, "CLI golden files and error codes", ok,
            f"golden {'ok' if golden_ok else 'MISMATCH'}, "
            f"errors {'ok' if errors_ok else 'WRONG'}")
