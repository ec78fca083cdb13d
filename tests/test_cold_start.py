"""scipy is loaded at the first factorization or reducible gate, not at import.

A factorization loads only scipy's LAPACK extension, never the ``scipy``
or ``scipy.linalg`` package. ``import gfmarkov`` runs neither ``ctmc``,
``qfactors`` nor ``estimator``, and a command runs only the ones it
calls. conftest imports scipy and every gfmarkov module itself, so each
check runs in a fresh interpreter that prints one JSON line on stdout.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from conftest import REPO_ROOT

CLI_RUN = """
    import contextlib, io, json, sys, threading
    import gfmarkov.cli as cli
    imported = "scipy" in sys.modules
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main({argv!r})
    print(json.dumps({{"imported": imported, "code": code,
                      "stdout": stdout.getvalue(),
                      "linalg": "scipy.linalg" in sys.modules,
                      "flapack": "scipy.linalg._flapack" in sys.modules,
                      "sparse": "scipy.sparse" in sys.modules,
                      "scipy": "scipy" in sys.modules,
                      "threads": threading.active_count(),
                      "lazy": sorted(m for m in sys.modules
                                     if m in {lazy!r})}}))
"""

# the submodules that `import gfmarkov` does not run
LAZY = ["gfmarkov.ctmc", "gfmarkov.estimator", "gfmarkov.qfactors"]


def _run(code: str) -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          cwd=REPO_ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # a warning raised while scipy loads would show up here
    assert proc.stderr == ""
    return json.loads(proc.stdout.splitlines()[-1])


def _cli(*argv: str) -> dict:
    return _run(CLI_RUN.format(argv=list(argv), lazy=LAZY))


def test_import_loads_no_scipy():
    out = _run("""
        import json, sys
        import gfmarkov
        print(json.dumps({"scipy": "scipy" in sys.modules}))
    """)
    assert out == {"scipy": False}


def test_import_runs_none_of_the_lazy_modules():
    out = _run(f"""
        import json, sys
        import gfmarkov
        print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))
    """)
    assert out == []


# command, model file, and the lazy submodules the command runs
COMMAND_MODULES = [
    ("validate", "two_state", []),
    ("validate", "ctmc_two_state", []),
    ("validate", "mdp_two_state", ["gfmarkov.qfactors"]),
    ("check", "two_state", []),
    ("check", "ctmc_two_state", ["gfmarkov.ctmc"]),
    ("check", "mdp_two_state", ["gfmarkov.qfactors"]),
    ("potentials", "two_state", []),
    ("series", "two_state", []),
    ("estimate", "two_state", ["gfmarkov.estimator"]),
    ("ctmc-potentials", "ctmc_two_state", ["gfmarkov.ctmc"]),
    ("qfactors", "mdp_two_state", ["gfmarkov.qfactors"]),
]


@pytest.mark.parametrize("command, model, lazy", COMMAND_MODULES,
                         ids=[f"{c}-{m}" for c, m, _ in COMMAND_MODULES])
def test_each_command_runs_only_the_modules_it_calls(command, model, lazy):
    out = _cli(command, "--model", f"models/{model}.json")
    assert out["code"] == 0
    assert out["lazy"] == lazy


@pytest.mark.parametrize("command, model", [
    ("validate", "two_state"), ("estimate", "two_state"),
    ("series", "two_state"),
    # the rate-matrix gate is diagnose_chain too; a 2-state support
    # stays on the numpy route
    ("validate", "ctmc_two_state"),
    # an mdp validate runs no gate; this guards only its own path
    ("validate", "mdp_two_state"),
], ids=["validate", "estimate", "series", "validate-ctmc", "validate-mdp"])
def test_commands_that_never_factor_load_no_scipy(command, model):
    out = _cli(command, "--model", f"models/{model}.json")
    assert out["code"] == 0
    assert not out["imported"] and not out["scipy"]
    assert out["threads"] == 1  # and start no factor worker


def test_factoring_command_loads_scipy_linalg_quietly():
    # the LAPACK module alone, loaded by file: neither scipy's package
    # __init__ nor scipy.linalg's runs
    for command in ("check", "potentials"):
        out = _cli(command, "--model", "models/two_state.json")
        assert out["code"] == 0
        assert out["flapack"], command
        assert not (out["imported"] or out["scipy"] or out["linalg"]), command
        assert out["threads"] == 2, command  # the one factor worker


def _dtmc_file(path, P) -> str:
    n = len(P)
    path.write_text(json.dumps({"kind": "dtmc", "states": n, "P": P,
                                "f": [float(i % 2) for i in range(n)]}),
                    encoding="utf-8")
    return str(path)


def test_csgraph_gate_loads_scipy_sparse_quietly(tmp_path):
    # two numpy walks decide an irreducible support, a hollow or periodic
    # one too; only a reducible support, whose closed classes are
    # counted, takes the csgraph route
    ring = [[0.5 if (j - i) % 40 in (1, 39) else 0.0 for j in range(40)]
            for i in range(40)]
    for name, P in (("flip", [[0, 1], [1, 0]]), ("ring", ring)):
        model = _dtmc_file(tmp_path / f"{name}.json", P)
        out = _cli("validate", "--model", model)
        assert out["code"] == 0 and not out["scipy"], name
        assert json.loads(out["stdout"])["period"] == 2
        for command in ("potentials", "check"):
            out = _cli(command, "--model", model)
            assert out["code"] == 0 and not out["sparse"], (name, command)
    model = _dtmc_file(tmp_path / "reducible.json",
                       [[1, 0, 0], [0, 1, 0], [0.5, 0.5, 0]])
    out = _cli("validate", "--model", model)
    assert out["code"] == 0
    assert not out["imported"] and out["sparse"]
    assert json.loads(out["stdout"])["num_closed_classes"] == 2


def test_estimator_on_a_dense_chain_loads_no_scipy():
    out = _run("""
        import json, sys
        import numpy as np
        from gfmarkov import SimulationConfig, online_potentials, validate_stochastic
        rng = np.random.default_rng(5)
        raw = rng.random((100, 100))
        P = validate_stochastic(raw / raw.sum(axis=1, keepdims=True))
        trace = online_potentials(P, rng.random(100),
                                  cfg=SimulationConfig(seed=1, max_steps=5000))
        print(json.dumps({"steps": trace.steps_run,
                          "scipy": "scipy" in sys.modules}))
    """)
    assert out == {"steps": 5000, "scipy": False}


def test_threads_import_scipy_at_their_first_shared_factorization():
    # four threads race to the first factorization of one chain, so the
    # LAPACK module load and the memoized LU are both built under contention
    out = _run("""
        import json, sys, threading
        import numpy as np
        from gfmarkov import (StochasticMatrix, fundamental_matrix,
                              potentials, stationary, validate_stochastic)
        rng = np.random.default_rng(53)
        n = 40
        raw = rng.random((n, n)) + 0.02
        P = validate_stochastic(raw / raw.sum(axis=1, keepdims=True))
        f = rng.uniform(size=n)
        ops = {"potentials": lambda A: potentials(A, f).g,
               "stationary": lambda A: stationary(A).pi,
               "fundamental": lambda A: fundamental_matrix(A).Z}
        names = sorted(ops)
        before = "scipy" in sys.modules
        start = threading.Barrier(4)
        results = [[] for _ in range(4)]

        def worker(i):
            start.wait(timeout=30)
            for k in range(30):
                op = names[(i + k) % len(names)]
                results[i].append((op, ops[op](P).tobytes()))

        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        expected = {op: fn(StochasticMatrix(P.matrix)).tobytes()
                    for op, fn in ops.items()}
        print(json.dumps({
            "before": before,
            "alive": any(t.is_alive() for t in threads),
            "runs": sum(len(r) for r in results),
            "mismatches": sum(b != expected[op] for r in results for op, b in r),
        }))
    """)
    assert out == {"before": False, "alive": False, "runs": 120,
                   "mismatches": 0}


# g, pi and Z of one fixed chain, as hex bytes; each call validates the
# chain anew, so it factors anew
SOLVE_FIXED_CHAIN = """
import json, sys
import numpy as np
from gfmarkov import (_linalg, fundamental_matrix, potentials, stationary,
                      validate_stochastic)

def solve():
    rng = np.random.default_rng(61)
    raw = rng.random((9, 9)) + 0.05
    P = validate_stochastic(raw / raw.sum(axis=1, keepdims=True))
    r = rng.normal(size=9)
    r *= 0.7 / r.sum()
    f = rng.normal(size=9)
    return [potentials(P, f, r).g.tobytes().hex(),
            stationary(P, r).pi.tobytes().hex(),
            fundamental_matrix(P, r).Z.tobytes().hex()]
"""

LAPACK_ROUTES = {
    # the file route registers the module that the package then reuses
    "file-then-package": """
        first = solve()
        held = _linalg._flapack()
        assert "scipy.linalg" not in sys.modules
        import scipy.linalg, scipy.linalg.lapack
        assert scipy.linalg.lapack._flapack is held
        assert solve() == first
    """,
    "package-first": """
        import scipy.linalg
        first = solve()
    """,
    # no extension file found: the package import is the fallback
    "fallback": """
        class NoFile:
            @staticmethod
            def find_spec(*args):
                return None

        _linalg.PathFinder = NoFile
        first = solve()
        assert "scipy.linalg" in sys.modules
    """,
    # the file is found but will not load on its own: the same fallback
    "load-fails": """
        def refuse(spec):
            raise ImportError("no DLL search path")

        _linalg.module_from_spec = refuse
        first = solve()
        assert "scipy.linalg" in sys.modules
    """,
}


def test_lapack_routes_give_the_same_bits():
    outs = {route: _run(SOLVE_FIXED_CHAIN + textwrap.dedent(body)
                        + "print(json.dumps(first))\n")
            for route, body in LAPACK_ROUTES.items()}
    assert outs["package-first"] == outs["file-then-package"]
    assert outs["fallback"] == outs["file-then-package"]
    assert outs["load-fails"] == outs["file-then-package"]


# dir(gfmarkov) after a bare import, as it was when every submodule ran at
# import; the package now also holds its PEP 562 hooks and their tables
PUBLIC_SURFACE = [
    "ActionTransitionMatrix", "ChainDiagnostics", "CheckResult", "DEFAULT",
    "DimensionMismatchError", "EstimateDivergentError", "EstimateTrace",
    "FundamentalMatrix", "GammaTooSmallError", "GeneratorMatrix", "GfmError",
    "LoadedModel", "MdpModel", "ModelError", "ModelFormatError", "NORM_ETA",
    "NORM_MINUS_ETA", "NORM_ZERO", "NearSingularError", "NegativeEntryError",
    "NegativeOffDiagonalError", "NonSquareError", "NotAperiodicError",
    "NotErgodicError", "NotIrreducibleError", "NumericalError",
    "PolicyMatrix", "PotentialSolution", "QSolution",
    "ReferenceDegenerateError", "ReferenceNotDistributionLikeError",
    "ReferenceVector", "RewardVector", "RowSumViolationError",
    "ScheduleInvalidError", "SeriesDivergentError", "SimulationConfig",
    "SpectralRadiusEstimate", "StateActionChain", "StationaryDistribution",
    "StepSchedule", "StochasticMatrix", "Tolerances", "VerificationReport",
    "action_transition_matrix", "build_policy_matrix",
    "build_state_action_chain", "config", "ctmc", "ctmc_potentials",
    "ctmc_potentials_classic", "ctmc_stationary", "diagnose_chain",
    "dumps_document", "e1_reference", "errors", "estimator",
    "fundamental_matrix", "gfm", "load_model", "min_uniformization_rate",
    "model", "modelio", "online_potentials", "potentials",
    "potentials_classic", "potentials_reference_level",
    "q_consistency_report", "qfactors", "qfactors_solve", "reference_vector",
    "renormalize_potentials", "report", "reward_vector", "series_fundamental",
    "simulate_chain", "spectral_radius_estimate", "stationary",
    "truncated_accumulated_reward", "uniform_reference", "uniformize",
    "validate_generator", "validate_mdp", "validate_stochastic",
    "verify_generator_spectrum", "verify_spectral_shift", "write_trace_csv",
]
PRIVATE_SURFACE = [
    "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
    "__name__", "__package__", "__path__", "__spec__", "__version__",
    "_linalg",
]
HOOKS = ["_LAZY", "_LAZY_OWNER", "__all__", "__dir__", "__getattr__"]
# the names each lazy submodule serves
LAZY_NAMES = {
    "ctmc": ["ctmc_potentials", "ctmc_potentials_classic", "ctmc_stationary",
             "verify_generator_spectrum"],
    "estimator": ["EstimateTrace", "SimulationConfig", "StepSchedule",
                  "online_potentials", "simulate_chain",
                  "truncated_accumulated_reward", "write_trace_csv"],
    "qfactors": ["ActionTransitionMatrix", "PolicyMatrix", "QSolution",
                 "StateActionChain", "action_transition_matrix",
                 "build_policy_matrix", "build_state_action_chain",
                 "q_consistency_report", "qfactors_solve"],
}


def test_public_surface_is_unchanged():
    out = _run(f"""
        import json
        import gfmarkov
        listed = dir(gfmarkov)
        modules = {{name: getattr(gfmarkov, name).__name__
                    for name in {sorted(LAZY_NAMES)!r}}}
        exports = {{name: sorted(getattr(gfmarkov, name).__all__)
                    for name in {sorted(LAZY_NAMES)!r}}}
        star = {{}}
        exec("from gfmarkov import *", star)
        star.pop("__builtins__")
        # a lazy name is the very object its submodule holds
        same = [getattr(gfmarkov, name) is getattr(getattr(gfmarkov, module), name)
                and star[name] is getattr(gfmarkov, name)
                for module, names in {LAZY_NAMES!r}.items() for name in names]
        print(json.dumps({{"dir": listed, "star": sorted(star),
                          "modules": modules, "exports": exports,
                          "same": all(same),
                          "after": dir(gfmarkov)}}))
    """)
    assert out["dir"] == sorted(PUBLIC_SURFACE + PRIVATE_SURFACE + HOOKS)
    assert out["after"] == out["dir"]
    assert out["star"] == PUBLIC_SURFACE
    assert out["modules"] == {name: f"gfmarkov.{name}" for name in LAZY_NAMES}
    # the package serves every name each lazy submodule exports
    assert out["exports"] == LAZY_NAMES
    assert out["same"]
