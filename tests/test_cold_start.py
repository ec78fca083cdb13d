"""scipy is loaded at the first factorization or csgraph gate, not at import.

conftest imports scipy itself, so each check runs in a fresh interpreter
that prints one JSON line on stdout.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from conftest import REPO_ROOT

CLI_RUN = """
    import contextlib, io, json, sys
    import gfmarkov.cli as cli
    imported = "scipy" in sys.modules
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main({argv!r})
    print(json.dumps({{"imported": imported, "code": code,
                      "linalg": "scipy.linalg" in sys.modules,
                      "sparse": "scipy.sparse" in sys.modules,
                      "scipy": "scipy" in sys.modules}}))
"""


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
    return _run(CLI_RUN.format(argv=list(argv)))


def test_import_loads_no_scipy():
    out = _run("""
        import json, sys
        import gfmarkov
        print(json.dumps({"scipy": "scipy" in sys.modules}))
    """)
    assert out == {"scipy": False}


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


def test_factoring_command_loads_scipy_linalg_quietly():
    out = _cli("potentials", "--model", "models/two_state.json")
    assert out["code"] == 0
    assert not out["imported"] and out["linalg"]


def test_csgraph_gate_loads_scipy_sparse_quietly(tmp_path):
    # a hollow support has no self-loop, so it takes the csgraph route
    model = tmp_path / "flip.json"
    model.write_text('{"kind": "dtmc", "states": 2, "P": [[0, 1], [1, 0]],'
                     ' "f": [1, 0]}', encoding="utf-8")
    out = _cli("validate", "--model", str(model))
    assert out["code"] == 0
    assert not out["imported"] and out["sparse"]


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
    # scipy.linalg import and the memoized LU are both built under contention
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
