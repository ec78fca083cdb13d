import dataclasses
import gc
import json
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from gfmarkov import _linalg, cli, ctmc, gfm
from gfmarkov import model as model_module
from gfmarkov import qfactors as qf
from gfmarkov.cli import main
from gfmarkov.errors import ModelFormatError
from gfmarkov.estimator import SimulationConfig, online_potentials
from gfmarkov.modelio import dumps_document, load_model

from conftest import MODELS, count_calls, random_mdp


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _mdp_document(S: int, A: int) -> dict:
    """A model file's document for a random_mdp of S states, A actions."""
    m = random_mdp(np.random.default_rng(0), S, A)
    return {"kind": "mdp", "states": S, "actions": A,
            "p": m.transitions.tolist(), "f": m.rewards.tolist(),
            "policy": m.policy.tolist()}


class TestGoldenInvocations:
    def test_stationary_two_state(self, capsys, models_dir, golden_dir):
        code, out, _ = run_cli(capsys, "stationary",
                               "--model", str(models_dir / "two_state.json"),
                               "--reference", "e1")
        assert code == 0
        golden = (golden_dir / "stationary_two_state.json").read_bytes()
        assert out.encode("utf-8") == golden

    def test_potentials_two_state_sym(self, capsys, models_dir, golden_dir):
        code, out, _ = run_cli(capsys, "potentials",
                               "--model", str(models_dir / "two_state_sym.json"),
                               "--reference", "e1")
        assert code == 0
        golden = (golden_dir / "potentials_two_state_sym.json").read_bytes()
        assert out.encode("utf-8") == golden
        doc = json.loads(out)
        assert doc["g"] == [0.5, -0.5]
        assert doc["eta"] == 0.5
        assert doc["normalization"] == "r·g=eta"

    def test_estimate_two_state_sym(self, capsys, models_dir, golden_dir):
        code, out, _ = run_cli(capsys, "estimate",
                               "--model", str(models_dir / "two_state_sym.json"),
                               "--seeds", "1,2,3", "--steps", "20000")
        assert code == 0
        golden = (golden_dir / "estimate_two_state_sym.json").read_bytes()
        assert out.encode("utf-8") == golden

    def test_validate_bad_rows(self, capsys, models_dir, golden_dir):
        code, out, err = run_cli(capsys, "validate",
                                 "--model", str(models_dir / "bad_rows.json"))
        assert code == 2
        golden = (golden_dir / "validate_bad_rows.json").read_bytes()
        assert out.encode("utf-8") == golden
        doc = json.loads(out)
        assert doc["error"] == "RowSumViolation"
        assert doc["detail"]["row"] == 1
        assert "RowSumViolation" in err


class TestExitCodes:
    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "validate",
                               "--model", str(tmp_path / "nope.json"))
        assert code == 2
        assert json.loads(out)["error"] == "ModelFormat"

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, out, _ = run_cli(capsys, "validate", "--model", str(p))
        assert code == 2
        assert json.loads(out)["error"] == "ModelFormat"

    def test_negative_entry_exits_2(self, capsys, tmp_path):
        p = tmp_path / "neg.json"
        p.write_text(json.dumps({
            "kind": "dtmc", "states": 2,
            "P": [[1.2, -0.2], [0.5, 0.5]], "f": [0, 0]}))
        code, out, _ = run_cli(capsys, "validate", "--model", str(p))
        assert code == 2
        assert json.loads(out)["error"] == "NegativeEntry"

    def test_negative_off_diagonal_exits_2(self, capsys, tmp_path):
        p = tmp_path / "gen.json"
        p.write_text(json.dumps({
            "kind": "ctmc", "states": 2,
            "B": [[1.0, -1.0], [1.0, -1.0]], "f": [0, 0]}))
        code, out, _ = run_cli(capsys, "validate", "--model", str(p))
        assert code == 2
        assert json.loads(out)["error"] == "NegativeOffDiagonal"

    def test_degenerate_reference_exits_2(self, capsys, models_dir):
        code, out, _ = run_cli(capsys, "stationary",
                               "--model", str(models_dir / "two_state.json"),
                               "--reference", "0.5,-0.5")
        assert code == 2
        assert json.loads(out)["error"] == "ReferenceDegenerate"

    def test_overflowing_reference_exits_2(self, capsys, models_dir):
        code, out, err = run_cli(capsys, "potentials",
                                 "--model", str(models_dir / "two_state.json"),
                                 "--reference", "1e308,1e308")
        assert code == 2
        assert json.loads(out)["error"] == "ReferenceDegenerate"
        assert err.count("\n") == 1 and "warning" not in err

    @pytest.mark.parametrize("command, model, reference", [
        ("ctmc-potentials", "huge", "-1e308,1"),
        ("qfactors", "mdp_two_state", "-1e308,0,1e308,1e308")])
    def test_overflowing_shifted_matrix_exits_3(self, capsys, models_dir,
                                                tmp_path, command, model,
                                                reference):
        (tmp_path / "huge.json").write_text(
            '{"kind":"ctmc","states":2,"B":[[-1e308,1e308],[1e308,-1e308]],'
            '"f":[1,0]}')
        path = (tmp_path if model == "huge" else models_dir) / f"{model}.json"
        code, out, err = run_cli(capsys, command, "--model", str(path),
                                 f"--reference={reference}")
        assert code == 3
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == "NearSingular"
        assert "not finite" in json.loads(out)["message"]
        assert err.count("\n") == 1 and "warning" not in err

    @pytest.mark.parametrize("command", ["qfactors", "check"])
    def test_overflowing_policy_average_exits_2(self, capsys, tmp_path,
                                                command):
        # every reward is finite, but state 1's policy average overflows
        path = tmp_path / "huge_rewards.json"
        path.write_text(json.dumps({
            "kind": "mdp", "states": 2, "actions": 3,
            "p": np.full((2, 3, 2), 0.5).tolist(),
            "f": np.full((2, 3), np.finfo(float).max).tolist(),
            "policy": [[1 / 3] * 3, [0.5332105630672446, 0.4652278496369079,
                                     0.0015615872958476093]]}))
        code, out, err = run_cli(capsys, command, "--model", str(path))
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == "DimensionMismatch"
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command, doc", [
        ("potentials", {"kind": "dtmc", "states": 2,
                        "P": [[0.9, 0.1], [0.2, 0.8]],
                        "f": [np.finfo(float).max, 0.0]}),
        ("ctmc-potentials", {"kind": "ctmc", "states": 2,
                             "B": [[-1.0, 1.0], [2.0, -2.0]],
                             "f": [np.finfo(float).max] * 2}),
    ], ids=["dtmc", "ctmc"])
    def test_overflowing_solve_exits_3(self, capsys, tmp_path, command, doc):
        # finite rewards whose potentials overflow: not a singular matrix
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--model", str(path))
        assert code == 3
        assert out.count("\n") == 1
        fault = json.loads(out)
        assert fault["error"] == "NumericalError"
        assert "overflow" in fault["message"]
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_eta_outside_reward_range_exits_3(self, capsys, tmp_path):
        # r.e ~ 7.1e-12: the LU passes its pivot check, but r.g = 1.0000030
        # is no average of f = (1, 0)
        path = tmp_path / "guard.json"
        path.write_text(json.dumps({
            "kind": "dtmc", "states": 2,
            "P": [[0.9999964316829352, 3.5683170647280886e-06],
                  [0.7382560348921869, 0.2617439651078131]],
            "f": [1, 0]}))
        code, out, _ = run_cli(capsys, "potentials", "--model", str(path),
                               "--reference=1.0504674632795423,"
                               "-1.0504674632724371")
        assert code == 3
        assert json.loads(out)["error"] == "NearSingular"

    def test_series_divergent_exits_3(self, capsys, models_dir):
        code, out, _ = run_cli(capsys, "series",
                               "--model", str(models_dir / "two_state.json"),
                               "--reference", "[1.5,1.0]")
        assert code == 3
        assert json.loads(out)["error"] == "SeriesDivergent"

    @pytest.mark.parametrize("schedule, seeds, seed", [
        ("constant:5", [], 0), ("constant:1e300", [], 0),
        ("power:1e300,10,1", [], 0), ("constant:5", ["--seeds", "4,2"], 2)])
    def test_divergent_estimate_exits_3(self, capsys, models_dir, schedule,
                                        seeds, seed):
        code, out, err = run_cli(capsys, "estimate",
                                 "--model", str(models_dir / "two_state.json"),
                                 "--schedule", schedule, "--steps", "2000",
                                 *seeds)
        assert code == 3
        assert out.count("\n") == 1
        doc = json.loads(out)
        assert doc["error"] == "EstimateDivergent"
        assert doc["detail"] == {"seed": seed, "steps_run": 2000}
        assert err.count("\n") == 1 and "EstimateDivergent" in err

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_document_is_json(self, capsys, models_dir, gamma):
        code, out, _ = run_cli(capsys, "check",
                               "--model", str(models_dir / "ctmc_two_state.json"),
                               "--gamma", gamma)
        assert code == 2

        def reject(token):  # json.loads would take NaN / Infinity tokens
            raise ValueError(token)

        doc = json.loads(out, parse_constant=reject)
        assert doc["error"] == "GammaTooSmall"
        assert doc["detail"] == {"gamma": None, "min_rate": 1}
        assert "must be finite, positive" in doc["message"]

    def test_reducible_chain_exits_2(self, capsys, tmp_path):
        p = tmp_path / "red.json"
        p.write_text(json.dumps({
            "kind": "dtmc", "states": 2,
            "P": [[1.0, 0.0], [0.5, 0.5]], "f": [0, 0]}))
        for command in ("stationary", "check"):
            code, out, _ = run_cli(capsys, command, "--model", str(p))
            assert code == 2, command
            assert json.loads(out)["error"] == "NotIrreducible"

    def test_stationary_reference_keeps_gate_errors(self, capsys, tmp_path):
        chains = {"NotIrreducible": [[1.0, 0.0], [0.5, 0.5]],
                  "NotAperiodic": [[0.0, 1.0], [1.0, 0.0]]}
        for error, P in chains.items():
            p = tmp_path / "chain.json"
            p.write_text(json.dumps({"kind": "dtmc", "states": 2,
                                     "P": P, "f": [0, 1]}))
            commands = (["estimate", "series"] if error == "NotAperiodic"
                        else ["stationary", "potentials", "estimate", "series"])
            for command in commands:
                code, out, _ = run_cli(capsys, command, "--model", str(p),
                                       "--reference", "stationary")
                assert code == 2, (error, command)
                assert json.loads(out)["error"] == error, command

    def test_model_faults_come_before_argument_faults(self, capsys, tmp_path):
        models = {
            "reducible": {"kind": "dtmc", "states": 2,
                          "P": [[1.0, 0.0], [0.5, 0.5]], "f": [0, 1]},
            "periodic": {"kind": "dtmc", "states": 3, "f": [1, 0, 0],
                         "P": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]},
            "non_ergodic": {"kind": "ctmc", "states": 2,
                            "B": [[0.0, 0.0], [1.0, -1.0]], "f": [0, 1]},
        }
        cases = [
            ("reducible", ["stationary", "--reference", "bogus"], "NotIrreducible"),
            ("reducible", ["series", "--reference", "[1.5,1]"], "NotIrreducible"),
            ("periodic", ["series", "--reference", "[1.5,1,1]"], "NotAperiodic"),
            ("periodic", ["estimate", "--schedule", "bad:1"], "NotAperiodic"),
            ("periodic", ["estimate", "--s0", "7"], "NotAperiodic"),
            ("non_ergodic", ["ctmc-potentials", "--reference", "[1,1,1]"],
             "NotErgodic"),
        ]
        for name, argv, error in cases:
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(models[name]))
            code, out, _ = run_cli(capsys, *argv, "--model", str(p))
            assert code == 2, argv
            assert json.loads(out)["error"] == error, argv

    def test_out_of_range_flags_exit_2(self, capsys, models_dir):
        model = str(models_dir / "two_state.json")
        for argv in (["series", "--terms", "-1"], ["estimate", "--steps", "0"],
                     ["estimate", "--check-interval", "0"],
                     ["estimate", "--epsilon", "0"], ["estimate", "--s0", "2"],
                     ["check", "--reference", "e1"], ["estimate", "--seed", "-1"],
                     ["estimate", "--seeds", "1,x"],
                     ["estimate", "--seeds", "-2"],
                     ["estimate", "--seeds", "3,2,03"],
                     ["estimate", "--seed", "1", "--seeds", "2,3"],
                     ["check", "--poisson-tol", "-1"],
                     ["potentials", "--row-tol", "-1"],
                     ["stationary", "--solve-tol", "nan"],
                     ["estimate", "--re-tol", "0"],
                     ["estimate", "--epsilon", "inf"],
                     ["validate", "--row-tol", "inf"],
                     ["potentials", "--solve-tol", "inf"],
                     ["check", "--poisson-tol", "inf"],
                     ["stationary", "--re-tol", "inf"]):
            try:
                code = main([*argv, "--model", model])
            except SystemExit as e:  # argparse usage error
                code = e.code
                assert argv[1] in capsys.readouterr().err
            else:
                assert json.loads(capsys.readouterr().out)["error"] == "ModelFormat"
            assert code == 2, argv

    @pytest.mark.parametrize("name, flags, code, error", [
        ("two_state.json", ["--gamma", "7"], 2, "ModelFormat"),
        ("mdp_two_state.json", ["--gamma", "0.1"], 2, "ModelFormat"),
        ("ctmc_two_state.json", ["--gamma", "3", "--poisson"], 2, "ModelFormat"),
        ("mdp_two_state.json", ["--poisson"], 2, "ModelFormat"),
        ("bad_rows.json", ["--gamma", "7"], 2, "RowSumViolation"),
        ("ctmc_two_state.json", ["--gamma", "7"], 0, None),
    ], ids=["gamma-dtmc", "gamma-mdp", "gamma-poisson", "poisson-mdp",
            "model-fault-first", "gamma-ctmc"])
    def test_check_refuses_flags_its_battery_never_reads(
            self, capsys, models_dir, name, flags, code, error):
        got, out, _ = run_cli(capsys, "check", *flags,
                              "--model", str(models_dir / name))
        assert got == code
        assert json.loads(out).get("error") == error

    def test_nested_reference_literal_exits_2(self, capsys, models_dir):
        code, out, _ = run_cli(capsys, "potentials",
                               "--model", str(models_dir / "two_state.json"),
                               "--reference", "[1, [2]]")
        assert code == 2
        assert json.loads(out) == {
            "error": "ModelFormat",
            "message": "cannot parse reference literal '[1, [2]]'"}

    def test_nan_entry_names_its_row(self, capsys, tmp_path):
        p = tmp_path / "nan.json"
        p.write_text('{"kind": "dtmc", "states": 2, '
                     '"P": [[NaN, 1.0], [0.5, 0.5]], "f": [0, 1]}')
        code, out, _ = run_cli(capsys, "validate", "--model", str(p))
        assert code == 2
        assert json.loads(out)["error"] == "RowSumViolation"
        assert out.endswith(',"detail":{"row":0,"row_sum":null}}\n')

    def test_empty_seed_list_is_a_usage_error(self, capsys, models_dir):
        with pytest.raises(SystemExit) as e:
            main(["estimate", "--model", str(models_dir / "two_state.json"),
                  "--seeds", ","])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seeds: no seed in ','" in captured.err

    def test_wrong_kind_exits_2(self, capsys, models_dir):
        code, out, _ = run_cli(capsys, "qfactors",
                               "--model", str(models_dir / "two_state.json"))
        assert code == 2
        assert json.loads(out)["error"] == "ModelFormat"

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unwritable_output_path_exits_2(self, capsys, models_dir, tmp_path,
                                            flag, where):
        path = tmp_path / "missing" / "x" if where == "missing" else tmp_path
        code, out, err = run_cli(capsys, "estimate", "--steps", "10",
                                 "--model", str(models_dir / "two_state.json"),
                                 flag, str(path))
        assert code == 2
        # no --out, or an unwritable one: the fault goes to stdout
        assert out.count("\n") == 1
        doc = json.loads(out)
        assert doc["error"] == "ModelFormat"
        assert str(path) in doc["message"]
        assert doc["detail"] == {"path": str(path)}
        assert err.count("\n") == 1 and err.startswith("error [ModelFormat]: ")
        assert not (tmp_path / "missing").exists()

    def test_unwritable_trace_fault_goes_to_out(self, capsys, models_dir,
                                                tmp_path):
        dest = tmp_path / "doc.json"
        code, out, _ = run_cli(capsys, "estimate", "--steps", "10",
                               "--model", str(models_dir / "two_state.json"),
                               "--trace", str(tmp_path), "--out", str(dest))
        assert code == 2 and out == ""
        assert json.loads(dest.read_text())["error"] == "ModelFormat"

    def test_divergent_estimate_writes_no_trace(self, capsys, models_dir,
                                                tmp_path):
        trace = tmp_path / "t.csv"
        code, _, _ = run_cli(capsys, "estimate", "--schedule", "constant:5",
                             "--steps", "2000", "--trace", str(trace),
                             "--model", str(models_dir / "two_state.json"))
        assert code == 3
        assert not trace.exists()


_TWO = [[0.5, 0.5], [0.5, 0.5]]
_MDP = {"kind": "mdp", "states": 2, "actions": 1, "p": [[[0.5, 0.5]], [[0.5, 0.5]]],
        "f": [[0], [1]], "policy": [[1], [1]]}


class TestModelFile:
    @pytest.mark.parametrize("text, message", [
        ('{"kind": "dtmc", "states": "abc", "P": [[1]], "f": [0]}',
         "field 'states' must be a JSON integer, got \"abc\""),
        ('{"kind": "dtmc", "states": null, "P": [[1]], "f": [0]}',
         "field 'states' must be a JSON integer, got null"),
        ('{"kind": "dtmc", "states": 1.7, "P": [[1]], "f": [0]}',
         "field 'states' must be a JSON integer, got 1.7"),
        ('{"kind": "dtmc", "states": true, "P": [[1]], "f": [0]}',
         "field 'states' must be a JSON integer, got true"),
        (json.dumps(dict(_MDP, actions="x")),
         "field 'actions' must be a JSON integer, got \"x\""),
        ('{"kind": "dtmc", "states": 1, "P": [[1]], "f": [0]}\udcff',
         "codec can't decode byte 0xff"),
        ('{"kind": "dtmc", "states": 1, "P": %s, "f": [0]}'
         % ("[" * 100_000 + "]" * 100_000), "is nested too deeply to parse"),
        ('{"kind": "dtmc", "states": 1, "P": [[1]], "f": [0], "x": %s}'
         % ("[" * 100_000 + "]" * 100_000), "is nested too deeply to parse"),
    ], ids=["states-string", "states-null", "states-float", "states-bool",
            "actions-string", "non-utf8", "deep-P", "deep-unused-field"])
    def test_malformed_field_or_bytes(self, capsys, tmp_path, text, message):
        p = tmp_path / "m.json"
        p.write_bytes(text.encode("utf-8", "surrogateescape"))
        code, out, err = run_cli(capsys, "validate", "--model", str(p))
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "ModelFormat" and message in doc["message"]
        assert f"model file {p}" in doc["message"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("model, message", [
        ({"kind": "dtmc", "states": 2, "f": [0, 1]},
         "model file {p} is missing field 'P'"),
        ([1, 2], "model file {p} must contain a JSON object"),
        ({"kind": "dtmc", "states": 3, "P": _TWO, "f": [0, 1]},
         "model file {p} declares states=3 but matrices have 2"),
        (dict(_MDP, actions=2),
         "model file {p} declares actions=2 but tensors have 1"),
        ({"kind": "dtmc", "states": 2, "P": [[0.5, "x"], [0.5, 0.5]], "f": [0, 1]},
         "model file {p} has malformed arrays: could not convert string to "
         "float: 'x'"),
    ], ids=["missing-field", "top-level-list", "states-mismatch",
            "actions-mismatch", "malformed-P"])
    def test_loader_errors(self, tmp_path, model, message):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(model))
        with pytest.raises(ModelFormatError) as exc:
            load_model(p)
        assert str(exc.value) == message.format(p=p)

    @pytest.mark.parametrize("name", ["two_state", "ctmc_two_state",
                                      "mdp_two_state"])
    def test_loaded_states(self, models_dir, name):
        path = models_dir / f"{name}.json"
        assert load_model(path).states == json.loads(path.read_text())["states"]


def test_document_names_a_type_it_cannot_write():
    with pytest.raises(TypeError, match="cannot serialize complex"):
        dumps_document({"x": [1.0, 1j]})


def large_reward_documents(scale: float) -> dict:
    """A dense n=50 dtmc, its rate-matrix form B = P - I and an S=20, A=3
    mdp, all with rewards drawn on (0, scale)."""
    rng = np.random.default_rng(0)
    P = rng.random((50, 50))
    P /= P.sum(axis=1, keepdims=True)
    f = rng.random(50) * scale
    p = rng.random((20, 3, 20))
    pol = rng.random((20, 3))
    return {
        "dtmc": {"kind": "dtmc", "states": 50, "P": P.tolist(), "f": f.tolist()},
        "ctmc": {"kind": "ctmc", "states": 50, "B": (P - np.eye(50)).tolist(),
                 "f": f.tolist()},
        "mdp": {"kind": "mdp", "states": 20, "actions": 3,
                "p": (p / p.sum(axis=2, keepdims=True)).tolist(),
                "f": (rng.random((20, 3)) * scale).tolist(),
                "policy": (pol / pol.sum(axis=1, keepdims=True)).tolist()},
    }


class TestCheckBoundsScaleWithRewards:
    """The bounds of the residuals linear in f scale with max(1, |f|inf),
    so a check verdict does not depend on the unit of f."""

    @staticmethod
    def _check(capsys, path) -> tuple[int, list, str]:
        code, out, err = run_cli(capsys, "check", "--model", str(path))
        checks = [(c["name"], c["passed"]) for c in json.loads(out)["checks"]]
        return code, checks, err

    @pytest.mark.parametrize("kind", ["dtmc", "ctmc", "mdp"])
    def test_large_rewards_pass(self, capsys, tmp_path, kind):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(large_reward_documents(1e9)[kind]))
        code, _, err = self._check(capsys, path)
        assert code == 0 and err == ""

    @pytest.mark.parametrize("name", [
        "two_state", "two_state_sym", "ctmc_two_state", "mdp_two_state",
        "dtmc", "ctmc", "mdp"])
    def test_verdicts_do_not_depend_on_the_unit_of_f(self, capsys, models_dir,
                                                     tmp_path, name):
        docs = large_reward_documents(1.0)
        doc = (docs[name] if name in docs
               else json.loads((models_dir / f"{name}.json").read_text()))
        verdicts = []
        for c in (1.0, 1e3, 1e9):
            path = tmp_path / f"{name}_{c:g}.json"
            scaled = dict(doc, f=(np.array(doc["f"]) * c).tolist())
            path.write_text(json.dumps(scaled))
            code, checks, _ = self._check(capsys, path)
            verdicts.append((code, checks))
        assert verdicts[0] == verdicts[1] == verdicts[2]

    @pytest.mark.parametrize("kind", ["dtmc", "ctmc", "mdp"])
    def test_a_nudged_solution_still_fails(self, capsys, monkeypatch, tmp_path,
                                           kind):
        doc = large_reward_documents(1e9)[kind]
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        step = 1e-6 * float(np.abs(doc["f"]).max())
        owner, name, field = {"dtmc": (gfm, "potentials", "g"),
                              "ctmc": (ctmc, "_ctmc_solves", "g"),
                              "mdp": (qf, "qfactors_solve", "q")}[kind]
        real = getattr(owner, name)

        def nudged(*args, **kwargs):
            # one entry of g or Q moved by 1e-6 |f|inf
            out = real(*args, **kwargs)
            sol = out[0] if kind == "ctmc" else out
            v = getattr(sol, field)
            sol = dataclasses.replace(
                sol, **{field: v + step * (np.arange(v.size) == 3)})
            return (sol, out[1]) if kind == "ctmc" else sol

        monkeypatch.setattr(owner, name, nudged)
        code, checks, err = self._check(capsys, path)
        assert code == 1 and "check failed" in err
        assert not dict(checks)[{"dtmc": "poisson_residual",
                                 "ctmc": "continuous_poisson_residual",
                                 "mdp": "q_pointwise_definition"}[kind]]


class TestCommands:
    def test_validate_dtmc_document(self, capsys, models_dir):
        code, out, _ = run_cli(capsys, "validate",
                               "--model", str(models_dir / "two_state.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc == {"valid": True, "kind": "dtmc", "states": 2,
                       "max_correction": 0, "irreducible": True,
                       "aperiodic": True, "period": 1,
                       "num_closed_classes": 1}

    def test_reference_presets_agree_on_pi(self, capsys, models_dir):
        pis = []
        for ref in ("uniform", "e1", "stationary", "[0.4,0.9]"):
            code, out, _ = run_cli(capsys, "stationary",
                                   "--model", str(models_dir / "two_state.json"),
                                   "--reference", ref)
            assert code == 0
            pis.append(json.loads(out)["pi"])
        base = np.asarray(pis[0])
        for pi in pis[1:]:
            assert np.abs(base - pi).max() < 1e-10

    def test_ctmc_commands(self, capsys, models_dir):
        code, out, _ = run_cli(capsys, "ctmc-stationary",
                               "--model", str(models_dir / "ctmc_two_state.json"),
                               "--reference", "e1")
        assert code == 0 and json.loads(out)["pi"] == [0.5, 0.5]
        code, out, _ = run_cli(capsys, "ctmc-potentials",
                               "--model", str(models_dir / "ctmc_two_state.json"),
                               "--reference", "e1")
        assert code == 0
        doc = json.loads(out)
        assert doc["g"] == [-0.5, -1.0]
        assert doc["eta"] == 0.5
        assert doc["normalization"] == "r·g=-eta"

    def test_qfactors_command(self, capsys, models_dir):
        code, out, _ = run_cli(capsys, "qfactors",
                               "--model", str(models_dir / "mdp_two_state.json"))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["Q"]) == 4 and len(doc["induced_g"]) == 2
        assert doc["normalization"] == "r·Q=eta"

    def test_estimate_deterministic(self, capsys, models_dir):
        argv = ("estimate", "--model", str(models_dir / "two_state_sym.json"),
                "--reference", "e1", "--steps", "20000", "--seed", "4")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["seed"] == 4 and doc["steps_run"] <= 20000

    def test_estimate_multiple_seeds_ordered(self, capsys, models_dir):
        code, out, _ = run_cli(capsys, "estimate",
                               "--model", str(models_dir / "two_state_sym.json"),
                               "--seeds", "3,1,2", "--steps", "5000",
                               "--epsilon", "1e-12")
        assert code == 0
        runs = json.loads(out)["runs"]
        assert [r["seed"] for r in runs] == [1, 2, 3]

    def test_estimate_trace_csv(self, capsys, models_dir, tmp_path):
        trace = tmp_path / "trace.csv"
        path = models_dir / "two_state_sym.json"
        code, _, _ = run_cli(capsys, "estimate", "--model", str(path),
                             "--steps", "5000", "--epsilon", "1e-12",
                             "--trace", str(trace))
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "t,state,reward,z_t,eta_hat"
        assert len(lines) > 1
        # the same run, written row by row at 12 significant digits
        loaded = load_model(path)
        tr = online_potentials(
            loaded.chain, loaded.rewards, None, None,
            SimulationConfig(seed=0, max_steps=5000, epsilon=1e-12,
                             check_interval=1000))
        assert trace.read_bytes() == "".join(
            ["t,state,reward,z_t,eta_hat\n"]
            + [f"{t},{s},{rew:.12g},{z:.12g},{eta:.12g}\n"
               for t, s, rew, z, eta in tr.samples]).encode()

    def test_series_command(self, capsys, models_dir):
        code, out, _ = run_cli(capsys, "series",
                               "--model", str(models_dir / "two_state.json"),
                               "--terms", "200")
        assert code == 0
        doc = json.loads(out)
        assert doc["terms"] == 200
        assert doc["tail_norm"] < 1e-12
        assert len(doc["Z"]) == 2

    def test_check_passes_on_shipped_models(self, capsys, models_dir):
        for name in ("two_state.json", "two_state_sym.json",
                     "ctmc_two_state.json", "mdp_two_state.json"):
            code, out, _ = run_cli(capsys, "check",
                                   "--model", str(models_dir / name))
            assert code == 0, (name, out)
            assert json.loads(out)["passed"] is True

    # the gate's work is the support pass; every later gate of a command
    # reads the verdict that pass left on the model's matrix
    def test_dtmc_check_runs_structural_gate_once(self, capsys, monkeypatch,
                                                  models_dir):
        passes = count_calls(monkeypatch, model_module, "_support_diagnostics")
        for poisson in ([], ["--poisson"]):
            passes.clear()
            code, out, _ = run_cli(capsys, "check", *poisson, "--model",
                                   str(models_dir / "two_state.json"))
            assert code == 0
            names = [c["name"] for c in json.loads(out)["checks"]]
            assert poisson or "series_vs_solve" in names
            assert len(passes) == 1, poisson

    @pytest.mark.parametrize("n, skipped", [(40, False), (50, True)])
    def test_check_builds_series_once(self, capsys, monkeypatch, tmp_path, n,
                                      skipped):
        # lazy ring: P_ii = 1/2, neighbours 1/4; mixes too slowly at n=50
        # for the tail bound to reach 1e-8 within the 4096-term cap
        P = np.zeros((n, n))
        i = np.arange(n)
        P[i, i] = 0.5
        P[i, (i + 1) % n] += 0.25
        P[i, (i - 1) % n] += 0.25
        path = tmp_path / "lazy_ring.json"
        path.write_text(json.dumps({"kind": "dtmc", "states": n,
                                    "P": P.tolist(), "f": [0.0] * n}))
        builds = count_calls(monkeypatch, gfm, "series_fundamental")
        code, out, _ = run_cli(capsys, "check", "--model", str(path))
        assert code == 0
        series = json.loads(out)["checks"][-1]
        assert series["name"] == "series_vs_solve"
        assert ("note" in series) == skipped
        assert len(builds) == 1

    def test_stationary_reference_gates_once(self, capsys, monkeypatch,
                                             models_dir):
        passes = count_calls(monkeypatch, model_module, "_support_diagnostics")
        model = str(models_dir / "two_state.json")
        for command, extra in (("stationary", []), ("potentials", []),
                               ("estimate", ["--steps", "2000"]),
                               ("series", [])):
            passes.clear()
            code, _, _ = run_cli(capsys, command, "--model", model,
                                 "--reference", "stationary", *extra)
            assert code == 0, command
            assert len(passes) == 1, command

    def test_ctmc_check_runs_ergodicity_gate_once(self, capsys, monkeypatch,
                                                  models_dir):
        passes = count_calls(monkeypatch, model_module, "_support_diagnostics")
        for argv in (["check"], ["check", "--poisson"],
                     ["ctmc-stationary", "--reference", "stationary"],
                     ["ctmc-potentials", "--reference", "stationary"]):
            passes.clear()
            code, _, _ = run_cli(capsys, *argv, "--model",
                                 str(models_dir / "ctmc_two_state.json"))
            assert code == 0
            assert len(passes) == 1, argv

    def test_estimate_seeds_gate_once(self, capsys, monkeypatch, models_dir):
        passes = count_calls(monkeypatch, model_module, "_support_diagnostics")
        code, _, _ = run_cli(capsys, "estimate", "--seeds", "1,2,3",
                             "--steps", "2000", "--model",
                             str(models_dir / "two_state.json"))
        assert code == 0
        assert len(passes) == 1

    @pytest.mark.parametrize("name, poisson, lus", [
        ("two_state.json", [], 1), ("two_state.json", ["--poisson"], 1),
        # B + e r once, then one chain per uniformization rate
        ("ctmc_two_state.json", [], 4),
        ("ctmc_two_state.json", ["--poisson"], 1),
    ], ids=["dtmc", "dtmc-poisson", "ctmc", "ctmc-poisson"])
    def test_check_factors_each_shifted_matrix_once(self, capsys, monkeypatch,
                                                    models_dir, name, poisson,
                                                    lus):
        factors = count_calls(monkeypatch, _linalg, "getrf")
        code, _, _ = run_cli(capsys, "check", *poisson, "--model",
                             str(models_dir / name))
        assert code == 0
        assert len(factors) == lus

    def test_ctmc_poisson_check_solves_g_and_pi_once(self, capsys, monkeypatch,
                                                     models_dir):
        # both solves come from ctmc_potentials; the battery's own pi is
        # read only by the uniformization checks that --poisson skips
        solves = count_calls(monkeypatch, _linalg, "getrs")
        code, _, _ = run_cli(capsys, "check", "--poisson", "--model",
                             str(models_dir / "ctmc_two_state.json"))
        assert code == 0
        assert len(solves) == 2

    def test_ctmc_check_solves_pi_once(self, capsys, monkeypatch, models_dir):
        # g and the pi behind eta on B + e r, then one pi per uniformized
        # chain; the uniformization checks reuse the first pi
        solves = count_calls(monkeypatch, _linalg, "getrs")
        code, _, _ = run_cli(capsys, "check", "--model",
                             str(models_dir / "ctmc_two_state.json"))
        assert code == 0
        assert len(solves) == 5

    def test_mdp_check_factors_only_state_systems(self, capsys, monkeypatch,
                                                  models_dir):
        # the report reads the S x A x S tensor, so PL is never built;
        # every LU is of an S x S policy-chain system
        builds = count_calls(monkeypatch, qf, "build_state_action_chain")
        factors = count_calls(monkeypatch, _linalg, "getrf")
        code, _, _ = run_cli(capsys, "check", "--model",
                             str(models_dir / "mdp_two_state.json"))
        assert code == 0
        assert len(builds) == 0
        assert factors and all(args[0].shape == (2, 2) for args, _ in factors)

    MDP_LUS = pytest.mark.parametrize("argv, lus", [
        (["check"], 1),
        # once for the pair distribution at the uniform reference, once for
        # the stationary reference it gives
        (["qfactors", "--reference", "stationary"], 2),
    ], ids=["check", "qfactors-stationary"])

    @staticmethod
    def _policy_chain_lus(capsys, monkeypatch, path, argv) -> int:
        # P_pi is kept on the model, so the Q-factor solve and the pair
        # distribution share it, and its LU: both solve at the r_S of the
        # same pair reference
        einsums = count_calls(monkeypatch, np, "einsum")
        factors = count_calls(monkeypatch, _linalg, "getrf")
        code, _, _ = run_cli(capsys, *argv, "--model", str(path))
        assert code == 0
        assert [args[0] for args, _ in einsums] == ["sa,sat->st"]
        return len(factors)

    @MDP_LUS
    def test_mdp_forms_policy_chain_once(self, capsys, monkeypatch,
                                         models_dir, argv, lus):
        path = models_dir / "mdp_two_state.json"
        assert self._policy_chain_lus(capsys, monkeypatch, path, argv) == lus

    @MDP_LUS
    def test_generated_mdp_forms_policy_chain_once(self, capsys, monkeypatch,
                                                   tmp_path, argv, lus):
        # at S=2, A=6 the summed sum_a 1/(S A) is not 1/S bitwise
        path = tmp_path / "mdp.json"
        path.write_text(json.dumps(_mdp_document(2, 6)))
        assert self._policy_chain_lus(capsys, monkeypatch, path, argv) == lus

    def test_library_warning_is_one_plain_line(self, capsys, tmp_path):
        path = tmp_path / "dead_action.json"
        path.write_text(json.dumps({
            "kind": "mdp", "states": 2, "actions": 2,
            "p": [[[0.8, 0.2], [0.3, 0.7]], [[0.5, 0.5], [0.1, 0.9]]],
            "f": [[1.0, 0.5], [0.0, 0.25]],
            "policy": [[1.0, 0.0], [0.5, 0.5]]}))
        line = ("warning: policy assigns zero probability to state-action "
                "pairs [(0, 1)]; the state-action chain may be reducible\n")
        for argv in (["qfactors"], ["qfactors", "--reference", "stationary"],
                     ["check"]):
            code, out, err = run_cli(capsys, *argv, "--model", str(path))
            assert code == 0 and json.loads(out)
            assert err == line

    def test_library_warning_under_an_error_filter(self, capsys, tmp_path):
        # as under python -W error: the warning is still one plain line
        path = tmp_path / "dead_action.json"
        path.write_text(json.dumps({
            "kind": "mdp", "states": 2, "actions": 2,
            "p": [[[0.8, 0.2], [0.3, 0.7]], [[0.5, 0.5], [0.1, 0.9]]],
            "f": [[1.0, 0.5], [0.0, 0.25]],
            "policy": [[1.0, 0.0], [0.5, 0.5]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "qfactors", "--model", str(path))
        assert code == 0 and json.loads(out)
        assert err.startswith("warning: ") and err.count("\n") == 1

    def test_validate_ctmc_and_mdp_documents(self, capsys, models_dir):
        code, out, _ = run_cli(capsys, "validate", "--model",
                               str(models_dir / "ctmc_two_state.json"))
        assert code == 0
        assert out == ('{"valid":true,"kind":"ctmc","states":2,"max_correction":0,'
                       '"ergodic":true,"min_uniformization_rate":1}\n')
        code, out, _ = run_cli(capsys, "validate", "--model",
                               str(models_dir / "mdp_two_state.json"))
        assert code == 0
        assert out == ('{"valid":true,"kind":"mdp","states":2,"actions":2,'
                       '"state_action_pairs":4,"zero_probability_actions":[]}\n')

    @pytest.mark.parametrize("command, name, csv", [
        ("potentials", "two_state",
         "state,g,eta\n0,2.33333333333,0.666666666667\n1,-1,0.666666666667\n"),
        ("ctmc-potentials", "ctmc_two_state",
         "state,g,eta\n0,-0.25,0.5\n1,-0.75,0.5\n"),
        ("qfactors", "mdp_two_state",
         "pair,Q\n0,1.33839285714\n1,0.35625\n2,0.0491071428571\n"
         "3,-0.0866071428571\n"),
        ("series", "two_state",
         "i,j,Z\n0,0,2.33333330935\n0,1,-1.33333330935\n"
         "1,0,-0.999999982015\n1,1,1.99999998202\n"),
    ])
    def test_csv_forms(self, capsys, models_dir, command, name, csv):
        code, out, _ = run_cli(capsys, command, "--output", "csv",
                               "--model", str(models_dir / f"{name}.json"))
        assert (code, out) == (0, csv)

    def test_schedule_kinds(self, capsys, models_dir):
        model = str(models_dir / "two_state.json")
        code, out, _ = run_cli(capsys, "estimate", "--model", model,
                               "--schedule", "constant:0.1", "--steps", "1000")
        assert code == 0
        assert out == ('{"seed":0,"g_hat":[2.7110666016379197,-1.1611599055570379],'
                       '"eta_hat":0.77495334804044091,"steps_run":1000,'
                       '"converged":false}\n')
        code, out, _ = run_cli(capsys, "estimate", "--model", model,
                               "--schedule", "foo:1")
        assert code == 2
        assert json.loads(out) == {
            "error": "ModelFormat",
            "message": "unknown schedule kind 'foo'; use power: or constant:"}
        for schedule in ("constant:nan", "constant:inf", "power:nan,10,1",
                         "power:inf,10,1"):
            code, out, _ = run_cli(capsys, "estimate", "--model", model,
                                   "--schedule", schedule)
            assert code == 2
            assert out.count("\n") == 1
            assert json.loads(out)["error"] == "ScheduleInvalid"
        for schedule in ("power:1,2", "constant:", "power:a,1,1"):
            code, out, _ = run_cli(capsys, "estimate", "--model", model,
                                   "--schedule", schedule)
            assert code == 2
            assert json.loads(out) == {
                "error": "ModelFormat",
                "message": f"cannot parse schedule {schedule!r}"}

    def test_trace_needs_a_single_seed(self, capsys, models_dir, tmp_path):
        code, out, _ = run_cli(capsys, "estimate", "--seeds", "1,2",
                               "--model", str(models_dir / "two_state.json"),
                               "--trace", str(tmp_path / "t.csv"))
        assert code == 2
        assert json.loads(out) == {"error": "ModelFormat",
                                   "message": "--trace needs a single seed"}
        assert not (tmp_path / "t.csv").exists()

    def test_failing_check_exits_1(self, capsys, models_dir):
        code, out, err = run_cli(capsys, "check", "--poisson-tol", "1e-300",
                                 "--model", str(models_dir / "two_state.json"))
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False
        assert [c["name"] for c in doc["checks"] if not c["passed"]] == [
            "poisson_residual"]
        assert err.startswith("check failed: poisson_residual (residual ")
        assert err.count("\n") == 1

    def test_check_poisson_round_trip(self, capsys, models_dir):
        # potentials output independently re-verified by the check command
        for name in ("two_state.json", "two_state_sym.json",
                     "ctmc_two_state.json"):
            code, out, _ = run_cli(capsys, "check", "--poisson",
                                   "--model", str(models_dir / name))
            assert code == 0
            names = [c["name"] for c in json.loads(out)["checks"]]
            assert any("poisson" in n for n in names)

    def test_csv_output(self, capsys, models_dir):
        code, out, _ = run_cli(capsys, "stationary",
                               "--model", str(models_dir / "two_state.json"),
                               "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "state,pi"
        assert lines[1].startswith("0,0.666666666667")

    def test_csv_unavailable_for_check(self, capsys, models_dir):
        code, out, _ = run_cli(capsys, "check",
                               "--model", str(models_dir / "two_state.json"),
                               "--output", "csv")
        assert code == 2
        assert json.loads(out)["error"] == "ModelFormat"

    def test_csv_refused_before_the_estimate_runs(self, capsys, models_dir,
                                                  tmp_path):
        trace = tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, "estimate",
                               "--model", str(models_dir / "two_state.json"),
                               "--steps", "2000", "--trace", str(trace),
                               "--output", "csv")
        assert code == 2
        assert json.loads(out)["error"] == "ModelFormat"
        assert not trace.exists()

    @pytest.mark.parametrize("command", ["validate", "check", "estimate"])
    def test_csv_refusal_comes_after_model_faults(self, capsys, models_dir,
                                                  tmp_path, command):
        reducible = tmp_path / "reducible.json"
        reducible.write_text(json.dumps({"kind": "dtmc", "states": 2,
                                         "P": [[1, 0], [0, 1]], "f": [0, 1]}))
        for path, error in ((models_dir / "bad_rows.json", "RowSumViolation"),
                            (reducible, "NotIrreducible")):
            if command == "validate" and error == "NotIrreducible":
                error = "ModelFormat"  # validate reports, not gates, support
            code, out, _ = run_cli(capsys, command, "--model", str(path),
                                   "--output", "csv")
            assert code == 2
            assert json.loads(out)["error"] == error

    def test_out_file(self, capsys, models_dir, tmp_path):
        dest = tmp_path / "pi.json"
        code, out, _ = run_cli(capsys, "stationary",
                               "--model", str(models_dir / "two_state.json"),
                               "--out", str(dest))
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["pi"]

    def test_tolerance_override_accepts_loose_rows(self, capsys, tmp_path):
        p = tmp_path / "loose.json"
        p.write_text(json.dumps({
            "kind": "dtmc", "states": 2,
            "P": [[0.5, 0.5001], [0.5, 0.5]], "f": [0, 0]}))
        code, out, _ = run_cli(capsys, "validate", "--model", str(p))
        assert code == 2
        code, out, _ = run_cli(capsys, "validate", "--model", str(p),
                               "--row-tol", "1e-3")
        assert code == 0


_READ_TOLS = {"validate": ("row",), "check": ("row", "solve", "poisson", "re")}
_OTHER_TOLS = ("row", "solve", "re")


class TestToleranceFlags:
    """Each subcommand registers only the tolerance flags it reads."""

    @pytest.mark.parametrize("command", sorted(cli._HANDLERS))
    def test_read_flags_parse(self, command):
        for name in _READ_TOLS.get(command, _OTHER_TOLS):
            args = cli.build_parser().parse_args(
                [command, "--model", "m.json", f"--{name}-tol", "1e-3"])
            assert getattr(args, f"{name}_tol") == 1e-3

    def test_unread_flags_exit_2(self, capsys, models_dir):
        model = str(models_dir / "two_state.json")
        unread = [(command, name) for command in sorted(cli._HANDLERS)
                  for name in ("row", "solve", "poisson", "re")
                  if name not in _READ_TOLS.get(command, _OTHER_TOLS)]
        assert len(unread) == 10
        for command, name in unread:
            with pytest.raises(SystemExit) as e:
                main([command, "--model", model, f"--{name}-tol", "1e-3"])
            assert e.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: --{name}-tol" in err


class TestSubprocessEntryPoint:
    def test_module_invocation(self, models_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "gfmarkov", "potentials",
             "--model", str(models_dir / "two_state_sym.json"),
             "--reference", "e1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["g"] == [0.5, -0.5]

    @pytest.mark.parametrize("argv", [
        ("stationary", "two_state", "--reference", "e1"),
        ("potentials", "two_state_sym", "--reference", "e1"),
        ("estimate", "two_state_sym", "--seeds", "1,2,3", "--steps", "20000"),
        ("validate", "bad_rows"),
        *(("check", m.stem) for m in sorted(MODELS.glob("*.json")))],
        ids="-".join)
    def test_module_prints_what_main_prints(self, capsys, argv):
        command, model, *rest = argv
        argv = [command, "--model", str(MODELS / f"{model}.json"), *rest]
        proc = subprocess.run([sys.executable, "-m", "gfmarkov", *argv],
                              capture_output=True)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == (2 if model == "bad_rows" else 0)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, captured.out.encode("utf-8"), captured.err.encode("utf-8"))

    @pytest.mark.parametrize("argv", [
        ("check", "two_state"), ("estimate", "two_state", "--steps", "1000"),
        ("qfactors", "two_state")], ids=lambda argv: argv[0])
    def test_main_leaves_the_collector_as_it_finds_it(self, capsys, argv):
        command, model, *rest = argv
        enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        main([command, "--model", str(MODELS / f"{model}.json"), *rest])
        capsys.readouterr()
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)

    def test_process_entry_runs_no_collection(self, models_dir):
        # cli is imported and gen 0 emptied first, so the count starts
        # where run() would; a check loads scipy and its LAPACK module,
        # whose imports collect when gc is on
        probe = textwrap.dedent(f"""
            import atexit, gc, runpy, sys
            import gfmarkov.cli
            gc.collect()
            runs = []
            gc.callbacks.append(
                lambda phase, info: runs.append(1) if phase == "start" else None)
            atexit.register(lambda: print(
                gc.isenabled(), gc.get_freeze_count() > 0, len(runs)))
            sys.argv = ["gfmarkov", "check",
                        "--model", {str(models_dir / "two_state.json")!r}]
            runpy.run_module("gfmarkov", run_name="__main__")
        """)
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False True 0"
