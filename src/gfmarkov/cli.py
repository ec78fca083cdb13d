"""Command-line interface.

Loads a model file, dispatches to the computation modules, and emits a
machine-readable result document (JSON by default, CSV for vector
outputs). The ctmc, qfactors and estimator modules are imported inside
the handlers that call them, so a command loads only the modules it
runs. A command gates its model at load, and the solves it calls read
that verdict off the model's matrix. Exit status: 0 success, 1 failed
verification checks, 2 model or validation errors (an unwritable --out
or --trace path among them), 3 numerical errors. Human-readable
diagnostics go to stderr; every library error surfaces as a stable
code string in the output document.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np

from . import gfm
from .config import DEFAULT, Tolerances
from .errors import GfmError, ModelFormatError, NumericalError
from .model import (
    diagnose_chain,
    e1_reference,
    min_uniformization_rate,
    reference_vector,
    uniform_reference,
    uniformize,
)
from .modelio import LoadedModel, dumps_document, format_csv, load_model
from .report import CheckResult, VerificationReport, _residual_check

__all__ = ["main", "build_parser"]


def _ranged(convert, low, strict: bool = False):
    """argparse type: convert the text, refuse values below low (or at it)."""
    def parse(text: str):
        value = convert(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}")
        return value
    parse.__name__ = convert.__name__
    return parse


def _seed_list(text: str) -> list[int]:
    """argparse type: comma-separated seeds, each an int >= 0, at least one."""
    seeds = [_ranged(int, 0)(s) for s in text.split(",") if s.strip()]
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seed in {text!r}")
    return seeds


def _add_common(sub, reference: bool = True, tols=("row", "solve", "re")):
    """Flags every command shares; tols names the --<name>-tol it reads."""
    sub.add_argument("--model", required=True, help="path to a model JSON file")
    if reference:
        sub.add_argument(
            "--reference", default="uniform",
            help="uniform | e1 | stationary | explicit vector literal "
                 "(comma-separated numbers, optionally in brackets)")
    sub.add_argument("--output", choices=["json", "csv"], default="json")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    for name in tols:
        sub.add_argument(f"--{name}-tol", default=None,
                         type=_ranged(float, 0.0, strict=True))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gfmarkov",
        description="Potentials, stationary distributions, and Q-factors of "
                    "finite Markov systems through one shifted linear solve.")
    subs = p.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("validate", help="validate a model file"),
                reference=False, tols=("row",))
    _add_common(subs.add_parser("stationary", help="stationary distribution"))
    _add_common(subs.add_parser("potentials", help="chain potentials"))
    _add_common(subs.add_parser("qfactors", help="Q-factors of an mdp model"))
    _add_common(subs.add_parser("ctmc-stationary",
                                help="stationary distribution of a ctmc model"))
    _add_common(subs.add_parser("ctmc-potentials",
                                help="potentials of a ctmc model"))

    est = subs.add_parser("estimate", help="online potential estimation")
    _add_common(est)
    seeds = est.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=_ranged(int, 0), default=0)
    seeds.add_argument("--seeds", type=_seed_list, default=None,
                       help="comma-separated seeds; runs are ordered by seed")
    est.add_argument("--steps", type=_ranged(int, 1), default=100_000)
    est.add_argument("--epsilon", type=_ranged(float, 0.0, strict=True),
                     default=1e-4)
    est.add_argument("--check-interval", type=_ranged(int, 1), default=1000)
    est.add_argument("--schedule", default="power:1,10,1",
                     help="power:a,b,p for a/(b+t)^p, or constant:x")
    est.add_argument("--s0", type=int, default=0)
    est.add_argument("--trace", default=None,
                     help="write sampled trace CSV to this path (single seed)")

    ser = subs.add_parser("series", help="truncated series form of the "
                                         "fundamental matrix")
    _add_common(ser)
    ser.add_argument("--terms", type=_ranged(int, 0), default=50)

    chk = subs.add_parser("check", help="run verification reports")
    _add_common(chk, reference=False, tols=("row", "solve", "poisson", "re"))
    chk.add_argument("--poisson", action="store_true",
                     help="only check Poisson-equation residuals")
    chk.add_argument("--gamma", type=float, default=None,
                     help="uniformization rate for ctmc spectrum checks")
    return p


def _tolerances(args) -> Tolerances:
    overrides = {}
    for name in ("row_tol", "solve_tol", "poisson_tol", "re_tol"):
        v = getattr(args, name, None)
        if v is not None:
            overrides[name] = v
    return dataclasses.replace(DEFAULT, **overrides) if overrides else DEFAULT


def _matrix(loaded: LoadedModel):
    """The chain or rate matrix that a dtmc or ctmc model's commands gate
    and solve on."""
    return loaded.chain if loaded.kind == "dtmc" else loaded.generator


def _solvers(kind: str):
    """The stationary and potentials calls of a dtmc or ctmc model."""
    if kind == "dtmc":
        return gfm.stationary, gfm.potentials
    from . import ctmc

    return ctmc.ctmc_stationary, ctmc.ctmc_potentials


def _resolve_reference(text: str, n: int, loaded: LoadedModel, cfg: Tolerances):
    if text == "uniform":
        return uniform_reference(n, cfg=cfg)
    if text == "e1":
        return e1_reference(n, cfg=cfg)
    if text == "stationary":
        if loaded.kind == "mdp":
            from .qfactors import _pair_distribution

            pi = _pair_distribution(loaded.mdp, uniform_reference(n, cfg=cfg), cfg)
        else:
            stationary, _ = _solvers(loaded.kind)
            pi = stationary(_matrix(loaded), cfg=cfg).pi
        return reference_vector(pi, cfg=cfg)
    items = text.strip().strip("[]").split(",")
    try:
        values = [float(x) for x in items if x.strip()]
    except ValueError as e:
        raise ModelFormatError(f"cannot parse reference literal {text!r}") from e
    return reference_vector(values, cfg=cfg)


def _load(args, cfg: Tolerances, kind: str | None,
          need_aperiodic: bool = False) -> LoadedModel:
    """Load --model of `kind` (any if None) and run its structural gate.

    Model faults thus come before argument faults. The verdict stays on
    the model's matrix, so the gate of each later solve reads it there.
    """
    loaded = load_model(args.model, cfg=cfg)
    if kind is not None and loaded.kind != kind:
        raise ModelFormatError(
            f"command {args.command!r} needs a {kind!r} model, got {loaded.kind!r}",
            expected=kind, got=loaded.kind)
    if loaded.kind != "mdp":
        gfm._require_irreducible(_matrix(loaded), cfg, need_aperiodic)
    _refuse_csv(args)
    return loaded


def _cmd_validate(args, cfg: Tolerances):
    loaded = load_model(args.model, cfg=cfg)
    _refuse_csv(args)
    if loaded.kind == "mdp":
        from .qfactors import _zero_probability_actions

        m = loaded.mdp
        return {
            "valid": True, "kind": "mdp", "states": m.states,
            "actions": m.actions, "state_action_pairs": m.states * m.actions,
            "zero_probability_actions": _zero_probability_actions(m),
        }
    matrix = _matrix(loaded)
    d = diagnose_chain(matrix, cfg=cfg)
    doc = {"valid": True, "kind": loaded.kind, "states": loaded.states,
           "max_correction": matrix.max_correction}
    if loaded.kind == "ctmc":
        return {**doc, "ergodic": d.irreducible,
                "min_uniformization_rate": min_uniformization_rate(matrix)}
    return {**doc, "irreducible": d.irreducible, "aperiodic": d.aperiodic,
            "period": d.period, "num_closed_classes": d.num_closed_classes}


def _cmd_stationary(args, cfg: Tolerances, kind: str = "dtmc"):
    loaded = _load(args, cfg, kind)
    stationary, _ = _solvers(kind)
    r = _resolve_reference(args.reference, loaded.states, loaded, cfg)
    pi = stationary(_matrix(loaded), r, cfg=cfg)
    return {"pi": pi.pi}


def _cmd_potentials(args, cfg: Tolerances, kind: str = "dtmc"):
    loaded = _load(args, cfg, kind)
    _, potentials = _solvers(kind)
    r = _resolve_reference(args.reference, loaded.states, loaded, cfg)
    sol = potentials(_matrix(loaded), loaded.rewards, r, cfg=cfg)
    return {"g": sol.g, "eta": sol.eta,
            "normalization": sol.normalization}


def _cmd_qfactors(args, cfg: Tolerances):
    from .qfactors import qfactors_solve

    loaded = _load(args, cfg, "mdp")
    n = loaded.mdp.states * loaded.mdp.actions
    r = _resolve_reference(args.reference, n, loaded, cfg)
    sol = qfactors_solve(loaded.mdp, r, cfg=cfg)
    return {"Q": sol.q, "eta": sol.eta,
            "normalization": "r·Q=eta", "induced_g": sol.induced_g}


def _parse_schedule(text: str) -> StepSchedule:
    from .estimator import StepSchedule

    kind, _, rest = text.partition(":")
    try:
        if kind == "power":
            a, b, p = (float(x) for x in rest.split(","))
            return StepSchedule.robbins_monro(a, b, p)
        if kind == "constant":
            return StepSchedule.constant(float(rest))
    except ValueError as e:
        raise ModelFormatError(f"cannot parse schedule {text!r}") from e
    raise ModelFormatError(f"unknown schedule kind {kind!r}; use power: or constant:")


def _cmd_estimate(args, cfg: Tolerances):
    from .estimator import SimulationConfig, online_potentials, write_trace_csv

    loaded = _load(args, cfg, "dtmc", need_aperiodic=True)
    r = _resolve_reference(args.reference, loaded.states, loaded, cfg)
    schedule = _parse_schedule(args.schedule)
    if not 0 <= args.s0 < loaded.states:
        raise ModelFormatError(
            f"--s0 {args.s0} is out of range [0, {loaded.states})",
            states=loaded.states, got=args.s0)
    seeds = sorted(args.seeds or [args.seed])
    if args.trace and len(seeds) > 1:
        raise ModelFormatError("--trace needs a single seed")

    runs = []
    for seed in seeds:
        sim = SimulationConfig(seed=seed, max_steps=args.steps,
                               epsilon=args.epsilon,
                               check_interval=args.check_interval)
        trace = online_potentials(loaded.chain, loaded.rewards, r, schedule,
                                  sim, s0=args.s0, tolerances=cfg)
        if args.trace:
            try:
                with open(args.trace, "w", encoding="utf-8") as fh:
                    write_trace_csv(trace, fh)
            except OSError as e:
                raise _unwritable(args.trace, e) from e
        runs.append({
            "seed": seed, "g_hat": trace.g_hat,
            "eta_hat": trace.eta_hat, "steps_run": trace.steps_run,
            "converged": trace.converged,
        })
    return runs[0] if len(runs) == 1 else {"runs": runs}


def _cmd_series(args, cfg: Tolerances):
    loaded = _load(args, cfg, "dtmc", need_aperiodic=True)
    r = _resolve_reference(args.reference, loaded.states, loaded, cfg)
    fm = gfm.series_fundamental(loaded.chain, r, args.terms, cfg=cfg)
    return {"Z": fm.Z, "terms": fm.terms,
            "tail_norm": fm.tail_norm}


def _series_agreement_check(chain, r, exact, cfg: Tolerances) -> CheckResult:
    approx = gfm.series_fundamental(chain, r, 4096, cfg=cfg)
    if approx.tail_norm < 1e-8:
        return _residual_check("series_vs_solve", approx.Z - exact, 1e-8)
    return CheckResult("series_vs_solve", True, None,
                       note="tail bound did not reach 1e-8; skipped")


def _dtmc_checks(loaded: LoadedModel, poisson_only: bool,
                 cfg: Tolerances) -> list[CheckResult]:
    # g, eta, pi and Z all come from the one factorization of I - P + e r
    # that the chain keeps
    chain, f = loaded.chain, loaded.rewards
    r = uniform_reference(loaded.states, cfg=cfg)
    sol = gfm.potentials(chain, f, r, cfg=cfg)
    g, eta = sol.g, sol.eta
    pi = gfm.stationary(chain, r, cfg=cfg).pi
    P = np.asarray(chain.matrix)

    checks = [
        _residual_check("poisson_residual", g - f.values + eta - P @ g,
                        cfg.poisson_tol),
        _residual_check("eta_vs_stationary_reward", eta - pi @ f.values, 1e-8),
    ]
    if poisson_only:
        return checks

    checks.append(_residual_check("stationary_row_identity", pi @ P - pi, 1e-8))
    checks.append(_residual_check("stationary_sums_to_one", pi.sum() - 1.0, 1e-8))
    checks.extend(gfm.verify_spectral_shift(chain, r, cfg=cfg).checks)
    if diagnose_chain(chain, cfg=cfg).aperiodic:
        Z = gfm.fundamental_matrix(chain, r, cfg=cfg).Z
        checks.append(_series_agreement_check(chain, r, Z, cfg))
    return checks


def _ctmc_checks(loaded: LoadedModel, poisson_only: bool, gamma: float | None,
                 cfg: Tolerances) -> list[CheckResult]:
    # g, pi and eta = pi.f all come from the one factorization of B + e r
    # that the generator keeps, and pi is solved once
    from . import ctmc

    gen, f = loaded.generator, loaded.rewards
    r = uniform_reference(loaded.states, cfg=cfg)
    sol, pi = ctmc._ctmc_solves(gen, f, r, False, cfg)
    g, eta = sol.g, sol.eta
    B = np.asarray(gen.matrix)

    checks = [
        _residual_check("continuous_poisson_residual", -B @ g - (f.values - eta),
                        cfg.poisson_tol),
        _residual_check("normalization_r_g_minus_eta", r.values @ g + eta, 1e-8),
    ]
    if poisson_only:
        return checks

    rate = min_uniformization_rate(gen)
    base = rate if rate > 0 else 1.0
    for mult in (1.0, 2.0, 10.0):
        # a fresh chain, irreducible since B passed its gate: not gated
        pi_chain = gfm.stationary(uniformize(gen, base * mult, cfg=cfg), r,
                                  allow_unchecked=True, cfg=cfg)
        checks.append(_residual_check(
            f"uniformization_consistency_gamma_{mult:g}x", pi.pi - pi_chain.pi,
            1e-8))
    checks.extend(ctmc.verify_generator_spectrum(
        gen, gamma if gamma is not None else 2.0 * base, r, cfg=cfg).checks)
    return checks


def _cmd_check(args, cfg: Tolerances):
    loaded = _load(args, cfg, None)
    if args.gamma is not None and (loaded.kind != "ctmc" or args.poisson):
        raise ModelFormatError("--gamma applies only to a ctmc check "
                               "without --poisson")
    if args.poisson and loaded.kind == "mdp":
        raise ModelFormatError("--poisson does not apply to an mdp model")
    if loaded.kind == "dtmc":
        checks = _dtmc_checks(loaded, args.poisson, cfg)
    elif loaded.kind == "ctmc":
        checks = _ctmc_checks(loaded, args.poisson, args.gamma, cfg)
    else:
        from .qfactors import q_consistency_report, qfactors_solve

        sol = qfactors_solve(loaded.mdp, None, cfg=cfg)
        checks = list(q_consistency_report(loaded.mdp, sol, cfg=cfg).checks)
    report = VerificationReport(tuple(checks))
    for c in report.failures():
        print(f"check failed: {c.name} (residual {c.residual})",
              file=sys.stderr)
    return report.to_dict(), (0 if report.passed else 1)


# the commands with a CSV form: the header and rows of each document
_CSV_FORMS = {
    "stationary": lambda doc: (["state", "pi"], list(enumerate(doc["pi"]))),
    "potentials": lambda doc: (["state", "g", "eta"], [
        (i, v, doc["eta"]) for i, v in enumerate(doc["g"])]),
    "qfactors": lambda doc: (["pair", "Q"], list(enumerate(doc["Q"]))),
    "series": lambda doc: (["i", "j", "Z"], [
        (i, j, v) for i, row in enumerate(doc["Z"]) for j, v in enumerate(row)]),
}
_CSV_FORMS["ctmc-stationary"] = _CSV_FORMS["stationary"]
_CSV_FORMS["ctmc-potentials"] = _CSV_FORMS["potentials"]


def _refuse_csv(args) -> None:
    """Refuse --output csv for a command without a CSV form, before its work."""
    if args.output == "csv" and args.command not in _CSV_FORMS:
        raise ModelFormatError(
            f"command {args.command!r} has no CSV form; use json")


_HANDLERS = {
    "validate": _cmd_validate,
    "stationary": _cmd_stationary,
    "potentials": _cmd_potentials,
    "qfactors": _cmd_qfactors,
    "ctmc-stationary": partial(_cmd_stationary, kind="ctmc"),
    "ctmc-potentials": partial(_cmd_potentials, kind="ctmc"),
    "estimate": _cmd_estimate,
    "series": _cmd_series,
    "check": _cmd_check,
}


def _unwritable(path: str, e: OSError) -> ModelFormatError:
    return ModelFormatError(f"cannot write {path!r}: {e.strerror or e}",
                            path=path)


def _fault(e: GfmError) -> tuple[str, int]:
    """The JSON error document and exit status of e; names it on stderr."""
    doc = {"error": e.code, "message": str(e)}
    if e.detail:
        doc["detail"] = e.detail
    print(f"error [{e.code}]: {e}", file=sys.stderr)
    return dumps_document(doc), 3 if isinstance(e, NumericalError) else 2


def _print_warning(message, *_) -> None:
    """warnings.showwarning that writes one plain line, no source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _tolerances(args)
    try:
        with warnings.catch_warnings():
            # an "error" filter (python -W error) would turn a library
            # warning into an exception that no handler here reports
            warnings.simplefilter("always")
            warnings.showwarning = _print_warning
            result = _HANDLERS[args.command](args, cfg)
        doc, code = result if isinstance(result, tuple) else (result, 0)
        text = (format_csv(*_CSV_FORMS[args.command](doc))
                if args.output == "csv" else dumps_document(doc))
    except GfmError as e:
        text, code = _fault(e)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
            return code
        except OSError as e:
            # the fault that replaces the unwritten document goes to stdout
            text, code = _fault(_unwritable(args.out, e))
    sys.stdout.write(text)
    return code
