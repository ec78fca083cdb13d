"""Model file loading and deterministic document output.

Model files are single JSON documents:

    {"kind": "dtmc", "states": S, "P": [[...]], "f": [...]}
    {"kind": "ctmc", "states": S, "B": [[...]], "f": [...]}
    {"kind": "mdp",  "states": S, "actions": A,
     "p": [[[...]]], "f": [[...]], "policy": [[...]]}

Row-major nesting, outermost index = state (then action for mdp), IEEE
doubles in decimal text.

Output documents are emitted by a small JSON writer so the byte stream
is fully pinned: floats use 17 significant digits (lossless round trip),
a non-finite float is written as null, keys keep insertion order,
separators are compact. CSV output uses 12 significant digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import ModelFormatError
from .model import (
    GeneratorMatrix,
    MdpModel,
    RewardVector,
    StochasticMatrix,
    reward_vector,
    validate_generator,
    validate_mdp,
    validate_stochastic,
)

__all__ = ["LoadedModel", "load_model", "dumps_document", "format_csv"]


@dataclass(frozen=True)
class LoadedModel:
    """A parsed and validated model file."""

    kind: str  # "dtmc" | "ctmc" | "mdp"
    chain: StochasticMatrix | None = None
    generator: GeneratorMatrix | None = None
    mdp: MdpModel | None = None
    rewards: RewardVector | None = None

    @property
    def states(self) -> int:
        if self.kind == "dtmc":
            return self.chain.size
        if self.kind == "ctmc":
            return self.generator.size
        return self.mdp.states


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise ModelFormatError(f"model file {path} is missing field {key!r}",
                               field=key)
    return doc[key]


def _count(doc: dict, key: str, p: Path) -> int:
    value = _need(doc, key, str(p))
    if type(value) is not int:  # bool is an int subclass
        raise ModelFormatError(
            f"model file {p} field {key!r} must be a JSON integer, got "
            f"{json.dumps(value)}", path=str(p), field=key)
    return value


def load_model(path, *, cfg: Tolerances = DEFAULT) -> LoadedModel:
    """Read, parse, and validate a model file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        reason = getattr(e, "strerror", None) or e
        raise ModelFormatError(f"cannot read model file {p}: {reason}",
                               path=str(p)) from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"model file {p} is not valid JSON: {e}",
                               path=str(p)) from e
    except RecursionError as e:
        raise ModelFormatError(f"model file {p} is nested too deeply to parse",
                               path=str(p)) from e
    if not isinstance(doc, dict):
        raise ModelFormatError(f"model file {p} must contain a JSON object",
                               path=str(p))

    kind = _need(doc, "kind", str(p))
    states = _count(doc, "states", p)

    try:
        if kind == "dtmc":
            chain = validate_stochastic(_need(doc, "P", str(p)), cfg=cfg)
            f = reward_vector(_need(doc, "f", str(p)), chain.size)
            _check_states(states, chain.size, p)
            return LoadedModel("dtmc", chain=chain, rewards=f)
        if kind == "ctmc":
            gen = validate_generator(_need(doc, "B", str(p)), cfg=cfg)
            f = reward_vector(_need(doc, "f", str(p)), gen.size)
            _check_states(states, gen.size, p)
            return LoadedModel("ctmc", generator=gen, rewards=f)
        if kind == "mdp":
            actions = _count(doc, "actions", p)
            mdp = validate_mdp(_need(doc, "p", str(p)),
                               _need(doc, "f", str(p)),
                               _need(doc, "policy", str(p)), cfg=cfg)
            _check_states(states, mdp.states, p)
            if actions != mdp.actions:
                raise ModelFormatError(
                    f"model file {p} declares actions={actions} but tensors "
                    f"have {mdp.actions}", path=str(p))
            return LoadedModel(
                "mdp", mdp=mdp,
                rewards=reward_vector(mdp.rewards.reshape(-1)))
    except (ValueError, TypeError) as e:
        raise ModelFormatError(f"model file {p} has malformed arrays: {e}",
                               path=str(p)) from e
    raise ModelFormatError(
        f"model file {p} has unknown kind {kind!r}; expected dtmc, ctmc, or mdp",
        kind=str(kind))


def _check_states(declared: int, actual: int, p: Path) -> None:
    if declared != actual:
        raise ModelFormatError(
            f"model file {p} declares states={declared} but matrices have "
            f"{actual}", path=str(p))


def _emit(obj, out: list[str]) -> None:
    if isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        # JSON has no NaN or infinity token
        x = float(obj)
        out.append(format(x, ".17g") if math.isfinite(x) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k), ensure_ascii=False))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_document(obj: dict) -> str:
    """Serialize an output document with pinned float formatting."""
    parts: list[str] = []
    _emit(obj, parts)
    parts.append("\n")
    return "".join(parts)


def format_csv(header: list[str], rows: list[tuple]) -> str:
    """CSV with 12-significant-digit floats."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(format(float(v), ".12g"))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
