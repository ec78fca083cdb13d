"""Span tracing of gfmarkov from outside the package.

The tracer replaces a function with a timing wrapper wherever that
function is looked up: in every loaded ``gfmarkov`` module and, for the
LAPACK entry points, in ``scipy.linalg``. Nothing under ``src/`` changes,
and a target that a later refactor removes is skipped.

Spans stay in memory as ``[name, start, end, parent, flops, matmuls]``
lists; ``parent`` indexes the same list, or is -1 at the top. The caller
swaps ``Tracer.spans`` for a fresh list at each op boundary.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
from time import perf_counter

import numpy as np

# (span name, defining module, attribute); several functions may share a name.
TARGETS = (
    ("model.diagnose_chain", "gfmarkov.model", "diagnose_chain"),
    ("model.validate", "gfmarkov.model", "validate_stochastic"),
    ("model.validate", "gfmarkov.model", "validate_generator"),
    ("model.validate", "gfmarkov.model", "validate_mdp"),
    ("_linalg.lu_factor", "scipy.linalg", "lu_factor"),
    ("_linalg.lu_solve", "scipy.linalg", "lu_solve"),
    ("gfm.potentials", "gfmarkov.gfm", "potentials"),
    ("gfm.stationary", "gfmarkov.gfm", "stationary"),
    ("gfm.fundamental_matrix", "gfmarkov.gfm", "fundamental_matrix"),
    ("gfm.series_fundamental", "gfmarkov.gfm", "series_fundamental"),
    ("ctmc.ctmc_potentials", "gfmarkov.ctmc", "ctmc_potentials"),
    ("qfactors.qfactors_solve", "gfmarkov.qfactors", "qfactors_solve"),
    ("modelio.load_model", "gfmarkov.modelio", "load_model"),
    ("modelio.dumps_document", "gfmarkov.modelio", "dumps_document"),
    ("cli.main", "gfmarkov.cli", "main"),
    ("estimator.online_potentials", "gfmarkov.estimator", "online_potentials"),
    ("estimator.sample", "gfmarkov.estimator", "_sample_states"),
)

NAME, START, END, PARENT, FLOPS, MATMULS = range(6)


def _lu_flops(args, kwargs) -> float:
    a = args[0] if args else kwargs.get("a")
    n = np.shape(a)[0]
    return 2.0 / 3.0 * n ** 3


def _in_scope(module_name: str) -> bool:
    return (module_name == "gfmarkov" or module_name.startswith("gfmarkov.")
            or module_name == "scipy.linalg")


class Tracer:
    """Collects spans from wrapped functions; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counting_array = _counting_array_type(self)

    def count_matmul(self) -> None:
        # inclusive: every open span gets the matmul
        for idx in self._stack:
            self.spans[idx][MATMULS] += 1

    def wrap(self, name: str, fn, flops=None, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            parent = self._stack[-1] if self._stack else -1
            work = flops(args, kwargs) if flops else 0.0
            spans.append([name, perf_counter(), 0.0, parent, work, 0])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                return post(result) if post else result
            finally:
                self._stack.pop()
                spans[idx][END] = perf_counter()
        return traced

    def _hooks(self, attr: str):
        if attr == "lu_factor":
            return _lu_flops, None
        if attr == "validate_stochastic":
            # matmuls on the validated transition matrix (and on arrays
            # derived from it) are counted, which is how the series
            # layer's matmul count is seen from outside
            view = self.counting_array

            def post(chain):
                return dataclasses.replace(chain, matrix=chain.matrix.view(view))
            return None, post
        return None, None

    def install(self) -> None:
        originals = {}
        for name, module_name, attr in TARGETS:
            try:
                fn = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                continue
            flops, post = self._hooks(attr)
            originals[id(fn)] = (fn, self.wrap(name, fn, flops, post))
        for module_name, module in list(sys.modules.items()):
            if module is None or not _in_scope(module_name):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()


def _counting_array_type(tracer: Tracer):
    class CountingArray(np.ndarray):
        """ndarray view that reports each matmul it takes part in."""

        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            if ufunc is np.matmul and method == "__call__":
                tracer.count_matmul()
            inputs = tuple(x.view(np.ndarray) if isinstance(x, CountingArray)
                           else x for x in inputs)
            if out is not None:
                kwargs["out"] = tuple(
                    x.view(np.ndarray) if isinstance(x, CountingArray) else x
                    for x in out)
            result = getattr(ufunc, method)(*inputs, **kwargs)
            if out is not None:
                return out[0] if len(out) == 1 else out
            if isinstance(result, np.ndarray):
                return result.view(CountingArray)
            return result

    return CountingArray


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds, flops, matmuls.

    Self time is a span's duration minus the durations of its direct
    children.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            child[sp[PARENT]] += sp[END] - sp[START]
    out: dict[str, dict[str, float]] = {}
    for idx, sp in enumerate(spans):
        d = out.setdefault(sp[NAME], dict(calls=0, s=0.0, self_s=0.0,
                                          flops=0.0, matmuls=0))
        dur = sp[END] - sp[START]
        d["calls"] += 1
        d["s"] += dur
        d["self_s"] += dur - child[idx]
        d["flops"] += sp[FLOPS]
        d["matmuls"] += sp[MATMULS]
    return out
