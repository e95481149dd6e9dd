"""Outside-in tracing of mvnewton's layers for the benchmark's traced run.

:class:`Tracer` replaces each public function named in ``LAYERS`` with a
wrapper in every mvnewton module namespace that binds it (and
``MultiIndexSet.positions`` on the class), so calls between the package's
own modules are traced too.  Each call records a parent-linked span in
memory; self time is the span's duration minus the time of its child
spans.  Counters read sizes from the arguments and results: work as
points x |A| terms, coefficients transformed, bytes written and read (from
file sizes) and the dense Lebesgue matrix (8 |A|^2 bytes, computed).
``restore`` puts the original functions back.  Nothing in ``src/`` is
modified.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import mvnewton
import mvnewton.analysis
import mvnewton.cli
import mvnewton.grid
import mvnewton.multi_index
import mvnewton.newton

MODULES = {
    "multi_index": mvnewton.multi_index,
    "grid": mvnewton.grid,
    "newton": mvnewton.newton,
    "analysis": mvnewton.analysis,
    "cli": mvnewton.cli,
}
NAMESPACES = (mvnewton, *MODULES.values())


def _points(x) -> int:
    arr = np.asarray(x)
    return 1 if arr.ndim == 1 else arr.shape[0]


def _dir_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


def _add(key, size):
    """A counter that adds ``size(arguments)`` to the layer's ``key`` count."""

    def counter(args, count):
        count[key] += size(args)

    return counter


def _count_f_calls(args, count):
    f = args["f"]

    def counted(x):
        count["f_calls"] += 1
        return f(x)

    args["f"] = counted


_eval_terms = _add("terms", lambda a: _points(a["x"]) * a["poly"].coeffs.size)
_bundle_bytes = _add("bytes", lambda a: _dir_bytes(a["directory"]))

# layer -> (counter run on the bound arguments before the call, counter run
# after it)
LAYERS = {
    "multi_index.make_lp_set": (None, None),
    "multi_index.positions": (_add("queries", lambda a: np.atleast_2d(a["queries"]).shape[0]), None),
    "grid.axes_for": (None, None),
    "grid.build_grid": (None, None),
    "newton.interpolate": (_count_f_calls, None),
    "newton.divided_differences": (_add("coeffs", lambda a: a["samples"].values.size), None),
    "newton.newton_to_lagrange": (_add("coeffs", lambda a: a["poly"].coeffs.size), None),
    "newton.lagrange_newton_matrix": (None, None),
    "newton.newton_basis_values": (None, None),
    "newton.eval_iterative": (_eval_terms, None),
    "newton.eval_derivative": (_eval_terms, None),
    "newton.save_bundle": (None, _bundle_bytes),
    "newton.load_bundle": (_bundle_bytes, None),
    "analysis.benchmark_eval": (None, None),
    "analysis.lebesgue_estimate": (_add("matrix_bytes", lambda a: 8 * len(a["grid"]) ** 2), None),
    "analysis.convergence_run": (None, None),
    "analysis.fit_rate": (None, None),
    "cli.main": (None, None),
}


class Tracer:
    """Parent-linked spans and per-layer totals, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.counts = defaultdict(lambda: defaultdict(int))
        self._ids = itertools.count()
        self._stack: list[list] = []  # [id, child seconds]
        self._patched: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else None
        frame = [next(self._ids), 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self.spans.append((frame[0], None if parent is None else parent[0], name, start, end))
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]

    def _wrapper(self, name: str, fn):
        before, after = LAYERS[name]
        signature = inspect.signature(fn)
        count = self.counts[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is None and after is None:
                return self.span(name, fn, *args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            if before is not None:
                before(bound.arguments, count)
            result = self.span(name, fn, *bound.args, **bound.kwargs)
            if after is not None:
                after(bound.arguments, count)
            return result

        return traced

    def install(self) -> None:
        for name in LAYERS:
            module, func = name.split(".")
            if name == "multi_index.positions":
                cls = mvnewton.multi_index.MultiIndexSet
                original = cls.positions
                self._set(cls, "positions", original, self._wrapper(name, original))
                continue
            original = getattr(MODULES[module], func)
            wrapper = self._wrapper(name, original)
            for namespace in NAMESPACES:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._set(namespace, attr, original, wrapper)

    def _set(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, reps: int, traced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics per traced repetition; ``share`` is self time
        over the traced wall time."""
        out: dict[str, float] = {}
        for name in LAYERS:
            calls = self.calls[name]
            count = self.counts[name]
            out[f"{name}.calls"] = calls / reps
            out[f"{name}.self_s"] = self.self_s[name] / reps
            out[f"{name}.share"] = self.self_s[name] / traced_wall_s
            out[f"{name}.errors"] = self.errors[name] / reps
            if name in ("newton.eval_iterative", "newton.eval_derivative"):
                out[f"{name}.terms"] = count["terms"] / reps
                total = self.total_s[name]
                out[f"{name}.terms_per_s"] = count["terms"] / total if total else 0.0
            elif name in ("newton.divided_differences", "newton.newton_to_lagrange"):
                out[f"{name}.coeffs"] = count["coeffs"] / reps
            elif name in ("newton.save_bundle", "newton.load_bundle"):
                out[f"{name}.bytes"] = count["bytes"] / reps
            elif name == "analysis.lebesgue_estimate":
                out[f"{name}.matrix_bytes"] = count["matrix_bytes"] / reps
            elif name == "multi_index.positions":
                out[f"{name}.queries"] = count["queries"] / reps
            elif name == "newton.interpolate":
                out[f"{name}.f_calls"] = count["f_calls"] / calls if calls else 0.0
        return out

    def spans_json(self) -> list[dict]:
        return [
            {"id": i, "parent": parent, "name": name, "start": start, "end": end}
            for i, parent, name, start, end in sorted(self.spans)
        ]
