"""The benchmark's workloads: operations through mvnewton's public API,
their seeded inputs, and the correctness check of every operation.

A workload is built from a seed and a scale.  ``full`` is what the
benchmark measures; ``tiny`` is the set-up warm-up pass and the size the
self-test runs at.  Every :class:`Op` has

* ``run``: the timed call (it may read what earlier ops of the same
  repetition left in the workload's state);
* ``check``: run after the timing stops, raises :class:`CheckError` when
  the result is wrong (the reference a check compares with is computed
  once per workload and reused by later repetitions);
* ``fingerprint``: the outputs that must repeat byte for byte under the
  same seed (SHA-256 digests, the fitted rate to 4 decimals, Lebesgue
  values);
* ``mutations``: deliberately wrong versions of the result, used by the
  self-test to show that the check is not vacuous.

This module imports numpy and mvnewton at top level, so ``run.py``
imports it only after it has timed the import of mvnewton.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import mvnewton as mv
import mvnewton.cli as mv_cli
from harness import CheckError

INF = math.inf


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    fingerprint: Callable[[Any], dict]
    sizes: dict
    mutations: dict[str, Callable[[Any], Any]] = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]
    workdir: Path | None = None

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


# -- helpers -----------------------------------------------------------------


def _pick(seed: int, label: str, count: int) -> int:
    """A seed-chosen index in ``range(count)``, stable across runs."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % count


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _array_digest(*arrays: np.ndarray) -> str:
    return _sha256(*(np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays))


def _file_digest(*paths: Path) -> str:
    return _sha256(*(Path(p).read_bytes() for p in paths))


def _file_digests(*paths: Path) -> dict[str, str]:
    """SHA-256 of each output file, by file name."""
    return {Path(p).name: _file_digest(p) for p in paths}


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(actual, expected, rtol: float, what: str) -> None:
    """``max|actual - expected| <= rtol * max(|expected|, tiny)``."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    _require(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    if actual.size == 0:
        return
    _require(bool(np.isfinite(actual).all()), f"{what}: non-finite values")
    scale = max(float(np.abs(expected).max()), np.finfo(float).tiny)
    gap = float(np.abs(actual - expected).max())
    _require(gap <= rtol * scale, f"{what}: max gap {gap:.3e} exceeds {rtol:g} x {scale:.3e}")


def _lcl_grid(m: int, n: int, p):
    index_set = mv.make_lp_set(m, n, p)
    return mv.build_grid(index_set, mv.axes_for(index_set, "lcl"))


def _perturb_array(arr, index: int = -1, rel: float = 1e-9):
    out = np.array(arr, dtype=np.float64, copy=True)
    out[index] = out[index] * (1.0 + rel) + rel
    return out


def _sample_error(f, p, degree: int, samples: int, seed: int, order):
    """Max sampled error of one degree, rebuilt as the docs of
    ``convergence_run`` describe it (points from the sub-seed seed ^ n)."""
    poly = mv.interpolate(f, _lcl_grid(f.dim, degree, p))
    pts = np.random.default_rng(seed ^ degree).uniform(-1.0, 1.0, size=(samples, f.dim))
    err = float(np.abs(mv.benchmark_eval(f, pts, order) - mv.eval_derivative(poly, order, pts)).max())
    return poly, err


# -- sweep: convergence_run + fit_rate ----------------------------------------

SWEEP_SIZES = {
    "full": {"values": range(6, 29, 2), "deriv": range(8, 29, 2), "samples": 10_000},
    "tiny": {"values": range(6, 21, 2), "deriv": range(6, 21, 2), "samples": 200},
}


def sweep(seed: int, scale: str, root: Path) -> Workload:
    size = SWEEP_SIZES[scale]
    samples = size["samples"]
    state: dict[str, Any] = {}
    cases = [
        ("values", mv.make_benchmark("runge", 3, r=math.sqrt(10.0)), list(size["values"]), (0, 0, 0)),
        ("deriv", mv.make_benchmark("runge", 3, r=3.0), list(size["deriv"]), (1, 0, 0)),
    ]
    ops = []
    for key, f, degrees, order in cases:
        ops.append(_convergence_op(key, f, degrees, order, samples, seed, state))
        ops.append(_fit_op(key, state))
    return Workload(ops)


def _convergence_op(key, f, degrees, order, samples, seed, state) -> Op:
    def run():
        record = mv.convergence_run(
            f, 2, "lcl", degrees, num_samples=samples, seed=seed, deriv_order=order
        )
        state[key] = record
        return record

    @functools.cache
    def reference():
        """Sizes, one seed-chosen degree rebuilt, and criterion 9's gap
        between the two evaluators on it (values only)."""
        sizes = [len(mv.make_lp_set(3, n, 2)) for n in degrees]
        i = _pick(seed, f"sweep.{key}.degree", len(degrees))
        poly, err = _sample_error(f, 2, degrees[i], samples, seed, order)
        gap = 0.0
        if not any(order):
            pts = np.random.default_rng([seed, degrees[i]]).uniform(-1.0, 1.0, size=(3, 3))
            for x in pts:
                a, b = mv.eval_recursive(poly, x), mv.eval_iterative(poly, x)
                gap = max(gap, abs(a - b) / (1.0 + abs(b)))
        return sizes, i, err, gap

    def check(record):
        sizes, i, err, gap = reference()
        _require(list(record.degrees) == degrees, f"degrees {record.degrees}")
        _require(list(record.num_coeffs) == sizes, f"num_coeffs {record.num_coeffs}")
        _close(record.errors[i], err, 1e-12, f"error at degree {degrees[i]}")
        _require(gap <= 1e-13, f"eval_recursive/eval_iterative gap {gap:.2e}")

    def fingerprint(record):
        return {"sha256": _sha256(record.to_csv_text().encode())}

    def wrong_error(record):
        errors = list(record.errors)
        errors[_pick(seed, f"sweep.{key}.degree", len(degrees))] *= 1.0 + 1e-9
        return mv.ConvergenceRecord(record.degrees, record.num_coeffs, tuple(errors), record.meta)

    def wrong_sizes(record):
        sizes = list(record.num_coeffs)
        sizes[-1] += 1
        return mv.ConvergenceRecord(record.degrees, tuple(sizes), record.errors, record.meta)

    return Op(
        f"convergence_{key}",
        run,
        check,
        fingerprint,
        {"num_coeffs": [len(mv.make_lp_set(3, n, 2)) for n in degrees], "points": samples},
        {"error": wrong_error, "num_coeffs": wrong_sizes},
    )


def _fit_op(key, state) -> Op:
    def run():
        return mv.fit_rate(state[key])

    def check(fit):
        record = state[key]
        lo, hi = fit.fit_range
        rows = [
            (n, e)
            for n, e in zip(record.degrees, record.errors)
            if e >= mv.analysis.SATURATION_FLOOR
        ]
        # fit_rate's documented plateau guard: the rows right after the
        # first whose error has not fallen below the first row's are dropped
        i = 1
        while i < len(rows) and rows[i][1] >= rows[0][1]:
            i += 1
        window = [(n, e) for n, e in rows[:1] + rows[i:] if lo <= n <= hi]
        _require(len(window) >= 4 and window[0][0] == lo and window[-1][0] == hi,
                 f"fit range {fit.fit_range} does not match the record")
        ns = np.array([n for n, _ in window], dtype=np.float64)
        logs = np.log([e for _, e in window])
        (slope, intercept), *_ = np.linalg.lstsq(np.column_stack([ns, np.ones_like(ns)]), logs, rcond=None)
        _close(fit.rho, math.exp(-slope), 1e-9, "rho")
        _close(fit.c, math.exp(intercept), 1e-9, "c")
        _require(0.0 <= fit.r_squared <= 1.0, f"r_squared {fit.r_squared}")

    def fingerprint(fit):
        return {"rho": round(fit.rho, 4), "sha256": _sha256(json.dumps(fit.to_json_dict()).encode())}

    def wrong_rho(fit):
        return mv.RateFit(fit.c, fit.rho * (1.0 + 1e-6), fit.r_squared, fit.fit_range)

    def wrong_c(fit):
        return mv.RateFit(fit.c * (1.0 + 1e-6), fit.rho, fit.r_squared, fit.fit_range)

    def wrong_range(fit):
        return mv.RateFit(fit.c, fit.rho, fit.r_squared, (fit.fit_range[0], fit.fit_range[1] - 1))

    return Op(
        f"fit_{key}",
        run,
        check,
        fingerprint,
        {"num_coeffs": None, "points": None},
        {"rho": wrong_rho, "c": wrong_c, "fit_range": wrong_range},
    )


# -- lagrange: the two transform directions and the Lebesgue path -------------

LAGRANGE_SIZES = {
    "full": {"n1": 1000, "triangle": 19_999, "m4": (4, 16, 2), "leb_n": 24, "leb_samples": 10_000},
    "tiny": {"n1": 20, "triangle": 50, "m4": (4, 3, 2), "leb_n": 4, "leb_samples": 100},
}


def lagrange(seed: int, scale: str, root: Path) -> Workload:
    size = LAGRANGE_SIZES[scale]
    rng = np.random.default_rng([seed, 1])
    # a smooth sample vector: random data at n=1000 round-trips only to
    # ~3e-10, far from the 1e-12 the check asks of a smooth function
    grid1 = _lcl_grid(1, size["n1"], 2)
    centre = rng.uniform(-0.5, 0.5)
    y1 = 1.0 / (1.0 + 25.0 * (grid1.node_coordinates[:, 0] - centre) ** 2)
    tri = size["triangle"]
    grid_t = mv.build_grid(mv.make_lp_set(1, tri, 2), [mv.chebyshev_lobatto(tri)])
    grid4 = _lcl_grid(*size["m4"])
    y4 = rng.uniform(-1.0, 1.0, len(grid4))
    ops = [
        _roundtrip_op("roundtrip_1d", grid1, y1),
        _triangle_op(grid_t),
        _roundtrip_op("roundtrip_4d", grid4, y4),
    ]
    for p in (1, 2, INF):
        ops.append(_lebesgue_op(_lcl_grid(2, size["leb_n"], p), p, size["leb_samples"], seed))
    return Workload(ops)


def _roundtrip_op(name, grid, samples) -> Op:
    def run():
        poly = mv.divided_differences(mv.LagrangeCoefficients(grid, samples))
        return poly.coeffs, mv.newton_to_lagrange(poly).values

    def check(result):
        _close(result[1], samples, 1e-12, "round trip")

    def fingerprint(result):
        return {"sha256": _array_digest(*result)}

    return Op(
        name,
        run,
        check,
        fingerprint,
        {"num_coeffs": len(grid), "points": len(grid)},
        {"values": lambda r: (r[0], _perturb_array(r[1]))},
    )


def _triangle_op(grid) -> Op:
    x = grid.node_coordinates[:, 0]

    def run():
        return mv.divided_differences(mv.LagrangeCoefficients(grid, x)).coeffs

    def check(coeffs):
        # f(x) = x has the exact Newton coefficients x_0, 1, 0, 0, ...
        exact = np.zeros(len(grid))
        exact[0], exact[1] = x[0], 1.0
        _require(np.array_equal(coeffs, exact), "f(x)=x coefficients are not exact")

    return Op(
        "triangle_1d",
        run,
        check,
        lambda c: {"sha256": _array_digest(c)},
        {"num_coeffs": len(grid), "points": len(grid)},
        {"coeffs": lambda c: _perturb_array(c, index=len(c) // 2)},
    )


def _lebesgue_op(grid, p, samples, seed) -> Op:
    label = "inf" if p == INF else str(p)

    def run():
        return mv.lebesgue_estimate(grid, samples, seed=seed)

    @functools.cache
    def reference():
        """The Lebesgue function's maximum over the same points, from the
        Lagrange-Newton matrix, whose seed-chosen columns are checked
        against lagrange_basis_in_newton."""
        basis = mv.lagrange_newton_matrix(grid)
        exps = grid.index_set.exponents
        for k in range(3):
            j = _pick(seed, f"lagrange.column.{label}.{k}", len(grid))
            column = mv.lagrange_basis_in_newton(grid, exps[j]).coeffs
            _close(basis[:, j], column, 1e-13, f"lagrange_newton_matrix column {j}")
        pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(samples, grid.dim))
        return max(
            float(np.abs(mv.newton_basis_values(grid, pts[i : i + 1000]) @ basis).sum(axis=1).max())
            for i in range(0, samples, 1000)
        )

    def check(lam):
        _require(lam >= 1.0, f"Lebesgue constant {lam} < 1")
        _close(lam, reference(), 1e-12, f"Lebesgue p={label}")

    return Op(
        f"lebesgue_p{label}",
        run,
        check,
        lambda lam: {"lambda": lam},
        {"num_coeffs": len(grid), "points": samples},
        {"lambda": lambda lam: lam * (1.0 + 1e-9)},
    )


# -- cli: an in-process mvnewton.cli.main session -----------------------------

CLI_SIZES = {
    "full": {"nodes_n": 60, "interp_n": 40, "points": 2000, "conv_m": 6, "conv": (2, 8),
             "leb": (4, 16, 4), "samples": 10_000},
    "tiny": {"nodes_n": 5, "interp_n": 4, "points": 20, "conv_m": 2, "conv": (2, 9),
             "leb": (2, 4, 2), "samples": 100},
}


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mv_cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _read_rows(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def cli(seed: int, scale: str, root: Path) -> Workload:
    size = CLI_SIZES[scale]
    work = root / ".perfbench" / "work" / f"cli-{scale}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pts = np.random.default_rng([seed, 2]).uniform(-1.0, 1.0, size=(size["points"], 3))
    with open(work / "points.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "x3"])
        writer.writerows([[repr(float(v)) for v in row] for row in pts])
    samples = ["--samples", str(size["samples"]), "--seed", str(seed)]
    lo, hi = size["conv"]
    leb = size["leb"]
    conv_degrees = list(range(lo, hi + 1))
    leb_degrees = list(range(leb[0], leb[1] + 1, leb[2]))
    bundle = work / "bundle"
    ctx = {"work": work, "seed": seed, "pts": pts, "size": size, "memo": {}}

    def cmd(argv):
        return lambda: _cli(argv)

    ops = [
        Op(
            "cli_nodes",
            cmd(["nodes", "-m", "2", "-n", str(size["nodes_n"]), "--family", "leja",
                 "--out", str(work / "nodes.csv")]),
            lambda r: _check_nodes(r, ctx),
            lambda r: {"sha256": _file_digests(work / "nodes.csv")},
            {"num_coeffs": len(mv.make_lp_set(2, size["nodes_n"], 2)), "points": None},
            {"exit_code": _wrong_code, "file": lambda r: _edit_file(r, work / "nodes.csv")},
        ),
        Op(
            "cli_interpolate",
            cmd(["interpolate", "-m", "3", "-n", str(size["interp_n"]), "-p", "2",
                 "--function", "runge", "--out", str(bundle)]),
            lambda r: _check_interpolate(r, ctx),
            lambda r: {"sha256": _file_digests(*(bundle / f for f in _BUNDLE_FILES))},
            {"num_coeffs": len(mv.make_lp_set(3, size["interp_n"], 2)), "points": None},
            {"exit_code": _wrong_code, "file": lambda r: _edit_file(r, bundle / "coefficients.csv")},
        ),
    ]
    for name, deriv in (("cli_eval", None), ("cli_eval_deriv", (1, 0, 0))):
        out = work / f"{name}.csv"
        argv = ["eval", "--bundle", str(bundle), "--points", str(work / "points.csv"),
                "--out", str(out)]
        if deriv:
            argv += ["--deriv", ",".join(map(str, deriv))]
        ops.append(Op(
            name,
            cmd(argv),
            (lambda o, d: lambda r: _check_eval(r, ctx, o, d))(out, deriv),
            (lambda o: lambda r: {"sha256": _file_digests(o)})(out),
            {"num_coeffs": len(mv.make_lp_set(3, size["interp_n"], 2)), "points": size["points"]},
            {"exit_code": _wrong_code, "file": (lambda o: lambda r: _edit_file(r, o))(out)},
        ))
    conv = work / "convergence.csv"
    ops.append(Op(
        "cli_convergence",
        cmd(["convergence", "-m", str(size["conv_m"]), "-p", "1", "--function", "runge",
             "--degrees", f"{lo}:{hi}", "--out", str(conv)] + samples),
        lambda r: _check_convergence(r, ctx, conv, conv_degrees),
        lambda r: {
            "sha256": _file_digests(conv, conv.with_suffix(".fit.json")),
            "rho": round(json.loads(conv.with_suffix(".fit.json").read_text())["rho"], 4),
        },
        {"num_coeffs": [len(mv.make_lp_set(size["conv_m"], n, 1)) for n in conv_degrees],
         "points": size["samples"]},
        {"exit_code": _wrong_code, "file": lambda r: _edit_file(r, conv),
         "fit": lambda r: _edit_json(r, conv.with_suffix(".fit.json"), "rho")},
    ))
    leb_out = work / "lebesgue.csv"
    ops.append(Op(
        "cli_lebesgue",
        cmd(["lebesgue", "-m", "2", "-p", "1,2,inf", "--degrees", ":".join(map(str, leb)),
             "--out", str(leb_out)] + samples),
        lambda r: _check_lebesgue(r, ctx, leb_out, leb_degrees),
        lambda r: {
            "sha256": _file_digests(leb_out),
            "lambda": [float(row[4]) for row in _read_rows(leb_out)[1]],
        },
        {"num_coeffs": [len(mv.make_lp_set(2, n, p)) for p in (1, 2, INF) for n in leb_degrees],
         "points": size["samples"]},
        {"exit_code": _wrong_code, "file": lambda r: _edit_file(r, leb_out)},
    ))
    return Workload(ops, workdir=work)


_BUNDLE_FILES = ("header.json", "grid.csv", "coefficients.csv")


def _wrong_code(result):
    return (1,) + tuple(result[1:])


def _edit_file(result, path: Path):
    """Scale the last number of a CSV file by 1 + 1e-9: a wrong output that
    still parses."""
    lines = path.read_text().splitlines(keepends=True)
    head, _, last = lines[-1].rstrip("\n").rpartition(",")
    lines[-1] = f"{head},{float(last) * (1.0 + 1e-9)!r}\n"
    path.write_text("".join(lines))
    return result


def _edit_json(result, path: Path, key: str):
    data = json.loads(path.read_text())
    data[key] *= 1.0 + 1e-9
    path.write_text(json.dumps(data))
    return result


def _require_ok(result) -> None:
    code, _, err = result
    _require(code == 0, f"exit code {code}: {err.strip()}")


def _memo(ctx, key, compute):
    """The reference ``compute()`` of a check, computed once per workload."""
    memo = ctx["memo"]
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _check_nodes(result, ctx) -> None:
    _require_ok(result)
    index_set = mv.make_lp_set(2, ctx["size"]["nodes_n"], 2)
    grid = _memo(ctx, "nodes", lambda: mv.build_grid(index_set, mv.axes_for(index_set, "leja")))
    header, rows = _read_rows(ctx["work"] / "nodes.csv")
    _require(header == ["a1", "a2", "x1", "x2"], f"header {header}")
    table = np.array(rows, dtype=np.float64).reshape(-1, 4)
    _require(np.array_equal(table[:, :2], index_set.exponents), "node file exponents differ")
    _require(np.array_equal(table[:, 2:], grid.node_coordinates), "node file coordinates differ")


def _check_interpolate(result, ctx) -> None:
    _require_ok(result)
    poly = mv.load_bundle(ctx["work"] / "bundle")
    expected = _memo(ctx, "interpolate", lambda: mv.interpolate(
        mv.make_benchmark("runge", 3), _lcl_grid(3, ctx["size"]["interp_n"], 2)))
    _require(np.array_equal(poly.coeffs, expected.coeffs), "bundle coefficients differ")


def _check_eval(result, ctx, out: Path, deriv) -> None:
    _require_ok(result)
    pts = ctx["pts"]
    bundle = ctx["work"] / "bundle"

    def reference():
        poly = mv.load_bundle(bundle)
        return mv.eval_iterative(poly, pts) if deriv is None else mv.eval_derivative(poly, deriv, pts)

    # in-process evaluation of the bundle as it is on disk now
    key = ("eval", deriv, _file_digest(*(bundle / f for f in _BUNDLE_FILES)))
    expected = _memo(ctx, key, reference)
    header, rows = _read_rows(out)
    _require(header == ["x1", "x2", "x3", "value"], f"header {header}")
    table = np.array(rows, dtype=np.float64).reshape(-1, 4)
    _require(np.array_equal(table[:, :3], pts), "eval output points differ")
    _require(np.array_equal(table[:, 3], expected), "eval output values differ")


def _check_convergence(result, ctx, path: Path, degrees) -> None:
    _require_ok(result)
    size, seed = ctx["size"], ctx["seed"]
    m = size["conv_m"]
    f = mv.make_benchmark("runge", m)
    i = _pick(seed, "cli.convergence.degree", len(degrees))

    def reference():
        """The library's record, and one seed-chosen degree rebuilt."""
        record = mv.convergence_run(f, 1, "lcl", degrees, size["samples"], seed)
        return record, _sample_error(f, 1, degrees[i], size["samples"], seed, (0,) * m)[1]

    expected, err = _memo(ctx, "convergence", reference)
    record = mv.ConvergenceRecord.from_csv(path)
    _require(list(record.degrees) == degrees, f"degrees {record.degrees}")
    sizes = [len(mv.make_lp_set(m, n, 1)) for n in degrees]
    _require(list(record.num_coeffs) == sizes, f"num_coeffs {record.num_coeffs}")
    _require(record.errors == expected.errors, "errors differ from convergence_run")
    _close(record.errors[i], err, 1e-12, f"error at degree {degrees[i]}")
    fit = json.loads(path.with_suffix(".fit.json").read_text())
    _require(fit == mv.fit_rate(record).to_json_dict(), "fit file disagrees with its record")


def _check_lebesgue(result, ctx, path: Path, degrees) -> None:
    _require_ok(result)
    header, rows = _read_rows(path)
    _require(header == ["m", "p", "n", "num_coeffs", "lambda"], f"header {header}")
    expected = [["2", p, str(n)] for p in ("1", "2", "inf") for n in degrees]
    _require([row[:3] for row in rows] == expected, "lebesgue rows differ")

    def reference():
        out = []
        for _, p, n in expected:
            grid = _lcl_grid(2, int(n), INF if p == "inf" else int(p))
            out.append((len(grid), mv.lebesgue_estimate(grid, ctx["size"]["samples"], seed=ctx["seed"])))
        return out

    for row, (size, lam) in zip(rows, _memo(ctx, "lebesgue", reference)):
        _require(int(row[3]) == size, f"num_coeffs {row[3]} != {size}")
        _close(float(row[4]), lam, 1e-12, f"lambda at p={row[1]} n={row[2]}")


WORKLOADS: dict[str, Callable[[int, str, Path], Workload]] = {
    "sweep": sweep,
    "lagrange": lagrange,
    "cli": cli,
}
