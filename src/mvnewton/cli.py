"""Command-line front end: grid generation, interpolation, evaluation,
differentiation, Lebesgue sweeps, and convergence experiments.

Every command validates its numeric inputs before any computation starts,
writes files atomically (temp then rename, so nonzero exits leave no
partial outputs), and prints floats with 17 significant digits so files
round-trip losslessly.  Exit codes: 0 success, 2 validation error,
1 internal numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from argparse import ArgumentTypeError
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import (
    BenchmarkFunction,
    convergence_run,
    fit_rate,
    lebesgue_estimate,
    make_benchmark,
    optimal_rho,
)
from .grid import GRID_FAMILIES, _loadtxt, _table_text, axes_for, build_grid
from .multi_index import MultiIndexSet, _lp_table, make_lp_set
from .newton import (
    DegenerateNodesError,
    LagrangeCoefficients,
    divided_differences,
    eval_derivative,
    interpolate,
    load_bundle,
    save_bundle,
)

DEFAULT_SAMPLES = 10_000

_FUNCTION_PARAM_FLAGS = ("r", "s", "a", "k1", "k2")


class UsageError(ValueError):
    """Invalid flags or files; maps to exit code 2."""


def parse_p(text: str) -> float:
    """``1``, ``2``, ``inf``, or a positive decimal literal."""
    text = text.strip().lower()
    if text == "inf":
        return math.inf
    try:
        value = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            raise ArgumentTypeError(f"cannot parse degree selector p={text!r}") from None
    if not value > 0:  # also rejects nan
        raise ArgumentTypeError(f"degree selector p must be positive, got {text}")
    return value


def _parse_p_list(text: str) -> list[float]:
    p_values = [parse_p(v) for v in text.split(",") if v.strip()]
    if not p_values:
        raise ArgumentTypeError("empty p list")
    return p_values


def _p_text(p: float) -> str:
    if p == math.inf:
        return "inf"
    if float(p).is_integer():
        return str(int(p))
    return format(p, ".17g")


def parse_degrees(text: str) -> list[int]:
    """``lo:hi``, ``lo:hi:step``, or a comma list of degrees."""
    text = text.strip()
    try:
        if ":" in text:
            parts = [int(v) for v in text.split(":")]
            if len(parts) == 2:
                lo, hi, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                lo, hi, step = parts
            else:
                raise ValueError
            if step < 1 or hi < lo:
                raise ValueError
            return list(range(lo, hi + 1, step))
        degrees = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ArgumentTypeError(f"cannot parse degree range {text!r}") from None
    if not degrees:
        raise ArgumentTypeError("empty degree list")
    return degrees


def parse_deriv(text: str) -> tuple[int, ...]:
    """A derivative multi-index such as ``1,0``."""
    try:
        order = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ArgumentTypeError(f"cannot parse derivative order {text!r}") from None
    if any(v < 0 for v in order):
        raise ArgumentTypeError("derivative order must be non-negative")
    return order


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise ArgumentTypeError(f"must be positive, got {value}")
    return value


def _atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _rows_text(header: list[str], columns, fmt: str) -> str:
    """Tabular output from equal-length columns; CSV floats carry 17
    significant digits, JSON uses native numbers (shortest round-trip repr,
    also lossless)."""
    if fmt == "json":
        rows = zip(*(np.asarray(c).tolist() for c in columns))
        payload = [dict(zip(header, row)) for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    return _table_text(header, columns)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _build_function(args) -> BenchmarkFunction:
    if args.function is None:
        raise UsageError("a builtin function id is required (--function)")
    params = {
        name: getattr(args, name)
        for name in _FUNCTION_PARAM_FLAGS
        if getattr(args, name) is not None
    }
    return make_benchmark(args.function, args.dim, **params)


def _grid_for(args, index_set):
    return build_grid(index_set, axes_for(index_set, args.family))


# -- subcommands ---------------------------------------------------------------


def cmd_nodes(args) -> int:
    the_grid = _grid_for(args, make_lp_set(args.dim, args.degree, args.p))
    _atomic_write_text(args.out, _rows_text(*the_grid._table(), args.format))
    print(f"num_indices={len(the_grid)}")
    for i, axis in enumerate(the_grid.axes):
        print(f"axis{i + 1}: " + " ".join(_fmt(v) for v in axis.points))
    return 0


def cmd_interpolate(args) -> int:
    if (args.values is None) == (args.function is None):
        raise UsageError("provide exactly one of --function or --values")
    the_grid = _grid_for(args, make_lp_set(args.dim, args.degree, args.p))
    if args.values is not None:
        values = _read_values(args.values)
        if len(values) != len(the_grid):
            raise UsageError(
                f"sample file has {len(values)} rows but the grid expects "
                f"{len(the_grid)} (one per index, canonical order)"
            )
        poly = divided_differences(LagrangeCoefficients(the_grid, values))
    else:
        poly = interpolate(_build_function(args), the_grid)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=out.parent, prefix=out.name + "."))
    try:
        save_bundle(poly, tmp)
        if out.exists():
            shutil.rmtree(out) if out.is_dir() else out.unlink()
        os.replace(tmp, out)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    print(f"num_coeffs={len(poly.coeffs)}")
    return 0


def _read_values(path) -> np.ndarray:
    """One sample per line; ``#`` starts a comment."""
    try:
        values = _loadtxt(path, ndmin=2)
    except ValueError as exc:
        raise UsageError(f"malformed sample file {path}: {exc}") from None
    if values.shape[1] != 1:
        raise UsageError(f"sample file {path} must hold one value per line")
    return values[:, 0]


def _read_points(path, dim: int) -> np.ndarray:
    """One point per line, coordinates separated by commas or whitespace;
    ``#`` starts a comment, and a first line that is not numeric is a header."""
    lines = Path(path).read_text().replace(",", " ").splitlines()
    try:
        np.array(lines[0].split("#")[0].split() if lines else [], dtype=np.float64)
        header = 0
    except ValueError:
        header = 1
    try:
        points = _loadtxt(lines[header:], ndmin=2)
    except ValueError as exc:
        raise UsageError(f"malformed points file {path}: {exc}") from None
    if points.size and points.shape[1] != dim:
        raise UsageError(
            f"points file {path} has {points.shape[1]} coordinates per line, "
            f"expected {dim}"
        )
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        data = [i for i, line in enumerate(lines) if line.split("#")[0].strip()]
        number = data[header + bad[0]] + 1
        raise UsageError(f"point on line {number} of {path} is not finite")
    return points.reshape(-1, dim)


def cmd_eval(args) -> int:
    poly = load_bundle(args.bundle)
    dim = poly.grid.dim
    points = _read_points(args.points, dim)
    order = args.deriv if args.deriv is not None else (0,) * dim
    if len(order) != dim:
        raise UsageError(f"derivative order must have {dim} entries")
    if (np.abs(points) > 1.0).any():
        print(
            "warning: some points lie outside [-1,1]^m; the polynomial "
            "extends globally but no approximation claim holds there",
            file=sys.stderr,
        )
    values = eval_derivative(poly, order, points) if len(points) else np.empty(0)
    header = [f"x{i + 1}" for i in range(dim)] + ["value"]
    _atomic_write_text(args.out, _rows_text(header, [*points.T, values], args.format))
    print(f"num_points={len(points)}")
    return 0


def cmd_convergence(args) -> int:
    if len(args.degrees) < 4:
        raise UsageError("convergence needs at least 4 degrees to fit a rate")
    func = _build_function(args)
    deriv = args.deriv if args.deriv is not None else (0,) * args.dim
    if len(deriv) != args.dim:
        raise UsageError(f"derivative order must be {args.dim} non-negative integers")
    if not func.supports_order(deriv):
        raise UsageError(f"{func.kind} does not support derivative order {deriv}")
    record = convergence_run(
        func,
        args.p,
        args.family,
        args.degrees,
        num_samples=args.samples,
        seed=args.seed,
        deriv_order=deriv,
    )
    fit = fit_rate(record)
    out = Path(args.out)
    _atomic_write_text(out, record.to_csv_text())
    fit_path = out.with_suffix(".fit.json")
    _atomic_write_text(fit_path, json.dumps(fit.to_json_dict(), indent=2) + "\n")
    reference = optimal_rho(func, args.p)
    print(f"c={_fmt(fit.c)} rho={_fmt(fit.rho)} r_squared={_fmt(fit.r_squared)}")
    print(f"reference_rho={'unknown' if reference is None else _fmt(reference)}")
    print(f"record={out} fit={fit_path}")
    return 0


def cmd_lebesgue(args) -> int:
    header = ["m", "p", "n", "num_coeffs", "lambda"]
    rows: list[tuple] = []
    for p in args.p:
        for n in args.degrees:
            # a row above the cap is skipped before any set is built
            exponents, provenance = _lp_table(args.dim, n, p)
            if len(exponents) > args.cap:
                print(
                    f"warning: skipping m={args.dim} p={_p_text(p)} n={n}: "
                    f"|A|={len(exponents)} exceeds cap {args.cap}",
                    file=sys.stderr,
                )
                continue
            index_set = MultiIndexSet(exponents, provenance)
            lam = lebesgue_estimate(
                _grid_for(args, index_set),
                num_samples=args.samples,
                seed=args.seed,
                k=args.order,
                size_cap=args.cap,
            )
            rows.append((args.dim, _p_text(p), n, len(index_set), float(lam)))
            print(f"m={args.dim} p={_p_text(p)} n={n} lambda={_fmt(lam)}")
    _atomic_write_text(args.out, _rows_text(header, list(zip(*rows)), args.format))
    return 0


# -- argument parsing ----------------------------------------------------------


def _add_output_args(parser: argparse.ArgumentParser, formats: bool = False):
    parser.add_argument("--out", required=True, help="output path")
    if formats:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_sampling_args(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--samples",
        type=_positive_int,
        default=DEFAULT_SAMPLES,
        help="number of sample points",
    )


def _add_space_args(
    parser: argparse.ArgumentParser,
    p_type=parse_p,
    p_help="degree selector: 1, 2, inf, or a decimal",
):
    parser.add_argument(
        "-m", "--dim", type=_positive_int, required=True, help="dimension m >= 1"
    )
    parser.add_argument("-p", type=p_type, default="2", help=p_help)
    parser.add_argument("--family", choices=GRID_FAMILIES, default="lcl", help="node family")


def _add_function_args(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--function",
        help="builtin function id: runge, f1, f3, f4, f5 (or long names)",
    )
    for name in _FUNCTION_PARAM_FLAGS:
        parser.add_argument(f"--{name}", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvnewton",
        description=(
            "Multivariate Newton interpolation on downward-closed index sets "
            "with Leja-ordered nodes"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_nodes = sub.add_parser("nodes", help="generate an interpolation grid")
    _add_space_args(p_nodes)
    p_nodes.add_argument("-n", "--degree", type=int, required=True)
    _add_output_args(p_nodes, formats=True)
    p_nodes.set_defaults(func=cmd_nodes)

    p_int = sub.add_parser("interpolate", help="interpolate samples or a builtin")
    _add_space_args(p_int)
    p_int.add_argument("-n", "--degree", type=int, required=True)
    _add_function_args(p_int)
    p_int.add_argument("--values", help="file with one sample per line, grid order")
    _add_output_args(p_int)
    p_int.set_defaults(func=cmd_interpolate)

    p_eval = sub.add_parser("eval", help="evaluate a polynomial bundle at points")
    p_eval.add_argument("--bundle", required=True, help="bundle directory")
    p_eval.add_argument("--points", required=True, help="CSV of query points")
    p_eval.add_argument("--deriv", type=parse_deriv, help="derivative multi-index, e.g. 1,0")
    _add_output_args(p_eval, formats=True)
    p_eval.set_defaults(func=cmd_eval)

    p_conv = sub.add_parser("convergence", help="run a degree sweep and fit the rate")
    _add_space_args(p_conv)
    p_conv.add_argument(
        "--degrees", type=parse_degrees, required=True, help="lo:hi[:step] or comma list"
    )
    _add_function_args(p_conv)
    p_conv.add_argument("--deriv", type=parse_deriv, help="derivative multi-index, e.g. 1,0")
    _add_sampling_args(p_conv)
    _add_output_args(p_conv)
    p_conv.set_defaults(func=cmd_convergence)

    p_leb = sub.add_parser("lebesgue", help="sweep Lebesgue-constant estimates")
    _add_space_args(p_leb, _parse_p_list, "comma list of selectors, e.g. 1,2,inf")
    p_leb.add_argument(
        "--degrees", type=parse_degrees, required=True, help="lo:hi[:step] or comma list"
    )
    p_leb.add_argument(
        "-k",
        "--order",
        type=int,
        choices=range(analysis.LEBESGUE_MAX_ORDER + 1),
        default=0,
        help="Lebesgue order k",
    )
    p_leb.add_argument("--cap", type=_positive_int, default=analysis.LEBESGUE_SIZE_CAP)
    _add_sampling_args(p_leb)
    _add_output_args(p_leb, formats=True)
    p_leb.set_defaults(func=cmd_lebesgue)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed a usage error (2) or the help (0)
        return exc.code
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so this branch must come first
    except (DegenerateNodesError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
