"""Command-line front end: grid generation, interpolation, evaluation,
differentiation, Lebesgue sweeps, and convergence experiments.

Every command validates its numeric inputs before any computation starts.
All of a command's outputs appear, or none; an existing directory is
replaced only by a bundle, and only if it holds nothing but bundle files;
outputs get ordinary umask modes.  Floats carry 17 significant digits so
files round-trip losslessly, and a points or sample file may carry a header.
Exit codes: 0 success, 2 validation error, 1 internal numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from argparse import ArgumentTypeError
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import (
    BenchmarkFunction,
    _p_label,
    convergence_run,
    fit_rate,
    lebesgue_estimate,
    make_benchmark,
    optimal_rho,
)
from .grid import GRID_FAMILIES, _Gathered, _read_table, _table_text, axes_for, build_grid
from .multi_index import MultiIndexSet, _lp_table, make_lp_set
from .newton import (
    _BUNDLE_FILES,
    LagrangeCoefficients,
    divided_differences,
    eval_derivative,
    interpolate,
    load_bundle,
    save_bundle,
)

# one flag per parameter name of the built-in functions: r, s, a, k1, k2
_FUNCTION_PARAM_FLAGS = tuple(
    dict.fromkeys(name for params in analysis._DEFAULTS.values() for name in params)
)


def parse_p(text: str) -> float:
    """``1``, ``2``, ``inf``, or a positive decimal literal."""
    text = text.strip().lower()
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
            degrees = list(range(lo, hi + 1, step))
        else:
            degrees = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ArgumentTypeError(f"cannot parse degree range {text!r}") from None
    if not degrees:
        raise ArgumentTypeError("empty degree list")
    if min(degrees) < 0:
        raise ArgumentTypeError(f"degrees must be non-negative, got {min(degrees)}")
    return degrees


def parse_deriv(text: str) -> tuple[int, ...]:
    """A derivative multi-index such as ``1,0``."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ArgumentTypeError(f"cannot parse derivative order {text!r}") from None


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise ArgumentTypeError(f"must be positive, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 0:
        raise ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _publish(outputs: dict) -> None:
    """Write a command's outputs, all or none: ``outputs`` maps each target
    path to a callable that writes the output at a path it is given.  The
    targets share one parent directory (``ValueError`` otherwise), made if
    missing and removed on failure, and are made in one temporary directory
    there; only when all exist are they checked.  Then every existing target
    moves into the temporary directory and each output moves in; if a move
    fails, the outputs already in place move back out and the saved targets
    back in, so a failed command leaves every target as it found it."""
    # "." gets a name; links stay unresolved
    writers = {os.path.abspath(target): write for target, write in outputs.items()}
    parents = {os.path.dirname(target) for target in writers}
    if len(parents) != 1:
        raise ValueError(f"outputs must share one directory, not {sorted(parents)}")
    (parent,) = parents
    ancestry = [parent, *map(str, Path(parent).parents)]
    missing = [d for d in ancestry if not os.path.lexists(d)]  # to make, deepest first
    try:
        os.makedirs(parent, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=parent) as tmp:
            # the targets' names are distinct, so each subdirectory holds one of each
            new, old = os.path.join(tmp, "new"), os.path.join(tmp, "old")
            os.mkdir(new)
            os.mkdir(old)
            made = {target: os.path.join(new, os.path.basename(target)) for target in writers}
            for target, write in writers.items():
                try:
                    write(made[target])
                except OSError as exc:  # name the target, not its stand-in in ``tmp``
                    if str(exc.filename).startswith(made[target]):
                        exc.filename = target + exc.filename[len(made[target]):]
                    raise
            old_dirs = [t for t in made if os.path.isdir(t) and not os.path.islink(t)]
            for target in old_dirs:
                if not os.path.isdir(made[target]) or set(os.listdir(target)) - set(_BUNDLE_FILES):
                    raise ValueError(f"{target} is a directory; only a bundle replaces one, and "
                                     f"only one holding nothing but {', '.join(_BUNDLE_FILES)}")
            moves = []  # (source, destination) of each move done, to undo in reverse
            try:
                for target in made:
                    if os.path.lexists(target):
                        saved = os.path.join(old, os.path.basename(target))
                        os.replace(target, saved)
                        moves.append((target, saved))
                for target, output in made.items():
                    os.replace(output, target)
                    moves.append((output, target))
            except BaseException:
                for source, destination in reversed(moves):
                    with contextlib.suppress(OSError):
                        os.replace(destination, source)
                raise
    except BaseException:
        for new_dir in missing:
            with contextlib.suppress(OSError):
                os.rmdir(new_dir)
        raise


def _text(text: str):
    """A writer of ``text`` for :func:`_publish`."""
    return lambda path: Path(path).write_text(text)


def _rows_text(header: list[str], columns, fmt: str) -> str:
    """Tabular output from equal-length columns; CSV floats carry 17
    significant digits, JSON uses native numbers (shortest round-trip repr,
    also lossless)."""
    if fmt == "json":
        plain = (c.values[c.index] if isinstance(c, _Gathered) else np.asarray(c) for c in columns)
        rows = zip(*(c.tolist() for c in plain))
        payload = [dict(zip(header, row)) for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    return _table_text(header, columns)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _build_function(args) -> BenchmarkFunction:
    if args.function is None:
        raise ValueError("a builtin function id is required (--function)")
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
    _publish({args.out: _text(_rows_text(*the_grid._table(), args.format))})
    print(f"num_indices={len(the_grid)}")
    for i, axis in enumerate(the_grid.axes):
        print(f"axis{i + 1}: " + " ".join(_fmt(v) for v in axis.points))
    return 0


def cmd_interpolate(args) -> int:
    if (args.values is None) == (args.function is None):
        raise ValueError("provide exactly one of --function or --values")
    the_grid = _grid_for(args, make_lp_set(args.dim, args.degree, args.p))
    if args.values is not None:
        values = _read_table(args.values)[2]
        if len(values) != len(the_grid):
            raise ValueError(
                f"sample file has {len(values)} rows but the grid expects "
                f"{len(the_grid)} (one per index, canonical order)"
            )
        if values.shape[1] != 1:
            raise ValueError(f"{args.values} has {values.shape[1]} numbers per line, expected 1")
        poly = divided_differences(LagrangeCoefficients(the_grid, values[:, 0]))
    else:
        poly = interpolate(_build_function(args), the_grid)
    _publish({args.out: lambda path: save_bundle(poly, path)})
    print(f"num_coeffs={len(poly.coeffs)}")
    return 0


def cmd_eval(args) -> int:
    poly = load_bundle(args.bundle)
    dim = poly.grid.dim
    points = _read_table(args.points)[2]
    if points.size and points.shape[1] != dim:
        raise ValueError(f"{args.points} has {points.shape[1]} numbers per line, expected {dim}")
    points = points.reshape(-1, dim)
    order = args.deriv if args.deriv is not None else (0,) * dim
    values = eval_derivative(poly, order, points)  # a bad order fails before the warning
    if (np.abs(points) > 1.0).any():
        print(
            "warning: some points lie outside [-1,1]^m; the polynomial "
            "extends globally but no approximation claim holds there",
            file=sys.stderr,
        )
    header = [f"x{i + 1}" for i in range(dim)] + ["value"]
    _publish({args.out: _text(_rows_text(header, [*points.T, values], args.format))})
    print(f"num_points={len(points)}")
    return 0


def cmd_convergence(args) -> int:
    if len(args.degrees) < 4:
        raise ValueError("convergence needs at least 4 degrees to fit a rate")
    func = _build_function(args)
    record = convergence_run(
        func,
        args.p,
        args.family,
        args.degrees,
        num_samples=args.samples,
        seed=args.seed,
        deriv_order=args.deriv,
    )
    fit = fit_rate(record)
    out = Path(args.out)
    fit_path = out.with_suffix(".fit.json")
    fit_text = json.dumps(fit.to_json_dict(), indent=2) + "\n"
    _publish({out: _text(record.to_csv_text()), fit_path: _text(fit_text)})
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
            exponents = _lp_table(args.dim, n, p)
            if len(exponents) > args.cap:
                print(
                    f"warning: skipping m={args.dim} p={_p_label(p)} n={n}: "
                    f"|A|={len(exponents)} exceeds cap {args.cap}",
                    file=sys.stderr,
                )
                continue
            index_set = MultiIndexSet(exponents)
            lam = lebesgue_estimate(
                _grid_for(args, index_set),
                num_samples=args.samples,
                seed=args.seed,
                k=args.order,
                size_cap=args.cap,
            )
            rows.append((args.dim, _p_label(p), n, len(index_set), float(lam)))
            print(f"m={args.dim} p={_p_label(p)} n={n} lambda={_fmt(lam)}")
    _publish({args.out: _text(_rows_text(header, list(zip(*rows)), args.format))})
    return 0


# -- argument parsing ----------------------------------------------------------


def _add_output_args(parser: argparse.ArgumentParser, formats: bool = False):
    parser.add_argument("--out", required=True, help="output path")
    if formats:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_sampling_args(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=_non_negative_int, default=0, help="random seed")
    parser.add_argument(
        "--samples",
        type=_positive_int,
        default=analysis.DEFAULT_SAMPLES,
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
    p_nodes.add_argument("-n", "--degree", type=_non_negative_int, required=True)
    _add_output_args(p_nodes, formats=True)
    p_nodes.set_defaults(func=cmd_nodes)

    p_int = sub.add_parser("interpolate", help="interpolate samples or a builtin")
    _add_space_args(p_int)
    p_int.add_argument("-n", "--degree", type=_non_negative_int, required=True)
    _add_function_args(p_int)
    p_int.add_argument("--values", help="file with one sample per line, grid order")
    _add_output_args(p_int)
    p_int.set_defaults(func=cmd_interpolate)

    deriv_help = "derivative multi-index, e.g. 1,0; write a value starting with - as --deriv=-1,0"
    p_eval = sub.add_parser("eval", help="evaluate a polynomial bundle at points")
    p_eval.add_argument("--bundle", required=True, help="bundle directory")
    p_eval.add_argument("--points", required=True, help="CSV of query points")
    p_eval.add_argument("--deriv", type=parse_deriv, help=deriv_help)
    _add_output_args(p_eval, formats=True)
    p_eval.set_defaults(func=cmd_eval)

    p_conv = sub.add_parser("convergence", help="run a degree sweep and fit the rate")
    _add_space_args(p_conv)
    p_conv.add_argument(
        "--degrees", type=parse_degrees, required=True, help="lo:hi[:step] or comma list"
    )
    _add_function_args(p_conv)
    p_conv.add_argument("--deriv", type=parse_deriv, help=deriv_help)
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
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
