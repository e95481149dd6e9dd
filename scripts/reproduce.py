#!/usr/bin/env python3
"""Reproduce the paper's rate and Lebesgue tables through the mvnewton CLI.

    python scripts/reproduce.py [OUTDIR]    # OUTDIR defaults to results/

Runs ``mvnewton convergence`` for each benchmark configuration below and
each p in {1, 2, inf}, and ``mvnewton lebesgue`` for m = 1..3, all on LCL
nodes with seed 0 and 10,000 samples.  Writes ``OUTDIR/rates.csv`` (fitted
rho, reference rho, R^2, fit range and largest |A| per configuration and p;
rho, reference and R^2 to 4 decimals) and ``OUTDIR/lebesgue_m{1,2,3}.csv``.
The per-configuration records and fits go to a temporary directory.
"""
import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mvnewton.analysis import ConvergenceRecord, make_benchmark, optimal_rho
from mvnewton.cli import _publish, _text, main as cli_main, parse_p
from mvnewton.grid import _table_text

P_VALUES = ("1", "2", "inf")

# label: function, dimension, function parameters, degrees (lo:hi:step)
RATE_CONFIGS = {
    "runge_r1_m2": ("runge", 2, {"r": 1, "s": 1}, "4:24:2"),
    "runge_r1_m3": ("runge", 3, {"r": 1, "s": 1}, "4:24:2"),
    "runge_r1_m4": ("runge", 4, {"r": 1, "s": 1}, "4:24:2"),
    "runge_r3_m3": ("runge", 3, {"r": 3, "s": 1}, "6:40:2"),
    "f1_r54_m2": ("f1", 2, {"r": 1.25}, "4:40:2"),
    "f3_m3": ("f3", 3, {}, "4:32:2"),
    "f4_a54_m2": ("f4", 2, {"a": 1.25}, "4:40:2"),
    "f5_k11_m2": ("f5", 2, {"k1": 1, "k2": 1}, "2:20:2"),
}

LEBESGUE_DEGREES = {1: "2,4,8,16,32", 2: "2,4,8,16", 3: "1,2,4,8"}

RATE_HEADER = [
    "config", "p", "rho", "reference", "r_squared", "fit_range", "max_num_coeffs"
]


def _cli(*argv: str) -> None:
    code = cli_main(list(argv))
    if code:
        raise SystemExit(f"mvnewton {' '.join(argv)} exited with {code}")


def rate_row(label: str, p: str, workdir) -> tuple:
    """Run one rate configuration for one p; its ``rates.csv`` row."""
    function, dim, params, degrees = RATE_CONFIGS[label]
    out = Path(workdir) / f"{label}_p{p}.csv"
    flags = [f"--{name}={value}" for name, value in params.items()]
    _cli("convergence", "-m", str(dim), "-p", p, "--function", function, *flags,
         "--degrees", degrees, "--out", str(out))
    fit = json.loads(out.with_suffix(".fit.json").read_text())
    reference = optimal_rho(make_benchmark(function, dim, **params), parse_p(p))
    lo, hi = fit["fit_range"]
    return (
        label,
        p,
        f"{fit['rho']:.4f}",
        "unknown" if reference is None else f"{reference:.4f}",
        f"{fit['r_squared']:.4f}",
        f"{lo}:{hi}",
        max(ConvergenceRecord.from_csv(out).num_coeffs),
    )


def rates_text(rows) -> str:
    return _table_text(RATE_HEADER, list(zip(*rows)))


def lebesgue_sweep(m: int, outdir) -> Path:
    """Write the Lebesgue sweep for dimension ``m``; its path."""
    out = Path(outdir) / f"lebesgue_m{m}.csv"
    _cli("lebesgue", "-m", str(m), "-p", ",".join(P_VALUES),
         "--degrees", LEBESGUE_DEGREES[m], "--out", str(out))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", nargs="?", default=ROOT / "results", type=Path)
    outdir = parser.parse_args(argv).outdir
    with tempfile.TemporaryDirectory() as workdir:
        rows = [rate_row(label, p, workdir) for label in RATE_CONFIGS
                for p in P_VALUES]
    _publish({outdir / "rates.csv": _text(rates_text(rows))})
    for m in LEBESGUE_DEGREES:
        lebesgue_sweep(m, outdir)
    print(rates_text(rows), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
