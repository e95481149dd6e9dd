"""Benchmark functions, Lebesgue-constant estimation, convergence runs,
and geometric-rate fitting.

The error model throughout is ``error(n) ~ c * rho**(-n)`` in the degree
``n``; :func:`fit_rate` recovers ``(c, rho)`` by least squares on the log
errors and :func:`optimal_rho` supplies published reference rates where a
closed form or constant is available.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    GRID_FAMILIES,
    UnisolventGrid,
    _read_table,
    _table_text,
    axes_for,
    build_grid,
)
from .multi_index import make_lp_set
from .newton import (
    _as_points,
    eval_derivative,
    interpolate,
    lagrange_newton_matrix,
    newton_basis_values,
)

__all__ = [
    "BenchmarkFunction",
    "make_benchmark",
    "benchmark_eval",
    "optimal_rho",
    "lebesgue_estimate",
    "chebyshev_lobatto_lebesgue_reference",
    "ConvergenceRecord",
    "convergence_run",
    "RateFit",
    "fit_rate",
    "GRID_FAMILIES",
]

BENCHMARK_IDS = (
    "runge",
    "f1_shifted_pole",
    "f3_perturbed_runge",
    "f4_shifted_runge_m",
    "f5_trig",
)

_ALIASES = {
    "f1": "f1_shifted_pole",
    "f2": "runge",
    "f3": "f3_perturbed_runge",
    "f4": "f4_shifted_runge_m",
    "f5": "f5_trig",
}

# Errors below this are machine-precision saturation and excluded from fits.
SATURATION_FLOOR = 1e-13

LEBESGUE_SIZE_CAP = 5000
LEBESGUE_MAX_ORDER = 2

# Soft bound on the floats of one chunk's (|A| x points) blocks, the Newton
# basis values and their products with the Lagrange-Newton matrix.  With
# all points in one chunk the perfbench ``lagrange`` workload peaked at
# 149 MB instead of 94 MB, and ``cli``, whose peak lies elsewhere, at 115 MB
# instead of 114 MB (2-core x86 machine, OpenBLAS with 2 threads).
_LEBESGUE_BUDGET = 2_000_000

# Row blocks of the triangular Lagrange-Newton product; a block needs the
# basis rows from its own first row on, so 3 blocks do 2/3 of the work of
# one product.  Per 2,000,000-float chunk at |A| = 216/325/625 (2-core x86,
# OpenBLAS 2 threads), 1 block took 8.8/13.0/27.2 ms, 2 blocks
# 7.3/10.4/21.6, 3 blocks 6.8/9.8/19.9 and 4 blocks 7.6/9.9/19.0.
_TRIANGLE_BLOCKS = 3


@dataclass(frozen=True)
class BenchmarkFunction:
    """One of the built-in test functions on ``[-1, 1]^m``.

    kind:
      * ``runge``: ``1 / (s**2 + r**2 * |x|**2)``
      * ``f1_shifted_pole`` (2D): ``1 / ((x1 - r)**2 + x2**2)``, ``r > 1``
      * ``f3_perturbed_runge``: ``1 / (1 + (sum_i r_i x_i)**2)``, ``r_i = 5/i**3``
      * ``f4_shifted_runge_m``: ``1 / sum_i (x_i - a)**2``, ``a > 1``
      * ``f5_trig``: ``cos(pi*k1*sum(x)) + sin(pi*k2*sum(x))``

    Closed-form partial derivatives up to total order 2 are available for
    ``runge``, ``f1_shifted_pole`` and ``f5_trig``.
    """

    kind: str
    dim: int
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.kind not in BENCHMARK_IDS:
            raise ValueError(f"unknown benchmark function {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        p = self.params_dict
        if self.kind == "runge":
            if p.get("r", 1.0) == 0 or p.get("s", 1.0) == 0:
                raise ValueError("runge requires r != 0 and s != 0")
        elif self.kind == "f1_shifted_pole":
            if self.dim != 2:
                raise ValueError("f1_shifted_pole is bivariate")
            if p.get("r", 0.0) <= 1:
                raise ValueError("f1_shifted_pole requires r > 1")
        elif self.kind == "f4_shifted_runge_m":
            if p.get("a", 0.0) <= 1:
                raise ValueError("f4_shifted_runge_m requires a > 1")
        elif self.kind == "f5_trig":
            if p.get("k1", 1) < 0 or p.get("k2", 1) < 0:
                raise ValueError("f5_trig requires non-negative k1, k2")

    @property
    def params_dict(self) -> dict[str, float]:
        return dict(self.params)

    def __call__(self, x):
        return benchmark_eval(self, x)

    def supports_order(self, order) -> bool:
        order = tuple(int(v) for v in order)
        if any(v < 0 for v in order) or len(order) != self.dim:
            return False
        total = sum(order)
        if total == 0:
            return True
        return total <= 2 and self.kind in ("runge", "f1_shifted_pole", "f5_trig")


def make_benchmark(kind: str, dim: int, **params) -> BenchmarkFunction:
    """Build a benchmark function; short aliases f1..f5 are accepted."""
    kind = _ALIASES.get(kind, kind)
    defaults: dict[str, float]
    if kind == "runge":
        defaults = {"r": 1.0, "s": 1.0}
    elif kind == "f1_shifted_pole":
        defaults = {"r": 5.0 / 4.0}
    elif kind == "f4_shifted_runge_m":
        defaults = {"a": 5.0 / 4.0}
    elif kind == "f5_trig":
        defaults = {"k1": 1.0, "k2": 1.0}
    else:
        defaults = {}
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(f"{kind} does not take parameters {sorted(unknown)}")
    defaults.update({k: float(v) for k, v in params.items()})
    return BenchmarkFunction(kind, dim, tuple(sorted(defaults.items())))


def benchmark_eval(f: BenchmarkFunction, x, order=None):
    """Closed-form value of ``d^order f`` at ``x`` (scalar or batch).

    ``order`` is a multi-index with total order at most 2; orders above 0
    are rejected for functions without analytic derivatives.
    """
    pts, single = _as_points(x, f.dim)
    if order is None:
        order = (0,) * f.dim
    order = tuple(int(v) for v in order)
    if not f.supports_order(order):
        raise ValueError(f"{f.kind} does not support derivative order {order}")
    out = _benchmark_dispatch(f, pts, order)
    return float(out[0]) if single else out


def _benchmark_dispatch(f: BenchmarkFunction, pts: np.ndarray, order) -> np.ndarray:
    p = f.params_dict
    total = sum(order)
    active = [i for i, v in enumerate(order) if v > 0]

    if f.kind == "runge":
        r, s = p["r"], p["s"]
        den = s * s + r * r * (pts**2).sum(axis=1)
        if total == 0:
            return 1.0 / den
        if total == 1:
            (j,) = active
            return -2.0 * r * r * pts[:, j] / den**2
        if len(active) == 1:  # d^2/dx_j^2
            (j,) = active
            return -2.0 * r * r / den**2 + 8.0 * r**4 * pts[:, j] ** 2 / den**3
        j, k = active
        return 8.0 * r**4 * pts[:, j] * pts[:, k] / den**3

    if f.kind == "f1_shifted_pole":
        r = p["r"]
        u = pts[:, 0] - r
        v = pts[:, 1]
        den = u * u + v * v
        if total == 0:
            return 1.0 / den
        if total == 1:
            w = u if active[0] == 0 else v
            return -2.0 * w / den**2
        if len(active) == 2:
            return 8.0 * u * v / den**3
        w = u if active[0] == 0 else v
        return -2.0 / den**2 + 8.0 * w * w / den**3

    if f.kind == "f3_perturbed_runge":
        weights = 5.0 / np.arange(1, f.dim + 1) ** 3
        t = pts @ weights
        return 1.0 / (1.0 + t * t)

    if f.kind == "f4_shifted_runge_m":
        a = p["a"]
        return 1.0 / ((pts - a) ** 2).sum(axis=1)

    # f5_trig
    k1, k2 = p["k1"], p["k2"]
    t = pts.sum(axis=1)
    if total == 0:
        return np.cos(np.pi * k1 * t) + np.sin(np.pi * k2 * t)
    if total == 1:
        return -np.pi * k1 * np.sin(np.pi * k1 * t) + np.pi * k2 * np.cos(np.pi * k2 * t)
    return -((np.pi * k1) ** 2) * np.cos(np.pi * k1 * t) - (np.pi * k2) ** 2 * np.sin(
        np.pi * k2 * t
    )


def optimal_rho(f: BenchmarkFunction, p, m: int | None = None) -> float | None:
    """Published reference rate for ``(f, p, m)``, or ``None`` when unknown.

    * ``runge``: ``(h + sqrt(h^2 + m)) / sqrt(m)`` for total degree and
      ``h + sqrt(h^2 + 1)`` for Euclidean/maximum degree, with ``h = s/r``;
      the latter is dimension-independent.
    * ``f1_shifted_pole``: ``r`` for total degree, ``r - 1 + sqrt((r-1)^2 + 1)``
      for Euclidean and maximum degree (these coincide).
    * ``f3_perturbed_runge``: the runge ``r = 5`` rate for Euclidean and
      maximum degree.
    * ``f4_shifted_runge_m``: the published 2D constants for ``a = 5/4``.
    * ``f5_trig``: entire, asymptotic rate unbounded; always ``None``.
    """
    m = f.dim if m is None else int(m)
    pars = f.params_dict
    if f.kind == "runge":
        h = pars["s"] / pars["r"]
        if p == 1:
            return (h + math.sqrt(h * h + m)) / math.sqrt(m)
        if p == 2 or p == math.inf:
            return h + math.sqrt(h * h + 1.0)
        return None
    if f.kind == "f1_shifted_pole":
        r = pars["r"]
        if p == 1:
            return r
        if p == 2 or p == math.inf:
            return (r - 1.0) + math.sqrt((r - 1.0) ** 2 + 1.0)
        return None
    if f.kind == "f3_perturbed_runge":
        if p == 2 or p == math.inf:
            h = 1.0 / 5.0
            return h + math.sqrt(h * h + 1.0)
        return None
    if f.kind == "f4_shifted_runge_m":
        if m == 2 and pars["a"] == 5.0 / 4.0:
            if p == 2:
                return 2.0518
            if p == math.inf:
                return 2.1531
        return None
    return None


# -- Lebesgue constants ------------------------------------------------------


def chebyshev_lobatto_lebesgue_reference(n: int) -> float:
    """Asymptotic Lebesgue constant ``(2/pi)(log n + gamma + log(8/pi))`` of
    the ``n + 1`` Chebyshev-Lobatto points of degree ``n >= 1``.

    For odd ``n`` the Chebyshev-Lobatto constant equals that of ``n``
    first-kind Chebyshev points, whose asymptotic this is; for even ``n`` it
    is smaller (Ehlich & Zeller 1966; Brutman, J. Inequal. Appl. 1997).
    """
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")
    return (2.0 / math.pi) * (math.log(n) + np.euler_gamma + math.log(8.0 / math.pi))


def lebesgue_estimate(
    grid: UnisolventGrid,
    num_samples: int = 10_000,
    seed: int = 0,
    k: int = 0,
    *,
    size_cap: int = LEBESGUE_SIZE_CAP,
) -> float:
    """Sampled lower bound on the (k-th order) Lebesgue constant of ``grid``.

    Draws ``num_samples`` i.i.d. uniform points on the cube (for ``m = 1`` a
    dense equispaced grid is used instead) and returns the largest observed
    value of ``sum_{|b| <= k} sum_a |d^b L_a(x)|``; ``k = 0`` is the plain
    Lebesgue function max.  Needs all ``|A|`` Lagrange basis polynomials,
    hence O(|A|^2) memory, capped at ``size_cap``.

    Points go in chunks of ``_LEBESGUE_BUDGET // |A|``.  Per chunk and
    derivative order, the transposed Lagrange-Newton matrix times the
    points-last ``(|A|, k)`` Newton basis values gives every ``d^b L_a`` at
    every point.  That matrix is lower triangular, so the product runs in
    row blocks that skip its zero part.  Absolute values are taken in place
    and summed down the columns: a chunk holds two ``(|A|, k)`` blocks, 16
    MB each at the budget, besides the ``8 |A|^2``-byte matrix.
    """
    size = len(grid)
    if size > size_cap:
        raise ValueError(f"index set size {size} exceeds the Lebesgue cap {size_cap}")
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    if not 0 <= k <= LEBESGUE_MAX_ORDER:
        raise ValueError(f"derivative order k={k} outside 0..{LEBESGUE_MAX_ORDER}")

    # row alpha: Newton coefficients of L_alpha, zero before column alpha
    lagrange = lagrange_newton_matrix(grid).T
    m = grid.dim
    if m == 1:
        points = np.linspace(-1.0, 1.0, num_samples)[:, None]
    else:
        points = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(num_samples, m))
    orders = (
        [(0,) * m]
        if k == 0
        else [tuple(int(v) for v in row) for row in make_lp_set(m, k, 1).exponents]
    )

    best = 0.0
    step = max(1, _LEBESGUE_BUDGET // size)
    block = -(-size // _TRIANGLE_BLOCKS)
    for start in range(0, num_samples, step):
        chunk = points[start : start + step]
        totals = np.zeros(chunk.shape[0])
        values = np.empty((size, chunk.shape[0]))
        for order in orders:
            newton = newton_basis_values(grid, chunk, order).T
            for lo in range(0, size, block):
                hi = lo + block
                np.matmul(lagrange[lo:hi, lo:], newton[lo:], out=values[lo:hi])
            totals += np.abs(values, out=values).sum(axis=0)
        best = max(best, float(totals.max()))
    return best


# -- convergence experiments -------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRecord:
    """Max-error estimates of interpolants over a sweep of degrees."""

    degrees: tuple[int, ...]
    num_coeffs: tuple[int, ...]
    errors: tuple[float, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.degrees) != len(self.errors) or len(self.degrees) != len(
            self.num_coeffs
        ):
            raise ValueError("degrees, num_coeffs and errors must align")
        if any(b <= a for a, b in zip(self.degrees, self.degrees[1:])):
            raise ValueError("degrees must be strictly increasing")
        if any(e < 0 or not math.isfinite(e) for e in self.errors):
            raise ValueError("errors must be finite and non-negative")

    def to_csv_text(self) -> str:
        meta = "".join(f"# {key}: {self.meta[key]}\n" for key in sorted(self.meta))
        columns = [self.degrees, self.num_coeffs, self.errors]
        return meta + _table_text(["n", "num_coeffs", "error"], columns)

    @classmethod
    def from_csv(cls, path) -> "ConvergenceRecord":
        def row_dtype(header):
            if header != ["n", "num_coeffs", "error"]:
                raise ValueError(f"unexpected header in {path}: {header}")
            return [("n", np.int64), ("num_coeffs", np.int64), ("error", np.float64)]

        rows = _read_table(path, row_dtype)
        with open(path) as fh:
            lead = itertools.takewhile(lambda line: line.startswith("#"), fh)
            items = (line[1:].partition(":") for line in lead)
            meta = {key.strip(): value.strip() for key, _, value in items}
        columns = (tuple(rows[name].tolist()) for name in ("n", "num_coeffs", "error"))
        return cls(*columns, meta)


def _p_label(p) -> str:
    if p == math.inf:
        return "inf"
    if isinstance(p, float) and p.is_integer():
        return str(int(p))
    return str(p)


def convergence_run(
    f: BenchmarkFunction,
    p,
    node_family: str,
    degrees,
    num_samples: int = 10_000,
    seed: int = 0,
    deriv_order=None,
) -> ConvergenceRecord:
    """Interpolate ``f`` for each degree and record sampled max errors.

    For degree ``n`` the index set is the ``l_p`` ball of radius ``n``, the
    grid family is ``lcl`` or ``leja``, and the error is the max of
    ``|d^order f(x) - d^order Q(x)|`` over ``num_samples`` uniform points
    drawn from the sub-seed ``seed XOR n`` (fresh points per degree, but
    identical across node families and p for the same seed).
    """
    degrees = [int(n) for n in degrees]
    if any(b <= a for a, b in zip(degrees, degrees[1:])) or not degrees:
        raise ValueError("degrees must be a non-empty strictly increasing sequence")
    if min(degrees) < 0:
        raise ValueError("degrees must be non-negative")
    if node_family not in GRID_FAMILIES:
        raise ValueError(f"unknown node family {node_family!r}")
    m = f.dim
    order = (0,) * m if deriv_order is None else tuple(int(v) for v in deriv_order)
    if not f.supports_order(order):
        raise ValueError(f"{f.kind} does not support derivative order {order}")

    # Leja points are nested, so the axes of the top degree serve every
    # degree; LCL points are not, so their axes are built per degree.
    if node_family == "leja":
        leja_axes = axes_for(make_lp_set(m, degrees[-1], p), "leja")

    sizes, errors = [], []
    for n in degrees:
        index_set = make_lp_set(m, n, p)
        axes = leja_axes if node_family == "leja" else axes_for(index_set, "lcl")
        grid = build_grid(index_set, axes)
        poly = interpolate(f, grid)
        rng = np.random.default_rng(seed ^ n)
        points = rng.uniform(-1.0, 1.0, size=(num_samples, m))
        target = benchmark_eval(f, points, order)
        approx = eval_derivative(poly, order, points)
        sizes.append(len(index_set))
        errors.append(float(np.abs(target - approx).max()))

    meta = {
        "function": f.kind,
        "params": " ".join(f"{k}={v:g}" for k, v in sorted(f.params_dict.items())),
        "m": m,
        "p": _p_label(p),
        "family": node_family,
        "samples": num_samples,
        "seed": seed,
        "deriv_order": ",".join(str(v) for v in order),
    }
    return ConvergenceRecord(tuple(degrees), tuple(sizes), tuple(errors), meta)


# -- rate fitting -------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of ``error = c * rho**(-n)`` on a degree window."""

    c: float
    rho: float
    r_squared: float
    fit_range: tuple[int, int]

    def to_json_dict(self) -> dict:
        return {
            "c": self.c,
            "rho": self.rho,
            "r_squared": self.r_squared,
            "fit_range": list(self.fit_range),
        }


def fit_rate(record: ConvergenceRecord) -> RateFit:
    """Fit the geometric model to a convergence record.

    Filtering before the fit, in order: rows at machine-precision
    saturation (``error < SATURATION_FLOOR``) are dropped; leading rows whose
    error has not fallen below the first row's error are dropped (plateau
    guard, applied to the leading prefix only); the window is then advanced
    to the first position where the errors decrease strictly over three
    consecutive rows.  At least 4 rows must survive.
    """
    pairs = zip(record.degrees, record.errors)
    rows = [(n, e) for n, e in pairs if e >= SATURATION_FLOOR]
    if len(rows) >= 2:
        head = rows[0][1]
        keep = [rows[0]]
        i = 1
        while i < len(rows) and rows[i][1] >= head:
            i += 1
        keep.extend(rows[i:])
        rows = keep
    start = 0
    for t in range(len(rows) - 2):
        if rows[t][1] > rows[t + 1][1] > rows[t + 2][1]:
            start = t
            break
    rows = rows[start:]
    if len(rows) < 4:
        raise ValueError(f"only {len(rows)} usable rows after filtering; need >= 4")

    ns = np.array([r[0] for r in rows], dtype=np.float64)
    logs = np.log([r[1] for r in rows])
    slope, intercept = np.polyfit(ns, logs, 1)
    predicted = slope * ns + intercept
    ss_res = float(((logs - predicted) ** 2).sum())
    ss_tot = float(((logs - logs.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        c=float(np.exp(intercept)),
        rho=float(np.exp(-slope)),
        r_squared=r_squared,
        fit_range=(int(rows[0][0]), int(rows[-1][0])),
    )
