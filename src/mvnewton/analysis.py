"""Benchmark functions, Lebesgue-constant estimation, convergence runs,
and geometric-rate fitting.

The error model throughout is ``error(n) ~ c * rho**(-n)`` in the degree
``n``; :func:`fit_rate` recovers ``(c, rho)`` by least squares on the log
errors and :func:`optimal_rho` supplies published reference rates where a
closed form or constant is available.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    UnisolventGrid,
    _check_grid_family,
    _read_table,
    _table_text,
    axes_for,
    build_grid,
    leja_points,
)
from . import newton as _newton
from .multi_index import _checked_int, _integral, _lp_table, make_lp_set
from .newton import (
    _as_points,
    _check_order,
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
]

# Every parameter of each built-in function, with its default.
_DEFAULTS = {
    "runge": {"r": 1.0, "s": 1.0},
    "f1_shifted_pole": {"r": 5.0 / 4.0},
    "f3_perturbed_runge": {},
    "f4_shifted_runge_m": {"a": 5.0 / 4.0},
    "f5_trig": {"k1": 1.0, "k2": 1.0},
}

BENCHMARK_IDS = tuple(_DEFAULTS)

_ALIASES = {
    "f1": "f1_shifted_pole",
    "f2": "runge",
    "f3": "f3_perturbed_runge",
    "f4": "f4_shifted_runge_m",
    "f5": "f5_trig",
}

# Errors below this are machine-precision saturation and excluded from fits.
SATURATION_FLOOR = 1e-13

DEFAULT_SAMPLES = 10_000  # points per Lebesgue estimate or convergence degree
LEBESGUE_SIZE_CAP = 5000
LEBESGUE_MAX_ORDER = 2

# Row blocks of the triangular Lagrange-Newton product; a block needs the
# basis rows from its own first row on, so 3 blocks do 2/3 of the work of
# one product.  A whole estimate over 10,000 points at |A| = 216/325/473/625
# in 500,000-float chunks took 25/49/101/167 ms with 1 block, 18/37/67/122
# with 2, 15/34/63/117 with 3 and 14/33/60/112 with 4; a second pass read
# 18/40/81/121 with 3 and 19/39/79/120 with 4 (min of 7 each, 2-core x86,
# OpenBLAS 2 threads).
_TRIANGLE_BLOCKS = 3


@dataclass(frozen=True)
class BenchmarkFunction:
    """One of the built-in test functions on ``[-1, 1]^m``.

    Four are one Runge-type pole ``1 / (s**2 + r**2 * |y|**2)`` with ``y``
    the point ``x`` shifted or projected (defaults in brackets):
      * ``runge``: ``y = x`` [``r = s = 1``]
      * ``f1_shifted_pole`` (2D): ``1 / ((x1 - r)**2 + x2**2)``, ``r > 1``
        [``r = 5/4``]
      * ``f3_perturbed_runge``: ``1 / (1 + (sum_i r_i x_i)**2)``, ``r_i = 5/i**3``
      * ``f4_shifted_runge_m``: ``1 / sum_i (x_i - a)**2``, ``a > 1`` [``a = 5/4``]

    The fifth is entire:
      * ``f5_trig``: ``cos(pi*k1*sum(x)) + sin(pi*k2*sum(x))`` [``k1 = k2 = 1``]

    ``kind`` may be a short alias, f1..f5, which is stored as the long name.
    ``params`` are ``(name, value)`` pairs; the constructor fills in the
    defaults and stores every parameter as a float, sorted by name, and
    rejects a NaN or infinite one.
    Closed-form partial derivatives up to total order 2 are available for
    ``runge``, ``f1_shifted_pole`` and ``f5_trig``.
    """

    kind: str
    dim: int
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "kind", _ALIASES.get(self.kind, self.kind))
        if self.kind not in _DEFAULTS:
            raise ValueError(f"unknown benchmark function {self.kind!r}")
        object.__setattr__(self, "dim", _checked_int(self.dim, "dimension", 1))
        p = dict(_DEFAULTS[self.kind])
        unknown = {name for name, _ in self.params} - set(p)
        if unknown:
            raise ValueError(f"{self.kind} does not take parameters {sorted(unknown)}")
        p.update((name, float(value)) for name, value in self.params)
        object.__setattr__(self, "params", tuple(sorted(p.items())))
        for name, value in self.params:
            if not math.isfinite(value):
                raise ValueError(f"{self.kind} parameter {name}={value} must be finite")
        if self.kind == "runge":
            if p["r"] == 0 or p["s"] == 0:
                raise ValueError("runge requires r != 0 and s != 0")
        elif self.kind == "f1_shifted_pole":
            if self.dim != 2:
                raise ValueError("f1_shifted_pole is bivariate")
            if p["r"] <= 1:
                raise ValueError("f1_shifted_pole requires r > 1")
        elif self.kind == "f4_shifted_runge_m":
            if p["a"] <= 1:
                raise ValueError("f4_shifted_runge_m requires a > 1")
        elif self.kind == "f5_trig":
            if p["k1"] < 0 or p["k2"] < 0:
                raise ValueError("f5_trig requires non-negative k1, k2")

    @property
    def params_dict(self) -> dict[str, float]:
        return dict(self.params)

    def __call__(self, x):
        return benchmark_eval(self, x)

    def supports_order(self, order) -> bool:
        try:
            order = _check_order(order, self.dim)
        except ValueError:
            return False
        total = sum(order)
        return total == 0 or total <= 2 and self.kind in ("runge", "f1_shifted_pole", "f5_trig")

    def _derivative_order(self, order) -> tuple[int, ...]:
        """``order`` as a checked tuple, ``None`` meaning the function itself;
        ``ValueError`` unless :meth:`supports_order` holds."""
        order = _check_order((0,) * self.dim if order is None else order, self.dim)
        if not self.supports_order(order):
            raise ValueError(f"{self.kind} does not support derivative order {order}")
        return order


def make_benchmark(kind: str, dim: int, **params) -> BenchmarkFunction:
    """Build a benchmark function; short aliases f1..f5 are accepted."""
    return BenchmarkFunction(kind, dim, tuple(params.items()))


def benchmark_eval(f: BenchmarkFunction, x, order=None):
    """Closed-form value of ``d^order f`` at ``x`` (scalar or batch).

    ``order`` is a multi-index with total order at most 2; orders above 0
    are rejected for functions without analytic derivatives.  The values
    are computed on the coordinate rows of ``x`` (see
    :func:`~mvnewton.newton._as_points`), so they are bitwise the same for
    row-major and column-major points.
    """
    columns, single = _as_points(x, f.dim)
    out = _benchmark_dispatch(f, columns, f._derivative_order(order))
    return float(out[0]) if single else out


def _benchmark_dispatch(f: BenchmarkFunction, x: np.ndarray, order) -> np.ndarray:
    """``d^order f`` at the ``(m, k)`` coordinate rows ``x``."""
    p = f.params_dict
    active = [i for i, v in enumerate(order) if v > 0]

    if f.kind == "f5_trig":
        k1, k2 = p["k1"], p["k2"]
        t = x.sum(axis=0)
        if not active:
            return np.cos(np.pi * k1 * t) + np.sin(np.pi * k2 * t)
        if sum(order) == 1:
            return -np.pi * k1 * np.sin(np.pi * k1 * t) + np.pi * k2 * np.cos(np.pi * k2 * t)
        return -((np.pi * k1) ** 2) * np.cos(np.pi * k1 * t) - (np.pi * k2) ** 2 * np.sin(
            np.pi * k2 * t
        )

    # The rest are 1 / (s**2 + r**2 |y|**2).  Where derivatives are offered,
    # y is x shifted, so d/dy is d/dx.
    if f.kind == "runge":
        r, s, y = p["r"], p["s"], x
    elif f.kind == "f1_shifted_pole":
        r, s, y = 1.0, 0.0, x - [[p["r"]], [0.0]]
    elif f.kind == "f4_shifted_runge_m":
        r, s, y = 1.0, 0.0, x - p["a"]
    else:  # f3_perturbed_runge
        w = 5.0 / np.arange(1, f.dim + 1) ** 3
        r, s, y = 1.0, 1.0, (w @ x)[None, :]
    den = s * s + r * r * (y**2).sum(axis=0)
    if not active:
        return 1.0 / den
    j, k = active[0], active[-1]
    if sum(order) == 1:
        return -2.0 * r * r * y[j] / den**2
    if j == k:  # d^2/dy_j^2
        return -2.0 * r * r / den**2 + 8.0 * r**4 * y[j] ** 2 / den**3
    return 8.0 * r**4 * y[j] * y[k] / den**3


def optimal_rho(f: BenchmarkFunction, p) -> float | None:
    """Published reference rate for ``(f, p)`` in ``f``'s dimension ``m``, or
    ``None`` when unknown.

    * ``runge``, ``f1_shifted_pole`` and ``f3_perturbed_runge``: for
      Euclidean and maximum degree (these coincide), ``h + sqrt(h^2 + 1)``
      in any dimension, with ``h = s/r``, ``r - 1`` and ``1/5`` (the runge
      ``r = 5`` rate).  For total degree, ``(h + sqrt(h^2 + m)) / sqrt(m)``
      for runge, ``r`` for f1 and unknown for f3.
    * ``f4_shifted_runge_m``: the published 2D constants for ``a = 5/4``.
    * ``f5_trig``: entire, asymptotic rate unbounded; always ``None``.
    """
    m = f.dim
    pars = f.params_dict
    if f.kind == "runge":
        h = pars["s"] / pars["r"]
        total = (h + math.sqrt(h * h + m)) / math.sqrt(m)
    elif f.kind == "f1_shifted_pole":
        h, total = pars["r"] - 1.0, pars["r"]
    elif f.kind == "f3_perturbed_runge":
        h, total = 1.0 / 5.0, None
    elif f.kind == "f4_shifted_runge_m" and m == 2 and pars["a"] == 5.0 / 4.0:
        return 2.0518 if p == 2 else 2.1531 if p == math.inf else None
    else:
        return None
    if p == 1:
        return total
    if p == 2 or p == math.inf:
        return h + math.sqrt(h * h + 1.0)
    return None


# -- Lebesgue constants ------------------------------------------------------


def chebyshev_lobatto_lebesgue_reference(n: int) -> float:
    """Asymptotic Lebesgue constant ``(2/pi)(log n + gamma + log(8/pi))`` of
    the ``n + 1`` Chebyshev-Lobatto points of degree ``n >= 1``.

    For odd ``n`` the Chebyshev-Lobatto constant equals that of ``n``
    first-kind Chebyshev points, whose asymptotic this is; for even ``n`` it
    is smaller (Ehlich & Zeller 1966; Brutman, J. Inequal. Appl. 1997).
    """
    n = _checked_int(n, "degree", 1)
    return (2.0 / math.pi) * (math.log(n) + np.euler_gamma + math.log(8.0 / math.pi))


def lebesgue_estimate(
    grid: UnisolventGrid,
    num_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    k: int = 0,
    *,
    size_cap: int = LEBESGUE_SIZE_CAP,
) -> float:
    """Sampled lower bound on the (k-th order) Lebesgue constant of ``grid``.

    Draws ``num_samples`` i.i.d. uniform points on the cube (for ``m = 1`` a
    dense equispaced grid is used instead) and returns the largest observed
    value of ``sum_{|b| <= k} sum_a |d^b L_a(x)|``; ``k = 0`` is the plain
    Lebesgue function max.  ``num_samples``, ``seed``, ``k`` and
    ``size_cap`` must be integers (not booleans).  Needs all ``|A|``
    Lagrange basis polynomials, hence the ``8 |A|^2``-byte Lagrange-Newton
    matrix, capped at ``size_cap``.

    Points go in chunks of ``_LEBESGUE_BUDGET // |A|`` (see
    :mod:`mvnewton.newton`), a lone last point doubled, so every sum runs in
    the same order whatever the chunk width.  Per chunk and derivative
    order, the transposed Lagrange-Newton matrix times the points-last
    ``(|A|, chunk)`` Newton basis values, the one array of that size, gives
    every ``d^b L_a`` at every point.  The matrix is lower triangular, so
    the product runs in ``_TRIANGLE_BLOCKS`` row blocks that skip its zero
    part.  Each block goes into rows ``1..h`` of a ``(block + 1, chunk)``
    work array, takes its absolute value in place and is summed down the
    columns into row 0, which carries the running sums.  Besides the
    matrix, scratch is the budget, a third of it for the work array, and the
    ``(n_i + 1, chunk)`` axis tables.  ``FloatingPointError`` if the matrix
    or a sum overflows, so an estimate is never a silent 0 or NaN.
    """
    num_samples = _checked_int(num_samples, "num_samples", 1)
    seed, k = _checked_int(seed, "seed", 0), _checked_int(k, "k", 0)
    size_cap = _checked_int(size_cap, "size_cap", 1)
    size = len(grid)
    if size > size_cap:
        raise ValueError(f"index set size {size} exceeds the Lebesgue cap {size_cap}")
    if k > LEBESGUE_MAX_ORDER:
        raise ValueError(f"derivative order k={k} outside 0..{LEBESGUE_MAX_ORDER}")

    # row alpha: Newton coefficients of L_alpha, zero before column alpha
    lagrange = lagrange_newton_matrix(grid).T
    m = grid.dim
    if m == 1:
        points = np.linspace(-1.0, 1.0, num_samples)[:, None]
    else:
        points = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(num_samples, m))
    orders = _lp_table(m, k, 1)

    best = 0.0
    step = max(1, _newton._LEBESGUE_BUDGET // size)
    block = -(-size // _TRIANGLE_BLOCKS)
    for start in range(0, num_samples, step):
        chunk = points[start : start + step]
        if chunk.shape[0] == 1:
            # numpy sums a single column pairwise, not row by row, so a
            # lone point goes in twice
            chunk = np.repeat(chunk, 2, axis=0)
        totals = np.zeros(chunk.shape[0])
        work = np.empty((block + 1, chunk.shape[0]))
        for order in orders:
            newton = newton_basis_values(grid, chunk, order).T
            # per order, row 0 adds the |A| rows in turn from zero, as one
            # sum down all of them would
            work[0] = 0.0
            for lo in range(0, size, block):
                rows = work[1 : min(block, size - lo) + 1]
                np.matmul(lagrange[lo : lo + block, lo:], newton[lo:], out=rows)
                np.abs(rows, out=rows)
                work[: rows.shape[0] + 1].sum(axis=0, out=work[0])
            totals += work[0]
            del newton  # before the next order's array is built
        peak = float(totals.max())  # NaN if any sum is
        if not math.isfinite(peak):
            raise FloatingPointError("the Lebesgue sums overflowed")
        best = max(best, peak)
    return best


# -- convergence experiments -------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRecord:
    """Max-error estimates of interpolants over a sweep of degrees.  Degrees
    and sizes may be given as floats; each must be a non-negative integer,
    and is stored as an ``int``."""

    degrees: tuple[int, ...]
    num_coeffs: tuple[int, ...]
    errors: tuple[float, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.degrees) != len(self.errors) or len(self.degrees) != len(
            self.num_coeffs
        ):
            raise ValueError("degrees, num_coeffs and errors must align")
        counts = _integral(np.array([self.degrees, self.num_coeffs]))
        if (counts < 0).any():
            raise ValueError("n and num_coeffs must be non-negative integers")
        object.__setattr__(self, "degrees", tuple(counts[0].tolist()))
        object.__setattr__(self, "num_coeffs", tuple(counts[1].tolist()))
        if any(b <= a for a, b in zip(self.degrees, self.degrees[1:])):
            raise ValueError("degrees must be strictly increasing")
        if any(e < 0 or not math.isfinite(e) for e in self.errors):
            raise ValueError("errors must be finite and non-negative")

    def to_csv_text(self) -> str:
        meta = "".join(f"# {key}: {self.meta[key]}\r\n" for key in sorted(self.meta))
        columns = [self.degrees, self.num_coeffs, self.errors]
        return meta + _table_text(["n", "num_coeffs", "error"], columns)

    @classmethod
    def from_csv(cls, path) -> "ConvergenceRecord":
        """:meth:`to_csv_text`'s table, its header optional, and its ``# key: value`` lines."""
        comments, header, rows = _read_table(path)
        if header not in (None, ["n", "num_coeffs", "error"]) or rows.size and rows.shape[1] != 3:
            raise ValueError(f"{path} is not a table of n,num_coeffs,error (header {header})")
        meta = {k.strip(): v.strip() for k, _, v in (c.partition(":") for c in comments)}
        try:
            return cls(*map(tuple, rows.reshape(-1, 3).T.tolist()), meta)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _p_label(p) -> str:
    if p == math.inf:
        return "inf"
    if isinstance(p, float) and p.is_integer():
        return str(int(p))
    return str(p)


def convergence_run(
    f: BenchmarkFunction,
    p,
    family: str,
    degrees,
    num_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    deriv_order=None,
) -> ConvergenceRecord:
    """Interpolate ``f`` for each degree and record sampled max errors.

    For degree ``n`` the index set is the ``l_p`` ball of radius ``n``, the
    grid family is ``lcl`` or ``leja``, and the error is the max of
    ``|d^order f(x) - d^order Q(x)|`` over ``num_samples`` uniform points
    drawn from the sub-seed ``seed XOR n`` (fresh points per degree, but
    identical across grid families and p for the same seed).  ``num_samples``,
    ``seed`` and every degree must be integers (not booleans).
    """
    num_samples = _checked_int(num_samples, "num_samples", 1)
    seed = _checked_int(seed, "seed", 0)
    degrees = [_checked_int(n, "degree", 0) for n in degrees]
    if any(b <= a for a, b in zip(degrees, degrees[1:])) or not degrees:
        raise ValueError("degrees must be a non-empty strictly increasing sequence")
    _check_grid_family(family)
    m = f.dim
    order = f._derivative_order(deriv_order)

    # Leja points are nested, so the axes of the top degree serve every
    # degree (an l_p ball of radius n reaches n on every axis); LCL points
    # are not, so their axes are built per degree.
    if family == "leja":
        leja_axes = (leja_points(degrees[-1]),) * m

    sizes, errors = [], []
    for n in degrees:
        index_set = make_lp_set(m, n, p)
        axes = leja_axes if family == "leja" else axes_for(index_set, "lcl")
        grid = build_grid(index_set, axes)
        poly = interpolate(f, grid)
        rng = np.random.default_rng(seed ^ n)
        # column-major, so both evaluators read its coordinate rows in place
        points = np.asfortranarray(rng.uniform(-1.0, 1.0, size=(num_samples, m)))
        target = benchmark_eval(f, points, order)
        approx = eval_derivative(poly, order, points)
        sizes.append(len(index_set))
        errors.append(float(np.abs(target - approx).max()))

    meta = {
        "function": f.kind,
        "params": " ".join(f"{k}={v:g}" for k, v in f.params),
        "m": m,
        "p": _p_label(p),
        "family": family,
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
