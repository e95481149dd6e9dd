"""Multivariate Newton interpolation: divided differences, evaluation,
differentiation, and Lagrange <-> Newton transforms.

The divided-difference transform turns the sample vector into the
coefficient vector.  Dimensions are eliminated from the last coordinate down
to the first; within one dimension every grid line (indices differing only
in that coordinate) receives a standard triangular 1D divided-difference
sweep.  The lines of one dimension are gathered once into a level-major
table, every pass updates all of them with one slice operation, and the
table is scattered back at the end, so the result is independent of any
line scheduling by construction.  The inverse transform runs the same
passes in reverse, each one a cumulative sum along the lines.  Total work
is bounded by ``C * |A|**2`` arithmetic operations.  Auxiliary storage is
up to two zero-padded tables of (longest line) x (number of lines) entries
per column: under ``m * |A|`` for the ``l_p`` sets with ``p >= 1``, and
larger for ``p < 1``, whose long thin arms leave most of a table as padding.

Where each index lands in those tables, the walk of the evaluation fold
and the build order of the basis values are the index set's layout
(:meth:`MultiIndexSet.layout <mvnewton.multi_index.MultiIndexSet.layout>`):
it is built once per index set, by the downward-closure check of grid
construction or by the first transform or evaluation, and every later
call reads it.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import NODE_FAMILIES, UnisolventGrid, _read_table, _table_text
from .multi_index import AxisLines

__all__ = [
    "NewtonPolynomial",
    "LagrangeCoefficients",
    "DegenerateNodesError",
    "NonFiniteSampleError",
    "divided_differences",
    "interpolate",
    "eval_iterative",
    "eval_recursive",
    "eval_derivative",
    "newton_to_lagrange",
    "lagrange_basis_in_newton",
    "lagrange_newton_matrix",
    "newton_basis_values",
    "save_bundle",
    "load_bundle",
]

_log = logging.getLogger(__name__)

# Divided differences divide by axis-point differences; anything below this
# is treated as a degenerate (effectively duplicated) node pair.
MIN_NODE_SEPARATION = 1e-14

# Soft bound on the floats held by the largest evaluation intermediate: the
# fold evaluates points in chunks so that (runs x chunk), and each axis table
# of (n_i + 1) x chunk, stay below it.  Without it the perfbench ``cli``
# workload peaked at 255 MB instead of 120 MB, and ``sweep`` at 130 MB
# instead of 80 MB (2-core x86 machine, OpenBLAS with 2 threads).
_CHUNK_BUDGET = 4_000_000


class DegenerateNodesError(RuntimeError):
    """Axis points too close for a stable divided-difference divisor."""


class NonFiniteSampleError(ValueError):
    """A sample value is NaN or infinite."""


@dataclass(frozen=True)
class NewtonPolynomial:
    """A polynomial in the Newton basis of ``grid``: ``sum_a c_a * N_a``."""

    grid: UnisolventGrid
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.float64, copy=True)
        if arr.shape != (len(self.grid),):
            raise ValueError(
                f"coefficient vector must have length {len(self.grid)}, got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __call__(self, x):
        return eval_iterative(self, x)


@dataclass(frozen=True)
class LagrangeCoefficients:
    """Function values at the grid nodes, aligned to canonical order."""

    grid: UnisolventGrid
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.shape != (len(self.grid),):
            raise ValueError(
                f"value vector must have length {len(self.grid)}, got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise NonFiniteSampleError("sample values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def _axis_sweep(lines: AxisLines, axis: int, points: np.ndarray, values, inverse):
    """Triangular divided-difference sweep along one coordinate, in place.

    ``values`` may be ``(|A|,)`` or ``(|A|, k)``; the same passes apply to
    every column.  The forward sweep at pass ``j`` maps, for every index at
    level ``a_i = l >= j``,

        v[alpha] <- (v[alpha] - v[alpha - e_i]) / (p[l] - p[l - j]),

    reading the right-hand side before any write: the classical in-place
    triangle of every grid line at once.  The inverse sweep undoes the
    passes in reverse; undoing pass ``j`` on a line is the cumulative sum of
    ``v[j - 1], g[j] v[j], g[j + 1] v[j + 1], ...`` with
    ``g[l] = p[l] - p[l - j]``.

    The lines are gathered once into the zero-padded level-major table of
    ``lines`` (see :class:`~mvnewton.multi_index.AxisLines`), so each pass
    is one slice update over the lines that reach level ``j``.  Padding
    cells may collect garbage but never feed a real cell.
    """
    top = len(lines.reach) - 1
    if top == 0:
        return
    if not inverse:
        # The divisors used across all passes are exactly the pairwise
        # differences of the first top+1 axis points, so one sorted-gap
        # scan covers the degenerate-node guard for the whole sweep.
        if np.diff(np.sort(points[: top + 1])).min() < MIN_NODE_SEPARATION:
            raise DegenerateNodesError(
                f"axis {axis + 1} has node separation below {MIN_NODE_SEPARATION}"
            )
    flat = values.reshape(values.shape[0], -1)
    table = np.zeros(((top + 1) * lines.reach[0], flat.shape[1]))
    table[lines.cell] = flat
    rows = table.reshape(top + 1, -1)
    # reach[j]: the leading row entries, those of the lines reaching level j
    reach = [w * flat.shape[1] for w in lines.reach]
    # Passes write only into preallocated, 64-byte aligned buffers, so the
    # per-element cost does not depend on where the allocator puts them.
    pts = points[: top + 1, None]
    gaps = _aligned_empty((top, 1))
    if inverse:
        for j in range(top, 0, -1):
            r, w = top + 1 - j, reach[j]
            rows[j:, :w] *= np.subtract(pts[j:], pts[:r], out=gaps[:r])
            np.cumsum(rows[j - 1 :, :w], axis=0, out=rows[j - 1 :, :w])
    else:
        work = _aligned_empty(rows[1:].shape)
        for j in range(1, top + 1):
            r, w = top + 1 - j, reach[j]
            g = np.subtract(pts[j:], pts[:r], out=gaps[:r])
            diff = np.subtract(rows[j:, :w], rows[j - 1 : -1, :w], out=work[:r, :w])
            np.divide(diff, g, out=rows[j:, :w])
    # ``cell`` is in range by construction; a mode other than "raise" lets
    # take write straight into ``flat`` instead of through a buffer.
    np.take(table, lines.cell, axis=0, out=flat, mode="clip")


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised float array whose data starts on a 64-byte boundary.

    Large blocks from the C allocator start 16 bytes past one, and the 1D
    n = 19,999 sweep took 290 ms with its work and gap buffers there against
    209 ms aligned (2-core SkylakeX, numpy 2.4).
    """
    size = int(np.prod(shape))
    raw = np.empty(size + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start : start + size].reshape(shape)


def _transform(grid: UnisolventGrid, values: np.ndarray, inverse: bool = False):
    lines = grid.index_set.layout().lines
    axis_order = range(grid.dim) if inverse else range(grid.dim - 1, -1, -1)
    for axis in axis_order:
        _axis_sweep(lines[axis], axis, grid.axes[axis].points, values, inverse)
    return values


def divided_differences(samples: LagrangeCoefficients) -> NewtonPolynomial:
    """Newton coefficients of the unique interpolant of ``samples``.

    This is the multivariate divided-difference scheme; evaluating the
    result at every grid node reproduces the input values.
    """
    values = np.array(samples.values, dtype=np.float64, copy=True)
    with np.errstate(over="ignore", invalid="ignore"):
        _transform(samples.grid, values, inverse=False)
    if not np.isfinite(values).all():
        # roundoff in a divided-difference triangle is amplified roughly
        # like 2**depth on [-1, 1]; past depth ~1000 generic data leaves
        # the double range no matter how the nodes are ordered
        raise FloatingPointError(
            "divided differences overflowed; the per-axis degree is too "
            "high for floating-point interpolation of this data"
        )
    return NewtonPolynomial(samples.grid, values)


def newton_to_lagrange(poly: NewtonPolynomial) -> LagrangeCoefficients:
    """Values of ``poly`` at the grid nodes; inverse of divided differences."""
    values = np.array(poly.coeffs, dtype=np.float64, copy=True)
    _transform(poly.grid, values, inverse=True)
    return LagrangeCoefficients(poly.grid, values)


def interpolate(f, grid: UnisolventGrid) -> NewtonPolynomial:
    """Sample ``f`` at the ``|A|`` grid nodes and run divided differences.

    ``f`` is tried first as a vectorized callable on the full ``(|A|, m)``
    node array.  If that raises ``TypeError``, ``ValueError`` or
    ``IndexError`` (what a scalar-only callable raises on an array), or
    returns the wrong shape, ``f`` is called once per node with a
    length-``m`` coordinate array, and the fallback is logged at debug
    level.  Any other exception propagates.
    """
    nodes = grid.node_coordinates
    values = None
    # A (|A|, m) result could also be a row-wise broadcast when |A| == m,
    # so the vectorized path is skipped in that ambiguous square case.
    reason = "the node array is square"
    if len(grid) != grid.dim:
        try:
            candidate = np.asarray(f(nodes), dtype=np.float64)
        except (TypeError, ValueError, IndexError) as exc:
            reason = f"f raised {type(exc).__name__} on the node array"
        else:
            reason = f"f returned shape {candidate.shape} on the node array"
            if candidate.shape == (len(grid),):
                values = candidate
    if values is None:
        _log.debug("sampling f node by node (%d calls): %s", len(grid), reason)
        values = np.fromiter(
            (float(f(nodes[i])) for i in range(len(grid))),
            dtype=np.float64,
            count=len(grid),
        )
    bad = ~np.isfinite(values)
    if bad.any():
        where = int(np.flatnonzero(bad)[0])
        raise NonFiniteSampleError(
            f"f returned {values[where]!r} at node {tuple(nodes[where])}"
        )
    return divided_differences(LagrangeCoefficients(grid, values))


def lagrange_basis_in_newton(grid: UnisolventGrid, alpha) -> NewtonPolynomial:
    """Newton coefficients of the Lagrange polynomial ``L_alpha``.

    ``L_alpha`` is 1 at the node of ``alpha`` and 0 at every other node,
    i.e. the divided differences of a Kronecker-delta sample vector.
    """
    try:
        pos = grid.index_set.position(alpha)
    except KeyError:
        raise ValueError(f"{tuple(alpha)} is not a member of the index set") from None
    delta = np.zeros(len(grid))
    delta[pos] = 1.0
    return divided_differences(LagrangeCoefficients(grid, delta))


def lagrange_newton_matrix(grid: UnisolventGrid) -> np.ndarray:
    """Matrix whose column at position(alpha) holds Newton coefficients of
    ``L_alpha``; one batched divided-difference run on the identity.

    Storage is O(|A|^2); callers enforcing desk-scale caps do so themselves.
    """
    mat = np.eye(len(grid))
    _transform(grid, mat, inverse=False)
    return mat


# -- evaluation ------------------------------------------------------------


def _as_points(x, dim):
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"points must have shape (m,) or (k, m) with m={dim}")
    return arr, single


def _check_order(order, dim: int) -> tuple[int, ...]:
    order = tuple(int(v) for v in np.atleast_1d(order))
    if len(order) != dim or any(v < 0 for v in order):
        raise ValueError("derivative order must be a multi-index of the grid dimension")
    return order


def _axis_table(points: np.ndarray, top: int, x: np.ndarray, order: int) -> np.ndarray:
    """Row ``l`` holds the ``order``-th derivative of ``prod_{j<l} (x - p_j)``.

    Shape ``(top + 1, x.size)``: levels down, points along the contiguous
    axis.  Derivatives are built up one order at a time by the product
    rule: appending the factor ``(x - p_l)`` maps
    ``d_o <- d_o * (x - p_l) + o * d_{o-1}``.  An order above ``top``
    differentiates every prefix product to exactly zero.
    """
    if order > top:
        return np.zeros((top + 1, x.size))
    table = np.empty((top + 1, x.size))
    table[0] = 1.0
    for level in range(1, top + 1):
        np.multiply(table[level - 1], x - points[level - 1], out=table[level])
    for o in range(1, order + 1):
        lower, table = table, np.empty_like(table)
        table[0] = 0.0
        for level in range(1, top + 1):
            table[level] = table[level - 1] * (x - points[level - 1]) + o * lower[level - 1]
    return table


def newton_basis_values(grid: UnisolventGrid, x, order=None) -> np.ndarray:
    """All Newton basis functions (or a partial derivative of them) at ``x``.

    Returns ``(k, |A|)`` for ``(k, m)`` input, aligned to canonical order;
    ``(|A|,)`` for a single point ``(m,)``.

    The result is the transpose of a C-contiguous ``(|A|, k)`` array, built
    one axis at a time along the index set's cached
    :class:`~mvnewton.multi_index.BasisPlan`: axis 0 writes its table (see
    :func:`_axis_table`) into the leading rows, and each later axis fills
    its level-``l`` rows with already built rows times row ``l`` of its
    table.  Besides the output, memory is the axis tables of
    ``(n_i + 1) x k`` floats and one gathered block of rows.  Every value
    is multiplied in axis order, as in the product formula
    ``prod_i N_i(x_i)``, so it is bitwise equal to that formula.
    """
    pts, single = _as_points(x, grid.dim)
    order = _check_order((0,) * grid.dim if order is None else order, grid.dim)
    layout = grid.index_set.layout()
    tops = [len(lines.reach) - 1 for lines in layout.lines]
    columns = np.ascontiguousarray(pts.T)
    out = np.empty((len(grid), pts.shape[0]))
    out[: tops[0] + 1] = _axis_table(grid.axes[0].points, tops[0], columns[0], order[0])
    plan = layout.basis
    for i, levels in enumerate(plan.levels, 1):
        table = _axis_table(grid.axes[i].points, tops[i], columns[i], order[i])
        for level, (rows, source) in enumerate(levels, 1):
            np.multiply(out[source], table[level], out=out[rows])
        if order[i]:
            # a differentiated axis has row 0 zero, not one: scale the
            # level-0 rows last, after every level has read them
            out[: plan.stops[i - 1]] *= table[0]
    return out[:, 0] if single else out.T


def _fold(poly: NewtonPolynomial, x, order: tuple[int, ...]):
    """Batched recursive splitting ``Q = Q1 + (x_i - p) Q2`` over all points.

    The coefficients are scattered into a zero-padded ``(runs, n_1 + 1)``
    matrix, one row per axis-1 run and one column per level, and one GEMM
    with the axis-1 table collapses every run at every point.  Each later
    axis ``i`` then collapses the groups sharing the coordinates after
    ``i``: level by level, the members at level ``l`` are scaled by row
    ``l`` of the axis-``i`` table and added to their group's sum.  Points
    stay on the last, contiguous axis.  The walk follows the index set's
    cached :class:`~mvnewton.multi_index.FoldPlan`: the runs are listed
    level-major in ``a_2``, so the largest sums, those of axis 2, read
    contiguous slices of the GEMM output.
    """
    pts, single = _as_points(x, poly.grid.dim)
    layout = poly.grid.index_set.layout()
    plan = layout.fold
    axes = poly.grid.axes
    tops = [len(lines.reach) - 1 for lines in layout.lines]
    # lay the coefficients out in the axis-0 line table, then list its
    # columns (the runs) as the plan does
    padded = np.zeros((tops[0] + 1) * plan.runs.size)
    padded[layout.lines[0].cell] = poly.coeffs
    scattered = padded.reshape(tops[0] + 1, -1).T[plan.runs]
    columns = np.ascontiguousarray(pts.T)
    out = np.empty(pts.shape[0])
    step = max(1, _CHUNK_BUDGET // max(plan.runs.size, max(tops) + 1))
    for start in range(0, pts.shape[0], step):
        chunk = columns[:, start : start + step]
        acc = scattered @ _axis_table(axes[0].points, tops[0], chunk[0], order[0])
        for i, members in enumerate(plan.steps, 1):
            table = _axis_table(axes[i].points, tops[i], chunk[i], order[i])
            total = acc[members[0]] * table[0]
            product = np.empty_like(total)
            for level in range(1, len(members)):
                part = acc[members[level]]
                size = part.shape[0]
                total[:size] += np.multiply(part, table[level], out=product[:size])
            acc = total
        out[start : start + step] = acc[0]
    return float(out[0]) if single else out


def eval_iterative(poly: NewtonPolynomial, x):
    """Evaluate at a single point ``(m,)`` or a batch ``(k, m)``.

    The batched form of the recursive splitting of :func:`eval_recursive`
    (see :func:`_fold`): one ``(runs x (n_1 + 1)) . ((n_1 + 1) x k)`` GEMM
    plus ``O(k * runs)`` segmented work for the later axes, where ``runs``
    counts the blocks of indices sharing ``a_2..a_m``.  The walk is read
    from the index set's layout, built once per index set.
    """
    return _fold(poly, x, (0,) * poly.grid.dim)


def eval_derivative(poly: NewtonPolynomial, order, x):
    """Evaluate the partial derivative of multi-index ``order`` at ``x``.

    The same fold as :func:`eval_iterative`, at the same cost, with the
    table of each differentiated axis holding derivatives of the prefix
    products (see :func:`_axis_table`).  An order above the top degree of
    its axis gives exactly zero.
    """
    return _fold(poly, x, _check_order(order, poly.grid.dim))


def eval_recursive(poly: NewtonPolynomial, x) -> float:
    """Evaluate one point by the recursive splitting ``Q = Q1 + (x_i - p) Q2``.

    A nested Horner walk over the canonical layout: contiguous runs sharing
    all trailing exponents are collapsed one dimension at a time.  O(|A|)
    arithmetic operations.
    """
    pts, single = _as_points(x, poly.grid.dim)
    if not single:
        raise ValueError("eval_recursive evaluates a single point")
    # the walk takes every level below a block's top as present; the layout
    # raises for a set where that fails
    poly.grid.index_set.layout()
    point = pts[0]
    exps = poly.grid.index_set.exponents
    coeffs = poly.coeffs
    axes = poly.grid.axes

    def walk(axis: int, lo: int, hi: int) -> float:
        if axis < 0:
            return float(coeffs[lo])
        column = exps[lo:hi, axis]
        top = int(column[-1])
        bounds = lo + np.searchsorted(column, np.arange(top + 2))
        nodes = axes[axis].points
        acc = walk(axis - 1, int(bounds[top]), int(bounds[top + 1]))
        for level in range(top - 1, -1, -1):
            inner = walk(axis - 1, int(bounds[level]), int(bounds[level + 1]))
            acc = inner + (point[axis] - nodes[level]) * acc
        return acc

    return walk(poly.grid.dim - 1, 0, len(poly.grid))


# -- polynomial bundles ------------------------------------------------------


def save_bundle(poly: NewtonPolynomial, directory) -> None:
    """Write ``header.json``, ``grid.csv`` and ``coefficients.csv``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    grid = poly.grid
    header = {
        "m": grid.dim,
        "num_coeffs": len(grid),
        "node_family": grid.node_family,
        "provenance": _provenance_json(grid.index_set.provenance),
    }
    with open(directory / "header.json", "w") as fh:
        json.dump(header, fh, indent=2)
        fh.write("\n")
    grid.to_csv(directory / "grid.csv")
    names = [f"a{i + 1}" for i in range(grid.dim)] + ["c"]
    with open(directory / "coefficients.csv", "w", newline="") as fh:
        fh.write(_table_text(names, [*grid.index_set.exponents.T, poly.coeffs]))


def load_bundle(directory) -> NewtonPolynomial:
    directory = Path(directory)
    with open(directory / "header.json") as fh:
        header = json.load(fh)
    if not isinstance(header, dict):
        raise ValueError(f"{directory / 'header.json'} does not hold a JSON object")
    family = header.get("node_family", "custom")
    if family not in NODE_FAMILIES:
        family = "custom"
    grid = UnisolventGrid.from_csv(directory / "grid.csv", family=family)
    if header.get("m") != grid.dim or header.get("num_coeffs") != len(grid):
        raise ValueError(
            f"header says m={header.get('m')}, num_coeffs={header.get('num_coeffs')}; "
            f"grid file has m={grid.dim}, {len(grid)} nodes"
        )
    row_dtype = [("a", np.int64, (grid.dim,)), ("c", np.float64)]
    rows = _read_table(directory / "coefficients.csv", lambda names: row_dtype)
    if len(rows) != len(grid):
        raise ValueError(
            f"coefficient file has {len(rows)} rows, grid has {len(grid)} nodes"
        )
    pos = grid.index_set.positions(rows["a"])
    if np.unique(pos).size != len(grid):
        raise ValueError("coefficient file does not cover every index exactly once")
    ordered = np.empty(len(grid))
    ordered[pos] = rows["c"]
    return NewtonPolynomial(grid, ordered)


def _provenance_json(tag):
    if tag is None:
        return None
    m, n, p = tag
    return {"m": int(m), "n": int(n), "p": "inf" if p == float("inf") else p}
