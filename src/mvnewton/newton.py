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
:func:`lagrange_newton_matrix`, the one sweep over ``|A|`` columns, runs
on blocks of identity columns whose tables fit a fixed budget, so for any
downward-closed set it holds the ``|A|**2`` matrix plus O(budget) scratch.

Evaluation at ``k`` points (see :func:`_fold`) contracts the first ``j``
axes in one ``(G_j x |P_j|) . (|P_j| x k)`` GEMM, where ``P_j`` is the
projection of the set onto those axes and ``G_j`` counts the groups of
indices sharing ``a_{j+1}..a_m``, then sums the GEMM rows against the
Newton basis of those tails by running its build in reverse.  Per point
that is ``G_j * |P_j|`` multiply-adds in the GEMM plus one per group in the
sums.  Each set takes the ``j`` whose fold holds the fewest scratch rows
per point: the basis block of ``|P_j|`` rows, which ``j = 1`` does not
build (its GEMM reads the axis table), plus the ``G_j`` rows of the GEMM
output, the larger ``j`` on a tie.  Points go in chunks whose basis block,
GEMM output and axis tables hold at most ``_CHUNK_BUDGET`` floats
together; the chunk counts ``|P_j|`` rows of basis block even at ``j = 1``.

Where each index lands in those tables, the walk of the evaluation fold
and the build order of the basis values are the index set's layout
(:attr:`MultiIndexSet.layout <mvnewton.multi_index.MultiIndexSet.layout>`):
the set's constructor builds it once, as its downward-closure check, and
every transform and evaluation reads it.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import UnisolventGrid, _read_table, _table_text, build_grid
from .multi_index import AxisLines, BasisPlan, MultiIndexSet, _integral

__all__ = [
    "NewtonPolynomial",
    "LagrangeCoefficients",
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

# Soft bound on the floats of the fold's scratch: points go in chunks whose
# basis block (|P_j| x chunk), GEMM output (G_j x chunk) and axis tables
# ((n_i + 1) x chunk each) together hold at most this many.  The two blocks
# are buffers made once per call: with fresh arrays per chunk, glibc's
# dynamic mmap threshold kept the freed blocks on the heap, and ``sweep``
# peaked at 71.7 MB against 60.0 MB (58.2 and 59.1 MB under
# ``MALLOC_MMAP_THRESHOLD_=131072``).  The perfbench ``sweep`` and ``cli``
# workloads (median of 3 runs each at seed 5) and the ``cli_convergence``
# op, m = 6, p = 1 (median of 41 runs interleaved in one process), 2-core
# x86, OpenBLAS with 2 threads:
#
#   budget     sweep peak   cli peak   sweep wall_s   cli_convergence
#   4,000,000     74.7 MB    77.1 MB        0.321 s           80.1 ms
#   2,000,000     59.9 MB    64.2 MB        0.305 s           76.1 ms
#   1,000,000     52.2 MB    56.5 MB        0.341 s           70.5 ms
#
# The ``sweep`` times do not separate the budgets.
_CHUNK_BUDGET = 2_000_000

# Soft bound on the floats of the Lebesgue path's scratch: the padded line
# table of one column block of :func:`lagrange_newton_matrix`, and the
# (|A| x points) Newton basis values of one point chunk of
# ``analysis.lebesgue_estimate``.  At 250k/500k/1M/2M floats the perfbench
# ``lagrange`` workload, whose Lebesgue matrices fit one column block, peaked
# at 52.6/55.2/68.5/89.4 MB, with no order in its median wall time over 3
# runs each (0.61-0.76 s), and ``cli``, whose peak lies elsewhere, at 73 MB
# (2-core x86 machine, OpenBLAS with 2 threads).
_LEBESGUE_BUDGET = 500_000


class NonFiniteSampleError(ValueError):
    """A sample value is NaN or infinite."""


def _read_only_vector(vector, grid: UnisolventGrid, name: str, non_finite: Exception):
    """A read-only float copy of ``vector``, one entry per grid node; a wrong
    length raises ``ValueError`` naming the ``name`` vector, and a NaN or
    infinite entry raises ``non_finite``."""
    arr = np.array(vector, dtype=np.float64, copy=True)
    if arr.shape != (len(grid),):
        raise ValueError(f"{name} vector must have length {len(grid)}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise non_finite
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class NewtonPolynomial:
    """A polynomial in the Newton basis of ``grid``: ``sum_a c_a * N_a``."""

    grid: UnisolventGrid
    coeffs: np.ndarray

    def __post_init__(self):
        error = ValueError("coefficients must be finite")
        coeffs = _read_only_vector(self.coeffs, self.grid, "coefficient", error)
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, x):
        return eval_iterative(self, x)


@dataclass(frozen=True, eq=False)
class LagrangeCoefficients:
    """Function values at the grid nodes, aligned to canonical order."""

    grid: UnisolventGrid
    values: np.ndarray

    def __post_init__(self):
        error = NonFiniteSampleError("sample values must be finite")
        values = _read_only_vector(self.values, self.grid, "value", error)
        object.__setattr__(self, "values", values)


def _axis_sweep(lines: AxisLines, points: np.ndarray, values, inverse):
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


def _transform(grid: UnisolventGrid, values: np.ndarray, inverse: bool, what: str) -> np.ndarray:
    """The forward (divided differences) or inverse transform of ``values``,
    in place; ``FloatingPointError`` naming ``what`` if any entry overflowed."""
    lines = grid.index_set.layout.lines
    axis_order = range(grid.dim) if inverse else range(grid.dim - 1, -1, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        for axis in axis_order:
            _axis_sweep(lines[axis], grid.axes[axis].points, values, inverse)
    if not np.isfinite(values).all():
        # on [-1, 1] a Newton coefficient of index alpha grows roughly like
        # 2**|alpha|_1, so past |alpha|_1 ~ 1000 generic data leaves the
        # double range no matter how the nodes are ordered
        raise FloatingPointError(
            f"{what} overflowed; the total degree |alpha|_1 of the index set is too "
            "high for floating-point divided differences"
        )
    return values


def divided_differences(samples: LagrangeCoefficients) -> NewtonPolynomial:
    """Newton coefficients of the unique interpolant of ``samples``.

    This is the multivariate divided-difference scheme; evaluating the
    result at every grid node reproduces the input values.
    """
    values = np.array(samples.values, dtype=np.float64, copy=True)
    _transform(samples.grid, values, False, "divided differences")
    return NewtonPolynomial(samples.grid, values)


def newton_to_lagrange(poly: NewtonPolynomial) -> LagrangeCoefficients:
    """Values of ``poly`` at the grid nodes; inverse of divided differences.
    ``FloatingPointError`` if a value overflows, as in :func:`divided_differences`."""
    values = np.array(poly.coeffs, dtype=np.float64, copy=True)
    _transform(poly.grid, values, True, "the values at the nodes")
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
            f"f returned {float(values[where])!r} at node {tuple(nodes[where].tolist())}"
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
    ``L_alpha``: batched divided-difference runs on blocks of identity
    columns.

    The identity is swept one block of columns at a time.  Each column is
    swept independently of the others, so the result does not depend on the
    blocking.  A block holds as many columns as keep the largest
    zero-padded line table within ``_LEBESGUE_BUDGET`` floats.  Storage is
    the ``8 |A|^2``-byte matrix plus O(budget) scratch: the block's line
    table, the sweep's work buffer and, when the block is not the whole
    matrix, a contiguous copy of it.  Callers enforcing desk-scale caps do
    so themselves.  ``FloatingPointError`` if an entry overflows, as in
    :func:`divided_differences`.
    """
    size = len(grid)
    cells = max(len(lines.reach) * lines.reach[0] for lines in grid.index_set.layout.lines)
    width = max(1, _LEBESGUE_BUDGET // cells)
    mat = np.eye(size)
    for lo in range(0, size, width):
        # a copy only when the block is narrower than the matrix: sweeping
        # the strided view in place took 1.65 s against 1.18 s at
        # (3, 18, 2) and 4.4 s against 2.0 s at (4, 8, inf) (2-core x86)
        block = np.ascontiguousarray(mat[:, lo : lo + width])
        mat[:, lo : lo + width] = _transform(grid, block, False, "the Lagrange-Newton matrix")
    return mat


# -- evaluation ------------------------------------------------------------


def _as_points(x, dim):
    """``(columns, single)`` for a point ``(m,)`` or a batch ``(k, m)``, with
    ``columns`` the C-contiguous ``(m, k)`` coordinates, one row per axis:
    points stored column-major (Fortran order) are read in place, as a view."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"points must have shape (m,) or (k, m) with m={dim}")
    return np.ascontiguousarray(arr.T), single


def _check_order(order, dim: int) -> tuple[int, ...]:
    """``order`` as a tuple of ``dim`` ints; ``ValueError`` unless every entry
    is a non-negative integer by the rule of ``_integral`` (none is truncated)."""
    whole = _integral(np.atleast_1d(order))
    if whole.shape != (dim,) or (whole < 0).any():
        raise ValueError(f"derivative order must be {dim} non-negative integers, got {order!r}")
    return tuple(whole.tolist())


def _axis_table(points: np.ndarray, top: int, x: np.ndarray, order: int) -> np.ndarray:
    """Row ``l`` holds the ``order``-th derivative of ``prod_{j<l} (x - p_j)``.

    Shape ``(top + 1, x.size)``: levels down, points along the contiguous
    axis.  Derivatives are built up one order at a time by the product
    rule: appending the factor ``(x - p_l)`` maps
    ``d_o <- d_o * (x - p_l) + o * d_{o-1}``.  An order above ``top``
    differentiates every prefix product to exactly zero.  Every row is
    written in place, with no temporary per level; a product's operands
    may swap, as IEEE multiplication commutes.
    """
    if order > top:
        return np.zeros((top + 1, x.size))
    table = np.empty((top + 1, x.size))
    table[0] = 1.0
    for level in range(1, top + 1):
        np.subtract(x, points[level - 1], out=table[level])
        table[level] *= table[level - 1]
    if order:
        scratch = np.empty(x.size)
    for o in range(1, order + 1):
        lower, table = table, np.empty_like(table)
        table[0] = 0.0
        for level in range(1, top + 1):
            np.subtract(x, points[level - 1], out=table[level])
            table[level] *= table[level - 1]
            table[level] += np.multiply(lower[level - 1], o, out=scratch)
    return table


def newton_basis_values(grid: UnisolventGrid, x, order=None) -> np.ndarray:
    """All Newton basis functions (or a partial derivative of them) at ``x``.

    Returns ``(k, |A|)`` for ``(k, m)`` input, aligned to canonical order;
    ``(|A|,)`` for a single point ``(m,)``.

    The result is the transpose of the C-contiguous ``(|A|, k)`` array of
    :func:`_basis_rows` over every axis.  Besides the output, memory is the
    axis tables of ``(n_i + 1) x k`` floats and one gathered block of rows.
    Every value is multiplied in axis order, as in the product formula
    ``prod_i N_i(x_i)``, so it is bitwise equal to that formula.
    """
    columns, single = _as_points(x, grid.dim)
    order = _check_order((0,) * grid.dim if order is None else order, grid.dim)
    plan, tops = grid.index_set.layout.basis, grid.index_set.tops
    out = _basis_rows(plan, tops, grid.axes, columns, order, grid.dim)
    return out[:, 0] if single else out.T


def _basis_rows(plan: BasisPlan, tops, axes, columns: np.ndarray, order, leading: int,
                out=None):
    """Points-last basis values of the projection of a set onto its first
    ``leading`` axes, with only the factors of those axes.

    The set has the :class:`~mvnewton.multi_index.BasisPlan` ``plan``, the
    top levels ``tops`` and the node tuples ``axes``.  The projection is its
    first ``stops[leading - 1]`` canonical rows, and the result is a
    C-contiguous ``(stops[leading - 1], k)`` array for the ``(m, k)`` point
    coordinates ``columns``, written into ``out`` if given.  It is built one
    axis at a time along the plan: axis 0 writes its table (see
    :func:`_axis_table`) into the leading rows, and each later axis fills
    its level-``l`` rows with already built rows times row ``l`` of its
    table.  With ``leading == 1`` the result is axis 0's table itself and
    ``out`` is not used.
    """
    table = _axis_table(axes[0].points, tops[0], columns[0], order[0])
    if leading == 1:
        return table
    if out is None:
        out = np.empty((plan.stops[leading - 1], columns.shape[1]))
    out[: tops[0] + 1] = table
    del table  # before the next axis's table is built
    for i, levels in enumerate(plan.levels[: leading - 1], 1):
        table = _axis_table(axes[i].points, tops[i], columns[i], order[i])
        for level, (rows, source) in enumerate(levels, 1):
            np.multiply(out[source], table[level], out=out[rows])
        if order[i]:
            # a differentiated axis has row 0 zero, not one: scale the
            # level-0 rows last, after every level has read them
            out[: plan.stops[i - 1]] *= table[0]
    return out


def _collapse_rows(plan: BasisPlan, tops, axes, columns: np.ndarray, order, acc) -> np.ndarray:
    """``(acc * basis).sum(0)``, where ``basis`` is :func:`_basis_rows` over
    every axis of ``plan``, without building ``basis``; ``acc`` is overwritten.
    The build runs in reverse: from the last axis down to axis 1, the level-0
    rows are scaled by row 0 of the axis table where the axis is differentiated,
    and each level-``l`` row, times row ``l``, is added into the row it was
    built from; the levels of axis 0 that are left are summed against its table."""
    for i in range(len(plan.stops) - 1, 0, -1):
        table = _axis_table(axes[i].points, tops[i], columns[i], order[i])
        head = acc[: plan.stops[i - 1]]
        if order[i]:
            head *= table[0]
        for level, (rows, source) in enumerate(plan.levels[i - 1], 1):
            # the sources of one level are distinct, so += drops no term
            head[source] += np.multiply(acc[rows], table[level], out=acc[rows])
    table = _axis_table(axes[0].points, tops[0], columns[0], order[0])
    out = acc[0] * table[0]
    for level in range(1, tops[0] + 1):
        out += acc[level] * table[level]
    return out


def _fold(poly: NewtonPolynomial, x, order: tuple[int, ...]):
    """Batched recursive splitting ``Q = Q1 + (x_i - p) Q2`` over all points.

    The index set's :class:`~mvnewton.multi_index.FoldPlan` splits the axes
    after its first ``j = split``.  The coefficients are scattered into a
    zero-padded ``(G_j, |P_j|)`` matrix, one row per group of indices
    sharing ``a_{j+1}..a_m`` and one column per index of the projection
    ``P_j`` of the set onto axes ``1..j``.  One GEMM with the basis values
    of ``P_j`` over those axes (see :func:`_basis_rows`) collapses every
    group at every point.  The GEMM rows, one per tail ``(a_{j+1}..a_m)``
    in canonical order, are then summed against the Newton basis of those
    tails over the later axes (see :func:`_collapse_rows`).  Points stay on
    the last, contiguous axis of the coordinate rows of :func:`_as_points`.
    With ``j = 1`` the GEMM rows are the grid lines of axis 1, its columns
    their levels, and its right operand the axis table itself.  ``j`` is
    the set's (see :class:`~mvnewton.multi_index.FoldPlan`): the fewest
    rows of basis block and GEMM output per point.

    Points go in chunks of ``_CHUNK_BUDGET`` floats over the rows one point
    needs: ``|P_j|`` in the basis block (counted at ``j = 1`` too),
    ``G_j`` in the GEMM output and ``n_i + 1`` in each axis table.  The
    basis block (when ``j > 1``) and the GEMM output are written into the
    C-contiguous prefixes of two flat buffers sized for the first chunk.
    """
    columns, single = _as_points(x, poly.grid.dim)
    index_set = poly.grid.index_set
    plan = index_set.layout.fold
    split = plan.split
    width = index_set.layout.basis.stops[split - 1]
    scattered = np.zeros(plan.groups * width)
    scattered[plan.cell] = poly.coeffs
    scattered = scattered.reshape(plan.groups, width)
    axes = poly.grid.axes
    tops = index_set.tops
    out = np.empty(columns.shape[1])
    step = max(1, _CHUNK_BUDGET // (width + plan.groups + sum(top + 1 for top in tops)))
    # made once: fresh arrays per chunk leave freed chunk-sized blocks on the
    # C heap beside the next chunk's (see _CHUNK_BUDGET)
    first = min(step, out.size)
    basis_buffer = np.empty(width * first) if split > 1 else None
    gemm_buffer = np.empty(plan.groups * first)
    for start in range(0, out.size, step):
        chunk = columns[:, start : start + step]
        size = chunk.shape[1]
        basis = None if basis_buffer is None else basis_buffer[: width * size].reshape(width, size)
        basis = _basis_rows(index_set.layout.basis, tops, axes, chunk, order, split, basis)
        acc = gemm_buffer[: plan.groups * size].reshape(plan.groups, size)
        np.matmul(scattered, basis, out=acc)
        if plan.tail is not None:  # sums in place in the GEMM output
            args = (tops[split:], axes[split:], chunk[split:], order[split:])
            acc = _collapse_rows(plan.tail, *args, acc)
        out[start : start + step] = acc[0] if plan.tail is None else acc
    return float(out[0]) if single else out


def eval_iterative(poly: NewtonPolynomial, x):
    """Evaluate at a single point ``(m,)`` or a batch ``(k, m)``.

    The batched form of the recursive splitting of :func:`eval_recursive`
    (see :func:`_fold`): per point, one ``G_j x |P_j|`` GEMM over the first
    ``j`` axes, where ``G_j`` counts the groups of indices sharing
    ``a_{j+1}..a_m`` and ``P_j`` is the projection of the set onto axes
    ``1..j``, plus its rows summed against the Newton basis of their tails.
    ``j`` and both basis plans are read from the index set's layout.
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
    all trailing exponents are collapsed one dimension at a time, every level
    below a block's top being present because the set is downward closed.
    O(|A|) arithmetic operations.
    """
    columns, single = _as_points(x, poly.grid.dim)
    if not single:
        raise ValueError("eval_recursive evaluates a single point")
    point = columns[:, 0]
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

# what save_bundle writes; the CLI replaces a directory holding nothing else
_BUNDLE_FILES = ("header.json", "grid.csv", "coefficients.csv")


def save_bundle(poly: NewtonPolynomial, directory) -> None:
    """Write ``header.json``: ``{m, num_coeffs, axes}``, with
    every point of every axis as a JSON number (the shortest repr that
    round-trips); ``coefficients.csv``: ``a1..am, c`` in canonical order;
    and ``grid.csv``, the node table, for reference only."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    grid = poly.grid
    header = {
        "m": grid.dim,
        "num_coeffs": len(grid),
        "axes": [axis.points.tolist() for axis in grid.axes],
    }
    names, columns = grid._table()
    texts = (json.dumps(header, indent=2) + "\n", _table_text(names, columns),
             _table_text([*names[: grid.dim], "c"], [*columns[: grid.dim], poly.coeffs]))
    for name, text in zip(_BUNDLE_FILES, texts):
        with open(directory / name, "w", newline="") as fh:
            fh.write(text)


def load_bundle(directory) -> NewtonPolynomial:
    """Read a :func:`save_bundle` directory from ``header.json`` and
    ``coefficients.csv``; ``grid.csv`` is not read.  ``ValueError`` for a
    v1 bundle (no ``axes``), counts that are not JSON integers or disagree
    with the axes and the table, rows out of canonical order, and axes that
    are malformed or too short.  An older header's ``provenance`` and
    ``node_family`` are ignored, whatever they hold."""
    directory = Path(directory)
    path, _, table = (directory / name for name in _BUNDLE_FILES)
    with open(path) as fh:
        header = json.load(fh)
    if not isinstance(header, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    if "axes" not in header:
        raise ValueError(f"{path} is a v1 bundle header, without axes, which is no "
                         "longer read; re-run `mvnewton interpolate` to write it again")
    m, count, axes = header.get("m"), header.get("num_coeffs"), header["axes"]
    if type(m) is not int or type(count) is not int:  # so neither true nor 2.0
        raise ValueError(f"{path}: m={m!r} and num_coeffs={count!r} must be JSON integers")
    if not isinstance(axes, list) or not all(
        isinstance(axis, list) and all(type(v) in (int, float) for v in axis) for axis in axes
    ):
        raise ValueError(f"{path}: axes must be a list of lists of JSON numbers")
    rows = _read_table(table)[2]
    if (m, count) != (len(axes), len(rows)) or m != rows.shape[1] - 1:
        raise ValueError(
            f"header says m={m}, num_coeffs={count}; it lists {len(axes)} axes, and "
            f"{table} has {rows.shape[1] - 1} exponent columns and {len(rows)} rows"
        )
    exponents = _integral(rows[:, :m])
    index_set = MultiIndexSet(exponents)
    if not np.array_equal(index_set.exponents, exponents):
        raise ValueError(f"{table} does not list its indices in canonical order")
    return NewtonPolynomial(build_grid(index_set, axes), rows[:, m])
