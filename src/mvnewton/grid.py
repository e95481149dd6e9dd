"""One-dimensional node families and non-tensorial unisolvent grids.

A grid pairs a downward-closed multi-index set ``A`` with one ordered node
tuple per dimension; the node attached to ``alpha`` is
``(p[alpha_1, 1], ..., p[alpha_m, m])``.  The *order* of each axis is
semantic: position ``j`` holds the node used by every index with
``alpha_i = j``, which is why Leja ordering matters in more than one
dimension.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .multi_index import MultiIndexSet, _checked_int

__all__ = [
    "Nodes1D",
    "UnisolventGrid",
    "chebyshev_lobatto",
    "leja_order",
    "leja_points",
    "build_grid",
    "axes_for",
]

NODE_FAMILIES = ("chebyshev_lobatto", "leja_ordered_chebyshev_lobatto", "leja", "custom")

# What ``axes_for`` builds: Leja-ordered Chebyshev-Lobatto or Leja points.
GRID_FAMILIES = ("lcl", "leja")

DEFAULT_LEJA_RESOLUTION = 100_000

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class Nodes1D:
    """An ordered tuple of pairwise-distinct points in ``[-1, 1]``."""

    points: np.ndarray
    family: str = "custom"

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, copy=True)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("nodes must be a non-empty 1-d sequence")
        if not np.isfinite(pts).all() or np.abs(pts).max() > 1.0:
            raise ValueError("nodes must lie within [-1, 1]")
        if len(np.unique(pts)) != pts.size:
            raise ValueError("nodes must be pairwise distinct")
        if self.family not in NODE_FAMILIES:
            raise ValueError(f"unknown node family {self.family!r}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size


def chebyshev_lobatto(n: int) -> Nodes1D:
    """The ``n + 1`` points ``cos(k*pi/n)``, ``k = 0..n``, in natural order.

    For even ``n`` the midpoint is snapped to exactly ``0.0``, the only value
    forced by symmetry that plain ``cos`` evaluation misses.
    """
    n = _checked_int(n, "degree n", 0)
    if n == 0:
        return Nodes1D(np.array([1.0]), family="chebyshev_lobatto")
    pts = np.cos(np.pi * np.arange(n + 1) / n)
    if n % 2 == 0:
        pts[n // 2] = 0.0
    return Nodes1D(pts, family="chebyshev_lobatto")


def _leja_greedy_order(points: np.ndarray) -> np.ndarray:
    """Greedy Leja permutation of ``points``; ties go to the larger value."""
    pts = np.asarray(points, dtype=np.float64)
    count = pts.size
    chosen = np.empty(count, dtype=np.int64)
    remaining = np.ones(count, dtype=bool)

    absvals = np.abs(pts)
    ties = absvals == absvals.max()
    first = int(np.flatnonzero(ties)[np.argmax(pts[ties])])
    chosen[0] = first
    remaining[first] = False

    # Running sum of log-distances to everything chosen so far; logs keep
    # long products from overflowing and leave ties between symmetric
    # candidates exact (identical summands in identical order).
    logdist = np.full(count, -np.inf)
    with np.errstate(divide="ignore"):
        logdist[remaining] = np.log(np.abs(pts[remaining] - pts[first]))
    for step in range(1, count):
        best = logdist[remaining].max()
        ties = remaining & (logdist == best)
        pick = int(np.flatnonzero(ties)[np.argmax(pts[ties])])
        chosen[step] = pick
        remaining[pick] = False
        logdist[pick] = -np.inf
        if step < count - 1:
            with np.errstate(divide="ignore"):
                logdist[remaining] += np.log(np.abs(pts[remaining] - pts[pick]))
    return chosen


def leja_order(nodes) -> Nodes1D:
    """Reorder ``nodes`` greedily: ``|p_0|`` maximal, then each ``p_l``
    maximizing ``prod_{j<l} |p_l - p_j|`` over the remaining candidates.

    The output is a permutation of the input; applying it twice is a no-op.
    """
    if isinstance(nodes, Nodes1D):
        pts, family = nodes.points, nodes.family
    else:
        pts, family = np.asarray(nodes, dtype=np.float64), "custom"
    order = _leja_greedy_order(pts)
    out_family = (
        "leja_ordered_chebyshev_lobatto" if family == "chebyshev_lobatto" else family
    )
    return Nodes1D(pts[order], family=out_family)


def _golden_section_max(fun, lo: float, hi: float, tol: float = 1e-13) -> float:
    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def leja_points(n: int) -> Nodes1D:
    """The first ``n + 1`` Leja points of ``[-1, 1]``, starting at ``1``.

    Each point maximizes ``prod_j |p - p_j|`` over the interval.  The search
    is deterministic: an exhaustive scan over a Chebyshev-distributed
    candidate grid of ``DEFAULT_LEJA_RESOLUTION`` points, or
    ``10 * (n + 1)`` if that is larger, followed by golden-section
    refinement of the winning candidate's bracketing interval.  The log
    product it compares is flat to float precision within about ``1e-8`` of
    its maximum, so a point is accurate to about ``1e-8`` (for ``n <= 60``,
    within ``3.8e-9`` of the true maximizer given the points before it), not
    to the ``1e-13`` width of the final bracket.  The sequence is nested,
    so a prefix of the result is itself a valid Leja set.
    """
    n = _checked_int(n, "degree n", 0)
    resolution = max(DEFAULT_LEJA_RESOLUTION, 10 * (n + 1))
    chosen = np.ones(n + 1)  # entry 0 is the first point, 1
    if n == 0:
        return Nodes1D(chosen, family="leja")

    grid = np.cos(np.pi * np.arange(resolution) / (resolution - 1))  # 1 down to -1
    # the scan and the objective write into these buffers, not temporaries
    scan = np.empty(resolution)
    near_top = np.empty(resolution, dtype=bool)
    gaps = np.empty(n + 1)

    def objective(p: float) -> float:  # over the ``step`` points chosen so far
        gap = np.subtract(p, chosen[:step], out=gaps[:step])
        return float(np.log(np.abs(gap, out=gap), out=gap).sum())

    # The distance product often has exactly tied maxima (e.g. +-1/sqrt(3)
    # after {1, -1, 0}), so every near-tied local peak is refined and the
    # documented tie rule (prefer the larger point) decides among refined
    # values, keeping the result stable under resolution changes.  The
    # preselect band must cover discretization offsets between mirrored
    # regions; the decision band only the float noise of the log objective.
    preselect_tol = 1e-4
    decide_tol = 1e-12
    with np.errstate(divide="ignore"):
        logprod = np.log(np.abs(grid - 1.0))
        for step in range(1, n + 1):
            top = logprod.max()
            tied = np.flatnonzero(np.greater_equal(logprod, top - preselect_tol, out=near_top))
            peaks = [
                int(k)
                for k in tied
                if (k == 0 or logprod[k] >= logprod[k - 1])
                and (k == resolution - 1 or logprod[k] >= logprod[k + 1])
            ]
            candidates = []
            for k in peaks:
                lo = grid[min(k + 1, resolution - 1)]
                hi = grid[max(k - 1, 0)]
                refined = _golden_section_max(objective, lo, hi)
                for q in (grid[k], refined, lo, hi):
                    candidates.append((objective(q), float(q)))
            best_val = max(v for v, _ in candidates)
            tie = [(v, q) for v, q in candidates if v >= best_val - decide_tol]
            # Largest tied abscissa wins, but within its cluster the best
            # objective value is kept, so a refinement point a few ulps inside
            # an interval end cannot shadow the exact endpoint.
            q_max = max(q for _, q in tie)
            best = max(
                (v, q) for v, q in tie if abs(q - q_max) <= 1e-9 * (1.0 + abs(q_max))
            )[1]
            # The distance product is flat to float precision around a maximum,
            # so a winner this close to zero is the symmetric step whose true
            # maximizer is exactly 0 (same snap rationale as the Lobatto
            # midpoint); leaving the offset in would flip later tie-breaks.
            if abs(best) < 1e-7:
                best = 0.0
            chosen[step] = best
            gap = np.subtract(grid, best, out=scan)
            logprod += np.log(np.abs(gap, out=gap), out=gap)
    return Nodes1D(chosen, family="leja")


@dataclass(frozen=True, eq=False)
class UnisolventGrid:
    """A downward-closed index set plus one ordered node tuple per axis."""

    index_set: MultiIndexSet
    axes: tuple[Nodes1D, ...]

    @property
    def dim(self) -> int:
        return self.index_set.dim

    @property
    def node_family(self) -> str:
        families = {ax.family for ax in self.axes}
        return families.pop() if len(families) == 1 else "custom"

    @cached_property
    def node_coordinates(self) -> np.ndarray:
        """All grid nodes as a ``(|A|, m)`` array, rows in canonical order."""
        exps = self.index_set.exponents
        coords = np.column_stack(
            [self.axes[i].points[exps[:, i]] for i in range(self.dim)]
        )
        coords.setflags(write=False)
        return coords

    def __len__(self) -> int:
        return len(self.index_set)

    def _table(self) -> tuple[list[str], list[_Gathered]]:
        """The header ``a1..am, x1..xm`` and the columns (index then
        coordinates) of the grid table, rows in canonical order: each
        axis's levels and points, gathered by its exponents."""
        header = [f"{name}{i + 1}" for name in "ax" for i in range(self.dim)]
        exps, tops = self.index_set.exponents.T, self.index_set.tops
        levels = [_Gathered(np.arange(top + 1), at) for top, at in zip(tops, exps)]
        points = [_Gathered(ax.points[: top + 1], at) for ax, top, at in zip(self.axes, tops, exps)]
        return header, [*levels, *points]


class _Gathered(NamedTuple):
    """The table column ``values[index]``, each of ``values`` formatted once."""

    values: np.ndarray
    index: np.ndarray


def _table_text(header, columns) -> str:
    """A CSV table: the ``header`` row, then one row per entry of the
    equal-length ``columns`` (array-likes or :class:`_Gathered`), integer
    columns as ``%d``, float columns as ``%.17g`` (17 significant digits
    round-trip every double) and others as ``%s`` (no line breaks), each
    line ending in ``\\r\\n`` as ``csv.writer`` ends it."""
    formats = {"i": "%d", "u": "%d", "f": "%.17g"}  # by dtype kind
    texts = []
    for column in columns:
        gathered = isinstance(column, _Gathered)
        values = np.asarray(column.values if gathered else column)
        fmt = formats.get(values.dtype.kind, "%s") + "\n"
        text = (fmt * len(values) % tuple(values.tolist())).split("\n")[:-1]
        if gathered:  # each value formatted once, its text gathered
            text = np.array(text, dtype=object)[column.index].tolist()
        texts.append(text)
    return "\r\n".join([",".join(header), *map(",".join, zip(*texts)), ""])


def _read_table(path, row_dtype) -> np.ndarray:
    """The rows of a table file as a structured array parsed by
    ``np.loadtxt``.  ``#`` lines are comments, the first other line names
    the columns, and ``row_dtype(names)`` gives the dtype of one row (it may
    raise ``ValueError`` for names it does not accept)."""
    with open(path) as fh:
        lines = (line for line in fh if line.strip() and not line.startswith("#"))
        names = next(lines, "").strip().split(",")
        return _loadtxt(fh, delimiter=",", dtype=row_dtype(names))


def _loadtxt(source, ndmin: int = 1, **options) -> np.ndarray:
    """``np.loadtxt`` that reads no rows as an empty table, without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(source, ndmin=ndmin, **options)


def build_grid(index_set: MultiIndexSet, axes) -> UnisolventGrid:
    """Assemble the node set ``{(p[a_1,1], ..., p[a_m,m]) : alpha in A}``.

    Requires, per dimension ``i``, at least ``index_set.tops[i] + 1``
    pairwise-distinct axis points.  Distinct axis points make all ``|A|``
    grid nodes distinct, and since every index set is downward closed, the
    resulting grid is unisolvent for the polynomial space spanned by ``A``.
    """
    axes = tuple(
        ax if isinstance(ax, Nodes1D) else Nodes1D(np.asarray(ax, dtype=np.float64))
        for ax in axes
    )
    if len(axes) != index_set.dim:
        raise ValueError(
            f"need {index_set.dim} axes for dimension {index_set.dim}, got {len(axes)}"
        )
    for i, ax in enumerate(axes):
        needed = index_set.tops[i] + 1
        if len(ax) < needed:
            raise ValueError(
                f"axis {i + 1} has {len(ax)} points but the index set needs {needed}"
            )
    return UnisolventGrid(index_set=index_set, axes=axes)


def axes_for(index_set: MultiIndexSet, family: str) -> tuple[Nodes1D, ...]:
    """Per-dimension axes of the requested family, sized for ``index_set``.

    ``family`` is ``"lcl"`` (Leja-ordered Chebyshev-Lobatto) or ``"leja"``
    (Leja points of the interval).  Axes of equal length are built once and
    shared.
    """
    if family not in GRID_FAMILIES:
        raise ValueError(f"unknown grid family {family!r} (expected 'lcl' or 'leja')")
    made = {}
    for n_i in index_set.tops:
        if n_i in made:
            continue
        if family == "lcl":
            made[n_i] = leja_order(chebyshev_lobatto(n_i))
        else:
            made[n_i] = leja_points(n_i)
    return tuple(made[n_i] for n_i in index_set.tops)
