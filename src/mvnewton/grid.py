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

import numpy as np

from .multi_index import MultiIndexSet

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


@dataclass(frozen=True)
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
    if n < 0:
        raise ValueError("degree must be non-negative")
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


def leja_points(n: int, resolution: int | None = None) -> Nodes1D:
    """The first ``n + 1`` Leja points of ``[-1, 1]``, starting at ``1``.

    Each point maximizes ``prod_j |p - p_j|`` over the interval.  The search
    is deterministic: an exhaustive scan over a Chebyshev-distributed
    candidate grid of size ``resolution`` (by default
    ``DEFAULT_LEJA_RESOLUTION``, or ``10 * (n + 1)`` if that is larger)
    followed by golden-section refinement of the winning candidate's
    bracketing interval (abscissa tolerance ``1e-13``).  The sequence is
    nested, so a prefix of the result is itself a valid Leja set.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    if resolution is None:
        resolution = max(DEFAULT_LEJA_RESOLUTION, 10 * (n + 1))
    if resolution < 10 * (n + 1):
        raise ValueError(f"resolution must be at least 10*(n+1) = {10 * (n + 1)}")
    chosen = [1.0]
    if n == 0:
        return Nodes1D(np.array(chosen), family="leja")

    grid = np.cos(np.pi * np.arange(resolution) / (resolution - 1))  # 1 down to -1
    with np.errstate(divide="ignore"):
        logprod = np.log(np.abs(grid - 1.0))

    def objective(p: float) -> float:
        with np.errstate(divide="ignore"):
            return float(np.log(np.abs(p - np.asarray(chosen))).sum())

    # The distance product often has exactly tied maxima (e.g. +-1/sqrt(3)
    # after {1, -1, 0}), so every near-tied local peak is refined and the
    # documented tie rule (prefer the larger point) decides among refined
    # values, keeping the result stable under resolution changes.  The
    # preselect band must cover discretization offsets between mirrored
    # regions; the decision band only the float noise of the log objective.
    preselect_tol = 1e-4
    decide_tol = 1e-12
    for _ in range(n):
        top = logprod.max()
        tied = np.flatnonzero(logprod >= top - preselect_tol)
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
        chosen.append(best)
        with np.errstate(divide="ignore"):
            logprod += np.log(np.abs(grid - best))
    return Nodes1D(np.array(chosen), family="leja")


@dataclass(frozen=True)
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

    def _table(self) -> tuple[list[str], list[np.ndarray]]:
        """The header ``a1..am, x1..xm`` and the columns (index then
        coordinates) of the grid table, rows in canonical order."""
        dim = self.dim
        header = [f"a{i + 1}" for i in range(dim)] + [f"x{i + 1}" for i in range(dim)]
        return header, [*self.index_set.exponents.T, *self.node_coordinates.T]

    def to_csv(self, path) -> None:
        """The grid table as CSV: columns ``a1..am, x1..xm``, canonical order."""
        with open(path, "w", newline="") as fh:
            fh.write(_table_text(*self._table()))

    @classmethod
    def from_csv(cls, path, family: str = "custom") -> "UnisolventGrid":
        """Rebuild a grid from :meth:`to_csv` output.

        Axis points beyond the largest exponent used per dimension are not
        recoverable from the file; the reconstructed axes are exactly as
        long as the index set requires.  Rows that give one axis level two
        different coordinates, or indices that are not downward closed, are
        rejected.
        """

        def row_dtype(header):
            if len(header) % 2 != 0:
                raise ValueError(f"malformed grid file {path}")
            dim = len(header) // 2
            return [("a", np.int64, (dim,)), ("x", np.float64, (dim,))]

        rows = _read_table(path, row_dtype)
        exps, coords = rows["a"], rows["x"]
        index_set = MultiIndexSet(exps)
        axes = []
        for i in range(index_set.dim):
            # a downward-closed set holds every level up to its axis top
            pts = np.empty(index_set.tops[i] + 1)
            pts[exps[:, i]] = coords[:, i]
            clash = np.flatnonzero(pts[exps[:, i]] != coords[:, i])
            if clash.size:
                raise ValueError(
                    f"grid file {path} rows disagree about the point of axis "
                    f"{i + 1} at level {exps[clash[0], i]}"
                )
            axes.append(Nodes1D(pts, family=family))
        return build_grid(index_set, axes)


def _table_text(header, columns) -> str:
    """A CSV table: the ``header`` row, then one row per entry of the
    equal-length ``columns``, integer columns as ``%d``, float columns as
    ``%.17g`` (17 significant digits round-trip every double) and others as
    ``%s``, each line ending in ``\\r\\n`` as ``csv.writer`` ends it."""
    cols = [np.asarray(c) for c in columns]
    formats = {"i": "%d", "u": "%d", "f": "%.17g"}  # by dtype kind
    row = ",".join(formats.get(c.dtype.kind, "%s") for c in cols)
    cells = np.empty((len(cols[0]) if cols else 0, len(cols)), dtype=object)
    for j, col in enumerate(cols):
        cells[:, j] = col.tolist()
    body = ((row + "\r\n") * len(cells)) % tuple(cells.ravel().tolist())
    return ",".join(header) + "\r\n" + body


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
