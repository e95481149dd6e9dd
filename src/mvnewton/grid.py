"""One-dimensional nodes and non-tensorial unisolvent grids.

A grid pairs a downward-closed multi-index set ``A`` with one ordered node
tuple per dimension; the node attached to ``alpha`` is
``(p[alpha_1, 1], ..., p[alpha_m, m])``.  The *order* of each axis is
semantic: position ``j`` holds the node used by every index with
``alpha_i = j``, which is why Leja ordering matters in more than one
dimension.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
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

# What ``axes_for`` builds: Leja-ordered Chebyshev-Lobatto or Leja points.
GRID_FAMILIES = ("lcl", "leja")

# Divided differences divide by differences of axis points; two points
# closer than this are a degenerate (effectively repeated) pair.
MIN_NODE_SEPARATION = 1e-14


@dataclass(frozen=True, eq=False)
class Nodes1D:
    """Ordered points in ``[-1, 1]``, pairwise at least ``MIN_NODE_SEPARATION``
    apart, so no divided-difference divisor along the axis is smaller."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, copy=True)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("nodes must be a non-empty 1-d sequence")
        if not np.isfinite(pts).all() or np.abs(pts).max() > 1.0:
            raise ValueError("nodes must lie within [-1, 1]")
        if (np.diff(np.sort(pts)) < MIN_NODE_SEPARATION).any():
            raise ValueError(f"nodes must be pairwise at least {MIN_NODE_SEPARATION:g} apart")
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
        return Nodes1D(np.array([1.0]))
    pts = np.cos(np.pi * np.arange(n + 1) / n)
    if n % 2 == 0:
        pts[n // 2] = 0.0
    return Nodes1D(pts)


def leja_order(nodes) -> Nodes1D:
    """Reorder ``nodes`` greedily: ``|p_0|`` maximal, then each ``p_l``
    maximizing ``prod_{j<l} |p_l - p_j|`` over the remaining candidates.

    The products are compared as sums of ``log|p - p_j|``, each added in the
    order the ``p_j`` were chosen, so symmetric candidates tie exactly; a tie
    goes to the larger value.  A chosen point's sum holds ``log 0 = -inf``
    from then on, so one score array covers every step.  The output is a
    permutation of the input; applying it twice is a no-op.  Raw input is
    checked as :class:`Nodes1D` checks it.
    """
    pts = (nodes if isinstance(nodes, Nodes1D) else Nodes1D(nodes)).points
    order = np.empty(pts.size, dtype=np.int64)
    score, logsum = np.abs(pts), np.zeros(pts.size)
    with np.errstate(divide="ignore"):
        for step in range(pts.size):
            ties = np.flatnonzero(score == score.max())
            order[step] = pick = ties[np.argmax(pts[ties])]
            logsum += np.log(np.abs(pts - pts[pick]))
            score = logsum
    return Nodes1D(pts[order])


def leja_points(n: int) -> Nodes1D:
    """The first ``n + 1`` Leja points of ``[-1, 1]``, starting at ``1``.

    Each point maximizes ``prod_j |p - p_j|`` over the interval given the
    points before it, the larger point winning a tie of the log products,
    which are compared exactly.  After ``1`` and ``-1`` the log product is
    strictly concave in each gap between neighbouring chosen points, so the
    gap's maximizer is the root of ``g(x) = sum_j 1/(x - p_j)`` (F. Leja,
    Ann. Polon. Math. 4 (1957) 8-13; L. Reichel, BIT 30 (1990) 332-346),
    found by safeguarded Newton to roundoff.  No candidate grid enters, so
    the sequence does not depend on ``n``: ``leja_points(n)`` is bitwise a
    prefix of every longer one.
    """
    n = _checked_int(n, "degree n", 0)
    points = np.ones(n + 1)
    points[1:2] = -1.0  # -1 maximizes |x - 1|
    # The gaps between neighbouring chosen points, ascending: gap i is
    # (edges[i], edges[i + 1]) and holds at[i], where the log product is
    # low[i].  up[i] bounds the gap's maximum from above, equal to low[i]
    # once at[i] is the gap's root; a gap whose bound falls short of the
    # best low is not solved again.
    edges = np.array([-1.0, 1.0])
    at, low, up = np.zeros(1), np.full(1, -np.inf), np.full(1, np.inf)
    for k in range(2, n + 1):
        while (todo := np.flatnonzero((up != low) & (up >= low.max()))).size:
            at[todo] = _gap_roots(points[:k], edges[todo], edges[todo + 1], at[todo])
            low[todo] = up[todo] = np.log(np.abs(at[todo, None] - points[:k])).sum(axis=1)
        best = np.flatnonzero((up == low) & (low == low.max()))[-1]
        q = points[k] = at[best]
        # gap ``best`` splits in two at q, both to be solved from their midpoints
        edges = np.insert(edges, best + 1, q)
        at, low, up = (np.insert(state, best, 0.0) for state in (at, low, up))
        split = slice(best, best + 2)
        at[split] = (edges[split] + edges[best + 1 : best + 3]) / 2
        low[split], up[split] = -np.inf, np.inf
        # log|x - q| is largest at an end of each gap
        low += np.log(np.abs(at - q))
        up += np.log(np.maximum(np.abs(edges[:-1] - q), np.abs(edges[1:] - q)))
    return Nodes1D(points)


def _gap_roots(chosen: np.ndarray, lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The root of ``g(x) = sum_j 1/(x - chosen_j)`` in each open gap
    ``(lo, hi)`` between neighbouring chosen points, as a new array, from
    the guesses ``x`` inside the gaps.  ``g`` falls from ``+inf`` to ``-inf``
    across a gap, so each evaluation narrows the gap to the side of its
    sign; the next guess is the Newton step if it lands inside, else the
    midpoint.  A gap is done when its Newton step no longer moves ``x`` or
    no float lies inside it; a done gap's step leaves ``x`` as it is, so
    all gaps step until none moves, which takes finitely many steps."""
    while True:
        inv = 1.0 / (x[:, None] - chosen)
        g = inv.sum(axis=1)
        lo, hi = np.where(g > 0, x, lo), np.where(g < 0, x, hi)
        newton = x + g / (inv * inv).sum(axis=1)
        nxt = np.where((lo < newton) & (newton < hi), newton, lo + (hi - lo) / 2)
        go_on = (newton != x) & (lo < nxt) & (nxt < hi)
        if not go_on.any():
            return x
        x = np.where(go_on, nxt, x)


@dataclass(frozen=True, eq=False)
class UnisolventGrid:
    """A downward-closed index set plus one ordered node tuple per axis."""

    index_set: MultiIndexSet
    axes: tuple[Nodes1D, ...]

    def __post_init__(self):
        if len(self.axes) != self.dim:
            raise ValueError(f"need {self.dim} axes for dimension {self.dim}, got {len(self.axes)}")
        for i, (ax, top) in enumerate(zip(self.axes, self.index_set.tops)):
            if len(ax) <= top:
                raise ValueError(
                    f"axis {i + 1} has {len(ax)} points but the index set needs {top + 1}"
                )

    @property
    def dim(self) -> int:
        return self.index_set.dim

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


def _read_table(path) -> tuple[list[str], list[str] | None, np.ndarray]:
    """The ``#`` comments above the header or first row, the header or
    ``None``, and the rows (2-d float64) of the file at ``path``, by the
    rules of every numeric file the package reads: commas or whitespace
    separate numbers, ``#`` starts a comment, and the first line neither
    blank nor a comment is a header if none of its fields is a number.
    ``ValueError`` naming the line of a malformed row or of a non-finite number."""
    text = Path(path).read_text()
    lines = text.replace(",", " ").split("\n")
    content = (i for i, line in enumerate(lines) if _fields(line))
    first = next(content, len(lines))
    above = text.split("\n", first)[:first]  # with their commas
    notes = [line.partition("#")[2].strip() for line in above if "#" in line]
    header = _fields(lines[first]) if first < len(lines) else []
    start = next(content, len(lines)) if header and not any(map(_is_number, header)) else first
    header = header if start > first else None
    if start == len(lines):
        return notes, header, np.empty((0, len(header or ())))
    try:
        rows = np.loadtxt(lines[start:], ndmin=2)
    except ValueError as exc:
        # np.loadtxt counts rows, not file lines; the bad row is the first
        # with another width than the first row's or a field that is no number
        width = len(_fields(lines[start]))
        bad = next(i for i in [start, *content] if len(_fields(lines[i])) != width
                   or not all(map(_is_number, _fields(lines[i]))))
        reason = str(exc).partition(" at row ")[0]
        raise ValueError(f"malformed file {path} at line {bad + 1}: {reason}") from None
    if not np.isfinite(rows).all():
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))[0]
        line = [start, *content][bad] + 1  # the lines of the rows, in order
        raise ValueError(f"line {line} of {path} holds a number that is not finite")
    return notes, header, rows


def _fields(line: str) -> list[str]:
    return line.partition("#")[0].split()


def _is_number(field: str) -> bool:
    """Whether ``np.loadtxt`` reads ``field`` as a number: ``float`` syntax
    in ASCII, without the underscores ``float`` allows."""
    try:
        float(field)
    except ValueError:
        return False
    return field.isascii() and "_" not in field


def build_grid(index_set: MultiIndexSet, axes) -> UnisolventGrid:
    """Assemble the node set ``{(p[a_1,1], ..., p[a_m,m]) : alpha in A}``.

    Requires, per dimension ``i``, at least ``index_set.tops[i] + 1`` axis
    points, checked as :class:`Nodes1D` checks them.  Distinct points make
    all ``|A|`` grid nodes distinct, and since every index set is downward
    closed, the grid is unisolvent for the polynomial space spanned by ``A``.
    """
    axes = tuple(ax if isinstance(ax, Nodes1D) else Nodes1D(ax) for ax in axes)
    return UnisolventGrid(index_set=index_set, axes=axes)


def axes_for(index_set: MultiIndexSet, family: str) -> tuple[Nodes1D, ...]:
    """Per-dimension axes of the requested family, sized for ``index_set``.

    ``family`` is ``"lcl"`` (Leja-ordered Chebyshev-Lobatto) or ``"leja"``
    (Leja points of the interval).  Axes of equal length are built once and
    shared.
    """
    _check_grid_family(family)
    build = leja_points if family == "leja" else lambda n: leja_order(chebyshev_lobatto(n))
    made = {n_i: build(n_i) for n_i in dict.fromkeys(index_set.tops)}
    return tuple(made[n_i] for n_i in index_set.tops)


def _check_grid_family(family) -> None:
    """``ValueError`` unless ``family`` is one of :data:`GRID_FAMILIES`."""
    if family not in GRID_FAMILIES:
        raise ValueError(f"unknown grid family {family!r}; expected {' or '.join(GRID_FAMILIES)}")
