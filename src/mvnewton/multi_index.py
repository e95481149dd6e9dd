"""Downward-closed multi-index sets and the ``l_p``-degree families.

Exponent vectors are kept in a canonical lexicographic order that compares
the *last* entry first, e.g. ``(5, 3, 1) < (1, 0, 3) < (1, 1, 3)``.  Every
coefficient vector in this package is aligned positionally to that order,
so there is exactly one storage layout to get wrong.

A :class:`MultiIndexSet` is downward closed by construction: the
constructor builds the set's :class:`Layout`, which is also the one
closure check, so every set that exists has one.  It also builds one sort
key per row, the only lookup path of :meth:`MultiIndexSet.positions`.
"""
from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

__all__ = [
    "MultiIndexSet",
    "make_lp_set",
]

# Inclusion slack for non-integer p, where membership is decided in floats.
GENERAL_P_TOLERANCE = 1e-10


def _strictly_ascending(rows: np.ndarray) -> bool:
    """True iff every row comes strictly after the one before it in canonical
    order (last entry most significant): sorted and free of duplicates."""
    ascending = np.zeros(len(rows) - 1, dtype=bool)  # pairs already decided
    for col in range(rows.shape[1] - 1, -1, -1):
        step = rows[1:, col] - rows[:-1, col]
        if ((step < 0) & ~ascending).any():
            return False
        ascending |= step > 0
    return bool(ascending.all())


def _integral(values) -> np.ndarray:
    """``values`` as int64, with -1 in place of every entry that is not an
    integer: non-finite, fractional, or beyond the int64 range."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64)
    real = arr.astype(np.float64)
    whole = (np.floor(real) == real) & (np.abs(real) < 2.0**63)
    return np.where(whole, real, -1).astype(np.int64)


def _sort_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of a 2-d int64 array: the big-endian bytes of the
    reversed row as a single ``V{8m}`` item.  For non-negative rows, byte
    order is canonical order in any key space; a row with a negative entry
    equals no such key."""
    return np.ascontiguousarray(rows[:, ::-1], dtype=">i8").view(f"V{8 * rows.shape[1]}")[:, 0]


class MultiIndexSet:
    """A non-empty downward-closed set of exponent vectors in ``N^m``,
    canonically ordered.

    Parameters
    ----------
    exponents : array-like of shape (k, m)
        Non-negative integer exponent vectors (integral floats are
        accepted); duplicates are rejected.  Rows are sorted into canonical
        order on construction.
    provenance : tuple, optional
        ``(m, n, p)`` tag attached by :func:`make_lp_set`.

    Construction raises ``ValueError("the index set is not downward
    closed")`` unless every member's componentwise-smaller neighbours are
    members.  It builds everything the set holds: :attr:`layout`, the
    grid-line tables of every axis, the evaluation fold plan and the
    basis-value plan; :attr:`tops`, the largest exponent along each axis;
    and the sort keys that :meth:`positions` searches.  Nothing is set
    after construction, so the instance is immutable and safe for
    concurrent reads.
    """

    __slots__ = ("dim", "exponents", "provenance", "layout", "tops", "_keys")

    def __init__(self, exponents, provenance: tuple | None = None):
        arr = np.asarray(exponents)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array of exponents, got ndim={arr.ndim}")
        count, dim = arr.shape
        if dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        if count == 0:
            raise ValueError("multi-index set must be non-empty")
        arr = _integral(arr)  # a copy, which the set owns
        if (arr < 0).any():
            raise ValueError("exponents must be non-negative integers")
        if not _strictly_ascending(arr):
            # np.lexsort treats its last key as primary, so feeding the
            # columns in natural order makes the final column the dominant one
            arr = arr[np.lexsort(arr.T)]
            if not _strictly_ascending(arr):
                raise ValueError("duplicate multi-indices are not allowed")
        arr.setflags(write=False)
        layout = _build_layout(arr)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "exponents", arr)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "tops", tuple(len(lines.reach) - 1 for lines in layout.lines))
        object.__setattr__(self, "_keys", _sort_keys(arr))

    def __setattr__(self, name, value):
        raise AttributeError("MultiIndexSet is immutable")

    def __len__(self) -> int:
        return self.exponents.shape[0]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return (tuple(int(v) for v in row) for row in self.exponents)

    def __contains__(self, alpha) -> bool:
        try:
            self.position(alpha)
        except KeyError:
            return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiIndexSet):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.exponents, other.exponents)

    def __hash__(self):
        return hash((self.dim, self.exponents.tobytes()))

    def __repr__(self) -> str:
        tag = f", provenance={self.provenance}" if self.provenance else ""
        return f"MultiIndexSet(dim={self.dim}, size={len(self)}{tag})"

    # -- positional lookup ------------------------------------------------

    def positions(self, queries: np.ndarray) -> np.ndarray:
        """Row positions of ``queries`` in the canonical array; a missing
        index, or one with a non-integral entry, raises ``KeyError``."""
        q = np.asarray(queries)
        if q.ndim == 1:
            q = q[None, :]
        if q.shape[1] != self.dim:
            raise ValueError(f"queries must have {self.dim} columns")
        keys = _sort_keys(_integral(q))
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self) - 1)
        found = self._keys[pos] == keys
        if not found.all():
            missing = q[~found][0]
            raise KeyError(f"multi-index {tuple(missing.tolist())} not in set")
        return pos

    def position(self, alpha) -> int:
        return int(self.positions(np.asarray(alpha)[None, :])[0])


def _max_feasible(residual: np.ndarray, p, n: int) -> np.ndarray:
    """Largest value ``a <= n`` with ``a**p <= residual``, elementwise."""
    if p == 1:
        return residual.astype(np.int64)
    if p == 2:
        c = np.floor(np.sqrt(residual.astype(np.float64))).astype(np.int64)
        c += (c + 1) ** 2 <= residual  # repair float rounding both ways
        c -= c**2 > residual
        return c
    # no coordinate of the ball exceeds n; clipping the root first keeps a
    # tiny p, whose root overflows to inf, from breaking the int64 cast
    with np.errstate(over="ignore"):
        root = np.power(np.maximum(residual, 0.0), 1.0 / p)
    c = np.floor(np.minimum(root, n)).astype(np.int64)
    c += np.power(c + 1.0, p) <= residual
    c -= (np.power(c.astype(np.float64), p) > residual) & (c > 0)
    return np.clip(c, 0, n)


def make_lp_set(m: int, n: int, p) -> MultiIndexSet:
    """The multi-index set ``{alpha in N^m : ||alpha||_p <= n}``.

    Membership is decided in exact integer arithmetic for ``p`` in
    ``{1, 2, inf}`` (comparing ``sum(a_i**2) <= n**2`` for ``p = 2``).  For
    other positive real ``p`` the comparison runs in floating point with an
    inclusion slack of ``GENERAL_P_TOLERANCE`` so borderline indices are
    kept.
    """
    exponents, provenance = _lp_table(m, n, p)
    return MultiIndexSet(exponents, provenance)


def _lp_table(m: int, n: int, p) -> tuple[np.ndarray, tuple]:
    """The canonical exponent table of :func:`make_lp_set`'s set, built
    without the set, and its ``(m, n, p)`` provenance tag."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"dimension m must be a positive integer, got {m!r}")
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"degree n must be a non-negative integer, got {n!r}")
    m, n = int(m), int(n)
    p_exact = float(p)
    if not p_exact > 0:  # also rejects nan
        raise ValueError(f"degree selector p must be positive, got {p!r}")
    if p_exact in (1, 2):
        p_exact = int(p_exact)

    # Grow the table one coordinate at a time, starting from the *last*
    # coordinate so rows come out already in canonical order.
    block = np.empty((1, 0), dtype=np.int64)
    if p_exact == math.inf:
        residual = None
    elif p_exact == 1:
        residual = np.array([n], dtype=np.int64)
    elif p_exact == 2:
        residual = np.array([n * n], dtype=np.int64)
    else:
        residual = np.array([float(n) ** p_exact + GENERAL_P_TOLERANCE])

    for _ in range(m):
        if p_exact == math.inf:
            counts = np.full(block.shape[0], n + 1, dtype=np.int64)
        else:
            counts = _max_feasible(residual, p_exact, n) + 1
        total = int(counts.sum())
        rep = np.repeat(np.arange(block.shape[0]), counts)
        offsets = np.cumsum(counts) - counts
        new_col = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
        block = np.column_stack([block[rep], new_col])
        if residual is not None:
            if p_exact == 1:
                residual = residual[rep] - new_col
            elif p_exact == 2:
                residual = residual[rep] - new_col**2
            else:
                residual = residual[rep] - np.power(new_col.astype(np.float64), p_exact)

    return block[:, ::-1], (m, n, p_exact)  # columns were built last-to-first


class AxisLines(NamedTuple):
    """The grid lines along one axis, as a zero-padded level-major table.

    A grid line is a maximal group of indices that differ only in the
    coordinate of the axis.  Row ``l`` of the table holds level ``l`` of
    every line, longest line first, so the lines reaching level ``l`` fill
    the first ``reach[l]`` cells of row ``l``; ``reach[0]`` counts the lines
    and ``len(reach) - 1`` is the top level.  ``cell[k]`` is the table cell
    (``level * reach[0] + column``) of the index at canonical position ``k``.
    """

    cell: np.ndarray
    reach: tuple[int, ...]


class FoldPlan(NamedTuple):
    """How the evaluation fold walks the canonical layout.

    A group of axis ``i`` is a maximal block of canonical rows sharing the
    coordinates after ``i``; the groups of axis 0 are the axis-1 runs, the
    lines of axis 0.  The fold lists the runs level-major in ``a_2``: its
    run ``r`` is column ``runs[r]`` of the axis-0 line table.  For each
    later axis ``i`` the groups of axis ``i`` are listed longest first, and
    ``steps[i - 1][l]`` selects, in the previous step's listing, the
    level-``l`` members of the groups that reach level ``l``; those groups
    form a prefix.  Every selection of the first step is therefore a slice;
    later selections are index arrays.
    """

    runs: np.ndarray
    steps: tuple[list, ...]


class BasisPlan(NamedTuple):
    """How the Newton basis values are built, one axis at a time.

    The canonical rows whose coordinates after axis ``i`` are all 0 form a
    prefix, the first ``stops[i]`` rows: the projection of the set onto
    axes ``0..i``.  Within it the rows at level ``l`` of axis ``i`` form
    one block, and each takes the value of its level-0 neighbour, which
    lies in the prefix of axis ``i - 1``.  ``levels[i - 1][l - 1]`` is
    ``(rows, source)`` for level ``l >= 1``: the block's slice and the
    selection of those neighbours, a slice where they are contiguous (at
    every level of axis 1) and an index array otherwise.
    """

    stops: tuple[int, ...]
    levels: tuple[list, ...]


class Layout(NamedTuple):
    """What the transforms, the evaluator and the basis values read of a
    downward-closed set."""

    lines: tuple[AxisLines, ...]
    fold: FoldPlan
    basis: BasisPlan


def _axis_lines(exponents: np.ndarray, axis: int) -> AxisLines:
    """The line table along ``axis``; ``ValueError`` unless every line holds
    exactly the levels ``0..len - 1``, i.e. unless the set is downward closed
    along ``axis``."""
    count, dim = exponents.shape
    levels = exponents[:, axis]
    others = [exponents[:, j] for j in range(dim) if j != axis]
    # A stable sort on the other coordinates makes every line one run; rows
    # of a line are already in ascending level order, and canonical order
    # already lists the lines of axis 0 this way.  Line starts come from
    # changes in the other coordinates, never from level 0, so a line
    # lacking level 0 cannot merge into its predecessor.
    order = np.lexsort(others) if axis else slice(None)
    new_line = np.zeros(count, dtype=bool)
    new_line[0] = True
    for coordinate in others:
        listed = coordinate[order]
        new_line[1:] |= listed[1:] != listed[:-1]
    starts = np.flatnonzero(new_line)
    run = np.cumsum(new_line) - 1
    if not np.array_equal(levels[order], np.arange(count) - starts[run]):
        raise ValueError("the index set is not downward closed")
    lengths = np.diff(starts, append=count)
    by_length = np.argsort(-lengths, kind="stable")
    column = np.empty_like(by_length)
    column[by_length] = np.arange(by_length.size)
    # ``cell`` is the bulk of a stored layout, so it is int32 unless the
    # padded table is too tall for that
    size = int(lengths.max()) * lengths.size
    cell = np.empty(count, dtype=np.int32 if size <= 2**31 else np.intp)
    cell[order] = column[run]
    cell += levels * lengths.size
    reach = np.searchsorted(-lengths[by_length], -np.arange(lengths.max()), side="left")
    return AxisLines(cell, tuple(reach.tolist()))


def _fold_plan(exponents: np.ndarray, lines0: AxisLines) -> FoldPlan:
    """The :class:`FoldPlan` of a downward-closed canonical array whose
    axis-0 line table is ``lines0``."""
    count, dim = exponents.shape
    # heads[r, i]: row r opens a group of axis i (row 0 opens all of them)
    heads = np.ones((count, dim), dtype=bool)
    changed = exponents[1:] != exponents[:-1]
    heads[1:, :-1] = np.logical_or.accumulate(changed[:, :0:-1], axis=1)[:, ::-1]
    heads[1:, -1] = False
    firsts = np.flatnonzero(heads[:, 0])  # first canonical row of each run
    rows = firsts  # first canonical row of each group of axis i - 1
    slot = np.arange(rows.size)  # listing of the runs
    steps = []
    for i in range(1, dim):
        opens = heads[rows, i]
        group = np.cumsum(opens) - 1
        starts = np.flatnonzero(opens)
        lengths = np.diff(starts, append=rows.size)
        by_length = np.argsort(-lengths, kind="stable")
        rank = np.empty_like(by_length)
        rank[by_length] = np.arange(by_length.size)
        reach = np.searchsorted(-lengths[by_length], -np.arange(lengths.max()))
        if i == 1:
            # level-major listing: run at level l of group g goes to
            # offset[l] + rank[g], so each level is one contiguous slice
            offset = np.cumsum(reach) - reach
            slot = offset[np.arange(rows.size) - starts[group]] + rank[group]
            steps.append([slice(lo, lo + w) for lo, w in zip(offset.tolist(), reach.tolist())])
        else:
            first = starts[by_length]
            steps.append([where[first[:w] + level] for level, w in enumerate(reach)])
        where = rank
        rows = rows[starts]
    # a run's level-0 cell is its column in the axis-0 line table
    listed = np.empty_like(slot)
    listed[slot] = lines0.cell[firsts]
    return FoldPlan(listed, tuple(steps))


def _basis_plan(exponents: np.ndarray, lines: tuple[AxisLines, ...]) -> BasisPlan:
    """The :class:`BasisPlan` of a downward-closed canonical array with the
    line tables ``lines``."""
    count, dim = exponents.shape
    stops = [count]
    for i in range(dim - 1, 0, -1):
        stops.append(int(np.searchsorted(exponents[: stops[-1], i], 1)))
    stops.reverse()
    levels = []
    for i in range(1, dim):
        lo, hi = stops[i - 1], stops[i]
        level = exponents[lo:hi, i]
        top = int(level[-1]) if hi > lo else 0
        bounds = lo + np.searchsorted(level, np.arange(1, top + 2))
        # a row of the prefix sits at level 0 of its line, so its cell is
        # its line's column, and the line of every row of the block starts
        # in the prefix
        width = lines[i].reach[0]
        first = np.empty(width, dtype=lines[i].cell.dtype)
        first[lines[i].cell[:lo]] = np.arange(lo)
        source = first[lines[i].cell[lo:hi] - level * width]
        steps = []
        for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            picked = source[start - lo : stop - lo]
            if picked[-1] - picked[0] == stop - start - 1:  # ascending, so contiguous
                picked = slice(int(picked[0]), int(picked[-1]) + 1)
            steps.append((slice(start, stop), picked))
        levels.append(steps)
    return BasisPlan(tuple(stops), tuple(levels))


def _build_layout(exponents: np.ndarray) -> Layout:
    """The :class:`Layout` of a canonical exponent array; ``ValueError`` if
    the set is not downward closed."""
    lines = tuple(_axis_lines(exponents, axis) for axis in range(exponents.shape[1]))
    return Layout(lines, _fold_plan(exponents, lines[0]), _basis_plan(exponents, lines))

