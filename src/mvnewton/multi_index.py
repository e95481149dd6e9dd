"""Downward-closed multi-index sets and the ``l_p``-degree families.

Exponent vectors are kept in a canonical lexicographic order that compares
the *last* entry first, e.g. ``(5, 3, 1) < (1, 0, 3) < (1, 1, 3)``; one
mixed-radix key per row (``_radix_key``), exact in any key space, decides it
for every sort.  Every coefficient vector is aligned positionally to that
order: one storage layout to get wrong.

A :class:`MultiIndexSet` is downward closed by construction: the
constructor builds the set's :class:`Layout`, which is also the one
closure check, so every set that exists has one.  The set keeps its key,
which every lookup of :meth:`MultiIndexSet.positions` searches.

The layout is built from *roots*, which it does not keep: a row's root
along an axis is the canonical position of the level-0 row of its line.
Only the transform sweep reads the zero-padded tables of :class:`AxisLines`.
"""
from __future__ import annotations

import math
import numbers
from typing import Iterator, NamedTuple

import numpy as np

__all__ = [
    "MultiIndexSet",
    "make_lp_set",
]

# Inclusion slack for non-integer p, where membership is decided in floats.
GENERAL_P_TOLERANCE = 1e-10


def _integral(values) -> np.ndarray:
    """``values`` as int64, with -1 in place of every entry that is not an
    integer: non-finite, fractional, or beyond the int64 range."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64)
    real = arr.astype(np.float64)
    whole = (np.floor(real) == real) & (np.abs(real) < 2.0**63)
    return np.where(whole, real, -1).astype(np.int64)


def _checked_int(value, name: str, minimum: int) -> int:
    """``value`` as an ``int``; ``ValueError`` naming ``name`` unless it is an
    ``int`` or ``np.integer`` (not a ``bool``, and never truncated) of at
    least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def _radix_key(rows: np.ndarray, tops) -> tuple[np.ndarray, np.ndarray]:
    """The canonical key of each non-negative row within ``tops`` and its
    weights ``w_i = prod(top_j + 1 for j < i)``: ``sum(a_i * w_i)``, which
    orders and ties the rows as canonical order does.  Key and weights are
    int64 while the product of all spans is below ``2**63``, so that every
    one fits, and Python ints (dtype ``object``) past it."""
    weights = [1]
    for top in tops:
        weights.append(weights[-1] * (top + 1))
    weights = np.array(weights[:-1], dtype=np.int64 if weights[-1] < 2**63 else object)
    return rows.astype(weights.dtype, copy=False) @ weights, weights


class MultiIndexSet:
    """A non-empty downward-closed set of exponent vectors in ``N^m``,
    canonically ordered.

    Parameters
    ----------
    exponents : array-like of shape (k, m)
        Non-negative integer exponent vectors (integral floats are
        accepted); duplicates are rejected.  Rows are sorted into canonical
        order on construction.

    Construction raises ``ValueError("the index set is not downward
    closed")`` unless every member's componentwise-smaller neighbours are
    members.  It builds everything the set holds: :attr:`layout`, the
    grid-line tables of every axis, the evaluation fold plan and the
    basis-value plan; :attr:`tops`, the largest exponent along each axis;
    and the canonical key of every row with its weights, which sorted the
    rows, found every axis's lines and answer every :meth:`positions`
    lookup.  Nothing is set after construction, so the instance is
    immutable and safe for concurrent reads.
    """

    __slots__ = ("dim", "exponents", "layout", "tops", "_key", "_weights")

    def __init__(self, exponents):
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
        tops = tuple(int(column.max()) for column in arr.T)  # arr.max(axis=0) is slower
        key, weights = _radix_key(arr, tops)
        if not (key[1:] > key[:-1]).all():
            order = np.argsort(key, kind="stable")
            arr, key = arr[order], key[order]
            if (key[1:] == key[:-1]).any():
                raise ValueError("duplicate multi-indices are not allowed")
        arr.setflags(write=False)
        key.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "exponents", arr)
        object.__setattr__(self, "layout", _build_layout(arr, key, weights))
        object.__setattr__(self, "tops", tops)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_weights", weights)

    def __setattr__(self, name, value):
        raise AttributeError("MultiIndexSet is immutable")

    def __len__(self) -> int:
        return self.exponents.shape[0]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return (tuple(int(v) for v in row) for row in self.exponents)

    def __contains__(self, alpha) -> bool:
        """Membership of ``alpha``; anything but a length-``m`` numeric
        vector is not a member."""
        try:
            query = np.asarray(alpha)
        except ValueError:  # a ragged sequence
            return False
        if query.shape != (self.dim,) or query.dtype.kind not in "biuf":
            return False
        try:
            self.position(query)
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
        return f"MultiIndexSet(dim={self.dim}, size={len(self)})"

    # -- positional lookup ------------------------------------------------

    def positions(self, queries: np.ndarray) -> np.ndarray:
        """Row positions of ``queries`` in the canonical array; a missing
        index, or one with a non-integral entry, raises ``KeyError``."""
        q = np.asarray(queries)
        if q.ndim > 2 or q.shape[-1:] != (self.dim,):
            shape = f"({self.dim},) or (k, {self.dim})"
            raise ValueError(f"queries must have {self.dim} columns: shape {shape}, got {q.shape}")
        q = q.reshape(-1, self.dim)
        rows = _integral(q)
        keys = rows.astype(self._weights.dtype, copy=False) @ self._weights
        pos = np.minimum(np.searchsorted(self._key, keys), len(self) - 1)
        # an entry past its top can fold to a member's key (or wrap int64),
        # so the row found, not its key, decides
        found = (self.exponents[pos] == rows).all(axis=1)
        if not found.all():
            missing = q[~found][0]
            raise KeyError(f"multi-index {tuple(missing.tolist())} not in set")
        return pos

    def position(self, alpha) -> int:
        alpha = np.asarray(alpha)
        if alpha.shape != (self.dim,):
            m = self.dim
            raise ValueError(f"a multi-index needs {m} columns: shape ({m},), got {alpha.shape}")
        return int(self.positions(alpha[None, :])[0])


def make_lp_set(m: int, n: int, p) -> MultiIndexSet:
    """The multi-index set ``{alpha in N^m : ||alpha||_p <= n}``.

    One rule decides membership for every ``p``: ``alpha`` is a member iff
    ``sum(a_i**p) <= n**p``, each ``a_i**p`` looked up in one table of
    ``a**p`` for ``a = 0..n``.  The comparison is exact in integers for
    ``p`` in ``{1, 2}``, and for ``p = inf``, where every power and the
    budget are 0 so only ``a_i <= n`` counts.  For other positive real ``p``
    it runs in floating point with an inclusion slack of
    ``GENERAL_P_TOLERANCE`` on the budget so borderline indices are kept.
    """
    return MultiIndexSet(_lp_table(m, n, p))


def _lp_table(m: int, n: int, p) -> np.ndarray:
    """The canonical exponent table of :func:`make_lp_set`'s set, built
    without the set; ``ValueError`` where the budget ``n**p`` leaves int64
    (``p`` in ``{1, 2}``) or the float range (other finite ``p``)."""
    m, n = _checked_int(m, "dimension m", 1), _checked_int(n, "degree n", 0)
    if isinstance(p, bool) or not isinstance(p, numbers.Real):  # float("2") would pass a string
        raise ValueError(f"degree selector p must be a number, got {p!r}")
    p_exact = float(p)
    if not p_exact > 0:  # also rejects nan
        raise ValueError(f"degree selector p must be positive, got {p!r}")
    if p_exact in (1, 2):
        p_exact = int(p_exact)

    # One membership rule for every p (see make_lp_set): a row may append
    # ``a`` iff ``powers[a] = a**p`` is at most its residual, the budget
    # ``n**p`` less the powers it holds.  The residual comes first, so a
    # budget past int64 (an ``n**2`` overflowing) or past the float range is
    # refused before the table of n + 1 powers exists.
    try:
        if p_exact == math.inf:
            residual = np.zeros(1, dtype=np.int64)
        elif p_exact in (1, 2):
            residual = np.array([n**p_exact], dtype=np.int64)
        else:
            residual = np.array([float(n) ** p_exact + GENERAL_P_TOLERANCE])
    except OverflowError:
        raise ValueError(f"degree n={n} is too large for p={p_exact}: n**p overflows") from None
    values = np.arange(n + 1, dtype=residual.dtype)
    powers = np.zeros_like(values) if p_exact == math.inf else np.power(values, p_exact)

    # Grow the table one coordinate at a time, starting from the *last*
    # coordinate so rows come out already in canonical order.
    block = np.empty((1, 0), dtype=np.int64)
    for _ in range(m):
        counts = np.searchsorted(powers, residual, side="right")
        total = int(counts.sum())
        rep = np.repeat(np.arange(block.shape[0]), counts)
        offsets = np.cumsum(counts) - counts
        new_col = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
        block = np.column_stack([block[rep], new_col])
        residual = residual[rep] - powers[new_col]

    return block[:, ::-1]  # columns were built last-to-first


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
    coordinates after ``i``.  The fold contracts the first ``split`` axes in
    one GEMM of a ``(groups x |P|)`` coefficient matrix, where ``groups``
    counts the groups of axis ``split - 1`` and ``P``, the projection of the
    set onto axes ``0..split - 1``, is the first
    ``BasisPlan.stops[split - 1]`` canonical rows.  GEMM row ``g`` is the
    ``g``-th group in canonical order, which lists the groups' tails, the
    projection ``T`` of the set onto axes ``split..m - 1``, canonically.
    ``cell[k]``, which ascends, is the cell (``row * |P| + column``) of the
    index at canonical position ``k``: its group's GEMM row, and the
    position in ``P`` of its projection, which its roots along axes
    ``split..m - 1`` lead to.  ``tail`` is the :class:`BasisPlan` of ``T``,
    which the fold runs in reverse to sum the GEMM rows; ``None`` when
    ``split == m``.

    ``split`` is the ``j`` whose fold holds the fewest scratch rows per
    point, ``[j > 1] * |P_j| + G_j`` with ``G_j`` the number of groups of
    axis ``j - 1``, the larger ``j`` on a tie.  The first term is the basis
    block, which ``j = 1`` does not build, as its GEMM reads the axis table
    itself; the second is the GEMM output.  So every ``l_p`` ball with
    ``m <= 3`` takes ``j = 1``, the GEMM of one row per grid line of axis
    1, and so does a tall 2D set, where ``j = 2`` would be a one-row GEMM
    over the whole basis.  Past its lowest degrees an ``l_p`` ball with
    ``m >= 4`` takes ``j = ceil(m / 2)``: the square split for even ``m``,
    and the larger of two tied splits for odd ``m``.
    """

    split: int
    groups: int
    cell: np.ndarray
    tail: BasisPlan | None


class BasisPlan(NamedTuple):
    """How the Newton basis values are built, one axis at a time.

    The canonical rows whose coordinates after axis ``i`` are all 0 form a
    prefix, the first ``stops[i]`` rows: the projection of the set onto
    axes ``0..i``.  Within it the rows at level ``l`` of axis ``i`` form
    one block, and each takes the value of its root along axis ``i``, which
    lies in the prefix of axis ``i - 1``.  ``levels[i - 1][l - 1]`` is
    ``(rows, source)`` for level ``l >= 1``: the block's slice and the
    selection of those roots, a slice where they are contiguous (at every
    level of axis 1) and an index array otherwise.
    """

    stops: tuple[int, ...]
    levels: tuple[list, ...]


class Layout(NamedTuple):
    """What the transforms, the evaluator and the basis values read of a
    downward-closed set."""

    lines: tuple[AxisLines, ...]
    fold: FoldPlan
    basis: BasisPlan


def _axis_lines(exponents: np.ndarray, key, weights, axis: int) -> tuple[AxisLines, np.ndarray]:
    """The line table along ``axis`` and the root of every row along it: the
    canonical position of the level-0 row of its line.  ``ValueError``
    unless every line holds exactly the levels ``0..len - 1``, i.e. unless
    the set is downward closed along ``axis``.

    ``key - a_axis * w_axis``, the canonical key of the other coordinates,
    lists each line as one run in level order under a stable argsort.  Line
    starts are changes of that key, never level 0, so a line lacking level 0
    cannot merge into its predecessor."""
    count = len(exponents)
    levels = exponents[:, axis]
    key = key - levels.astype(weights.dtype, copy=False) * weights[axis]
    order = np.argsort(key, kind="stable")
    new_line = np.diff(key[order], prepend=-1) != 0  # keys are non-negative
    starts = np.flatnonzero(new_line)
    run = np.cumsum(new_line) - 1
    first = starts[run]  # in the listing, the start of each row's line
    if not np.array_equal(levels[order], np.arange(count) - first):
        raise ValueError("the index set is not downward closed")
    root = np.empty(count, dtype=np.intp)
    root[order] = order[first]
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
    return AxisLines(cell, tuple(reach.tolist())), root


def _fold_plan(exponents: np.ndarray, roots, stops: tuple[int, ...], split=None) -> FoldPlan:
    """The :class:`FoldPlan` of a downward-closed canonical array with the
    roots ``roots[i]`` along each axis ``i >= 1`` and the projection sizes
    ``stops`` of its :class:`BasisPlan`; ``split`` defaults to the rule."""
    count, dim = exponents.shape
    # heads[r, i]: row r opens its group of axis i, as the group's one row
    # whose coordinates up to i are all 0
    heads = np.logical_and.accumulate(exponents == 0, axis=1)
    if split is None:
        # scratch rows per point at split j + 1: the basis block (none at
        # split 1) and the GEMM output; the last minimum is the larger split
        groups = np.count_nonzero(heads, axis=0).tolist()
        scratch = [(j > 0) * stops[j] + groups[j] for j in range(dim)]
        split = dim - scratch[::-1].index(min(scratch))
    projection = np.arange(count)
    for i in range(split, dim):
        projection = roots[i][projection]
    head = np.flatnonzero(heads[:, split - 1])
    group = np.cumsum(heads[:, split - 1]) - 1
    tails = exponents[head, split:]  # canonical, as the heads are
    cell = group * stops[split - 1] + projection
    # int32, as for ``AxisLines.cell``, unless the GEMM matrix is too large
    if len(tails) * stops[split - 1] <= 2**31:
        cell = cell.astype(np.int32)
    tail = None
    if split < dim:  # a head's root is a head, so the tails' roots are the heads'
        tail = _basis_plan(tails, [None] + [group[roots[i][head]] for i in range(split + 1, dim)])
    return FoldPlan(split, len(tails), cell, tail)


def _basis_plan(exponents: np.ndarray, roots) -> BasisPlan:
    """The :class:`BasisPlan` of a downward-closed canonical array whose rows
    have the roots ``roots[i]`` along each axis ``i >= 1``."""
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
        # a copy, int32 as for ``AxisLines.cell``, so the plan keeps no roots
        source = roots[i][lo:hi].astype(np.int32 if count <= 2**31 else np.intp)
        steps = []
        for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            picked = source[start - lo : stop - lo]
            if picked[-1] - picked[0] == stop - start - 1:  # ascending, so contiguous
                picked = slice(int(picked[0]), int(picked[-1]) + 1)
            steps.append((slice(start, stop), picked))
        levels.append(steps)
    return BasisPlan(tuple(stops), tuple(levels))


def _build_layout(exponents: np.ndarray, key, weights, split=None) -> Layout:
    """The :class:`Layout` of a canonical exponent array with the canonical
    key ``key`` under ``weights``, whose fold contracts its first ``split``
    axes (by default the rule of :class:`FoldPlan`); ``ValueError`` if the
    set is not downward closed."""
    exponents = np.asfortranarray(exponents)  # every step reads whole columns
    lines, roots = zip(
        *(_axis_lines(exponents, key, weights, axis) for axis in range(exponents.shape[1]))
    )
    basis = _basis_plan(exponents, roots)
    return Layout(lines, _fold_plan(exponents, roots, basis.stops, split), basis)
