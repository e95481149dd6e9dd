"""Downward-closed multi-index sets and the ``l_p``-degree families.

Exponent vectors are kept in a canonical lexicographic order that compares
the *last* entry first, e.g. ``(5, 3, 1) < (1, 0, 3) < (1, 1, 3)``.  Every
coefficient vector in this package is aligned positionally to that order,
so there is exactly one storage layout to get wrong.
"""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np

__all__ = [
    "MultiIndexSet",
    "make_lp_set",
    "is_downward_closed",
]

# Inclusion slack for non-integer p, where membership is decided in floats.
GENERAL_P_TOLERANCE = 1e-10

# Largest mixed-radix key we are willing to encode in int64.
_KEY_LIMIT = 2**62


def _lex_sorted(exponents: np.ndarray) -> np.ndarray:
    """Return rows sorted in canonical order (last entry most significant)."""
    arr = np.asarray(exponents)
    # np.lexsort treats its last key as primary, so feeding the columns in
    # natural order makes the final column the dominant one.
    return arr[np.lexsort(arr.T)]


class MultiIndexSet:
    """A non-empty set of exponent vectors in ``N^m``, canonically ordered.

    Parameters
    ----------
    exponents : array-like of shape (k, m)
        Non-negative integer exponent vectors; duplicates are rejected.
        Rows are sorted into canonical order on construction.
    provenance : tuple, optional
        ``(m, n, p)`` tag attached by :func:`make_lp_set`.

    The instance is immutable after construction and safe for concurrent
    reads.  Downward closure is *not* enforced here (use
    :func:`is_downward_closed`); operations that require it, such as grid
    construction, check it themselves.
    """

    __slots__ = ("dim", "exponents", "provenance", "_keys", "_key_weights", "_lookup")

    def __init__(self, exponents, provenance: tuple | None = None):
        arr = np.array(exponents, dtype=np.int64, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array of exponents, got ndim={arr.ndim}")
        count, dim = arr.shape
        if dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        if count == 0:
            raise ValueError("multi-index set must be non-empty")
        if (arr < 0).any():
            raise ValueError("exponents must be non-negative")
        arr = _lex_sorted(arr)
        if count > 1 and np.all(arr[1:] == arr[:-1], axis=1).any():
            raise ValueError("duplicate multi-indices are not allowed")
        arr.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "exponents", arr)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "_keys", None)
        object.__setattr__(self, "_key_weights", None)
        object.__setattr__(self, "_lookup", None)

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

    def _build_lookup(self) -> None:
        if self._keys is not None or self._lookup is not None:
            return
        radices = self.exponents.max(axis=0) + 1
        weights = [1]
        for r in radices[:-1]:
            weights.append(weights[-1] * int(r))
        if weights[-1] * int(radices[-1]) < _KEY_LIMIT:
            w = np.asarray(weights, dtype=np.int64)
            object.__setattr__(self, "_key_weights", w)
            object.__setattr__(self, "_keys", self.exponents @ w)
        else:
            # Key space too large for int64; fall back to a hash table.
            table = {tuple(map(int, row)): i for i, row in enumerate(self.exponents)}
            object.__setattr__(self, "_lookup", table)

    def positions(self, queries: np.ndarray) -> np.ndarray:
        """Row positions of ``queries`` in the canonical array; a missing
        index raises ``KeyError``."""
        q = np.asarray(queries, dtype=np.int64)
        if q.ndim == 1:
            q = q[None, :]
        if q.shape[1] != self.dim:
            raise ValueError(f"queries must have {self.dim} columns")
        self._build_lookup()
        if self._keys is not None:
            inside = (q >= 0).all(axis=1) & (q <= self.exponents.max(axis=0)).all(axis=1)
            qkeys = np.where(inside, q @ self._key_weights, -1)
            pos = np.searchsorted(self._keys, qkeys)
            pos = np.minimum(pos, len(self) - 1)
            found = inside & (self._keys[pos] == qkeys)
        else:
            pos = np.fromiter(
                (self._lookup.get(tuple(map(int, row)), -1) for row in q),
                dtype=np.int64,
                count=len(q),
            )
            found = pos >= 0
        if not found.all():
            missing = q[~found][0]
            raise KeyError(f"multi-index {tuple(int(v) for v in missing)} not in set")
        return pos

    def position(self, alpha) -> int:
        return int(self.positions(np.asarray(alpha, dtype=np.int64)[None, :])[0])

    def max_exponent(self, axis: int) -> int:
        """Largest exponent appearing along ``axis`` (0-based)."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dimension {self.dim}")
        return int(self.exponents[:, axis].max())


def _max_feasible(residual: np.ndarray, p) -> np.ndarray:
    """Largest value ``a`` with ``a**p <= residual``, elementwise."""
    if p == 1:
        return residual.astype(np.int64)
    if p == 2:
        c = np.floor(np.sqrt(residual.astype(np.float64))).astype(np.int64)
        c += (c + 1) ** 2 <= residual  # repair float rounding both ways
        c -= c**2 > residual
        return c
    c = np.floor(np.power(np.maximum(residual, 0.0), 1.0 / p)).astype(np.int64)
    c += np.power(c + 1.0, p) <= residual
    c -= (np.power(c.astype(np.float64), p) > residual) & (c > 0)
    return np.maximum(c, 0)


def make_lp_set(m: int, n: int, p) -> MultiIndexSet:
    """The multi-index set ``{alpha in N^m : ||alpha||_p <= n}``.

    Membership is decided in exact integer arithmetic for ``p`` in
    ``{1, 2, inf}`` (comparing ``sum(a_i**2) <= n**2`` for ``p = 2``).  For
    other positive real ``p`` the comparison runs in floating point with an
    inclusion slack of ``GENERAL_P_TOLERANCE`` so borderline indices are
    kept.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"dimension m must be a positive integer, got {m!r}")
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"degree n must be a non-negative integer, got {n!r}")
    m, n = int(m), int(n)
    if p == math.inf:
        p_norm = math.inf
    elif isinstance(p, (int, np.integer)) or (isinstance(p, float) and p.is_integer()):
        p_norm = int(p)
    else:
        p_norm = float(p)
    if not p_norm == math.inf and p_norm <= 0:
        raise ValueError(f"degree selector p must be positive, got {p!r}")
    if p_norm == math.inf or p_norm in (1, 2):
        p_exact = p_norm
    else:
        p_exact = float(p_norm)

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
            counts = _max_feasible(residual, p_exact) + 1
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

    exponents = block[:, ::-1]  # columns were built last-to-first
    tag = (m, n, math.inf if p_exact == math.inf else p_exact)
    return MultiIndexSet(exponents, provenance=tag)


def axis_lines(index_set: MultiIndexSet, axis: int):
    """Split ``index_set`` into its grid lines along ``axis``.

    A grid line is a maximal group of indices that differ only in
    coordinate ``axis``.  Returns ``(line, lengths)``: ``line[k]`` numbers
    the line holding the index at canonical position ``k``, and
    ``lengths[i]`` counts the indices on line ``i``.  Returns ``None`` when
    some line does not hold exactly the levels ``0..lengths[i] - 1``, i.e.
    when the set is not downward closed along ``axis``.
    """
    exps = index_set.exponents
    levels = exps[:, axis]
    others = np.delete(exps, axis, axis=1)
    # np.lexsort's first key is the least significant: every line becomes
    # one run, levels ascending.  Line starts come from changes in the other
    # coordinates, never from level 0, so a line lacking level 0 cannot
    # merge into its predecessor.
    order = np.lexsort((levels, *others.T))
    rest = others[order]
    new_line = np.ones(len(order), dtype=bool)
    new_line[1:] = (rest[1:] != rest[:-1]).any(axis=1)
    starts = np.flatnonzero(new_line)
    run = np.cumsum(new_line) - 1
    if not np.array_equal(levels[order], np.arange(len(order)) - starts[run]):
        return None
    line = np.empty_like(run)
    line[order] = run
    return line, np.diff(starts, append=len(order))


def is_downward_closed(index_set: MultiIndexSet) -> bool:
    """True iff every componentwise-smaller neighbour of a member is a member.

    It suffices that along every axis each grid line holds the levels
    ``0, 1, ..., len - 1`` (see :func:`axis_lines`).
    """
    return all(axis_lines(index_set, axis) is not None for axis in range(index_set.dim))
