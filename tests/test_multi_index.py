import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_axes, random_downward_closed
from mvnewton import multi_index
from mvnewton.grid import UnisolventGrid
from mvnewton.multi_index import MultiIndexSet, is_downward_closed, make_lp_set
from mvnewton.newton import (
    LagrangeCoefficients,
    NewtonPolynomial,
    divided_differences,
    eval_iterative,
    newton_to_lagrange,
)

INF = math.inf


def test_lp_cardinalities_known_values():
    assert len(make_lp_set(2, 3, 1)) == 10
    assert len(make_lp_set(2, 3, INF)) == 16
    a232 = make_lp_set(2, 3, 2)
    assert len(a232) == 11
    assert (2, 2) in a232


def test_lp_euclidean_matches_bruteforce():
    # independent oracle: enumerate the bounding box and filter
    for m, n in [(2, 3), (3, 4), (2, 7)]:
        box = np.stack(
            np.meshgrid(*[np.arange(n + 1)] * m, indexing="ij"), axis=-1
        ).reshape(-1, m)
        expected = sorted(
            (tuple(row) for row in box if (row**2).sum() <= n * n),
            key=lambda a: tuple(reversed(a)),
        )
        assert list(make_lp_set(m, n, 2)) == expected


def test_single_point_set():
    assert list(make_lp_set(1, 0, 2)) == [(0,)]


def test_make_lp_set_rejects_bad_args():
    with pytest.raises(ValueError):
        make_lp_set(0, 3, 1)
    with pytest.raises(ValueError):
        make_lp_set(2, -1, 1)
    with pytest.raises(ValueError):
        make_lp_set(2, 3, 0)
    with pytest.raises(ValueError):
        make_lp_set(2, 3, -2.5)


def test_lex_order_compares_last_entry_first():
    # (5,3,1) < (1,0,3) < (1,1,3): compare from the last entry to the first
    s = MultiIndexSet([(1, 1, 3), (5, 3, 1), (1, 0, 3)])
    assert list(s) == [(5, 3, 1), (1, 0, 3), (1, 1, 3)]


def test_sorting_is_idempotent_and_canonical():
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 4, size=(30, 3))
    rows = np.unique(rows, axis=0)
    shuffled = rows[rng.permutation(len(rows))]
    a = MultiIndexSet(rows)
    b = MultiIndexSet(shuffled)
    assert a == b
    assert np.array_equal(MultiIndexSet(a.exponents).exponents, a.exponents)
    keys = [tuple(reversed(t)) for t in a]
    assert keys == sorted(keys)


def test_duplicates_and_negatives_rejected():
    with pytest.raises(ValueError):
        MultiIndexSet([(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        MultiIndexSet([(0, -1)])
    with pytest.raises(ValueError):
        MultiIndexSet(np.zeros((0, 2), dtype=int))


def test_is_downward_closed():
    assert is_downward_closed(make_lp_set(3, 4, 2))
    assert not is_downward_closed(MultiIndexSet([(0, 0), (1, 1)]))
    assert is_downward_closed(MultiIndexSet([(0, 0), (1, 0), (0, 1)]))


def brute_force_closed(members) -> bool:
    """Every member with a_i > 0 has alpha - e_i in the set."""
    present = set(members)
    return all(
        alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :] in present
        for alpha in present
        for i in range(len(alpha))
        if alpha[i] > 0
    )


def assert_layouts_equal(a, b):
    for x, y in zip(a.lines, b.lines, strict=True):
        assert x.reach == y.reach
        assert x.cell.dtype == y.cell.dtype and np.array_equal(x.cell, y.cell)
    assert np.array_equal(a.fold.runs, b.fold.runs)
    for x, y in zip(a.fold.steps, b.fold.steps, strict=True):
        assert len(x) == len(y)
        for u, v in zip(x, y):
            assert u == v if isinstance(u, slice) else np.array_equal(u, v)
    assert a.basis.stops == b.basis.stops
    for x, y in zip(a.basis.levels, b.basis.levels, strict=True):
        assert len(x) == len(y)
        for (rows_a, u), (rows_b, v) in zip(x, y):
            assert rows_a == rows_b
            assert u == v if isinstance(u, slice) else np.array_equal(u, v)


@given(st.integers(min_value=0, max_value=10**6))
def test_closure_check_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    if rng.integers(2):
        index_set = random_downward_closed(rng, dim, int(rng.integers(1, 40)), 4)
    else:
        # a random subset of a box: mostly not closed, sometimes closed
        box = rng.integers(0, 4, size=(int(rng.integers(1, 20)), dim))
        index_set = MultiIndexSet(np.unique(box, axis=0))
    closed = brute_force_closed(list(index_set))
    assert is_downward_closed(index_set) == closed
    if not closed:
        with pytest.raises(ValueError, match="not downward closed"):
            index_set.layout()
        return
    assert_layouts_equal(index_set.layout(), multi_index._build_layout(index_set.exponents))
    # the same transforms and evaluation from a cold copy of the set, twice
    axes = random_axes(rng, [index_set.max_exponent(i) + 1 for i in range(dim)])
    values = rng.standard_normal(len(index_set))
    pts = rng.uniform(-1, 1, (5, dim))
    results = []
    for grid in (
        UnisolventGrid(index_set=index_set, axes=tuple(axes)),
        UnisolventGrid(index_set=MultiIndexSet(index_set.exponents), axes=tuple(axes)),
    ):
        for _ in range(2):
            poly = divided_differences(LagrangeCoefficients(grid, values))
            results.append(
                (poly.coeffs, newton_to_lagrange(poly).values, eval_iterative(poly, pts))
            )
    for result in results[1:]:
        for got, first in zip(result, results[0]):
            assert np.array_equal(got, first)


def test_canonical_input_skips_sorting_but_keeps_checks(monkeypatch):
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(
        multi_index.np, "lexsort", lambda keys: calls.append(1) or lexsort(keys)
    )
    rows = make_lp_set(2, 3, 1).exponents
    MultiIndexSet(rows)
    assert calls == []
    assert MultiIndexSet(rows[::-1]) == MultiIndexSet(rows) and calls == [1]
    with pytest.raises(ValueError, match="duplicate"):
        MultiIndexSet(np.concatenate([rows[:2], rows[1:]]))
    with pytest.raises(ValueError, match="duplicate"):
        MultiIndexSet([(1, 0), (0, 1), (1, 0)])


def test_positions_and_contains():
    s = make_lp_set(3, 3, 2)
    for i, alpha in enumerate(s):
        assert s.position(alpha) == i
    assert (9, 9, 9) not in s
    with pytest.raises(KeyError):
        s.position((9, 9, 9))


@given(st.integers(min_value=0, max_value=10**6))
def test_positions_match_a_brute_force_index(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    # any set of distinct indices, closed or not
    rows = np.unique(rng.integers(0, 5, size=(int(rng.integers(1, 40)), dim)), axis=0)
    index_set = MultiIndexSet(rows[rng.permutation(len(rows))])
    bounds = [int(index_set.exponents[:, i].max()) for i in range(dim)]
    assert [index_set.max_exponent(i) for i in range(dim)] == bounds
    cached = index_set._bounds  # computed once, by the first query
    assert cached is not None and cached.tolist() == bounds
    index = {alpha: i for i, alpha in enumerate(index_set)}
    members = index_set.exponents[rng.permutation(len(index_set))]
    assert index_set.positions(members).tolist() == [index[tuple(a)] for a in members.tolist()]
    assert index_set._bounds is cached
    for q in rng.integers(0, 6, size=(20, dim)):
        if tuple(q.tolist()) not in index:
            with pytest.raises(KeyError):
                index_set.positions(q)
            assert tuple(q) not in index_set
    for axis in range(dim):
        for value in (-1, bounds[axis] + 1):
            q = index_set.exponents[int(rng.integers(len(index_set)))].copy()
            q[axis] = value
            with pytest.raises(KeyError):
                index_set.position(q)
            # one bad row in a batch of members fails the whole batch
            with pytest.raises(KeyError):
                index_set.positions(np.vstack([members, q]))


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=8),
)
def test_total_degree_cardinality(m, n):
    assert len(make_lp_set(m, n, 1)) == math.comb(m + n, n)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=6),
)
def test_max_degree_cardinality(m, n):
    assert len(make_lp_set(m, n, INF)) == (n + 1) ** m


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=6),
)
def test_lp_ball_nesting(m, n):
    a1 = set(make_lp_set(m, n, 1))
    a2 = set(make_lp_set(m, n, 2))
    ainf = set(make_lp_set(m, n, INF))
    assert a1 <= a2 <= ainf


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=6),
    st.sampled_from([1, 2, INF, 1.5, 3.7]),
)
def test_generated_sets_downward_closed(m, n, p):
    assert is_downward_closed(make_lp_set(m, n, p))


def test_general_p_includes_boundary():
    s = make_lp_set(2, 2, 3.0)
    assert (2, 0) in s and (0, 2) in s  # exactly on the boundary, kept
    assert (1, 1) in s  # 1 + 1 = 2 <= 8
    assert (2, 1) not in s  # 9 > 8
