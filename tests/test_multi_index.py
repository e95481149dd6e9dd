import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_axes, random_downward_closed
from mvnewton import multi_index
from mvnewton.grid import UnisolventGrid
from mvnewton.multi_index import MultiIndexSet, make_lp_set
from mvnewton.newton import (
    LagrangeCoefficients,
    divided_differences,
    eval_iterative,
    newton_to_lagrange,
)

INF = math.inf

NOT_CLOSED = "^the index set is not downward closed$"


def lower_set(tops) -> list[tuple[int, ...]]:
    """Every index componentwise below one of ``tops``: the smallest
    downward-closed set that holds them, in no particular order."""
    boxes = (itertools.product(*(range(t + 1) for t in top)) for top in tops)
    return list(set(itertools.chain.from_iterable(boxes)))


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


@pytest.mark.filterwarnings("error")
def test_make_lp_set_rejects_nan_and_negative_infinity():
    for p in (math.nan, -INF, np.float64("nan")):
        with pytest.raises(ValueError, match="must be positive"):
            make_lp_set(2, 3, p)


def _lp_oracle(m, n, p):
    """The l_p ball by enumeration, with ``make_lp_set``'s arithmetic: exact
    for p in {1, 2, inf}, otherwise the float residual ``n**p + slack`` less
    ``a_i**p``, last coordinate first."""
    slack = 0.0 if p in (1, 2) else multi_index.GENERAL_P_TOLERANCE

    def inside(alpha):
        residual = np.power(float(n), p) + slack
        for a in reversed(alpha):
            term = np.power(float(a), p)
            if term > residual:
                return False
            residual -= term
        return True

    box = itertools.product(range(n + 1), repeat=m)
    members = list(box) if p == INF else [alpha for alpha in box if inside(alpha)]
    return sorted(members, key=lambda a: tuple(reversed(a)))


@pytest.mark.filterwarnings("error")
def test_tiny_p_gives_the_cross_and_other_p_are_unchanged():
    cross = [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)]
    assert list(make_lp_set(2, 2, 1e-3)) == cross
    assert list(make_lp_set(2, 2, 1e-300)) == cross
    for p in (0.3, 0.5, 1.5, 3, 1, 2, INF):
        for m, n in [(1, 9), (2, 7), (3, 5)]:
            expected = np.array(_lp_oracle(m, n, p), dtype=np.int64).reshape(-1, m)
            exponents = make_lp_set(m, n, p).exponents
            assert exponents.dtype == expected.dtype
            assert np.array_equal(exponents, expected), (m, n, p)


def test_lex_order_compares_last_entry_first():
    # (5,3,1) < (1,0,3) < (1,1,3): compare from the last entry to the first
    members = lower_set([(1, 1, 3), (5, 3, 1), (1, 0, 3)])
    listed = list(MultiIndexSet(members))
    assert listed.index((5, 3, 1)) < listed.index((1, 0, 3)) < listed.index((1, 1, 3))
    assert listed == sorted(members, key=lambda a: a[::-1])


def test_sorting_is_idempotent_and_canonical():
    rng = np.random.default_rng(5)
    rows = np.array(lower_set(rng.integers(0, 4, size=(6, 3)).tolist()))
    shuffled = rows[rng.permutation(len(rows))]
    a = MultiIndexSet(rows)
    b = MultiIndexSet(shuffled)
    assert a == b
    assert np.array_equal(MultiIndexSet(a.exponents).exponents, a.exponents)
    keys = [tuple(reversed(t)) for t in a]
    assert keys == sorted(keys)


@pytest.mark.filterwarnings("error")
def test_duplicates_and_negatives_rejected():
    with pytest.raises(ValueError):
        MultiIndexSet([(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        MultiIndexSet([(0, -1)])
    with pytest.raises(ValueError):
        MultiIndexSet(np.zeros((0, 2), dtype=int))
    # nothing is truncated onto an integer: {(0,0),(1.7,0),(0,1.2)} is no set
    for bad in (1.7, 0.999, -0.5, math.nan, INF, -INF, 1e300):
        with pytest.raises(ValueError, match="^exponents must be non-negative integers$"):
            MultiIndexSet([(0, 0), (bad, 0), (0, 1)])
    # integral floats and other integer types are exponents
    exact = MultiIndexSet([(0, 0), (1, 0), (0, 1)])
    assert MultiIndexSet([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]) == exact
    assert MultiIndexSet(exact.exponents.astype(np.uint8)) == exact


def test_is_downward_closed():
    # only a downward-closed set can be constructed
    assert make_lp_set(3, 4, 2).tops == (4, 4, 4)
    with pytest.raises(ValueError, match=NOT_CLOSED):
        MultiIndexSet([(0, 0), (1, 1)])
    assert MultiIndexSet([(0, 1), (0, 0), (1, 0)]).tops == (1, 1)


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
        rows = list(random_downward_closed(rng, dim, int(rng.integers(1, 40)), 4))
    else:
        # a random subset of a box: mostly not closed, sometimes closed
        box = rng.integers(0, 4, size=(int(rng.integers(1, 20)), dim))
        rows = [tuple(row) for row in np.unique(box, axis=0).tolist()]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    if not brute_force_closed(rows):
        with pytest.raises(ValueError, match=NOT_CLOSED):
            MultiIndexSet(rows)
        return
    index_set = MultiIndexSet(rows)
    assert_layouts_equal(index_set.layout, multi_index._build_layout(index_set.exponents))
    # the same transforms and evaluation from a cold copy of the set, twice
    axes = random_axes(rng, [top + 1 for top in index_set.tops])
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
    # a row sort takes every column as a key; the layout's line sorts, run
    # by every construction, take one key fewer
    monkeypatch.setattr(
        multi_index.np,
        "lexsort",
        lambda keys: len(keys) == 2 and calls.append(1) or lexsort(keys),
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
    # a query with a non-integral entry is not a member, however close
    assert (1.0, 2.0, 0.0) in s and s.position((1.0, 2.0, 0.0)) == s.position((1, 2, 0))
    for q in [(0.999, 0, 0), (1, 2.5, 0), (0, 0, math.nan), (INF, 0, 0), (0, -INF, 0)]:
        assert q not in s
        with pytest.raises(KeyError):
            s.position(q)
        with pytest.raises(KeyError):
            s.positions(np.vstack([s.exponents, q]))


@given(st.integers(min_value=0, max_value=10**6))
def test_positions_match_a_brute_force_index(seed):
    rng = np.random.default_rng(seed)
    if rng.integers(2):
        # the lower set of a few random indices: boxes, crosses and staircases
        dim = int(rng.integers(1, 5))
        corners = rng.integers(0, 5, size=(int(rng.integers(1, 6)), dim))
    else:
        # a cross with arms of 2..4 along 40..48 axes and a few sparse
        # corners: the bounding box holds more than 2**63 indices
        dim = int(rng.integers(40, 49))
        sparse = np.zeros((int(rng.integers(0, 4)), dim), dtype=np.int64)
        for row in sparse:
            row[rng.choice(dim, 3, replace=False)] = rng.integers(1, 3, 3)
        corners = np.vstack([np.diag(rng.integers(2, 5, dim)), sparse])
    index_set = MultiIndexSet(lower_set(corners.tolist()))
    bounds = [int(index_set.exponents[:, i].max()) for i in range(dim)]
    assert index_set.tops == tuple(bounds)
    assert dim < 40 or math.prod(top + 1 for top in bounds) > 2**63
    index = {alpha: i for i, alpha in enumerate(index_set)}
    members = index_set.exponents[rng.permutation(len(index_set))]
    assert index_set.positions(members).tolist() == [index[tuple(a)] for a in members.tolist()]
    for q in rng.integers(0, 6, size=(20, dim)):
        if tuple(q.tolist()) not in index:
            with pytest.raises(KeyError):
                index_set.positions(q)
            assert tuple(q) not in index_set
    # one step up from a member: a member or not, as the index says
    for alpha in members[:20]:
        q = alpha.copy()
        q[int(rng.integers(dim))] += 1
        if tuple(q.tolist()) in index:
            assert index_set.position(q) == index[tuple(q.tolist())]
        else:
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
    assert brute_force_closed(list(make_lp_set(m, n, p)))


def test_general_p_includes_boundary():
    s = make_lp_set(2, 2, 3.0)
    assert (2, 0) in s and (0, 2) in s  # exactly on the boundary, kept
    assert (1, 1) in s  # 1 + 1 = 2 <= 8
    assert (2, 1) not in s  # 9 > 8
