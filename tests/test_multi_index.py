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


@pytest.mark.parametrize(
    "args, name",
    [
        ((True, 3, 2), "dimension m"),  # built a 1-D set
        ((2, True, 2), "degree n"),  # built degree 1
        ((2.0, 3, 2), "dimension m"),
        ((2, 3.0, 2), "degree n"),
        ((2, 3, True), "degree selector p"),  # built p = 1
        ((2, 3, "2"), "degree selector p"),  # built p = 2
        ((2, 3, " inf "), "degree selector p"),  # built the box
        ((2, 3, "x"), "degree selector p"),  # numpy's "could not convert string to float"
    ],
)
def test_make_lp_set_names_a_bool_or_non_integer_argument(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        make_lp_set(*args)
    # numpy integers are integers
    assert len(make_lp_set(np.int64(2), np.int32(3), 2)) == len(make_lp_set(2, 3, 2))


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
    # 1 + 4 + 4 = 27**(2/3), which only the slack on the float budget keeps
    assert (1, 8, 8) in make_lp_set(3, 27, 2 / 3)
    for p in (0.3, 0.5, 0.7, 1.5, 2.5, 3, 7.3, 1, 2, INF):
        for m, n in [(1, 9), (2, 7), (3, 5)]:
            expected = np.array(_lp_oracle(m, n, p), dtype=np.int64).reshape(-1, m)
            exponents = make_lp_set(m, n, p).exponents
            assert exponents.dtype == expected.dtype
            assert np.array_equal(exponents, expected), (m, n, p)


@pytest.mark.parametrize("n, p, label", [(2**62, 2, "2"), (2**63, 1.0, "1"), (2**1100, 0.5, "0.5")])
def test_lp_table_refuses_a_budget_past_its_range_before_the_power_table(n, p, label):
    # n**p leaves int64 (p = 1, 2) or the float range before the n + 1 powers exist
    with pytest.raises(ValueError, match=f"^degree n={n} is too large for p={label}: "):
        multi_index._lp_table(2, n, p)


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
    # duplicates are reported before closure, in any key space
    for rows in ([[5], [5]], [[1, 2**62], [1, 2**62]]):
        with pytest.raises(ValueError, match="^duplicate multi-indices are not allowed$"):
            MultiIndexSet(rows)
    for rows in ([[2**62, 0]], [[0, 2**63 - 1]], [[2**63 - 1, 0]]):
        with pytest.raises(ValueError, match=NOT_CLOSED):
            MultiIndexSet(rows)
    # integral floats and other integer types are exponents
    exact = MultiIndexSet([(0, 0), (1, 0), (0, 1)])
    assert MultiIndexSet([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]) == exact
    assert MultiIndexSet(exact.exponents.astype(np.uint8)) == exact


@pytest.mark.parametrize(
    "exponents, message",
    [
        ([0, 1, 2], "^expected a 2-d array of exponents, got ndim=1$"),
        (np.zeros((3, 0)), "^ambient dimension must be at least 1$"),
    ],
)
def test_exponents_must_be_a_table_with_a_column(exponents, message):
    with pytest.raises(ValueError, match=message):
        MultiIndexSet(exponents)


def test_a_set_cannot_be_changed():
    index_set = make_lp_set(2, 2, 1)
    with pytest.raises(AttributeError, match="^MultiIndexSet is immutable$"):
        index_set.dim = 3
    assert index_set.dim == 2


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


def assert_basis_plans_equal(a, b):
    assert a.stops == b.stops
    for x, y in zip(a.levels, b.levels, strict=True):
        assert len(x) == len(y)
        for (rows_a, u), (rows_b, v) in zip(x, y):
            assert rows_a == rows_b
            assert u == v if isinstance(u, slice) else np.array_equal(u, v)


def assert_layouts_equal(a, b):
    for x, y in zip(a.lines, b.lines, strict=True):
        assert x.reach == y.reach
        assert x.cell.dtype == y.cell.dtype and np.array_equal(x.cell, y.cell)
    assert (a.fold.split, a.fold.groups) == (b.fold.split, b.fold.groups)
    assert a.fold.cell.dtype == b.fold.cell.dtype and np.array_equal(a.fold.cell, b.fold.cell)
    assert (a.fold.tail is None) == (b.fold.tail is None)
    if a.fold.tail is not None:
        assert_basis_plans_equal(a.fold.tail, b.fold.tail)
    assert_basis_plans_equal(a.basis, b.basis)


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
    rebuilt = multi_index._build_layout(index_set.exponents, index_set._key, index_set._weights)
    assert_layouts_equal(index_set.layout, rebuilt)
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


def _stepped_projection(index_set: MultiIndexSet, split: int) -> np.ndarray:
    """The position of each row's projection onto axes ``0..split - 1``, by
    stepping every row down to level 0 along the lines of each later axis."""
    exponents, lines = index_set.exponents, index_set.layout.lines
    projection = np.arange(len(index_set))
    for i in range(index_set.dim - 1, split - 1, -1):
        level = exponents[:, i]
        width = lines[i].reach[0]
        line = lines[i].cell - level * width
        base = np.flatnonzero(level == 0)
        bottom = np.empty(width, dtype=np.intp)
        bottom[line[base]] = base
        projection = bottom[line[projection]]
    return projection


@given(st.integers(min_value=0, max_value=10**6))
def test_fold_plan_cells_match_stepping_every_row(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    index_set = random_downward_closed(rng, dim, int(rng.integers(1, 200)), max_degree=6)
    exponents, layout = index_set.exponents, index_set.layout
    for split in range(1, dim + 1):
        plan = multi_index._build_layout(exponents, index_set._key, index_set._weights, split).fold
        row, column = np.divmod(plan.cell, layout.basis.stops[split - 1])
        assert np.array_equal(column, _stepped_projection(index_set, split))
        # one GEMM row per group of rows sharing the coordinates after split
        tails = np.unique(exponents[:, split:], axis=0, return_inverse=True)[1].ravel()
        first = np.unique(tails, return_index=True)[1]
        assert np.array_equal(row, row[first][tails])
        assert np.array_equal(np.unique(row), np.arange(first.size)) and plan.groups == first.size
        # the GEMM rows are the tails in canonical order, whose basis plan
        # the fold walks in reverse
        assert (np.diff(plan.cell) > 0).all()
        if split == dim:
            assert plan.tail is None
        else:
            tails = MultiIndexSet(np.unique(exponents[:, split:], axis=0))
            assert_basis_plans_equal(plan.tail, tails.layout.basis)


def lines_oracle(exponents: np.ndarray, axis: int):
    """``(cell, reach, root)`` along ``axis`` in plain Python: the rows grouped
    into lines by their other coordinates, the lines ordered by the position
    of their level-0 row, then stably by length, longest first."""
    lines = {}
    for k, alpha in enumerate(exponents.tolist()):
        lines.setdefault(tuple(alpha[:axis] + alpha[axis + 1 :]), []).append(k)
    ordered = sorted(lines.values(), key=lambda line: line[0])  # line[0] is level 0
    ordered.sort(key=len, reverse=True)  # stable
    cell = [0] * len(exponents)
    root = [0] * len(exponents)
    for column, line in enumerate(ordered):
        for level, k in enumerate(line):
            cell[k] = level * len(ordered) + column
            root[k] = line[0]
    reach = tuple(sum(len(line) > level for line in ordered) for level in range(len(ordered[0])))
    return np.array(cell, dtype=np.int32), reach, np.array(root)


def assert_lines_match_oracle(index_set: MultiIndexSet):
    exponents = index_set.exponents
    for axis, lines in enumerate(index_set.layout.lines):
        cell, reach, root = lines_oracle(exponents, axis)
        assert lines.reach == reach
        assert lines.cell.dtype == cell.dtype and np.array_equal(lines.cell, cell)
        key, weights = index_set._key, index_set._weights
        assert np.array_equal(multi_index._axis_lines(exponents, key, weights, axis)[1], root)


@given(st.integers(min_value=0, max_value=10**6))
def test_axis_lines_match_a_plain_python_oracle(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    rows = random_downward_closed(rng, dim, int(rng.integers(1, 150)), max_degree=6).exponents
    assert_lines_match_oracle(MultiIndexSet(rows[rng.permutation(len(rows))]))


@pytest.mark.parametrize("m, n, p", [(70, 1, 1), (40, 2, 1)])
def test_axis_lines_match_the_oracle_past_the_int64_key_space(m, n, p):
    index_set = make_lp_set(m, n, p)
    # the spans multiply past int64, so the key, and every line sort, runs
    # in exact Python ints
    assert (n + 1) ** m > 2**63 and index_set._key.dtype == object
    assert_lines_match_oracle(index_set)


@given(st.integers(min_value=0, max_value=10**6))
def test_canonical_key_orders_and_ties_as_lexsort(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 71))
    tops = rng.choice(np.array([0, 1, 3, 2**20, 2**62, 2**63 - 1], dtype=np.uint64), size=dim)
    rows = rng.integers(0, tops + 1, size=(int(rng.integers(1, 40)), dim), dtype=np.uint64)
    rows = rows.astype(np.int64)[rng.integers(0, len(rows), size=len(rows) + 10)]  # with repeats
    tops = rows.max(axis=0).tolist()
    key, _ = multi_index._radix_key(rows, tops)
    # int64 exactly while every key and weight fits
    assert key.dtype == (np.int64 if math.prod(top + 1 for top in tops) < 2**63 else object)
    assert np.array_equal(np.argsort(key, kind="stable"), np.lexsort(rows.T))
    equal_rows = (rows[:, None, :] == rows[None, :, :]).all(axis=2)
    assert np.array_equal(key[:, None] == key[None, :], equal_rows)


def test_canonical_input_skips_sorting_but_keeps_checks(monkeypatch):
    rows = make_lp_set(2, 3, 1).exponents
    calls = []
    argsort = np.argsort
    # every construction sorts the rows once per axis to find its lines, and
    # once more where they are not canonical; the sorts of line lengths are
    # shorter
    monkeypatch.setattr(
        multi_index.np,
        "argsort",
        lambda a, **kw: len(a) == len(rows) and calls.append(1) or argsort(a, **kw),
    )
    MultiIndexSet(rows)
    assert len(calls) == 2
    calls.clear()
    assert np.array_equal(MultiIndexSet(rows[::-1]).exponents, rows) and len(calls) == 2 + 1
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
    # anything but a length-m numeric vector is not a member
    for q in [(1, 0), (0, 0, 0, 0), (), 0, "ab", "abc", ("0", "0", "0"), None, [[0, 0, 0]],
              [(0, 1), 0, 0], (0j, 0, 0), {"a": 1}]:
        assert q not in s
    assert (1, 0) in make_lp_set(2, 2, 1) and np.array([0, 1, 1]) in s
    # position and positions still reject a wrong width, and positions any
    # shape but (m,) and (k, m)
    for q in [(1, 0), (0, 0, 0, 0)]:
        with pytest.raises(ValueError, match="3 columns"):
            s.position(q)
        with pytest.raises(ValueError, match="3 columns"):
            s.positions(np.array([q]))
    shape = r"^queries must have 3 columns: shape \(3,\) or \(k, 3\)"
    for q in [np.zeros((1, 3, 3), int), np.zeros((2, 3, 1), int), np.array(0)]:
        with pytest.raises(ValueError, match=shape):
            s.positions(q)
    # position takes one multi-index, and names its shape
    one = r"^a multi-index needs 3 columns: shape \(3,\), got "
    for q, got in [(0, r"\(\)$"), (np.array(0), r"\(\)$"), (np.zeros((2, 3), int), r"\(2, 3\)$")]:
        with pytest.raises(ValueError, match=one + got):
            s.position(q)


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
