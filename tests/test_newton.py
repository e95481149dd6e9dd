import itertools
import json
import logging
import math
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    hyperbolic_cross,
    lcl_grid,
    newton_basis_oracle,
    newton_collocation_matrix,
    random_axes,
    random_downward_closed,
    same_bits,
)
from mvnewton import multi_index, newton
from mvnewton.grid import (
    Nodes1D,
    UnisolventGrid,
    axes_for,
    build_grid,
)
from mvnewton.multi_index import MultiIndexSet, make_lp_set
from mvnewton.newton import (
    LagrangeCoefficients,
    NewtonPolynomial,
    NonFiniteSampleError,
    divided_differences,
    eval_derivative,
    eval_iterative,
    eval_recursive,
    interpolate,
    lagrange_basis_in_newton,
    lagrange_newton_matrix,
    load_bundle,
    newton_basis_values,
    newton_to_lagrange,
    save_bundle,
)

INF = math.inf


def two_point_axis():
    return Nodes1D(np.array([1.0, -1.0]))


def xy_grid():
    return build_grid(make_lp_set(2, 1, INF), [two_point_axis()] * 2)


def test_array_holders_compare_by_identity_and_hash():
    # an equality generated over ndarray fields raised on == and hash()
    grid, twin = xy_grid(), xy_grid()
    values = [1.0, 2.0, 3.0, 4.0]
    for a, b in (
        (grid.axes[0], twin.axes[0]),
        (grid, twin),
        (NewtonPolynomial(grid, values), NewtonPolynomial(grid, values)),
        (LagrangeCoefficients(grid, values), LagrangeCoefficients(grid, values)),
    ):
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a)
        assert {a, b, a} == {a, b} and len({a, b}) == 2


def test_two_point_identity_coefficients():
    grid = build_grid(make_lp_set(1, 1, 1), [two_point_axis()])
    poly = interpolate(lambda pts: pts[:, 0], grid)
    assert np.allclose(poly.coeffs, [1.0, 1.0], atol=1e-15)


def test_constant_gives_single_nonzero_coefficient():
    grid = lcl_grid(2, 3, 2)
    poly = interpolate(lambda pts: np.full(pts.shape[0], 3.0), grid)
    assert abs(poly.coeffs[0] - 3.0) < 1e-14
    assert np.abs(poly.coeffs[1:]).max() < 1e-14


def test_bilinear_product_coefficients():
    poly = interpolate(lambda p: p[:, 0] * p[:, 1], xy_grid())
    # 1 + (x-1) + (y-1) + (x-1)(y-1) = xy
    assert np.allclose(poly.coeffs, [1.0, 1.0, 1.0, 1.0], atol=1e-15)


def test_eval_matches_bilinear_product():
    poly = interpolate(lambda p: p[:, 0] * p[:, 1], xy_grid())
    assert eval_iterative(poly, [0.5, -0.25]) == pytest.approx(-0.125, abs=1e-14)
    assert eval_recursive(poly, [0.5, -0.25]) == pytest.approx(-0.125, abs=1e-14)


def test_calling_a_polynomial_evaluates_it(rng):
    poly = interpolate(lambda p: np.exp(p[:, 0] - p[:, 1] ** 2), lcl_grid(2, 5, 2))
    pts = rng.uniform(-1, 1, (40, 2))
    assert same_bits(poly(pts), eval_iterative(poly, pts))
    assert poly(pts[0]) == eval_iterative(poly, pts[0])


def test_evaluators_refuse_points_of_the_wrong_shape():
    poly = interpolate(lambda p: p[:, 0] * p[:, 1], xy_grid())
    with pytest.raises(ValueError, match=r"^points must have shape \(m,\) or \(k, m\) with m=2$"):
        eval_iterative(poly, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="^eval_recursive evaluates a single point$"):
        eval_recursive(poly, np.zeros((4, 2)))


def test_eval_reproduces_samples_at_nodes(rng):
    grid = lcl_grid(2, 4, 2)
    values = rng.standard_normal(len(grid))
    poly = divided_differences(LagrangeCoefficients(grid, values))
    at_nodes = eval_iterative(poly, grid.node_coordinates)
    scale = 1.0 + np.abs(values).max()
    assert np.abs(at_nodes - values).max() <= 1e-12 * scale


def test_unit_coefficient_gives_basis_product():
    grid = lcl_grid(2, 3, 1)
    beta = (2, 1)
    pos = grid.index_set.position(beta)
    coeffs = np.zeros(len(grid))
    coeffs[pos] = 1.0
    poly = NewtonPolynomial(grid, coeffs)
    x = grid.node_coordinates[pos]
    expected = 1.0
    for i in range(2):
        for j in range(beta[i]):
            expected *= x[i] - grid.axes[i].points[j]
    assert eval_iterative(poly, x) == pytest.approx(expected, rel=1e-14)


def test_zero_and_constant_coefficient_vectors():
    grid = lcl_grid(2, 2, 2)
    zero = NewtonPolynomial(grid, np.zeros(len(grid)))
    assert eval_iterative(zero, [0.3, -0.4]) == 0.0
    e0 = np.zeros(len(grid))
    e0[0] = 1.0
    one = NewtonPolynomial(grid, e0)
    assert eval_iterative(one, [0.3, -0.4]) == 1.0


def test_recursive_iterative_agree(rng):
    for _ in range(25):
        dim = int(rng.integers(1, 4))
        index_set = random_downward_closed(rng, dim, int(rng.integers(2, 60)), 6)
        axes = random_axes(rng, [top + 1 for top in index_set.tops])
        grid = build_grid(index_set, axes)
        poly = NewtonPolynomial(grid, rng.standard_normal(len(grid)))
        x = rng.uniform(-1, 1, dim)
        a = eval_recursive(poly, x)
        b = eval_iterative(poly, x)
        assert abs(a - b) <= 1e-13 * (1.0 + abs(a))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40)
def test_fold_matches_basis_matrix_oracle(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    index_set = random_downward_closed(rng, dim, int(rng.integers(1, 120)), 7)
    tops = index_set.tops
    grid = build_grid(index_set, random_axes(rng, [top + 1 for top in tops]))
    coeffs = rng.standard_normal(len(grid))
    poly = NewtonPolynomial(grid, coeffs)
    pts = rng.uniform(-1, 1, (int(rng.integers(1, 30)), dim))
    # up to two above an axis's top degree, where the derivative vanishes
    order = tuple(int(rng.integers(0, top + 3)) for top in tops)
    derivative = eval_derivative(poly, order, pts)
    for got, basis in (
        (derivative, newton_basis_values(grid, pts, order)),
        (eval_iterative(poly, pts), newton_basis_values(grid, pts)),
    ):
        scale = 1.0 + np.abs(basis).dot(np.abs(coeffs)).max()
        assert np.abs(got - basis @ coeffs).max() <= 1e-13 * scale
    if any(o > top for o, top in zip(order, tops)):
        assert not derivative.any()
    for x in pts[:3]:
        a = eval_recursive(poly, x)
        assert abs(eval_iterative(poly, x) - a) <= 1e-13 * (1.0 + abs(a))


@given(st.integers(min_value=0, max_value=10**6))
def test_newton_basis_values_is_the_product_formula_bitwise(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    index_set = random_downward_closed(rng, dim, int(rng.integers(1, 90)), 6)
    tops = index_set.tops
    grid = build_grid(index_set, random_axes(rng, [top + 1 for top in tops]))
    pts = rng.uniform(-1, 1, (int(rng.integers(1, 25)), dim))
    # up to two above an axis's top degree, where the factor is exactly zero
    order = tuple(int(rng.integers(0, top + 3)) for top in tops)
    for o in (None, order):
        basis = newton_basis_values(grid, pts, o)
        assert same_bits(basis, newton_basis_oracle(grid, pts, o))
        assert same_bits(newton_basis_values(grid, pts[0], o), basis[0])
    if any(o > top for o, top in zip(order, tops)):
        assert not newton_basis_values(grid, pts, order).any()


def test_newton_basis_values_edge_shapes():
    grid = lcl_grid(3, 4, 2)
    assert newton_basis_values(grid, np.empty((0, 3))).shape == (0, len(grid))
    # a single-index set and a set with only level 0 on its later axes
    for index_set in (make_lp_set(2, 0, 1), MultiIndexSet([(0, 0, 0), (1, 0, 0), (2, 0, 0)])):
        grid = build_grid(index_set, axes_for(index_set, "lcl"))
        pts = np.random.default_rng(1).uniform(-1, 1, (4, index_set.dim))
        for order in (None, (1,) + (0,) * (index_set.dim - 1), (0,) * (index_set.dim - 1) + (1,)):
            basis = newton_basis_values(grid, pts, order)
            assert same_bits(basis, newton_basis_oracle(grid, pts, order))


def rule_split(index_set: MultiIndexSet) -> tuple[int, list[int]]:
    """The fold's split by its rule, counted from the exponents, and ``G_j``,
    the groups of indices sharing ``a_{j+1}..a_m``, for ``j = 1..m``.  The
    rule takes the fewest scratch rows per point, ``[j > 1] |P_j| + G_j``
    (basis block and GEMM output), and the larger ``j`` on a tie."""
    exps, dim = index_set.exponents, index_set.dim
    sizes = [int((exps[:, j:] == 0).all(axis=1).sum()) for j in range(1, dim + 1)]
    groups = [np.unique(exps[:, j:], axis=0).shape[0] for j in range(1, dim + 1)]
    scratch = [(j > 1) * sizes[j - 1] + groups[j - 1] for j in range(1, dim + 1)]
    return max(j for j in range(1, dim + 1) if scratch[j - 1] == min(scratch)), groups


def tensor_set(tops) -> MultiIndexSet:
    """The box ``0 <= a_i <= tops[i]``."""
    return MultiIndexSet(list(itertools.product(*(range(top + 1) for top in tops))))


def with_fold_split(index_set: MultiIndexSet, split: int) -> MultiIndexSet:
    """A fresh copy of ``index_set`` whose fold contracts its first ``split``
    axes in the GEMM, whatever the rule of the plan would choose."""
    fresh = MultiIndexSet(index_set.exponents)
    # the constructor sets its slots the same way, past the immutability guard
    layout = multi_index._build_layout(fresh.exponents, fresh._key, fresh._weights, split)
    object.__setattr__(fresh, "layout", layout)
    return fresh


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40)
def test_fold_matches_basis_matrix_oracle_at_every_split(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 7))
    index_set = random_downward_closed(rng, dim, int(rng.integers(1, 120)), 6)
    tops = index_set.tops
    split, groups = rule_split(index_set)
    assert index_set.layout.fold.split == split
    axes = random_axes(rng, [top + 1 for top in tops])
    grid = build_grid(index_set, axes)
    coeffs = rng.standard_normal(len(grid))
    pts = rng.uniform(-1, 1, (int(rng.integers(1, 30)), dim))
    # up to two above an axis's top degree, where the derivative vanishes
    order = tuple(int(rng.integers(0, top + 3)) for top in tops)
    oracles = [newton_basis_values(grid, pts), newton_basis_values(grid, pts, order)]
    for split in range(1, dim + 1):
        poly = NewtonPolynomial(build_grid(with_fold_split(index_set, split), axes), coeffs)
        plan = poly.grid.index_set.layout.fold
        assert (plan.split, plan.groups) == (split, groups[split - 1])
        evaluated = (eval_iterative(poly, pts), eval_derivative(poly, order, pts))
        for got, basis in zip(evaluated, oracles):
            scale = 1.0 + np.abs(basis).dot(np.abs(coeffs)).max()
            assert np.abs(got - basis @ coeffs).max() <= 1e-13 * scale


@given(st.integers(min_value=0, max_value=10**6))
def test_collapse_sums_rows_against_the_tail_basis(seed):
    # the reverse walk of the tail plan against the basis values it builds,
    # at every split that leaves a tail and at random derivative orders
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    index_set = random_downward_closed(rng, dim, int(rng.integers(1, 120)), 6)
    tops = index_set.tops
    axes = random_axes(rng, [top + 1 for top in tops])
    columns = rng.uniform(-1, 1, (dim, int(rng.integers(1, 20))))
    # up to two above an axis's top degree, where the derivative vanishes
    order = tuple(int(rng.integers(0, top + 3)) for top in tops)
    for split in range(1, dim):
        tail = with_fold_split(index_set, split).layout.fold.tail
        args = tail, tops[split:], axes[split:], columns[split:], order[split:]
        acc = rng.standard_normal((tail.stops[-1], columns.shape[1]))
        basis = newton._basis_rows(*args, dim - split)
        got = newton._collapse_rows(*args, acc.copy())
        scale = 1.0 + np.abs(acc * basis).sum(0).max()
        assert np.abs(got - (acc * basis).sum(0)).max() <= 1e-13 * scale


def test_fold_split_rule():
    def split(m, n, p):
        return make_lp_set(m, n, p).layout.fold.split

    # m = 3 balls fold at 1: at (3, 28, 2) the 642 GEMM rows of split 1
    # against 642 + 29 rows of basis block and GEMM output at split 2
    assert {split(3, n, p) for n in range(6, 41) for p in (1, 2)} == {1}
    assert split(3, 20, INF) == 1 and split(3, 60, 0.5) == 1
    assert split(2, 100, 2) == 1
    # even m takes the square split, odd m >= 5 the larger of two tied splits
    assert {split(6, n, 1) for n in range(2, 11)} == {3}
    assert split(4, 28, 2) == 2 and split(8, 6, 2) == 4
    assert split(5, 10, 2) == 3 and split(7, 8, 1) == 4
    # tall sets: split 2 of a 2D box is a one-row GEMM over the whole basis
    for tops, expected in (((10, 40), 1), ((40, 10), 1), ((5, 200), 1), ((6, 6, 40), 2)):
        assert tensor_set(tops).layout.fold.split == expected, tops
    # every l_p ball, counted from its exponents
    for m, p in itertools.product(range(1, 9), (0.5, 1, 2, INF)):
        for n in range(11):
            # the balls grow with n, so the first one past the size limit
            # ends the degrees of (m, p)
            if len(multi_index._lp_table(m, n, p)) > 20_000:
                break
            assert split(m, n, p) == rule_split(make_lp_set(m, n, p))[0], (m, n, p)


def test_fold_chunks_agree_with_one_chunk(monkeypatch):
    # (3, 8, 2) contracts one axis in its GEMM by the rule, and two through
    # a basis block; (6, 4, 1) three by the rule
    for (m, n, p), split in (((3, 8, 2), 1), ((3, 8, 2), 2), ((6, 4, 1), 3)):
        grid = lcl_grid(m, n, p)
        grid = build_grid(with_fold_split(grid.index_set, split), grid.axes)
        plan = grid.index_set.layout.fold
        assert plan.split == split
        rng = np.random.default_rng(3)
        poly = NewtonPolynomial(grid, rng.standard_normal(len(grid)))
        pts = rng.uniform(-1, 1, (103, m))
        order = (1,) + (0,) * (m - 2) + (2,)
        whole = [eval_iterative(poly, pts), eval_derivative(poly, order, pts)]
        width = grid.index_set.layout.basis.stops[split - 1]
        assert plan.groups == np.unique(grid.index_set.exponents[:, split:], axis=0).shape[0]
        # per point: the basis block, the GEMM output and the axis tables
        per_point = width + plan.groups + sum(top + 1 for top in grid.index_set.tops)
        with monkeypatch.context() as patch:
            patch.setattr(newton, "_CHUNK_BUDGET", per_point * 10)
            widths = []
            table = newton._axis_table

            def spy(points, top, x, order):
                widths.append(x.size)
                return table(points, top, x, order)

            patch.setattr(newton, "_axis_table", spy)
            chunked = [eval_iterative(poly, pts), eval_derivative(poly, order, pts)]
        # ten full chunks and one ragged, with one table per axis each
        assert widths == 2 * ([10] * m * 10 + [3] * m), split
        # not bitwise: BLAS may split a narrower GEMM differently
        for a, b in zip(whole, chunked):
            assert np.abs(a - b).max() <= 1e-15 * np.abs(a).max()


@pytest.mark.parametrize(
    "m, n, p, order",
    [(3, 28, 2, (1, 0, 0)), (6, 8, 1, (0,) * 6), (4, 16, 2, (0, 1, 0, 0))],
    ids=["m3", "m6", "m4"],  # (4, 16, 2) has G = |P| = 216
)
def test_fold_holds_its_chunk_budget(m, n, p, order):
    # Counted by tracemalloc, which sees every numpy buffer: per chunk the
    # basis block, the GEMM output and the axis tables, together within the
    # budget; besides them, the coefficient matrix, the transposed points
    # and the output.
    grid = lcl_grid(m, n, p)
    rng = np.random.default_rng(7)
    poly = NewtonPolynomial(grid, rng.standard_normal(len(grid)))
    pts = rng.uniform(-1, 1, (10_000, m))
    plan = grid.index_set.layout.fold
    width = grid.index_set.layout.basis.stops[plan.split - 1]
    bound = 8 * (newton._CHUNK_BUDGET + plan.groups * width + (m + 1) * len(pts))
    tracemalloc.start()
    try:
        eval_derivative(poly, order, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_fold_edge_cases():
    grid = lcl_grid(3, 4, 2)
    poly = NewtonPolynomial(grid, np.random.default_rng(5).standard_normal(len(grid)))
    for out in (
        eval_iterative(poly, np.empty((0, 3))),
        eval_derivative(poly, (0, 1, 0), np.empty((0, 3))),
    ):
        assert out.shape == (0,)
    assert type(eval_iterative(poly, [0.1, 0.2, 0.3])) is float
    assert type(eval_derivative(poly, (1, 0, 0), [0.1, 0.2, 0.3])) is float
    constant = NewtonPolynomial(lcl_grid(2, 0, 1), [2.5])
    pts = np.random.default_rng(6).uniform(-1, 1, (7, 2))
    assert np.array_equal(eval_iterative(constant, pts), np.full(7, 2.5))
    assert not eval_derivative(constant, (0, 1), pts).any()
    plan = make_lp_set(1, 6, 1).layout.fold
    assert (plan.split, plan.groups, plan.tail) == (1, 1, None)
    assert plan.cell.tolist() == list(range(7))
    # runs of l_1 (2, 2): a_2 = 0 holds a_1 = 0..2, a_2 = 1 holds 0..1, a_2 = 2
    # holds 0; each run is a GEMM row, listed by a_2, and a_1 is its column.
    # The tails a_2 = 0..2 are one line, so their plan has no later axis
    plan = make_lp_set(2, 2, 1).layout.fold
    assert (plan.split, plan.groups) == (1, 3)
    assert plan.cell.tolist() == [0, 1, 2, 3, 4, 6]
    assert plan.tail == ((3,), ())
    # l_1 (1, 1, 1) contracts one axis by the rule: its 3 GEMM rows against
    # 3 + 2 rows at two axes.  Its runs are (a_2, a_3) = (0, 0), (1, 0),
    # (0, 1) in canonical order, and the tail (0, 1) is built from (0, 0),
    # row 0, as level 1 of axis 2
    plan = make_lp_set(3, 1, 1).layout.fold
    assert (plan.split, plan.groups) == (1, 3)
    assert plan.cell.tolist() == [0, 1, 2, 4]
    assert plan.tail == ((2, 3), ([(slice(2, 3), slice(0, 1))],))
    # l_1 (6, 1) contracts one axis by the rule: its 6 GEMM rows against
    # |P_j| + G_j = 8 rows at every later split.  At three, P_3 = {0, e_1,
    # e_2, e_3} and the 4 groups, one per value of (a_4, a_5, a_6), make the
    # GEMM square.  The tails 0, e_4, e_5, e_6 are the GEMM rows in that
    # order, and each of e_5, e_6 is built from 0
    assert make_lp_set(6, 1, 1).layout.fold.split == 1
    plan = with_fold_split(make_lp_set(6, 1, 1), 3).layout.fold
    assert (plan.split, plan.groups) == (3, 4)
    assert plan.cell.tolist() == [0, 1, 2, 3, 4, 8, 12]
    level_1 = [(slice(2, 3), slice(0, 1))], [(slice(3, 4), slice(0, 1))]
    assert plan.tail == ((2, 3, 4), level_1)


def test_divided_differences_matches_collocation_solve(rng):
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        index_set = random_downward_closed(rng, dim, int(rng.integers(2, 50)), 8)
        axes = random_axes(rng, [top + 1 for top in index_set.tops])
        grid = build_grid(index_set, axes)
        values = rng.standard_normal(len(grid))
        fast = divided_differences(LagrangeCoefficients(grid, values)).coeffs
        oracle = np.linalg.solve(newton_collocation_matrix(grid), values)
        scale = 1.0 + np.abs(oracle).max()
        assert np.abs(fast - oracle).max() <= 1e-9 * scale


def test_collocation_matrix_lower_triangular():
    grid = lcl_grid(2, 3, 2)
    mat = newton_collocation_matrix(grid)
    assert np.abs(np.triu(mat, k=1)).max() == 0.0
    assert np.abs(np.diag(mat)).min() > 0.0


def test_interpolate_exact_on_own_space(rng):
    # random member of the polynomial space, exact reproduction at random points
    grid = lcl_grid(3, 4, 2)
    exps = grid.index_set.exponents
    coeffs = rng.uniform(-1, 1, len(grid))

    def f(pts):
        out = np.zeros(pts.shape[0])
        for c, e in zip(coeffs, exps):
            out += c * np.prod(pts**e, axis=1)
        return out

    poly = interpolate(f, grid)
    pts = rng.uniform(-1, 1, (1000, 3))
    err = np.abs(eval_iterative(poly, pts) - f(pts)).max()
    assert err <= 1e-10 * max(1.0, np.abs(f(pts)).max())


def test_interpolate_newton_basis_function_gives_unit_vector():
    grid = lcl_grid(2, 3, 1)
    beta = (1, 2)
    pos = grid.index_set.position(beta)

    def f(pts):
        return newton_basis_values(grid, pts)[:, pos]

    poly = interpolate(f, grid)
    expected = np.zeros(len(grid))
    expected[pos] = 1.0
    assert np.abs(poly.coeffs - expected).max() < 1e-12


def test_interpolate_rejects_non_finite():
    grid = lcl_grid(1, 2, 1)

    def bad(pts):
        out = np.ones(pts.shape[0])
        out[pts[:, 0] < 0] = np.nan
        return out

    with pytest.raises(NonFiniteSampleError) as err:
        interpolate(bad, grid)
    assert str(err.value) == "f returned nan at node (-1.0,)"
    # plain floats, not numpy reprs such as np.float64(nan)
    with pytest.raises(NonFiniteSampleError, match=r"^f returned inf at node \(1\.0, 1\.0\)$"):
        interpolate(lambda x: np.full(len(x), np.inf), lcl_grid(2, 2, 1))


def test_interpolate_overflow_names_the_total_degree():
    # on [-1, 1] the coefficients grow like 2**|alpha|_1
    with pytest.raises(FloatingPointError, match=r"overflowed; the total degree \|alpha\|_1"):
        interpolate(lambda x: 1.0 / (1.0 + 25.0 * x[:, 0] ** 2), lcl_grid(1, 1500, 2))


def test_interpolate_accepts_scalar_callable(caplog):
    grid = lcl_grid(2, 2, 1)
    with caplog.at_level(logging.DEBUG, logger="mvnewton.newton"):
        poly = interpolate(lambda x: float(x[0] + 2.0 * x[1]), grid)
    assert eval_iterative(poly, [0.3, 0.4]) == pytest.approx(1.1, rel=1e-13)
    assert f"node by node ({len(grid)} calls): f raised TypeError" in caplog.text


def test_interpolate_propagates_other_errors_of_a_vectorized_f():
    grid = lcl_grid(2, 2, 1)
    calls = []

    def f(pts):
        calls.append(pts.shape)
        if pts.ndim == 2:
            raise ZeroDivisionError("bug in the vectorized branch")
        return float(pts.sum())

    with pytest.raises(ZeroDivisionError):
        interpolate(f, grid)
    assert calls == [(len(grid), 2)]


def test_divided_differences_linearity(rng):
    grid = lcl_grid(2, 4, 2)
    f = rng.standard_normal(len(grid))
    g = rng.standard_normal(len(grid))
    a, b = 0.7, -2.2
    combo = divided_differences(LagrangeCoefficients(grid, a * f + b * g)).coeffs
    separate = (
        a * divided_differences(LagrangeCoefficients(grid, f)).coeffs
        + b * divided_differences(LagrangeCoefficients(grid, g)).coeffs
    )
    scale = 1.0 + np.abs(separate).max()
    assert np.abs(combo - separate).max() <= 1e-13 * scale


def test_round_trip_newton_lagrange(rng):
    grid = lcl_grid(3, 3, 2)
    coeffs = rng.standard_normal(len(grid))
    poly = NewtonPolynomial(grid, coeffs)
    back = divided_differences(newton_to_lagrange(poly)).coeffs
    scale = 1.0 + np.abs(coeffs).max()
    assert np.abs(back - coeffs).max() <= 1e-12 * scale


def test_newton_to_lagrange_matches_direct_evaluation(rng):
    grid = lcl_grid(2, 4, 1)
    poly = NewtonPolynomial(grid, rng.standard_normal(len(grid)))
    values = newton_to_lagrange(poly).values
    direct = eval_iterative(poly, grid.node_coordinates)
    assert np.abs(values - direct).max() <= 1e-12 * (1.0 + np.abs(values).max())


def test_newton_to_lagrange_constant():
    grid = lcl_grid(2, 2, 2)
    coeffs = np.zeros(len(grid))
    coeffs[0] = 3.0
    assert np.allclose(newton_to_lagrange(NewtonPolynomial(grid, coeffs)).values, 3.0)


@pytest.mark.filterwarnings("error")
def test_newton_to_lagrange_overflow_names_the_total_degree():
    # an overflow in the inverse transform is a numerical failure, not bad
    # input, and numpy's overflow warnings stay inside the transform
    grid = lcl_grid(2, 3, 2)
    poly = NewtonPolynomial(grid, np.full(len(grid), 1.5e308))
    message = r"^the values at the nodes overflowed; the total degree \|alpha\|_1"
    with pytest.raises(FloatingPointError, match=message):
        newton_to_lagrange(poly)


def test_unit_newton_coefficient_lower_triangular_values():
    grid = lcl_grid(2, 2, 2)
    beta = (1, 1)
    pos = grid.index_set.position(beta)
    coeffs = np.zeros(len(grid))
    coeffs[pos] = 1.0
    values = newton_to_lagrange(NewtonPolynomial(grid, coeffs)).values
    # N_beta vanishes at every node whose index precedes beta
    assert np.abs(values[:pos]).max() <= 1e-14


def test_lagrange_basis_kronecker_delta():
    grid = lcl_grid(2, 3, 2)
    for alpha in [(0, 0), (1, 2), (3, 0)]:
        basis = lagrange_basis_in_newton(grid, alpha)
        vals = eval_iterative(basis, grid.node_coordinates)
        expected = np.zeros(len(grid))
        expected[grid.index_set.position(alpha)] = 1.0
        assert np.abs(vals - expected).max() <= 1e-10


def test_lagrange_basis_rejects_foreign_index():
    grid = lcl_grid(2, 2, 1)
    with pytest.raises(ValueError):
        lagrange_basis_in_newton(grid, (5, 5))
    # a fractional entry is not rounded onto a member
    with pytest.raises(ValueError):
        lagrange_basis_in_newton(grid, (0.5, 0))


def test_lagrange_partition_of_unity(rng):
    grid = lcl_grid(2, 3, 1)
    mat = lagrange_newton_matrix(grid)
    pts = rng.uniform(-1, 1, (50, 2))
    nb = newton_basis_values(grid, pts)
    totals = (nb @ mat).sum(axis=1)
    assert np.abs(totals - 1.0).max() <= 1e-12


def test_two_point_lagrange_basis_coefficients():
    grid = build_grid(make_lp_set(1, 1, 1), [two_point_axis()])
    basis = lagrange_basis_in_newton(grid, (0,))
    # L_0(x) = (x + 1) / 2 on nodes (1, -1): value 1 at p_0 = 1, slope 1/2
    assert np.allclose(basis.coeffs, [1.0, 0.5], atol=1e-15)
    assert eval_iterative(basis, [[-1.0]]) == pytest.approx(0.0, abs=1e-15)
    assert eval_iterative(basis, [[0.0]]) == pytest.approx(0.5, abs=1e-15)


def test_derivative_of_quadratic():
    grid = lcl_grid(2, 2, INF)
    poly = interpolate(lambda p: p[:, 0] ** 2, grid)
    assert eval_derivative(poly, (1, 0), [0.3, 0.7]) == pytest.approx(0.6, rel=1e-12)


def test_derivative_zero_order_equals_iterative(rng):
    grid = lcl_grid(3, 3, 2)
    poly = NewtonPolynomial(grid, rng.standard_normal(len(grid)))
    pts = rng.uniform(-1, 1, (20, 3))
    assert np.array_equal(
        eval_derivative(poly, (0, 0, 0), pts), eval_iterative(poly, pts)
    )


def test_derivative_matches_finite_differences():
    grid = lcl_grid(2, 20, INF)
    poly = interpolate(lambda p: 1.0 / (1.0 + (p**2).sum(axis=1)), grid)
    x = np.array([0.2, 0.1])
    h = 1e-5
    for axis in range(2):
        step = np.zeros(2)
        step[axis] = h
        fd = (eval_iterative(poly, x + step) - eval_iterative(poly, x - step)) / (2 * h)
        order = tuple(int(axis == i) for i in range(2))
        exact = eval_derivative(poly, order, x)
        assert abs(exact - fd) <= 1e-6 * abs(exact) + 1e-8


def test_second_derivative_via_product_rule(rng):
    # interpolant of x^3 y: d2/dx2 = 6 x y, cross = 3 x^2, d2/dy2 = 0
    grid = lcl_grid(2, 4, INF)
    poly = interpolate(lambda p: p[:, 0] ** 3 * p[:, 1], grid)
    x = np.array([0.4, -0.6])
    assert eval_derivative(poly, (2, 0), x) == pytest.approx(6 * 0.4 * -0.6, rel=1e-10)
    assert eval_derivative(poly, (1, 1), x) == pytest.approx(3 * 0.16, rel=1e-10)
    assert eval_derivative(poly, (0, 2), x) == pytest.approx(0.0, abs=1e-10)


def test_derivative_orders_must_be_integral():
    grid = lcl_grid(2, 4, INF)
    poly = interpolate(lambda p: p[:, 0] ** 3 * p[:, 1], grid)
    x = np.array([0.4, -0.6])
    # an integral float is that integer; a fraction is rejected, not truncated
    assert eval_derivative(poly, (1.0, 0.0), x) == eval_derivative(poly, (1, 0), x)
    message = "derivative order must be 2 non-negative integers"
    for order in ((1.5, 0), (0, 0.5), (np.nan, 0), (-1, 0), (1, 0, 0)):
        with pytest.raises(ValueError, match=message):
            eval_derivative(poly, order, x)
        with pytest.raises(ValueError, match=message):
            newton_basis_values(grid, x, order)


def test_degenerate_axis_raises():
    # a divisor of 5e-15 would be the sweep's; the axis is refused before any grid exists
    index_set = make_lp_set(1, 1, 1)
    with pytest.raises(ValueError, match="^nodes must be pairwise at least 1e-14 apart$"):
        build_grid(index_set, [[0.5, 0.5 + 5e-15]])


def test_sweep_rejects_line_missing_level_zero():
    # (0, 1, 1) and (0, 2, 1) form a line along the second coordinate that
    # lacks level 0 (no (0, 0, 1)); it must not merge into the line before it
    exps = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 1, 0),
            (1, 1, 0), (0, 2, 0), (0, 3, 0), (0, 1, 1), (0, 2, 1)]
    # {(0, 0), (0, 1), (1, 1)} lacks (1, 0): every axis-1 run and axis-2
    # group starts at level 0, so only the line check along axis 2 sees it;
    # on {(0, 0), (2, 0)} the recursive walk would use c_(2,0) at level 1.
    # No such set can be constructed, so no sweep or walk ever sees one.
    for rows in (exps, [(0, 0), (0, 1), (1, 1)], [(0, 0), (2, 0)]):
        with pytest.raises(ValueError, match="^the index set is not downward closed$"):
            MultiIndexSet(rows)


def test_sample_length_validation():
    grid = lcl_grid(2, 2, 1)
    with pytest.raises(ValueError):
        LagrangeCoefficients(grid, np.ones(len(grid) - 1))
    with pytest.raises(NonFiniteSampleError):
        LagrangeCoefficients(grid, np.full(len(grid), np.inf))
    with pytest.raises(ValueError):
        NewtonPolynomial(grid, np.full(len(grid), np.nan))


def test_interpolation_condition_random_sets(rng):
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        index_set = random_downward_closed(rng, dim, int(rng.integers(2, 120)), 7)
        axes = random_axes(rng, [top + 1 for top in index_set.tops])
        grid = build_grid(index_set, axes)

        def f(pts):
            return np.cos(1.7 * pts.sum(axis=1)) + 0.3 * pts[:, 0]

        poly = interpolate(f, grid)
        samples = f(grid.node_coordinates)
        reproduced = eval_iterative(poly, grid.node_coordinates)
        assert np.abs(reproduced - samples).max() <= 1e-11 * (
            1.0 + np.abs(samples).max()
        )


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20)
def test_dds_and_transform_property(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    index_set = random_downward_closed(rng, dim, int(rng.integers(2, 40)), 6)
    axes = random_axes(rng, [top + 1 for top in index_set.tops])
    grid = build_grid(index_set, axes)
    values = rng.standard_normal(len(grid))
    poly = divided_differences(LagrangeCoefficients(grid, values))
    back = newton_to_lagrange(poly).values
    assert np.abs(back - values).max() <= 1e-11 * (1.0 + np.abs(values).max())
    # the inverse and the matrix sweep against the collocation oracle
    collocation = newton_collocation_matrix(grid)
    direct = collocation @ poly.coeffs
    scale = 1.0 + np.abs(collocation).dot(np.abs(poly.coeffs)).max()
    assert np.abs(back - direct).max() <= 1e-12 * scale
    solved = np.linalg.solve(collocation, np.eye(len(grid)))
    assert np.abs(lagrange_newton_matrix(grid) - solved).max() <= 1e-9 * (
        1.0 + np.abs(solved).max()
    )


def assert_blocked_matrix_is_bitwise(grid):
    """``lagrange_newton_matrix`` in at least 3 column blocks equals the
    one-block sweep and ``lagrange_basis_in_newton``, bitwise."""
    size = len(grid)
    cells = max(len(lines.reach) * lines.reach[0] for lines in grid.index_set.layout.lines)
    with mock.patch.multiple(newton, _LEBESGUE_BUDGET=cells * size):
        whole = lagrange_newton_matrix(grid)
    width = max(1, size // 3)
    assert -(-size // width) >= 3
    with mock.patch.multiple(newton, _LEBESGUE_BUDGET=cells * width + cells - 1):
        blocked = lagrange_newton_matrix(grid)
    assert np.array_equal(blocked, whole)
    for j, alpha in enumerate(grid.index_set.exponents):
        assert np.array_equal(blocked[:, j], lagrange_basis_in_newton(grid, alpha).coeffs)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20)
def test_lagrange_newton_matrix_in_column_blocks(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    index_set = random_downward_closed(rng, dim, int(rng.integers(3, 60)), 8)
    axes = random_axes(rng, [top + 1 for top in index_set.tops])
    assert_blocked_matrix_is_bitwise(build_grid(index_set, axes))


@pytest.mark.parametrize(
    "index_set",
    [make_lp_set(1, 30, 1), make_lp_set(2, 12, 0.5), hyperbolic_cross(3, 12)],
    ids=["m1", "p0.5", "hyperbolic-cross"],
)
def test_lagrange_newton_matrix_in_column_blocks_on_thin_sets(index_set):
    assert_blocked_matrix_is_bitwise(build_grid(index_set, axes_for(index_set, "lcl")))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25)
def test_coefficients_are_hierarchical(seed):
    # Each coefficient reads only the values at indices below it, in the
    # same order of operations, so a downward-closed subset on the same
    # axes has, bitwise, the superset's coefficients on its rows.
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    top = (400, 120, 30, 12)[dim - 1]

    def draw():
        if rng.random() < 0.3:
            return random_downward_closed(rng, dim, int(rng.integers(1, 300)), 12)
        return make_lp_set(dim, int(rng.integers(0, top + 1)), rng.choice([0.5, 1, 2, INF]))

    first, second = ({tuple(row) for row in draw().exponents.tolist()} for _ in range(2))
    superset = MultiIndexSet(list(first | second))
    subset = MultiIndexSet(list(first & second))
    grid = build_grid(superset, axes_for(superset, "lcl"))
    values = rng.standard_normal(len(grid))
    rows = superset.positions(subset.exponents)
    whole = divided_differences(LagrangeCoefficients(grid, values)).coeffs
    part = divided_differences(
        LagrangeCoefficients(build_grid(subset, grid.axes), values[rows])
    ).coeffs
    assert np.array_equal(part, whole[rows])


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30)
def test_bundle_round_trip(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    index_set = random_downward_closed(rng, dim, int(rng.integers(1, 120)), max_degree=7)
    # axes may run past the largest exponent; those points round-trip too
    sizes = [top + 1 + int(rng.integers(0, 4)) for top in index_set.tops]
    axes = [
        Nodes1D(np.where(ax.points == 0.0, rng.choice([-0.0, 5e-324]), ax.points))
        for ax in random_axes(rng, sizes)
    ]
    grid = build_grid(index_set, axes)
    coeffs = rng.standard_normal(len(grid)) * 10.0 ** rng.integers(-300, 300, len(grid))
    coeffs[: min(3, len(grid))] = [-0.0, 5e-324, 1.7976931348623157e308][: len(grid)]
    poly = NewtonPolynomial(grid, coeffs)
    with tempfile.TemporaryDirectory() as tmp:
        save_bundle(poly, Path(tmp) / "bundle")
        (Path(tmp) / "bundle" / "grid.csv").unlink()  # the loader does not read it
        back = load_bundle(Path(tmp) / "bundle")
    assert back.grid.index_set == poly.grid.index_set
    assert np.array_equal(back.coeffs.view(np.int64), poly.coeffs.view(np.int64))
    assert len(back.grid.axes) == dim
    for ours, theirs in zip(back.grid.axes, grid.axes):
        assert np.array_equal(ours.points.view(np.int64), theirs.points.view(np.int64))


@pytest.mark.parametrize("m, n, p", [(2, 3, 1), (3, 5, 2), (2, 4, math.inf), (3, 6, 0.5)])
def test_bundle_saves_the_same_bytes_after_a_load(tmp_path, m, n, p):
    index_set = make_lp_set(m, n, p)
    grid = build_grid(index_set, axes_for(index_set, "leja"))
    save_bundle(NewtonPolynomial(grid, np.arange(len(grid), dtype=float)), tmp_path / "a")
    save_bundle(load_bundle(tmp_path / "a"), tmp_path / "b")
    for name in ("header.json", "coefficients.csv", "grid.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_bundle_files_pin_the_on_disk_format(tmp_path):
    axes = [Nodes1D([1.0, -1.0, 0.1]), Nodes1D([-1.0 / 3.0, 1.0, 0.0])]
    grid = build_grid(make_lp_set(2, 2, 1), axes)
    poly = NewtonPolynomial(grid, [1.0, 0.1, -2.5, 1.0 / 3.0, -0.0, 5e-324])
    save_bundle(poly, tmp_path)
    assert (tmp_path / "header.json").read_bytes() == (
        b'{\n  "m": 2,\n  "num_coeffs": 6,\n'
        b'  "axes": [\n    [\n      1.0,\n      -1.0,\n      0.1\n    ],\n'
        b'    [\n      -0.3333333333333333,\n      1.0,\n      0.0\n    ]\n  ]\n}\n'
    )
    assert (tmp_path / "grid.csv").read_bytes() == (
        b"a1,a2,x1,x2\r\n"
        b"0,0,1,-0.33333333333333331\r\n"
        b"1,0,-1,-0.33333333333333331\r\n"
        b"2,0,0.10000000000000001,-0.33333333333333331\r\n"
        b"0,1,1,1\r\n"
        b"1,1,-1,1\r\n"
        b"0,2,1,0\r\n"
    )
    assert (tmp_path / "coefficients.csv").read_bytes() == (
        b"a1,a2,c\r\n"
        b"0,0,1\r\n"
        b"1,0,0.10000000000000001\r\n"
        b"2,0,-2.5\r\n"
        b"0,1,0.33333333333333331\r\n"
        b"1,1,-0\r\n"
        b"0,2,4.9406564584124654e-324\r\n"
    )


def test_bundle_depends_only_on_the_points_of_its_axes(tmp_path):
    index_set = make_lp_set(2, 4, 2)
    built = axes_for(index_set, "lcl")
    plain = [Nodes1D(axis.points.tolist()) for axis in built]
    for name, axes in (("built", built), ("plain", plain)):
        save_bundle(interpolate(lambda x: np.exp(x[:, 0] - x[:, 1] ** 2),
                                build_grid(index_set, axes)), tmp_path / name)
    for name in ("header.json", "coefficients.csv", "grid.csv"):
        assert (tmp_path / "built" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("family", ["leja_ordered_chebyshev_lobatto", "custom", 7, None])
def test_load_bundle_ignores_an_older_headers_node_family(tmp_path, family):
    index_set = make_lp_set(3, 3, 1)
    poly = NewtonPolynomial(build_grid(index_set, axes_for(index_set, "lcl")),
                            np.random.default_rng(5).standard_normal(len(index_set)))
    save_bundle(poly, tmp_path)
    header = json.loads((tmp_path / "header.json").read_text())
    older = {"m": header["m"], "num_coeffs": header["num_coeffs"], "node_family": family,
             "provenance": {"m": 3, "n": 3, "p": 1}, "axes": header["axes"]}
    (tmp_path / "header.json").write_text(json.dumps(older, indent=2) + "\n")
    back = load_bundle(tmp_path)
    assert back.grid.index_set == index_set
    assert np.array_equal(back.coeffs.view(np.int64), poly.coeffs.view(np.int64))
    for ours, theirs in zip(back.grid.axes, poly.grid.axes):
        assert np.array_equal(ours.points.view(np.int64), theirs.points.view(np.int64))


def test_load_bundle_rejects_a_level_far_beyond_the_rows(tmp_path):
    save_bundle(NewtonPolynomial(xy_grid(), [1.0, 2.0, 3.0, 4.0]), tmp_path)
    table = tmp_path / "coefficients.csv"
    lines = table.read_text().splitlines()
    assert lines[2] == "1,0,2"
    # still canonical, not downward closed: found before anything is sized by level
    lines[2] = "1000000000000000,0,2"
    table.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^the index set is not downward closed$"):
        load_bundle(tmp_path)


def test_set_with_a_key_space_beyond_int64_looks_up_evaluates_and_round_trips(tmp_path):
    # the bounding box holds 3**40 > 2**63 indices, too many for an int64 key
    index_set = make_lp_set(40, 2, 1)
    assert len(index_set) == 861 and math.prod(top + 1 for top in index_set.tops) > 2**63
    grid = build_grid(index_set, axes_for(index_set, "lcl"))
    weights = np.linspace(-1.0, 1.0, 40)
    poly = interpolate(lambda pts: np.cos(pts @ weights), grid)
    assert index_set.position((0,) * 39 + (2,)) == len(index_set) - 1
    members = index_set.exponents[::-1]
    assert index_set.positions(members).tolist() == list(range(len(index_set)))[::-1]
    assert (0,) * 38 + (1, 2) not in index_set and (2,) + (0,) * 38 + (-1,) not in index_set
    pts = np.random.default_rng(7).uniform(-1, 1, (3, 40))
    values = eval_iterative(poly, pts)
    for x, value in zip(pts, values):
        exact = eval_recursive(poly, x)
        assert abs(value - exact) <= 1e-13 * (1.0 + abs(exact))
    order = (1, 2) + (0,) * 38
    basis = newton_basis_values(grid, pts, order)
    scale = 1.0 + np.abs(basis).dot(np.abs(poly.coeffs)).max()
    derivative = eval_derivative(poly, order, pts)
    assert np.abs(derivative - basis @ poly.coeffs).max() <= 1e-13 * scale
    save_bundle(poly, tmp_path)
    back = load_bundle(tmp_path)
    assert back.grid.index_set == index_set
    assert np.array_equal(back.coeffs.view(np.int64), poly.coeffs.view(np.int64))


def test_layout_is_built_once_and_read_safely_from_threads(monkeypatch):
    builds = []
    build = multi_index._build_layout
    monkeypatch.setattr(
        multi_index, "_build_layout", lambda exps, *key: builds.append(1) or build(exps, *key)
    )
    index_set = make_lp_set(3, 6, 2)
    grid = build_grid(index_set, axes_for(index_set, "lcl"))
    poly = interpolate(lambda pts: np.exp(pts.sum(axis=1)), grid)
    eval_derivative(poly, (1, 0, 1), np.random.default_rng(8).uniform(-1, 1, (50, 3)))
    newton_to_lagrange(poly)
    assert len(builds) == 1

    # threads on one fresh set, more than the cores, switching often: each
    # reads the layout its constructor built and gets the same bits
    fresh = UnisolventGrid(index_set=make_lp_set(3, 6, 2), axes=grid.axes)
    values = np.cos(grid.node_coordinates.sum(axis=1))
    pts = np.random.default_rng(9).uniform(-1, 1, (2000, 3))
    start = threading.Barrier(4, timeout=60)
    results = [None] * 4

    def work(slot):
        start.wait()
        poly = divided_differences(LagrangeCoefficients(fresh, values))
        results[slot] = (
            poly.coeffs, eval_iterative(poly, pts), newton_to_lagrange(poly).values
        )

    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    reference = divided_differences(LagrangeCoefficients(grid, values))
    expected = (
        reference.coeffs, eval_iterative(reference, pts), newton_to_lagrange(reference).values
    )
    for result in results:
        for got, want in zip(result, expected, strict=True):
            assert np.array_equal(got, want)
