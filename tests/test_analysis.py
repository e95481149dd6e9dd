import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    hyperbolic_cross,
    lcl_grid,
    newton_basis_oracle,
    newton_collocation_matrix,
    random_axes,
    random_downward_closed,
)
from mvnewton import analysis, newton
from mvnewton.analysis import (
    BenchmarkFunction,
    ConvergenceRecord,
    RateFit,
    benchmark_eval,
    chebyshev_lobatto_lebesgue_reference,
    convergence_run,
    fit_rate,
    lebesgue_estimate,
    make_benchmark,
    optimal_rho,
)
from mvnewton.grid import axes_for, build_grid
from mvnewton.multi_index import make_lp_set
from mvnewton.newton import eval_derivative, interpolate, lagrange_newton_matrix

INF = math.inf


# -- benchmark functions -------------------------------------------------------


def test_runge_values_and_derivative():
    f = make_benchmark("runge", 1, r=1, s=1)
    assert benchmark_eval(f, [0.0]) == 1.0
    assert benchmark_eval(f, [0.5], (1,)) == pytest.approx(-0.64, abs=1e-15)


def test_f5_value_at_origin():
    f = make_benchmark("f5", 2, k1=1, k2=1)
    assert benchmark_eval(f, [0.0, 0.0]) == pytest.approx(1.0)


def test_f3_weights_are_dimension_dependent():
    f = make_benchmark("f3", 3)
    x = np.array([0.2, 0.4, -0.1])
    t = 5.0 * x[0] + 5.0 / 8.0 * x[1] + 5.0 / 27.0 * x[2]
    assert benchmark_eval(f, x) == pytest.approx(1.0 / (1.0 + t * t), rel=1e-14)


def test_f4_value():
    f = make_benchmark("f4", 2, a=1.25)
    assert benchmark_eval(f, [0.0, 0.0]) == pytest.approx(1.0 / (2 * 1.25**2))


@pytest.mark.parametrize(
    "kind,dim,params,x",
    [
        ("runge", 2, dict(r=2.0, s=1.0), [0.3, -0.2]),
        ("runge", 3, dict(r=1.0, s=1.0), [0.1, 0.5, -0.4]),
        ("f1", 2, dict(r=1.25), [0.3, -0.6]),
        ("f5", 2, dict(k1=2, k2=1), [0.25, 0.4]),
    ],
)
def test_analytic_derivatives_match_finite_differences(kind, dim, params, x):
    f = make_benchmark(kind, dim, **params)
    x = np.asarray(x)
    h = 1e-6
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h
        fd = (benchmark_eval(f, x + e) - benchmark_eval(f, x - e)) / (2 * h)
        order = tuple(int(j == i) for j in range(dim))
        assert benchmark_eval(f, x, order) == pytest.approx(fd, rel=2e-8, abs=1e-9)
        for k in range(dim):
            e2 = np.zeros(dim)
            e2[k] = h
            fd2 = (
                benchmark_eval(f, x + e2, order) - benchmark_eval(f, x - e2, order)
            ) / (2 * h)
            order2 = tuple(order[j] + int(j == k) for j in range(dim))
            assert benchmark_eval(f, x, order2) == pytest.approx(fd2, rel=5e-7, abs=5e-8)


def test_unsupported_derivatives_rejected():
    f3 = make_benchmark("f3", 2)
    with pytest.raises(ValueError):
        benchmark_eval(f3, [0.1, 0.1], (1, 0))
    f4 = make_benchmark("f4", 2)
    with pytest.raises(ValueError):
        benchmark_eval(f4, [0.1, 0.1], (0, 1))
    runge = make_benchmark("runge", 2)
    with pytest.raises(ValueError):
        benchmark_eval(runge, [0.1, 0.1], (2, 1))  # total order 3
    # fractional orders are rejected, not truncated to an order that exists
    x = [0.1, 0.1]
    assert benchmark_eval(runge, x, (1.0, 0)) == benchmark_eval(runge, x, (1, 0))
    for order in ((1.9, 0), (0.5, 0), (1, 0, 0), (-1, 0)):
        assert not runge.supports_order(order)
        with pytest.raises(ValueError, match="derivative order must be 2 non-negative"):
            benchmark_eval(runge, [0.1, 0.1], order)


def test_benchmark_validation():
    with pytest.raises(ValueError):
        make_benchmark("f1", 3, r=2.0)  # bivariate only
    with pytest.raises(ValueError):
        make_benchmark("f1", 2, r=1.0)  # pole on the cube
    with pytest.raises(ValueError):
        make_benchmark("f4", 2, a=0.9)
    with pytest.raises(ValueError):
        make_benchmark("runge", 2, r=0.0)
    with pytest.raises(ValueError):
        make_benchmark("nope", 2)


@pytest.mark.parametrize(
    "kind, given, params",
    [
        ("runge", {}, (("r", 1.0), ("s", 1.0))),
        ("f2", {}, (("r", 1.0), ("s", 1.0))),
        ("runge", {"s": 2}, (("r", 1.0), ("s", 2.0))),
        ("f1_shifted_pole", {}, (("r", 1.25),)),
        ("f1", {"r": 3}, (("r", 3.0),)),
        ("f3_perturbed_runge", {}, ()),
        ("f3", {}, ()),
        ("f4_shifted_runge_m", {}, (("a", 1.25),)),
        ("f4", {"a": 2}, (("a", 2.0),)),
        ("f5_trig", {}, (("k1", 1.0), ("k2", 1.0))),
        ("f5", {"k2": 3, "k1": 2}, (("k1", 2.0), ("k2", 3.0))),
    ],
)
def test_make_benchmark_params(kind, given, params):
    f = make_benchmark(kind, 2, **given)
    assert f.params == params
    assert all(type(value) is float for _, value in f.params)


@pytest.mark.parametrize("kind", analysis.BENCHMARK_IDS)
def test_the_class_fills_in_the_defaults(kind):
    f = BenchmarkFunction(kind, 2)
    assert f == make_benchmark(kind, 2)
    assert np.isfinite(f([0.1, -0.2]))


def test_the_class_rejects_an_unknown_parameter():
    with pytest.raises(ValueError, match="does not take parameters"):
        BenchmarkFunction("runge", 2, (("a", 1.25),))
    with pytest.raises(ValueError, match="does not take parameters"):
        make_benchmark("f3", 2, r=1.0)


@pytest.mark.parametrize("kind, params", [("runge", {"r": math.nan}), ("f4", {"a": INF})])
def test_the_class_rejects_a_non_finite_parameter(kind, params):
    # both passed the range checks and failed later under another name
    ((name, value),) = params.items()
    with pytest.raises(ValueError, match=f"parameter {name}={value} must be finite"):
        make_benchmark(kind, 2, **params)


@pytest.mark.parametrize("kind, dim", [("f3", 2.5), ("runge", True), ("runge", 2.0)])
def test_the_class_rejects_a_non_integer_dimension(kind, dim):
    # 2.5 and True were kept as the dimension; 2.0 failed later, in
    # convergence_run, with a bare TypeError
    with pytest.raises(ValueError, match=f"^dimension must be an integer, got {dim!r}"):
        make_benchmark(kind, dim)
    with pytest.raises(ValueError, match="^dimension must be at least 1"):
        make_benchmark(kind, 0)
    f = make_benchmark(kind, np.int64(2))  # numpy integers are integers
    assert f.dim == 2 and type(f.dim) is int and f == make_benchmark(kind, 2)


@pytest.mark.parametrize("m", range(2, 10))
def test_column_major_points_give_the_same_bits(m):
    # convergence_run draws its points column-major.  Both evaluators
    # compute on the coordinate rows of _as_points, a view of such points
    # and a copy of row-major ones, so the layout cannot change a bit
    pts = np.random.default_rng(m).uniform(-1, 1, (300, m))
    columns = np.asfortranarray(pts)
    grid = lcl_grid(m, 3, 1)
    orders = [(0,) * m, (1,) + (0,) * (m - 1), (1,) + (0,) * (m - 2) + (1,), (0,) * (m - 1) + (2,)]
    for kind in analysis.BENCHMARK_IDS:
        if kind == "f1_shifted_pole" and m != 2:
            continue
        f = make_benchmark(kind, m)
        poly = interpolate(f, grid)
        for order in filter(f.supports_order, orders):
            row_major = benchmark_eval(f, pts, order), eval_derivative(poly, order, pts)
            column_major = benchmark_eval(f, columns, order), eval_derivative(poly, order, columns)
            for a, b in zip(row_major, column_major):
                assert np.array_equal(a, b), (kind, order)


# -- reference rates -----------------------------------------------------------


def test_optimal_rho_runge_table_values():
    assert optimal_rho(make_benchmark("runge", 1, r=1, s=1), 2) == pytest.approx(
        2.414, abs=5e-4
    )
    assert optimal_rho(make_benchmark("runge", 4, r=1, s=1), 1) == pytest.approx(
        1.618, abs=5e-4
    )
    assert optimal_rho(make_benchmark("runge", 1, r=3, s=1), INF) == pytest.approx(
        1.387, abs=5e-4
    )
    assert optimal_rho(
        make_benchmark("runge", 3, r=math.sqrt(10), s=1), 2
    ) == pytest.approx(1.365, abs=5e-4)
    assert optimal_rho(make_benchmark("runge", 2, r=1, s=1), 1) == pytest.approx(
        1.931, abs=1e-3
    )


def test_optimal_rho_f1():
    f = make_benchmark("f1", 2, r=1.25)
    assert optimal_rho(f, 1) == pytest.approx(1.25)
    assert optimal_rho(f, INF) == pytest.approx(1.2807764064044151)
    assert optimal_rho(f, 2) == optimal_rho(f, INF)


def test_optimal_rho_f4_published_constants():
    f = make_benchmark("f4", 2, a=1.25)
    assert optimal_rho(f, 2) == 2.0518
    assert optimal_rho(f, INF) == 2.1531
    assert optimal_rho(make_benchmark("f4", 3, a=1.25), 2) is None
    assert optimal_rho(make_benchmark("f4", 2, a=9 / 8), 2) is None


def test_optimal_rho_unknown_cases():
    assert optimal_rho(make_benchmark("f5", 2), 2) is None
    assert optimal_rho(make_benchmark("f3", 2), 1) is None
    assert optimal_rho(make_benchmark("f3", 2), 2) == pytest.approx(1.2198039027)
    assert optimal_rho(make_benchmark("runge", 2, r=1, s=1), 1.5) is None


# -- Lebesgue ------------------------------------------------------------------


def test_lebesgue_single_node_is_one():
    grid = lcl_grid(1, 0, 1)
    assert lebesgue_estimate(grid, 100, 0, 0) == pytest.approx(1.0, abs=1e-12)


def test_lebesgue_chebyshev_lobatto_n4_matches_dense_oracle():
    # dense-grid maximization oracle gives Lambda(CL_4) = 1.798762; the
    # reference formula evaluates 2.5% above it at this even n
    grid = lcl_grid(1, 4, 1)
    lam = lebesgue_estimate(grid, 10_000, 0, 0)
    assert lam == pytest.approx(1.798762, rel=1e-3)


def test_lebesgue_at_least_one():
    for m, n, p in [(1, 3, 1), (2, 2, 2), (2, 3, INF)]:
        grid = lcl_grid(m, n, p)
        assert lebesgue_estimate(grid, 500, 3, 0) >= 1.0 - 1e-12


def test_lebesgue_monotone_in_samples():
    grid = lcl_grid(2, 3, 2)
    small = lebesgue_estimate(grid, 1000, 9, 0)
    large = lebesgue_estimate(grid, 4000, 9, 0)
    assert large >= small  # same seed, sample prefix property


def test_lebesgue_higher_order_dominates():
    grid = lcl_grid(2, 3, 2)
    l0 = lebesgue_estimate(grid, 2000, 1, 0)
    l1 = lebesgue_estimate(grid, 2000, 1, 1)
    assert l1 >= l0  # the k=1 sum includes the k=0 term


@given(st.integers(min_value=0, max_value=10**6))
def test_lebesgue_estimate_matches_the_inverse_collocation_oracle(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    index_set = random_downward_closed(rng, dim, int(rng.integers(1, 40)), 5)
    grid = build_grid(
        index_set, random_axes(rng, [top + 1 for top in index_set.tops])
    )
    k, samples, draw = int(rng.integers(0, 2)), int(rng.integers(1, 300)), int(rng.integers(100))
    # column alpha: Newton coefficients of L_alpha
    lagrange = np.linalg.inv(newton_collocation_matrix(grid))
    if dim == 1:
        pts = np.linspace(-1.0, 1.0, samples)[:, None]
    else:
        pts = np.random.default_rng(draw).uniform(-1.0, 1.0, size=(samples, dim))
    orders = [None] if k == 0 else [None, *np.eye(dim, dtype=int).tolist()]
    oracle = sum(
        np.abs(newton_basis_oracle(grid, pts, order) @ lagrange).sum(axis=1)
        for order in orders
    ).max()
    # chunks of a few points, and row blocks of the triangular product
    budget = int(rng.choice([newton._LEBESGUE_BUDGET, len(grid) * int(rng.integers(1, 8))]))
    blocks = int(rng.choice([1, 2, analysis._TRIANGLE_BLOCKS, 7]))
    with mock.patch.multiple(newton, _LEBESGUE_BUDGET=budget), mock.patch.multiple(
        analysis, _TRIANGLE_BLOCKS=blocks
    ):
        lam = lebesgue_estimate(grid, samples, draw, k)
    assert abs(lam - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize(
    "m, n, p, samples, budget",
    [
        # |A| = 150 in chunks of 3333, 3333, 3333 and one point
        (1, 149, 2.0, 10_000, None),
        # every chunk one point
        (2, 12, 2.0, 300, 1),
        (3, 10, 0.5, 300, 1),
    ],
)
def test_lebesgue_estimate_does_not_depend_on_the_chunking(m, n, p, samples, budget):
    index_set = make_lp_set(m, n, p)
    grid = build_grid(index_set, axes_for(index_set, "lcl"))
    budget = newton._LEBESGUE_BUDGET if budget is None else budget * len(grid)
    for k in (0, 1):
        with mock.patch.multiple(newton, _LEBESGUE_BUDGET=samples * len(grid)):
            whole = lebesgue_estimate(grid, samples, 0, k)
        with mock.patch.multiple(newton, _LEBESGUE_BUDGET=budget):
            assert lebesgue_estimate(grid, samples, 0, k) == whole


def test_lebesgue_size_cap():
    grid = lcl_grid(2, 3, 2)
    with pytest.raises(ValueError):
        lebesgue_estimate(grid, 100, 0, 0, size_cap=5)
    with pytest.raises(ValueError):
        lebesgue_estimate(grid, 100, 0, 3)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"k": True}, "k"),  # was taken as order 1
        ({"k": 1.5}, "k"),  # failed inside make_lp_set, naming the degree n
        ({"num_samples": True}, "num_samples"),  # raised a bare TypeError
        ({"num_samples": 100.0}, "num_samples"),
        ({"seed": True}, "seed"),  # was taken as seed 1
        ({"seed": 1.5}, "seed"),  # raised a bare TypeError
        ({"size_cap": True}, "size_cap"),  # was taken as a cap of 1
        ({"size_cap": 1000.0}, "size_cap"),
    ],
)
def test_lebesgue_rejects_bool_and_non_integer_counts(kwargs, name):
    grid = lcl_grid(2, 4, 2)
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        lebesgue_estimate(grid, **{"num_samples": 100, **kwargs})
    # numpy integers are integers
    assert lebesgue_estimate(grid, np.int64(100), 0, np.int32(1)) >= 1.0


def test_lebesgue_estimate_raises_where_the_matrix_overflows():
    # on [-1, 1] the Newton coefficients of the Lagrange polynomials grow
    # like 2**|alpha|_1; at 1D n = 1100 the estimate used to be 0.0
    grid = lcl_grid(1, 1100, 2)
    with pytest.raises(FloatingPointError, match=r"Lagrange-Newton matrix .* \|alpha\|_1"):
        lagrange_newton_matrix(grid)
    with pytest.raises(FloatingPointError, match="Lagrange-Newton matrix"):
        lebesgue_estimate(grid, 1000)


def test_lebesgue_estimate_raises_on_a_non_finite_sum(monkeypatch):
    basis = analysis.newton_basis_values

    def overflowed(*args):
        values = basis(*args)
        values[:, -1] = INF
        return values

    monkeypatch.setattr(analysis, "newton_basis_values", overflowed)
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="sums overflowed"):
        lebesgue_estimate(lcl_grid(2, 4, 2), 100)


@pytest.mark.parametrize(
    "index_set, num_samples, budgets",
    [
        (make_lp_set(3, 30, 0.5), 1000, 3),
        (hyperbolic_cross(3, 40), 1000, 3),
        (make_lp_set(1, 200, 1), 10_000, 2),
    ],
    ids=["p0.5", "hyperbolic-cross", "m1"],
)
def test_lebesgue_path_holds_the_matrix_plus_bounded_scratch(index_set, num_samples, budgets):
    # Counted by tracemalloc, which sees every numpy buffer: besides the
    # matrix, the column sweep holds one identity block, its line table and
    # a work buffer, each within the budget, and a point chunk holds less.
    # One sweep over all columns would take 63 and 43 MB here.  For m = 1
    # the basis values of a chunk are the axis table itself, not a copy.
    grid = build_grid(index_set, axes_for(index_set, "lcl"))
    bound = 8 * len(grid) ** 2 + budgets * 8 * newton._LEBESGUE_BUDGET
    for run in (
        lambda: lagrange_newton_matrix(grid),
        lambda: lebesgue_estimate(grid, num_samples),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_lebesgue_max_degree_log_growth():
    # maximum-degree grids factor, so Lambda should track C * log(n+1)**m
    # with one constant per dimension fitted at the smallest degree
    sweeps = {1: (4, 8, 16, 32), 2: (4, 8, 16), 3: (2, 4, 8)}
    for m, degrees in sweeps.items():
        lams = [
            lebesgue_estimate(lcl_grid(m, n, INF), 4000, 0, 0) for n in degrees
        ]
        c = lams[0] / math.log(degrees[0] + 1) ** m
        for n, lam in zip(degrees[1:], lams[1:]):
            assert lam <= 1.1 * c * math.log(n + 1) ** m


def first_kind_chebyshev_lebesgue(n):
    """Dense maximization of the Lagrange Lebesgue function of the ``n``
    first-kind Chebyshev nodes ``cos((2k - 1) pi / (2n))``."""
    nodes = np.cos((2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n))
    x = np.linspace(-1.0, 1.0, 200_001)
    total = np.zeros_like(x)
    for j in range(n):
        others = np.delete(nodes, j)
        total += np.abs(np.prod((x[:, None] - others) / (nodes[j] - others), axis=1))
    return float(total.max())


@pytest.mark.parametrize("n", [2.5, True])
def test_lebesgue_reference_rejects_a_non_integer_degree(n):
    # 2.5 gave 1.5459 and True 0.9625, the formula at a degree that has no
    # Chebyshev-Lobatto points
    with pytest.raises(ValueError, match=f"^degree must be an integer, got {n!r}"):
        chebyshev_lobatto_lebesgue_reference(n)
    assert chebyshev_lobatto_lebesgue_reference(np.int64(4)) == chebyshev_lobatto_lebesgue_reference(4)


def test_lebesgue_reference_formula_value():
    # n = 4: (2/pi) (log 4 + gamma + log(8/pi)). The value used to be log 5,
    # the asymptotic for n + 1 first-kind Chebyshev nodes, not for the
    # n + 1 Chebyshev-Lobatto nodes of degree n.
    expected = (2 / math.pi) * (math.log(4) + np.euler_gamma + math.log(8 / math.pi))
    assert chebyshev_lobatto_lebesgue_reference(4) == pytest.approx(expected)
    with pytest.raises(ValueError):
        chebyshev_lobatto_lebesgue_reference(0)
    # the identity behind the formula: for odd n the n + 1 Chebyshev-Lobatto
    # points and the n first-kind points share one Lebesgue constant
    for n in (3, 5, 7):
        lam = lebesgue_estimate(lcl_grid(1, n, 2), 10_000, 0, 0)
        assert lam == pytest.approx(first_kind_chebyshev_lebesgue(n), rel=1e-6)


# -- convergence and fitting ---------------------------------------------------


def test_fit_rate_recovers_synthetic_geometric_data():
    ns = tuple(range(1, 21))
    errors = tuple(5.0 * 2.0 ** (-n) for n in ns)
    fit = fit_rate(ConvergenceRecord(ns, (1,) * 20, errors, {}))
    assert fit.c == pytest.approx(5.0, abs=1e-10)
    assert fit.rho == pytest.approx(2.0, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_drops_saturated_rows():
    ns = tuple(range(1, 16))
    errors = tuple(max(1e-1 * 10.0 ** (-n), 1e-15) for n in ns)
    fit = fit_rate(ConvergenceRecord(ns, (1,) * 15, errors, {}))
    assert fit.rho == pytest.approx(10.0, rel=1e-6)
    assert fit.fit_range[1] == 12  # rows below the saturation floor dropped


def test_fit_rate_trims_leading_plateau():
    # rows 2 and 3 sit above the first error and are discarded; what
    # remains is exactly geometric with ratio 2
    ns = (1, 2, 3, 4, 5, 6, 7, 8)
    errors = (4.0, 5.0, 4.5, 0.5, 0.25, 0.125, 0.0625, 0.03125)
    fit = fit_rate(ConvergenceRecord(ns, (1,) * 8, errors, {}))
    assert fit.rho == pytest.approx(2.0, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_needs_four_rows():
    ns = (1, 2, 3)
    with pytest.raises(ValueError):
        fit_rate(ConvergenceRecord(ns, (1,) * 3, (0.1, 0.05, 0.025), {}))


def test_convergence_exact_for_polynomial_member():
    # f5 with k1 = k2 = 0 is the constant 1; any degree reproduces it
    f = make_benchmark("f5", 2, k1=0, k2=0)
    rec = convergence_run(f, 2, "lcl", [1, 2, 3], num_samples=200, seed=3)
    assert max(rec.errors) <= 1e-12


def test_convergence_runge_1d_classic_decay():
    f = make_benchmark("runge", 1, r=1, s=1)
    rec = convergence_run(f, 2, "lcl", list(range(2, 31)), num_samples=2000, seed=11)
    assert rec.errors[-1] < 1e-8
    # decreasing trend beyond n = 4; per-degree sample redraws leave a
    # little zigzag, so compare two degrees apart
    tail = rec.errors[2:]
    assert all(b < a for a, b in zip(tail, tail[2:]))
    fit = fit_rate(rec)
    assert 2.2 <= fit.rho <= 2.6  # reference 2.414
    assert fit.r_squared >= 0.99


def test_convergence_leja_family_runs():
    f = make_benchmark("runge", 1, r=1, s=1)
    rec = convergence_run(f, 2, "leja", [2, 4, 6, 8], num_samples=500, seed=1)
    assert rec.errors[-1] < rec.errors[0]
    assert rec.meta["family"] == "leja"


@pytest.mark.parametrize("p", [1, 2, INF])
def test_convergence_leja_reuses_top_axes_bitwise(p):
    # the top degree's Leja axes serve every degree, because the points
    # are nested; rebuilding the axes per degree must give the same bits
    f = make_benchmark("runge", 2, r=1, s=1)
    degrees = list(range(2, 11))
    rec = convergence_run(f, p, "leja", degrees, num_samples=300, seed=4)
    expected = []
    for n in degrees:
        index_set = make_lp_set(2, n, p)
        poly = interpolate(f, build_grid(index_set, axes_for(index_set, "leja")))
        points = np.random.default_rng(4 ^ n).uniform(-1.0, 1.0, size=(300, 2))
        error = benchmark_eval(f, points, (0, 0)) - eval_derivative(poly, (0, 0), points)
        expected.append(float(np.abs(error).max()))
    assert rec.errors == tuple(expected)


def test_convergence_validation():
    f = make_benchmark("runge", 2, r=1, s=1)
    with pytest.raises(ValueError):
        convergence_run(f, 2, "lcl", [4, 4], num_samples=10, seed=0)
    with pytest.raises(ValueError, match="^unknown grid family 'nope'; expected lcl or leja$"):
        convergence_run(f, 2, "nope", [1, 2], num_samples=10, seed=0)
    with pytest.raises(ValueError):
        convergence_run(f, 2, "lcl", [1, 2], num_samples=10, seed=0, deriv_order=(3, 0))
    with pytest.raises(ValueError, match="derivative order must be 2 non-negative"):
        convergence_run(f, 2, "lcl", [1, 2], num_samples=10, seed=0, deriv_order=(0.5, 0))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"num_samples": 0}, "num_samples must be at least 1"),  # a numpy reduction error
        ({"num_samples": -3}, "num_samples must be at least 1"),  # "negative dimensions"
        ({"num_samples": 2.5}, "num_samples must be an integer"),  # TypeError
        ({"num_samples": True}, "num_samples must be an integer"),  # TypeError
        ({"seed": 1.5}, "seed must be an integer"),  # TypeError from ^
        ({"seed": -1}, "seed must be at least 0"),
        ({"degrees": [2.7, 3.2, 4.9, 5.1]}, "degree must be an integer"),  # was (2, 3, 4, 5)
        ({"degrees": [True, 2, 3, 4]}, "degree must be an integer"),  # was (1, 2, 3, 4)
        ({"degrees": [-1, 2]}, "degree must be at least 0"),
    ],
)
def test_convergence_names_a_bad_integer_argument(kwargs, message):
    f = make_benchmark("runge", 2, r=1, s=1)
    args = {"degrees": [1, 2], "num_samples": 10, "seed": 0, **kwargs}
    with pytest.raises(ValueError, match=f"^{message}"):
        convergence_run(f, 2, "lcl", **args)
    # numpy integers are integers
    record = convergence_run(f, 2, "lcl", np.arange(1, 3), np.int64(10), np.int32(0))
    assert record.degrees == (1, 2) and type(record.degrees[0]) is int


@pytest.mark.parametrize(
    "degrees, num_coeffs, errors, message",
    [
        ((2, 4), (6,), (0.1, 0.01), "^degrees, num_coeffs and errors must align$"),
        ((2, 4), (6, 15), (0.1,), "^degrees, num_coeffs and errors must align$"),
        ((4, 4), (15, 15), (0.1, 0.01), "^degrees must be strictly increasing$"),
        ((4, 2), (15, 6), (0.1, 0.01), "^degrees must be strictly increasing$"),
        ((2, 4), (6, 15), (0.1, -0.01), "^errors must be finite and non-negative$"),
    ],
)
def test_a_record_refuses_inconsistent_columns(degrees, num_coeffs, errors, message):
    with pytest.raises(ValueError, match=message):
        ConvergenceRecord(degrees, num_coeffs, errors)


def test_a_record_refuses_a_table_with_a_foreign_header(tmp_path):
    path = tmp_path / "record.csv"
    path.write_text("n,size,error\n2,6,0.1\n")
    with pytest.raises(ValueError, match=r"is not a table of n,num_coeffs,error \(header"):
        ConvergenceRecord.from_csv(path)


def test_record_csv_round_trip(tmp_path):
    f = make_benchmark("runge", 2, r=1, s=1)
    rec = convergence_run(f, 2, "lcl", [2, 4, 6], num_samples=100, seed=5)
    path = tmp_path / "record.csv"
    path.write_text(rec.to_csv_text(), newline="")
    back = ConvergenceRecord.from_csv(path)
    assert back.degrees == rec.degrees
    assert back.num_coeffs == rec.num_coeffs
    assert back.errors == rec.errors
    assert back.meta["function"] == "runge"


def test_convergence_reproducible_bitwise():
    f = make_benchmark("runge", 2, r=1, s=1)
    a = convergence_run(f, 2, "lcl", [2, 4, 6], num_samples=300, seed=9)
    b = convergence_run(f, 2, "lcl", [2, 4, 6], num_samples=300, seed=9)
    assert a.to_csv_text() == b.to_csv_text()


def test_sample_points_identical_across_families_and_p():
    # same seed and degree draw the same points regardless of family or p,
    # verified indirectly: a polynomial reproduced exactly gives error 0
    f = make_benchmark("f5", 2, k1=0, k2=0)
    r1 = convergence_run(f, 1, "lcl", [2, 3, 4], num_samples=50, seed=2)
    r2 = convergence_run(f, INF, "lcl", [2, 3, 4], num_samples=50, seed=2)
    assert r1.errors == r2.errors


def test_rate_fit_json():
    fit = RateFit(c=2.0, rho=1.5, r_squared=0.999, fit_range=(4, 20))
    data = json.loads(json.dumps(fit.to_json_dict()))
    assert data == {"c": 2.0, "rho": 1.5, "r_squared": 0.999, "fit_range": [4, 20]}
