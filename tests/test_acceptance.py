"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The rate-window
criteria interpolate up to ~1e5 coefficients and take a few minutes; all
seeds and sample counts are fixed here and recorded in the run metadata.
"""
import math
import time

import numpy as np

from conftest import (
    newton_collocation_matrix,
    random_axes,
    random_downward_closed,
    vandermonde_unisolvence_check,
)
from mvnewton.analysis import (
    chebyshev_lobatto_lebesgue_reference,
    convergence_run,
    fit_rate,
    lebesgue_estimate,
    make_benchmark,
)
from mvnewton.grid import build_grid, chebyshev_lobatto, leja_order
from mvnewton.multi_index import make_lp_set
from mvnewton.newton import (
    LagrangeCoefficients,
    NewtonPolynomial,
    divided_differences,
    eval_derivative,
    eval_iterative,
    eval_recursive,
    interpolate,
)

INF = math.inf


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")


def lcl_grid(m, n, p):
    index_set = make_lp_set(m, n, p)
    return build_grid(index_set, [leja_order(chebyshev_lobatto(n))] * m)


def eval_canonical(coeffs, exponents, pts):
    """Direct monomial-basis evaluation, the oracle for exactness checks."""
    out = np.zeros(pts.shape[0])
    tables = [
        pts[:, i, None] ** np.arange(exponents[:, i].max() + 1)[None, :]
        for i in range(pts.shape[1])
    ]
    for pos, alpha in enumerate(exponents):
        term = np.full(pts.shape[0], coeffs[pos])
        for i, a in enumerate(alpha):
            term *= tables[i][:, a]
        out += term
    return out


def test_criterion_1_exactness_suite():
    rng = np.random.default_rng(101)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(50):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(0, 9))
        p = [1, 2, INF][rng.integers(3)]
        grid = lcl_grid(m, n, p)
        exps = grid.index_set.exponents
        coeffs = rng.uniform(-1, 1, len(grid))
        poly = interpolate(lambda pts: eval_canonical(coeffs, exps, pts), grid)
        pts = rng.uniform(-1, 1, (1000, m))
        truth = eval_canonical(coeffs, exps, pts)
        err = np.abs(eval_iterative(poly, pts) - truth).max()
        rel = err / max(1.0, np.abs(truth).max())
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9
    report(
        "criterion 1 (exactness on 50 random spaces)",
        ok,
        f"worst relative error {worst:.3e} (tol 1e-9), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        index_set = random_downward_closed(rng, dim, int(rng.integers(2, 61)), 8)
        axes = random_axes(rng, [top + 1 for top in index_set.tops])
        grid = build_grid(index_set, axes)
        values = rng.standard_normal(len(grid))
        fast = divided_differences(LagrangeCoefficients(grid, values)).coeffs
        oracle = np.linalg.solve(newton_collocation_matrix(grid), values)
        rel = np.abs(fast - oracle).max() / max(1.0, np.abs(oracle).max())
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9
    report(
        "criterion 2 (divided differences vs collocation solve, |A| <= 60)",
        ok,
        f"worst relative deviation {worst:.3e} (tol 1e-9), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_unisolvence_randomized():
    rng = np.random.default_rng(303)
    failures = 0
    sizes = []
    start = time.perf_counter()
    for _ in range(30):
        dim = int(rng.integers(2, 5))
        index_set = random_downward_closed(rng, dim, int(rng.integers(20, 401)), 5)
        axes = random_axes(rng, [top + 1 for top in index_set.tops])
        grid = build_grid(index_set, axes)
        sizes.append(len(grid))
        if not vandermonde_unisolvence_check(grid):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0
    report(
        "criterion 3 (unisolvence oracle on 30 random grids, |A| <= 400)",
        ok,
        f"{failures} failures, sizes {min(sizes)}..{max(sizes)}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_runge_m4_rate_window():
    f = make_benchmark("runge", 4, r=1, s=1)
    start = time.perf_counter()
    record = convergence_run(
        f, 2, "lcl", list(range(4, 29)), num_samples=10_000, seed=0
    )
    fit = fit_rate(record)
    elapsed = time.perf_counter() - start
    ok = 2.25 <= fit.rho <= 2.45 and fit.r_squared >= 0.98
    report(
        "criterion 4 (Runge m=4, p=2, degrees 4..28)",
        ok,
        f"fitted rho {fit.rho:.4f} (window [2.25, 2.45], optimal 2.414), "
        f"R^2 {fit.r_squared:.4f} (>= 0.98), fit range {fit.fit_range}, "
        f"{elapsed:.0f}s",
    )
    assert ok, (
        f"degrees 4..28, fit range {fit.fit_range}: fitted rho {fit.rho:.4f}, "
        f"R^2 {fit.r_squared:.4f}; required: rho in [2.25, 2.45] and R^2 >= 0.98"
    )


def test_criterion_5_runge_m3_r2_10_rate_window():
    f = make_benchmark("runge", 3, r=math.sqrt(10.0), s=1)
    start = time.perf_counter()
    record = convergence_run(
        f, 2, "lcl", list(range(6, 61, 2)), num_samples=10_000, seed=42
    )
    fit = fit_rate(record)
    elapsed = time.perf_counter() - start
    ok = 1.29 <= fit.rho <= 1.40
    report(
        "criterion 5 (Runge m=3, r^2=10, p=2, degrees 6..60, |A| up to ~1.2e5)",
        ok,
        f"fitted rho {fit.rho:.4f} (window [1.29, 1.40], optimal 1.365), "
        f"R^2 {fit.r_squared:.4f}, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_6_shifted_runge_2d_euclidean_vs_max():
    f = make_benchmark("f4", 2, a=5.0 / 4.0)
    start = time.perf_counter()
    fits = {}
    for p in (2, INF):
        record = convergence_run(
            f, p, "lcl", list(range(4, 41, 2)), num_samples=10_000, seed=42
        )
        fits[p] = fit_rate(record)
    elapsed = time.perf_counter() - start
    rho2, rhoinf = fits[2].rho, fits[INF].rho
    ok = 1.95 <= rho2 <= 2.12 and 2.05 <= rhoinf <= 2.22 and rho2 < rhoinf
    report(
        "criterion 6 (shifted Runge 2D, a=5/4, degrees 4..40)",
        ok,
        f"rho(p=2) {rho2:.4f} (window [1.95, 2.12], ref 2.0518), "
        f"rho(p=inf) {rhoinf:.4f} (window [2.05, 2.22], ref 2.1531), {elapsed:.0f}s",
    )
    assert ok


def test_criterion_7_first_derivative_rate_window():
    f = make_benchmark("runge", 3, r=3, s=1)
    start = time.perf_counter()
    record = convergence_run(
        f,
        2,
        "lcl",
        list(range(8, 61, 2)),
        num_samples=10_000,
        seed=0,
        deriv_order=(1, 0, 0),
    )
    fit = fit_rate(record)
    elapsed = time.perf_counter() - start
    ok = 1.27 <= fit.rho <= 1.40
    report(
        "criterion 7 (d/dx1 of Runge m=3, r=3, p=2)",
        ok,
        f"fitted rho {fit.rho:.4f} (window [1.27, 1.40], reference 1.338), "
        f"R^2 {fit.r_squared:.4f}, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_8_lebesgue_formula_and_ordering():
    start = time.perf_counter()
    gaps = {}
    for n in (4, 8, 16, 32):
        grid = lcl_grid(1, n, 2)
        lam = lebesgue_estimate(grid, 10_000, 0, 0)
        ref = chebyshev_lobatto_lebesgue_reference(n)
        gaps[n] = abs(lam - ref) / ref
    growth = {}
    for p in (1, 2, INF):
        lams = []
        for n in (2, 4, 8, 16):
            grid = lcl_grid(2, n, p)
            lams.append(lebesgue_estimate(grid, 10_000, 0, 0))
        growth[p] = lams[-1] / lams[0]
    elapsed = time.perf_counter() - start
    ordering_ok = growth[INF] < growth[1] and growth[INF] < growth[2]
    formula_ok = all(g <= 0.05 for g in gaps.values())
    gap_text = ", ".join(f"n={n}: {g:.1%}" for n, g in gaps.items())
    growth_text = (
        f"p=1 {growth[1]:.2f}, p=2 {growth[2]:.2f}, p=inf {growth[INF]:.2f}"
    )
    detail = (
        f"1D gaps to (2/pi)(log n + gamma + log(8/pi)): {gap_text} (tol 5%); "
        f"2D growth n=2->16: {growth_text} (max degree slowest); {elapsed:.0f}s"
    )
    report("criterion 8 (Lebesgue constants)", formula_ok and ordering_ok, detail)
    assert ordering_ok, (
        f"2D growth n=2->16 {growth_text}; required: p=inf below p=1 and p=2"
    )
    assert formula_ok, (
        f"1D LCL gaps to the Chebyshev-Lobatto reference {gap_text}; "
        "required: every gap <= 5%"
    )


def test_criterion_9_derivative_and_evaluator_invariants():
    rng = np.random.default_rng(909)
    start = time.perf_counter()
    worst_pair = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        index_set = random_downward_closed(rng, dim, int(rng.integers(2, 50)), 6)
        axes = random_axes(rng, [top + 1 for top in index_set.tops])
        grid = build_grid(index_set, axes)
        poly = NewtonPolynomial(grid, rng.standard_normal(len(grid)))
        x = rng.uniform(-1, 1, dim)
        a = eval_recursive(poly, x)
        b = eval_iterative(poly, x)
        gap = abs(a - b) / (1.0 + abs(b))
        worst_pair = max(worst_pair, gap)
    agree_ok = worst_pair <= 1e-13

    worst_fd = 0.0
    h = 1e-5
    for case in range(100):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(4, 11))
        p = [1, 2, INF][rng.integers(3)]
        kind = ["runge", "f5"][case % 2]
        f = (
            make_benchmark("runge", m, r=1, s=1)
            if kind == "runge"
            else make_benchmark("f5", m, k1=1, k2=1)
        )
        poly = interpolate(f, lcl_grid(m, n, p))
        x = rng.uniform(-0.9, 0.9, m)
        axis = int(rng.integers(m))
        step = np.zeros(m)
        step[axis] = h
        fd = (eval_iterative(poly, x + step) - eval_iterative(poly, x - step)) / (
            2 * h
        )
        order = tuple(int(i == axis) for i in range(m))
        exact = eval_derivative(poly, order, x)
        tol = max(1e-6 * abs(exact), 1e-8)
        worst_fd = max(worst_fd, abs(exact - fd) - tol)
    fd_ok = worst_fd <= 0.0
    elapsed = time.perf_counter() - start
    ok = agree_ok and fd_ok
    report(
        "criterion 9 (evaluator agreement + derivative/finite differences)",
        ok,
        f"worst recursive/iterative gap {worst_pair:.2e} (tol 1e-13), "
        f"worst FD excess {worst_fd:.2e} (<= 0), {elapsed:.0f}s",
    )
    assert ok


def test_criterion_10_quadratic_wall_clock_scaling():
    timings = {}
    for n in (19_999, 39_999):
        index_set = make_lp_set(1, n, 2)
        grid = build_grid(index_set, [chebyshev_lobatto(n)])
        # f(x) = x gives an exactly representable triangle (1s, then 0s),
        # the same arithmetic stream without the 2**depth roundoff blowup
        # generic data hits at this depth
        samples = LagrangeCoefficients(grid, grid.node_coordinates[:, 0])
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            divided_differences(samples)
            best = min(best, time.perf_counter() - t0)
        timings[n] = best
    ratio = timings[39_999] / timings[19_999]
    ok = 3.0 <= ratio <= 5.5
    report(
        "criterion 10 (kernel wall-clock scaling, |A| 2e4 -> 4e4)",
        ok,
        f"times {timings[19_999]:.2f}s -> {timings[39_999]:.2f}s, "
        f"ratio {ratio:.2f} (window [3.0, 5.5])",
    )
    assert ok
