import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    UNISOLVENCE_SIZE_CAP,
    monomial_vandermonde,
    random_axes,
    random_downward_closed,
    same_bits,
    vandermonde_unisolvence_check,
)
from mvnewton import grid as grid_module
from mvnewton.grid import (
    Nodes1D,
    UnisolventGrid,
    axes_for,
    build_grid,
    chebyshev_lobatto,
    leja_order,
    leja_points,
    _table_text,
)
from mvnewton.multi_index import MultiIndexSet, make_lp_set

SRC = Path(__file__).resolve().parents[1] / "src" / "mvnewton"


def test_chebyshev_lobatto_small():
    assert np.array_equal(chebyshev_lobatto(2).points, [1.0, 0.0, -1.0])
    assert np.array_equal(chebyshev_lobatto(1).points, [1.0, -1.0])
    assert np.array_equal(chebyshev_lobatto(0).points, [1.0])
    expected = [1.0, math.sqrt(2) / 2, 0.0, -math.sqrt(2) / 2, -1.0]
    assert np.allclose(chebyshev_lobatto(4).points, expected, atol=1e-15)
    assert chebyshev_lobatto(4).points[2] == 0.0  # snapped exactly


def test_chebyshev_lobatto_rejects_negative():
    with pytest.raises(ValueError):
        chebyshev_lobatto(-1)


@pytest.mark.parametrize("build", [chebyshev_lobatto, leja_points])
@pytest.mark.parametrize("n", [2.0, True, -1])
def test_node_builders_name_a_bad_degree(build, n):
    # 2.0 raised IndexError or TypeError, and True built two points
    with pytest.raises(ValueError, match="^degree n must be "):
        build(n)
    assert np.array_equal(build(np.int64(2)).points, build(2).points)


def test_leja_order_three_points():
    ordered = leja_order(Nodes1D(np.array([1.0, 0.0, -1.0])))
    assert np.array_equal(ordered.points, [1.0, -1.0, 0.0])


def test_leja_order_single_point():
    assert np.array_equal(leja_order(Nodes1D(np.array([0.37]))).points, [0.37])


def test_leja_order_cl4_starts_with_extremes():
    ordered = leja_order(chebyshev_lobatto(4))
    assert ordered.points[0] == 1.0
    assert ordered.points[1] == -1.0
    # cos(pi/4) and -cos(3pi/4) differ in the last bit, which breaks their tie
    assert np.array_equal(ordered.points, chebyshev_lobatto(4).points[[0, 4, 2, 3, 1]])


def _leja_order_reference(pts: np.ndarray) -> np.ndarray:
    """The greedy Leja order of ``pts`` with a mask of the points not yet
    chosen and a separate first step: the largest ``|p|``, then each step
    the largest sum of ``log|p - p_j|`` over the remaining points, summed in
    the order the ``p_j`` were chosen; ties go to the larger value."""
    count = pts.size
    chosen = np.empty(count, dtype=np.int64)
    remaining = np.ones(count, dtype=bool)
    absvals = np.abs(pts)
    ties = absvals == absvals.max()
    first = int(np.flatnonzero(ties)[np.argmax(pts[ties])])
    chosen[0] = first
    remaining[first] = False
    logdist = np.full(count, -np.inf)
    logdist[remaining] = np.log(np.abs(pts[remaining] - pts[first]))
    for step in range(1, count):
        best = logdist[remaining].max()
        ties = remaining & (logdist == best)
        pick = int(np.flatnonzero(ties)[np.argmax(pts[ties])])
        chosen[step] = pick
        remaining[pick] = False
        logdist[pick] = -np.inf
        logdist[remaining] += np.log(np.abs(pts[remaining] - pts[pick]))
    return pts[chosen]


def test_leja_order_matches_the_masked_reference_on_chebyshev_lobatto():
    for n in range(301):
        pts = chebyshev_lobatto(n).points
        assert same_bits(leja_order(pts).points, _leja_order_reference(pts)), n


@given(
    st.integers(min_value=1, max_value=80),
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
)
def test_leja_order_matches_the_masked_reference_on_random_sets(n, seed, symmetric):
    pts = np.random.default_rng(seed).uniform(-1, 1, size=n)
    if symmetric:  # +-p pairs tie exactly in |p| and often in their log sums
        half = pts[: (n + 1) // 2]
        pts = np.concatenate([half, -half])[:n]
    if (np.diff(np.sort(pts)) < 1e-14).any():
        return
    assert same_bits(leja_order(pts).points, _leja_order_reference(pts))


@given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=10**6))
def test_leja_order_is_permutation(n, seed):
    pts = np.random.default_rng(seed).uniform(-1, 1, size=n)
    if len(np.unique(pts)) != n:
        return
    ordered = leja_order(Nodes1D(pts))
    assert sorted(ordered.points) == sorted(pts)
    assert abs(ordered.points[0]) == np.abs(pts).max()


@given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=10**6))
def test_leja_order_idempotent(n, seed):
    pts = np.random.default_rng(seed).uniform(-1, 1, size=n)
    if len(np.unique(pts)) != n:
        return
    once = leja_order(Nodes1D(pts))
    twice = leja_order(once)
    assert np.array_equal(once.points, twice.points)


def test_leja_points_small():
    assert np.array_equal(leja_points(0).points, [1.0])
    assert np.array_equal(leja_points(1).points, [1.0, -1.0])
    third = leja_points(2).points
    assert np.array_equal(third[:2], [1.0, -1.0])
    # the maximum of (1 - p^2) sits exactly at 0, the root of 1/(p - 1) + 1/(p + 1)
    assert third[2] == 0.0
    # {1, -1, 0} leaves tied maxima at +-1/sqrt(3); the tie rule takes the larger
    assert abs(leja_points(3).points[3] - 1 / np.sqrt(3)) <= 1e-15


def _bisected_gap_roots(chosen: np.ndarray) -> np.ndarray:
    """The root of ``sum_j 1/(x - chosen_j)`` in every gap between
    neighbouring ``chosen`` points, by plain bisection until no float lies
    inside a bracket."""
    edges = np.sort(chosen)
    lo, hi = edges[:-1].copy(), edges[1:].copy()
    while True:
        mid = lo + (hi - lo) / 2
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            return lo
        g = (1.0 / (mid[:, None] - chosen)).sum(axis=1)
        lo = np.where(inside & (g >= 0), mid, lo)
        hi = np.where(inside & (g < 0), mid, hi)


def test_leja_points_take_the_best_gap_root_larger_on_ties():
    points = leja_points(100).points
    assert np.array_equal(points[:2], [1.0, -1.0])  # -1 maximizes |x - 1|
    for k in range(2, points.size):
        chosen, p = points[:k], points[k]
        roots = _bisected_gap_roots(chosen)
        logs = np.log(np.abs(roots[:, None] - chosen)).sum(axis=1)
        best = logs.max()
        assert np.log(np.abs(p - chosen)).sum() >= best - 1e-12, k
        # of the roots tied with the best, p is the largest
        tied = roots[logs >= best - 1e-12]
        assert abs(p - tied.max()) <= 4 * np.spacing(1.0), k
        # p is a root of g(x) = sum_j 1/(x - p_j) to roundoff
        inv = 1.0 / (p - chosen)
        assert abs(inv.sum()) <= 1e-12 * np.abs(inv).sum(), k


def _leja_points_reference(n: int) -> np.ndarray:
    """The gap-root greedy one gap at a time, with a scalar Newton per gap:
    the same operations, in the same order, as ``leja_points``."""
    points = [1.0, -1.0][: n + 1]
    gaps = [[-1.0, 1.0, 0.0, -np.inf, np.inf]]  # lo, hi, at, low, up; ascending

    def root(chosen, lo, hi, x):
        while True:
            inv = 1.0 / (x - chosen)
            g = inv.sum()
            lo, hi = (x if g > 0 else lo), (x if g < 0 else hi)
            newton = x + g / (inv * inv).sum()
            nxt = newton if lo < newton < hi else lo + (hi - lo) / 2
            if newton == x or not lo < nxt < hi:
                return x
            x = nxt

    for _ in range(2, n + 1):
        chosen = np.array(points)
        while todo := [
            gap
            for gap in gaps
            if gap[4] != gap[3] and gap[4] >= max(g[3] for g in gaps)
        ]:
            for gap in todo:
                gap[2] = root(chosen, *gap[:3])
                gap[3] = gap[4] = np.log(np.abs(gap[2] - chosen)).sum()
        top = max(gap[3] for gap in gaps)
        best = [i for i, gap in enumerate(gaps) if gap[4] == gap[3] and gap[3] == top][-1]
        lo, hi, q = gaps[best][0], gaps[best][1], gaps[best][2]
        points.append(q)
        gaps[best : best + 1] = [[lo, q, (lo + q) / 2, -np.inf, np.inf], [q, hi, (q + hi) / 2, -np.inf, np.inf]]
        for gap in gaps:
            gap[3] += np.log(np.abs(gap[2] - q))
            gap[4] += np.log(max(abs(gap[0] - q), abs(gap[1] - q)))
    return np.array(points)


@pytest.mark.parametrize("n, longer", [(1, None), (2, None), (7, None), (20, 500), (60, None)])
def test_leja_points_bitwise_equal_the_reference_search(n, longer):
    # with ``longer``, the points are the prefix of a longer sequence
    points = leja_points(longer or n).points[: n + 1]
    reference = _leja_points_reference(n)
    assert np.array_equal(points.view(np.int64), reference.view(np.int64))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=149), st.integers(min_value=1, max_value=150))
def test_leja_points_nested(n1, step):
    n2 = min(n1 + step, 150)
    short, long = leja_points(n1).points, leja_points(n2).points
    assert np.array_equal(long[: n1 + 1].view(np.int64), short.view(np.int64))


def test_nodes1d_validation():
    # leja_order, build_grid and the grid class check raw axes as Nodes1D
    # does; a degree-0 set uses one point of each axis, yet the whole axis is
    # checked, and an integer beyond the float range lies outside
    shape = "^nodes must be a non-empty 1-d sequence$"
    near = "^nodes must be pairwise at least 1e-14 apart$"
    cases = [([0.5, 0.5], near), ([0.5, 0.5 + 5e-15], near), ([0.5, -0.2, 0.5 - 5e-15], near),
             ([0.0, 9e-15], near), ([1.0, -1.0, 0.3, 0.3 + 1e-15], near),
             ([1.5], "^nodes must lie within"), ([np.nan], "^nodes must lie within"),
             ([10**400, 0.0], "^nodes must lie within"),
             ([], shape), ([[0.5]], shape), ([[0.1, 0.2], [0.3, 0.4]], shape)]
    index_set = make_lp_set(1, 0, 1)
    for raw, message in cases:
        for make in (Nodes1D, leja_order, lambda axis: build_grid(index_set, [axis]),
                     lambda axis: UnisolventGrid(index_set, (axis,))):
            with pytest.raises(ValueError, match=message):
                make(raw)
    assert np.array_equal(leja_order([0.1, -0.5, 1.0]).points, [1.0, -0.5, 0.1])
    assert np.array_equal(Nodes1D([0.0, 1e-14]).points, [0.0, 1e-14])  # exactly the separation


def test_only_the_axis_layer_reads_the_node_separation():
    # Nodes1D owns the rule; a second reader would bring a second rule back
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Name) and node.id == "MIN_NODE_SEPARATION")
        or (isinstance(node, ast.Attribute) and node.attr == "MIN_NODE_SEPARATION")
    ]
    assert sites and all(site.startswith("grid.py:") for site in sites), sites
    assert grid_module.MIN_NODE_SEPARATION == 1e-14


def test_build_grid_two_nodes():
    grid = build_grid(MultiIndexSet([(0,), (1,)]), [Nodes1D(np.array([1.0, -1.0]))])
    assert np.array_equal(grid.node_coordinates[:, 0], [1.0, -1.0])


def test_build_grid_total_degree_count():
    a = make_lp_set(2, 3, 1)
    grid = build_grid(a, [leja_order(chebyshev_lobatto(3))] * 2)
    assert len(grid) == 10
    coords = grid.node_coordinates
    assert len({tuple(row) for row in coords}) == 10


def test_build_grid_full_tensor_square():
    a = make_lp_set(2, 1, math.inf)
    axis = Nodes1D(np.array([1.0, -1.0]))
    grid = build_grid(a, [axis, axis])
    nodes = {tuple(row) for row in grid.node_coordinates}
    assert nodes == {(1, 1), (-1, 1), (1, -1), (-1, -1)}


def test_build_grid_rejects_undersized_axis():
    a = make_lp_set(2, 3, 1)
    with pytest.raises(ValueError):
        build_grid(a, [Nodes1D(np.array([1.0, -1.0])), leja_order(chebyshev_lobatto(3))])


def test_the_grid_class_checks_its_axes():
    # a grid that exists is valid: interpolate on this one raised IndexError
    a = make_lp_set(2, 4, 2)
    two = Nodes1D(np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="^axis 1 has 2 points but the index set needs 5$"):
        UnisolventGrid(a, (two,) * 2)
    with pytest.raises(ValueError, match="^need 2 axes for dimension 2, got 1$"):
        UnisolventGrid(a, (leja_points(4),))
    assert len(UnisolventGrid(a, (leja_points(4),) * 2)) == len(a)
    raw = UnisolventGrid(a, [[1.0, -1.0, 0.0, 0.5, -0.5]] * 2)  # raw axes become Nodes1D
    assert type(raw.axes) is tuple and all(isinstance(ax, Nodes1D) for ax in raw.axes)
    assert np.array_equal(raw.node_coordinates, build_grid(a, raw.axes).node_coordinates)
    assert build_grid is not UnisolventGrid  # a function of its own, which perfbench traces


def test_build_grid_rejects_duplicate_axis_points():
    a = make_lp_set(1, 1, 1)
    with pytest.raises(ValueError):
        build_grid(a, [np.array([0.5, 0.5])])


def test_axes_for_builds_each_length_once(monkeypatch):
    # top degrees (3, 1, 3): axes 1 and 3 are one shared object
    index_set = MultiIndexSet(
        [(a, b, c) for a in range(4) for b in range(2) for c in range(4)]
    )
    built = []
    monkeypatch.setattr(
        grid_module, "leja_order", lambda nodes: built.append(len(nodes)) or leja_order(nodes)
    )
    lcl = axes_for(index_set, "lcl")
    assert built == [4, 2]
    assert [len(ax) for ax in lcl] == [4, 2, 4] and lcl[0] is lcl[2]
    for ax, n in zip(lcl, (3, 1, 3)):
        assert np.array_equal(ax.points, leja_order(chebyshev_lobatto(n)).points)
    leja = axes_for(index_set, "leja")
    assert [len(ax) for ax in leja] == [4, 2, 4] and leja[0] is leja[2]
    assert np.array_equal(leja[1].points, leja_points(1).points)
    with pytest.raises(ValueError, match="^unknown grid family 'chebyshev'; expected lcl or leja$"):
        axes_for(index_set, "chebyshev")


def test_build_grid_requires_downward_closed():
    # the index set of a grid cannot be anything but downward closed
    with pytest.raises(ValueError, match="^the index set is not downward closed$"):
        build_grid(MultiIndexSet([(0, 0), (1, 1)]), [Nodes1D(np.array([1.0, -1.0]))] * 2)


def test_max_degree_grid_is_tensor_product():
    a = make_lp_set(2, 2, math.inf)
    ax = leja_order(chebyshev_lobatto(2))
    grid = build_grid(a, [ax, ax])
    tensor = {(x, y) for x in ax.points for y in ax.points}
    assert {tuple(r) for r in grid.node_coordinates} == tensor


def test_unisolvence_check_on_lp_grids():
    for m, n, p in [(2, 3, 1), (2, 2, 1), (3, 2, 2), (2, 3, math.inf)]:
        a = make_lp_set(m, n, p)
        grid = build_grid(a, [leja_order(chebyshev_lobatto(n))] * m)
        assert vandermonde_unisolvence_check(grid)


def test_unisolvence_check_duplicate_nodes_fails():
    # construction forbids duplicated axis points, so probe the raw oracle
    nodes = np.array([[1.0], [1.0]])
    exps = np.array([[0], [1]])
    assert not vandermonde_unisolvence_check(nodes, exps)


def test_unisolvence_check_size_cap():
    a = make_lp_set(2, 40, 1)
    grid = build_grid(a, [leja_order(chebyshev_lobatto(40))] * 2)
    assert len(grid) == 861 > UNISOLVENCE_SIZE_CAP
    with pytest.raises(ValueError, match="oracle cap"):
        vandermonde_unisolvence_check(grid)


def test_monomial_vandermonde_values():
    v = monomial_vandermonde(np.array([[2.0, 3.0]]), np.array([[1, 2]]))
    assert v.shape == (1, 1)
    assert v[0, 0] == 2.0 * 9.0


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25)
def test_random_downward_closed_grids_unisolvent(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    index_set = random_downward_closed(rng, dim, int(rng.integers(2, 80)), max_degree=5)
    axes = random_axes(rng, [top + 1 for top in index_set.tops])
    grid = build_grid(index_set, axes)
    assert vandermonde_unisolvence_check(grid)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30)
def test_grid_csv_text_is_the_cell_by_cell_table(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    index_set = random_downward_closed(rng, dim, int(rng.integers(1, 150)), max_degree=12)
    sizes = [top + 1 + int(rng.integers(0, 3)) for top in index_set.tops]
    grid = build_grid(index_set, random_axes(rng, sizes))
    # gathered columns write the same text as their gathered-out arrays
    header, columns = grid._table()
    plain = [column.values[column.index] for column in columns]
    assert _table_text(header, columns) == _table_text(header, plain)
    assert np.array_equal(np.column_stack(plain[:dim]), index_set.exponents)
    assert np.array_equal(np.column_stack(plain[dim:]), grid.node_coordinates)
