import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    UNISOLVENCE_SIZE_CAP,
    monomial_vandermonde,
    random_axes,
    random_downward_closed,
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
)
from mvnewton.multi_index import MultiIndexSet, make_lp_set


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


def test_leja_order_three_points():
    ordered = leja_order(Nodes1D(np.array([1.0, 0.0, -1.0])))
    assert np.array_equal(ordered.points, [1.0, -1.0, 0.0])


def test_leja_order_single_point():
    assert np.array_equal(leja_order(Nodes1D(np.array([0.37]))).points, [0.37])


def test_leja_order_cl4_starts_with_extremes():
    ordered = leja_order(chebyshev_lobatto(4))
    assert ordered.points[0] == 1.0
    assert ordered.points[1] == -1.0
    assert ordered.family == "leja_ordered_chebyshev_lobatto"


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
    assert np.array_equal(leja_points(0, 100).points, [1.0])
    assert np.array_equal(leja_points(1, 100).points, [1.0, -1.0])
    third = leja_points(2, 1000).points
    assert np.array_equal(third[:2], [1.0, -1.0])
    # analytic maximum of (1 - p^2) sits at 0; the log objective is flat to
    # float precision there, so the search resolves it only to ~1e-8
    assert abs(third[2]) < 1e-6


def test_leja_points_resolution_precondition():
    with pytest.raises(ValueError):
        leja_points(20, 100)


def test_leja_points_stable_under_resolution_doubling():
    a = leja_points(12, 100_000).points
    b = leja_points(12, 200_000).points
    for x, y in zip(a, b):
        if x == y == 0.0:
            continue
        scale = max(abs(x), abs(y))
        assert abs(x - y) <= 1e-4 * scale + 1e-7  # 4 significant digits


def test_leja_points_nested():
    long = leja_points(8, 5000).points
    short = leja_points(5, 5000).points
    assert np.array_equal(long[:6], short)


def test_nodes1d_validation():
    with pytest.raises(ValueError):
        Nodes1D(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Nodes1D(np.array([1.5]))
    with pytest.raises(ValueError):
        Nodes1D(np.array([np.nan]))
    with pytest.raises(ValueError):
        Nodes1D(np.array([0.1]), family="nope")


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
    with pytest.raises(ValueError, match="unknown grid family"):
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


def test_grid_csv_round_trip(tmp_path):
    a = make_lp_set(2, 3, 2)
    grid = build_grid(a, [leja_order(chebyshev_lobatto(3))] * 2)
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    back = UnisolventGrid.from_csv(path)
    assert back.index_set == grid.index_set
    assert np.array_equal(back.node_coordinates, grid.node_coordinates)


def test_grid_csv_rejects_inconsistent_rows(tmp_path):
    grid = build_grid(make_lp_set(2, 2, 1), [Nodes1D([1.0, -1.0, 0.5])] * 2)
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[5] == "1,1,-1,-1"  # the second row that puts x2 at level 1
    lines[5] = "1,1,-1,-0.75"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="axis 2 at level 1"):
        UnisolventGrid.from_csv(path)
    # a level far beyond the row count leaves the set not downward closed,
    # which is found before anything is allocated per level
    path.write_text("a1,x1\n0,1\n1000000000000000,-1\n")
    with pytest.raises(ValueError, match="^the index set is not downward closed$"):
        UnisolventGrid.from_csv(path)
