import math

import hypothesis
import numpy as np
import pytest

from mvnewton.cli import main
from mvnewton.grid import Nodes1D, UnisolventGrid, axes_for, build_grid
from mvnewton.multi_index import MultiIndexSet, make_lp_set

hypothesis.settings.register_profile(
    "ci", deadline=None, max_examples=40, derandomize=True
)
hypothesis.settings.load_profile("ci")

# Relative smallest-singular-value threshold separating "singular" from
# "merely ill-conditioned" at desk scale.
UNISOLVENCE_RTOL = 1e-10
UNISOLVENCE_SIZE_CAP = 600


def run(argv):
    """The CLI's exit code for ``argv``, each argument passed as a string."""
    return main([str(a) for a in argv])


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal bit patterns, so -0.0 differs from 0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def lcl_grid(m, n, p):
    """The LCL grid (Leja-ordered Chebyshev-Lobatto axes) of the ``l_p``
    ball of radius ``n`` in ``m`` dimensions."""
    index_set = make_lp_set(m, n, p)
    return build_grid(index_set, axes_for(index_set, "lcl"))


def random_downward_closed(
    rng: np.random.Generator,
    dim: int,
    target_size: int,
    max_degree: int = 8,
) -> MultiIndexSet:
    """Grow a random downward-closed set by adding admissible neighbours.

    A candidate ``alpha + e_i`` is admissible when all its back-neighbours
    are already present, which keeps the set downward closed at every step.
    """
    target_size = min(target_size, (max_degree + 1) ** dim)
    members = {(0,) * dim}
    frontier = [(0,) * dim]
    attempts = 0
    while len(members) < target_size and attempts < 500 * target_size:
        attempts += 1
        base = frontier[rng.integers(len(frontier))]
        axis = int(rng.integers(dim))
        candidate = list(base)
        candidate[axis] += 1
        candidate = tuple(candidate)
        if candidate in members or candidate[axis] > max_degree:
            continue
        admissible = all(
            tuple(candidate[:i]) + (candidate[i] - 1,) + tuple(candidate[i + 1 :])
            in members
            for i in range(dim)
            if candidate[i] > 0
        )
        if admissible:
            members.add(candidate)
            frontier.append(candidate)
    return MultiIndexSet(sorted(members, key=lambda a: tuple(reversed(a))))


def hyperbolic_cross(m: int, limit: int) -> MultiIndexSet:
    """``{a : prod(a_i + 1) <= limit}``: long thin arms, as for ``p < 1``."""
    rows = [a for a in np.ndindex(*(limit,) * m) if math.prod(v + 1 for v in a) <= limit]
    return MultiIndexSet(rows)


def random_axes(rng: np.random.Generator, sizes) -> list[Nodes1D]:
    """Distinct, well-separated random points per axis, in random order."""
    axes = []
    for size in sizes:
        # jittered grid keeps a minimum separation so divided differences
        # and the Vandermonde oracle stay well away from degeneracy
        base = np.linspace(-1.0, 1.0, size) if size > 1 else np.zeros(1)
        jitter = rng.uniform(-0.3, 0.3, size=size) * (2.0 / max(size - 1, 1)) * 0.5
        pts = np.clip(base + jitter, -1.0, 1.0)
        while len(np.unique(pts)) != size:
            pts = np.clip(base + rng.uniform(-0.3, 0.3, size) * 0.5, -1.0, 1.0)
        axes.append(Nodes1D(rng.permutation(pts)))
    return axes


def newton_basis_oracle(grid, x, order=None) -> np.ndarray:
    """Oracle values ``d^order N_beta(x)`` of every Newton basis function at
    the rows of ``x``, shape ``(k, |A|)``, written out directly from the
    basis product formula (independent of the library kernels).

    Each axis factor ``prod_{j < l} (x_i - p_j)`` is differentiated with
    the product rule, ``d_o[l] = d_o[l - 1] (x_i - p_{l-1}) + o d_{o-1}[l - 1]``,
    and the factors are multiplied in axis order.
    """
    exps = grid.index_set.exponents
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out = np.ones((x.shape[0], len(grid)))
    for i in range(grid.dim):
        pts = grid.axes[i].points
        top = exps[:, i].max()
        o = 0 if order is None else order[i]
        # prefix[d][:, l]: the d-th derivative of prod_{j < l} (x_i - p_j)
        prefix = np.zeros((o + 1, x.shape[0], top + 1))
        prefix[0, :, 0] = 1.0
        for level in range(1, top + 1):
            step = x[:, i] - pts[level - 1]
            prefix[0, :, level] = prefix[0, :, level - 1] * step
            for d in range(1, o + 1):
                prefix[d, :, level] = (
                    prefix[d, :, level - 1] * step + d * prefix[d - 1, :, level - 1]
                )
        out *= prefix[o][:, exps[:, i]]
    return out


def newton_collocation_matrix(grid) -> np.ndarray:
    """Oracle collocation matrix ``N_beta(p_alpha)`` from the basis product
    formula; lower triangular in canonical order."""
    return newton_basis_oracle(grid, grid.node_coordinates)


def monomial_vandermonde(points: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Generalized Vandermonde matrix ``V[a, b] = points[a] ** exponents[b]``."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    exps = np.asarray(exponents, dtype=np.int64)
    if pts.shape[1] != exps.shape[1]:
        raise ValueError("points and exponents disagree on dimension")
    out = np.ones((pts.shape[0], exps.shape[0]))
    for i in range(pts.shape[1]):
        out *= pts[:, i, None] ** exps[None, :, i]
    return out


def vandermonde_unisolvence_check(nodes, exponents=None) -> bool:
    """Numerically decide unisolvence of a node set (desk-scale oracle).

    Builds the ``|A| x |A|`` monomial Vandermonde matrix and reports whether
    the smallest singular value exceeds ``UNISOLVENCE_RTOL`` times the
    largest.  Accepts an :class:`UnisolventGrid`, or raw ``(nodes,
    exponents)`` arrays so degenerate inputs that the constructors forbid
    can still be probed.  The O(|A|^3) cost is capped at
    ``UNISOLVENCE_SIZE_CAP`` rows.
    """
    if isinstance(nodes, UnisolventGrid):
        coords = nodes.node_coordinates
        exps = nodes.index_set.exponents
    else:
        coords = np.atleast_2d(np.asarray(nodes, dtype=np.float64))
        if exponents is None:
            raise ValueError("raw node input requires the exponents argument")
        exps = np.asarray(exponents, dtype=np.int64)
    if coords.shape[0] != exps.shape[0]:
        raise ValueError("node count must match index count")
    if coords.shape[0] > UNISOLVENCE_SIZE_CAP:
        raise ValueError(
            f"instance size {coords.shape[0]} exceeds the oracle cap "
            f"{UNISOLVENCE_SIZE_CAP}"
        )
    vmat = monomial_vandermonde(coords, exps)
    singular = np.linalg.svd(vmat, compute_uv=False)
    return bool(singular[-1] > UNISOLVENCE_RTOL * singular[0])


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
