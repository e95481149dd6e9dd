import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvnewton.multi_index import MultiIndexSet, is_downward_closed, make_lp_set

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


def test_positions_and_contains():
    s = make_lp_set(3, 3, 2)
    for i, alpha in enumerate(s):
        assert s.position(alpha) == i
    assert (9, 9, 9) not in s
    with pytest.raises(KeyError):
        s.position((9, 9, 9))


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
