"""Point store, distance, scale arithmetic, bounds, and the text format."""

import math

import pytest
from hypothesis import given, strategies as st

from dynspan.metric import (
    DistanceMatrixSpace,
    MetricSpace,
    format_points,
    parse_points,
    scale_of,
    validate_bounded,
)


def test_distance_identity_is_zero():
    space = MetricSpace(1, 8.0)
    space.add_point(0, (3.0,))
    assert space.distance(0, 0) == 0.0


def test_distance_1d():
    space = MetricSpace(1, 8.0)
    space.add_point(0, (3.0,))
    space.add_point(1, (7.0,))
    assert space.distance(0, 1) == 4.0
    assert space.distance(1, 0) == 4.0


def test_distance_2d_345():
    space = MetricSpace(2, 8.0)
    space.add_point(0, (0.0, 0.0))
    space.add_point(1, (3.0, 4.0))
    assert space.distance(0, 1) == 5.0


def test_distance_unknown_id():
    space = MetricSpace(1, 8.0)
    with pytest.raises(KeyError):
        space.distance(0, 1)


def test_scale_of_values():
    assert scale_of(1.0) == 1
    assert scale_of(0.75) == 0
    assert scale_of(7.9) == 3


def test_scale_of_rejects_nonpositive():
    with pytest.raises(ValueError):
        scale_of(0.0)
    with pytest.raises(ValueError):
        scale_of(-1.0)


@given(st.integers(min_value=0, max_value=1000))
def test_scale_of_powers_of_two(k):
    # half-open boundary: 2**k lands in [2**k, 2**(k+1))
    assert scale_of(2.0**k) == k + 1


@given(st.floats(min_value=1e-9, max_value=1e300))
def test_scale_of_brackets_its_argument(d):
    i = scale_of(d)
    assert 2.0 ** (i - 1) <= d < 2.0**i


@given(
    st.lists(
        st.tuples(
            st.floats(-1e6, 1e6, allow_nan=False), st.floats(-1e6, 1e6, allow_nan=False)
        ),
        min_size=3,
        max_size=3,
    )
)
def test_triangle_inequality(coords):
    space = MetricSpace(2, 8.0)
    for pid, c in enumerate(coords):
        space.add_point(pid, c)
    ab = space.distance(0, 1)
    bc = space.distance(1, 2)
    ac = space.distance(0, 2)
    assert ac <= ab + bc + 1e-9


@given(
    st.integers(1, 3).flatmap(
        lambda dim: st.lists(
            st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=dim, max_size=dim),
            min_size=2,
            max_size=2,
        )
    )
)
def test_distance_is_symmetric_bit_for_bit(coords):
    # the hierarchy reads d(u, v) for d(v, u) from the updated point's row
    space = MetricSpace(len(coords[0]), 8.0)
    for pid, c in enumerate(coords):
        space.add_point(pid, c)
    assert space.distance(0, 1).hex() == space.distance(1, 0).hex()


def test_phi_must_be_power_of_two_at_least_one():
    with pytest.raises(ValueError):
        MetricSpace(1, 3.0)
    with pytest.raises(ValueError):
        MetricSpace(1, 0.0)
    with pytest.raises(ValueError):
        MetricSpace(1, 0.5)
    assert MetricSpace(1, 1.0).top_scale == 0
    assert MetricSpace(1, 1024.0).top_scale == 10


def test_dim_must_be_positive():
    with pytest.raises(ValueError):
        MetricSpace(0, 8.0)


def test_coordinate_length_checked():
    space = MetricSpace(2, 8.0)
    with pytest.raises(ValueError):
        space.add_point(0, (1.0,))


def test_ids_are_never_recycled():
    space = MetricSpace(1, 8.0)
    space.add_point(0, (1.0,))
    space.remove_point(0)
    with pytest.raises(KeyError):
        space.add_point(0, (2.0,))


def test_deleted_points_stay_queryable():
    space = MetricSpace(1, 8.0)
    space.add_point(0, (1.0,))
    space.add_point(1, (4.0,))
    space.remove_point(0)
    assert space.active == {1}
    assert space.distance(0, 1) == 3.0
    assert space.coords(0) == (1.0,)


def test_remove_inactive_point_fails():
    space = MetricSpace(1, 8.0)
    space.add_point(0, (1.0,))
    space.remove_point(0)
    with pytest.raises(KeyError):
        space.remove_point(0)
    with pytest.raises(KeyError):
        space.remove_point(7)


def test_validate_bounded_empty():
    ok, violations = validate_bounded(MetricSpace(1, 8.0))
    assert ok and violations == []


def test_validate_bounded_rejects_close_pair():
    space = MetricSpace(1, 8.0)
    space.add_point(0, (0.0,))
    space.add_point(1, (0.5,))
    ok, violations = validate_bounded(space)
    assert not ok
    assert violations == [(0, 1, 0.5)]
    # the bound is [1, phi): a pair at exactly phi is out too
    space.add_point(2, (8.0,))
    ok, violations = validate_bounded(space)
    assert not ok
    assert violations == [(0, 1, 0.5), (0, 2, 8.0)]


def test_validate_bounded_line_1_to_16():
    space = MetricSpace(1, 16.0)
    for k in range(16):
        space.add_point(k, (float(k + 1),))
    ok, violations = validate_bounded(space)
    assert ok and violations == []


def test_scales_of_validated_space_lie_in_range():
    space = MetricSpace(1, 16.0)
    for k in range(16):
        space.add_point(k, (float(k + 1),))
    assert validate_bounded(space)[0]
    top = int(math.log2(space.phi))
    ids = sorted(space.active)
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            assert 1 <= scale_of(space.distance(ids[a], ids[b])) <= top


# -- distance-matrix backend --------------------------------------------------


def test_matrix_space_basic():
    m = [[0.0, 3.0], [3.0, 0.0]]
    space = DistanceMatrixSpace(m, 8.0)
    space.add_point(0)
    space.add_point(1)
    assert space.dim == 0
    assert space.coords(0) == ()
    assert space.distance(0, 1) == 3.0
    space.remove_point(1)
    assert space.distance(0, 1) == 3.0  # still queryable
    assert sorted(space.active) == [0]


def test_matrix_space_validation():
    with pytest.raises(ValueError):
        DistanceMatrixSpace([[0.0, 1.0]], 8.0)  # not square
    with pytest.raises(ValueError):
        DistanceMatrixSpace([[0.0, 1.0], [2.0, 0.0]], 8.0)  # asymmetric
    with pytest.raises(ValueError):
        DistanceMatrixSpace([[1.0, 1.0], [1.0, 0.0]], 8.0)  # diagonal
    with pytest.raises(ValueError):
        DistanceMatrixSpace([[0.0, 0.0], [0.0, 0.0]], 8.0)  # zero off-diagonal


def test_matrix_space_id_rules():
    space = DistanceMatrixSpace([[0.0, 2.0], [2.0, 0.0]], 8.0)
    with pytest.raises(KeyError):
        space.add_point(5)  # outside the matrix
    space.add_point(0)
    with pytest.raises(KeyError):
        space.add_point(0)
    with pytest.raises(KeyError):
        space.distance(0, 1)  # 1 never added


# -- text format ----------------------------------------------------------------


def test_parse_points_basic():
    text = "# comment\n0 1.0 2.0\n\n1 3.5 4.5\n"
    assert parse_points(text) == [(0, (1.0, 2.0)), (1, (3.5, 4.5))]


def test_parse_points_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_points("0\n")  # no coordinates
    with pytest.raises(ValueError):
        parse_points("0 1.0 2.0\n1 3.0\n")  # inconsistent dimension


@given(
    st.lists(
        st.tuples(
            st.floats(-1e12, 1e12, allow_nan=False),
            st.floats(-1e12, 1e12, allow_nan=False),
        ),
        min_size=0,
        max_size=10,
    )
)
def test_format_parse_round_trip(coord_list):
    points = [(pid, coords) for pid, coords in enumerate(coord_list)]
    assert parse_points(format_points(points)) == points
