"""Net hierarchy maintenance: insert, delete with promotion, ball queries."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dynspan.metric import MetricSpace
from dynspan.net_tree import NetHierarchy
from dynspan.oracle import validate_net_hierarchy, validate_neighbor_lists


def line_space(coords, phi):
    space = MetricSpace(1, phi)
    for pid, x in enumerate(coords):
        space.add_point(pid, (float(x),))
    return space


def manual_hierarchy(space, levels):
    """Build a hierarchy with prescribed per-level member sets."""
    hier = NetHierarchy(space)
    for i, members in enumerate(levels):
        for pid in sorted(members):
            hier._add_member(i, pid)
    return hier


def test_insert_into_empty_joins_every_level():
    space = line_space([0], 8.0)
    hier = NetHierarchy(space)
    changes = hier.insert(0)
    assert changes == [(0, 0, True), (1, 0, True), (2, 0, True), (3, 0, True)]
    assert hier.max_level(0) == 3
    assert validate_net_hierarchy(hier) == []


def test_insert_joins_levels_below_first_covered():
    # existing point at 0 on every level; new point at distance 5 is
    # first covered at level 3 (5 < 8), so it joins levels 0..2
    space = line_space([0, 5], 8.0)
    hier = NetHierarchy(space)
    hier.insert(0)
    changes = hier.insert(1)
    assert changes == [(0, 1, True), (1, 1, True), (2, 1, True)]
    assert hier.max_level(1) == 2
    assert not hier.contains(3, 1)
    assert validate_net_hierarchy(hier) == []


def test_insert_close_point_joins_only_bottom():
    space = line_space([0, 1], 8.0)
    hier = NetHierarchy(space)
    hier.insert(0)
    changes = hier.insert(1)  # 1 < 2**1, first covered at level 1
    assert changes == [(0, 1, True)]
    assert hier.max_level(1) == 0


def test_insert_preconditions():
    space = line_space([0, 5], 8.0)
    hier = NetHierarchy(space)
    hier.insert(0)
    with pytest.raises(KeyError):
        hier.insert(0)  # already present
    space.remove_point(1)
    with pytest.raises(KeyError):
        hier.insert(1)  # not active


def test_delete_only_point_empties_everything():
    space = line_space([0], 8.0)
    hier = NetHierarchy(space)
    hier.insert(0)
    hier.delete(0)
    assert all(not members for members in hier.levels)
    assert all(not lists for lists in hier.neighbors)


def test_delete_promotes_sole_survivor_to_top():
    space = line_space([0, 5], 8.0)
    hier = NetHierarchy(space)
    hier.insert(0)  # levels 0..3
    hier.insert(1)  # levels 0..2
    changes = hier.delete(0)
    space.remove_point(0)
    assert changes == [
        (0, 0, False),
        (1, 0, False),
        (2, 0, False),
        (3, 0, False),
        (3, 1, True),
    ]
    assert [sorted(members) for members in hier.levels] == [[1], [1], [1], [1]]
    assert validate_net_hierarchy(hier) == []


def test_delete_with_two_survivors_restores_covering():
    space = line_space([0, 3, 5], 8.0)
    hier = NetHierarchy(space)
    hier.insert(0)  # all levels
    hier.insert(1)  # coord 3: levels 0..1
    hier.insert(2)  # coord 5: levels 0..2
    hier.delete(0)
    space.remove_point(0)
    assert validate_net_hierarchy(hier) == []
    assert validate_neighbor_lists(hier) == []
    assert sorted(hier.levels[0]) == [1, 2]


def test_delete_absent_point_fails():
    space = line_space([0], 8.0)
    hier = NetHierarchy(space)
    with pytest.raises(KeyError):
        hier.delete(0)


def test_ball_of_radius_zero_is_the_member():
    space = line_space([0], 8.0)
    hier = NetHierarchy(space)
    hier.insert(0)
    assert hier.ball(2, 0, 0.0) == [0]


def test_ball_on_prescribed_path_nets():
    # ids equal coordinates 1..16; level-2 members are 4, 8, 12, 16
    space = MetricSpace(1, 16.0)
    for k in range(1, 17):
        space.add_point(k, (float(k),))
    hier = manual_hierarchy(
        space,
        [
            set(range(1, 17)),
            {2, 4, 6, 8, 10, 12, 14, 16},
            {4, 8, 12, 16},
            {8, 16},
            {16},
        ],
    )
    assert validate_net_hierarchy(hier) == []
    got = sorted(hier.ball(2, 8, 5.0))
    brute = sorted(y for y in hier.levels[2] if space.distance(8, y) <= 5.0)
    assert got == brute == [4, 8, 12]
    # far-away center sees nothing
    assert hier.ball(2, 1, 2.0) == []


def test_ball_rejects_unsupported_level():
    space = line_space([0], 8.0)
    hier = NetHierarchy(space)
    hier.insert(0)
    with pytest.raises(ValueError):
        hier.ball(4, 0, 1.0)
    with pytest.raises(ValueError):
        hier.ball(-1, 0, 1.0)


def test_ball_accepts_deleted_center():
    space = line_space([0, 5], 8.0)
    hier = NetHierarchy(space)
    hier.insert(0)
    hier.insert(1)
    hier.delete(0)
    space.remove_point(0)
    assert hier.ball(0, 0, 5.0) == [1]


def test_ball_query_counter():
    space = line_space([0], 8.0)
    counters = {}
    hier = NetHierarchy(space, counters=counters)
    hier.insert(0)
    hier.ball(0, 0, 1.0)
    hier.ball(1, 0, 1.0)
    assert counters["ball_queries"] == 2


def test_validate_on_multiples_of_powers_of_two():
    space = MetricSpace(1, 16.0)
    for j in range(16):
        space.add_point(j, (float(j),))
    hier = manual_hierarchy(
        space, [{j for j in range(16) if j % (1 << i) == 0} for i in range(5)]
    )
    assert validate_net_hierarchy(hier) == []
    assert validate_neighbor_lists(hier) == []


def test_dump_lists_levels_in_order():
    space = line_space([0, 5], 8.0)
    hier = NetHierarchy(space)
    hier.insert(0)
    hier.insert(1)
    assert hier.dump() == "0 1\n0 1\n0 1\n0"


# -- randomized maintenance properties ----------------------------------------


grid_points = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 60)),
    min_size=2,
    max_size=20,
    unique=True,
)


@settings(max_examples=40, deadline=None)
@given(grid_points, st.randoms(use_true_random=False))
def test_random_updates_keep_hierarchy_valid(coords, rng):
    space = MetricSpace(2, 128.0)
    hier = NetHierarchy(space)
    alive = []
    pending = list(enumerate(coords))
    for _ in range(len(coords) + len(coords) // 2):
        if pending and (not alive or rng.random() < 0.65):
            pid, c = pending.pop()
            space.add_point(pid, (float(c[0]), float(c[1])))
            changes = hier.insert(pid)
            alive.append(pid)
            # an insert only adds the inserted point
            assert all(who == pid and add for level, who, add in changes)
        else:
            pid = alive.pop(rng.randrange(len(alive)))
            changes = hier.delete(pid)
            space.remove_point(pid)
            # nothing but the deleted point ever leaves a level
            assert all(who == pid for level, who, add in changes if not add)
        for level, who, _ in changes:
            assert space.distance(who, pid) <= float(1 << level)
        assert validate_net_hierarchy(hier) == []
        assert validate_neighbor_lists(hier) == []


@settings(max_examples=40, deadline=None)
@given(grid_points, st.randoms(use_true_random=False))
def test_ball_matches_brute_force_scan(coords, rng):
    space = MetricSpace(2, 128.0)
    hier = NetHierarchy(space)
    for pid, c in enumerate(coords):
        space.add_point(pid, (float(c[0]), float(c[1])))
        hier.insert(pid)
    ids = list(range(len(coords)))
    for _ in range(10):
        level = rng.randrange(hier.top + 1)
        center = rng.choice(ids)
        r = rng.uniform(0.0, float(1 << (hier.top + 2)))
        got = sorted(hier.ball(level, center, r))
        want = sorted(
            y for y in hier.levels[level] if space.distance(center, y) <= r
        )
        assert got == want
