"""Net spanner edges kept in sync with hierarchy changesets."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynspan.metric import DistanceMatrixSpace, MetricSpace, scale_of
from dynspan.net_spanner import NetSpanner
from dynspan.net_tree import NetHierarchy
from dynspan.oracle import max_stretch


def path_instance(n, phi, eps=1.0):
    space = MetricSpace(1, phi)
    hier = NetHierarchy(space)
    spanner = NetSpanner(hier, eps)
    for pid in range(n):
        space.add_point(pid, (float(pid + 1),))
        spanner.sync(hier.insert(pid))
    return space, hier, spanner


def definitional_edges(space, hier, c):
    out = set()
    for i, members in enumerate(hier.levels):
        limit = c * float(1 << i)
        ids = sorted(members)
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                if space.distance(ids[a], ids[b]) <= limit:
                    out.add((ids[a], ids[b]))
    return sorted(out)


def test_parameter_validation():
    space = MetricSpace(1, 8.0)
    hier = NetHierarchy(space)
    with pytest.raises(ValueError):
        NetSpanner(hier, 0.0)


def test_c_formula():
    space = MetricSpace(1, 8.0)
    hier = NetHierarchy(space)
    assert NetSpanner(hier, 1.0).c == 20.0
    assert NetSpanner(hier, 0.5).c == 36.0


def test_empty_changeset_is_empty_delta():
    space, hier, spanner = path_instance(2, 8.0)
    assert spanner.sync([]) == ([], [])


def test_single_point_has_no_edges():
    space, hier, spanner = path_instance(1, 8.0)
    assert spanner.edges() == []
    assert spanner.edge_count() == 0
    assert spanner.max_degree() == 0


def test_changeset_with_unknown_level_fails():
    space, hier, spanner = path_instance(2, 8.0)
    with pytest.raises(ValueError):
        spanner.sync([(99, 0, True)])


def test_path_8_matches_definitional_set():
    space, hier, spanner = path_instance(8, 8.0)
    want = definitional_edges(space, hier, spanner.c)
    assert spanner.edges() == want
    # c * 2**0 = 20 covers the whole path, so level 0 gives every pair
    assert spanner.edge_count() == 28


def test_sync_agrees_with_rebuild():
    space, hier, spanner = path_instance(8, 8.0)
    incremental = spanner.edges()
    spanner.rebuild()
    assert spanner.edges() == incremental


def test_edges_drop_a_deleted_point():
    space, hier, spanner = path_instance(2, 8.0)
    assert spanner.edges() == [(0, 1)]
    spanner.sync(hier.delete(1))
    space.remove_point(1)
    assert spanner.edges() == []


def test_removal_event_for_an_active_point_is_refused():
    # only a deleted point ever leaves a level, so a removal event naming a
    # point still in level 0 is an error, and it changes nothing
    space, hier, spanner = path_instance(4, 8.0)
    before = spanner.edges()
    with pytest.raises(ValueError):
        spanner.sync([(0, 3, False)])
    assert spanner.edges() == before
    # an addition ahead of the bad event is not applied either
    space.add_point(4, (5.0,))
    changes = []
    hier._add_member(0, 4, changes)
    with pytest.raises(ValueError):
        spanner.sync(changes + [(0, 1, False)])
    assert spanner.edges() == before
    added, removed = spanner.sync(changes)
    assert added == [(0, 4), (1, 4), (2, 4), (3, 4)] and removed == []


def test_edges_at_scale_in_ball_on_path_16():
    space, hier, spanner = path_instance(16, 16.0)
    got = spanner.edges_at_scale_in_ball(1, 3, 8.0)  # center coordinate 4
    want = sorted(
        (u, v)
        for u, v in spanner.edges()
        if scale_of(space.distance(u, v)) == 1
        and space.distance(u, 3) <= 8.0
        and space.distance(v, 3) <= 8.0
    )
    assert got == want
    assert len(got) == 11  # unit edges among coordinates 1..12
    assert spanner.edges_at_scale_in_ball(1, 3, 0.5) == []
    assert spanner.edges_at_scale_in_ball(4, 3, 0.5) == []


def _separated_points(rng, count, side):
    pts = []
    while len(pts) < count:
        c = (rng.uniform(0.0, side), rng.uniform(0.0, side))
        if all(math.dist(c, p) >= 1.0 for p in pts):
            pts.append(c)
    return pts


@pytest.mark.parametrize("kind", ["plane", "matrix"])
def test_pool_weights_are_the_measured_distances(kind):
    rng = random.Random(17)
    pts = _separated_points(rng, 40, 60.0)
    if kind == "plane":
        space = MetricSpace(2, 128.0)
    else:
        space = DistanceMatrixSpace([[math.dist(p, q) for q in pts] for p in pts], 128.0)
    hier = NetHierarchy(space)
    spanner = NetSpanner(hier, 0.5)
    alive, fresh = [], list(range(len(pts)))
    for _ in range(70):
        if fresh and (len(alive) < 3 or rng.random() < 0.6):
            pid = fresh.pop(0)
            space.add_point(pid, pts[pid] if kind == "plane" else ())
            spanner.sync(hier.insert(pid))
            alive.append(pid)
        else:
            pid = alive.pop(rng.randrange(len(alive)))
            changes = hier.delete(pid)
            space.remove_point(pid)
            spanner.sync(changes)
        # every stored weight is the measured distance
        stored = list(zip(spanner.u.tolist(), spanner.v.tolist(), spanner.w.tolist()))
        assert len(stored) == len({(u, v) for u, v, _ in stored}) == spanner.edge_count()
        assert all(u < v and w == space.distance(u, v) for u, v, w in stored)
        # a snapshot is the brute-force filter of the edge list
        chosen = rng.sample(alive, rng.randrange(len(alive) + 1))
        pos = {pid: k for k, pid in enumerate(chosen)}
        a, b, weights, (u, v), keep = spanner.snapshot(pos)
        assert np.array_equal(u, spanner.u[keep]) and np.array_equal(v, spanner.v[keep])
        got = sorted(zip(u.tolist(), v.tolist(), a.tolist(), b.tolist(), weights.tolist()))
        assert got == [
            (u, v, pos[u], pos[v], space.distance(u, v))
            for u, v in spanner.edges()
            if u in pos and v in pos
        ]
        # and the index is the one a rebuild makes
        spanner.rebuild()
        assert sorted(zip(spanner.u.tolist(), spanner.v.tolist(), spanner.w.tolist())) == sorted(stored)


def test_every_edge_has_a_witnessing_level():
    space, hier, spanner = path_instance(16, 16.0)
    for u, v in spanner.edges():
        d = space.distance(u, v)
        assert any(
            u in hier.levels[i] and v in hier.levels[i] and d <= spanner.c * (1 << i)
            for i in range(hier.top + 1)
        )


def test_dump_format():
    space, hier, spanner = path_instance(3, 8.0)
    lines = spanner.dump().splitlines()
    assert lines == ["0 1 1.0 1", "0 2 2.0 2", "1 2 1.0 1"]


grid_points = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40)),
    min_size=2,
    max_size=16,
    unique=True,
)


@settings(max_examples=30, deadline=None)
@given(grid_points, st.randoms(use_true_random=False))
def test_sync_tracks_definition_under_random_updates(coords, rng):
    space = MetricSpace(2, 64.0)
    hier = NetHierarchy(space)
    spanner = NetSpanner(hier, 1.0)
    alive = []
    pending = list(enumerate(coords))
    for _ in range(len(coords) + len(coords) // 2):
        before = set(spanner.edges())
        if pending and (not alive or rng.random() < 0.65):
            pid, c = pending.pop()
            space.add_point(pid, (float(c[0]), float(c[1])))
            added, removed = spanner.sync(hier.insert(pid))
            alive.append(pid)
        else:
            pid = alive.pop(rng.randrange(len(alive)))
            changes = hier.delete(pid)
            space.remove_point(pid)
            added, removed = spanner.sync(changes)
        after = set(spanner.edges())
        assert sorted(after - before) == added
        assert sorted(before - after) == removed
        assert after == set(definitional_edges(space, hier, spanner.c))
        if len(alive) >= 2:
            # a net spanner keeps stretch within 1 + eps
            assert max_stretch(space, sorted(space.active), spanner.edges()) <= 2.0 + 1e-9
