"""The maintained output spanner, in both update modes.

Most expectations here are verified against the brute-force oracle module
rather than frozen edge lists, since the structure is free to pick any
edge set satisfying its selection rule.
"""

import math
import random
from collections import Counter

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from dynspan.light_spanner import DynamicLightSpanner
from dynspan.metric import DistanceMatrixSpace, MetricSpace, scale_of
from dynspan.oracle import (
    check_invariants,
    dstar,
    max_stretch,
    mst_weight_prim,
    pairwise_matrix,
    spanner_distance_matrix,
    sweep_estimate_store,
    validate_net_hierarchy,
)

INF = math.inf


def build(coords, phi, eps=1.0, mode="exact", dim=1):
    space = MetricSpace(dim, phi)
    structure = DynamicLightSpanner(space, eps, mode)
    reports = []
    for pid, c in enumerate(coords):
        reports.append(structure.insert(pid, c if dim > 1 else (float(c),)))
    return structure, reports


def assert_clean(structure):
    assert validate_net_hierarchy(structure.hierarchy) == []
    assert (
        check_invariants(
            structure.space,
            structure.base_edges(),
            structure.light_edges(),
            structure.eps,
        )
        == []
    )


def assert_report_is_the_diff(before, structure, report):
    """The report lists exactly the edges the update added to and removed
    from the output ``before`` it, sorted."""
    after = set(structure.light_edges())
    assert report.added == sorted(after - before)
    assert report.removed == sorted(before - after)
    assert report.recourse == len(report.added) + len(report.removed)


def measured_once(space, pid, update):
    """Run ``update()`` with ``space.distance`` counted, assert that it
    measured no pair with ``pid`` twice, and return the other ends of the
    pairs with ``pid`` that it measured."""
    measure = space.distance
    made = Counter()

    def counted(u, v):
        if pid in (u, v):
            made[v if u == pid else u] += 1
        return measure(u, v)

    space.distance = counted
    try:
        update()
    finally:
        space.distance = measure
    assert all(k == 1 for k in made.values()), made
    return set(made) - {pid}


def test_constructor_validation():
    with pytest.raises(ValueError):
        DynamicLightSpanner(MetricSpace(1, 8.0), 0.0)
    with pytest.raises(ValueError):
        DynamicLightSpanner(MetricSpace(1, 8.0), 1.0, mode="turbo")


def test_first_insert_is_empty_report():
    structure, reports = build([0], 8.0)
    r = reports[0]
    assert r.op == "insert" and r.point == 0
    assert r.added == [] and r.removed == [] and r.recourse == 0
    assert structure.light_edges() == []


def test_two_points_keep_the_single_edge():
    structure, reports = build([0, 1], 8.0)
    assert reports[1].added == [(0, 1)]
    assert structure.light_edges() == [(0, 1)]
    assert structure.lightness() == 1.0
    assert_clean(structure)


def test_path_8_keeps_exactly_the_unit_edges():
    structure, reports = build(range(1, 9), 8.0)
    assert structure.light_edges() == [(k, k + 1) for k in range(7)]
    assert structure.total_weight() == 7.0
    assert structure.lightness() == 1.0
    assert_clean(structure)
    ids = sorted(structure.space.active)
    assert max_stretch(structure.space, ids, structure.light_edges()) == 1.0
    assert all(r.recourse == len(r.added) + len(r.removed) for r in reports)


def test_delete_reroutes_around_the_gap():
    structure, _ = build(range(1, 9), 8.0)
    report = structure.delete(3)  # coordinate 4
    assert report.op == "delete" and report.point == 3
    assert all(3 not in e for e in structure.light_edges())
    assert all(3 not in e for e in structure.base_edges())
    assert (2, 4) in structure.light_edges()  # bridges the gap
    assert_clean(structure)


def test_delete_sole_point_empties_structure():
    structure, _ = build([0], 8.0)
    structure.delete(0)
    assert structure.light_edges() == []
    assert structure.base.edge_count() == 0
    assert all(not members for members in structure.hierarchy.levels)


@pytest.mark.parametrize("mode", ["exact", "fast"])
def test_insert_delete_round_trips_leave_nothing(mode):
    space = MetricSpace(1, 8.0)
    structure = DynamicLightSpanner(space, 1.0, mode)
    for pid in range(3):  # ids are never reused, coordinates are
        structure.insert(pid, (2.0,))
        structure.delete(pid)
        assert structure.light_edges() == []
        assert structure.base.edge_count() == 0
        assert structure.dense.edge_count() == 0
        assert all(not members for members in structure.hierarchy.levels)
        assert structure.estimates.dstar == {}
        assert structure.estimates.dlight == {}


@pytest.mark.parametrize("mode", ["exact", "fast"])
def test_insert_rejects_out_of_range_points(mode):
    structure, _ = build([1.0, 2.0, 4.0], 16.0, eps=0.5, mode=mode)

    def state():
        return (
            set(structure.space.active),
            structure.hierarchy.dump(),
            structure.base.edges(),
            structure.dense.edge_count(),
            structure.light_edges(),
            structure.dump_estimates(),
        )

    def refused(pid, x):
        with pytest.raises(ValueError):
            structure.insert(pid, (x,))

    before = state()
    # a duplicate point, then points at phi and beyond from point 0
    for pid, x in [(3, 2.0), (4, 17.0), (5, 41.0)]:
        assert measured_once(structure.space, pid, lambda: refused(pid, x)) <= {0, 1, 2}
        assert state() == before
    with pytest.raises(ValueError):
        structure.insert(1 << 63, (8.0,))  # ids are held in 64-bit columns
    assert state() == before
    with pytest.raises(KeyError):
        structure.insert(0, (40.0,))  # an active id
    with pytest.raises(KeyError):
        structure.insert(4, (8.0,))  # a rejected id stays used
    # each distance from the updated point is measured once per update
    others = set(structure.space.active)
    assert measured_once(structure.space, 6, lambda: structure.insert(6, (8.0,))) == others
    measured_once(structure.space, 1, lambda: structure.delete(1))
    assert_clean(structure)
    if mode == "fast":
        assert sweep_estimate_store(structure) == []


def test_fast_mode_needs_the_dense_pool_complete():
    for phi in (2.0**19, 2.0**20):
        DynamicLightSpanner(MetricSpace(1, phi), 0.5, mode="exact")
    DynamicLightSpanner(MetricSpace(1, 2.0**19), 0.5, mode="fast")
    with pytest.raises(ValueError):
        DynamicLightSpanner(MetricSpace(1, 2.0**20), 0.5, mode="fast")


def test_update_preconditions():
    structure, _ = build([0, 5], 8.0)
    with pytest.raises(KeyError):
        structure.insert(0, (3.0,))
    structure.delete(1)
    with pytest.raises(KeyError):
        structure.delete(1)


def test_triangle_leaves_out_the_covered_long_edge():
    structure, _ = build([0.0, 1.0, 2.1], 8.0)
    assert (0, 2) in structure.base.edges()
    assert structure.light_edges() == [(0, 1), (1, 2)]
    assert_clean(structure)
    # the two-hop detour 2.1 <= (1+eps) * 2.1 decides membership
    assert dstar(structure.space, structure.light_edges(), 0, 2) == pytest.approx(2.1)


def test_reselect_far_from_everything_changes_nothing():
    structure, _ = build([0.0, 1.0, 1500.0], 2048.0)
    structure.delete(2)
    assert structure.light_edges() == [(0, 1)]
    added, removed = [], []
    structure._reselect_exact(2, added, removed)  # center is the far, deleted point
    assert added == [] and removed == []
    assert structure.light_edges() == [(0, 1)]


def test_reselect_is_idempotent_on_settled_structure():
    structure, _ = build([0.0, 1.0, 2.1], 8.0)
    added, removed = [], []
    structure._reselect_exact(0, added, removed)
    assert added == [] and removed == []


@pytest.mark.parametrize("kind", ["plane", "matrix"])
def test_lightness_is_output_weight_over_mst_weight(kind):
    rng = random.Random(5)
    pts = rng.sample([(float(x), float(y)) for x in range(24) for y in range(24)], 40)
    if kind == "plane":
        space = MetricSpace(2, 64.0)
    else:
        space = DistanceMatrixSpace(
            [[math.dist(p, q) for q in pts] for p in pts], 64.0
        )
    structure = DynamicLightSpanner(space, 0.5)
    for pid, c in enumerate(pts):
        structure.insert(pid, c if kind == "plane" else ())
    for pid in rng.sample(range(len(pts)), 12):
        structure.delete(pid)
    want = structure.total_weight() / mst_weight_prim(space, sorted(space.active))
    assert structure.lightness() == pytest.approx(want, rel=1e-12, abs=0.0)


def test_lightness_preconditions():
    structure, _ = build([0], 8.0)
    with pytest.raises(ValueError):
        structure.lightness()
    structure.insert(1, (5.0,))
    structure.base.out[:] = False
    with pytest.raises(ValueError):
        structure.lightness()


# -- fast mode -----------------------------------------------------------------


def test_fast_single_insert_matches_exact():
    exact, _ = build([0.0, 1.0], 8.0, mode="exact")
    fast, _ = build([0.0, 1.0], 8.0, mode="fast")
    assert fast.light_edges() == exact.light_edges() == [(0, 1)]
    assert_clean(fast)
    assert sweep_estimate_store(fast) == []


def test_fast_path_16_satisfies_invariants():
    structure, reports = build(range(1, 17), 16.0, eps=0.5, mode="fast")
    assert_clean(structure)
    assert sweep_estimate_store(structure) == []
    ids = sorted(structure.space.active)
    assert max_stretch(structure.space, ids, structure.light_edges()) <= 2.5 + 1e-9
    assert all(r.recourse == len(r.added) + len(r.removed) for r in reports)


def test_fast_random_mixed_run_stays_clean():
    rng = random.Random(9)
    space = MetricSpace(2, 256.0)
    structure = DynamicLightSpanner(space, 0.5, mode="fast")
    dense = structure.dense
    sync = dense.sync
    calls = []  # distance calls made inside each dense sync

    def counted_sync(changes):
        measure = space.distance
        made = []
        space.distance = lambda u, v: made.append((u, v)) or measure(u, v)
        try:
            return sync(changes)
        finally:
            space.distance = measure
            calls.append(len(made))

    dense.sync = counted_sync
    placed = []
    next_id = 0

    def ident(k):
        # ids out of insertion order, so that rows join inside the table
        return k * 37 % 97

    def fresh_coords():
        for _ in range(200):
            c = (rng.uniform(0, 170), rng.uniform(0, 170))
            if all(math.dist(c, p) >= 1.0 for p in placed):
                return c
        raise RuntimeError("could not place point")

    for _ in range(20):
        c = fresh_coords()
        placed.append(c)
        structure.insert(ident(next_id), c)
        next_id += 1
    alive = [ident(k) for k in range(20)]
    for _ in range(24):
        before = set(structure.light_edges())
        reports = []
        if alive and rng.random() < 0.4:
            pid = alive.pop(rng.randrange(len(alive)))
            measured_once(space, pid, lambda: reports.append(structure.delete(pid)))
            assert calls[-1] == 0
        else:
            c = fresh_coords()
            placed.append(c)
            pid, others = ident(next_id), set(space.active)
            # the new point's n-1 pairs are each measured once, for the
            # hierarchy, both pools, the table and the update's view
            insert = lambda: reports.append(structure.insert(pid, c))
            assert measured_once(space, pid, insert) == others
            # the table takes the new row from the hierarchy's row
            assert calls[-1] == 0
            alive.append(pid)
            next_id += 1
        assert_report_is_the_diff(before, structure, reports[0])
        assert_clean(structure)
        assert sweep_estimate_store(structure) == []
        active = sorted(space.active)
        # the table holds every active pair, as measured pair by pair
        assert dense.ids == active
        assert dense.pos == {pid: k for k, pid in enumerate(active)}
        assert dense.dist.shape == (len(active), len(active))
        for a, u in enumerate(active):
            assert dense.dist[a, a] == 0.0
            for b in range(a + 1, len(active)):
                d = space.distance(u, active[b])
                assert dense.dist[a, b] == d and dense.dist[b, a] == d
        center = ident(next_id - 1)
        for i in range(structure.top + 1):
            r = 4.0 * (1 << i)
            want = [
                (u, v)
                for a, u in enumerate(active)
                for v in active[a + 1:]
                if scale_of(space.distance(u, v)) == i
                and space.distance(center, u) <= r
                and space.distance(center, v) <= r
            ]
            assert structure.dense.edges_at_scale_in_ball(i, center, r) == want


def test_estimate_tables_stay_aligned_with_the_distance_table():
    space = MetricSpace(1, 64.0)
    structure = DynamicLightSpanner(space, 0.5, mode="fast")
    dense = structure.dense
    # the pairs each refresh writes, recorded the direct way: every pair
    # of the refreshed scales within the refresh radius
    written = {"dstar": set(), "dlight": set()}
    refresh = structure._update_estimates

    def recording(view, i, snap):
        r = 4.0 * (1 << i)
        written["dstar"].update(view.edges(*view.pairs(i, r)))
        if i >= 2:
            written["dlight"].update(view.edges(*view.pairs(i - 2, r)))
        refresh(view, i, snap)

    structure._update_estimates = recording
    # below the smallest id, above the largest, between two, then deletes
    # from the middle
    ops = [(20, 0.0), (40, 9.0), (5, 3.0), (60, 14.0), (30, 22.0), (40, None), (20, None)]
    for pid, x in ops:
        if x is None:
            structure.delete(pid)
            for pairs in written.values():
                pairs -= {e for e in pairs if pid in e}
        else:
            structure.insert(pid, (x,))
        n = len(space.active)
        assert dense.ids == sorted(space.active)
        for name in ("dstar", "dlight"):
            table = getattr(dense, name)
            assert table.shape == (n, n)
            assert np.array_equal(table, table.T, equal_nan=True)
            assert np.isnan(np.diag(table)).all()
            view = getattr(structure.estimates, name)
            assert list(view) == sorted(written[name]) and len(view) == len(written[name])
    assert written["dstar"] and written["dlight"]


def test_estimate_refresh_skips_output_loop_below_scale_two():
    structure, _ = build([0, 1, 2, 3], 8.0, mode="fast")
    sentinel = 123.0
    dstar, dlight = structure.estimates.dstar, structure.estimates.dlight
    before = dict(dstar)
    for table in (structure.dense.dstar, structure.dense.dlight):
        table[~np.isnan(table)] = sentinel
    view = structure._view(0)
    snap = structure.base.snapshot(view.pos)
    structure._update_estimates(view, 0, snap)
    structure._update_estimates(view, 1, snap)
    assert all(value == sentinel for value in dlight.values())
    # iterations 0 and 1 rewrite exactly the separation estimates of their
    # own scales, with the values the insert wrote
    refreshed = {e for e in dstar if scale_of(structure.space.distance(*e)) <= 1}
    assert refreshed and all(dstar[e] == before[e] != sentinel for e in refreshed)
    assert all(dstar[e] == sentinel for e in set(dstar) - refreshed)


def test_estimate_refresh_without_nearby_edges_is_a_no_op():
    structure, _ = build([0.0, 1.0, 40.0, 41.0], 64.0, mode="fast")
    before_ds = dict(structure.estimates.dstar)
    before_dl = dict(structure.estimates.dlight)
    view = structure._view(0)
    # no pool edges at scale 2 anywhere
    structure._update_estimates(view, 2, structure.base.snapshot(view.pos))
    assert structure.estimates.dstar == before_ds
    assert structure.estimates.dlight == before_dl


def test_estimate_identity_and_disconnection():
    structure, _ = build([0.0, 1.0, 30.0, 31.0], 64.0, mode="fast")
    assert structure.estimate(0, 0, 3, 0) == 0.0
    # the sketch at scale 3 only carries short output edges, so the two
    # clusters are separate components
    assert structure.estimate(0, 2, 3, 0) == INF
    # exact mode keeps no estimates to build a sketch from
    exact, _ = build([0.0, 1.0, 30.0, 31.0], 64.0)
    with pytest.raises(ValueError):
        exact.estimate(0, 0, 3, 0)


def test_estimate_returns_exact_two_hop_length():
    structure, _ = build([0.0, 3.0, 6.0], 16.0, mode="fast")
    assert structure.light_edges() == [(0, 1), (1, 2)]
    assert structure.estimate(0, 2, 3, 1) == 6.0


def test_missing_estimate_is_a_hard_error():
    # the pair (0, 1) sits inside the scale-1 consult ball of the new
    # point but outside its refresh ball, so a lost entry must surface
    structure, _ = build([0.0, 1.0], 16.0, mode="fast")
    structure.dense.dstar[:] = np.nan
    with pytest.raises(RuntimeError, match="separation estimate"):
        structure.insert(2, (11.0,))


def test_fresh_pool_edge_without_estimate_is_a_hard_error():
    structure, _ = build([0.0, 1.0, 3.0], 16.0, mode="fast")
    edge = structure.base_edges()[0]
    view = structure._view(2)
    structure._check_fresh_entries(view, [edge], [edge])
    a, b = view.pos[edge[0]], view.pos[edge[1]]
    structure.dense.dstar[a, b] = structure.dense.dstar[b, a] = np.nan
    with pytest.raises(RuntimeError, match="separation estimate"):
        structure._check_fresh_entries(view, [edge], [])
    with pytest.raises(RuntimeError, match="separation estimate"):
        structure._check_fresh_entries(view, [], [edge])


def _reference_sketch(structure, center, at_scale):
    """The sketch built the direct way: vertices from one ball query, the
    middle band from a scan of every output edge, the low band pair by pair.
    Also returns how many edges each band gave."""
    iprime = max(0, scale_of(structure.eps_small * float(1 << at_scale)) - 1)
    ids = sorted(structure.hierarchy.ball(iprime, center, 7.0 * (1 << at_scale)))
    index = {pid: k for k, pid in enumerate(ids)}
    m = np.array([[structure.space.distance(*sorted((u, v))) for v in ids] for u in ids])
    rows, cols, data = [], [], []
    low = 0
    for a, b in structure.light_edges():
        if a in index and b in index:
            w = float(m[index[a], index[b]])
            if 2.0 ** (at_scale - 3) <= w < 2.0 ** (at_scale - 1):
                rows.append(index[a])
                cols.append(index[b])
                data.append(w)
    for ka in range(len(ids)):
        for kb in range(ka + 1, len(ids)):
            if m[ka, kb] < 2.0 ** (at_scale - 3):
                value = structure.estimates.dlight[(ids[ka], ids[kb])]
                if not math.isinf(value):
                    low += 1
                    rows.append(ka)
                    cols.append(kb)
                    data.append(value)
    want = csr_matrix((data, (rows, cols)), shape=(len(ids), len(ids)))
    # the structure's sketch holds both directions of each edge
    return ids, (want + want.T).tocsr(), np.array([len(data) - low, low])


def _assert_sketches_match_reference(structure, centers):
    """Compare every scale's sketch around each center; return the band sizes."""
    bands = np.zeros(2, dtype=int)
    for center in centers:
        view = structure._view(center)
        snap = structure.base.snapshot(view.pos)
        for i in range(structure.top + 1):
            members, graph = structure._build_sketch(view, i, snap)
            ids, want, sizes = _reference_sketch(structure, center, i)
            bands += sizes
            assert [view.ids[k] for k in members] == ids
            assert graph.shape == want.shape
            assert np.array_equal(graph.indptr, want.indptr)
            assert np.array_equal(graph.indices, want.indices)
            assert np.array_equal(graph.data, want.data)
    return bands


def test_sketch_matches_reference_in_the_plane():
    rng = random.Random(23)
    space = MetricSpace(2, 256.0)
    structure = DynamicLightSpanner(space, 0.5, mode="fast")
    placed = {}
    alive = []
    bands = np.zeros(2, dtype=int)
    for pid in range(48):
        if len(alive) > 12 and rng.random() < 0.4:
            x = alive.pop(rng.randrange(len(alive)))
            structure.delete(x)
        else:
            while True:
                c = (rng.uniform(0, 170), rng.uniform(0, 170))
                if all(math.dist(c, placed[y]) >= 1.0 for y in alive):
                    break
            placed[pid] = c
            structure.insert(pid, c)
            alive.append(pid)
            x = pid
        if pid % 8 == 7:
            # an active center, and the last update's, which may be deleted
            bands = bands + _assert_sketches_match_reference(structure, [alive[0], x])
    assert bands.all()


def test_sketch_matches_reference_on_a_matrix_metric():
    rng = random.Random(5)
    n = 24
    m = [[0.0 if a == b else rng.uniform(1.0, 30.0) for b in range(n)] for a in range(n)]
    for a in range(n):
        for b in range(a):
            m[a][b] = m[b][a]
    for k in range(n):  # shortest paths make it a metric
        for a in range(n):
            for b in range(n):
                m[a][b] = min(m[a][b], m[a][k] + m[k][b])
    space = DistanceMatrixSpace(m, 64.0)
    structure = DynamicLightSpanner(space, 0.5, mode="fast")
    bands = np.zeros(2, dtype=int)
    for pid in range(n):
        structure.insert(pid, ())
        if pid % 6 == 5:
            structure.delete(pid - 3)
            bands = bands + _assert_sketches_match_reference(structure, [pid, pid - 3])
    assert bands.all()


def test_sketch_matches_reference_above_net_level_zero():
    # at phi = 2**17 the top two scales build their sketches on net levels
    # 1 and 2, so the vertex masks of those levels are exercised
    rng = random.Random(1)
    space = MetricSpace(1, 2.0**17)
    structure = DynamicLightSpanner(space, 1.0, mode="fast")
    for pid, x in enumerate(list(range(12)) + rng.sample(range(20, 1 << 17), 12)):
        structure.insert(pid, (float(x),))
    structure.delete(3)
    structure.delete(20)
    levels = structure.hierarchy.levels
    iprime = [max(0, scale_of(structure.eps_small * float(1 << i)) - 1) for i in (16, 17)]
    assert iprime == [1, 2] and [len(levels[k]) for k in (0, 1, 2)] == [22, 17, 14]
    bands = _assert_sketches_match_reference(structure, [0, 5, 23, 3])
    assert bands.all()


def test_stored_estimates_equal_a_fresh_search_of_their_sketch():
    # after an update around x, the entries that its scale iteration i
    # refreshed (dstar of scale i, dlight of scale i - 2, within 4 * 2**i of
    # x) are what the scale-i sketch around x gives now, bit for bit: no
    # later iteration of the update touches the bands of that sketch
    rng = random.Random(4)
    space = MetricSpace(2, 64.0)
    structure = DynamicLightSpanner(space, 0.5, mode="fast")
    alive = []
    compared = 0
    for pid in range(30):
        if len(alive) > 12:
            x = alive.pop(rng.randrange(len(alive)))
            structure.delete(x)
        else:
            c = (rng.uniform(0, 42), rng.uniform(0, 42))
            if any(math.dist(c, space.coords(y)) < 1.0 for y in alive):
                continue
            structure.insert(pid, c)
            alive.append(pid)
            x = pid
        view = structure._view(x)
        for i in range(structure.top + 1):
            r = 4.0 * (1 << i)
            refreshed = [(structure.estimates.dstar, e) for e in view.edges(*view.pairs(i, r))]
            if i >= 2:
                refreshed += [(structure.estimates.dlight, e) for e in view.edges(*view.pairs(i - 2, r))]
            for table, (u, v) in refreshed:
                assert table[(u, v)] == structure.estimate(u, v, i, x)
                compared += 1
    assert compared > 1000


def test_sketch_graph_is_symmetric_with_one_entry_per_direction():
    rng = random.Random(31)
    space = MetricSpace(2, 128.0)
    structure = DynamicLightSpanner(space, 0.5, mode="fast")
    placed = []
    for pid in range(16):
        while True:
            c = (rng.uniform(0, 85), rng.uniform(0, 85))
            if all(math.dist(c, p) >= 1.0 for p in placed):
                break
        placed.append(c)
        structure.insert(pid, c)
    checked = 0
    for center in (0, 9):
        view = structure._view(center)
        snap = structure.base.snapshot(view.pos)
        for i in range(structure.top + 1):
            members, graph = structure._build_sketch(view, i, snap)
            _, _, sizes = _reference_sketch(structure, center, i)
            assert (graph != graph.T).nnz == 0
            # one entry per direction of each band edge, none summed
            assert graph.nnz == 2 * sizes.sum()
            ids = [view.ids[k] for k in members.tolist()]
            for u, v in zip(ids, ids[1:] + ids[:1]):
                # equal up to rounding: a path's sum runs from its source
                there, back = structure.estimate(u, v, i, center), structure.estimate(v, u, i, center)
                assert math.isclose(there, back, rel_tol=1e-12)
            checked += graph.nnz
    assert checked


def test_fast_run_deletes_down_to_nothing():
    rng = random.Random(8)
    space = MetricSpace(2, 128.0)
    structure = DynamicLightSpanner(space, 0.5, mode="fast")
    placed = []
    for pid in range(24):
        while True:
            c = (rng.uniform(0, 85), rng.uniform(0, 85))
            if all(math.dist(c, p) >= 1.0 for p in placed):
                break
        placed.append(c)
        structure.insert(pid, c)
    alive = list(range(24))
    rng.shuffle(alive)
    while alive:
        structure.delete(alive.pop())
        assert_clean(structure)
        assert sweep_estimate_store(structure) == []
    assert structure.light_edges() == [] and structure.base.edge_count() == 0
    assert structure.estimates.dstar == {} and structure.estimates.dlight == {}
    assert all(not members for members in structure.hierarchy.levels)
    view = structure._view(0)
    members, graph = structure._build_sketch(view, structure.top, structure.base.snapshot(view.pos))
    assert len(members) == 0 and graph.shape == (0, 0)


# -- cross-mode and metric-backend coverage --------------------------------------


@pytest.mark.parametrize("mode", ["exact", "fast"])
def test_uniform_matrix_metric_keeps_every_edge(mode):
    m = [[0.0 if i == j else 3.0 for j in range(4)] for i in range(4)]
    space = DistanceMatrixSpace(m, 8.0)
    structure = DynamicLightSpanner(space, 1.0, mode)
    for pid in range(4):
        structure.insert(pid, ())
    # every pair is at distance 3 with no shorter-scale detours
    assert structure.light_edges() == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    ]
    assert_clean(structure)
    assert max_stretch(space, [0, 1, 2, 3], structure.light_edges()) == 1.0


def test_exact_random_mixed_run_stays_clean():
    rng = random.Random(4)
    space = MetricSpace(2, 256.0)
    structure = DynamicLightSpanner(space, 0.5, mode="exact")
    placed = {}
    next_id = 0
    alive = []
    for _ in range(44):
        before = set(structure.light_edges())
        if alive and rng.random() < 0.35:
            pid = alive.pop(rng.randrange(len(alive)))
            report = structure.delete(pid)
        else:
            while True:
                c = (rng.uniform(0, 170), rng.uniform(0, 170))
                if all(math.dist(c, p) >= 1.0 for p in placed.values()):
                    break
            placed[next_id] = c
            report = structure.insert(next_id, c)
            alive.append(next_id)
            next_id += 1
        assert_report_is_the_diff(before, structure, report)
        assert_clean(structure)
    assert structure.counters["ball_queries"] > 0
    assert structure.counters["relaxations"] > 0


def _assert_reselection_matches_brute_force(structure, x):
    """Every base pair near x is in the output iff no short detour exists."""
    space = structure.space
    light = structure.light_edges()
    one = 1.0 + structure.eps
    for u, v in structure.base_edges():
        w = space.distance(u, v)
        r = 4.0 * (1 << scale_of(w))
        if space.distance(x, u) <= r and space.distance(x, v) <= r:
            kept = (u, v) in light
            assert kept == (dstar(space, light, u, v) > one * w), (x, u, v)


def test_exact_reselection_matches_brute_force_in_the_plane():
    rng = random.Random(17)
    space = MetricSpace(2, 128.0)
    structure = DynamicLightSpanner(space, 0.5, mode="exact")
    placed = {}
    alive = []
    for pid in range(80):
        if len(alive) > 16 and rng.random() < 0.45:
            x = alive.pop(rng.randrange(len(alive)))
            structure.delete(x)
            del placed[x]
        else:
            while True:
                c = (rng.uniform(0, 85), rng.uniform(0, 85))
                if all(math.dist(c, p) >= 1.0 for p in placed.values()):
                    break
            x = pid
            placed[x] = c
            structure.insert(x, c)
            alive.append(x)
        _assert_reselection_matches_brute_force(structure, x)
    assert structure.counters["relaxations"] > 0


def test_exact_reselection_matches_brute_force_on_a_path():
    # the unit path 1..32, multiples of 16 first, then of 8, and so on
    xs = sorted(range(1, 33), key=lambda x: (-(x & -x), x))
    space = MetricSpace(1, 32.0)
    structure = DynamicLightSpanner(space, 0.5, mode="exact")
    for pid, x in enumerate(xs):
        structure.insert(pid, (float(x),))
        _assert_reselection_matches_brute_force(structure, pid)
    assert structure.light_edges() == sorted(
        tuple(sorted((xs.index(x), xs.index(x + 1)))) for x in range(1, 32)
    )


def test_exact_detour_may_leave_the_update_ball():
    # the pair (0, 1) at scale 3 lies in the scale-3 ball of radius 32
    # around point 3; its only detour runs through point 2, outside that ball
    space = MetricSpace(2, 64.0)
    structure = DynamicLightSpanner(space, 0.5, mode="exact")
    for pid, c in enumerate([(-3.0, 31.7), (3.0, 31.7), (0.0, 33.5), (0.0, 0.0)]):
        structure.insert(pid, c)
    assert space.distance(3, 2) > 32.0 >= max(space.distance(3, 0), space.distance(3, 1))
    assert (0, 1) in structure.base.edges()
    assert (0, 1) not in structure.light_edges()
    assert {(0, 2), (1, 2)} <= set(structure.light_edges())
    _assert_reselection_matches_brute_force(structure, 3)


def test_distance_over_unchanged_region_is_stable():
    # after an update at x, any surviving pool edge with an endpoint
    # outside the per-scale refresh ball keeps its below-scale distance,
    # unless that distance is irrelevantly large both before and after
    rng = random.Random(12)
    space = MetricSpace(2, 256.0)
    structure = DynamicLightSpanner(space, 0.5, mode="exact")
    placed = {}
    next_id = 0
    alive = []
    for step in range(36):
        base_before = set(structure.base_edges())
        light_before = structure.light_edges()
        if alive and step >= 16 and rng.random() < 0.45:
            x = alive.pop(rng.randrange(len(alive)))
            structure.delete(x)
        else:
            while True:
                c = (rng.uniform(0, 170), rng.uniform(0, 170))
                if all(math.dist(c, p) >= 1.0 for p in placed.values()):
                    break
            x = next_id
            placed[x] = c
            structure.insert(x, c)
            alive.append(x)
            next_id += 1
        surviving = base_before & set(structure.base_edges())
        for u, v in surviving:
            d = space.distance(u, v)
            s = scale_of(d)
            if min(space.distance(u, x), space.distance(v, x)) <= 4.0 * (1 << s):
                continue
            old = dstar(space, light_before, u, v)
            new = dstar(space, structure.light_edges(), u, v)
            assert old == new or (old > 2.0 * d and new > 2.0 * d)


def test_short_pairs_ride_short_detours():
    # with eps = 0.25 every pair below the top two scales must be served
    # within a factor 2 by the output graph
    rng = random.Random(2)
    space = MetricSpace(2, 256.0)
    structure = DynamicLightSpanner(space, 0.25, mode="exact")
    placed = []
    for pid in range(24):
        while True:
            c = (rng.uniform(0, 170), rng.uniform(0, 170))
            if all(math.dist(c, p) >= 1.0 for p in placed):
                break
        placed.append(c)
        structure.insert(pid, c)
    assert_clean(structure)
    ids = sorted(space.active)
    dm = pairwise_matrix(space, ids)
    dg = spanner_distance_matrix(space, ids, structure.light_edges())
    top = space.top_scale
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            if scale_of(dm[a, b]) <= top - 2:
                assert dg[a, b] < 2.0 * dm[a, b]


def test_dump_formats():
    structure, _ = build([1.0, 2.0, 3.0], 8.0)
    assert structure.base.dump().splitlines() == ["0 1 1.0 1", "0 2 2.0 2", "1 2 1.0 1"]
    assert structure.light_edges() == [(0, 1), (1, 2)]
    fast, _ = build([0, 1, 2, 3], 8.0, mode="fast")
    for line in fast.dump_estimates().splitlines():
        u, v, s, a, b = line.split()
        assert int(u) < int(v)
        assert int(s) == scale_of(fast.space.distance(int(u), int(v)))
        for field in (a, b):
            if field != "-":
                float(field)
