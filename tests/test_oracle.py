"""Brute-force reference routines, checked on hand-traced instances and
against each other (the two shortest-path routes, the two MST routes)."""

import math
import random

import pytest

from dynspan.light_spanner import DynamicLightSpanner
from dynspan.metric import DistanceMatrixSpace, MetricSpace
from dynspan.net_tree import NetHierarchy
from dynspan.oracle import (
    check_invariants,
    coarse_approx_ok,
    dijkstra,
    dstar,
    floyd_warshall,
    graph_distance,
    greedy_spanner_reference,
    is_coarse_approx,
    max_stretch,
    mst_weight_kruskal,
    mst_weight_prim,
    sweep_estimate_store,
    validate_neighbor_lists,
    validate_net_hierarchy,
)

INF = math.inf


def line_space(coords, phi):
    space = MetricSpace(1, phi)
    for pid, x in enumerate(coords):
        space.add_point(pid, (float(x),))
    return space


# -- shortest paths -----------------------------------------------------------


def test_graph_distance_identity():
    assert graph_distance([], 3, 3) == 0.0


def test_graph_distance_disconnected():
    assert graph_distance([(0, 1, 1.0)], 0, 9) == INF


def test_graph_distance_unit_path():
    edges = [(k, k + 1, 1.0) for k in range(1, 5)]
    assert graph_distance(edges, 1, 5) == 4.0


def test_dijkstra_cutoff_truncates():
    edges = [(k, k + 1, 1.0) for k in range(5)]
    adj = {u: [] for u in range(6)}
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    reach = dijkstra(adj, 0, cutoff=2.5)
    assert 2 in reach and 5 not in reach


def test_dijkstra_agrees_with_floyd_warshall_on_random_graphs():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(2, 26)
        nodes = list(range(n))
        edges = [
            (a, b, float(rng.randrange(1, 21)))
            for a in nodes
            for b in nodes
            if a < b and rng.random() < 0.3
        ]
        fw = floyd_warshall(nodes, edges)
        adj = {}
        for a, b, w in edges:
            adj.setdefault(a, []).append((b, w))
            adj.setdefault(b, []).append((a, w))
        for s in nodes:
            dmap = dijkstra(adj, s)
            for t in nodes:
                assert dmap.get(t, INF) == fw[(s, t)]


# -- delayed-selection distance and invariants ----------------------------------


def test_dstar_empty_edge_set():
    space = line_space([0, 2], 8.0)
    assert dstar(space, [], 0, 1) == INF


def test_dstar_two_hop():
    space = line_space([0, 1, 2], 8.0)
    assert dstar(space, [(0, 1), (1, 2)], 0, 2) == 2.0


def test_dstar_ignores_same_scale_edges():
    # the direct edge has the same scale as the pair, so it does not count
    space = line_space([0, 1, 2], 8.0)
    assert dstar(space, [(0, 2)], 0, 2) == INF


def test_check_invariants_single_edge():
    space = line_space([0, 1], 8.0)
    assert check_invariants(space, [(0, 1)], [(0, 1)], 1.0) == []


def test_check_invariants_missing_cover():
    space = line_space([0, 1], 8.0)
    found = check_invariants(space, [(0, 1)], [], 1.0)
    assert len(found) == 1 and found[0].startswith("missing-cover 0 1")


def test_check_invariants_redundant_edge():
    space = line_space([0, 1, 2], 8.0)
    edges = [(0, 1), (0, 2), (1, 2)]
    found = check_invariants(space, edges, edges, 1.0)
    assert len(found) == 1 and found[0].startswith("redundant-edge 0 2")


def test_check_invariants_foreign_edge():
    space = line_space([0, 1], 8.0)
    found = check_invariants(space, [], [(0, 1)], 1.0)
    assert "not-in-base 0 1" in found


def test_max_stretch_trivia():
    space = line_space([0, 1, 3], 8.0)
    complete = [(0, 1), (0, 2), (1, 2)]
    assert max_stretch(space, [0, 1, 2], complete) == 1.0
    assert max_stretch(space, [0, 1], [(0, 1)]) == 1.0
    assert max_stretch(space, [0], []) == 0.0
    assert max_stretch(space, [0, 1, 2], [(0, 1)]) == INF


def test_max_stretch_detour():
    space = MetricSpace(2, 8.0)
    space.add_point(0, (0.0, 0.0))
    space.add_point(1, (3.0, 4.0))
    space.add_point(2, (3.0, 0.0))
    got = max_stretch(space, [0, 1, 2], [(0, 2), (1, 2)])
    assert got == pytest.approx(7.0 / 5.0)


# -- minimum spanning tree ------------------------------------------------------


def test_mst_weight_trivia():
    assert mst_weight_prim(line_space([5], 8.0), [0]) == 0.0
    assert mst_weight_kruskal(line_space([5], 8.0), [0]) == 0.0


def test_mst_weight_path():
    space = line_space(range(1, 11), 16.0)
    ids = list(range(10))
    assert mst_weight_prim(space, ids) == 9.0
    assert mst_weight_kruskal(space, ids) == 9.0


def test_mst_weight_unit_square():
    space = MetricSpace(2, 8.0)
    for pid, c in enumerate([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]):
        space.add_point(pid, c)
    ids = [0, 1, 2, 3]
    assert mst_weight_prim(space, ids) == 3.0
    assert mst_weight_kruskal(space, ids) == 3.0


def test_mst_routes_agree_on_random_instances():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(2, 61)
        space = MetricSpace(2, 1024.0)
        seen = set()
        pid = 0
        while pid < n:
            c = (float(rng.randrange(0, 600)), float(rng.randrange(0, 600)))
            if c in seen:
                continue
            seen.add(c)
            space.add_point(pid, c)
            pid += 1
        ids = list(range(n))
        assert mst_weight_prim(space, ids) == pytest.approx(
            mst_weight_kruskal(space, ids), abs=1e-9
        )


def test_mst_on_matrix_space():
    m = [[0.0 if i == j else 3.0 for j in range(4)] for i in range(4)]
    space = DistanceMatrixSpace(m, 8.0)
    for pid in range(4):
        space.add_point(pid)
    assert mst_weight_prim(space, [0, 1, 2, 3]) == 9.0
    assert mst_weight_kruskal(space, [0, 1, 2, 3]) == 9.0


# -- hierarchy validation --------------------------------------------------------


def test_validate_empty_hierarchy():
    space = MetricSpace(1, 8.0)
    hier = NetHierarchy(space)
    assert validate_net_hierarchy(hier) == []


def test_validate_flags_close_pair_in_high_level():
    space = line_space([0, 3], 8.0)
    hier = NetHierarchy(space)
    hier.insert(0)
    hier.insert(1)  # joins levels 0 and 1 only
    assert validate_net_hierarchy(hier) == []
    hier._add_member(2, 1)  # distance 3 < 2**2 breaks separation
    assert validate_net_hierarchy(hier) == ["separation 2 0 1"]


def test_validate_flags_nesting_and_level_zero():
    space = line_space([0, 5], 8.0)
    hier = NetHierarchy(space)
    hier.insert(0)
    hier._add_member(2, 1)  # 1 in level 2 but not below, and absent from level 0
    found = validate_net_hierarchy(hier)
    assert "level-0-mismatch" in found
    assert any(v.startswith("nesting 1 1") or v.startswith("nesting 2 1") for v in found)


def test_validate_flags_covering_gap():
    space = line_space([0, 5], 8.0)
    hier = NetHierarchy(space)
    hier._add_member(0, 0)
    hier._add_member(0, 1)
    hier._add_member(1, 0)  # point 1 is 5 > 2 away from every level-1 member
    assert "covering 1 1" in validate_net_hierarchy(hier)


def test_validate_neighbor_lists_detects_corruption():
    space = line_space([0, 1], 8.0)
    hier = NetHierarchy(space)
    hier.insert(0)
    hier.insert(1)
    assert validate_neighbor_lists(hier) == []
    hier.neighbors[0][0].discard(1)
    assert "neighbor-list 0 0" in validate_neighbor_lists(hier)


# -- coarse approximation predicate ----------------------------------------------


def test_is_coarse_approx_close_branch():
    assert is_coarse_approx(5.0, 5.0, 1.5, 3.0)
    assert not is_coarse_approx(4.9, 5.0, 1.5, 3.0)  # below the true value
    assert not is_coarse_approx(8.0, 5.0, 1.5, 3.0)  # above alpha * exact


def test_is_coarse_approx_far_branch():
    assert is_coarse_approx(7.0, 10.0, 1.5, 3.0)
    assert not is_coarse_approx(5.0, 10.0, 1.5, 3.0)
    assert is_coarse_approx(INF, INF, 1.5, 3.0)
    assert is_coarse_approx(6.0, INF, 1.5, 3.0)


def test_coarse_approx_ok_accepts_branch_boundary():
    # exact sits exactly at 2 * base; either branch may claim the value
    assert coarse_approx_ok(6.0, 6.0, 1.01, 3.0)
    assert coarse_approx_ok(9.0, 6.0, 1.01, 3.0)  # far reading, est >= 2 * base
    assert not coarse_approx_ok(1.0, 6.0, 1.01, 3.0)


def test_sweep_estimate_store_and_corruption():
    space = MetricSpace(1, 8.0)
    structure = DynamicLightSpanner(space, 1.0, mode="fast")
    for pid in range(4):
        structure.insert(pid, (float(pid),))
    assert sweep_estimate_store(structure) == []
    key = sorted(structure.estimates.dstar)[0]
    structure.estimates.dstar[key].value = 0.0
    failures = sweep_estimate_store(structure)
    assert len(failures) == 1 and failures[0].startswith(f"dstar {key[0]} {key[1]}")
    del structure.estimates.dstar[key]
    key = sorted(structure.estimates.dlight)[0]
    structure.estimates.dlight[key].value = 0.0
    failures = sweep_estimate_store(structure)
    assert len(failures) == 1 and failures[0].startswith(f"dlight {key[0]} {key[1]}")


# -- reference greedy spanner ----------------------------------------------------


def test_greedy_two_points():
    space = line_space([0, 5], 8.0)
    assert greedy_spanner_reference(space, [0, 1], 2.0) == [(0, 1)]


def test_greedy_rejects_covered_collinear_edge():
    space = line_space([0, 1, 2], 8.0)
    assert greedy_spanner_reference(space, [0, 1, 2], 1.5) == [(0, 1), (1, 2)]


def test_greedy_unit_square_keeps_sides_drops_diagonals():
    space = MetricSpace(2, 8.0)
    for pid, c in enumerate([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]):
        space.add_point(pid, c)
    assert greedy_spanner_reference(space, [0, 1, 2, 3], 2.0) == [
        (0, 1),
        (0, 3),
        (1, 2),
        (2, 3),
    ]


def test_greedy_output_is_a_t_spanner():
    rng = random.Random(3)
    space = MetricSpace(2, 64.0)
    seen = set()
    pid = 0
    while pid < 12:
        c = (float(rng.randrange(0, 40)), float(rng.randrange(0, 40)))
        if c in seen:
            continue
        seen.add(c)
        space.add_point(pid, c)
        pid += 1
    ids = list(range(12))
    t = 2.0
    edges = [(u, v, space.distance(u, v)) for u, v in greedy_spanner_reference(space, ids, t)]
    for a in range(12):
        for b in range(a + 1, 12):
            assert graph_distance(edges, a, b) <= t * space.distance(a, b) + 1e-9
