"""Brute-force reference routines, checked on hand-traced instances and
against each other (the two shortest-path routes, the two MST routes)."""

import math
import random

import numpy as np
import pytest

from dynspan.light_spanner import KAPPA, DynamicLightSpanner
from dynspan.metric import DistanceMatrixSpace, MetricSpace, scale_of
from dynspan.net_tree import NetHierarchy
from dynspan.oracle import (
    build_adjacency,
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


def _per_edge_check_invariants(space, base_edges, light_edges, eps, slack=1e-9):
    """check_invariants as it was first written: each light edge enters the
    all-pairs matrix on its own, by two rank-one min-plus updates."""
    violations = []
    light = set(light_edges)
    base = set(base_edges)
    for e in light:
        if e not in base:
            violations.append(f"not-in-base {e[0]} {e[1]}")
    ids = sorted(space.active)
    idx = {pid: k for k, pid in enumerate(ids)}
    d = np.full((len(ids), len(ids)), INF)
    np.fill_diagonal(d, 0.0)
    by_scale_base, by_scale_light = {}, {}
    for e in base:
        by_scale_base.setdefault(scale_of(space.distance(*e)), []).append(e)
    for e in light:
        by_scale_light.setdefault(scale_of(space.distance(*e)), []).append(e)
    if not by_scale_base:
        return violations
    for s in range(max(by_scale_base) + 1):
        for u, v in sorted(by_scale_base.get(s, ())):
            w = space.distance(u, v)
            ds = d[idx[u], idx[v]]
            if (u, v) in light or (v, u) in light:
                if ds <= (1.0 + eps / 3.0) * w - slack:
                    violations.append(f"redundant-edge {u} {v} dstar={ds!r} weight={w!r}")
            elif ds > (1.0 + eps) * w + slack:
                violations.append(f"missing-cover {u} {v} dstar={ds!r} weight={w!r}")
        for u, v in sorted(by_scale_light.get(s, ())):
            w = space.distance(u, v)
            a, b = idx[u], idx[v]
            np.minimum(d, np.add.outer(d[:, a], d[b, :]) + w, out=d)
            np.minimum(d, np.add.outer(d[:, b], d[a, :]) + w, out=d)
    return violations


def test_check_invariants_matches_the_per_edge_reference():
    # clean states of seeded runs, and the same states with output edges
    # dropped, pool edges added and a pair from outside the pool added;
    # only the dstar values may differ, as their sums run in another order
    rng = random.Random(3)

    def verdicts(messages):
        return [m.split(" dstar=")[0] for m in messages]

    states = flagged = 0
    for mode, eps in (("exact", 0.25), ("exact", 1.0), ("fast", 0.5)):
        space = MetricSpace(2, 128.0)
        structure = DynamicLightSpanner(space, eps, mode)
        alive = []
        for pid in range(56):
            if len(alive) > 12 and rng.random() < 0.35:
                structure.delete(alive.pop(rng.randrange(len(alive))))
            else:
                c = (rng.uniform(0, 85), rng.uniform(0, 85))
                if any(math.dist(c, space.coords(y)) < 1.0 for y in alive):
                    continue
                structure.insert(pid, c)
                alive.append(pid)
            if pid % 4:
                continue
            base, light = structure.base_edges(), structure.light_edges()
            ids, pool = sorted(alive), set(base)
            foreign = [(u, v) for k, u in enumerate(ids) for v in ids[k + 1:] if (u, v) not in pool]
            for output in (
                light,
                [e for e in light if rng.random() < 0.8],
                sorted(set(light) | set(rng.sample(base, len(base) // 10))),
                light + foreign[:1],
            ):
                got = check_invariants(space, base, output, eps)
                want = _per_edge_check_invariants(space, base, output, eps)
                assert verdicts(got) == verdicts(want)
                if output == light:
                    assert got == []
                states += 1
                flagged += len(got)
    assert states > 100 and flagged > 100


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
    dense = structure.dense

    def put(table, pair, value):
        a, b = dense.pos[pair[0]], dense.pos[pair[1]]
        table[a, b] = table[b, a] = value

    key = sorted(structure.estimates.dstar)[0]
    put(dense.dstar, key, 0.0)
    failures = sweep_estimate_store(structure)
    assert len(failures) == 1 and failures[0].startswith(f"dstar {key[0]} {key[1]}")
    put(dense.dstar, key, math.nan)
    # the factor allowed for a close pair follows from its scale alone
    (u, v), s = (0, 2), 2
    exact = dstar(space, structure.light_edges(), u, v)
    assert scale_of(space.distance(u, v)) == s and exact <= 2.0 * (1 << s)
    alpha = 1.0 + KAPPA * s * structure.eps_small
    put(dense.dstar, (u, v), alpha * exact * (1.0 + 1e-6))
    failures = sweep_estimate_store(structure)
    assert len(failures) == 1 and failures[0].startswith(f"dstar {u} {v}")
    put(dense.dstar, (u, v), alpha * exact)
    assert sweep_estimate_store(structure) == []
    key = sorted(structure.estimates.dlight)[0]
    put(dense.dlight, key, 0.0)
    failures = sweep_estimate_store(structure)
    assert len(failures) == 1 and failures[0].startswith(f"dlight {key[0]} {key[1]}")


def _per_source_sweep_estimate_store(structure, slack=1e-9):
    """sweep_estimate_store as it was first written: one Dijkstra search
    over the output edges below the scale from each dstar entry's smaller
    point, and one over all output edges from each dlight entry's."""
    space = structure.space
    light = structure.light_edges()
    failures = []

    def alpha(i):
        return 1.0 + KAPPA * i * structure.eps_small

    weighted = [(a, b, space.distance(a, b)) for a, b in light]
    adj = build_adjacency(weighted)
    full_from = {}
    by_scale = {}
    for a, b, w in weighted:
        by_scale.setdefault(scale_of(w), []).append((a, b, w))
    sub_adj_cache = {}

    def adjacency_below(s):
        if s not in sub_adj_cache:
            sub = [e for t, es in by_scale.items() if t < s for e in es]
            sub_adj_cache[s] = build_adjacency(sub)
        return sub_adj_cache[s]

    groups = {}
    for (u, v), est in structure.estimates.dstar.items():
        s = scale_of(space.distance(u, v))
        groups.setdefault((s, u), []).append((v, est))
    for s, u in sorted(groups):
        dmap = dijkstra(adjacency_below(s), u)
        for v, est in groups[(s, u)]:
            exact = dmap.get(v, INF)
            if not coarse_approx_ok(est, exact, alpha(s), float(1 << s), slack):
                failures.append(f"dstar {u} {v} est={est!r} exact={exact!r} scale={s}")
    for (u, v), est in sorted(structure.estimates.dlight.items()):
        if u not in full_from:
            full_from[u] = dijkstra(adj, u)
        exact = full_from[u].get(v, INF)
        s = scale_of(space.distance(u, v))
        base = float(1 << (s + 2))
        if not coarse_approx_ok(est, exact, alpha(s + 2), base, slack):
            failures.append(f"dlight {u} {v} est={est!r} exact={exact!r} scale={s}")
    return failures


def test_sweep_estimate_store_matches_the_per_source_reference():
    # clean states of a seeded run in the plane, and the same states with
    # estimates pushed below, just above and far above their truth; only
    # the exact values may differ, as their sums run in another order
    rng = random.Random(17)

    def verdicts(messages):
        return [m.split(" exact=")[0] + " " + m.split(" scale=")[1] for m in messages]

    space = MetricSpace(2, 128.0)
    structure = DynamicLightSpanner(space, 0.5, mode="fast")
    dense = structure.dense
    alive = []
    states = flagged = 0
    for pid in range(40):
        if len(alive) > 10 and rng.random() < 0.35:
            structure.delete(alive.pop(rng.randrange(len(alive))))
        else:
            c = (rng.uniform(0, 85), rng.uniform(0, 85))
            if any(math.dist(c, space.coords(y)) < 1.0 for y in alive):
                continue
            structure.insert(pid, c)
            alive.append(pid)
        if pid % 4:
            continue
        assert sweep_estimate_store(structure) == []
        assert _per_source_sweep_estimate_store(structure) == []
        saved = dense.dstar.copy(), dense.dlight.copy()
        for table in (dense.dstar, dense.dlight):
            a, b = np.nonzero(np.triu(~np.isnan(table), 1))
            for k in rng.sample(range(len(a)), min(len(a), 6)):
                value = table[a[k], b[k]]
                table[a[k], b[k]] = table[b[k], a[k]] = rng.choice(
                    [0.0, value * (1.0 + 1e-6), value * 1.5, INF]
                )
        got = sweep_estimate_store(structure)
        want = _per_source_sweep_estimate_store(structure)
        assert verdicts(got) == verdicts(want)
        dense.dstar[:], dense.dlight[:] = saved
        states += 1
        flagged += len(got)
    assert states > 6 and flagged > 20


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
