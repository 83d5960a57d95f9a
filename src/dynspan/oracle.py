"""Brute-force reference computations for validating maintained structures.

Everything here is written for clarity over speed and is independent of
the incremental bookkeeping in the rest of the package: shortest paths
are recomputed from scratch, hierarchy properties are checked by
exhaustive pairwise scans, and minimum spanning trees are produced by
two different textbook algorithms so they can be cross-checked.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .light_spanner import KAPPA
from .metric import scale_of

Edge = tuple[int, int]
INF = math.inf


# -- shortest paths ---------------------------------------------------------


def build_adjacency(edges: list[tuple[int, int, float]]) -> dict[int, list[tuple[int, float]]]:
    adj: dict[int, list[tuple[int, float]]] = {}
    for u, v, w in edges:
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    return adj


def dijkstra(
    adj: dict[int, list[tuple[int, float]]],
    source: int,
    cutoff: float = INF,
) -> dict[int, float]:
    """Distances from source over an undirected weighted graph.

    Nodes farther than ``cutoff`` may be missing from the result.
    """
    dist = {source: 0.0}
    heap = [(0.0, source)]
    done: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if d > cutoff:
            break
        for v, w in adj.get(u, ()):
            nd = d + w
            if nd <= cutoff and nd < dist.get(v, INF):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def graph_distance(edges: list[tuple[int, int, float]], u: int, v: int) -> float:
    if u == v:
        return 0.0
    return dijkstra(build_adjacency(edges), u).get(v, INF)


def floyd_warshall(
    nodes: list[int], edges: list[tuple[int, int, float]]
) -> dict[tuple[int, int], float]:
    """All-pairs distances by triple loop; second route next to dijkstra."""
    d: dict[tuple[int, int], float] = {}
    for a in nodes:
        for b in nodes:
            d[(a, b)] = 0.0 if a == b else INF
    for u, v, w in edges:
        if w < d[(u, v)]:
            d[(u, v)] = w
            d[(v, u)] = w
    for k in nodes:
        for a in nodes:
            dak = d[(a, k)]
            if dak == INF:
                continue
            for b in nodes:
                alt = dak + d[(k, b)]
                if alt < d[(a, b)]:
                    d[(a, b)] = alt
    return d


# -- metric helpers ---------------------------------------------------------


def pairwise_matrix(space, ids: list[int]) -> np.ndarray:
    """Dense distance matrix for the given point ids."""
    if getattr(space, "dim", 0) > 0:
        pts = np.asarray([space.coords(i) for i in ids], dtype=float)
        diff = pts[:, None, :] - pts[None, :, :]
        return np.sqrt((diff * diff).sum(axis=-1))
    n = len(ids)
    m = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            m[a, b] = m[b, a] = space.distance(ids[a], ids[b])
    return m


def spanner_distance_matrix(space, ids: list[int], edges: list[Edge]) -> np.ndarray:
    """All-pairs distances over the given edge set (weights = metric)."""
    idx = {pid: k for k, pid in enumerate(ids)}
    n = len(ids)
    d = np.full((n, n), INF)
    np.fill_diagonal(d, 0.0)
    for u, v in edges:
        w = space.distance(u, v)
        a, b = idx[u], idx[v]
        if w < d[a, b]:
            d[a, b] = d[b, a] = w
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def max_stretch(space, ids: list[int], edges: list[Edge]) -> float:
    """Worst ratio of spanner distance to metric distance over all pairs.

    Returns inf when the graph does not connect all the ids, 0.0 when
    there are fewer than two ids.
    """
    if len(ids) < 2:
        return 0.0
    dg = spanner_distance_matrix(space, ids, edges)
    dm = pairwise_matrix(space, ids)
    if np.isinf(dg).any():
        return INF
    mask = ~np.eye(len(ids), dtype=bool)
    return float((dg[mask] / dm[mask]).max())


def dstar(space, light_edges: list[Edge], u: int, v: int) -> float:
    """Distance between u and v over light edges strictly below the pair's scale."""
    s = scale_of(space.distance(u, v))
    sub = [
        (a, b, space.distance(a, b))
        for a, b in light_edges
        if scale_of(space.distance(a, b)) < s
    ]
    return graph_distance(sub, u, v)


# -- structure invariants ---------------------------------------------------


def check_invariants(
    space,
    base_edges: list[Edge],
    light_edges: list[Edge],
    eps: float,
    ids: list[int] | None = None,
    slack: float = 1e-9,
) -> list[str]:
    """Verify the pruning contract between the base and light edge sets.

    Each base edge not kept in the light set must already be covered
    within stretch 1+eps by light edges of strictly smaller scale, and
    each kept edge must genuinely be needed (not covered within stretch
    1+eps/3 by smaller-scale light edges).  Distances are evaluated in an
    exact all-pairs matrix that takes the light edges scale by scale, so
    every pair is judged against exactly the edges below its own scale.
    A scale's edges are written into the matrix, which is then relaxed
    through each of their endpoints in turn: the matrix was closed before,
    so a new shortest path breaks only at the ends of new edges, and
    Floyd-Warshall over those pivots alone closes it again.
    """
    violations: list[str] = []
    light = set(light_edges)
    base = set(base_edges)
    for e in light:
        if e not in base:
            violations.append(f"not-in-base {e[0]} {e[1]}")
    if not base:
        return violations
    if ids is None:
        ids = sorted(space.active)
    idx = {pid: k for k, pid in enumerate(ids)}
    n = len(ids)
    d = np.full((n, n), INF)
    np.fill_diagonal(d, 0.0)

    # every edge measured once; frexp's exponent is scale_of, bit for bit
    pairs = sorted(base | light)
    weights = [space.distance(u, v) for u, v in pairs]
    w = np.array(weights, dtype=float)
    scale = np.frexp(w)[1]
    a = np.array([idx[u] for u, _ in pairs], dtype=np.intp)
    b = np.array([idx[v] for _, v in pairs], dtype=np.intp)
    in_base = np.array([e in base for e in pairs])
    in_light = np.array([e in light for e in pairs])
    kept = in_light | np.array([(v, u) in light for u, v in pairs])

    for s in range(int(scale[in_base].max()) + 1):
        judged = np.flatnonzero(in_base & (scale == s))
        ds = d[a[judged], b[judged]]
        bad = np.where(
            kept[judged],
            ds <= (1.0 + eps / 3.0) * w[judged] - slack,
            ds > (1.0 + eps) * w[judged] + slack,
        )
        for k in np.flatnonzero(bad).tolist():
            (u, v), j = pairs[judged[k]], judged[k]
            kind = "redundant-edge" if kept[j] else "missing-cover"
            violations.append(f"{kind} {u} {v} dstar={ds[k]!r} weight={weights[j]!r}")
        new = np.flatnonzero(in_light & (scale == s))
        np.minimum.at(d, (a[new], b[new]), w[new])
        np.minimum.at(d, (b[new], a[new]), w[new])
        for p in np.unique(np.concatenate([a[new], b[new]])).tolist():
            np.minimum(d, d[:, p, None] + d[None, p, :], out=d)
    return violations


def validate_net_hierarchy(hier) -> list[str]:
    """Check nesting, separation, covering, and that level 0 is the active set."""
    space = hier.space
    violations: list[str] = []
    if set(hier.levels[0]) != set(space.active):
        violations.append("level-0-mismatch")
    for i in range(len(hier.levels)):
        members = sorted(hier.levels[i])
        if i > 0:
            for y in members:
                if y not in hier.levels[i - 1]:
                    violations.append(f"nesting {i} {y}")
        if len(members) > 1:
            m = pairwise_matrix(space, members)
            sep = float(1 << i)
            a, b = np.nonzero(m < sep)
            for ai, bi in zip(a, b):
                if ai < bi:
                    violations.append(f"separation {i} {members[ai]} {members[bi]}")
        if i > 0:
            below = sorted(hier.levels[i - 1])
            if below:
                if not members:
                    violations.append(f"covering {i} empty")
                else:
                    cross = _cross_matrix(space, below, members)
                    cov = float(1 << i)
                    for k in np.nonzero(cross.min(axis=1) > cov)[0]:
                        violations.append(f"covering {i} {below[k]}")
    return violations


def _cross_matrix(space, left: list[int], right: list[int]) -> np.ndarray:
    if getattr(space, "dim", 0) > 0:
        lp = np.asarray([space.coords(i) for i in left], dtype=float)
        rp = np.asarray([space.coords(i) for i in right], dtype=float)
        diff = lp[:, None, :] - rp[None, :, :]
        return np.sqrt((diff * diff).sum(axis=-1))
    return np.array(
        [[space.distance(a, b) for b in right] for a in left], dtype=float
    )


def validate_neighbor_lists(hier) -> list[str]:
    """Check each level's neighbor lists against a brute-force rebuild."""
    space = hier.space
    violations: list[str] = []
    for i in range(len(hier.levels)):
        members = sorted(hier.levels[i])
        radius = hier.list_radius(i)
        for u in members:
            want = {
                v for v in members if v != u and space.distance(u, v) <= radius
            }
            got = hier.neighbors[i].get(u, set())
            if got != want:
                violations.append(f"neighbor-list {i} {u}")
    return violations


# -- minimum spanning tree (two routes) -------------------------------------


def mst_weight_prim(space, ids: list[int]) -> float:
    n = len(ids)
    if n < 2:
        return 0.0
    m = pairwise_matrix(space, ids)
    in_tree = np.zeros(n, dtype=bool)
    best = m[0].copy()
    in_tree[0] = True
    best[0] = INF
    total = 0.0
    for _ in range(n - 1):
        k = int(np.argmin(best))
        total += float(best[k])
        in_tree[k] = True
        best[k] = INF
        np.minimum(best, np.where(in_tree, INF, m[k]), out=best)
    return total


def mst_weight_kruskal(space, ids: list[int]) -> float:
    n = len(ids)
    if n < 2:
        return 0.0
    edges = sorted(
        (space.distance(ids[a], ids[b]), a, b)
        for a in range(n)
        for b in range(a + 1, n)
    )
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0.0
    used = 0
    for w, a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            total += w
            used += 1
            if used == n - 1:
                break
    return total


# -- coarse estimate checking ------------------------------------------------


def is_coarse_approx(est: float, exact: float, alpha: float, base: float) -> bool:
    """Exact acceptance predicate for a scale-relative estimate.

    Close pairs (exact <= 2*base) must be sandwiched between the true
    value and alpha times it; far pairs only need the estimate to stay
    at least 2*base, infinity included.
    """
    if exact <= 2.0 * base:
        return exact <= est <= alpha * exact
    return est >= 2.0 * base


def coarse_approx_ok(
    est: float, exact: float, alpha: float, base: float, slack: float = 1e-9
) -> bool:
    """Float-tolerant variant of is_coarse_approx.

    The slack is relative to the magnitudes involved, and values landing
    on the branch boundary are accepted if either branch accepts them.
    """
    tol = slack * max(1.0, base, exact if math.isfinite(exact) else base)
    close = exact <= est + tol and (math.isinf(exact) or est <= alpha * exact + tol)
    far = est >= 2.0 * base - tol
    if math.isfinite(exact) and abs(exact - 2.0 * base) <= tol:
        return close or far
    if exact <= 2.0 * base:
        return close
    return far


def sweep_estimate_store(structure, slack: float = 1e-9) -> list[str]:
    """Check every stored distance estimate against brute-force truth.

    Entries keyed to pairs whose scale bucket they were written for are
    compared with the coarse predicate at that bucket's base distance.  A
    pair of scale s has its ``dstar`` entry written at scale iteration s
    and its ``dlight`` entry at s + 2, and an entry written at iteration i
    must be within ``1 + KAPPA * i * eps_small``.  Returns one message per
    failing entry.

    The truth is one all-pairs matrix over the output edges, taken scale by
    scale as in ``check_invariants``: each scale's ``dstar`` entries are
    judged while the matrix holds exactly the output edges of lower scales,
    then that scale's output edges are written in and the matrix is relaxed
    through each of their endpoints.  Every ``dlight`` entry is judged
    against the matrix closed over all output edges.
    """
    space = structure.space
    light = structure.light_edges()
    failures: list[str] = []

    def alpha(i: int) -> float:
        return 1.0 + KAPPA * i * structure.eps_small

    ids = sorted(space.active)
    idx = {pid: k for k, pid in enumerate(ids)}
    n = len(ids)
    d = np.full((n, n), INF)
    np.fill_diagonal(d, 0.0)

    # every output edge measured once; frexp's exponent is scale_of, bit for bit
    w = np.array([space.distance(u, v) for u, v in light], dtype=float)
    scale = np.frexp(w)[1]
    a = np.array([idx[u] for u, _ in light], dtype=np.intp)
    b = np.array([idx[v] for _, v in light], dtype=np.intp)

    # dstar entries by scale, each scale's in sorted (u, v) order
    judged: dict[int, list[tuple[int, int, float]]] = {}
    for (u, v), est in sorted(structure.estimates.dstar.items()):
        judged.setdefault(scale_of(space.distance(u, v)), []).append((u, v, est))
    top = max([*judged, *scale.tolist()], default=-1)
    for s in range(top + 1):
        for u, v, est in judged.get(s, ()):
            exact = float(d[idx[u], idx[v]])
            if not coarse_approx_ok(est, exact, alpha(s), float(1 << s), slack):
                failures.append(f"dstar {u} {v} est={est!r} exact={exact!r} scale={s}")
        new = np.flatnonzero(scale == s)
        np.minimum.at(d, (a[new], b[new]), w[new])
        np.minimum.at(d, (b[new], a[new]), w[new])
        for p in np.unique(np.concatenate([a[new], b[new]])).tolist():
            np.minimum(d, d[:, p, None] + d[None, p, :], out=d)

    for (u, v), est in sorted(structure.estimates.dlight.items()):
        exact = float(d[idx[u], idx[v]])
        s = scale_of(space.distance(u, v))
        base = float(1 << (s + 2))
        if not coarse_approx_ok(est, exact, alpha(s + 2), base, slack):
            failures.append(f"dlight {u} {v} est={est!r} exact={exact!r} scale={s}")
    return failures


# -- reference spanner --------------------------------------------------------


def greedy_spanner_reference(space, ids: list[int], t: float) -> list[Edge]:
    """Textbook greedy t-spanner; pairs scanned by (length, smaller id, larger id)."""
    ids = sorted(ids)
    pairs = sorted(
        (space.distance(u, v), u, v)
        for k, u in enumerate(ids)
        for v in ids[k + 1 :]
    )
    # sorted() above compares ids only on equal length, which is the tie rule
    adj: dict[int, list[tuple[int, float]]] = {}
    out: list[Edge] = []
    for w, u, v in pairs:
        reach = dijkstra(adj, u, cutoff=t * w)
        if reach.get(v, INF) > t * w:
            adj.setdefault(u, []).append((v, w))
            adj.setdefault(v, []).append((u, w))
            out.append((u, v) if u < v else (v, u))
    return out
