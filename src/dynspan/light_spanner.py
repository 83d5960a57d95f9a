"""Dynamic low-stretch, low-weight spanner over a changing point set.

The maintained graph is a lazily pruned subset of a net-derived candidate
edge pool.  A candidate edge joins the output when the graph built from
strictly shorter output edges fails to connect its endpoints within
stretch 1+eps; it is dropped again when that path reappears.  Pruning
decisions are only revisited near an updated point, which keeps per-update
work local while a slack band between the join threshold (1+eps) and the
guaranteed separation (1+eps/3) absorbs the drift in between.

Two update strategies share all bookkeeping:

* ``exact`` settles the revisited edges of each scale with one batched
  Dijkstra search over the output edges below that scale, among the
  points in a ball around the updated point, truncated at ``1+eps``
  times the longest of those edges.  Nothing is memoised between
  updates.
* ``fast`` replaces the Dijkstra runs with cached coarse distance
  estimates read off small sketch graphs, refreshed only near the
  updated point.  Estimates are kept for the pairs of a net spanner
  built with a much smaller eps (``eps_small``); fast mode accepts only
  phi at which that spanner holds every active pair, so the pool is read
  as a view of the active set and never stored.  Each update measures
  the neighbourhood of the updated point once (a ``Neighbourhood``: every
  pair among the active points, and each point's distance to the updated
  one), and every scale reads its refreshed pairs, its sketch's vertices
  and distances, and its verdicts' weights from that one view.  A sketch
  takes its output edges from the adjacency of its own vertices.

Inserts are rejected, leaving the structure as it was (the id stays
used), unless the new point is at distance in [1, phi) from every active
point: closer points break the level-0 net, and pairs at phi or farther
have a scale that no update visits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph, csr_matrix
# the fast path's sketch searches; bench/tracing.py wraps this name, and the
# exact path calls csgraph.dijkstra so that its searches are not counted here
from scipy.sparse.csgraph import dijkstra as sparse_dijkstra

from .metric import distance_matrix, scale_of
from .net_spanner import AllPairs, Neighbourhood, NetSpanner
from .net_tree import Change, NetHierarchy

Edge = tuple[int, int]
INF = math.inf

# headroom factor between the two candidate pools; the auxiliary pool's
# eps is the output eps divided by 3 * KAPPA * log2(phi)
KAPPA = 342


@dataclass(slots=True)
class StoredEstimate:
    value: float
    alpha: float  # guaranteed approximation factor recorded at write time


@dataclass
class EstimateStore:
    """Cached coarse distances, keyed by candidate-pool edge.

    ``dstar`` approximates the distance over output edges strictly below
    the pair's own scale; ``dlight`` approximates the plain distance over
    all output edges and is refreshed two scale iterations after the
    pair's own scale."""

    dstar: dict[Edge, StoredEstimate] = field(default_factory=dict)
    dlight: dict[Edge, StoredEstimate] = field(default_factory=dict)


@dataclass
class UpdateReport:
    op: str
    point: int
    added: list[Edge]
    removed: list[Edge]
    recourse: int
    time_ns: int
    ball_queries: int
    relaxations: int
    """Finite (source, point) distances settled by the exact mode's batched
    searches, sources included; always 0 in fast mode."""
    net_changes: list[Change]


class DynamicLightSpanner:
    """Maintains the output edge set under point insertions and deletions."""

    def __init__(self, space, eps: float, mode: str = "exact"):
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        if mode not in ("exact", "fast"):
            raise ValueError(f"unknown mode {mode!r}")
        self.space = space
        self.eps = float(eps)
        self.mode = mode
        self.top = space.top_scale
        self.eps_small = self.eps / (3.0 * KAPPA * max(1, self.top))
        if mode == "fast" and space.phi > 4.0 + 16.0 / self.eps_small:
            # above this the eps_small net spanner misses some pairs, so
            # the all-pairs view no longer stands for it
            raise ValueError(
                f"fast mode supports phi <= {4.0 + 16.0 / self.eps_small:g} at eps={eps}"
            )
        self.counters: dict[str, int] = {"ball_queries": 0, "relaxations": 0}
        self.hierarchy = NetHierarchy(space, counters=self.counters)
        # base pool: candidates for the output; dense pool: the pairs that
        # carry cached estimates, read only in fast mode
        self.base = NetSpanner(self.hierarchy, self.eps)
        self.dense = AllPairs(self.hierarchy)
        self.light: set[Edge] = set()
        self.estimates = EstimateStore()
        self._light_adj: dict[int, dict[int, tuple[float, int]]] = {}

    # -- output edge bookkeeping -----------------------------------------

    def _light_add(self, e: Edge) -> None:
        u, v = e
        w = self.space.distance(u, v)
        s = scale_of(w)
        self.light.add(e)
        self._light_adj.setdefault(u, {})[v] = (w, s)
        self._light_adj.setdefault(v, {})[u] = (w, s)

    def _light_remove(self, e: Edge) -> None:
        u, v = e
        self.light.remove(e)
        del self._light_adj[u][v]
        del self._light_adj[v][u]
        if not self._light_adj[u]:
            del self._light_adj[u]
        if not self._light_adj[v]:
            del self._light_adj[v]

    def _apply(self, u: int, v: int, covered: bool, added: set[Edge], removed: set[Edge]) -> None:
        e = (u, v) if u < v else (v, u)
        if covered:
            if e in self.light:
                self._light_remove(e)
                if e in added:
                    added.discard(e)
                else:
                    removed.add(e)
        else:
            if e not in self.light:
                self._light_add(e)
                if e in removed:
                    removed.discard(e)
                else:
                    added.add(e)

    # -- updates -----------------------------------------------------------

    def insert(self, pid: int, coords) -> UpdateReport:
        t0 = time.perf_counter_ns()
        before = dict(self.counters)
        self.space.add_point(pid, coords)
        self._reject_out_of_range(pid)
        changes = self.hierarchy.insert(pid)
        return self._sync_and_reselect("insert", pid, changes, t0, before)

    def _reject_out_of_range(self, pid: int) -> None:
        """Deactivate pid and raise unless it is within [1, phi) of every active point."""
        dist = self.space.distance
        phi = self.space.phi
        for y in self.hierarchy.levels[0]:
            d = dist(pid, y)
            if not 1.0 <= d < phi:
                self.space.remove_point(pid)
                raise ValueError(
                    f"point {pid} is at distance {d!r} from point {y}; "
                    f"inserts need distances in [1, {phi:g})"
                )

    def delete(self, pid: int) -> UpdateReport:
        t0 = time.perf_counter_ns()
        before = dict(self.counters)
        changes = self.hierarchy.delete(pid)
        self.space.remove_point(pid)
        return self._sync_and_reselect("delete", pid, changes, t0, before)

    def _sync_and_reselect(
        self, op: str, pid: int, changes: list[Change], t0: int, before: dict[str, int]
    ) -> UpdateReport:
        """Carry the hierarchy's changeset into the pools and the output, and
        report the update that started at ``t0`` with the counters ``before``."""
        added: set[Edge] = set()
        removed: set[Edge] = set()
        base_added, base_removed = self.base.sync(changes)
        for u, v in base_removed:
            self._apply(u, v, True, added, removed)
        if self.mode == "fast":
            dense_added, dense_removed = self.dense.sync(changes)
            for e in dense_removed:
                self.estimates.dstar.pop(e, None)
                self.estimates.dlight.pop(e, None)
            view = self._view(pid)
            self._reselect_fast(view, added, removed)
            self._check_fresh_entries(view, base_added, dense_added)
        else:
            self._reselect_exact(pid, added, removed)
        return UpdateReport(
            op=op,
            point=pid,
            added=sorted(added),
            removed=sorted(removed),
            recourse=len(added) + len(removed),
            time_ns=time.perf_counter_ns() - t0,
            ball_queries=self.counters["ball_queries"] - before["ball_queries"],
            relaxations=self.counters["relaxations"] - before["relaxations"],
            net_changes=changes,
        )

    # -- exact strategy ----------------------------------------------------

    def _reselect_exact(self, x: int, added: set[Edge], removed: set[Edge]) -> None:
        one = 1.0 + self.eps
        dist = self.space.distance
        light = self.light
        work = []
        for i in range(self.top + 1):
            pairs = self.base.edges_at_scale_in_ball(i, x, 4.0 * (1 << i))
            if pairs:
                weights = [dist(u, v) for u, v in pairs]
                work.append((i, pairs, weights, one * max(weights)))
        if not work:
            return
        # a path of length at most limit from a source within 4 * 2**i of x
        # stays within 4 * 2**i + limit of x, so a search truncated at limit
        # needs no point farther out; this radius grows with the scale, and
        # the relative slack absorbs rounding in the triangle inequality
        reach = [(4.0 * (1 << i) + limit) * (1.0 + 1e-9) for i, _, _, limit in work]
        near = sorted((dist(x, y), y) for y in self.hierarchy.ball(0, x, reach[-1]))
        for (i, pairs, weights, limit), r in zip(work, reach):
            ids = [y for d, y in near if d <= r]
            # built after the lower scales of this update have been applied,
            # since the verdicts here read their output edges
            index, graph = self._output_below(i, ids)
            # each pair is searched from its smaller endpoint u, always the
            # same one: rounded path sums can depend on the direction
            sources = sorted({u for u, _ in pairs})
            rows = csgraph.dijkstra(
                graph, directed=True, indices=[index[u] for u in sources], limit=limit
            )
            self.counters["relaxations"] += int(np.count_nonzero(np.isfinite(rows)))
            row_of = {u: k for k, u in enumerate(sources)}
            found = rows[[row_of[u] for u, _ in pairs], [index[v] for _, v in pairs]]
            covered = found <= one * np.asarray(weights)
            for (u, v), c in zip(pairs, covered.tolist()):
                if c == ((u, v) in light):  # a covered edge is kept, or the reverse
                    self._apply(u, v, c, added, removed)

    def _output_below(self, scale: int, ids: list[int]) -> tuple[dict[int, int], csr_matrix]:
        """The output edges of scale < ``scale`` among ``ids``, as a CSR graph
        that holds both directions of each edge."""
        index = {pid: k for k, pid in enumerate(ids)}
        adj = self._light_adj
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        for pid in ids:
            for y, (w, s) in adj.get(pid, {}).items():
                k = index.get(y)
                if s < scale and k is not None:
                    indices.append(k)
                    data.append(w)
            indptr.append(len(indices))
        n = len(ids)
        return index, csr_matrix((data, indices, indptr), shape=(n, n))

    # -- fast strategy -------------------------------------------------------

    def _view(self, x: int) -> Neighbourhood:
        """Every active point near x, measured once: out to the largest radius
        that any scale of an update around x reads."""
        return Neighbourhood(self.hierarchy, x, 8.0 * (1 << self.top))

    def _reselect_fast(self, view: Neighbourhood, added: set[Edge], removed: set[Edge]) -> None:
        one = 1.0 + self.eps
        x = view.center
        dstar = self.estimates.dstar
        light = self.light
        pos = view.pos
        for i in range(self.top + 1):
            self._update_estimates(view, i)
            pairs = self.base.edges_at_scale_in_ball(i, x, 8.0 * (1 << i))
            if not pairs:
                continue
            try:
                found = np.array([dstar[e].value for e in pairs])
            except KeyError as missing:
                raise RuntimeError(
                    f"missing separation estimate for pair {missing.args[0]}"
                ) from None
            weights = view.dist[[pos[u] for u, _ in pairs], [pos[v] for _, v in pairs]]
            covered = found <= one * weights
            for (u, v), c in zip(pairs, covered.tolist()):
                if c == ((u, v) in light):  # a covered edge is kept, or the reverse
                    self._apply(u, v, c, added, removed)

    def _update_estimates(self, view: Neighbourhood, i: int) -> None:
        """Refresh cached estimates for pairs near the view's center at scale
        iteration i."""
        radius = 4.0 * (1 << i)
        none = (np.empty(0, dtype=np.intp),) * 2
        pairs_dl = view.pairs(i - 2, radius) if i >= 2 else none
        pairs_ds = view.pairs(i, radius)
        if not len(pairs_dl[0]) and not len(pairs_ds[0]):
            return
        members, graph = self._build_sketch(view, i)
        alpha = 1.0 + KAPPA * i * self.eps_small
        # view position -> sketch vertex, and -> Dijkstra row, or -1
        vertex = np.full(len(view.ids), -1)
        vertex[members] = np.arange(len(members))
        sources = np.union1d(pairs_dl[0], pairs_ds[0])
        sources = sources[vertex[sources] >= 0]
        row = np.full(len(view.ids), -1)
        row[sources] = np.arange(len(sources))
        mat = (
            sparse_dijkstra(graph, directed=False, indices=vertex[sources].tolist())
            if len(sources)
            else np.empty((0, len(members)))
        )

        def store(table: dict[Edge, StoredEstimate], first: np.ndarray, second: np.ndarray) -> None:
            at, to = row[first], vertex[second]
            ok = (at >= 0) & (to >= 0)
            values = np.full(len(first), INF)
            values[ok] = mat[at[ok], to[ok]]
            for e, value in zip(view.edges(first, second), values.tolist()):
                table[e] = StoredEstimate(value, alpha)

        store(self.estimates.dlight, *pairs_dl)
        store(self.estimates.dstar, *pairs_ds)

    def _build_sketch(self, view: Neighbourhood, at_scale: int) -> tuple[np.ndarray, csr_matrix]:
        """Small graph whose distances coarsely track output-graph distances.

        Vertices are net points near the view's center, returned as view
        positions in ascending order.  Pairs in the middle distance band
        contribute an edge exactly when they are currently in the output;
        pairs in the low band always contribute an edge, weighted by their
        cached output-graph distance.  Bands are read off ``view.matrix``.
        """
        iprime = max(0, scale_of(self.eps_small * float(1 << at_scale)) - 1)
        level = self.hierarchy.levels[iprime]
        ids = view.ids
        near = np.flatnonzero(view.to_center <= 7.0 * (1 << at_scale))
        members = np.array([k for k in near.tolist() if ids[k] in level], dtype=np.intp)
        n = len(members)
        m = view.matrix[np.ix_(members, members)]
        band1_hi = 2.0 ** (at_scale - 1)
        band1_lo = 2.0 ** (at_scale - 3)
        band2_hi = band1_lo
        # middle band: the output edges among the vertices
        sketch_ids = [ids[k] for k in members.tolist()]
        vertex = {pid: j for j, pid in enumerate(sketch_ids)}
        first: list[int] = []
        second: list[int] = []
        adj = self._light_adj
        for a, ja in vertex.items():
            for b in adj.get(a, ()):
                jb = vertex.get(b)
                if jb is not None and ja < jb:
                    first.append(ja)
                    second.append(jb)
        rows1 = np.array(first, dtype=np.intp)
        cols1 = np.array(second, dtype=np.intp)
        w1 = m[rows1, cols1]
        mid = (band1_lo <= w1) & (w1 < band1_hi)
        # low band: every pair, weighted by its output-distance estimate
        rows2, cols2 = np.nonzero(np.triu(m < band2_hi, 1))
        dlight = self.estimates.dlight
        estimated: list[float] = []
        for ja, jb in zip(rows2.tolist(), cols2.tolist()):
            pair = (sketch_ids[ja], sketch_ids[jb])
            entry = dlight.get(pair)
            if entry is None:
                raise RuntimeError(f"missing output-distance estimate for pair {pair}")
            estimated.append(entry.value)
        w2 = np.array(estimated, dtype=float)
        low = ~np.isinf(w2)
        rows = np.concatenate([rows1[mid], rows2[low]])
        cols = np.concatenate([cols1[mid], cols2[low]])
        data = np.concatenate([w1[mid], w2[low]])
        return members, csr_matrix((data, (rows, cols)), shape=(n, n))

    def estimate(self, u: int, v: int, at_scale: int, center: int) -> float:
        """Coarse distance between u and v read off one sketch graph."""
        view = self._view(center)
        members, graph = self._build_sketch(view, at_scale)
        vertex = {view.ids[k]: j for j, k in enumerate(members.tolist())}
        if u not in vertex or v not in vertex:
            return INF
        row = sparse_dijkstra(graph, directed=False, indices=[vertex[u]])[0]
        return float(row[vertex[v]])

    def _check_fresh_entries(
        self, view: Neighbourhood, base_added: list[Edge], dense_added: list[Edge]
    ) -> None:
        """Raise unless every pair that joined a pool got its estimates; the
        dense pool's new pairs are all in the update's view."""
        for e in base_added:
            if e not in self.estimates.dstar:
                raise RuntimeError(f"pool edge {e} has no separation estimate")
        for e in dense_added:
            if e not in self.estimates.dstar:
                raise RuntimeError(f"dense edge {e} has no separation estimate")
            if view.scale(*e) <= self.top - 2 and e not in self.estimates.dlight:
                raise RuntimeError(f"dense edge {e} has no distance estimate")

    # -- queries ---------------------------------------------------------------

    def light_edges(self) -> list[Edge]:
        return sorted(self.light)

    def base_edges(self) -> list[Edge]:
        return self.base.edges()

    def edge_count(self) -> int:
        return len(self.light)

    def total_weight(self) -> float:
        dist = self.space.distance
        return sum(dist(u, v) for u, v in self.light)

    def lightness(self) -> float:
        """Output weight over minimum spanning tree weight of the active set."""
        ids = sorted(self.space.active)
        if len(ids) < 2:
            raise ValueError("lightness needs at least two active points")
        if not self.light:
            raise ValueError("output spanner has no edges")
        mst = csgraph.minimum_spanning_tree(distance_matrix(self.space, ids))
        return self.total_weight() / float(mst.sum())

    def dump_spanner(self) -> str:
        """One line per output edge, ``u v length scale``, sorted by endpoints."""
        dist = self.space.distance
        lines = []
        for u, v in sorted(self.light):
            d = dist(u, v)
            lines.append(f"{u} {v} {d!r} {scale_of(d)}")
        return "\n".join(lines)

    def dump_estimates(self) -> str:
        """One line per cached pair, ``u v scale dstar dlight``, sorted."""
        keys = sorted(set(self.estimates.dstar) | set(self.estimates.dlight))
        lines = []
        for u, v in keys:
            s = scale_of(self.space.distance(u, v))
            a = self.estimates.dstar.get((u, v))
            b = self.estimates.dlight.get((u, v))
            sa = repr(a.value) if a else "-"
            sb = repr(b.value) if b else "-"
            lines.append(f"{u} {v} {s} {sa} {sb}")
        return "\n".join(lines)
