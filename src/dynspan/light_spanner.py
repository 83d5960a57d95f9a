"""Dynamic low-stretch, low-weight spanner over a changing point set.

The maintained graph is a lazily pruned subset of a net-derived candidate
edge pool, held as that pool's ``out`` flags (``NetSpanner.out``) and
nowhere else.  A candidate edge joins the output when the graph built from
strictly shorter output edges fails to connect its endpoints within
stretch 1+eps; it is dropped again when that path reappears.  Pruning
decisions are only revisited near an updated point, which keeps per-update
work local while a slack band between the join threshold (1+eps) and the
guaranteed separation (1+eps/3) absorbs the drift in between.  An update
decides each pool pair at most once, so the flags it flips, and the output
edges a delete takes away with its pool edges, are the update's report.

Two update strategies share all bookkeeping.  Each reads the updated
point's distances from the hierarchy's row (``NetHierarchy.distance``),
where each is measured once per update:

* ``exact`` reads the updated point's distance to every active point off
  that row and takes one snapshot of the candidate pool per update, as
  arrays of stored weights and of the edges' columns in the pool.  Each
  scale picks its revisited edges and the output edges below it with masks
  over that snapshot, and settles the revisited edges with one batched
  Dijkstra search over those output edges, among the points within the
  scale's reach of the updated point, truncated at ``1+eps`` times the
  longest revisited edge.  Nothing is memoised between updates.
* ``fast`` replaces the Dijkstra runs with cached coarse distance
  estimates read off small sketch graphs, refreshed only near the
  updated point.  Estimates are kept for the pairs of a net spanner
  built with a much smaller eps (``eps_small``); fast mode accepts only
  phi at which that spanner holds every active pair, so that pool is one
  table of the active pairs' distances (``AllPairs``), each pair measured
  once, when its later point joins.  Each update reads only each active
  point's distance to the updated one (a ``Neighbourhood``), and every
  scale reads its refreshed pairs and its sketch's vertices and distances
  from that one view.  The view holds the update's pair frame, every pair
  of its points once in row-major order with its distance, and a mask
  over its points for each net level a sketch reads, built once per
  update.  The pool edges to decide come, as in exact mode, from one
  snapshot of the candidate pool over the view's points, masked per
  scale.  A sketch picks its vertices with one mask over the view's
  points, its low band with one mask over the frame, and its middle band
  (output edges) with one mask over the snapshot.  An estimate is a plain
  float, since its pair's scale fixes its approximation factor.  The two
  estimate tables (``AllPairs.dstar`` and ``AllPairs.dlight``) are
  symmetric arrays aligned with the distance table, NaN where no estimate
  was written: a refresh stores with two fancy-index writes and
  reselection reads with one gather.

Both modes search CSR graphs built by one helper (``_symmetric_csr``): both
directions of each edge, each row sorted by head, searched as a directed
graph.

Inserts are refused by the hierarchy, before any structure changes,
unless the new point is at distance in [1, phi) from every active point;
the point then leaves the space again, and its id stays used.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csgraph, csr_matrix
# the fast path's sketch searches; bench/tracing.py wraps this name, and the
# exact path calls csgraph.dijkstra so that its searches are not counted here
from scipy.sparse.csgraph import dijkstra as sparse_dijkstra

from .metric import distance_matrix, scale_of
from .net_spanner import AllPairs, Neighbourhood, NetSpanner, PairTable
from .net_tree import Change, NetHierarchy

Edge = tuple[int, int]
INF = math.inf

# headroom factor between the two candidate pools; the auxiliary pool's
# eps is the output eps divided by 3 * KAPPA * log2(phi)
KAPPA = 342


def _symmetric_csr(
    first: np.ndarray, second: np.ndarray, weights: np.ndarray, n: int
) -> csr_matrix:
    """The graph on vertices 0..n-1 with an edge of weight ``weights[k]``
    between ``first[k]`` and ``second[k]``, as a CSR matrix that holds both
    directions of each edge, each row sorted by head, to be searched as a
    directed graph.  The indices are 32-bit, scipy's own index type, so
    neither the constructor nor the search converts them."""
    tails = np.concatenate([first, second])
    heads = np.concatenate([second, first])
    order = np.argsort(tails * n + heads)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    data = np.concatenate([weights, weights])[order]
    return csr_matrix((data, heads[order].astype(np.int32), indptr), shape=(n, n))


class Estimates(NamedTuple):
    """Read-only views of the cached coarse distances, keyed by pair.

    ``dstar`` approximates the distance over output edges strictly below
    the pair's own scale; ``dlight`` approximates the plain distance over
    all output edges and is refreshed two scale iterations after the
    pair's own scale.  An entry written at scale iteration i is within
    the factor ``1 + KAPPA * i * eps_small`` of its target.  The values
    live in the dense pool's tables of the same names."""

    dstar: PairTable
    dlight: PairTable


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
    examined: int
    """Pool pairs whose verdict the update computed, over all scales."""
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
        self.counters: dict[str, int] = {"ball_queries": 0, "relaxations": 0, "examined": 0}
        self.hierarchy = NetHierarchy(space, counters=self.counters)
        # base pool: candidates for the output, which its out flags mark;
        # dense pool: the distance table of the pairs that carry cached
        # estimates, and the estimate tables aligned with it, kept only in
        # fast mode
        self.base = NetSpanner(self.hierarchy, self.eps)
        self.dense = AllPairs(self.hierarchy)
        self.estimates = Estimates(PairTable(self.dense, "dstar"), PairTable(self.dense, "dlight"))

    # -- updates -----------------------------------------------------------

    def insert(self, pid: int, coords) -> UpdateReport:
        t0 = time.perf_counter_ns()
        before = dict(self.counters)
        if not -(1 << 63) <= pid < 1 << 63:
            # the candidate pool holds its endpoints in 64-bit columns
            raise ValueError(f"point id {pid} does not fit in 64 bits")
        self.space.add_point(pid, coords)
        try:
            changes = self.hierarchy.insert(pid)
        except ValueError:
            # the hierarchy refused the point before changing anything
            self.space.remove_point(pid)
            raise
        return self._sync_and_reselect("insert", pid, changes, t0, before)

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
        # a delete's output edges leave with its pool edges; every other
        # flip is one pair's verdict, and a pair is decided at most once
        added: list[Edge] = []
        removed = self.base.output(pid)
        base_added, _ = self.base.sync(changes)
        if self.mode == "fast":
            dense_added, _ = self.dense.sync(changes)
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
            examined=self.counters["examined"] - before["examined"],
            net_changes=changes,
        )

    # -- exact strategy ----------------------------------------------------

    def _reselect_exact(self, x: int, added: list[Edge], removed: list[Edge]) -> None:
        one = 1.0 + self.eps
        dist = self.hierarchy.distance
        # Every active point, nearest first.  Each scale searches the prefix
        # within its reach, which is the ball of that radius around x.  Under
        # the [1, phi) input rule every active point lies within phi = 2**top
        # of x, so whenever the top scale has pairs to decide, its reach (at
        # least 4 * 2**top) takes in every point measured here.
        near = sorted((dist(x, y), y) for y in self.hierarchy.levels[0])
        d_x = np.array([d for d, _ in near], dtype=float)
        snap = a, b, weights, _, keep = self.base.snapshot({y: k for k, (_, y) in enumerate(near)})
        scale = np.frexp(weights)[1]  # scale_of, bit for bit
        reach = np.maximum(d_x[a], d_x[b])
        for i in range(self.top + 1):
            pairs = np.flatnonzero((scale == i) & (reach <= 4.0 * (1 << i)))
            if not len(pairs):
                continue
            self.counters["examined"] += len(pairs)
            limit = one * weights[pairs].max()
            # a path of length at most limit from a source within 4 * 2**i of
            # x stays within 4 * 2**i + limit of x, so a search truncated at
            # limit needs no point farther out; the relative slack absorbs
            # rounding in the triangle inequality
            k = int(np.searchsorted(d_x, (4.0 * (1 << i) + limit) * (1.0 + 1e-9), side="right"))
            # the output edges of lower scales among the first k points, with
            # the verdicts of this update's lower scales already applied, as
            # a CSR graph that holds both directions of each edge
            below = np.flatnonzero(self.base.out[keep] & (scale < i) & (a < k) & (b < k))
            graph = _symmetric_csr(a[below], b[below], weights[below], k)
            # each pair is searched from its smaller endpoint u, always the
            # same one: rounded path sums can depend on the direction
            sources = np.unique(a[pairs])
            rows = csgraph.dijkstra(graph, directed=True, indices=sources, limit=limit)
            self.counters["relaxations"] += int(np.count_nonzero(np.isfinite(rows)))
            found = rows[np.searchsorted(sources, a[pairs]), b[pairs]]
            self._settle(snap, pairs, found <= one * weights[pairs], added, removed)

    def _settle(
        self,
        snap: tuple,
        pairs: np.ndarray,
        covered: np.ndarray,
        added: list[Edge],
        removed: list[Edge],
    ) -> None:
        """Write the verdicts ``covered`` on the snapshot's edges ``pairs``
        into the output flags, and list each edge that flips."""
        _, _, _, (u, v), keep = snap
        out = self.base.out
        # a covered edge is kept, or the reverse: the verdict is the flag
        flip = covered == out[keep[pairs]]
        out[keep[pairs[flip]]] = ~covered[flip]
        for flipped, into in ((flip & covered, removed), (flip & ~covered, added)):
            into += zip(u[pairs[flipped]].tolist(), v[pairs[flipped]].tolist())

    # -- fast strategy -------------------------------------------------------

    def _view(self, x: int) -> Neighbourhood:
        """The dense pool's table seen from x.  It holds every active point,
        which under the [1, phi) rule is every point within 8 * 2**top of
        x, the largest radius that any scale of an update around x reads."""
        return Neighbourhood(self.dense, x)

    def _reselect_fast(self, view: Neighbourhood, added: list[Edge], removed: list[Edge]) -> None:
        one = 1.0 + self.eps
        snap = a, b, weights, (u, v), _ = self.base.snapshot(view.pos)
        scale = np.frexp(weights)[1]  # scale_of, bit for bit
        reach = np.maximum(view.to_center[a], view.to_center[b])
        for i in range(self.top + 1):
            # the sketches read the output flags, which _settle has already
            # set for the verdicts of the lower scales
            self._update_estimates(view, i, snap)
            pairs = np.flatnonzero((scale == i) & (reach <= 8.0 * (1 << i)))
            if not len(pairs):
                continue
            self.counters["examined"] += len(pairs)
            found = self.dense.dstar[a[pairs], b[pairs]]
            missing = np.flatnonzero(np.isnan(found))
            if len(missing):
                k = pairs[missing[0]]
                raise RuntimeError(f"missing separation estimate for pair {(int(u[k]), int(v[k]))}")
            self._settle(snap, pairs, found <= one * weights[pairs], added, removed)

    def _update_estimates(self, view: Neighbourhood, i: int, snap: tuple) -> None:
        """Refresh cached estimates for pairs near the view's center at scale
        iteration i; ``snap`` is ``base.snapshot(view.pos)``."""
        radius = 4.0 * (1 << i)
        none = (np.empty(0, dtype=np.intp),) * 2
        pairs_dl = view.pairs(i - 2, radius) if i >= 2 else none
        pairs_ds = view.pairs(i, radius)
        if not len(pairs_dl[0]) and not len(pairs_ds[0]):
            return
        members, graph = self._build_sketch(view, i, snap)
        # masks over the view's positions, and each position's sketch vertex
        # and Dijkstra row where the mask holds
        member = np.zeros(len(view.ids), dtype=bool)
        member[members] = True
        source = np.zeros(len(view.ids), dtype=bool)
        source[pairs_dl[0]] = source[pairs_ds[0]] = True
        source &= member
        vertex, row = np.cumsum(member) - 1, np.cumsum(source) - 1
        sources = np.flatnonzero(source)
        mat = (
            sparse_dijkstra(graph, directed=True, indices=vertex[sources])
            if len(sources)
            else np.empty((0, len(members)))
        )

        def store(table: np.ndarray, first: np.ndarray, second: np.ndarray) -> None:
            ok = source[first] & member[second]
            values = np.full(len(first), INF)
            values[ok] = mat[row[first[ok]], vertex[second[ok]]]
            table[first, second] = table[second, first] = values

        store(self.dense.dlight, *pairs_dl)
        store(self.dense.dstar, *pairs_ds)

    def _build_sketch(
        self, view: Neighbourhood, at_scale: int, snap: tuple
    ) -> tuple[np.ndarray, csr_matrix]:
        """Small graph whose distances coarsely track output-graph distances.

        Vertices are the points of net level ``iprime`` within
        ``7 * 2**at_scale`` of the view's center, returned as view positions
        in ascending order: one mask over the positions, from the view's
        mask of that level.  Pairs in the middle distance band contribute an
        edge exactly when they are in the output, read from the output flags
        of ``snap`` (``base.snapshot(view.pos)``) with one mask over it;
        pairs in the low band always contribute an edge, weighted by their
        cached output-graph distance, picked with one mask over the view's
        pair frame.  The graph is a symmetric CSR matrix that holds both
        directions of each edge, in sorted column order per row.
        """
        iprime = max(0, scale_of(self.eps_small * float(1 << at_scale)) - 1)
        member = view.in_level(iprime) & (view.to_center <= 7.0 * (1 << at_scale))
        members = np.flatnonzero(member)
        vertex = np.cumsum(member) - 1  # view position -> sketch vertex
        # middle band: the output edges among the vertices
        a, b, weights, _, keep = snap
        mid = np.flatnonzero(
            self.base.out[keep]
            & member[a]
            & member[b]
            & (2.0 ** (at_scale - 3) <= weights)
            & (weights < 2.0 ** (at_scale - 1))
        )
        # low band: every pair, weighted by its output-distance estimate;
        # the bands are disjoint by distance, so no pair gives two entries
        low = np.flatnonzero(view.pair_dist < 2.0 ** (at_scale - 3))
        low = low[member[view.first[low]] & member[view.second[low]]]
        first, second = view.first[low], view.second[low]
        w2 = self.dense.dlight[first, second]
        missing = np.flatnonzero(np.isnan(w2))
        if len(missing):
            k = missing[0]
            pair = (view.ids[first[k]], view.ids[second[k]])
            raise RuntimeError(f"missing output-distance estimate for pair {pair}")
        fin = ~np.isinf(w2)
        graph = _symmetric_csr(
            np.concatenate([vertex[a[mid]], vertex[first[fin]]]),
            np.concatenate([vertex[b[mid]], vertex[second[fin]]]),
            np.concatenate([weights[mid], w2[fin]]),
            len(members),
        )
        return members, graph

    def estimate(self, u: int, v: int, at_scale: int, center: int) -> float:
        """Coarse distance between u and v read off one sketch graph; fast
        mode only, since exact mode keeps no estimates to build it from."""
        if self.mode != "fast":
            raise ValueError("estimate needs mode='fast'")
        view = self._view(center)
        members, graph = self._build_sketch(view, at_scale, self.base.snapshot(view.pos))
        vertex = {view.ids[k]: j for j, k in enumerate(members.tolist())}
        if u not in vertex or v not in vertex:
            return INF
        row = sparse_dijkstra(graph, directed=True, indices=[vertex[u]])[0]
        return float(row[vertex[v]])

    def _check_fresh_entries(
        self, view: Neighbourhood, base_added: list[Edge], dense_added: list[Edge]
    ) -> None:
        """Raise unless every pair that joined a pool got its estimates; the
        dense pool's new pairs are all in the update's view."""
        dense = self.dense
        for kind, pairs in (("pool", base_added), ("dense", dense_added)):
            if not pairs:
                continue
            a, b = np.array([(view.pos[u], view.pos[v]) for u, v in pairs]).T
            # a dense pair's dlight entry is written two scales above its own
            due = (kind == "dense") & (np.frexp(dense.dist[a, b])[1] <= self.top - 2)
            for what, unset in (
                ("separation", np.isnan(dense.dstar[a, b])),
                ("distance", due & np.isnan(dense.dlight[a, b])),
            ):
                if unset.any():
                    raise RuntimeError(f"{kind} edge {pairs[int(np.argmax(unset))]} has no {what} estimate")

    # -- queries ---------------------------------------------------------------

    def light_edges(self) -> list[Edge]:
        return self.base.output()

    def base_edges(self) -> list[Edge]:
        return self.base.edges()

    def edge_count(self) -> int:
        return int(np.count_nonzero(self.base.out))

    def total_weight(self) -> float:
        """The output's stored weights, summed exactly rounded, so in no
        particular order."""
        return math.fsum(self.base.w[self.base.out].tolist())

    def lightness(self) -> float:
        """Output weight over minimum spanning tree weight of the active set."""
        ids = sorted(self.space.active)
        if len(ids) < 2:
            raise ValueError("lightness needs at least two active points")
        if not self.base.out.any():
            raise ValueError("output spanner has no edges")
        mst = csgraph.minimum_spanning_tree(distance_matrix(self.space, ids))
        return self.total_weight() / float(mst.sum())

    def dump_estimates(self) -> str:
        """One line per cached pair, ``u v scale dstar dlight``, sorted."""
        keys = sorted(set(self.estimates.dstar) | set(self.estimates.dlight))
        lines = []
        for u, v in keys:
            s = scale_of(self.space.distance(u, v))
            a = self.estimates.dstar.get((u, v))
            b = self.estimates.dlight.get((u, v))
            sa = "-" if a is None else repr(a)
            sb = "-" if b is None else repr(b)
            lines.append(f"{u} {v} {s} {sa} {sb}")
        return "\n".join(lines)
