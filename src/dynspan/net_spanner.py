"""Spanner graph over a net hierarchy, kept in sync with its changesets.

Two points u, v are joined by an edge when some level i of the hierarchy
contains both and their distance is at most ``c * 2**i`` with
``c = 4 + 16 / eps``.  The edges are a plain set, held as flat columns of
endpoints, weights and an ``out`` flag: each edge's weight is measured
once, when it joins, and every later reader takes the stored value.  The
flag marks the edges a pruning of the pool keeps (``DynamicLightSpanner``'s
output), so that output lives here and nowhere else: a new edge joins
unflagged, and the flag leaves with its edge.  ``snapshot`` hands an update
the edges among the points it has measured, as arrays with their column
indices, so that the update can pick each scale's edges with masks and
write its verdicts back into the flags.

The hierarchy never removes a surviving point from a level: an insert only
adds the new point, and a delete removes only the deleted point, from every
level, then promotes others.  So an edge can leave the set only when one of
its endpoints is deleted.  ``sync`` relies on this and checks it: a removal
event drops every edge of its point, and is refused while the point is still
active.  An addition event adds the pairs its point forms at that level,
found with one ball query against the hierarchy's final state.  Every
distance here is read through ``NetHierarchy.distance``, so the ball
queries, the new weights and the ``AllPairs`` row of an update's own point
all read the one row the hierarchy measured for it.

``AllPairs`` stands for the pool holding every active pair, as one table
of their distances kept across updates, with the fast path's estimate
tables aligned to it, and ``Neighbourhood`` is that table seen from one
point, with its pairs as one frame of row-major arrays: the fast update
path builds one per update and reads every scale's pairs and sketches
from it.  ``PairTable`` reads an aligned table as a mapping keyed by
id pair.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator, Mapping

import numpy as np

from .metric import scale_of
from .net_tree import Change, NetHierarchy

Edge = tuple[int, int]


def _pair(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class NetSpanner:
    """Edge set over hierarchy levels, kept in sync with membership events.

    The edges are four flat columns in no fixed order: edge k joins
    ``u[k] < v[k]``, weighs ``w[k] == space.distance(u[k], v[k])``,
    measured once, when the edge joined, and is in the output when
    ``out[k]``.
    """

    def __init__(self, hierarchy: NetHierarchy, eps: float):
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        self.hierarchy = hierarchy
        self.eps = eps
        self.c = 4.0 + 16.0 / eps
        self.u = np.empty(0, dtype=np.int64)
        self.v = np.empty(0, dtype=np.int64)
        self.w = np.empty(0)
        self.out = np.empty(0, dtype=bool)

    # -- synchronisation ------------------------------------------------

    def sync(self, changeset: list[Change]) -> tuple[list[Edge], list[Edge]]:
        """Replay hierarchy membership events, return (added, removed) edges.

        Must be called after the hierarchy mutation that produced the
        changeset, before any further mutation.  Raises ``ValueError``,
        changing nothing, if a removal event names an active point.  The
        removed points' edges leave first, then the new edges of all
        addition events join the columns at once, at their end.
        """
        hier = self.hierarchy
        dist = hier.distance
        for level, pid, was_added in changeset:
            if not was_added and pid in hier.levels[0]:
                raise ValueError(f"point {pid} left level {level} but is still active")
        # an addition's ball never returns a removed point, since removed
        # points are inactive in the final state, so removals can go first
        removed: list[Edge] = []
        gone = self._touching({pid for _, pid, was_added in changeset if not was_added})
        if gone.any():
            removed += zip(self.u[gone].tolist(), self.v[gone].tolist())
            keep = ~gone
            self.u, self.v, self.w, self.out = self.u[keep], self.v[keep], self.w[keep], self.out[keep]
        # each joining point's partners: the other ends of its edges, then
        # of the edges this sync adds
        known: dict[int, set[int]] = {pid: {pid} for _, pid, was_added in changeset if was_added}
        mine = self._touching(known)
        for u, v in zip(self.u[mine].tolist(), self.v[mine].tolist()):
            if u in known:
                known[u].add(v)
            if v in known:
                known[v].add(u)
        added: list[Edge] = []
        for level, pid, was_added in changeset:
            if not was_added:
                continue
            for y in hier.ball(level, pid, self.c * float(1 << level)):
                if y not in known[pid]:
                    known[pid].add(y)
                    if y in known:
                        known[y].add(pid)
                    added.append(_pair(pid, y))
        if added:
            # the new edges join at the end, with one copy per column
            self.u = np.concatenate([self.u, [u for u, _ in added]])
            self.v = np.concatenate([self.v, [v for _, v in added]])
            self.w = np.concatenate([self.w, [dist(u, v) for u, v in added]])
            self.out = np.concatenate([self.out, np.zeros(len(added), dtype=bool)])
        return (sorted(added), sorted(removed))

    def _touching(self, points) -> np.ndarray:
        """Mask over the columns: the edge has an endpoint in ``points``."""
        mask = np.zeros(len(self.u), dtype=bool)
        for pid in points:
            mask |= (self.u == pid) | (self.v == pid)
        return mask

    def rebuild(self) -> None:
        """Recompute the edge set from scratch, with no edge in the output
        (testing aid)."""
        self.u, self.v, self.w, self.out = self.u[:0], self.v[:0], self.w[:0], self.out[:0]
        self.sync([
            (level, pid, True)
            for level, members in enumerate(self.hierarchy.levels)
            for pid in members
        ])

    # -- queries ---------------------------------------------------------

    def _weighted(self) -> list[tuple[int, int, float]]:
        """Every edge as ``(u, v, weight)``, sorted."""
        order = np.lexsort((self.v, self.u))
        return list(zip(self.u[order].tolist(), self.v[order].tolist(), self.w[order].tolist()))

    def edges(self) -> list[Edge]:
        return [(u, v) for u, v, _ in self._weighted()]

    def edge_count(self) -> int:
        return len(self.u)

    def total_weight(self) -> float:
        return sum(w for _, _, w in self._weighted())

    def output(self, pid: int | None = None) -> list[Edge]:
        """The output edges, or only those of point ``pid``, sorted."""
        mask = self.out if pid is None else self.out & ((self.u == pid) | (self.v == pid))
        return sorted(zip(self.u[mask].tolist(), self.v[mask].tolist()))

    def max_degree(self) -> int:
        if not len(self.u):
            return 0
        return int(np.unique(np.concatenate([self.u, self.v]), return_counts=True)[1].max())

    def snapshot(
        self, pos: dict[int, int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray], np.ndarray]:
        """Every edge with both endpoints in ``pos`` (point id -> position),
        in no fixed order: the positions ``a`` of u and ``b`` of v, the
        weights, the edges themselves as id arrays ``(u, v)``, u < v, and
        their column indices ``keep``, so that ``out[keep]`` flags the
        output edges among them."""
        if not pos:
            none = np.empty(0, dtype=np.intp)
            return none, none, self.w[:0], (self.u[:0], self.v[:0]), none
        # pos as parallel arrays sorted by id, looked up by binary search
        ids = np.fromiter(pos, dtype=np.int64, count=len(pos))
        at = np.fromiter(pos.values(), dtype=np.intp, count=len(pos))
        by_id = np.argsort(ids)
        ids, at = ids[by_id], at[by_id]
        ku = np.minimum(np.searchsorted(ids, self.u), len(ids) - 1)
        kv = np.minimum(np.searchsorted(ids, self.v), len(ids) - 1)
        keep = np.flatnonzero((ids[ku] == self.u) & (ids[kv] == self.v))
        return at[ku[keep]], at[kv[keep]], self.w[keep], (self.u[keep], self.v[keep]), keep

    def edges_at_scale_in_ball(self, ascale: int, center: int, r: float) -> list[Edge]:
        """All edges of scale ``ascale`` with both endpoints within r of center."""
        inside = self.hierarchy.ball(0, center, r)
        _, _, weights, (u, v), _ = self.snapshot({pid: k for k, pid in enumerate(inside)})
        # frexp's exponent is scale_of, bit for bit
        keep = np.frexp(weights)[1] == ascale
        return sorted(zip(u[keep].tolist(), v[keep].tolist()))

    def dump(self) -> str:
        """One line per edge, ``u v length scale``, sorted by endpoints."""
        return "\n".join(f"{u} {v} {w!r} {scale_of(w)}" for u, v, w in self._weighted())


class Neighbourhood:
    """The pool's distance table seen from one center, and its pair frame.

    ``ids``, ``pos`` and ``dist`` are the ``AllPairs`` table's own, so no
    pair is measured here; ``to_center[k]`` is
    ``space.distance(center, ids[k])``, read through the hierarchy's
    ``distance``, so an update's own point is measured at most once.

    The frame is every pair of positions a < b once, in row-major order, so
    in sorted (u, v) order: ``first[f]``, ``second[f]`` and their distance
    ``pair_dist[f]``.  A reader selects pairs with one mask over the frame,
    and selects points with masks over the positions, such as
    ``in_level(i)``, built at most once per view for each level.
    """

    def __init__(self, pool: AllPairs, center: int):
        hier = pool.hierarchy
        dist = hier.distance
        self.levels = hier.levels
        self.ids, self.pos, self.dist = pool.ids, pool.pos, pool.dist
        self.to_center = np.array([dist(center, y) for y in self.ids], dtype=float)
        self.first, self.second = np.triu_indices(len(self.ids), 1)
        self.pair_dist = self.dist[self.first, self.second]
        # frexp's exponent is scale_of, bit for bit
        self._pair_scale = np.frexp(self.pair_dist)[1]
        self._pair_reach = np.maximum(self.to_center[self.first], self.to_center[self.second])
        self._at_scale: dict[int, np.ndarray] = {}
        self._in_level: dict[int, np.ndarray] = {}

    def pairs(self, ascale: int, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Positions (a, b), a < b, of the pairs of scale ``ascale`` with
        both points within r of the center, in sorted order."""
        at = self._at_scale.get(ascale)
        if at is None:
            at = self._at_scale[ascale] = np.flatnonzero(self._pair_scale == ascale)
        keep = at[self._pair_reach[at] <= r]
        return self.first[keep], self.second[keep]

    def in_level(self, level: int) -> np.ndarray:
        """Mask over the positions: ``ids[k]`` is in hierarchy level ``level``."""
        mask = self._in_level.get(level)
        if mask is None:
            members = self.levels[level]
            mask = self._in_level[level] = np.fromiter(
                (y in members for y in self.ids), dtype=bool, count=len(self.ids)
            )
        return mask

    def edges(self, first: np.ndarray, second: np.ndarray) -> list[Edge]:
        ids = self.ids
        return [(ids[a], ids[b]) for a, b in zip(first.tolist(), second.tolist())]


def _resized(table: np.ndarray, k: int, grow: bool) -> np.ndarray:
    """A copy of the square ``table`` with row and column k inserted (left
    unset) or deleted, made as one allocation and four slice copies."""
    n = len(table) + (1 if grow else -1)
    # the rows and columns past k move down by one on insert, up on delete
    src, dst = (k, k + 1) if grow else (k + 1, k)
    out = np.empty((n, n))
    out[:k, :k] = table[:k, :k]
    out[:k, dst:] = table[:k, src:]
    out[dst:, :k] = table[src:, :k]
    out[dst:, dst:] = table[src:, src:]
    return out


class AllPairs:
    """Every pair of active points, as one distance table kept across updates.

    ``ids`` is the sorted active set, ``pos`` maps each id to its index, and
    ``dist[a, b] == dist[b, a]`` is ``space.distance(ids[a], ids[b])`` for
    a < b, measured once, when the later point joined (read from its row
    in the hierarchy).  A ``NetSpanner`` with ``c >= phi`` holds exactly
    these pairs, since level 0 is the whole active set and every active
    pair is closer than phi.  Only the fast update path calls ``sync``;
    ``edge_count`` counts the active pairs.

    ``dstar`` and ``dlight`` are the fast path's estimate tables, symmetric
    and aligned with ``dist``: NaN marks a pair with no estimate written
    since its later point joined, and the diagonal.  ``sync`` gives a new
    point a NaN row and column, and drops a deleted point's with it.
    """

    def __init__(self, hierarchy: NetHierarchy):
        self.hierarchy = hierarchy
        self.ids: list[int] = []
        self.pos: dict[int, int] = {}
        self.dist = np.zeros((0, 0))
        self.dstar = np.zeros((0, 0))
        self.dlight = np.zeros((0, 0))

    def sync(self, changeset: list[Change]) -> tuple[list[Edge], list[Edge]]:
        """Add a measured row for each point that joined level 0 and drop the
        row of each point that left; return the pairs gained and lost."""
        dist = self.hierarchy.distance
        added: list[Edge] = []
        removed: list[Edge] = []
        for level, pid, was_added in changeset:
            if level != 0:
                continue
            ids = self.ids
            k = bisect_left(ids, pid) if was_added else self.pos[pid]
            self.dist, self.dstar, self.dlight = (
                _resized(table, k, was_added) for table in (self.dist, self.dstar, self.dlight)
            )
            if was_added:
                row = np.insert([dist(*_pair(pid, y)) for y in ids], k, 0.0)
                for table, fill in ((self.dist, row), (self.dstar, np.nan), (self.dlight, np.nan)):
                    table[k] = table[:, k] = fill
                self.ids = ids[:k] + [pid] + ids[k:]
                added += [_pair(pid, y) for y in ids]
            else:
                self.ids = ids[:k] + ids[k + 1:]
                removed += [_pair(pid, y) for y in self.ids]
            self.pos = {y: j for j, y in enumerate(self.ids)}
        return (sorted(added), sorted(removed))

    def edge_count(self) -> int:
        n = len(self.hierarchy.levels[0])
        return n * (n - 1) // 2

    def edges_at_scale_in_ball(self, ascale: int, center: int, r: float) -> list[Edge]:
        """All active pairs of scale ``ascale`` with both endpoints within r of center."""
        view = Neighbourhood(self, center)
        return view.edges(*view.pairs(ascale, r))


class PairTable(Mapping):
    """Read-only mapping ``(u, v) -> value``, u < v, over one of the tables
    of an ``AllPairs`` (named ``name``) that marks unset pairs with NaN; it
    holds the set pairs, and reads the pool's current table on each call."""

    def __init__(self, pool: AllPairs, name: str):
        self.pool = pool
        self.name = name

    def __getitem__(self, pair: Edge) -> float:
        u, v = pair
        pos = self.pool.pos
        if u < v and u in pos and v in pos:
            value = float(getattr(self.pool, self.name)[pos[u], pos[v]])
            if not math.isnan(value):
                return value
        raise KeyError(pair)

    def __iter__(self) -> Iterator[Edge]:
        ids = self.pool.ids
        # row-major over the upper triangle, so in sorted (u, v) order
        first, second = np.nonzero(np.triu(~np.isnan(getattr(self.pool, self.name)), 1))
        return ((ids[a], ids[b]) for a, b in zip(first.tolist(), second.tolist()))

    def __len__(self) -> int:
        # symmetric, with a NaN diagonal: each set pair is counted twice
        return int(np.count_nonzero(~np.isnan(getattr(self.pool, self.name)))) // 2
