"""Spanner graph over a net hierarchy, kept in sync with its changesets.

Two points u, v are joined by an edge when some level i of the hierarchy
contains both and their distance is at most ``c * 2**i`` with
``c = 4 + 16 / eps``.  The edges are a plain set, held as a partner index
by length scale.

The hierarchy never removes a surviving point from a level: an insert only
adds the new point, and a delete removes only the deleted point, from every
level, then promotes others.  So an edge can leave the set only when one of
its endpoints is deleted.  ``sync`` relies on this and checks it: a removal
event drops every edge of its point, and is refused while the point is still
active.  An addition event adds the pairs its point forms at that level,
found with one ball query against the hierarchy's final state.

``AllPairs`` stands for the pool holding every active pair, and
``Neighbourhood`` is its measured form around one point: the fast update
path builds one per update and reads every scale's pairs from it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .metric import distance_matrix, scale_of
from .net_tree import Change, NetHierarchy

Edge = tuple[int, int]


def _pair(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class NetSpanner:
    """Edge set over hierarchy levels, kept in sync with membership events.

    A per-(scale, point) partner index holds the edges, so all edges of a
    given length scale inside a metric ball can be enumerated without
    touching the rest of the graph.
    """

    def __init__(self, hierarchy: NetHierarchy, eps: float):
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        self.hierarchy = hierarchy
        self.eps = eps
        self.c = 4.0 + 16.0 / eps
        # scale -> point -> partners
        self.by_scale: dict[int, dict[int, set[int]]] = {}

    # -- synchronisation ------------------------------------------------

    def sync(self, changeset: list[Change]) -> tuple[list[Edge], list[Edge]]:
        """Replay hierarchy membership events, return (added, removed) edges.

        Must be called after the hierarchy mutation that produced the
        changeset, before any further mutation.  Raises ``ValueError``,
        changing nothing, if a removal event names an active point.
        """
        hier = self.hierarchy
        for level, pid, was_added in changeset:
            if not was_added and pid in hier.levels[0]:
                raise ValueError(f"point {pid} left level {level} but is still active")
        added: list[Edge] = []
        removed: list[Edge] = []
        for level, pid, was_added in changeset:
            if was_added:
                known = {pid}.union(*(pp.get(pid, ()) for pp in self.by_scale.values()))
                for y in hier.ball(level, pid, self.c * float(1 << level)):
                    if y not in known:
                        known.add(y)
                        per_point = self.by_scale.setdefault(self.edge_scale(pid, y), {})
                        per_point.setdefault(pid, set()).add(y)
                        per_point.setdefault(y, set()).add(pid)
                        added.append(_pair(pid, y))
            else:
                for s in list(self.by_scale):
                    per_point = self.by_scale[s]
                    for y in per_point.pop(pid, ()):
                        per_point[y].discard(pid)
                        if not per_point[y]:
                            del per_point[y]
                        removed.append(_pair(pid, y))
                    if not per_point:
                        del self.by_scale[s]
        return (sorted(added), sorted(removed))

    def rebuild(self) -> None:
        """Recompute the edge set from scratch (testing aid)."""
        self.by_scale.clear()
        self.sync([
            (level, pid, True)
            for level, members in enumerate(self.hierarchy.levels)
            for pid in members
        ])

    # -- queries ---------------------------------------------------------

    def contains(self, u: int, v: int) -> bool:
        return any(v in per_point.get(u, ()) for per_point in self.by_scale.values())

    def edge_scale(self, u: int, v: int) -> int:
        return scale_of(self.hierarchy.space.distance(u, v))

    def edges(self) -> list[Edge]:
        return sorted(
            (u, v)
            for per_point in self.by_scale.values()
            for u, partners in per_point.items()
            for v in partners
            if u < v
        )

    def edge_count(self) -> int:
        return sum(
            len(partners) for per_point in self.by_scale.values() for partners in per_point.values()
        ) // 2

    def total_weight(self) -> float:
        dist = self.hierarchy.space.distance
        return sum(dist(u, v) for u, v in self.edges())

    def max_degree(self) -> int:
        deg: dict[int, int] = {}
        for per_point in self.by_scale.values():
            for u, partners in per_point.items():
                deg[u] = deg.get(u, 0) + len(partners)
        return max(deg.values(), default=0)

    def edges_at_scale_in_ball(self, ascale: int, center: int, r: float) -> list[Edge]:
        """All edges of scale ``ascale`` with both endpoints within r of center.

        Every edge of scale i is formed at some level >= i - scale_of(c),
        so by nesting both endpoints appear in that level's net; one ball
        query there plus the partner index covers all candidates.
        """
        per_point = self.by_scale.get(ascale)
        if not per_point:
            return []
        lmin = max(0, ascale - scale_of(self.c))
        inside = set(self.hierarchy.ball(lmin, center, r))
        out: list[Edge] = []
        for u in inside:
            partners = per_point.get(u)
            if not partners:
                continue
            for v in partners:
                if u < v and v in inside:
                    out.append((u, v))
        out.sort()
        return out

    def dump(self) -> str:
        """One line per edge, ``u v length scale``, sorted by endpoints."""
        dist = self.hierarchy.space.distance
        lines = []
        for u, v in self.edges():
            d = dist(u, v)
            lines.append(f"{u} {v} {d!r} {scale_of(d)}")
        return "\n".join(lines)


class Neighbourhood:
    """The active points within r of a center, each distance among them
    measured once.

    ``ids`` is sorted, and position k of every array stands for ``ids[k]``.
    ``to_center[k]`` is ``space.distance(center, ids[k])``, and
    ``dist[a, b] == dist[b, a]`` is ``space.distance(ids[a], ids[b])`` for
    a < b, so weights and scales read here equal those measured pair by pair.
    """

    def __init__(self, hierarchy: NetHierarchy, center: int, r: float):
        self.space = space = hierarchy.space
        dist = space.distance
        self.center = center
        self.ids = ids = sorted(hierarchy.ball(0, center, r))
        self.pos = {pid: k for k, pid in enumerate(ids)}
        self.to_center = np.array([dist(center, y) for y in ids], dtype=float)
        # every pair a < b once, in row-major order, so in sorted (u, v) order
        first, second = np.triu_indices(len(ids), 1)
        measured = np.array(
            [dist(ids[a], ids[b]) for a, b in zip(first.tolist(), second.tolist())], dtype=float
        )
        self.dist = np.zeros((len(ids), len(ids)))
        self.dist[first, second] = measured
        self.dist[second, first] = measured
        self._first, self._second = first, second
        # frexp's exponent is scale_of, bit for bit
        self._pair_scale = np.frexp(measured)[1]
        self._pair_reach = np.maximum(self.to_center[first], self.to_center[second])

    @cached_property
    def matrix(self) -> np.ndarray:
        """``distance_matrix`` of ``ids``, which may differ from ``dist`` in
        the last bit."""
        return distance_matrix(self.space, self.ids)

    def scale(self, u: int, v: int) -> int:
        return scale_of(float(self.dist[self.pos[u], self.pos[v]]))

    def pairs(self, ascale: int, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Positions (a, b), a < b, of the pairs of scale ``ascale`` with
        both points within r of the center, in sorted order."""
        keep = np.flatnonzero((self._pair_scale == ascale) & (self._pair_reach <= r))
        return self._first[keep], self._second[keep]

    def edges(self, first: np.ndarray, second: np.ndarray) -> list[Edge]:
        ids = self.ids
        return [(ids[a], ids[b]) for a, b in zip(first.tolist(), second.tolist())]


class AllPairs:
    """Every pair of active points, as a stateless view of the hierarchy.

    It has ``NetSpanner``'s ``sync``, ``edge_count`` and
    ``edges_at_scale_in_ball``.  The fast update path calls ``sync`` and
    reads the pairs off its update's ``Neighbourhood``, as
    ``edges_at_scale_in_ball`` does.
    A ``NetSpanner`` with ``c >= phi`` holds exactly these pairs, since
    level 0 is the whole active set and every active pair is closer than
    phi; this view gives them without storing them.
    """

    def __init__(self, hierarchy: NetHierarchy):
        self.hierarchy = hierarchy

    def sync(self, changeset: list[Change]) -> tuple[list[Edge], list[Edge]]:
        """Pairs gained and lost by the points whose level-0 membership changed."""
        active = self.hierarchy.levels[0]
        added: list[Edge] = []
        removed: list[Edge] = []
        for level, pid, was_added in changeset:
            if level != 0:
                continue
            pairs = [_pair(pid, y) for y in active if y != pid]
            (added if was_added else removed).extend(pairs)
        return (sorted(added), sorted(removed))

    def edge_count(self) -> int:
        n = len(self.hierarchy.levels[0])
        return n * (n - 1) // 2

    def edges_at_scale_in_ball(self, ascale: int, center: int, r: float) -> list[Edge]:
        """All active pairs of scale ``ascale`` with both endpoints within r of center."""
        view = Neighbourhood(self.hierarchy, center, r)
        return view.edges(*view.pairs(ascale, r))
