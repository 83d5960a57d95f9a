"""Level-witnessed spanner graph maintained on top of a net hierarchy.

Two points u, v are joined by an edge when some level i of the hierarchy
contains both and their distance is at most ``c * 2**i`` with
``c = 4 + 16 / eps``.  Rather than recomputing the edge set after every
hierarchy change, each edge carries a count of the levels currently
witnessing it; membership changes translate into increments and
decrements, and an edge lives exactly while its count is positive.

The class is deliberately ignorant of how the hierarchy changed: it
replays a changeset (the list of per-level membership events returned by
``NetHierarchy.insert``/``delete``) against the *final* hierarchy state,
which is the only state it can query.  Removal events therefore exclude
partners that were added at the same level within the same changeset,
since those were not members when the removed point was.
"""

from __future__ import annotations

from .metric import scale_of
from .net_tree import Change, NetHierarchy

Edge = tuple[int, int]


def _pair(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class NetSpanner:
    """Edge set over hierarchy levels, kept in sync via witness counts.

    A per-(scale, point) partner index lets all edges of a given length
    scale inside a metric ball be enumerated without touching the rest of
    the graph.
    """

    def __init__(self, hierarchy: NetHierarchy, eps: float):
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        self.hierarchy = hierarchy
        self.eps = eps
        self.c = 4.0 + 16.0 / eps
        # edge -> number of levels currently witnessing it
        self.witness: dict[Edge, int] = {}
        # scale -> point -> partners
        self.by_scale: dict[int, dict[int, set[int]]] = {}

    # -- bookkeeping ----------------------------------------------------

    def _index_add(self, u: int, v: int, s: int) -> None:
        level = self.by_scale.setdefault(s, {})
        level.setdefault(u, set()).add(v)
        level.setdefault(v, set()).add(u)

    def _index_remove(self, u: int, v: int, s: int) -> None:
        level = self.by_scale[s]
        level[u].discard(v)
        level[v].discard(u)
        if not level[u]:
            del level[u]
        if not level[v]:
            del level[v]
        if not level:
            del self.by_scale[s]

    def _bump(self, u: int, v: int, delta: int, added: set[Edge], removed: set[Edge]) -> None:
        e = _pair(u, v)
        count = self.witness.get(e, 0) + delta
        if count < 0:
            raise AssertionError(f"negative witness count for {e}")
        if count == 0:
            if e in self.witness:
                del self.witness[e]
                self._index_remove(e[0], e[1], self.edge_scale(e[0], e[1]))
                if e in added:
                    added.discard(e)
                else:
                    removed.add(e)
        else:
            fresh = e not in self.witness
            self.witness[e] = count
            if fresh:
                self._index_add(e[0], e[1], self.edge_scale(e[0], e[1]))
                if e in removed:
                    removed.discard(e)
                else:
                    added.add(e)

    # -- synchronisation ------------------------------------------------

    def sync(self, changeset: list[Change]) -> tuple[list[Edge], list[Edge]]:
        """Replay hierarchy membership events, return (added, removed) edges.

        Must be called after the hierarchy mutation that produced the
        changeset, before any further mutation.
        """
        hier = self.hierarchy
        added_at: dict[int, list[int]] = {}
        removals: list[tuple[int, int]] = []
        for level, pid, was_added in changeset:
            if was_added:
                added_at.setdefault(level, []).append(pid)
            else:
                removals.append((level, pid))

        added: set[Edge] = set()
        removed: set[Edge] = set()

        for level, pid in removals:
            radius = self.c * float(1 << level)
            new_here = set(added_at.get(level, ()))
            for y in hier.ball(level, pid, radius):
                if y == pid or y in new_here:
                    continue
                self._bump(pid, y, -1, added, removed)

        for level, pids in added_at.items():
            radius = self.c * float(1 << level)
            pending = set(pids)
            for pid in pids:
                pending.discard(pid)
                for y in hier.ball(level, pid, radius):
                    if y == pid or y in pending:
                        continue
                    self._bump(pid, y, +1, added, removed)

        return (sorted(added), sorted(removed))

    def rebuild(self) -> None:
        """Recompute all witness counts from scratch (testing aid)."""
        self.witness.clear()
        self.by_scale.clear()
        hier = self.hierarchy
        for level, members in enumerate(hier.levels):
            radius = self.c * float(1 << level)
            for u in members:
                for v in hier.ball(level, u, radius):
                    if v <= u:
                        continue
                    e = (u, v)
                    fresh = e not in self.witness
                    self.witness[e] = self.witness.get(e, 0) + 1
                    if fresh:
                        self._index_add(u, v, self.edge_scale(u, v))

    # -- queries ---------------------------------------------------------

    def contains(self, u: int, v: int) -> bool:
        return _pair(u, v) in self.witness

    def edge_weight(self, u: int, v: int) -> float:
        return self.hierarchy.space.distance(u, v)

    def edge_scale(self, u: int, v: int) -> int:
        return scale_of(self.hierarchy.space.distance(u, v))

    def edges(self) -> list[Edge]:
        return sorted(self.witness)

    def edge_count(self) -> int:
        return len(self.witness)

    def total_weight(self) -> float:
        dist = self.hierarchy.space.distance
        return sum(dist(u, v) for u, v in self.witness)

    def max_degree(self) -> int:
        deg: dict[int, int] = {}
        for u, v in self.witness:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        return max(deg.values(), default=0)

    def edges_at_scale_in_ball(self, ascale: int, center: int, r: float) -> list[Edge]:
        """All edges of scale ``ascale`` with both endpoints within r of center.

        Every edge of scale i is witnessed at some level >= i - scale_of(c),
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
        for u, v in sorted(self.witness):
            d = dist(u, v)
            lines.append(f"{u} {v} {d!r} {scale_of(d)}")
        return "\n".join(lines)


class AllPairs:
    """Every pair of active points, as a stateless view of the hierarchy.

    It has the interface of ``NetSpanner`` that the fast update path reads.
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
        dist = self.hierarchy.space.distance
        inside = sorted(self.hierarchy.ball(0, center, r))
        out: list[Edge] = []
        for k, u in enumerate(inside):
            for v in inside[k + 1:]:
                if scale_of(dist(u, v)) == ascale:
                    out.append((u, v))
        return out
