"""Hierarchical nets over a point space, maintained under insertion and deletion.

Level i holds a subset of the points with two properties relative to level
i-1: members of level i are pairwise at distance >= 2**i (packing), and every
member of level i-1 has a level-i member within 2**i (covering). Level 0 is
the whole active set, and levels nest: level i is contained in level i-1.

Each member keeps a per-level neighbor list of the other members within
4 * 2**i. That reaches every member's covering parent (within 2 * 2**i of it,
one level up), which is all that queries and updates need: ball queries
never scan a whole level, they descend from the top populated level through
these lists, shrinking a candidate set as they go, and are exact for any
radius.
"""
from __future__ import annotations

from .metric import scale_of

# Changeset entry: (level, point id, True for added / False for removed).
Change = tuple[int, int, bool]


class NetHierarchy:
    def __init__(self, space, counters: dict | None = None):
        self.space = space
        self.top = space.top_scale
        self.levels: list[set[int]] = [set() for _ in range(self.top + 1)]
        # neighbors[i][x] = set of y in levels[i], y != x, with d(x, y) <= list_radius(i)
        self.neighbors: list[dict[int, set[int]]] = [{} for _ in range(self.top + 1)]
        self.counters = counters if counters is not None else {}

    def list_radius(self, level: int) -> float:
        return 4.0 * float(1 << level)

    def contains(self, level: int, pid: int) -> bool:
        return pid in self.levels[level]

    def max_level(self, pid: int) -> int:
        """Highest level containing pid, or -1."""
        for i in range(self.top, -1, -1):
            if pid in self.levels[i]:
                return i
        return -1

    # -- membership mutation, keeping neighbor lists symmetric ----------------

    def _add_member(self, level: int, pid: int, changes: list[Change] | None = None) -> None:
        members = self.levels[level]
        if pid in members:
            raise KeyError(f"point {pid} already in level {level}")
        dist = self.space.distance
        radius = self.list_radius(level)
        mine: set[int] = set()
        for y in members:
            if dist(pid, y) <= radius:
                mine.add(y)
                self.neighbors[level][y].add(pid)
        members.add(pid)
        self.neighbors[level][pid] = mine
        if changes is not None:
            changes.append((level, pid, True))

    def _remove_member(self, level: int, pid: int, changes: list[Change] | None = None) -> None:
        members = self.levels[level]
        if pid not in members:
            raise KeyError(f"point {pid} not in level {level}")
        members.remove(pid)
        for y in self.neighbors[level].pop(pid):
            self.neighbors[level][y].discard(pid)
        if changes is not None:
            changes.append((level, pid, False))

    # -- updates ---------------------------------------------------------------

    def insert(self, pid: int) -> list[Change]:
        """Add an active point to the hierarchy.

        The point joins every level below the smallest level that already has
        a member strictly within that level's radius; if no level does, it
        joins every level.
        """
        if pid not in self.space.active:
            raise KeyError(f"point {pid} is not active in the space")
        if pid in self.levels[0]:
            raise KeyError(f"point {pid} already in the hierarchy")

        join_below = self._join_threshold(pid)
        changes: list[Change] = []
        for i in range(min(join_below, self.top + 1)):
            self._add_member(i, pid, changes)
        return changes

    def _join_threshold(self, pid: int) -> int:
        """Smallest level i with a member strictly within 2**i of pid, else top+1.

        Found with one descent at radius 0, whose candidate set at level j is
        complete out to 4 * 2**j, enough to decide this exactly.
        """
        threshold = self.top + 1
        for j, candidates in self._descend(pid, 0.0, 0):
            limit = float(1 << j)
            if any(self.space.distance(pid, y) < limit for y in candidates):
                threshold = j
        return threshold

    def delete(self, pid: int) -> list[Change]:
        """Remove a point from every level, then promote to restore covering.

        Promotion scans level by level upward. Candidates at level i are the
        former neighbors of the removed point at level i-1 (snapshotted before
        removal) plus any point promoted into level i-1 a step earlier; they
        are visited in ascending id order and promoted when no live level-i
        member covers them within 2**i. Only points within 2**i of the removed
        point can need promotion, because only its own covering role was lost.
        """
        if pid not in self.levels[0]:
            raise KeyError(f"point {pid} not in the hierarchy")
        dist = self.space.distance

        snapshots: list[set[int]] = []
        for i in range(self.top + 1):
            if pid in self.levels[i]:
                snapshots.append(set(self.neighbors[i][pid]))
            else:
                snapshots.append(set())

        changes: list[Change] = []
        for i in range(self.top + 1):
            if pid in self.levels[i]:
                self._remove_member(i, pid, changes)

        promoted_below: set[int] = set()
        for i in range(1, self.top + 1):
            limit = float(1 << i)
            candidates = sorted(
                y
                for y in (snapshots[i - 1] | promoted_below)
                if dist(y, pid) <= limit
            )
            promoted_here: set[int] = set()
            level_i = self.levels[i]
            for y in candidates:
                if y in level_i:
                    continue
                covered = any(
                    z in level_i and dist(y, z) <= limit
                    for z in self.neighbors[i - 1][y]
                )
                if not covered:
                    self._add_member(i, y, changes)
                    promoted_here.add(y)
            promoted_below = promoted_here
        return changes

    # -- queries ---------------------------------------------------------------

    def ball(self, level: int, center: int, r: float) -> list[int]:
        """All level members within distance r of the center point.

        The center must have coordinates in the space (it may be inactive).
        Any radius is allowed.
        """
        if not 0 <= level <= self.top:
            raise ValueError(f"level {level} outside [0, {self.top}]")
        self.counters["ball_queries"] = self.counters.get("ball_queries", 0) + 1
        if r < 0:
            return []
        members: list[int] = []
        for _, members in self._descend(center, r, level):
            pass
        dist = self.space.distance
        return [y for y in members if dist(center, y) <= r]

    def _descend(self, center: int, r: float, low: int):
        """Yield (j, level-j members within r + 4 * 2**j of center) for each j
        from the highest populated level down to ``low``.

        Each set is complete: a member within that radius has its covering
        parent (within 2 * 2**j of it) in the set one level up, and that
        parent lists it as a level-j neighbour.
        """
        dist = self.space.distance
        high = self.top
        while high >= 0 and not self.levels[high]:
            high -= 1
        if high < low:
            return
        radius = r + (1 << (high + 2))
        candidates = [y for y in self.levels[high] if dist(center, y) <= radius]
        yield high, candidates
        for j in range(high - 1, low - 1, -1):
            radius = r + (1 << (j + 2))
            nxt: list[int] = []
            seen: set[int] = set()
            for z in candidates:
                if z not in seen and z in self.levels[j]:
                    seen.add(z)
                    if dist(center, z) <= radius:
                        nxt.append(z)
                for y in self.neighbors[j].get(z, ()):
                    if y not in seen:
                        seen.add(y)
                        if dist(center, y) <= radius:
                            nxt.append(y)
            candidates = nxt
            yield j, candidates

    def dump(self) -> str:
        """One line per level, sorted member ids, for golden tests."""
        return "\n".join(
            " ".join(str(pid) for pid in sorted(self.levels[i]))
            for i in range(self.top + 1)
        )
