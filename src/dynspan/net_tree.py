"""Hierarchical nets over a point space, maintained under insertion and deletion.

Level i holds a subset of the points with two properties relative to level
i-1: members of level i are pairwise at distance >= 2**i (packing), and every
member of level i-1 has a level-i member within 2**i (covering). Level 0 is
the whole active set, and levels nest: level i is contained in level i-1.

Each member keeps a per-level neighbor list of the other members within
4 * 2**i. That reaches every member's covering parent (within 2 * 2**i of it,
one level up), which is all that updates need, and it lets a ball query
descend from the top populated level through these lists, shrinking a
candidate set as it goes, exact for any radius.

Every distance an update needs from its own point has one home: an insert
or delete starts a row for that point, and ``distance`` measures each pair
with it once, into the row, for every later reader in the same update (the
net, both candidate pools and the reselection).  An insert measures its row
over the whole active set before it changes anything, and refuses the point
unless every distance lies in ``[1, phi)``.  Once an insert has measured
its row in full, that row holds the distance to every other member of every
level, so a ball query around the inserted point filters the level by the
row and descends nowhere; every other ball query descends.
"""
from __future__ import annotations

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
        # the point of the latest insert or delete, and its distances; the
        # row is complete once an insert has measured every other member
        self.center: int | None = None
        self.row: dict[int, float] = {}
        self.row_complete = False

    def distance(self, u: int, v: int) -> float:
        """``space.distance(u, v)``; a pair with ``center`` is measured once,
        into ``row``, and read from there after.  An entry never goes stale,
        since ids are never reused and coordinates never change."""
        if u == self.center:
            u, v = v, u
        if v != self.center:
            return self.space.distance(u, v)
        d = self.row.get(u)
        if d is None:
            d = self.row[u] = self.space.distance(u, v)
        return d

    def list_radius(self, level: int) -> float:
        return 4.0 * float(1 << level)

    # -- membership mutation, keeping neighbor lists symmetric ----------------

    def _add_member(self, level: int, pid: int, changes: list[Change] | None = None) -> None:
        members = self.levels[level]
        if pid in members:
            raise KeyError(f"point {pid} already in level {level}")
        dist = self.distance
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

        First measures the point's row, its distance to every member, and
        raises ``ValueError``, changing nothing, unless each lies in
        ``[1, phi)``: closer points break the level-0 net, and pairs at phi
        or farther have a scale that no update visits.  The point then joins
        every level below the smallest level that already has a member
        strictly within that level's radius; if no level does, it joins
        every level.
        """
        if pid not in self.space.active:
            raise KeyError(f"point {pid} is not active in the space")
        if pid in self.levels[0]:
            raise KeyError(f"point {pid} already in the hierarchy")
        self.center, self.row, self.row_complete = pid, {}, False
        dist, row, phi = self.space.distance, self.row, self.space.phi
        for y in self.levels[0]:
            d = row[y] = dist(pid, y)
            if not 1.0 <= d < phi:
                raise ValueError(
                    f"point {pid} is at distance {d!r} from point {y}; "
                    f"inserts need distances in [1, {phi:g})"
                )
        self.row_complete = True
        join = next(
            (j for j, level in enumerate(self.levels) if any(row[y] < (1 << j) for y in level)),
            self.top + 1,
        )
        changes: list[Change] = []
        for i in range(join):
            self._add_member(i, pid, changes)
        return changes

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
        self.center, self.row, self.row_complete = pid, {}, False
        dist = self.distance

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
        if center == self.center and self.row_complete:
            # the inserted point's row holds every other member
            row = self.row
            return [y for y in self.levels[level] if y == center or row[y] <= r]
        # Descend from the highest populated level, keeping at each level j
        # the members within r + 4 * 2**j of the center.  Each set is
        # complete: a member within that radius has its covering parent
        # (within 2 * 2**j of it) in the set one level up, and that parent
        # lists it as a level-j neighbour.  Each distance is measured once.
        dist = self.distance
        high = self.top
        while high >= 0 and not self.levels[high]:
            high -= 1
        if high < level:
            return []
        measured = {y: dist(center, y) for y in self.levels[high]}
        radius = r + (1 << (high + 2))
        candidates = {y: d for y, d in measured.items() if d <= radius}
        for j in range(high - 1, level - 1, -1):
            radius = r + (1 << (j + 2))
            nxt: dict[int, float] = {}
            seen: set[int] = set()
            for z, dz in candidates.items():
                if z not in seen and z in self.levels[j]:
                    seen.add(z)
                    if dz <= radius:
                        nxt[z] = dz
                for y in self.neighbors[j].get(z, ()):
                    if y not in seen:
                        seen.add(y)
                        d = measured.get(y)
                        if d is None:
                            d = measured[y] = dist(center, y)
                        if d <= radius:
                            nxt[y] = d
            candidates = nxt
        return [y for y, d in candidates.items() if d <= r]

    def dump(self) -> str:
        """One line per level, sorted member ids, for golden tests."""
        return "\n".join(
            " ".join(str(pid) for pid in sorted(self.levels[i]))
            for i in range(self.top + 1)
        )
