"""Point storage, distance functions, boundedness validation, and scale arithmetic.

Every other module measures distances exclusively through a space object from
this module. Point identifiers are plain ints, unique for the lifetime of a
run: a deleted point keeps its coordinates and stays queryable, and its id is
never handed out again.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np


def _check_phi(phi: float) -> float:
    phi = float(phi)
    if phi < 1.0 or math.frexp(phi)[0] != 0.5:
        # phi < 1 would make the scale range [0, log2(phi)] empty
        raise ValueError(f"phi must be a power of two >= 1, got {phi!r}")
    return phi


def scale_of(d: float) -> int:
    """Return the unique integer i with 2**(i-1) <= d < 2**i.

    Uses frexp, so the half-open boundary is exact: scale_of(2**k) == k + 1.
    """
    if d <= 0:
        raise ValueError(f"scale is only defined for positive distances, got {d!r}")
    mantissa, exponent = math.frexp(d)
    # frexp puts d = mantissa * 2**exponent with mantissa in [0.5, 1),
    # i.e. d in [2**(exponent-1), 2**exponent).
    return exponent


class MetricSpace:
    """Euclidean R^d point store with [1, phi)-bounded intent.

    The bound itself is not enforced here (validate_bounded reports it);
    callers feed only bounded point sets when they need the guarantees.
    """

    def __init__(self, dim: int, phi: float):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        self.phi = _check_phi(phi)
        self.top_scale = scale_of(self.phi) - 1  # log2(phi), exact
        self._coords: dict[int, tuple[float, ...]] = {}
        self.active: set[int] = set()

    def add_point(self, pid: int, coords: Sequence[float]) -> None:
        if pid in self._coords:
            raise KeyError(f"point id {pid} was already used; ids are never recycled")
        coords = tuple(float(c) for c in coords)
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        self._coords[pid] = coords
        self.active.add(pid)

    def remove_point(self, pid: int) -> None:
        if pid not in self.active:
            raise KeyError(f"point id {pid} is not active")
        self.active.remove(pid)
        # coordinates stay: distances to deleted points remain queryable

    def coords(self, pid: int) -> tuple[float, ...]:
        try:
            return self._coords[pid]
        except KeyError:
            raise KeyError(f"unknown point id {pid}") from None

    def distance(self, u: int, v: int) -> float:
        return math.dist(self.coords(u), self.coords(v))



class DistanceMatrixSpace:
    """Explicit distance-matrix metric for adversarial unit tests.

    Mirrors the MetricSpace interface that the hierarchy and spanners consume
    (distance / active / add_point / remove_point / top_scale), with the matrix
    supplied up front. `dim` is reported as 0; there are no coordinates.
    """

    def __init__(self, matrix: Sequence[Sequence[float]], phi: float):
        n = len(matrix)
        for row in matrix:
            if len(row) != n:
                raise ValueError("distance matrix must be square")
        for i in range(n):
            if matrix[i][i] != 0:
                raise ValueError("diagonal must be zero")
            for j in range(n):
                if matrix[i][j] != matrix[j][i]:
                    raise ValueError("distance matrix must be symmetric")
                if i != j and matrix[i][j] <= 0:
                    raise ValueError("off-diagonal distances must be positive")
        self.dim = 0
        self.phi = _check_phi(phi)
        self.top_scale = scale_of(self.phi) - 1
        self._matrix = [list(map(float, row)) for row in matrix]
        self._known: set[int] = set()
        self.active: set[int] = set()

    def add_point(self, pid: int, coords: Sequence[float] = ()) -> None:
        if not 0 <= pid < len(self._matrix):
            raise KeyError(f"point id {pid} outside the matrix")
        if pid in self._known:
            raise KeyError(f"point id {pid} was already used; ids are never recycled")
        self._known.add(pid)
        self.active.add(pid)

    def remove_point(self, pid: int) -> None:
        if pid not in self.active:
            raise KeyError(f"point id {pid} is not active")
        self.active.remove(pid)

    def coords(self, pid: int) -> tuple[float, ...]:
        if pid not in self._known:
            raise KeyError(f"unknown point id {pid}")
        return ()

    def distance(self, u: int, v: int) -> float:
        if u not in self._known or v not in self._known:
            raise KeyError(f"unknown point id in pair ({u}, {v})")
        return self._matrix[u][v]

def distance_matrix(space, ids: list[int]) -> np.ndarray:
    """Pairwise distances of ``ids`` as a symmetric matrix.

    On a space with coordinates they come from one array expression, which
    may differ from ``space.distance`` in the last bit; otherwise each pair
    is measured with ``space.distance``.
    """
    if getattr(space, "dim", 0) > 0:
        pts = np.asarray([space.coords(i) for i in ids], dtype=float).reshape(len(ids), space.dim)
        diff = pts[:, None, :] - pts[None, :, :]
        return np.sqrt((diff * diff).sum(axis=-1))
    n = len(ids)
    m = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            m[a, b] = m[b, a] = space.distance(ids[a], ids[b])
    return m


def validate_bounded(space) -> tuple[bool, list[tuple[int, int, float]]]:
    """Check 1 <= distance < phi for every active pair. O(n^2), test/harness use."""
    violations: list[tuple[int, int, float]] = []
    ids = sorted(space.active)
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            d = space.distance(ids[a], ids[b])
            if not 1.0 <= d < space.phi:
                violations.append((ids[a], ids[b], d))
    return (not violations, violations)


def parse_points(text: str) -> list[tuple[int, tuple[float, ...]]]:
    """Parse the point-list format: one `id x1 x2 ... xd` line per point."""
    points: list[tuple[int, tuple[float, ...]]] = []
    dim: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"line {lineno}: need an id and at least one coordinate")
        pid = int(parts[0])
        coords = tuple(float(p) for p in parts[1:])
        if dim is None:
            dim = len(coords)
        elif len(coords) != dim:
            raise ValueError(f"line {lineno}: inconsistent dimension {len(coords)} != {dim}")
        points.append((pid, coords))
    return points


def format_points(points: Iterable[tuple[int, Sequence[float]]]) -> str:
    return "\n".join(
        f"{pid} " + " ".join(repr(float(c)) for c in coords) for pid, coords in points
    )
