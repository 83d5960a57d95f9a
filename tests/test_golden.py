"""Golden outputs: seeded mixed insert/delete runs per mode, hashed, on
points in the plane and on an explicit distance matrix.

The digests pin the exact output of every update, so a change meant to
leave the output alone (a speed-up, a refactor) is checked against the
output the code gave before it.  A change that is meant to move the output
must recompute them and say why they moved.
"""

import hashlib
import random

import pytest

from dynspan.harness import ScenarioConfig, run
from dynspan.light_spanner import DynamicLightSpanner
from dynspan.metric import DistanceMatrixSpace

# SHA-256 of every update's (added, removed), then of the final output; the
# two modes give the same output on this run
GOLDEN = (
    "b57bd60c119fc4054a9059bc87b07d66043dd82a3576041b2a069549e7fe10ec",
    "3535e15107c1f2a6bf834bbd4a7d4512fded727879ed0d1fcc90c8b1ae2367ff",
)
# SHA-256 of the fast run's final dump_estimates().  The sketches read their
# distance bands off the dense pool's table, each pair measured with
# space.distance, where they once read a vectorised distance matrix; that
# moved 421 of the 2,145 lines in the last bit only, and left both output
# digests above unchanged
GOLDEN_ESTIMATES = "283f043166bfba57e6ffe68ffcb1576fb997c5ade1a42ceaa8e9ca1f0268734c"
# the same three digests for a mixed run on an explicit distance matrix,
# where no distance comes from coordinates
GOLDEN_MATRIX = (
    "e80e33626b02ccc9c8313622dd0790fece141eaa5f62cde2068b05a514a4ad84",
    "6004c314a76b5bb5068d39dae75414b1d045b03fccb1cad9bbae2ab3af8717aa",
)
GOLDEN_MATRIX_ESTIMATES = "c2b7f73cda105aab16f4d4932266e0cfc4b1f571a5b472f2e9e08cb91aaaac7d"


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("mode", ["exact", "fast"])
def test_every_update_matches_the_golden_output(mode):
    config = ScenarioConfig(
        generator="uniform-cube", n=40, dim=2, eps=0.5, phi=512.0, seed=11,
        mode=mode, ops="mixed", num_ops=110, p_delete=0.4, check="none",
    )
    result = run(config)
    updates = [(r.added, r.removed) for r in result.reports]
    assert len(updates) == 150
    assert sum(r.op == "delete" for r in result.reports) > 20
    assert (_digest(updates), _digest(result.structure.light_edges())) == GOLDEN
    if mode == "fast":
        assert _digest(result.structure.dump_estimates()) == GOLDEN_ESTIMATES


def _shortest_path_metric(n: int, seed: int) -> list[list[float]]:
    """Shortest-path distances over random weights in [1, 20], so every
    pair lies in [1, 20] and the triangle inequality holds."""
    rng = random.Random(seed)
    m = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            m[a][b] = m[b][a] = rng.uniform(1.0, 20.0)
    for k in range(n):
        for a in range(n):
            for b in range(n):
                if m[a][k] + m[k][b] < m[a][b]:
                    m[a][b] = m[a][k] + m[k][b]
    return m


@pytest.mark.parametrize("mode", ["exact", "fast"])
def test_matrix_metric_run_matches_the_golden_output(mode):
    space = DistanceMatrixSpace(_shortest_path_metric(36, 5), 32.0)
    structure = DynamicLightSpanner(space, 0.5, mode)
    rng = random.Random(6)
    updates, alive = [], []
    for pid in range(36):
        if alive and rng.random() < 0.35:
            report = structure.delete(alive.pop(rng.randrange(len(alive))))
        else:
            report = structure.insert(pid, ())
            alive.append(pid)
        updates.append((report.added, report.removed))
    assert len(alive) == 14
    assert (_digest(updates), _digest(structure.light_edges())) == GOLDEN_MATRIX
    if mode == "fast":
        assert _digest(structure.dump_estimates()) == GOLDEN_MATRIX_ESTIMATES
