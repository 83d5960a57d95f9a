"""Golden outputs: one seeded mixed insert/delete run per mode, hashed.

The digests pin the exact output of every update, so a change meant to
leave the output alone (a speed-up, a refactor) is checked against the
output the code gave before it.  A change that is meant to move the output
must recompute them and say why they moved.
"""

import hashlib

import pytest

from dynspan.harness import ScenarioConfig, run

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
