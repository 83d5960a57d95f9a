#!/usr/bin/env python3
"""Update benchmark for dynspan.

Run from the root of a dynspan checkout:

    python3 bench/run.py --workload window-exact --seed 1 --seconds 30 --trace 0

Each workload is a single-process, single-threaded closed loop: one caller
issues the next insert or delete only after the previous one returns.  The
benchmark makes its own inputs from ``--seed`` and drives
``DynamicLightSpanner`` directly.

A run is made of whole *episodes*: at least one, and another only while it
is expected to end within ``--seconds`` of timed updates.  An episode
generates the inputs, builds the structure and inserts the initial points
(set-up), then runs the timed update list, pausing the clock at regular
checkpoints to check the state against the brute-force oracles (the
correctness gate) and to sample the quality metrics.  Every episode of a run
has the same inputs, so counts and quality metrics are a function of the
seed alone; the repeats only add timing samples.  Times are reported at a
nominal machine speed (see ``REF_NS``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced episode, then traced ones, prints the per-layer metrics and writes
the spans of the first traced episode to ``bench/out/``.  The last line of
standard output is the result object; the line before it records the run's
seed, parameters, source revision and sample counts.  The exit code is
non-zero when the gate finds a violation or an update raises.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the closed loop is meant to measure one core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

if not os.path.isfile(os.path.join(SRC, "dynspan", "__init__.py")):
    raise ImportError(f"dynspan sources not found under {SRC}; run from a dynspan checkout")
sys.path.insert(0, SRC)
sys.path.insert(0, BENCH_DIR)

import numpy  # noqa: E402
import scipy  # noqa: E402

from dynspan import DynamicLightSpanner, MetricSpace, oracle  # noqa: E402
from tracing import Tracer  # noqa: E402

# Set-up is timed at least this many times per run; extra set-ups are made
# when fewer episodes fit in --seconds.
MIN_SETUPS = 3

# The gate holds the output to the package's own release bound on stretch,
# 1 + 3*eps (tests/test_acceptance.py, criteria 3 and 8).  Pruning keeps a
# base-pool edge out of the output only while output edges cover it within
# 1+eps, and the base pool is itself a (1+eps)-spanner, so by construction
# the output's stretch is bounded by (1+eps)**2 <= 1 + 3*eps, not by 1+eps.
# Checkpoints whose stretch exceeds 1+eps are counted on the run line.
STRETCH_FACTOR = 3.0
STRETCH_SLACK = 1e-9

# Nominal duration of one reference() call.  Shared hosts change speed by
# up to 1.7x within seconds, and the benchmark's processor time changes
# with them, so raw wall times of one program swing by a fifth from run to
# run.  Every timed interval is therefore scaled by REF_NS over the time
# reference() took just before and just after it: times are reported at a
# fixed nominal machine speed, which repeats within a few percent.
REF_NS = 500_000

# name -> (unit, better)
END_TO_END = {
    "updates_per_s": ("1/s", "higher"),
    "update_p90_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "lightness": ("ratio", "lower"),
    "edges_per_point": ("edges/point", "lower"),
    "max_stretch": ("ratio", "lower"),
    "mean_recourse": ("edges/update", "lower"),
}

# Printed on the run line but not in the result, which must hold figures
# that repeat across seeds within their bounds (see bench/README.md).
# Medians of the window workloads' latencies fall between modes of the
# cost distribution and move by up to a fifth from seed to seed; deletes
# are absent on path-grow; the largest recourse of one update is an
# extreme of the inputs; failed_frac is 0 on every accepted run (the
# result's "failed" carries it); wall_updates_per_s is updates_per_s from
# raw wall time; stretch_over_eps_checks is 0 on most seeds.
EXTRA = {
    "wall_updates_per_s": ("1/s", "higher"),
    "update_p50_ms": ("ms", "lower"),
    "insert_p50_ms": ("ms", "lower"),
    "delete_p50_ms": ("ms", "lower"),
    "max_recourse": ("edges", "lower"),
    "stretch_over_eps_checks": ("count", "lower"),
    "failed_frac": ("ratio", "lower"),
}

PER_LAYER = {
    "light_spanner.self_s": ("s", "lower"),
    "light_spanner.relaxations": ("count", "lower"),
    "light_spanner.sketch_dijkstra_s": ("s", "lower"),
    "light_spanner.sketch_dijkstra_calls": ("count", "lower"),
    "light_spanner.estimates": ("count", "lower"),
    "light_spanner.ball_queries": ("count", "lower"),
    "light_spanner.recourse_total": ("count", "lower"),
    "light_spanner.examined_pairs": ("count", "lower"),
    "light_spanner.recourse_per_examined": ("ratio", "higher"),
    "net_spanner.base_sync_s": ("s", "lower"),
    "net_spanner.dense_sync_s": ("s", "lower"),
    "net_spanner.pool_churn": ("count", "lower"),
    "net_spanner.edges_in_ball_s": ("s", "lower"),
    "net_spanner.edges_in_ball_calls": ("count", "lower"),
    "net_spanner.base_edges": ("count", "lower"),
    "net_spanner.dense_edges": ("count", "lower"),
    "net_tree.update_s": ("s", "lower"),
    "net_tree.changes": ("count", "lower"),
    "net_tree.ball_s": ("s", "lower"),
    "net_tree.ball_calls": ("count", "lower"),
    "net_tree.ball_returned": ("count", "lower"),
    "net_tree.neighbor_entries": ("count", "lower"),
    "metric.distance_s": ("s", "lower"),
    "metric.distance_calls_per_update": ("calls/update", "lower"),
    "oracle.verify_s": ("s", "lower"),
    "oracle.violations": ("count", "lower"),
    "trace.updates_per_s": ("1/s", "higher"),
    "trace.untraced_updates_per_s": ("1/s", "higher"),
    "trace.slowdown": ("ratio", "lower"),
    "trace.self_time_share": ("ratio", "higher"),
}


@dataclass(frozen=True)
class Workload:
    """One input family.  ``shape`` is ``window`` (uniform 2-D points, each
    timed step inserts one point and evicts the oldest) or ``path`` (1-D
    unit-spaced path grown coarse to fine, each timed step inserts one
    point)."""

    name: str
    shape: str
    mode: str
    phi: float
    fill: int  # points inserted during set-up
    steps: int  # timed steps
    check_every: int  # timed updates between checkpoints
    eps: float = 0.5


WORKLOADS = {
    w.name: w
    for w in (
        Workload("window-exact", "window", "exact", 1024.0, fill=64, steps=240, check_every=8),
        Workload("window-fast", "window", "fast", 1024.0, fill=64, steps=240, check_every=8),
        Workload("path-grow", "path", "exact", 256.0, fill=64, steps=192, check_every=24),
    )
}


# -- inputs ----------------------------------------------------------------------


def make_inputs(w: Workload, seed: int):
    """Point coordinates by id, and the timed (op, id) list."""
    rng = random.Random(seed)
    if w.shape == "window":
        side = 0.95 * w.phi / math.sqrt(2.0)
        points: list[tuple[float, ...]] = []
        while len(points) < w.fill + w.steps:
            cand = (rng.uniform(0.0, side), rng.uniform(0.0, side))
            if all(math.dist(cand, p) >= 1.0 for p in points):
                points.append(cand)
        ops = []
        for k in range(w.steps):
            ops.append(("insert", w.fill + k))
            ops.append(("delete", k))
        return points, ops
    if w.shape == "path":
        if w.fill + w.steps != int(w.phi):
            raise ValueError("path workloads need phi equal to the final size")
        # Coarse to fine: every multiple of 2**k arrives before the first
        # new multiple of 2**(k-1), in seeded order within each level.  A
        # fully random order makes the cost of a run swing by seed far more
        # than a code change would move it.
        by_level: dict[int, list[int]] = {}
        for x in range(1, int(w.phi) + 1):
            by_level.setdefault((x & -x).bit_length(), []).append(x)
        xs: list[int] = []
        for level in sorted(by_level, reverse=True):
            rng.shuffle(by_level[level])
            xs += by_level[level]
        points = [(float(x),) for x in xs]
        return points, [("insert", k) for k in range(w.fill, len(points))]
    raise ValueError(f"unknown workload shape {w.shape!r}")


# -- one episode -----------------------------------------------------------------


@dataclass
class Episode:
    setup_s: float
    timed_s: float  # wall time of the timed updates
    speed: float  # nominal time per wall time of the timed updates
    latencies: dict[str, list[float]]  # op -> nominal ns per successful update
    failed: int
    attempted: int
    violations: list[str]
    verify_s: float
    checkpoints: int
    quality: dict[str, float]
    counts: dict[str, int]  # summed over the timed updates' reports
    layers: dict[str, float] = field(default_factory=dict)  # traced episodes only
    light: list = field(default_factory=list)


def reference() -> float:
    """Fixed interpreter work of the same kind as the program's hot paths."""
    d = {}
    s = 0.0
    for i in range(1500):
        d[i] = math.dist((i, 1.0), (2.0, i))
        s += d[i]
    return s


class Gauge:
    """Converts wall intervals to intervals at the nominal machine speed."""

    def __init__(self):
        self.wall_ns = 0
        self.nominal_ns = 0.0
        self.reset()

    def reset(self) -> None:
        """Time reference() now; call after work that is not measured."""
        t0 = time.perf_counter_ns()
        reference()
        self.last = time.perf_counter_ns() - t0

    def scale(self, wall_ns: int) -> float:
        """Nominal duration of an interval that has just ended."""
        before = self.last
        self.reset()
        nominal = wall_ns * 2.0 * REF_NS / (before + self.last)
        self.wall_ns += wall_ns
        self.nominal_ns += nominal
        return nominal


def set_up(w: Workload, seed: int):
    """Inputs and a filled structure, with the set-up's nominal seconds."""
    clock = time.perf_counter_ns
    gauge = Gauge()
    t0 = clock()
    points, ops = make_inputs(w, seed)
    space = MetricSpace(1 if w.shape == "path" else 2, w.phi)
    structure = DynamicLightSpanner(space, w.eps, w.mode)
    gauge.scale(clock() - t0)
    for pid in range(w.fill):
        t0 = clock()
        structure.insert(pid, points[pid])
        gauge.scale(clock() - t0)
    return points, ops, structure, gauge.nominal_ns / 1e9


def verify(w: Workload, structure) -> tuple[list[str], dict[str, float]]:
    """Correctness gate and quality metrics of the current state."""
    space = structure.space
    ids = sorted(space.active)
    light = structure.light_edges()
    found = oracle.validate_net_hierarchy(structure.hierarchy)
    found += oracle.check_invariants(space, structure.base_edges(), light, structure.eps)
    stretch = oracle.max_stretch(space, ids, light)
    if not stretch <= 1.0 + STRETCH_FACTOR * structure.eps + STRETCH_SLACK:
        found.append(f"stretch {stretch!r} exceeds 1+3*eps")
    if w.mode == "fast":
        found += oracle.sweep_estimate_store(structure)
    quality = {
        "lightness": structure.lightness(),
        "edges_per_point": len(light) / len(ids),
        "max_stretch": stretch,
    }
    return found, quality


def run_episode(w: Workload, seed: int, tracer: Tracer | None = None) -> Episode:
    points, ops, structure, setup_s = set_up(w, seed)
    latencies: dict[str, list[float]] = {"insert": [], "delete": []}
    recourse: list[int] = []
    counts = {"relaxations": 0, "ball_queries": 0, "recourse_total": 0}
    failures: list[str] = []
    violations: list[str] = []
    checks: list[dict[str, float]] = []
    verify_ns = 0
    clock = time.perf_counter_ns
    paused = 0
    gc.collect()
    if tracer is not None:
        tracer.attach(structure)
    gauge = Gauge()
    start = clock()
    for k, (op, pid) in enumerate(ops, start=1):
        if tracer is not None:
            tracer.update = k
        t0 = clock()
        try:
            if op == "insert":
                report = structure.insert(pid, points[pid])
            else:
                report = structure.delete(pid)
        except Exception as exc:  # counted as failed; the run then exits non-zero
            failures.append(f"{op} {pid}: {exc!r}")
            report = None
        t1 = clock()
        nominal = gauge.scale(t1 - t0)
        if report is not None:
            latencies[op].append(nominal)
            recourse.append(report.recourse)
            counts["relaxations"] += report.relaxations
            counts["ball_queries"] += report.ball_queries
            counts["recourse_total"] += report.recourse
        if k % w.check_every == 0 or k == len(ops):
            # checkpoint: the gate and the quality metrics, off the clock
            if tracer is not None:
                tracer.detach()
            v0 = clock()
            found, quality = verify(w, structure)
            verify_ns += clock() - v0
            violations += found
            checks.append(quality)
            if tracer is not None:
                tracer.attach(structure)
            gauge.reset()
        paused += clock() - t1
    timed_s = (clock() - start - paused) / 1e9
    if tracer is not None:
        tracer.detach()

    quality = {
        "lightness": statistics.fmean(c["lightness"] for c in checks),
        "edges_per_point": statistics.fmean(c["edges_per_point"] for c in checks),
        "max_stretch": max(c["max_stretch"] for c in checks),
        "mean_recourse": statistics.fmean(recourse) if recourse else 0.0,
        "max_recourse": max(recourse, default=0),
        "stretch_over_eps_checks": sum(
            c["max_stretch"] > 1.0 + w.eps + STRETCH_SLACK for c in checks
        ),
    }
    episode = Episode(
        setup_s=setup_s,
        timed_s=timed_s,
        speed=gauge.nominal_ns / gauge.wall_ns,
        latencies=latencies,
        failed=len(failures),
        attempted=len(ops),
        violations=failures + violations,
        verify_s=verify_ns / 1e9,
        checkpoints=len(checks),
        quality=quality,
        counts=counts,
        light=structure.light_edges(),
    )
    if tracer is not None:
        episode.layers = layer_metrics(tracer, structure, episode)
    return episode


def layer_metrics(tracer: Tracer, structure, ep: Episode) -> dict[str, float]:
    """Per-layer figures of one traced episode; times in nominal seconds."""
    s, calls, ret = tracer.self_ns, tracer.calls, tracer.returned

    def sec(*names: str) -> float:
        return sum(s[n] for n in names) * ep.speed / 1e9

    updates = sum(len(v) for v in ep.latencies.values())
    nominal_ns = sum(sum(v) for v in ep.latencies.values())
    examined = ret["net_spanner.base.edges_in_ball"]
    return {
        "light_spanner.self_s": sec("light_spanner.insert", "light_spanner.delete"),
        "light_spanner.relaxations": ep.counts["relaxations"],
        "light_spanner.sketch_dijkstra_s": sec("light_spanner.sketch_dijkstra"),
        "light_spanner.sketch_dijkstra_calls": calls["light_spanner.sketch_dijkstra"],
        "light_spanner.estimates": len(structure.estimates.dstar) + len(structure.estimates.dlight),
        "light_spanner.ball_queries": ep.counts["ball_queries"],
        "light_spanner.recourse_total": ep.counts["recourse_total"],
        "light_spanner.examined_pairs": examined,
        "light_spanner.recourse_per_examined": (
            ep.counts["recourse_total"] / examined if examined else 0.0
        ),
        "net_spanner.base_sync_s": sec("net_spanner.base.sync"),
        "net_spanner.dense_sync_s": sec("net_spanner.dense.sync"),
        "net_spanner.pool_churn": ret["net_spanner.base.sync"] + ret["net_spanner.dense.sync"],
        "net_spanner.edges_in_ball_s": sec(
            "net_spanner.base.edges_in_ball", "net_spanner.dense.edges_in_ball"
        ),
        "net_spanner.edges_in_ball_calls": (
            calls["net_spanner.base.edges_in_ball"] + calls["net_spanner.dense.edges_in_ball"]
        ),
        "net_spanner.base_edges": structure.base.edge_count(),
        "net_spanner.dense_edges": structure.dense.edge_count(),
        "net_tree.update_s": sec("net_tree.insert", "net_tree.delete"),
        "net_tree.changes": ret["net_tree.insert"] + ret["net_tree.delete"],
        "net_tree.ball_s": sec("net_tree.ball"),
        "net_tree.ball_calls": calls["net_tree.ball"],
        "net_tree.ball_returned": ret["net_tree.ball"],
        "net_tree.neighbor_entries": sum(
            len(partners) for level in structure.hierarchy.neighbors for partners in level.values()
        ),
        "metric.distance_s": sec("metric.distance"),
        "metric.distance_calls_per_update": calls["metric.distance"] / updates if updates else 0.0,
        "oracle.verify_s": ep.verify_s * ep.speed,
        "oracle.violations": len(ep.violations) - ep.failed,
        "trace.updates_per_s": updates / nominal_ns * 1e9 if nominal_ns else 0.0,
        # wall time of the spans against wall time of the update calls
        "trace.self_time_share": (
            sum(s.values()) * ep.speed / nominal_ns if nominal_ns else 0.0
        ),
    }


# -- a run -----------------------------------------------------------------------


def _ms(samples: list[float], q: float) -> float:
    """Inclusive-method quantile of ns samples, in ms."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0] / 1e6
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1] / 1e6


def _same_state(a: Episode, b: Episode) -> bool:
    return a.light == b.light and a.quality == b.quality and a.counts == b.counts


def measure(w: Workload, seed: int, seconds: float, trace: bool = False) -> dict:
    """Run one benchmark run; returns the run record (metrics with units)."""
    episodes: list[Episode] = []
    untraced = run_episode(w, seed) if trace else None
    # Whole episodes; another one only if it should end within --seconds.
    while not episodes or (
        sum(e.timed_s for e in episodes) * (1.0 + 1.0 / len(episodes)) <= seconds
    ):
        tracer = Tracer() if trace else None
        episodes.append(run_episode(w, seed, tracer))
        if tracer is not None and len(episodes) == 1:
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write(os.path.join(OUT_DIR, f"{w.name}-seed{seed}.spans.jsonl"))
    checked = episodes + ([untraced] if untraced else [])
    setups = [e.setup_s for e in checked]
    while len(setups) < MIN_SETUPS:
        setups.append(set_up(w, seed)[-1])

    first = episodes[0]
    violations = [m for e in checked for m in e.violations]
    if not all(_same_state(first, e) for e in checked):
        violations.append("episodes with the same inputs ended in different states")
    failed = sum(e.failed for e in checked)
    attempted = sum(e.attempted for e in checked)

    lat = {op: [ns for e in episodes for ns in e.latencies[op]] for op in ("insert", "delete")}
    both = lat["insert"] + lat["delete"]
    values = {
        "updates_per_s": len(both) / sum(both) * 1e9 if both else 0.0,
        "update_p90_ms": _ms(both, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **first.quality,
    }
    extra = {
        "update_p50_ms": _ms(both, 0.5),
        "insert_p50_ms": _ms(lat["insert"], 0.5),
        "wall_updates_per_s": len(both) / sum(e.timed_s for e in episodes),
        "max_recourse": values.pop("max_recourse"),
        "stretch_over_eps_checks": values.pop("stretch_over_eps_checks"),
        "failed_frac": failed / attempted,
    }
    if lat["delete"]:
        extra["delete_p50_ms"] = _ms(lat["delete"], 0.5)
    samples = {
        "update": len(both),
        "insert": len(lat["insert"]),
        "delete": len(lat["delete"]),
        "setup": len(setups),
        "episodes": len(episodes),
        "checkpoints_per_episode": first.checkpoints,
        "episode_timed_s": [e.timed_s for e in episodes],
        "episode_speed": [e.speed for e in episodes],
    }
    if trace:
        layers = {
            name: statistics.median(e.layers[name] for e in episodes)
            if name.endswith("_s") else first.layers[name]
            for name in first.layers
        }
        untraced_updates = sum(len(v) for v in untraced.latencies.values())
        layers["trace.untraced_updates_per_s"] = (
            untraced_updates / sum(sum(v) for v in untraced.latencies.values()) * 1e9
        )
        layers["trace.slowdown"] = (
            layers["trace.untraced_updates_per_s"] / layers["trace.updates_per_s"]
        )
        metrics = {k: {"value": layers[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
        samples["untraced_updates"] = untraced_updates
    else:
        metrics = {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}
    return {
        "workload": w.name,
        "params": asdict(w),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "source": source_revision(),
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "samples": samples,
        "extra": {k: {"value": v, "unit": EXTRA[k][0]} for k, v in extra.items()},
        "violations": violations[:20],
        "violation_count": len(violations),
        "failed": failed,
        "attempted": attempted,
        "metrics": metrics,
    }


def source_revision() -> dict:
    """Git commit when run inside a clone, and a digest of the sources always."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "dynspan"), BENCH_DIR):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return {"git_commit": commit, "sha256": digest.hexdigest()}


def result_line(record: dict) -> dict:
    return {
        "correct": record["violation_count"] == 0 and record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def print_layers(record: dict) -> None:
    """Human-readable per-layer self times, their share, and the layer's counts."""
    m = {k: v["value"] for k, v in record["metrics"].items()}
    self_s = {
        "light_spanner": m["light_spanner.self_s"] + m["light_spanner.sketch_dijkstra_s"],
        "net_spanner": m["net_spanner.base_sync_s"] + m["net_spanner.dense_sync_s"]
        + m["net_spanner.edges_in_ball_s"],
        "net_tree": m["net_tree.update_s"] + m["net_tree.ball_s"],
        "metric": m["metric.distance_s"],
        "oracle": m["oracle.verify_s"],
    }
    total = sum(sec for layer, sec in self_s.items() if layer != "oracle")
    for layer, sec in self_s.items():
        share = "outside updates" if layer == "oracle" else f"{sec / total:.1%}" if total else ""
        counts = ", ".join(
            f"{k.split('.', 1)[1]} {m[k]:.6g}"
            for k, (unit, _) in PER_LAYER.items()
            if k.startswith(layer + ".") and unit != "s"
        )
        print(f"# {layer:14s} {sec:9.4f} s  {share:>15s}  {counts}")
    print(f"# tracing slowdown {m['trace.slowdown']:.3f}x, self times cover "
          f"{m['trace.self_time_share']:.1%} of the traced update time")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    if args.trace:
        print_layers(record)
    print(json.dumps({"run": record}))
    result = result_line(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
