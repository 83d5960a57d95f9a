"""Benchmark and validation harness.

A scenario is a deterministic update sequence against one structure:
an initial batch of insertions from a generated point pool, followed by
a policy-driven stream of further insertions and deletions.  Every
update is logged (one JSON object per line when an output path is
given) and optionally cross-checked against the brute-force reference
computations; the run ends with a summary of weight, stretch, recourse
and timing statistics.  Runs with the same config are identical except
for the timing fields.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import asdict, dataclass, field

from . import oracle
from .light_spanner import DynamicLightSpanner, UpdateReport
from .metric import MetricSpace, parse_points

Point = tuple[int, tuple[float, ...]]


@dataclass
class ScenarioConfig:
    generator: str = "uniform-cube"  # uniform-cube | path | clustered | file
    n: int = 64
    dim: int = 2
    eps: float = 0.5
    phi: float = 1024.0
    seed: int = 0
    mode: str = "exact"
    ops: str = "insert-only"  # insert-only | mixed | sliding-window
    num_ops: int = 0
    p_delete: float = 0.3
    window: int = 0  # 0 means n
    check: str = "none"  # none | final | every-update | every-<k>
    points_file: str | None = None
    out: str | None = None


@dataclass
class RunSummary:
    updates: int
    final_points: int
    edge_count: int
    total_weight: float
    mst_weight: float
    lightness: float
    max_stretch: float
    max_recourse: int
    mean_recourse: float
    max_time_ns: int
    mean_time_ns: float
    violations: int
    messages: list[str] = field(default_factory=list)


@dataclass
class RunResult:
    config: ScenarioConfig
    space: MetricSpace
    structure: DynamicLightSpanner
    reports: list[UpdateReport]
    summary: RunSummary


# -- point generation ---------------------------------------------------------


def _place_rejecting(rng: random.Random, count: int, dim: int, sampler, label: str) -> list[Point]:
    """Draw points from sampler, rejecting any closer than 1 to an earlier one."""
    pts: list[tuple[float, ...]] = []
    out: list[Point] = []
    for pid in range(count):
        for _ in range(500):
            cand = sampler()
            if all(math.dist(cand, p) >= 1.0 for p in pts):
                pts.append(cand)
                out.append((pid, cand))
                break
        else:
            raise RuntimeError(
                f"{label}: could not place point {pid} with pairwise distance >= 1"
            )
    return out


def generate_points(config: ScenarioConfig, count: int) -> list[Point]:
    rng = random.Random(config.seed)
    dim, phi = config.dim, config.phi
    if config.generator == "uniform-cube":
        side = 0.95 * phi / math.sqrt(dim)
        if side < 1.0:
            raise ValueError("phi too small to fit distance-1-separated points")
        return _place_rejecting(
            rng, count, dim, lambda: tuple(rng.uniform(0.0, side) for _ in range(dim)),
            "uniform-cube",
        )
    if config.generator == "path":
        if count > phi:
            raise ValueError("path generator needs phi >= number of points")
        return [(k, (float(k + 1),) + (0.0,) * (dim - 1)) for k in range(count)]
    if config.generator == "clustered":
        side = 0.95 * phi / math.sqrt(dim)
        if side < 1.0:
            raise ValueError("phi too small to fit distance-1-separated points")
        k = max(1, count // 16)
        centers = [
            tuple(rng.uniform(0.0, side) for _ in range(dim)) for _ in range(k)
        ]
        spread = side / 16.0

        def sampler() -> tuple[float, ...]:
            c = centers[rng.randrange(k)]
            return tuple(
                min(side, max(0.0, x + rng.uniform(-spread, spread))) for x in c
            )

        return _place_rejecting(rng, count, dim, sampler, "clustered")
    if config.generator == "file":
        if config.points_file is None:
            raise ValueError("file generator needs points_file")
        with open(config.points_file) as fh:
            pts = parse_points(fh.read())
        if count > len(pts):
            raise ValueError(
                f"points file has {len(pts)} points, scenario needs {count}"
            )
        return pts[:count]
    raise ValueError(f"unknown generator {config.generator!r}")


# -- op planning --------------------------------------------------------------


def plan_ops(config: ScenarioConfig, pool: list[Point]) -> list[tuple[str, int]]:
    """Expand the scenario into a concrete (op, id) sequence."""
    rng = random.Random(config.seed + 1)
    plan: list[tuple[str, int]] = [("insert", pid) for pid, _ in pool[: config.n]]
    active = [pid for pid, _ in pool[: config.n]]
    nxt = config.n

    def take_insert() -> None:
        nonlocal nxt
        if nxt >= len(pool):
            raise ValueError("point pool exhausted; raise n or num_ops budget")
        plan.append(("insert", pool[nxt][0]))
        active.append(pool[nxt][0])
        nxt += 1

    if config.ops == "insert-only":
        for _ in range(config.num_ops):
            take_insert()
    elif config.ops == "mixed":
        for _ in range(config.num_ops):
            if active and rng.random() < config.p_delete:
                pid = rng.choice(sorted(active))
                active.remove(pid)
                plan.append(("delete", pid))
            else:
                take_insert()
    elif config.ops == "sliding-window":
        window = config.window or config.n
        for _ in range(config.num_ops):
            take_insert()
            while len(active) > window:
                plan.append(("delete", active.pop(0)))
    else:
        raise ValueError(f"unknown ops policy {config.ops!r}")
    return plan


def _check_every(check: str) -> int | None:
    """The k of a policy that checks every k-th update (and the last one),
    or None for ``none`` and ``final``.

    Raises ``ValueError`` for an unknown policy, and for ``every-<k>``
    unless k is an integer >= 1.
    """
    if check in ("none", "final"):
        return None
    if check == "every-update":
        return 1
    if check.startswith("every-"):
        k = check[len("every-"):]
        if k.isascii() and k.isdigit() and int(k) >= 1:
            return int(k)
        raise ValueError(f"check policy {check!r} needs every-<k> with an integer k >= 1")
    raise ValueError(f"unknown check policy {check!r}")


def _check_due(check: str, t: int, total: int) -> bool:
    k = _check_every(check)
    return check != "none" and (t == total or (k is not None and t % k == 0))


# -- checks -------------------------------------------------------------------


def locality_violations(space, report: UpdateReport) -> list[str]:
    """Net membership changes must stay within 2**level of the updated point."""
    pid = report.point
    out = []
    for level, member, _ in report.net_changes:
        if space.distance(member, pid) > float(1 << level):
            out.append(f"locality {level} {member} around {pid}")
    return out


def check_structure(
    structure: DynamicLightSpanner, report: UpdateReport | None = None
) -> list[str]:
    msgs: list[str] = []
    if report is not None:
        msgs += locality_violations(structure.space, report)
    msgs += oracle.validate_net_hierarchy(structure.hierarchy)
    msgs += oracle.check_invariants(
        structure.space,
        structure.base_edges(),
        structure.light_edges(),
        structure.eps,
    )
    return msgs


# -- the run loop -------------------------------------------------------------


def build_structure(config: ScenarioConfig, space: MetricSpace | None = None) -> DynamicLightSpanner:
    if space is None:
        space = MetricSpace(config.dim, config.phi)
    return DynamicLightSpanner(space, config.eps, config.mode)


def run(config: ScenarioConfig) -> RunResult:
    _check_every(config.check)  # refuse a bad policy before any update
    pool = generate_points(config, config.n + config.num_ops)
    coords = dict(pool)
    plan = plan_ops(config, pool)

    space = MetricSpace(config.dim, config.phi)
    structure = build_structure(config, space)
    reports: list[UpdateReport] = []
    messages: list[str] = []
    violations = 0

    sink = open(config.out, "w") if config.out else None
    try:
        for t, (op, pid) in enumerate(plan, start=1):
            if op == "insert":
                report = structure.insert(pid, coords[pid])
            else:
                report = structure.delete(pid)
            reports.append(report)
            if sink:
                sink.write(
                    json.dumps(
                        {
                            "op": report.op,
                            "id": report.point,
                            "added": len(report.added),
                            "removed": len(report.removed),
                            "time_ns": report.time_ns,
                            "ball_queries": report.ball_queries,
                            "relaxations": report.relaxations,
                        }
                    )
                    + "\n"
                )
            if _check_due(config.check, t, len(plan)):
                found = check_structure(structure, report)
                violations += len(found)
                messages += found
    finally:
        if sink:
            sink.close()

    summary = _summarise(config, structure, reports, violations, messages)
    return RunResult(config, space, structure, reports, summary)


def _summarise(
    config: ScenarioConfig,
    structure: DynamicLightSpanner,
    reports: list[UpdateReport],
    violations: int,
    messages: list[str],
) -> RunSummary:
    space = structure.space
    ids = sorted(space.active)
    light = structure.light_edges()

    mst = oracle.mst_weight_prim(space, ids) if len(ids) >= 2 else 0.0
    weight = structure.total_weight()
    lightness = weight / mst if mst > 0.0 and light else 0.0
    stretch = 0.0
    if config.check != "none" and len(ids) >= 2:
        stretch = oracle.max_stretch(space, ids, light)
    if config.check != "none" and config.mode == "fast":
        sweep = oracle.sweep_estimate_store(structure)
        violations += len(sweep)
        messages = messages + sweep

    recs = [r.recourse for r in reports] or [0]
    times = [r.time_ns for r in reports] or [0]
    return RunSummary(
        updates=len(reports),
        final_points=len(ids),
        edge_count=len(light),
        total_weight=weight,
        mst_weight=mst,
        lightness=lightness,
        max_stretch=stretch,
        max_recourse=max(recs),
        mean_recourse=sum(recs) / len(recs),
        max_time_ns=max(times),
        mean_time_ns=sum(times) / len(times),
        violations=violations,
        messages=messages[:32],
    )


# -- lightness sweep ----------------------------------------------------------


def lightness_sweep(
    sizes: list[int],
    eps: float = 0.5,
    seed: int = 0,
    mode: str = "exact",
    out: str | None = None,
) -> list[dict]:
    """Insert a 1-d unit-spaced path of each size, report both pools' lightness.

    Output rows have the light (output) and base (candidate pool)
    lightness; the path metric makes both exactly comparable across
    sizes since its spanning tree is always the unit path.
    """
    rows: list[dict] = []
    for n in sizes:
        config = ScenarioConfig(
            generator="path",
            n=n,
            dim=1,
            eps=eps,
            phi=float(n),
            seed=seed,
            mode=mode,
            check="none",
        )
        result = run(config)
        structure = result.structure
        mst = result.summary.mst_weight
        rows.append(
            {
                "n": n,
                "light_lightness": result.summary.lightness,
                "base_lightness": structure.base.total_weight() / mst if mst else 0.0,
                "light_edges": structure.edge_count(),
                "base_edges": structure.base.edge_count(),
            }
        )
    if out:
        with open(out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    return rows


def summary_dict(summary: RunSummary) -> dict:
    return asdict(summary)
