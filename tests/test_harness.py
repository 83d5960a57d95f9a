"""Scenario generation, the run loop, summaries, the sweep, and the CLI."""

import dataclasses
import json
import math

import pytest

from dynspan import cli
from dynspan.harness import (
    ScenarioConfig,
    _check_due,
    check_structure,
    generate_points,
    lightness_sweep,
    locality_violations,
    plan_ops,
    run,
    summary_dict,
)
from dynspan.light_spanner import DynamicLightSpanner
from dynspan.metric import MetricSpace, format_points, validate_bounded


def spaced(points):
    coords = [c for _, c in points]
    return all(
        math.dist(coords[a], coords[b]) >= 1.0
        for a in range(len(coords))
        for b in range(a + 1, len(coords))
    )


def test_path_generator_is_the_unit_path():
    config = ScenarioConfig(generator="path", n=8, dim=1, phi=8.0)
    assert generate_points(config, 8) == [(k, (float(k + 1),)) for k in range(8)]


def test_path_generator_pads_higher_dimensions():
    config = ScenarioConfig(generator="path", n=4, dim=3, phi=8.0)
    assert generate_points(config, 4)[2] == (2, (3.0, 0.0, 0.0))


def test_path_generator_needs_room():
    config = ScenarioConfig(generator="path", n=16, dim=1, phi=8.0)
    with pytest.raises(ValueError):
        generate_points(config, 16)


def test_generators_are_deterministic():
    for generator in ("uniform-cube", "clustered"):
        config = ScenarioConfig(generator=generator, n=48, dim=2, phi=512.0, seed=3)
        a = generate_points(config, 48)
        b = generate_points(config, 48)
        assert a == b
        assert format_points(a) == format_points(b)


def test_uniform_cube_is_bounded():
    config = ScenarioConfig(generator="uniform-cube", n=64, dim=2, phi=256.0, seed=0)
    points = generate_points(config, 64)
    assert spaced(points)
    side = max(abs(x) for _, c in points for x in c)
    assert side < 256.0 / math.sqrt(2)


def test_clustered_is_bounded():
    config = ScenarioConfig(generator="clustered", n=48, dim=3, phi=512.0, seed=1)
    points = generate_points(config, 48)
    assert spaced(points)


def test_infeasible_density_raises():
    config = ScenarioConfig(generator="uniform-cube", n=50, dim=1, phi=2.0, seed=0)
    with pytest.raises((ValueError, RuntimeError)):
        generate_points(config, 50)


def test_unknown_generator():
    with pytest.raises(ValueError):
        generate_points(ScenarioConfig(generator="surprise"), 4)


def test_file_generator_round_trip(tmp_path):
    source = ScenarioConfig(generator="uniform-cube", n=12, dim=2, phi=64.0, seed=7)
    points = generate_points(source, 12)
    path = tmp_path / "points.txt"
    path.write_text(format_points(points))
    config = ScenarioConfig(generator="file", points_file=str(path), n=12, dim=2, phi=64.0)
    assert generate_points(config, 12) == points
    with pytest.raises(ValueError):
        generate_points(config, 13)
    with pytest.raises(ValueError):
        generate_points(ScenarioConfig(generator="file"), 1)


def test_plan_insert_only():
    config = ScenarioConfig(n=3, num_ops=2, ops="insert-only")
    pool = [(k, (float(k),)) for k in range(5)]
    assert plan_ops(config, pool) == [("insert", k) for k in range(5)]


def test_plan_exhausted_pool():
    config = ScenarioConfig(n=3, num_ops=3, ops="insert-only")
    pool = [(k, (float(k),)) for k in range(5)]
    with pytest.raises(ValueError):
        plan_ops(config, pool)


def test_plan_mixed_is_deterministic_and_consistent():
    config = ScenarioConfig(n=8, num_ops=24, ops="mixed", p_delete=0.4, seed=5)
    pool = [(k, (float(k),)) for k in range(40)]
    plan = plan_ops(config, pool)
    assert plan == plan_ops(config, pool)
    assert len(plan) == 32
    alive = set()
    for op, pid in plan:
        if op == "insert":
            assert pid not in alive
            alive.add(pid)
        else:
            assert pid in alive
            alive.remove(pid)


def test_plan_sliding_window_caps_active_set():
    config = ScenarioConfig(n=6, num_ops=10, ops="sliding-window", window=4)
    pool = [(k, (float(k),)) for k in range(16)]
    alive = []
    for op, pid in plan_ops(config, pool):
        if op == "insert":
            alive.append(pid)
            assert len(alive) <= max(6, 4) + 1  # trimmed right after
        else:
            assert pid == alive.pop(0)  # oldest goes first
    assert len(alive) == 4


def test_plan_unknown_policy():
    with pytest.raises(ValueError):
        plan_ops(ScenarioConfig(ops="chaotic"), [])


def test_check_due_policies():
    assert not any(_check_due("none", t, 9) for t in range(1, 10))
    assert all(_check_due("every-update", t, 9) for t in range(1, 10))
    assert [t for t in range(1, 10) if _check_due("final", t, 9)] == [9]
    assert [t for t in range(1, 10) if _check_due("every-4", t, 9)] == [4, 8, 9]
    with pytest.raises(ValueError):
        _check_due("sometimes", 1, 9)


@pytest.mark.parametrize("check", ["every-0", "every--1", "every-x", "every-", "sometimes"])
def test_bad_check_policy_is_refused_before_any_update(tmp_path, check):
    out = tmp_path / "log.jsonl"
    with pytest.raises(ValueError):
        run(ScenarioConfig(n=4, phi=64.0, check=check, out=str(out)))
    assert not out.exists() or out.read_text() == ""
    with pytest.raises(ValueError):
        _check_due(check, 1, 9)


def test_empty_stream_yields_zero_summary():
    result = run(ScenarioConfig(n=0, check="final"))
    s = result.summary
    assert s.updates == 0 and s.final_points == 0 and s.edge_count == 0
    assert s.total_weight == 0.0 and s.mst_weight == 0.0 and s.lightness == 0.0
    assert s.max_stretch == 0.0 and s.max_recourse == 0 and s.violations == 0
    assert summary_dict(s)["updates"] == 0


def test_run_is_deterministic_up_to_timing():
    config = ScenarioConfig(
        generator="uniform-cube", n=16, dim=2, eps=0.5, phi=128.0, seed=6,
        ops="mixed", num_ops=12, p_delete=0.4, check="final",
    )
    a = run(config)
    b = run(config)
    assert a.structure.light_edges() == b.structure.light_edges()
    strip = lambda r: (r.op, r.point, r.added, r.removed, r.recourse, r.ball_queries)
    assert [strip(r) for r in a.reports] == [strip(r) for r in b.reports]
    da, db = summary_dict(a.summary), summary_dict(b.summary)
    for key in ("max_time_ns", "mean_time_ns"):
        da.pop(key), db.pop(key)
    assert da == db
    assert validate_bounded(a.space)[0]


def test_run_checked_scenario_is_clean():
    config = ScenarioConfig(
        generator="uniform-cube", n=14, dim=2, eps=0.5, phi=128.0, seed=8,
        ops="sliding-window", window=10, num_ops=10, check="every-update",
    )
    summary = run(config).summary
    assert summary.violations == 0 and summary.messages == []
    assert 0.0 < summary.max_stretch <= 2.5 + 1e-9


def test_far_net_change_is_a_locality_violation():
    structure = DynamicLightSpanner(MetricSpace(1, 8.0), 1.0)
    for pid in range(4):
        structure.insert(pid, (float(pid + 1),))
    report = structure.delete(0)
    assert check_structure(structure, report) == []
    # point 3 sits 3 away from point 0, farther than 2**1
    far = dataclasses.replace(report, net_changes=report.net_changes + [(1, 3, True)])
    assert locality_violations(structure.space, far) == ["locality 1 3 around 0"]
    assert check_structure(structure, far) == ["locality 1 3 around 0"]


def test_run_fast_mode_folds_estimate_sweep_into_checks():
    config = ScenarioConfig(
        generator="uniform-cube", n=12, dim=2, eps=0.5, phi=128.0, seed=2,
        mode="fast", ops="mixed", num_ops=8, p_delete=0.3, check="every-2",
    )
    summary = run(config).summary
    assert summary.violations == 0


def test_run_writes_one_json_line_per_update(tmp_path):
    out = tmp_path / "updates.jsonl"
    config = ScenarioConfig(
        generator="path", n=6, dim=1, phi=8.0, out=str(out), check="none"
    )
    result = run(config)
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == result.summary.updates == 6
    keys = {"op", "id", "added", "removed", "time_ns", "ball_queries", "relaxations"}
    assert all(set(line) == keys for line in lines)
    assert [line["ball_queries"] for line in lines] == [r.ball_queries for r in result.reports]
    assert [line["relaxations"] for line in lines] == [r.relaxations for r in result.reports]
    assert sum(line["relaxations"] for line in lines) > 0
    assert [line["id"] for line in lines] == [0, 1, 2, 3, 4, 5]


def test_sweep_path_of_two_has_unit_lightness():
    rows = lightness_sweep([2])
    assert rows[0]["light_lightness"] == 1.0
    assert rows[0]["base_lightness"] == 1.0


def test_sweep_reports_growing_pool_weight(tmp_path):
    out = tmp_path / "sweep.csv"
    rows = lightness_sweep([32, 64], out=str(out))
    assert [row["n"] for row in rows] == [32, 64]
    assert rows[1]["base_lightness"] > rows[0]["base_lightness"]
    assert rows[0]["light_lightness"] == pytest.approx(1.0)
    header, *body = out.read_text().splitlines()
    assert header == "n,light_lightness,base_lightness,light_edges,base_edges"
    assert len(body) == 2


# -- command line -----------------------------------------------------------------


def test_cli_reports_clean_run(capsys):
    code = cli.main(
        ["--scenario", "path", "--n", "16", "--dim", "1", "--phi", "16",
         "--check", "every-update"]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["violations"] == 0
    assert summary["final_points"] == 16


def test_cli_exit_reflects_violations(capsys, monkeypatch):
    # sabotage the update path: membership is never recomputed, so the
    # oracle must flag uncovered pool edges and the exit code must flip
    monkeypatch.setattr(DynamicLightSpanner, "_reselect_exact", lambda *a, **k: None)
    code = cli.main(
        ["--scenario", "path", "--n", "8", "--dim", "1", "--phi", "8",
         "--check", "every-update"]
    )
    assert code == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["violations"] > 0
    assert any("missing-cover" in m for m in summary["messages"])


def test_cli_sweep_prints_one_row_per_size(capsys):
    assert cli.main(["--sweep", "--n", "64", "--seed", "1"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["n"] for row in rows] == [32, 64]


def test_cli_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        cli.main(["--scenario", "torus"])
