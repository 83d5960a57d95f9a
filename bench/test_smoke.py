"""Smoke tests for the benchmark: every workload at a tiny size.

Run from the repository root with ``python3 -m pytest bench``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

TINY = {
    "window-exact": dict(fill=8, steps=4),
    "window-fast": dict(fill=8, steps=4),
    "path-grow": dict(phi=16.0, fill=8, steps=8),
}


def tiny(name):
    return dataclasses.replace(run.WORKLOADS[name], **TINY[name])


def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(run.WORKLOADS)
    assert {w["name"] for w in declared()["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_end_to_end_metrics_named_with_units(name):
    result = run.result_line(run.measure(tiny(name), seed=3, seconds=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    record = run.measure(tiny(name), seed=3, seconds=0, trace=True)
    result = run.result_line(record)
    assert result["correct"]
    spec = {m["name"]: m["unit"] for m in declared()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["oracle.violations"] == 0
    assert m["net_tree.ball_calls"] == m["light_spanner.ball_queries"]
    assert 0.9 < m["trace.self_time_share"] <= 1.0
    if run.WORKLOADS[name].mode == "fast":
        assert m["light_spanner.relaxations"] == 0
        assert m["light_spanner.sketch_dijkstra_calls"] > 0
    else:
        assert m["light_spanner.relaxations"] > 0
        assert m["light_spanner.sketch_dijkstra_calls"] == 0
    spans = os.path.join(run.OUT_DIR, f"{name}-seed3.spans.jsonl")
    with open(spans) as fh:
        first = json.loads(fh.readline())
    assert {"id", "parent", "update", "name", "start_ns", "end_ns"} <= set(first)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_seed_repeats_counts_and_quality(name):
    deterministic = ["lightness", "edges_per_point", "max_stretch", "mean_recourse"]
    a = run.measure(tiny(name), seed=5, seconds=0)
    b = run.measure(tiny(name), seed=5, seconds=0)
    assert a["attempted"] == b["attempted"]
    assert [a["metrics"][k] for k in deterministic] == [b["metrics"][k] for k in deterministic]
    for k in ("max_recourse", "stretch_over_eps_checks"):
        assert a["extra"][k] == b["extra"][k]
    counts = [k for k, (unit, _) in run.PER_LAYER.items() if unit == "count"]
    ta = run.measure(tiny(name), seed=5, seconds=0, trace=True)["metrics"]
    tb = run.measure(tiny(name), seed=5, seconds=0, trace=True)["metrics"]
    assert [ta[k] for k in counts] == [tb[k] for k in counts]


def test_inputs_depend_on_seed_only():
    w = run.WORKLOADS["window-exact"]
    assert run.make_inputs(w, 11) == run.make_inputs(w, 11)
    assert run.make_inputs(w, 11) != run.make_inputs(w, 12)
    exact = run.make_inputs(w, 11)
    fast = run.make_inputs(run.WORKLOADS["window-fast"], 11)
    assert exact == fast


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "window-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
