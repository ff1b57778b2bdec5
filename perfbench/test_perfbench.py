"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They spawn real `qlink` children from this checkout and take about two
minutes.  The repository's own suite does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from tracer import check_trace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def make_bench():
    made = []

    def make(tmp_path: Path, **kwargs) -> bench.Bench:
        out = tmp_path / "out"
        out.mkdir(parents=True)
        made.append(bench.Bench(root=bench.ROOT, out=out, **kwargs))
        return made[-1]

    yield make
    for b in made:
        b.close()


def test_tampered_golden_byte_counts_as_failure(make_bench, tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(bench.ROOT / "tests" / "golden", golden)
    data = bytearray((golden / "fig5.csv").read_bytes())
    data[-2] ^= 1
    (golden / "fig5.csv").write_bytes(bytes(data))
    b = make_bench(tmp_path, golden_dir=golden)
    workload = WORKLOADS["reproduce-figs"]
    invs, ctx = bench.prepare(b, workload, seed=1)
    bench.repeat_workload(b, workload, invs, ctx)
    assert b.attempted == 1 + 6  # warm-up set-up child and six figures
    assert len(b.failures) == 1 and b.failures[0].startswith("fig5:")


def test_nonzero_exit_counts_as_failure(make_bench, tmp_path):
    b = make_bench(tmp_path)
    workload = WORKLOADS["optimize-horizon"]
    invs, ctx = bench.prepare(b, workload, seed=1)
    b.config_path(invs[0]).write_text("{")  # qlink exits 2 on invalid JSON
    bench.repeat_workload(b, workload, invs, ctx)
    assert len(b.failures) == 1 and "exit 2" in b.failures[0]


def test_check_trace_flags_broken_traces():
    span = {"id": 1, "name": "cli.main", "parent": None, "thread": 1,
            "start": 0.0, "end": 1.0, "self_s": 0.5}
    child = dict(span, id=2, name="cli.run_optimize", parent=1, end=0.5, self_s=0.5)
    assert check_trace({"spans": [span, child], "leaves": []}) == []
    too_much_self = dict(span, self_s=1.5)
    assert check_trace({"spans": [too_much_self], "leaves": []})
    late_child = dict(child, start=0.0, end=1.5, self_s=1.5)
    assert check_trace({"spans": [span, late_child], "leaves": []})
    leaf = {"name": "cutoff.prob_active", "parent": "cli.run_optimize", "span": 2,
            "thread": 1, "calls": 3, "total_s": 0.4, "self_s": 0.1}
    inner = dict(leaf, name="cutoff.joint_prob", parent="cutoff.prob_active",
                 total_s=0.3, self_s=0.3)
    assert check_trace({"spans": [span, child], "leaves": [leaf, inner]}) == []
    assert check_trace({"spans": [span, child],
                        "leaves": [leaf, dict(inner, total_s=0.5, self_s=0.5)]})
    # children in a pool thread are attributed but not summed into the parent
    pooled = dict(leaf, thread=2, total_s=0.9, self_s=0.9)
    assert check_trace({"spans": [span, child], "leaves": [leaf, pooled]}) == []


@pytest.mark.parametrize("name", ["reproduce-figs", "sweep-grid"])
def test_traces_hold_invariants_and_counts_repeat(make_bench, tmp_path, name):
    b = make_bench(tmp_path)
    workload = WORKLOADS[name]
    invs, ctx = bench.prepare(b, workload, seed=1)
    layers = []
    for _ in range(2):
        _, layer = bench.traced_repetition(b, workload, invs, ctx)
        traces = [json.loads(p.read_text())
                  for p in sorted((b.out / "traces").glob("*.trace.json"))]
        for trace in traces:
            assert check_trace(trace) == []
        layers.append(layer)
    assert b.failures == []
    for count in bench.COUNTS:
        assert layers[0][count] == layers[1][count], count
    assert layers[0]["cli.compute.total_s"] > 0
    if name == "sweep-grid":
        assert layers[0]["cli.run_sweep.pool_ratio"] > 0
        assert layers[0]["cutoff.joint_prob.calls"] > 0
    else:
        assert layers[0]["network.collective_status.calls"] == 51


def test_seed_changes_only_simulate_outputs(make_bench, tmp_path):
    hashes = {}
    for seed in (1, 2):
        b = make_bench(tmp_path / str(seed))
        for workload in WORKLOADS.values():
            invs, ctx = bench.prepare(b, workload, seed)
            bench.repeat_workload(b, workload, invs, ctx)
        assert b.failures == []
        hashes[seed] = dict(b.first_hash)
    changed = {label for label in hashes[1] if hashes[1][label] != hashes[2][label]}
    assert changed == {"simulate"}


def test_summary_reports_the_percentile_with_ten_samples_beyond():
    assert bench.summary([3.0, 1.0, 2.0]) == {"median": 2.0, "high": None, "n": 3,
                                              "samples": [1.0, 2.0, 3.0]}
    values = [float(v) for v in range(40)]
    assert bench.summary(values)["high"] == {"percentile": 75.0, "value": 29.0}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
