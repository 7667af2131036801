"""Checks of the benchmark itself, at tiny simulated horizons.

Run from the repository root: python3 -m pytest perfbench/test_perfbench.py
"""

import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time

import pytest

import hostspeed
import run as bench

TINY = {  # (sim_duration_s, warmup_s) small enough for a test, long enough for IPG gaps
    "select-beta-11p": (0.35, 0.1),
    "11p-dense": (0.25, 0.05),
    "cv2x-dense": (0.35, 0.1),
}

# the per-layer metrics the benchmark is specified to report
NAMED_LAYER_METRICS = (
    "scenario.calls", "scenario.self_s", "channel.calls", "channel.self_s",
    "access.csma.calls", "access.csma.self_s", "access.csma.timer_pops",
    "access.csma.timer_useful_ratio", "access.sps.selections", "access.sps.self_s",
    "access.sps.keep_ratio", "engine.runs", "engine.self_s", "engine.reception.calls",
    "engine.reception.decisions", "engine.reception.self_s", "metrics.prr.calls",
    "metrics.prr.self_s", "metrics.ipg.calls", "metrics.ipg.self_s", "metrics.ccdf.self_s",
    "abstraction.self_s", "config.self_s", "cli.io.self_s", "access.tx_per_generated",
    "engine.reception.success_ratio", "trace.overhead_s",
)


def exact_layer_values(record):
    """Counts and ratios, which must repeat exactly for one seed."""
    return {name: m["value"] for name, m in record["layers"].items()
            if m["unit"] in ("count", "ratio")}


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_tracing_does_not_perturb_the_simulation(name):
    plain = bench.run_workload(name, seed=5, seconds=0, trace=False, horizon=TINY[name])
    traced = bench.run_workload(name, seed=5, seconds=0, trace=True, horizon=TINY[name])
    again = bench.run_workload(name, seed=5, seconds=0, trace=True, horizon=TINY[name])

    for record in (plain, traced, again):
        assert record["correct"], record["commands"]
        assert record["failed"] == 0
    assert [c["traced"] for c in traced["commands"]] == [False, True]
    # both runs open with the same scenario, which the untraced run repeats
    assert [c["run_seed"] for c in plain["commands"]] == [5000, 5000]
    assert [c["run_seed"] for c in traced["commands"]] == [5000, 5000]
    traced_fp = traced["commands"][1]["fingerprint"]
    assert traced_fp == plain["fingerprints"]["5000"]
    assert traced_fp["csv_sha256"] and len(traced_fp["runs"]) == bench.WORKLOADS[name].engine_runs

    assert set(NAMED_LAYER_METRICS) <= set(traced["layers"])
    assert exact_layer_values(traced) == exact_layer_values(again)

    layers = exact_layer_values(traced)
    assert layers["engine.runs"] == bench.WORKLOADS[name].engine_runs
    if bench.WORKLOADS[name].technology == "11p":
        assert layers["access.csma.calls"] > 0 and layers["access.sps.selections"] == 0
    else:
        assert layers["access.csma.calls"] == 0 and layers["access.sps.selections"] > 0
    assert plain["metrics"]["error_rate"]["value"] == 0
    assert all(plain["metrics"][n]["value"] > 0 for n in bench.END_TO_END)
    assert ("prr_mae" in plain["metrics"]) == (bench.WORKLOADS[name].command == "select-beta")


def test_summary_line_matches_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: u for n, u in bench.LAYER_METRICS.items() if n not in bench.REPORT_ONLY_LAYERS}


def test_run_seeds_give_each_untraced_command_its_own_scenario():
    assert list(itertools.islice(bench.run_seeds(7, trace=False), 5)) == [
        7000, 7000, 7001, 7002, 7003]
    assert list(itertools.islice(bench.run_seeds(7, trace=True), 3)) == [7000, 7000, 7000]


@pytest.mark.parametrize("values, expected", [
    ([3.0], 3.0), ([1.0, 2.0], 1.5), ([1.0, 2.0, 3.0, 4.0, 100.0], 3.0),
    ([100.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0], 4.5),
])
def test_interquartile_mean_drops_each_outer_quarter(values, expected):
    assert bench.interquartile_mean(values) == expected


def test_sampler_takes_its_own_time_out_and_divides_by_the_slowdown():
    sampler = hostspeed.Sampler()
    sampler.start()
    deadline = time.perf_counter() + 0.2
    while time.perf_counter() < deadline:
        pass
    sampler.stop()
    assert len(sampler.samples) >= 5
    slowdown = statistics.fmean(sampler.samples) / hostspeed.KERNEL_REF_S
    assert sampler.slowdown() == pytest.approx(slowdown)
    assert sampler.normalize(1.0) == pytest.approx((1.0 - sum(sampler.samples)) / slowdown)


def test_compare_reports_fingerprint_agreement(tmp_path, capsys):
    def record(seed, sha, wall):
        return {"workload": "cv2x-dense", "seed": seed,
                "fingerprints": {str(seed * 1000): {"csv_sha256": {"prr.csv": sha}, "runs": []}},
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

    a, b, c = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    a.write_text("".join(json.dumps(record(s, "x", 2.0 + s)) + "\n" for s in (1, 2, 3)))
    b.write_text("".join(json.dumps(record(s, "x", 1.0 + s)) + "\n" for s in (1, 2, 3)))
    c.write_text(json.dumps(record(2, "y", 1.0)) + "\n")
    assert bench.compare(str(a), str(b))
    out = capsys.readouterr().out
    assert "fingerprints match on 3 simulation seeds" in out
    assert "4 [3, 5] n=3" in out and "3 [2, 4] n=3" in out
    assert not bench.compare(str(a), str(c))
    assert "DIFFER on simulation seeds [2000]" in capsys.readouterr().out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / bench.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{bench.HERE.name}/run.py", "--workload",
                           "cv2x-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
