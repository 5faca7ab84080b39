"""Smoke test of the benchmark at toy size (L=4, N=3, one or two ops per pass).

    python3 -m pytest -q benchmarks/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the per-layer self times add up to the traced wall time within the
stated overhead, that a seed other than the default runs cleanly, that a
missing hook target is reported as absent, and that the benchmark refuses
to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "0.5"]
    argv += ["--trace", str(trace), "--size", "toy"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done) -> tuple[dict, str]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result, "\n".join(lines[:-1])


def assert_metrics(result: dict, text: str, spec: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert math.isfinite(reported["value"])
        line = next(line for line in text.splitlines() if line.split()[:1] == [m["name"]])
        assert line.split()[2] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_end_to_end_metrics_on_another_seed(workload):
    result, text = result_of(run_bench(workload, seed=7, trace=0))
    assert_metrics(result, text, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert "numba_importable" in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_to_wall_time(workload):
    result, text = result_of(run_bench(workload, seed=20240, trace=1))
    assert_metrics(result, text, SPEC["per_layer"])
    assert result["correct"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    wall = values["trace.wall_s"]
    layer_self = sum(
        value
        for name, value in values.items()
        if name.endswith("_s") and not name.startswith("trace.")
    )
    unattributed = values["trace.unattributed_s"]
    assert layer_self + unattributed == pytest.approx(wall, rel=1e-6)
    assert unattributed <= wall * max(values["trace.overhead_frac"], 0.05)


def test_missing_hook_target_is_reported_absent():
    import tracing
    import workloads

    table = [target for target in tracing.HOOKS if target[2] != "assembly.energy"]
    table += [
        ("rveplast.solver", "no_such_function", "assembly.energy"),
        ("rveplast.no_such_module", "main", "cli"),
    ]
    tracer = tracing.Tracer()
    workload = workloads.MonoL30(7, ROOT / ".bench_out" / "smoke", toy=True)
    with tracer.hooks(table):
        for op in workload.pass_ops(0):
            op.run()
    metrics, absent = tracing.layer_metrics(tracer)
    assert set(tracer.absent) == {"rveplast.solver.no_such_function", "rveplast.no_such_module.main"}
    assert set(absent) == {
        "assembly.energy_calls",
        "assembly.energy_s",
        "solver.energy_evals_per_factor",
    }
    assert metrics["solver.factor_calls"][0] > 0
    import rveplast.solver

    assert not hasattr(rveplast.solver.increment_energy, "__wrapped__")


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(WORKLOADS[0], seed=7, trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_calibration_scales_by_reference_over_mean_kernel_time():
    from calibration import REFERENCE_S, Calibrator

    calibrator = Calibrator()
    calibrator.seconds = [1.0, 2 * REFERENCE_S, 4 * REFERENCE_S]
    assert calibrator.since(1) == pytest.approx(4 * REFERENCE_S)
    assert calibrator.scale(1) == pytest.approx(1 / 3)
