"""Benchmark of the rveplast Monte-Carlo studies.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload cli-cyclic-L6 --seed 20240 --seconds 15 --trace 0

The run measures set-up (import plus one warm-up increment, in fresh
interpreters), then runs whole passes of the workload's study until
``--seconds`` is used, checks every op's outputs and prints the metrics.
With ``--trace 0`` it prints the end-to-end metrics, the study's times scaled to a
reference machine speed by a calibration kernel timed between the ops (see
``calibration.py``; the raw times are printed too); with ``--trace 1`` it
records spans around every hooked program call and prints the per-layer
metrics, then reruns some ops without tracing to state the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The timed phase runs
in one process on one thread.  A record of the run (machine, metrics, failed
ops) and, for traced runs, the spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from importlib.util import find_spec
from pathlib import Path

from calibration import REFERENCE_S, Calibrator
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 20240
SETUP_REPEATS = 5
# share of --seconds spent rerunning ops untraced (and as long again traced)
# to measure the tracing overhead
CONTROL_SHARE = 0.15
# end-to-end metrics reported at the calibration kernel's reference speed
SCALED = ("study_s", "increments_per_s", "op_s_p50")

# import plus one warm-up increment (L=4, one step), timed inside a fresh interpreter
SETUP_CODE = """
import time
t0 = time.perf_counter()
import rveplast as rp
rp.run_path(rp.sample(rp.MaterialLaw(), 20240, 1, 4), rp.monotonic_path(n_steps=1))
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0, help="time budget of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "toy"), default="full", help="toy: L=4, N=3, one or two ops per pass"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def single_thread_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "RVE_PLAST_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def measure_setup(repeats: int) -> list[float]:
    """Set-up seconds measured in ``repeats`` fresh interpreters."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT,
            env=single_thread_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return times


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": find_spec("numba") is not None,
        "platform": platform.platform(),
    }


def timed_phase(workload, seconds: float, tracer, calibrator):
    """Run whole passes until the next one would overrun ``seconds``; at least one.

    Returns the passes as (raw seconds, reference-speed seconds, ops), the
    study results and the peak resident memory in MB through the first
    pass, a fixed amount of work (later passes keep more ops' outputs for
    the checks).  Each op gets ``seconds`` and ``ref_seconds`` likewise.
    Traced runs are not calibrated: their two times are the same.
    """
    span = tracer.span if tracer is not None else (lambda _name: nullcontext())

    def timed(run):
        first = calibrator.mark() if calibrator is not None else None
        t0 = time.perf_counter()
        run()
        wall = time.perf_counter() - t0
        if calibrator is None:
            return wall, wall, wall
        raw = wall - calibrator.since(first)
        return wall, raw, raw * calibrator.scale(first)

    def one_pass(ops):
        with span("bench.pass"):
            for op in ops:
                with span("bench.op"):
                    _, op.seconds, op.ref_seconds = timed(lambda: op.run(calibrator))
            results.append(workload.finish_pass(ops))

    passes, results = [], []
    start = time.perf_counter()
    while True:
        ops = workload.pass_ops(len(passes))
        wall, raw, ref = timed(lambda: one_pass(ops))
        passes.append((raw, ref, ops))
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - start + wall > seconds:
            return passes, results, peak_rss_mb


def control_overhead(workload, ops, budget: float) -> tuple[float, int]:
    """Rerun completed ops untraced and traced, back to back; return (traced / untraced - 1, ops).

    Each op runs once each way in alternating order, so a drift of machine
    speed during the run cancels out of the ratio; the traced reruns record
    into a throwaway tracer.
    """
    seconds = {False: 0.0, True: 0.0}
    count = 0
    with workload.hooks():
        for op in ops:
            if op.failure is not None:
                continue
            for traced in (False, True) if count % 2 == 0 else (True, False):
                again = op.clone()
                with Tracer().hooks() if traced else nullcontext():
                    t0 = time.perf_counter()
                    again.run()
                    seconds[traced] += time.perf_counter() - t0
            count += 1
            if seconds[False] >= budget:
                break
    return (seconds[True] / seconds[False] - 1.0 if count else 0.0), count


def check_outputs(workload_name: str, ops, tol: float):
    """Check every completed op.

    Returns (failure records, problems, ops checked against stored references,
    ops checked by the certificate and energies alone).
    """
    import checks

    references = checks.load_references()
    failures, problems = [], []
    referenced = unreferenced = 0
    for index, op in enumerate(ops):
        if op.failure is None:
            found, has_refs = checks.check_op(op, references, tol)
            referenced += has_refs
            unreferenced += not has_refs
            if found:
                problems.extend(found)
                op.failure = {"reason": "; ".join(found)}
        if op.failure is not None:
            failures.append({"workload": workload_name, "op": index, **op.failure})
    return failures, problems, referenced, unreferenced


def end_to_end_metrics(setup_times, passes, peak_rss_mb: float, at_reference: bool = True):
    """{name: (value, unit)}; times at reference speed, or raw with ``at_reference=False``.

    Set-up is always raw: most of it is imports, whose time did not follow
    the calibration kernel's (scaling it widened its spread between runs).
    """
    # medians over passes, so one pass slowed by a stalled op moves them little
    col = 1 if at_reference else 0
    study = [p[col] for p in passes]
    ops = [op for *_, pass_ops in passes for op in pass_ops]
    rates = [sum(op.increments() for op in p[2]) / seconds for p, seconds in zip(passes, study)]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "study_s": (statistics.median(study), "s"),
        "increments_per_s": (statistics.median(rates), "1/s"),
        "op_s_p50": (statistics.median(op.ref_seconds if at_reference else op.seconds for op in ops), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rveplast" / "__init__.py").is_file():
        print(f"run.py: no rveplast sources under {SRC}", file=sys.stderr)
        return 1
    os.environ.update({k: v for k, v in single_thread_env().items() if k != "PYTHONPATH"})
    sys.path.insert(0, str(SRC))

    import workloads

    import rveplast as rp

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    toy = args.size == "toy"
    setup_times = [] if args.trace else measure_setup(2 if toy else SETUP_REPEATS)
    calibrator = None if args.trace else Calibrator()
    rp.run_path(rp.sample(rp.MaterialLaw(), 20240, 1, 4), rp.monotonic_path(n_steps=1))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-toy" if toy else "")
    scratch = OUT / f"{tag}-files"
    shutil.rmtree(scratch, ignore_errors=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch, toy)
    tracer = Tracer() if args.trace else None

    with workload.hooks(), (tracer.hooks() if tracer is not None else nullcontext()):
        passes, results, peak_rss_mb = timed_phase(workload, args.seconds, tracer, calibrator)
    ops = [op for *_, pass_ops in passes for op in pass_ops]
    notes = {"passes": len(passes), "ops": len(ops)}
    if tracer is None:
        metrics, absent = end_to_end_metrics(setup_times, passes, peak_rss_mb), []
        raw = end_to_end_metrics(setup_times, passes, peak_rss_mb, at_reference=False)
        notes["raw_times"] = {name: f"{value:.6g} {unit}" for name, (value, unit) in raw.items() if name in SCALED}
        notes["calibration"] = (
            f"times at reference speed: raw * {REFERENCE_S} s / mean calibration kernel time; "
            f"{len(calibrator.seconds)} kernels, median {statistics.median(calibrator.seconds):.6g} s"
        )
    else:
        overhead, n_control = control_overhead(workload, ops, CONTROL_SHARE * args.seconds)
        metrics, absent = layer_metrics(tracer)
        metrics["trace.overhead_frac"] = (overhead, "frac")
        notes["trace.overhead_frac"] = f"traced / untraced time of {n_control} ops rerun both ways - 1"
        notes["absent_hooks"] = tracer.absent
        notes["absent_metrics"] = absent

    failures, problems, referenced, unreferenced = check_outputs(args.workload, ops, rp.SolverSettings().tol_residual)
    shutil.rmtree(scratch, ignore_errors=True)
    attempted, failed = len(ops), len(failures)
    notes["op_fail_frac"] = f"{failed / attempted:.6g} frac ({failed} of {attempted} ops failed)"
    notes["ops_checked_against_references"] = referenced
    notes["ops_checked_by_certificate_alone"] = unreferenced
    notes["ops_without_captured_path_runs"] = sum(1 for op in ops if not op.runs)
    notes["study_results"] = sorted(set(filter(None, results)))

    record = {
        "workload": args.workload,
        "describe": workload.describe,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": machine_record(),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "notes": notes,
        "failures": failures,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{tag}-spans.csv")

    print(f"workload {args.workload}: {workload.describe}")
    print(f"machine {json.dumps(record['machine'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}" + ("  (absent: hook not found)" if name in absent else ""))
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for failure in failures:
        print(f"  FAILED op {json.dumps(failure, default=str)}")
    print(f"record written to {OUT / (tag + '.json')}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed}
    print(json.dumps({**result, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
