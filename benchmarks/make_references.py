"""Regenerate references.json, the stored outputs the benchmark checks ops against.

    python3 benchmarks/make_references.py

Runs the ops of each workload at full size for the seeds below, checks each
by its certificate and energies, and stores the final stress vector and
energy of every path run that passes.  Ops that fail (such as the known
error-study stall) get no reference; once fixed, they are checked by the
certificate alone.  Run it only when a change is meant to alter outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

import rveplast as rp  # noqa: E402

# (workload, --seed, passes): cli pass k runs ops 4k..4k+3 and op i uses
# master seed seed+i; mono pass k uses sample ids 3k+1..3k+3 under the seed;
# the error study is pinned to its study seed
PLAN = (
    [("cli-cyclic-L6", 0, 30), ("cli-cyclic-L6", 20240, 15)]
    + [("mono-L30", seed, 1) for seed in (*range(31), 20240)]
    + [("error-study-L18", 20240, 1)]
)


def main() -> int:
    tol = rp.SolverSettings().tol_residual
    scratch = ROOT / ".bench_out" / "references-files"
    references = {}
    for name, seed, passes in PLAN:
        workload = workloads.WORKLOADS[name](seed, scratch, toy=False)
        with workload.hooks():
            for k in range(passes):
                for op in workload.pass_ops(k):
                    op.run()
                    if op.failure is not None:
                        print(f"{name} seed {seed}: no reference for failed op {op.failure}")
                        continue
                    problems, _ = checks.check_op(op, {}, tol)
                    if problems:
                        raise SystemExit(f"{name} seed {seed}: op fails its checks: {problems}")
                    for key, (s, energy) in op.outputs().items():
                        references[key] = [*map(float, s), energy]
        print(f"{name} seed {seed}: {len(references)} references so far", flush=True)
    shutil.rmtree(scratch, ignore_errors=True)
    checks.REFERENCE_FILE.write_text(json.dumps(references, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
