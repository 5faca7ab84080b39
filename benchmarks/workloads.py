"""The three Monte-Carlo workloads and their unit of work, the op.

Every workload is a study made of passes; a pass is a fixed list of ops and
the harness runs whole passes until its time budget is used.  An op keeps
what it produced (the path runs it made, its final stresses and energies)
so the outputs can be checked after the timed phase.

* ``cli-cyclic-L6``: one op is one in-process ``rveplast.cli.main``
  invocation of the cyclic preset at L=6 with M=3 samples; op i uses master
  seed ``seed + i``.  A nonzero exit code is a failed op.
* ``mono-L30``: one op is one monotonic-preset path run at L=30 (sample ids
  continue from pass to pass under master seed ``seed``).
* ``error-study-L18``: the nested-restriction study on the monotonic path,
  sampled on L_max=18 and restricted to L in {6, 10, 14, 18}, sample ids
  1..8 under the study seed 20240.  One op is one (L, sample) path run.  The
  study contains a known solver stall (sample 7 at L=18, step 20); the op
  fails alone and the rest of the study still runs.  ``seed`` only shuffles
  the order of the ops, so every seed measures the same study.
"""

from __future__ import annotations

import csv
import io
import random
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import rveplast as rp
import rveplast.cli
from calibration import CalibratingList, Calibrator
from tracing import rebound

ERROR_STUDY_SEED = 20240
# stress component and regime times (those of rveplast.stats) of the error study's slope fit
_FIT_COMPONENT = 0
_FIT_TIMES = (0.08, 0.22, 1.0)


@dataclass
class PathRun:
    """One ``run_path`` call: its inputs and what it returned or raised."""

    real: rp.Realization
    path: rp.StrainPath
    reports: list = field(default_factory=list)
    records: list | None = None
    error: Exception | None = None


def path_key(kind: str, n_steps: int, seed: int, sample_id: int, L: int) -> str:
    """Reference key of one path run: path kind and steps, master seed, sample id, L."""
    return f"{kind}{n_steps}/{seed}/{sample_id}/{L}"


def _path_failure(run: PathRun) -> dict:
    err = run.error
    report = getattr(getattr(err, "cause", None), "report", None)
    return {
        "L": run.real.L,
        "sample": run.real.sample_id,
        "master_seed": run.real.seed,
        "step": getattr(err, "step", None),
        "residual": getattr(report, "residual", None),
        "reason": str(err),
    }


class PathOp:
    """One path run made by the benchmark itself (mono and error-study ops)."""

    def __init__(self, kind: str, path: rp.StrainPath, make_real):
        self.kind = kind
        self.path = path
        self._make_real = make_real
        self.runs: list[PathRun] = []
        self.seconds = float("nan")
        self.failure: dict | None = None

    def clone(self) -> "PathOp":
        return PathOp(self.kind, self.path, self._make_real)

    def run(self, calibrator: Calibrator | None = None) -> None:
        run = PathRun(self._make_real(), self.path, CalibratingList(calibrator))
        self.runs = [run]
        try:
            run.records = rp.run_path(run.real, self.path, reports=run.reports)
        except rp.PathError as err:
            run.error = err
            self.failure = _path_failure(run)

    def increments(self) -> int:
        return sum(len(run.reports) for run in self.runs)

    def outputs(self) -> dict[str, tuple[np.ndarray, float]]:
        """Final stress vector and energy per path run, by reference key."""
        out = {}
        for run in self.runs:
            if run.records is not None:
                record = run.records[-1][1]
                key = path_key(self.kind, self.path.n_steps, run.real.seed, run.real.sample_id, run.real.L)
                out[key] = (np.asarray(record.s, dtype=float), float(record.energy))
        return out


class Capture:
    """Records every ``run_path`` call the library makes through ``rveplast.stats``."""

    TARGET = (("rveplast.stats", "run_path", "capture"),)

    def __init__(self):
        self.runs: list[PathRun] = []
        self.absent: list[str] = []
        self.calibrator: Calibrator | None = None

    def wrap(self, _layer, fn):
        def run_path(real, path, *args, **kwargs):
            if self.calibrator is not None:
                self.calibrator.tick()
            run = PathRun(real, path, kwargs.setdefault("reports", []))
            self.runs.append(run)
            try:
                run.records = fn(real, path, *args, **kwargs)
            except rp.PathError as err:
                run.error = err
                raise
            return run.records

        return run_path

    @contextmanager
    def installed(self):
        with rebound(self.TARGET, self.wrap, self.absent):
            yield


class CliOp:
    """One in-process CLI invocation of the cyclic experiment."""

    def __init__(self, capture: Capture, argv: list[str], out_dir: Path, seed: int, L: int, N: int):
        self.capture = capture
        self.argv = argv  # without --out
        self.out_dir = out_dir
        self.seed = seed
        self.L = L
        self.N = N
        self.runs: list[PathRun] = []
        self.seconds = float("nan")
        self.failure: dict | None = None
        self.exit_code: int | None = None

    def clone(self) -> "CliOp":
        out_dir = self.out_dir.with_name(self.out_dir.name + "-again")
        return CliOp(self.capture, self.argv, out_dir, self.seed, self.L, self.N)

    def run(self, calibrator: Calibrator | None = None) -> None:
        self.capture.runs = self.runs = []
        self.capture.calibrator = calibrator
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            self.exit_code = rveplast.cli.main(self.argv + ["--out", str(self.out_dir)])
        if self.exit_code != 0:
            failed = [run for run in self.runs if run.error is not None]
            self.failure = _path_failure(failed[0]) if failed else {"reason": sink.getvalue().strip()}
            self.failure["exit_code"] = self.exit_code

    def increments(self) -> int:
        if self.runs:
            return sum(len(run.reports) for run in self.runs)
        return 0 if self.failure else len(self.outputs()) * self.N

    def outputs(self) -> dict[str, tuple[np.ndarray, float]]:
        """Final stress and energy per sample, read back from the trajectory CSV."""
        if self.failure is not None:
            return {}
        final: dict[int, tuple[int, np.ndarray, float]] = {}
        with (self.out_dir / "cyclic_trajectories.csv").open(newline="") as handle:
            for row in csv.DictReader(handle):
                sample_id, step = int(row["sample_id"]), int(row["l"])
                if sample_id not in final or step > final[sample_id][0]:
                    s = np.array([float(row[c]) for c in ("s1", "s2", "s3")])
                    final[sample_id] = (step, s, float(row["energy"]))
        return {
            path_key("cyclic", self.N, self.seed, sample_id, self.L): (s, energy)
            for sample_id, (_, s, energy) in final.items()
        }


class Study:
    """Defaults for a workload whose ops need no capture and whose passes need no reduction."""

    def hooks(self):
        return nullcontext()

    def finish_pass(self, ops) -> str:
        return ""


class CliCyclic(Study):
    name = "cli-cyclic-L6"

    def __init__(self, seed: int, out_dir: Path, toy: bool):
        self.seed = seed
        self.out_dir = out_dir
        self.L, self.M, self.N, self.ops_per_pass = (4, 1, 3, 2) if toy else (6, 3, 50, 4)
        self.capture = Capture()
        self.describe = (
            f"cyclic preset via rveplast.cli.main, L={self.L}, M={self.M} samples per op, "
            f"N={self.N}, master seed {seed}+i for op i"
        )

    def hooks(self):
        return self.capture.installed()

    def pass_ops(self, k: int) -> list[CliOp]:
        ops = []
        for i in range(k * self.ops_per_pass, (k + 1) * self.ops_per_pass):
            out_dir = self.out_dir / f"op{i}"
            argv = [
                "cyclic", "--L", str(self.L), "--M", str(self.M), "--N", str(self.N),
                "--seed", str(self.seed + i), "--threads", "1",
            ]  # fmt: skip
            ops.append(CliOp(self.capture, argv, out_dir, self.seed + i, self.L, self.N))
        return ops


class MonoL30(Study):
    name = "mono-L30"

    def __init__(self, seed: int, out_dir: Path, toy: bool):
        self.seed = seed
        self.L, N, self.ops_per_pass = (4, 3, 1) if toy else (30, 50, 3)
        self.path = rp.monotonic_path(n_steps=N)
        self.law = rp.MaterialLaw()
        self.describe = (
            f"monotonic preset path, L={self.L}, N={N}, {self.ops_per_pass} samples per pass, "
            f"master seed {seed}"
        )

    def pass_ops(self, k: int) -> list[PathOp]:
        first = k * self.ops_per_pass + 1
        return [
            PathOp("monotonic", self.path, lambda i=i: rp.sample(self.law, self.seed, i, self.L))
            for i in range(first, first + self.ops_per_pass)
        ]


class ErrorStudyL18(Study):
    name = "error-study-L18"

    def __init__(self, seed: int, out_dir: Path, toy: bool):
        self.seed = seed
        if toy:
            self.L_max, self.Ls, self.M, N = 4, (3, 4), 1, 3
        else:
            self.L_max, self.Ls, self.M, N = 18, (6, 10, 14, 18), 8, 50
        self.path = rp.monotonic_path(n_steps=N)
        self.law = rp.MaterialLaw()
        self.describe = (
            f"nested-restriction study on the monotonic path, L_max={self.L_max}, "
            f"L in {list(self.Ls)}, samples 1..{self.M}, N={N}, study seed "
            f"{ERROR_STUDY_SEED}, op order shuffled by seed {seed}"
        )

    def pass_ops(self, k: int) -> list[PathOp]:
        bigs: dict[int, rp.Realization] = {}

        def restricted(sample_id: int, L: int) -> rp.Realization:
            if sample_id not in bigs:
                bigs[sample_id] = rp.sample(self.law, ERROR_STUDY_SEED, sample_id, self.L_max)
            return rp.restrict(bigs[sample_id], L)

        pairs = [(i, L) for i in range(1, self.M + 1) for L in self.Ls]
        random.Random(self.seed + k).shuffle(pairs)
        return [
            PathOp("monotonic", self.path, lambda i=i, L=L: restricted(i, L)) for i, L in pairs
        ]

    def finish_pass(self, ops) -> str:
        """The study's result: log-log slopes of e_sys(L) at the regime times.

        Means are taken over the samples that completed at every L, so a
        failed op shrinks the ensemble instead of biasing one cell size.
        """
        stresses: dict[tuple[int, int], np.ndarray] = {}
        for op in ops:
            for run in op.runs:
                if run.records is not None:
                    stresses[run.real.sample_id, run.real.L] = np.array([rec.s for _, rec in run.records])
        complete = [i for i in range(1, self.M + 1) if all((i, L) in stresses for L in self.Ls)]
        if not complete:
            return "no sample completed at every L"
        mean = {L: np.mean([stresses[i, L] for i in complete], axis=0) for L in self.Ls}
        fit_Ls = [L for L in self.Ls if L != self.L_max]
        slopes = []
        for t in _FIT_TIMES:
            step = int(np.argmin(np.abs(self.path.times - t)))
            e_sys = [abs(mean[L][step, _FIT_COMPONENT] - mean[self.L_max][step, _FIT_COMPONENT]) for L in fit_Ls]
            if len(fit_Ls) >= 2 and min(e_sys) > 0:
                slopes.append(f"t={t}: {rp.loglog_slope(fit_Ls, e_sys):+.3f}")
        return f"e_sys slopes over {len(complete)} of {self.M} samples: " + (", ".join(slopes) or "none")


WORKLOADS = {cls.name: cls for cls in (CliCyclic, MonoL30, ErrorStudyL18)}
