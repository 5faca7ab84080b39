"""Monte-Carlo averaging of stress trajectories and error-scaling studies.

A study is one job per sample id: the job samples its id once on the
study's box (L_max for the nested-restriction error study), cuts every
cell size from it with ``restrict`` and runs the path on each cut.
``threads`` worker processes run the jobs, each on one BLAS thread, and
the reduction takes them in ascending sample-id order.  On one BLAS thread
results are bitwise independent of the worker count; a caller on
OpenBLAS's default threads factors cells with L >= 38 differently in the
last bits, so there one worker, the caller itself, and several can differ.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .driver import StrainPath, run_path
from .randfield import MaterialLaw, Realization, restrict, sample
from .solver import SolverSettings

# one BLAS thread per worker process, which a spawned interpreter takes from
# its environment; a forked one would inherit the caller's BLAS threads
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class McEnsemble:
    """Per-sample stress trajectories of M independent realizations."""

    L: int
    M: int
    times: np.ndarray  # shape (N+1,)
    f11: np.ndarray  # shape (N+1,)
    stresses: np.ndarray  # shape (M, N+1, K)
    fractions: np.ndarray  # shape (M, N+1, K)
    energies: np.ndarray  # shape (M, N+1)
    mean: np.ndarray  # shape (N+1, K): arithmetic mean over samples
    max_residual: float  # worst optimality residual over all increments
    max_residual_rel: float  # worst residual / (1 + max|f|) over all increments
    energy_monotone: bool  # every solve's energy sequence was nonincreasing

    def variance(self) -> np.ndarray:
        """Biased (divide-by-M) sample variance per time step and component."""
        return np.mean((self.stresses - self.mean) ** 2, axis=0)


def _run_one(real: Realization, path: StrainPath, settings: SolverSettings | None):
    reports = []
    records = run_path(real, path, settings=settings, reports=reports)
    return (
        np.array([rec.s for _, rec in records]),
        np.array([rec.fractions for _, rec in records]),
        np.array([rec.energy for _, rec in records]),
        max((rep.residual for rep in reports), default=0.0),
        max((rep.residual / (1.0 + rep.load_norm) for rep in reports), default=0.0),
        all(b <= a for rep in reports for a, b in zip(rep.energies, rep.energies[1:])),
    )


def _run_sample(law, seed, sample_id, box, Ls, path, settings):
    """One job: sample the id once on the box, cut each L from it and run the path on every cut."""
    big = sample(law, seed, sample_id, box)
    return [_run_one(restrict(big, L), path, settings) for L in Ls]


@contextmanager
def _worker_env():
    """``os.environ`` holds ``_WORKER_ENV`` inside the block, the caller's values after it."""
    saved = {key: os.environ.get(key) for key in _WORKER_ENV}
    os.environ.update(_WORKER_ENV)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value


def _study(law, seed, M, box, Ls, path, settings, threads) -> dict[int, McEnsemble]:
    """Run the jobs of sample ids 1..M and reduce them to one ensemble per L of ``Ls``."""
    if M < 1:
        raise ValueError("need at least one sample")
    if threads < 1:
        raise ValueError(f"need at least one worker, got threads={threads}")
    jobs = [(law, seed, i, box, Ls, path, settings) for i in range(1, M + 1)]
    workers = min(threads, M, os.cpu_count() or 1)
    if workers == 1:
        results = [_run_sample(*job) for job in jobs]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("spawn")
        with _worker_env(), ProcessPoolExecutor(workers, mp_context=context) as pool:
            results = list(pool.map(_run_sample, *zip(*jobs)))
    ensembles = {}
    for j, L in enumerate(Ls):
        stresses, fractions, energies, residuals, residuals_rel, monotone = zip(*(r[j] for r in results))
        stresses = np.array(stresses)
        ensembles[L] = McEnsemble(
            L=L,
            M=M,
            times=path.times.copy(),
            f11=path.tensors[:, 0].copy(),
            stresses=stresses,
            fractions=np.array(fractions),
            energies=np.array(energies),
            mean=stresses.mean(axis=0),
            max_residual=max(residuals),
            max_residual_rel=max(residuals_rel),
            energy_monotone=all(monotone),
        )
    return ensembles


def monte_carlo(
    law: MaterialLaw,
    L: int,
    M: int,
    seed: int,
    path: StrainPath,
    settings: SolverSettings | None = None,
    threads: int = 1,
) -> McEnsemble:
    """Run the path for sample ids 1..M on ``threads`` workers and average the stress trajectories."""
    return _study(law, seed, M, L, [L], path, settings, threads)[L]


@dataclass(frozen=True)
class SlopeFit:
    quantity: str
    t_label: str
    window: tuple[int, ...]
    slope: float


@dataclass(frozen=True)
class ErrorTable:
    """Systematic errors and sample variances over a range of cell sizes."""

    Ls: tuple[int, ...]
    L_max: int
    times: np.ndarray
    f11: np.ndarray
    mean: dict[int, np.ndarray]  # per L: (N+1, K) mean stress
    e_sys: dict[int, np.ndarray]  # per L: (N+1, K) |mean_L - mean_Lmax|
    variance: dict[int, np.ndarray]  # per L: (N+1, K) biased sample variance
    max_residual: float  # worst optimality residual over all increments
    max_residual_rel: float  # worst residual / (1 + max|f|) over all increments
    energy_monotone: bool  # every solve's energy sequence was nonincreasing


# pseudo times at which the system sits in the elastic, transitional and
# plastic regime of the monotonic loading experiment
REGIME_TIMES = {"t_elast": 0.08, "t_trans": 0.22, "t_plast": 1.0}

DEFAULT_SYS_WINDOW = (6, 26)  # the restriction estimate degrades past L=26
DEFAULT_VAR_WINDOW = (6, 22)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise ValueError("need two equally long sequences of at least 2 points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive data")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _closest_step(times: np.ndarray, t: float) -> int:
    return int(np.argmin(np.abs(times - t)))


def fit_window(Ls, L_max: int, bounds: tuple[int, int]) -> tuple[int, ...]:
    """The cell sizes a slope fit uses: those of Ls in [lo, hi], less the reference L_max."""
    lo, hi = bounds
    return tuple(L for L in sorted(set(Ls)) if lo <= L <= hi and L != L_max)


def fit_scaling_slopes(
    table: "ErrorTable",
    sys_window: tuple[int, int] = DEFAULT_SYS_WINDOW,
    var_window: tuple[int, int] = DEFAULT_VAR_WINDOW,
) -> list[SlopeFit]:
    """Log-log slopes of the s1 e_sys and variance against L at the regime times."""
    fits = []
    for label, t in REGIME_TIMES.items():
        l = _closest_step(table.times, t)
        for quantity, data, bounds in (
            ("e_sys", table.e_sys, sys_window),
            ("variance", table.variance, var_window),
        ):
            window = fit_window(table.Ls, table.L_max, bounds)
            vals = np.array([data[L][l, 0] for L in window])
            if len(window) >= 2 and np.all(vals > 0):
                fits.append(SlopeFit(quantity, label, window, loglog_slope(window, vals)))
    return fits


def systematic_error_study(
    law: MaterialLaw,
    Ls,
    L_max: int,
    M: int,
    seed: int,
    path: StrainPath,
    settings: SolverSettings | None = None,
    threads: int = 1,
) -> ErrorTable:
    """Nested-restriction error study against the largest cell.

    Samples ids 1..M once on the box of side L_max and runs the path on
    the restriction of each to every requested L and to L_max itself, the
    paper's nested procedure; position-keyed sampling makes each cut
    bitwise the fresh sample of its L.  It compares the Monte-Carlo means:
    e_sys(L) = |mean_L - mean_Lmax| componentwise, zero at L_max by
    construction.  The per-L biased sample variances come along for free.
    """
    Ls = sorted(set(int(L) for L in Ls))
    if any(L > L_max for L in Ls):
        raise ValueError(f"every L must be <= L_max={L_max}")
    ens = _study(law, seed, M, L_max, sorted(set(Ls) | {L_max}), path, settings, threads)
    return ErrorTable(
        Ls=tuple(Ls),
        L_max=int(L_max),
        times=path.times.copy(),
        f11=path.tensors[:, 0].copy(),
        mean={L: e.mean for L, e in ens.items()},
        e_sys={L: np.abs(e.mean - ens[L_max].mean) for L, e in ens.items()},
        variance={L: e.variance() for L, e in ens.items()},
        max_residual=max(e.max_residual for e in ens.values()),
        max_residual_rel=max(e.max_residual_rel for e in ens.values()),
        energy_monotone=all(e.energy_monotone for e in ens.values()),
    )


def systematic_reference(Ls, anchor: float) -> np.ndarray:
    """L^-2 (ln L)^2 curve anchored at the first cell size."""
    Ls = np.asarray(Ls, dtype=float)
    ref = Ls**-2 * np.log(Ls) ** 2
    return anchor * ref / ref[0]


def variance_reference(Ls, anchor: float) -> np.ndarray:
    """L^-2 curve (squared random-error rate) anchored at the first size."""
    Ls = np.asarray(Ls, dtype=float)
    ref = Ls**-2.0
    return anchor * ref / ref[0]
