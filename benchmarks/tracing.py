"""Span tracing from outside the program, by rebinding the names callers look up.

A hook replaces ``module.attribute`` with a wrapper that records one span
(name, start, end, parent) per call and restores the original on exit.  The
attribute is the name the *caller* resolves at call time: the driver calls
``solve_increment`` through ``rveplast.driver``, the solver calls
``increment_energy`` through ``rveplast.solver`` and ``splu`` through
``scipy.sparse.linalg``.  A target that does not exist (a later version
renamed or removed it) is recorded as absent; the metrics that depend on it
are then reported as absent instead of crashing the run.

Spans live in memory during the run; a layer's self time is its span
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np

# (module the caller resolves the name in, attribute, layer).  Only names the
# planned solver rewrite keeps are hooked; the sweep and Newton internals are
# private and show up as the self time of the "solver" layer.
HOOKS = (
    # calls the benchmark itself makes through the package namespace
    ("rveplast", "sample", "randfield.sample"),
    ("rveplast", "restrict", "randfield.restrict"),
    ("rveplast", "run_path", "driver"),
    ("rveplast", "loglog_slope", "stats"),
    # calls the library makes between its own modules
    ("rveplast.cli", "main", "cli"),
    ("rveplast.cli", "monte_carlo", "stats"),
    ("rveplast.cli", "write_trajectories", "cli.write"),
    ("rveplast.stats", "sample", "randfield.sample"),
    ("rveplast.stats", "restrict", "randfield.restrict"),
    ("rveplast.stats", "run_path", "driver"),
    ("rveplast.driver", "assemble_operator", "assembly.operator"),
    ("rveplast.driver", "assemble_load", "assembly.load"),
    ("rveplast.driver", "solve_increment", "solver"),
    ("rveplast.solver", "increment_energy", "assembly.energy"),
    ("rveplast.solver", "optimality_residual", "solver.residual"),
    ("scipy.sparse.linalg", "splu", "solver.factor"),
)

# spans the benchmark opens around its own work; their self time is the part
# of the traced wall time that no program layer claims
BENCH_LAYERS = ("bench.pass", "bench.op")


def _solve_iterations(outcome):
    """Outer iterations of a ``solve_increment`` result or SolverError, if reported."""
    report = getattr(outcome, "report", None)
    if report is None and isinstance(outcome, tuple) and len(outcome) > 1:
        report = outcome[1]
    return getattr(report, "iterations", None)


class Tracer:
    """In-memory span recorder; also sums the outer iterations solves report."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.failed: list[bool] = []
        self.outer_iters: int | None = None  # None until a solve reports its iterations
        self.installed: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self.failed.append(False)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.failed[idx] = failed
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(idx, failed)

    def wrap(self, layer: str, fn):
        solver = layer == "solver"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self._close(idx, True)
                if solver:
                    self._count_iterations(err)
                raise
            self._close(idx, False)
            if solver:
                self._count_iterations(result)
            return result

        return traced

    def _count_iterations(self, outcome) -> None:
        iterations = _solve_iterations(outcome)
        if iterations is not None:
            self.outer_iters = (self.outer_iters or 0) + int(iterations)

    @contextmanager
    def hooks(self, table=HOOKS):
        """Rebind every target in ``table`` for the duration of the block."""
        with rebound(table, self.wrap, self.absent) as layers:
            self.installed.update(layers)
            yield

    def durations(self) -> np.ndarray:
        return (np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)) * 1e-9

    def self_times(self) -> np.ndarray:
        """Span duration minus the durations of its direct children, in seconds."""
        dur = self.durations()
        parents = np.asarray(self.parents, dtype=np.int64)
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=dur.size)
        return dur - covered

    def write(self, path) -> None:
        """Write the spans as CSV rows: name, start_ns, end_ns, parent, failed."""
        with open(path, "w") as handle:
            handle.write("name,start_ns,end_ns,parent,failed\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.failed):
                handle.write("%s,%d,%d,%d,%d\n" % row)


@contextmanager
def rebound(table, make_wrapper, absent: list[str]):
    """Replace each (module, attribute, layer) target by ``make_wrapper(layer, original)``.

    Targets whose module cannot be imported or whose attribute is missing are
    appended to ``absent`` as "module.attribute".  Yields the set of layers
    with at least one installed target; restores every original on exit.
    """
    saved = []
    layers = set()
    try:
        for module_name, attr, layer in table:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, make_wrapper(layer, original))
            saved.append((module, attr, original))
            layers.add(layer)
        yield layers
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Aggregate the spans into the per-layer metrics.

    Returns ({name: (value, unit)}, names of metrics whose hook is absent).
    An absent metric is reported with value 0.
    """
    names = np.asarray(tracer.names, dtype=str)
    dur = tracer.durations()
    self_t = tracer.self_times()
    failed = np.asarray(tracer.failed, dtype=bool)
    roots = np.asarray(tracer.parents, dtype=np.int64) < 0
    bench = np.isin(names, BENCH_LAYERS)

    def self_s(layer):
        return float(self_t[names == layer].sum())

    def count(layer):
        return float((names == layer).sum())

    def percentile_ms(layer, q):
        ms = dur[names == layer] * 1e3
        return float(np.percentile(ms, q)) if ms.size else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    # name: (unit, layers whose hooks it needs, value)
    specs = {
        "randfield.sample_s": ("s", ("randfield.sample",), lambda: self_s("randfield.sample")),
        "randfield.restrict_s": ("s", ("randfield.restrict",), lambda: self_s("randfield.restrict")),
        "assembly.operator_s": ("s", ("assembly.operator",), lambda: self_s("assembly.operator")),
        "assembly.load_s": ("s", ("assembly.load",), lambda: self_s("assembly.load")),
        "assembly.energy_calls": ("count", ("assembly.energy",), lambda: count("assembly.energy")),
        "assembly.energy_s": ("s", ("assembly.energy",), lambda: self_s("assembly.energy")),
        "solver.increments": ("count", ("solver",), lambda: count("solver")),
        "solver.outer_iters": ("count", ("solver",), lambda: tracer.outer_iters),
        "solver.self_s": ("s", ("solver",), lambda: self_s("solver")),
        "solver.factor_calls": ("count", ("solver.factor",), lambda: count("solver.factor")),
        "solver.factor_s": ("s", ("solver.factor",), lambda: self_s("solver.factor")),
        "solver.residual_s": ("s", ("solver.residual",), lambda: self_s("solver.residual")),
        "solver.increment_ms_p50": ("ms", ("solver",), lambda: percentile_ms("solver", 50)),
        "solver.increment_ms_p99": ("ms", ("solver",), lambda: percentile_ms("solver", 99)),
        "solver.energy_evals_per_factor": (
            "evals/factor",
            ("assembly.energy", "solver.factor"),
            lambda: ratio(count("assembly.energy"), count("solver.factor")),
        ),
        "solver.failed_increments": (
            "count",
            ("solver",),
            lambda: float(((names == "solver") & failed).sum()),
        ),
        "driver.path_runs": ("count", ("driver",), lambda: count("driver")),
        "driver.self_s": ("s", ("driver",), lambda: self_s("driver")),
        "stats.self_s": ("s", ("stats",), lambda: self_s("stats")),
        "cli.write_s": ("s", ("cli.write",), lambda: self_s("cli.write")),
        "cli.self_s": ("s", ("cli",), lambda: self_s("cli")),
        "trace.wall_s": ("s", (), lambda: float(dur[roots].sum())),
        "trace.unattributed_s": ("s", (), lambda: float(self_t[bench].sum())),
    }
    metrics, absent = {}, []
    for name, (unit, needs, compute) in specs.items():
        value = compute() if all(layer in tracer.installed for layer in needs) else None
        if value is None:
            absent.append(name)
        metrics[name] = (float(value or 0.0), unit)
    return metrics, absent
