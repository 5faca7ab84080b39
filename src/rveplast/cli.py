"""Experiment runner: configuration parsing, studies, CSV emission.

Configuration lives in a flat JSON document; command-line flags mirror the
keys one-to-one and override file values.  Every study writes CSV files
with deterministic row order and 17-significant-digit floats, so reruns
with the same configuration are bitwise identical, on one BLAS thread
regardless of the worker-process count (``rveplast.stats`` says why).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import types
from dataclasses import dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .driver import PathError, StrainPath, cyclic_path, monotonic_path
from .randfield import ConfigError, MaterialLaw
from .solver import SolverSettings
from .stats import (
    DEFAULT_SYS_WINDOW,
    DEFAULT_VAR_WINDOW,
    ErrorTable,
    McEnsemble,
    fit_scaling_slopes,
    fit_window,
    monte_carlo,
    systematic_error_study,
    systematic_reference,
    variance_reference,
)

EXPERIMENTS = ("cyclic", "monotonic", "error-study", "variance-study", "custom-path")

TRAJECTORY_COLUMNS = ("sample_id", "l", "t", "F11", "s1", "s2", "s3", "R1", "R2", "R3", "energy")
ERROR_COLUMNS = ("L", "l", "t", "F11", "alpha", "e_sys", "variance", "reference_scaling")
SLOPE_COLUMNS = ("quantity", "t_label", "window", "slope")

# per-experiment defaults for the keys that vary between studies
_PRESETS = {
    "cyclic": {"L": 4, "M": 5},
    "monotonic": {"L": 30, "M": 40},
    "error-study": {"M": 25, "L_max": 42, "L_list": [6, 10, 14, 18, 22, 26, 30, 34, 38, 42]},
    "variance-study": {"M": 25, "L_max": 22, "L_list": [6, 10, 14, 18, 22]},
    "custom-path": {"L": 4, "M": 1},
}


@dataclass
class RunConfig:
    experiment: str
    L: int = 4
    L_list: list[int] | None = None
    L_max: int = 42
    M: int = 5
    N: int = 50
    T: float = 1.0
    seed: int = 20240
    amplitude: float = 3e-3
    frequency: float = 8.0
    rate: float = 0.0034
    a_lo: float = MaterialLaw.a[0]
    a_hi: float = MaterialLaw.a[1]
    h_lo: float = MaterialLaw.h[0]
    h_hi: float = MaterialLaw.h[1]
    sy_lo: float = MaterialLaw.sigma_y[0]
    sy_hi: float = MaterialLaw.sigma_y[1]
    tol_residual: float = SolverSettings.tol_residual
    max_outer: int = SolverSettings.max_outer
    sys_window: list[int] | None = None
    var_window: list[int] | None = None
    path: list[list[float]] | None = None  # custom-path rows (t, F11, F12, F22)
    out: str = "."
    threads: int = 1

    def law(self) -> MaterialLaw:
        return MaterialLaw((self.a_lo, self.a_hi), (self.h_lo, self.h_hi), (self.sy_lo, self.sy_hi))

    def solver_settings(self) -> SolverSettings:
        return SolverSettings(tol_residual=self.tol_residual, max_outer=self.max_outer)

    def validate(self) -> tuple[MaterialLaw, SolverSettings, StrainPath]:
        """Check the config; return the material law, solver settings and strain path it gives.

        Raises ConfigError on a config that no experiment can run.  The
        bounds on L, L_max, M, threads and seed are checked here, because
        nothing in the library checks them before a study starts.  The rules
        of the law's intervals, the solver settings and the strain path (at
        least one time step, strictly increasing times) belong to their own
        classes and the path constructors; ``validate`` applies them by
        building the three, which ``run`` then uses.
        """
        for name, hint in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not _has_type(value, hint):
                kind = getattr(hint, "__name__", hint)
                raise ConfigError(f"{name} must be of type {kind}, got {value!r}")
            if not _is_finite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        for key, low in (("L", 2), ("L_max", 2), ("M", 1), ("threads", 1)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        windows = {"sys_window": DEFAULT_SYS_WINDOW, "var_window": DEFAULT_VAR_WINDOW}
        for key in windows:
            window = getattr(self, key)
            if window is not None and (len(window) != 2 or window[0] > window[1]):
                raise ConfigError(f"{key} must be two cell sizes lo,hi with lo <= hi, got {window}")
        study = self.experiment in ("error-study", "variance-study")
        if study and not self.L_list:
            raise ConfigError(f"{self.experiment} needs a non-empty L_list, got {self.L_list}")
        if self.L_list:
            # for the experiments that ignore L_list the reference size is its largest entry
            Ls, L_max = _study_sizes(self)
            bad = [L for L in Ls if not 2 <= L <= L_max]
            if bad:
                raise ConfigError(f"L_list entries must lie in [2, {L_max}], the reference size: {bad}")
            if study:
                for key, default in windows.items():
                    lo, hi = getattr(self, key) or default
                    if len(fit_window(Ls, L_max, (lo, hi))) < 2:
                        raise ConfigError(
                            f"{key} [{lo}, {hi}] must hold at least two cell sizes of {sorted(set(Ls))} "
                            f"other than the reference size {L_max}"
                        )
        law = self.law()
        settings = self.solver_settings()
        if self.experiment == "custom-path" and not self.path:
            raise ConfigError("custom-path needs 'path' rows [t, F11, F12, F22] in the config")
        return law, settings, _make_path(self)


# the type of each RunConfig field, resolved once per process
_FIELD_TYPES = get_type_hints(RunConfig)


def _study_sizes(config: RunConfig) -> tuple[list[int], int]:
    """Cell sizes and reference size of an error or variance study."""
    return config.L_list, config.L_max if config.experiment == "error-study" else max(config.L_list)


def _has_type(value, hint) -> bool:
    """Whether a config value fits its field's type; an int fits a float field, a bool no number."""
    if get_origin(hint) is types.UnionType:
        return any(_has_type(value, arg) for arg in get_args(hint))
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_has_type(v, get_args(hint)[0]) for v in value)
    if hint in (int, float):
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    return isinstance(value, hint)


def _is_finite(value) -> bool:
    """Whether every float in a config value, nested lists included, is finite."""
    if isinstance(value, list):
        return all(_is_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def parse_config(argv=None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus overriding flags."""
    args = build_arg_parser().parse_args(argv)

    values: dict = {"experiment": args.experiment}
    values.update(_PRESETS[args.experiment])
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config file {args.config}: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - set(_FIELD_TYPES)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if raw.get("experiment", args.experiment) != args.experiment:
            raise ConfigError(f"config file experiment {raw['experiment']!r} differs from {args.experiment!r}")
        values.update(raw)
    for key in _FIELD_TYPES:
        flag_value = getattr(args, key, None)
        if flag_value is not None and key != "experiment":
            values[key] = flag_value

    config = RunConfig(**values)
    config.validate()
    return config


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


# flags are the config keys with "_" spelled "-", except these
_FLAG_SPELLING = {"L_max": "--Lmax"}
_FLAG_HELP = {
    "L": "cell side length",
    "L_list": "comma-separated L values",
    "L_max": "reference cell side of error-study (variance-study ignores it)",
    "M": "number of Monte-Carlo samples",
    "N": "number of time steps",
    "T": "final time",
    "seed": "master seed",
    "out": "output directory",
    "threads": "worker processes",
}


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """One flag per config key except ``experiment`` (positional) and ``path`` (config only).

    Built once per process; ``parse_config`` reads every command line with it.
    """
    parser = argparse.ArgumentParser(
        prog="rve-plast",
        description="Elastoplastic spring-network RVE studies (cyclic, monotonic, error scaling)",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON config file; flags override file values")
    for name, hint in _FIELD_TYPES.items():
        if name in ("experiment", "path"):
            continue
        if get_origin(hint) is types.UnionType:  # "X | None"
            (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
        parser.add_argument(
            _FLAG_SPELLING.get(name, "--" + name.replace("_", "-")),
            type=_int_list if hint == list[int] else hint,
            dest=name,
            help=_FLAG_HELP.get(name),
        )
    return parser


def _write_csv(path: Path, columns, rows) -> None:
    """One row per entry of ``rows``; floats (numpy's float64 too) get 17 significant digits.

    The bytes are those of ``csv.writer`` with its defaults: each line is
    formatted in one pass, with one format per sequence of value types
    (``%.17g`` for floats, ``str`` otherwise), and ends in CR LF.  A value
    that holds a comma, a quote or a line break, which ``csv.writer`` would
    quote, raises ValueError.
    """
    formats: dict[tuple, str] = {}
    lines = []
    separators = 0
    for row in itertools.chain([columns], rows):
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = ",".join("%.17g" if issubclass(kind, float) else "%s" for kind in kinds) + "\r\n"
            formats[kinds] = fmt
        lines.append(fmt % tuple(row))
        separators += len(kinds) - 1
    text = "".join(lines)
    breaks = len(lines)
    counts = (text.count(","), text.count("\r"), text.count("\n"), text.count('"'))
    if counts != (separators, breaks, breaks, 0):
        raise ValueError(f"a value for {path.name} holds a comma, a quote or a line break")
    with path.open("w", newline="") as handle:
        handle.write(text)


def write_trajectories(path: Path, ensemble: McEnsemble) -> None:
    # Python floats, which format several times faster than numpy scalars
    times, f11 = ensemble.times.tolist(), ensemble.f11.tolist()
    values = np.concatenate(
        [ensemble.stresses, ensemble.fractions, ensemble.energies[..., None]], axis=2
    ).tolist()
    rows = (
        (i + 1, l, times[l], f11[l], *values[i][l])
        for i in range(ensemble.M)
        for l in range(len(times))
    )
    _write_csv(path, TRAJECTORY_COLUMNS, rows)


def write_error_table(path: Path, table: ErrorTable, experiment: str) -> None:
    """Error-study rows in (L, l, alpha) order; the reference column is the anchored rate curve.

    For error studies it overlays L^-2 (ln L)^2 on e_sys, for variance
    studies L^-2 on the variance, each anchored at the smallest L; it is 0
    at the reference size.
    """
    Ls = sorted(set(table.Ls) | {table.L_max})
    values, reference = (
        (table.variance, variance_reference)
        if experiment == "variance-study"
        else (table.e_sys, systematic_reference)
    )
    # curves[l][alpha][j]: the curve of step l and component alpha at Ls[j]
    curves = reference(Ls, values[Ls[0]][..., None]).tolist()
    times, f11 = table.times.tolist(), table.f11.tolist()
    rows = []
    for j, L in enumerate(Ls):
        e_sys, variance = table.e_sys[L].tolist(), table.variance[L].tolist()
        for l in range(len(times)):
            for alpha in range(3):
                ref = curves[l][alpha][j] if L != table.L_max else 0.0
                rows.append((L, l, times[l], f11[l], alpha + 1, e_sys[l][alpha], variance[l][alpha], ref))
    _write_csv(path, ERROR_COLUMNS, rows)


def write_slopes(path: Path, slopes) -> None:
    rows = [
        (fit.quantity, fit.t_label, " ".join(str(L) for L in fit.window), fit.slope)
        for fit in slopes
    ]
    _write_csv(path, SLOPE_COLUMNS, rows)


def _make_path(config: RunConfig) -> StrainPath:
    try:
        if config.experiment == "cyclic":
            return cyclic_path(config.amplitude, config.frequency, config.N, config.T)
        if config.experiment == "custom-path":
            rows = np.asarray(config.path, dtype=float)
            if rows.ndim != 2 or rows.shape[1] != 4:
                raise ConfigError("path rows must be [t, F11, F12, F22]")
            return StrainPath(rows[:, 0], rows[:, 1:])
        return monotonic_path(config.rate, config.N, config.T)
    except ValueError as err:  # StrainPath rejects the path; a ConfigError is a ValueError too
        raise ConfigError(f"bad strain path: {err}") from err


def run(config: RunConfig) -> int:
    """Execute the configured study and write its CSV files into ``out``, made before the study runs."""
    law, settings, path = config.validate()
    out_dir = Path(config.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot make output directory {out_dir}: {err}") from err

    if config.experiment in ("cyclic", "monotonic", "custom-path"):
        ensemble = monte_carlo(law, config.L, config.M, config.seed, path, settings, config.threads)
        out_file = out_dir / f"{config.experiment}_trajectories.csv"
        write_trajectories(out_file, ensemble)
        final = ensemble.mean[-1]
        print(
            f"{config.experiment}: L={config.L} M={config.M} N={config.N} "
            f"final mean stress s=({final[0]:.6g}, {final[1]:.6g}, {final[2]:.6g}) "
            f"max residual {ensemble.max_residual:.3e} -> {out_file}"
        )
        return 0

    Ls, L_max = _study_sizes(config)
    table = systematic_error_study(
        law, Ls, L_max, config.M, config.seed, path, settings, config.threads
    )
    sys_window = tuple(config.sys_window or DEFAULT_SYS_WINDOW)
    var_window = tuple(config.var_window or DEFAULT_VAR_WINDOW)
    slopes = fit_scaling_slopes(table, sys_window, var_window)
    out_file = out_dir / f"{config.experiment}.csv"
    slope_file = out_dir / f"{config.experiment}_slopes.csv"
    write_error_table(out_file, table, config.experiment)
    write_slopes(slope_file, slopes)
    summary = ", ".join(f"{f.quantity}@{f.t_label}={f.slope:+.3f}" for f in slopes)
    print(
        f"{config.experiment}: Ls={list(table.Ls)} Lmax={table.L_max} M={config.M} "
        f"slopes [{summary}] max residual {table.max_residual:.3e} -> {out_file}"
    )
    return 0


def main(argv=None) -> int:
    try:
        return run(parse_config(argv))
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except PathError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
