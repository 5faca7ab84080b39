"""Configuration parsing, experiment runner, CSV round trips."""

import csv
import io
import json
import subprocess
import sys
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest

import rveplast.cli
from rveplast.cli import (
    EXPERIMENTS,
    ERROR_COLUMNS,
    TRAJECTORY_COLUMNS,
    RunConfig,
    _study_sizes,
    _write_csv,
    build_arg_parser,
    main,
    parse_config,
    run,
    write_error_table,
    write_trajectories,
)
from rveplast.driver import monotonic_path
from rveplast.randfield import ConfigError, MaterialLaw
from rveplast.solver import SolverSettings
from rveplast.stats import (
    fit_scaling_slopes,
    monte_carlo,
    systematic_error_study,
    systematic_reference,
    variance_reference,
)

STUDIES = ("error-study", "variance-study")


def read_trajectories(path) -> dict[str, np.ndarray]:
    """Re-read a trajectory CSV into column arrays (exact round trip)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        data = list(zip(*[row for row in reader]))
    out = {}
    for name, col in zip(header, data):
        conv = int if name in ("sample_id", "l") else float
        out[name] = np.array([conv(v) for v in col])
    return out


class TestParseConfig:
    def test_cyclic_defaults(self):
        config = parse_config(["cyclic"])
        assert config.experiment == "cyclic"
        assert (config.L, config.M, config.N, config.T) == (4, 5, 50, 1.0)
        assert config.law() == MaterialLaw()

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_defaults_are_the_library_defaults(self, experiment):
        config = RunConfig(experiment)
        assert config.law() == MaterialLaw()
        assert config.solver_settings() == SolverSettings()

    def test_monotonic_preset(self):
        config = parse_config(["monotonic"])
        assert (config.L, config.M) == (30, 40)

    def test_error_study_preset(self):
        config = parse_config(["error-study"])
        assert config.L_max == 42
        assert config.L_list == [6, 10, 14, 18, 22, 26, 30, 34, 38, 42]
        assert config.M == 25

    def test_flag_overrides(self):
        config = parse_config(["cyclic", "--L", "7", "--M", "2", "--seed", "99"])
        assert (config.L, config.M, config.seed) == (7, 2, 99)

    def test_invalid_size_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(["cyclic", "--L", "0"])
        # the path's rules live in the path constructors and StrainPath alone
        for args in (["cyclic", "--N", "0"], ["monotonic", "--N", "0"], ["cyclic", "--T", "0"]):
            with pytest.raises(ConfigError, match="bad strain path"):
                parse_config(args)
        # custom-path ignores N and T
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"path": [[0, 0, 0, 0], [1, 0.001, 0, 0]]}))
        config = parse_config(["custom-path", "--config", str(cfg), "--N", "0", "--T", "0"])
        assert (config.N, config.T) == (0, 0)

    def test_file_then_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"M": 25, "L": 6}))
        config = parse_config(["cyclic", "--config", str(cfg), "--M", "40"])
        assert config.M == 40  # flag wins
        assert config.L == 6  # file beats preset default

    def test_unknown_file_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"no_such_key": 1}))
        with pytest.raises(ConfigError):
            parse_config(["cyclic", "--config", str(cfg)])

    def test_custom_path_requires_rows(self):
        with pytest.raises(ConfigError):
            parse_config(["custom-path"])

    def test_intervals_validated(self):
        with pytest.raises(ConfigError):
            parse_config(["cyclic", "--a-lo", "5e6"])  # lo > hi

    def test_L_list_bounds(self):
        with pytest.raises(ConfigError):
            parse_config(["error-study", "--L-list", "1,6", "--Lmax", "8"])
        with pytest.raises(ConfigError):
            parse_config(["error-study", "--L-list", "4,6,30", "--Lmax", "22"])
        with pytest.raises(ConfigError):
            parse_config(["variance-study", "--L-list", "1,6,8"])

    def test_variance_study_ignores_L_max(self):
        # its reference size is the largest of L_list, above the preset's L_max
        args = ["variance-study", "--M", "1", "--N", "2", "--L-list", "4,6,30"]
        config = parse_config(args + ["--sys-window", "4,6", "--var-window", "4,6"])
        assert config.L_max < 30
        assert _study_sizes(config) == ([4, 6, 30], 30)
        # without windows the default sys window [6, 26] holds one size of the study
        with pytest.raises(ConfigError, match="sys_window"):
            parse_config(args)

    @pytest.mark.parametrize("experiment", STUDIES)
    def test_study_needs_cell_sizes(self, experiment, tmp_path):
        # the preset's sizes apply only where no L_list is given; an empty one is refused
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"L_list": []}))
        for args in (["--L-list="], ["--config", str(cfg)]):
            with pytest.raises(ConfigError, match="non-empty L_list"):
                parse_config([experiment, *args])
        with pytest.raises(ConfigError, match="non-empty L_list"):
            RunConfig(experiment).validate()
        # the other experiments ignore L_list, but refuse entries below 2
        assert parse_config(["cyclic", "--L-list="]).L_list == []
        with pytest.raises(ConfigError, match="L_list"):
            parse_config(["cyclic", "--L-list", "1,6"])

    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_solver_settings_refused_as_config_error(self, tol):
        # the rule lives in SolverSettings alone
        with pytest.raises(ConfigError, match="tol_residual"):
            parse_config(["cyclic", "--tol-residual", tol])
        with pytest.raises(ConfigError, match="tol_residual"):
            SolverSettings(tol_residual=float(tol))
        with pytest.raises(ConfigError, match="max_outer"):
            parse_config(["cyclic", "--max-outer", "0"])

    @pytest.mark.parametrize("window, sizes", [([4, 5], 1), ([5, 8], 1), ([4, 6], 2)])
    def test_window_rule_shared_by_validation_and_fit(self, window, sizes):
        # sizes: the study's cell sizes other than L_max=8 inside the window.  The
        # config check refuses exactly the windows that the fit skips; eight steps
        # put a nonzero stress at every regime time
        path = monotonic_path(n_steps=8)
        table = systematic_error_study(MaterialLaw(), [4, 6], 8, 2, 20240, path)
        config = RunConfig(
            "error-study", M=2, N=8, L_list=[4, 6], L_max=8, sys_window=window, var_window=window
        )
        fits = fit_scaling_slopes(table, tuple(window), tuple(window))
        if sizes == 2:
            config.validate()
            assert len(fits) == 6 and {fit.window for fit in fits} == {(4, 6)}
        else:
            with pytest.raises(ConfigError, match="at least two cell sizes"):
                config.validate()
            assert fits == []

    def test_repeated_parses_are_independent(self):
        # the field types are resolved once per process; no call sees another's flags
        first = parse_config(["cyclic", "--L", "7", "--seed", "5", "--L-list", "6,8"])
        second = parse_config(["monotonic", "--M", "2"])
        assert (first.experiment, first.L, first.seed, first.L_list) == ("cyclic", 7, 5, [6, 8])
        assert (second.experiment, second.L, second.M, second.seed) == ("monotonic", 30, 2, 20240)
        assert second.L_list is None
        assert parse_config(["cyclic"]) == RunConfig("cyclic", L=4, M=5)
        assert first.L_list == [6, 8]

    def test_one_flag_per_config_key(self):
        # the README promises that flags mirror the config keys one-to-one
        parser = build_arg_parser()
        flags = {}
        for action in parser._actions:
            flags.setdefault(action.dest, []).extend(action.option_strings)
        keys = {f.name for f in fields(RunConfig)} - {"experiment", "path"}
        assert set(flags) - {"help", "config", "experiment"} == keys
        samples = {int: ("3", 3), float: ("0.25", 0.25), str: ("x", "x")}
        for key, hint in get_type_hints(RunConfig).items():
            if key not in keys:
                continue
            (flag,) = flags[key]
            text, value = samples.get(hint, ("6,10", [6, 10]))
            args = vars(parser.parse_args(["cyclic", flag, text]))
            assert args[key] == value
            assert all(v is None for k, v in args.items() if k not in (key, "experiment"))


class TestRun:
    def test_cyclic_writes_trajectories(self, tmp_path, capsys):
        config = parse_config(
            ["cyclic", "--L", "3", "--M", "2", "--N", "5", "--out", str(tmp_path)]
        )
        assert run(config) == 0
        out = capsys.readouterr().out
        assert "final mean stress" in out
        data = read_trajectories(tmp_path / "cyclic_trajectories.csv")
        assert set(data) == {
            "sample_id", "l", "t", "F11", "s1", "s2", "s3", "R1", "R2", "R3", "energy",
        }
        assert len(data["l"]) == 2 * 6  # M samples x (N + 1) steps

    def test_csv_round_trip_is_exact(self, tmp_path):
        ens = monte_carlo(MaterialLaw(), 3, 2, 8, monotonic_path(n_steps=4))
        path = tmp_path / "traj.csv"
        write_trajectories(path, ens)
        data = read_trajectories(path)
        stresses = np.stack(
            [data[c].reshape(ens.M, -1) for c in ("s1", "s2", "s3")], axis=-1
        )
        assert np.array_equal(stresses, ens.stresses)
        assert np.array_equal(data["energy"].reshape(ens.M, -1), ens.energies)
        assert np.array_equal(data["t"].reshape(ens.M, -1)[0], ens.times)

    def test_trajectory_bytes(self, tmp_path):
        # every float written with 17 significant digits, csv's \r\n line ends
        ens = monte_carlo(MaterialLaw(), 3, 2, 8, monotonic_path(n_steps=4))
        lines = [",".join(TRAJECTORY_COLUMNS)]
        for i in range(ens.M):
            for l in range(ens.times.size):
                values = [ens.times[l], ens.f11[l], *ens.stresses[i, l], *ens.fractions[i, l]]
                values.append(ens.energies[i, l])
                lines.append(",".join([str(i + 1), str(l)] + [f"{float(v):.17g}" for v in values]))
        path = tmp_path / "traj.csv"
        write_trajectories(path, ens)
        assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()

    def test_csv_bytes_are_csv_writers(self, tmp_path):
        # one format per line gives csv.writer's bytes for ints, Python and
        # numpy floats (zeros of both signs, nan, inf, tiny and huge values)
        # and strings such as the slope file's window
        rows = [
            (1, 0, 0.0, -0.0, 1 / 3, np.float64(0.1), np.float64(-2.5e-300), 7),
            (2, 50, float("nan"), float("inf"), -1e300, np.float64(3), 12345678901234567, -1),
            ("e_sys", "t_elast", "6 10 14 18", np.float64(-2.870), 0.5, "x", 3, 1e-5),
        ]
        columns = [f"c{k}" for k in range(8)]
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(columns)
        writer.writerows(
            [f"{v:.17g}" if isinstance(v, float) else str(v) for v in row] for row in rows
        )
        _write_csv(tmp_path / "rows.csv", columns, rows)
        assert (tmp_path / "rows.csv").read_bytes() == expected.getvalue().encode()

    @pytest.mark.parametrize("value", ["a,b", 'say "x"', "two\nlines", "cr\r"])
    def test_csv_rejects_values_that_need_quoting(self, value, tmp_path):
        with pytest.raises(ValueError, match="comma, a quote or a line break"):
            _write_csv(tmp_path / "rows.csv", ["quantity", "slope"], [(value, 1.0)])

    def test_rerun_is_bitwise_identical_across_threads(self, tmp_path):
        args = ["monotonic", "--L", "4", "--M", "3", "--N", "4"]
        run(parse_config(args + ["--out", str(tmp_path / "a"), "--threads", "1"]))
        run(parse_config(args + ["--out", str(tmp_path / "b"), "--threads", "3"]))
        a = (tmp_path / "a" / "monotonic_trajectories.csv").read_bytes()
        b = (tmp_path / "b" / "monotonic_trajectories.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("experiment", ["error-study", "variance-study"])
    def test_error_study_files(self, experiment, tmp_path):
        config = parse_config(
            [
                experiment,
                "--L-list", "4,6,8",
                "--Lmax", "8",
                "--sys-window", "4,6",
                "--var-window", "4,6",
                "--M", "2",
                "--N", "4",
                "--out", str(tmp_path),
            ]
        )
        assert run(config) == 0
        header = (tmp_path / f"{experiment}.csv").read_text().splitlines()[0]
        assert header == "L,l,t,F11,alpha,e_sys,variance,reference_scaling"
        slopes = (tmp_path / f"{experiment}_slopes.csv").read_text().splitlines()
        assert slopes[0] == "quantity,t_label,window,slope"
        quantities = {row.split(",")[0] for row in slopes[1:]}
        assert {"e_sys", "variance"} <= quantities

    @pytest.mark.parametrize("experiment", STUDIES)
    def test_error_table_rows(self, experiment, tmp_path):
        # rows in (L, l, alpha) order; the reference column is the curve anchored
        # at each step's and component's value at the smallest L, 0 at L_max
        table = systematic_error_study(MaterialLaw(), [4, 3], 5, 2, 20240, monotonic_path(n_steps=3))
        values, reference = {
            "error-study": (table.e_sys, systematic_reference),
            "variance-study": (table.variance, variance_reference),
        }[experiment]
        lines = [",".join(ERROR_COLUMNS)]
        for j, L in enumerate([3, 4, 5]):
            for l in range(table.times.size):
                for alpha in range(3):
                    ref = reference([3, 4], values[3][l, alpha])[j] if L != 5 else 0.0
                    floats = (table.times[l], table.f11[l], table.e_sys[L][l, alpha], table.variance[L][l, alpha], ref)
                    t, f11, e, v, r = (f"{float(x):.17g}" for x in floats)
                    lines.append(f"{L},{l},{t},{f11},{alpha + 1},{e},{v},{r}")
        path = tmp_path / "table.csv"
        write_error_table(path, table, experiment)
        assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()

    @pytest.mark.parametrize("experiment", STUDIES)
    def test_error_table_of_the_reference_size_alone(self, experiment, tmp_path):
        table = systematic_error_study(MaterialLaw(), [3], 3, 1, 20240, monotonic_path(n_steps=2))
        path = tmp_path / "table.csv"
        write_error_table(path, table, experiment)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3 * 3
        assert {row["L"] for row in rows} == {"3"}
        assert all(float(row["e_sys"]) == float(row["reference_scaling"]) == 0.0 for row in rows)

    @pytest.mark.parametrize(
        "args",
        [
            ["cyclic", "--L", "3"],
            ["monotonic", "--L", "3"],
            ["error-study", "--L-list", "4,6", "--Lmax", "8", "--sys-window", "4,6", "--var-window", "4,6"],
        ],
        ids=["cyclic", "monotonic", "error-study"],
    )
    def test_run_builds_the_path_once(self, args, tmp_path, monkeypatch):
        # run takes the law, the settings and the path from its one validate call
        calls = []
        make_path = rveplast.cli._make_path

        def counted(config):
            calls.append(config)
            return make_path(config)

        monkeypatch.setattr(rveplast.cli, "_make_path", counted)
        config = parse_config(args + ["--M", "2", "--N", "2", "--out", str(tmp_path)])
        assert len(calls) == 1
        assert run(config) == 0
        assert len(calls) == 2

    def test_custom_path_from_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        rows = [[0.0, 0.0, 0.0, 0.0], [0.5, 1e-3, 0.0, 0.0], [1.0, 2e-3, 1e-4, 0.0]]
        cfg.write_text(json.dumps({"path": rows, "L": 3, "M": 1, "out": str(tmp_path)}))
        config = parse_config(["custom-path", "--config", str(cfg)])
        assert run(config) == 0
        data = read_trajectories(tmp_path / "custom-path_trajectories.csv")
        assert np.allclose(data["F11"], [0.0, 1e-3, 2e-3])


class TestMain:
    def test_usage_error_exit_code(self, capsys):
        assert main(["cyclic", "--L", "0"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        code = main(
            [
                "monotonic",
                "--L", "4",
                "--M", "1",
                "--N", "4",
                "--max-outer", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "sample 1" in err and "step" in err
        assert "L=4" in err and "residual" in err

    def test_solver_failure_is_the_same_on_worker_processes(self, tmp_path):
        # a worker's PathError reaches the parent pickled; it must print the
        # serial run's line and exit 1, not end in a traceback
        args = [sys.executable, "-m", "rveplast.cli", "monotonic", "--L", "6", "--M", "3", "--N", "10"]
        args += ["--max-outer", "1", "--out", str(tmp_path)]
        done = {
            threads: subprocess.run(args + ["--threads", threads], capture_output=True, text=True, timeout=120)
            for threads in ("1", "2")
        }
        for threads, result in done.items():
            assert result.returncode == 1, (threads, result.stderr)
            assert result.stderr.startswith("solver failure: L=6 sample 1: solver failed at step 2 ")
            assert result.stderr.count("\n") == 1, result.stderr
        assert done["1"].stderr == done["2"].stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["cyclic", "--seed", "-1"],
            ["cyclic", "--seed", str(2**64)],
            ["cyclic", "--L", "1"],
            ["error-study", "--Lmax", "1"],
            ["cyclic", "--threads", "-3"],
            ["cyclic", "--threads", "0"],
            ["cyclic", "--T", "nan"],
            ["cyclic", "--T", "inf"],
            ["cyclic", "--amplitude", "nan"],
            ["cyclic", "--frequency", "inf"],
            ["monotonic", "--rate", "nan"],
            ["cyclic", "--tol-residual", "nan"],
            ["variance-study", "--L-list", "2,3", "--Lmax", "3", "--var-window", "6"],
            ["variance-study", "--L-list", "2,3", "--Lmax", "3", "--sys-window", "9,3,4"],
            ["error-study", "--sys-window", "9,3"],
            ["error-study", "--var-window", ""],
            ["variance-study", "--L-list", "3,4,5"],
            [
                "variance-study",
                "--L-list", "3,4,5",
                "--Lmax", "5",
                "--var-window", "100,200",
                "--sys-window", "3,4",
            ],
            ["error-study", "--L-list="],
            ["variance-study", "--L-list="],
            ["cyclic", "--tol-residual", "0"],
            ["cyclic", "--tol-residual", "-1"],
            ["cyclic", "--T", "0"],
            ["cyclic", "--T", "-1"],
        ],
    )
    def test_bad_flags_exit_code(self, args, tmp_path, capsys):
        assert main(args + ["--M", "1", "--N", "1", "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values",
        [
            {"seed": "abc"},
            {"L": 3.5},
            {"M": True},
            {"T": "1"},
            {"L_list": 6},
            {"L_list": [6, 10.0]},
            {"path": [[0.0, 0.0, 0.0, "x"]]},
            {"T": float("nan")},
            {"path": [[0.0, 0.0, 0.0, 0.0], [1.0, 1e-3, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]]},
            {"path": [[0.0, 1e-3, 0.0, 0.0], [1.0, 2e-3, 0.0, 0.0]]},
            {"sys_window": [6]},
            {"var_window": [10, 6]},
            {"var_window": [6, 10, 14]},
            {"tol_increment": 1e-10},
            {"threads": 0},
            {"path": [[0.0, 0.0, 0.0], [1.0, 1e-3, 0.0]]},
        ],
    )
    def test_bad_config_value_type_exit_code(self, values, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        path = [[0.0, 0.0, 0.0, 0.0], [1.0, 1e-3, 0.0, 0.0]]
        cfg.write_text(json.dumps({"path": path, **values}))
        assert main(["custom-path", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and next(iter(values)) in err

    @pytest.mark.parametrize("experiment", STUDIES)
    def test_empty_L_list_in_file_exit_code(self, experiment, tmp_path, capsys, monkeypatch):
        def study(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(rveplast.cli, "systematic_error_study", study)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"L_list": []}))
        assert main([experiment, "--config", str(cfg), "--M", "1", "--N", "1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "L_list" in err

    @pytest.mark.parametrize("text", [None, "{"], ids=["missing", "invalid-json"])
    def test_unreadable_config_file_exit_code(self, text, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        if text is not None:
            cfg.write_text(text)
        assert main(["cyclic", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "cannot read config file" in err

    @pytest.mark.parametrize("text", ["123", '[["L", 4]]'], ids=["number", "list"])
    def test_config_file_not_an_object_exit_code(self, text, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        assert main(["cyclic", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "JSON object" in err

    def test_config_file_experiment_must_match(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"experiment": "monotonic", "N": 2, "M": 1}))
        assert main(["cyclic", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "'monotonic'" in err
        cfg.write_text(json.dumps({"experiment": "cyclic", "N": 2, "M": 1}))
        assert parse_config(["cyclic", "--config", str(cfg)]).experiment == "cyclic"

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    @pytest.mark.parametrize(
        "args",
        [["cyclic"], ["error-study", "--L-list", "4,6", "--Lmax", "8", "--sys-window", "4,6", "--var-window", "4,6"]],
        ids=["cyclic", "error-study"],
    )
    def test_unusable_out_exit_code_before_the_study(self, args, below, tmp_path, capsys, monkeypatch):
        # an output path that cannot be a directory ends the run before any path is solved
        def study(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(rveplast.cli, "monte_carlo", study)
        monkeypatch.setattr(rveplast.cli, "systematic_error_study", study)
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" if below else taken
        assert main(args + ["--M", "1", "--N", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(out) in err

    def test_int_accepted_for_float_field(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"T": 2, "path": [[0, 0, 0, 0], [1, 0.001, 0, 0]]}))
        assert parse_config(["custom-path", "--config", str(cfg)]).T == 2

    def test_largest_seed_accepted(self):
        assert parse_config(["cyclic", "--seed", str(2**64 - 1)]).seed == 2**64 - 1

    def test_successful_run(self, tmp_path, capsys):
        code = main(["cyclic", "--L", "3", "--M", "1", "--N", "3", "--out", str(tmp_path)])
        assert code == 0
