"""Monte-Carlo ensembles, variance, error study, slope fits."""

import subprocess
import sys

import numpy as np
import pytest
from helpers import numerical_slope

import rveplast.stats
from rveplast.driver import monotonic_path, run_path
from rveplast.randfield import MaterialLaw, sample
from rveplast.stats import (
    McEnsemble,
    loglog_slope,
    monte_carlo,
    systematic_error_study,
    systematic_reference,
    variance_reference,
)

LAW = MaterialLaw()


def tiny_ensemble(stresses):
    stresses = np.asarray(stresses, dtype=float)
    return McEnsemble(
        L=2,
        M=stresses.shape[0],
        times=np.arange(stresses.shape[1], dtype=float),
        f11=np.zeros(stresses.shape[1]),
        stresses=stresses,
        fractions=np.zeros_like(stresses),
        energies=np.zeros(stresses.shape[:2]),
        mean=stresses.mean(axis=0),
        max_residual=0.0,
        max_residual_rel=0.0,
        energy_monotone=True,
    )


class TestMonteCarlo:
    def test_single_sample_mean_is_trajectory(self):
        path = monotonic_path(n_steps=5)
        ens = monte_carlo(LAW, 4, 1, 77, path)
        real = sample(LAW, 77, 1, 4)
        records = run_path(real, path)
        direct = np.array([rec.s for _, rec in records])
        assert np.array_equal(ens.mean, direct)
        assert np.array_equal(ens.stresses[0], direct)

    def test_point_mass_zero_variance(self):
        law = MaterialLaw.point_mass(1.5e6, 1.6e6, 1.0e3)
        ens = monte_carlo(law, 3, 4, 1, monotonic_path(n_steps=5))
        assert np.all(ens.variance() == 0.0)

    def test_mean_recomputes_from_samples(self):
        ens = monte_carlo(LAW, 3, 4, 2, monotonic_path(n_steps=5))
        assert np.array_equal(ens.mean, ens.stresses.mean(axis=0))

    def test_thread_count_does_not_change_results(self):
        path = monotonic_path(n_steps=6)
        serial = monte_carlo(LAW, 4, 4, 5, path, threads=1)
        threaded = monte_carlo(LAW, 4, 4, 5, path, threads=3)
        assert np.array_equal(serial.stresses, threaded.stresses)
        assert np.array_equal(serial.mean, threaded.mean)
        assert np.array_equal(serial.energies, threaded.energies)

    def test_thread_count_does_not_change_results_with_pcg(self):
        # at L=16 the Newton steps are solved by CG with each path's factor
        path = monotonic_path(n_steps=10)
        serial = monte_carlo(LAW, 16, 3, 5, path, threads=1)
        threaded = monte_carlo(LAW, 16, 3, 5, path, threads=2)
        assert np.array_equal(serial.stresses, threaded.stresses)
        assert np.array_equal(serial.fractions, threaded.fractions)
        assert np.array_equal(serial.energies, threaded.energies)

    def test_import_loads_no_worker_pool(self):
        # the worker processes' modules load only when a study runs on several
        # workers, and no study runs on a thread pool
        code = "import sys, rveplast; print(*sorted(sys.modules))"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
        loaded = set(done.stdout.split())
        assert "rveplast.stats" in loaded
        assert not loaded & {"multiprocessing", "concurrent.futures.process", "concurrent.futures.thread"}

    def test_needs_at_least_one_sample(self):
        with pytest.raises(ValueError):
            monte_carlo(LAW, 3, 0, 1, monotonic_path(n_steps=2))

    @pytest.mark.parametrize("threads", [0, -2])
    def test_needs_at_least_one_thread(self, threads):
        with pytest.raises(ValueError, match=f"threads={threads}"):
            monte_carlo(LAW, 3, 2, 1, monotonic_path(n_steps=2), threads=threads)

    def test_rejects_tiny_cells(self):
        with pytest.raises(ValueError, match="L >= 2, got L=1"):
            monte_carlo(LAW, 1, 2, 1, monotonic_path(n_steps=2))


class TestSampleVariance:
    def test_identical_samples(self):
        ens = tiny_ensemble([[[1.0, 0, 0]], [[1.0, 0, 0]]])
        assert ens.variance()[0, 0] == 0.0

    def test_two_sample_example(self):
        ens = tiny_ensemble([[[0.0, 0, 0]], [[2.0, 0, 0]]])
        assert ens.variance()[0, 0] == 1.0  # biased: divide by M

    def test_elastic_variance_scales_quadratically(self):
        # per sample the elastic map is linear, so variance(2F) = 4 variance(F)
        path1 = monotonic_path(rate=3.4e-5, n_steps=5)
        path2 = monotonic_path(rate=6.8e-5, n_steps=5)
        ens1 = monte_carlo(LAW, 4, 6, 3, path1)
        ens2 = monte_carlo(LAW, 4, 6, 3, path2)
        v1 = ens1.variance()[5, 0]
        v2 = ens2.variance()[5, 0]
        assert v2 == pytest.approx(4.0 * v1, rel=1e-8)

    def test_variance_reduction_with_sample_count(self):
        # variance of the M-sample mean over independent reruns scales ~1/M
        path = monotonic_path(n_steps=5)
        means = {}
        for M in (5, 20):
            vals = []
            for rerun in range(20):
                ens = monte_carlo(LAW, 3, M, 1000 + 131 * rerun, path)
                vals.append(ens.mean[-1, 0])
            means[M] = np.var(vals)
        ratio = means[5] / means[20]
        assert 2.5 <= ratio <= 6.5  # ideal would be 4


class TestErrorStudy:
    def test_reference_curves_anchored(self):
        Ls = [6, 10, 14]
        sys = systematic_reference(Ls, anchor=2.0)
        var = variance_reference(Ls, anchor=3.0)
        assert sys[0] == 2.0 and var[0] == 3.0
        assert np.all(np.diff(sys) < 0) and np.all(np.diff(var) < 0)

    def test_only_lmax_gives_zero_errors(self):
        path = monotonic_path(n_steps=4)
        table = systematic_error_study(LAW, [6], 6, 3, 11, path)
        assert np.all(table.e_sys[6] == 0.0)

    def test_restriction_study_matches_direct_sampling(self):
        # the study cuts every cell size from the L_max realizations;
        # position-keyed sampling makes those the ensembles sampled directly
        path = monotonic_path(n_steps=4)
        table = systematic_error_study(LAW, [4], 8, 3, 12, path)
        direct = monte_carlo(LAW, 4, 3, 12, path)
        assert np.array_equal(table.mean[4], direct.mean)
        assert np.array_equal(table.variance[4], direct.variance())

    def test_samples_only_the_largest_cell(self, monkeypatch):
        drawn = []

        def recording_sample(law, seed, sample_id, L):
            drawn.append((sample_id, L))
            return sample(law, seed, sample_id, L)

        monkeypatch.setattr(rveplast.stats, "sample", recording_sample)
        table = systematic_error_study(LAW, [4, 6], 8, 3, 12, monotonic_path(n_steps=2))
        assert drawn == [(1, 8), (2, 8), (3, 8)]
        assert sorted(table.mean) == [4, 6, 8]

    @pytest.mark.parametrize("threads", [0, -2])
    def test_needs_at_least_one_thread(self, threads):
        with pytest.raises(ValueError, match=f"threads={threads}"):
            systematic_error_study(LAW, [4], 6, 2, 1, monotonic_path(n_steps=2), threads=threads)

    def test_rejects_tiny_cells(self):
        with pytest.raises(ValueError, match="L >= 2, got L=1"):
            systematic_error_study(LAW, [1, 4], 6, 2, 1, monotonic_path(n_steps=2))

    def test_zero_at_reference_and_errors_recorded(self):
        path = monotonic_path(n_steps=4)
        table = systematic_error_study(LAW, [4, 6], 8, 4, 13, path)
        assert np.all(table.e_sys[8] == 0.0)
        for L in (4, 6):
            assert table.e_sys[L].shape == (5, 3)
            assert np.all(table.variance[L] >= 0.0)
        assert table.max_residual_rel < 1e-8
        assert table.energy_monotone

    def test_oversized_L_rejected(self):
        with pytest.raises(ValueError):
            systematic_error_study(LAW, [10], 8, 2, 1, monotonic_path(n_steps=2))


class TestSlopes:
    def test_loglog_identity(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        assert loglog_slope(xs, xs) == pytest.approx(1.0)

    def test_loglog_inverse_square(self):
        xs = np.array([2.0, 4.0, 8.0])
        assert loglog_slope(xs, xs**-2.0) == pytest.approx(-2.0)

    def test_loglog_scale_invariance(self):
        xs = np.array([3.0, 9.0, 27.0])
        assert loglog_slope(xs, 17.0 / xs) == pytest.approx(-1.0, abs=1e-12)

    def test_loglog_validation(self):
        with pytest.raises(ValueError):
            loglog_slope([1.0], [1.0])
        with pytest.raises(ValueError):
            loglog_slope([1.0, -2.0], [1.0, 2.0])

    def test_numerical_slope_constant_series(self):
        t = np.linspace(0, 1, 6)
        series = np.column_stack([t, np.full(6, 3.3)])
        driver = np.column_stack([t, np.linspace(0, 2, 6)])
        assert np.all(numerical_slope(series, driver) == 0.0)

    def test_numerical_slope_identity(self):
        t = np.linspace(0, 1, 6)
        f = np.linspace(0, 2, 6)
        series = np.column_stack([t, f])
        driver = np.column_stack([t, f])
        assert np.allclose(numerical_slope(series, driver), 1.0)

    def test_numerical_slope_elastic_homogeneous(self):
        a0 = 1.5e6
        law = MaterialLaw.point_mass(a0, 1.6e6, 1e9)  # stays elastic
        real = sample(law, 0, 1, 3)
        path = monotonic_path(rate=1e-4, n_steps=8)
        records = run_path(real, path)
        t = path.times
        series = np.column_stack([t, [rec.s[0] for _, rec in records]])
        driver = np.column_stack([t, path.tensors[:, 0]])
        assert np.allclose(numerical_slope(series, driver), a0, rtol=1e-9)

    def test_numerical_slope_validation(self):
        t = np.linspace(0, 1, 4)
        series = np.column_stack([t, t])
        other_grid = np.column_stack([t + 1.0, t])
        flat_driver = np.column_stack([t, np.zeros(4)])
        with pytest.raises(ValueError):
            numerical_slope(series, other_grid)
        with pytest.raises(ValueError):
            numerical_slope(series, flat_driver)
