"""Deterministic position-keyed sampling and nested restriction."""

import numpy as np
import pytest

from rveplast.lattice import K
from rveplast.randfield import ConfigError, MaterialLaw, restrict, sample

LAW = MaterialLaw()
SEED = 314159
_MASK = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _splitmix64_uniform(seed, sample_id, x, y, channel) -> float:
    """The key's uniform draw: each key field folded into the state through SplitMix64."""
    state = _splitmix64(seed ^ _GAMMA)
    for part in (sample_id, x, y, channel):
        state = _splitmix64(state ^ (part * _GAMMA & _MASK))
    return (state >> 11) * 2.0**-53


class TestMaterialLaw:
    def test_defaults(self):
        assert LAW.a == (1.0e6, 2.0e6)
        assert LAW.h == (1.25e6, 2.0e6)
        assert LAW.sigma_y == (0.9e3, 1.1e3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a": (2.0, 1.0)},
            {"a": (0.0, 1.0)},
            {"h": (-1.0, 1.0)},
            {"sigma_y": (5.0, 1.0)},
            {"sigma_y": (-2.0, -1.0)},
            # infinite bounds pass lo <= hi, but an inf draw ends a path in a nan residual
            {"a": (1e6, np.inf)},
            {"h": (np.inf, np.inf)},
            {"sigma_y": (0.9e3, np.inf)},
        ],
    )
    def test_invalid_intervals_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            MaterialLaw(**kwargs)


class TestSample:
    def test_point_mass(self):
        law = MaterialLaw.point_mass(1.5e6, 1.7e6, 1.0e3)
        real = sample(law, SEED, 1, 5)
        assert np.all(real.a == 1.5e6)
        assert np.all(real.h == 1.7e6)
        assert np.all(real.sy == 1.0e3)

    def test_values_within_intervals(self):
        real = sample(LAW, SEED, 1, 11)
        for arr, (lo, hi) in ((real.a, LAW.a), (real.h, LAW.h), (real.sy, LAW.sigma_y)):
            assert np.all((lo <= arr) & (arr <= hi))

    def test_position_keyed_independent_of_L(self):
        small = sample(LAW, SEED, 3, 6)
        big = sample(LAW, SEED, 3, 42)
        # values on the common sub-box coincide bitwise
        idx_small, idx_big = [], []
        for alpha in range(K):
            for y in range(6):
                for x in range(6):
                    idx_small.append(alpha * 36 + y * 6 + x)
                    idx_big.append(alpha * 42**2 + y * 42 + x)
        assert np.array_equal(small.a[idx_small], big.a[idx_big])
        assert np.array_equal(small.h[idx_small], big.h[idx_big])
        assert np.array_equal(small.sy[idx_small], big.sy[idx_big])

    def test_distinct_samples_differ(self):
        r1 = sample(LAW, SEED, 1, 6)
        r2 = sample(LAW, SEED, 2, 6)
        assert not np.array_equal(r1.a, r2.a)

    def test_empirical_mean(self):
        # uniform-distribution moments: mean (lo+hi)/2, sd (hi-lo)/sqrt(12)
        real = sample(LAW, SEED, 1, 42)
        n = real.a.size
        lo, hi = LAW.a
        stderr = (hi - lo) / np.sqrt(12.0 * n)
        assert abs(real.a.mean() - 0.5 * (lo + hi)) < 3.0 * stderr

    def test_invalid_side(self):
        with pytest.raises(ConfigError):
            sample(LAW, SEED, 1, 0)

    @pytest.mark.parametrize("L", [1, 6, 18])
    @pytest.mark.parametrize("seed", [SEED, 2**64 - 1])
    @pytest.mark.parametrize("sample_id", [1, 40])
    def test_draws_match_per_channel_splitmix64(self, L, seed, sample_id):
        # one key per (parameter rho, edge type alpha, tail node x + L y), on
        # channel alpha * 3 + rho, hashed one channel at a time with Python ints
        law = MaterialLaw((1.0, 3.0), (0.5, 4.0), (2.0, 2.5))
        real = sample(law, seed, sample_id, L)
        for rho, (name, (lo, hi)) in enumerate(zip(("a", "h", "sy"), (law.a, law.h, law.sigma_y))):
            expected = [
                lo + _splitmix64_uniform(seed, sample_id, x, y, alpha * 3 + rho) * (hi - lo)
                for alpha in range(K)
                for y in range(L)
                for x in range(L)
            ]
            assert np.array_equal(getattr(real, name), expected)


class TestRestrict:
    def test_identity_restriction(self):
        big = sample(LAW, SEED, 2, 10)
        assert restrict(big, 10) is big

    def test_restriction_composes(self):
        big = sample(LAW, SEED, 2, 20)
        via_10 = restrict(restrict(big, 10), 6)
        direct = restrict(big, 6)
        assert np.array_equal(via_10.a, direct.a)
        assert np.array_equal(via_10.h, direct.h)
        assert np.array_equal(via_10.sy, direct.sy)

    def test_restriction_equals_fresh_sample(self):
        big = sample(LAW, SEED, 2, 42)
        for L in (2, 6, 17):
            cut = restrict(big, L)
            fresh = sample(LAW, SEED, 2, L)
            assert np.array_equal(cut.a, fresh.a)
            assert np.array_equal(cut.h, fresh.h)
            assert np.array_equal(cut.sy, fresh.sy)

    def test_larger_than_source_rejected(self):
        big = sample(LAW, SEED, 2, 6)
        with pytest.raises(ValueError):
            restrict(big, 7)

    def test_zero_side_rejected(self):
        big = sample(LAW, SEED, 2, 6)
        with pytest.raises(ValueError, match="lattice side must be >= 1"):
            restrict(big, 0)

    def test_restriction_shares_no_memory(self):
        big = sample(LAW, SEED, 2, 10)
        for L in (2, 6, 9):
            cut = restrict(big, L)
            for name in ("a", "h", "sy"):
                assert not np.shares_memory(getattr(cut, name), getattr(big, name))


class TestStatisticalQuality:
    def test_independence_proxy(self):
        # correlation between two fixed distinct edges across 10^4 draws
        n_draws = 10_000
        vals = np.array([sample(LAW, SEED, i, 2).a[:2] for i in range(n_draws)])
        corr = np.corrcoef(vals[:, 0], vals[:, 1])[0, 1]
        assert abs(corr) < 0.05

    def test_kolmogorov_smirnov_uniform(self):
        from scipy.stats import kstest

        real = sample(LAW, SEED, 1, 42)
        lo, hi = LAW.a
        unit = (real.a - lo) / (hi - lo)
        stat = kstest(unit, "uniform").statistic
        # asymptotic 1% critical value of the one-sample KS statistic
        assert stat < 1.628 / np.sqrt(real.a.size)
