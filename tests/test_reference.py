"""The reference oracles themselves: return mapping and brute force."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rveplast.assembly import build_increment, increment_energy
from rveplast.lattice import SymTensor2
from rveplast.randfield import MaterialLaw, sample
from rveplast.reference import (
    SpringParams,
    brute_force_increment,
    estimate_operator_norm,
    return_map,
    spring_trajectory,
)

PARAMS = SpringParams(a=2.0, h=1.0, sy=1.0)


def grid_search(params, d, p_prev, lo=-10.0, hi=10.0, n=2_000_001):
    """Dense-grid minimizer of the single-spring increment objective."""
    p = np.linspace(lo, hi, n)
    obj = (
        0.5 * params.a * (d - p) ** 2
        + 0.5 * params.h * p**2
        + params.sy * np.abs(p - p_prev)
    )
    return p[np.argmin(obj)]


class TestReturnMap:
    def test_elastic_below_yield(self):
        assert return_map(PARAMS, d=0.4, p_prev=0.0) == 0.0  # a|d| = 0.8 <= sy

    def test_plastic_flow_matches_grid(self):
        p = return_map(PARAMS, d=3.0, p_prev=0.0)
        assert p == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert p == pytest.approx(grid_search(PARAMS, 3.0, 0.0), abs=2e-5)

    def test_smooth_limit(self):
        params = SpringParams(a=2.0, h=1.0, sy=0.0)
        d = 0.7
        assert return_map(params, d, 0.3) == pytest.approx(params.a * d / (params.a + params.h))

    @given(
        a=st.floats(0.5, 5.0),
        h=st.floats(0.5, 5.0),
        sy=st.floats(0.0, 5.0),
        d=st.floats(-4.0, 4.0),
        p_prev=st.floats(-2.0, 2.0),
    )
    def test_subdifferential_inclusion(self, a, h, sy, d, p_prev):
        params = SpringParams(a, h, sy)
        p = return_map(params, d, p_prev)
        slope = -a * (d - p) + h * p
        if p == p_prev:
            assert abs(slope) <= sy + 1e-12 * (1 + sy)
        else:
            assert slope + sy * np.sign(p - p_prev) == pytest.approx(0.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpringParams(a=-1.0, h=1.0, sy=0.0)


class TestSpringTrajectory:
    def test_zero_path(self):
        p, stress = spring_trajectory(PARAMS, np.zeros(5))
        assert np.all(p == 0.0) and np.all(stress == 0.0)

    def test_bilinear_slopes(self):
        params = SpringParams(a=2.0, h=1.0, sy=1.0)
        strains = np.linspace(0.0, 5.0, 51)
        _, stress = spring_trajectory(params, strains)
        slopes = np.diff(stress) / np.diff(strains)
        # elastic branch has slope a, plastic branch a h / (a + h)
        assert slopes[0] == pytest.approx(params.a)
        assert slopes[-1] == pytest.approx(params.a * params.h / (params.a + params.h))

    def test_unloading_reverts_to_elastic_slope(self):
        params = SpringParams(a=2.0, h=1.0, sy=1.0)
        strains = np.concatenate([np.linspace(0.0, 5.0, 26), np.linspace(4.8, 0.0, 25)])
        _, stress = spring_trajectory(params, strains)
        d_after = strains[26] - strains[25]
        assert (stress[26] - stress[25]) / d_after == pytest.approx(params.a)


def random_increment(L, seed, scale=5e-3):
    law = MaterialLaw()
    real = sample(law, seed, 1, L)
    rng = np.random.default_rng(seed)
    F = SymTensor2(*rng.normal(scale=scale, size=3))
    return build_increment(real, F)


class TestBruteForce:
    def test_smooth_case_solves_linear_system(self):
        from scipy.sparse.linalg import spsolve

        prob = random_increment(L=3, seed=4)
        smooth = replace(prob, r=np.zeros_like(prob.r))
        y = brute_force_increment(smooth, iterations=60_000)
        exact = spsolve(prob.A.tocsc(), prob.f)
        assert np.abs(y - exact).max() < 1e-8

    def test_single_spring_matches_return_map(self):
        # L=2 clamps every node, so each plastic DOF is an isolated spring
        law = MaterialLaw.point_mass(1.5e6, 1.6e6, 1.0e3)
        real = sample(law, 0, 1, 2)
        gamma = 2.4e-3
        prob = build_increment(real, SymTensor2(gamma, 0.0, 0.0))
        y = brute_force_increment(prob, iterations=3_000, step=0.9 / (1.5e6 + 1.6e6))
        expected = return_map(SpringParams(1.5e6, 1.6e6, 1.0e3), gamma, 0.0)
        assert np.abs(y[:4] - expected).max() < 1e-10

    def test_energy_nonincreasing(self):
        prob = random_increment(L=2, seed=9)
        norm = estimate_operator_norm(prob.A)
        energies = []
        for iters in (10, 50, 250, 1250):
            y = brute_force_increment(prob, iterations=iters, step=0.5 / norm)
            energies.append(increment_energy(prob, y))
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
