"""Acceptance suite: one test per criterion, at the stated tolerances.

Heavy studies are computed once in module-scoped fixtures and shared
between criteria (the variance-scaling fit reuses the nested-restriction
study's ensembles).  Every test prints one PASS line with the measured
quantities; solver certificates from all runs are audited at the end.
"""

import time

import numpy as np
import pytest
from helpers import numerical_slope

from rveplast.assembly import build_increment, increment_energy
from rveplast.driver import cyclic_path, monotonic_path, run_path
from rveplast.lattice import SymTensor2
from rveplast.randfield import MaterialLaw, sample
from rveplast.reference import SpringParams, brute_force_increment, spring_trajectory
from rveplast.solver import solve_increment
from rveplast.stats import loglog_slope, monte_carlo, systematic_error_study

SEED = 20240
LAW = MaterialLaw()
MIDPOINT = MaterialLaw.point_mass(1.5e6, 1.625e6, 1.0e3)  # interval midpoints
RESIDUAL_TOL = 1e-8  # of (1 + max|f|), per increment

# (label, max relative residual, energies monotone) for every run performed
CERTIFICATES: list[tuple[str, float, bool]] = []


def audit_reports(label: str, reports) -> None:
    residual = max(rep.residual / (1.0 + rep.load_norm) for rep in reports)
    monotone = all(
        b <= a for rep in reports for a, b in zip(rep.energies, rep.energies[1:])
    )
    CERTIFICATES.append((label, residual, monotone))


def audit_ensemble(label: str, ens) -> None:
    CERTIFICATES.append((label, ens.max_residual_rel, ens.energy_monotone))


@pytest.fixture(scope="module")
def cyclic_small():
    t0 = time.perf_counter()
    ens = monte_carlo(LAW, 4, 5, SEED, cyclic_path())
    elapsed = time.perf_counter() - t0
    audit_ensemble("cyclic L=4", ens)
    return ens, elapsed


@pytest.fixture(scope="module")
def cyclic_large():
    t0 = time.perf_counter()
    ens = monte_carlo(LAW, 40, 5, SEED, cyclic_path())
    elapsed = time.perf_counter() - t0
    audit_ensemble("cyclic L=40", ens)
    return ens, elapsed


@pytest.fixture(scope="module")
def mono30():
    t0 = time.perf_counter()
    ens = monte_carlo(LAW, 30, 40, SEED, monotonic_path())
    elapsed = time.perf_counter() - t0
    audit_ensemble("monotonic L=30", ens)
    return ens, elapsed


@pytest.fixture(scope="module")
def error_table():
    t0 = time.perf_counter()
    table = systematic_error_study(
        LAW, [6, 10, 14, 18, 22, 26], 42, 25, SEED, monotonic_path()
    )
    elapsed = time.perf_counter() - t0
    audit_ensemble("error study", table)
    return table, elapsed


def test_c01_single_spring_oracle_equivalence():
    real = sample(MIDPOINT, SEED, 1, 3)
    path = monotonic_path()
    reports = []
    t0 = time.perf_counter()
    records = run_path(real, path, reports=reports)
    elapsed = time.perf_counter() - t0
    audit_reports("criterion 1", reports)

    params = SpringParams(1.5e6, 1.625e6, 1.0e3)
    gammas = path.tensors[:, 0]
    worst = 0.0
    for alpha, strains in enumerate((gammas, 0.0 * gammas, gammas / 2)):
        _, expected = spring_trajectory(params, strains)
        got = np.array([rec.s[alpha] for _, rec in records])
        worst = max(worst, np.abs(got - expected).max())
    assert worst < 1e-6
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: max |s - oracle| = {worst:.2e}, runtime {elapsed:.2f}s")


def test_c02_brute_force_equivalence():
    t0 = time.perf_counter()
    worst_energy = -np.inf
    worst_dof = 0.0
    for instance in range(10):
        real = sample(LAW, SEED + instance, 1, 2)
        rng = np.random.default_rng(instance)
        prob = build_increment(real, SymTensor2(*rng.normal(scale=5e-3, size=3)))
        p_prev = np.zeros(prob.cell.n)
        for inc in range(2):
            y, report = solve_increment(prob)
            audit_reports(f"criterion 2 instance {instance} inc {inc}", [report])
            oracle = brute_force_increment(prob, iterations=5000)
            gap = increment_energy(prob, y) - increment_energy(prob, oracle)
            diff = np.abs(y - oracle).max()
            worst_energy = max(worst_energy, gap)
            worst_dof = max(worst_dof, diff)
            # chain a second random strain increment from the plastic state
            p_prev = y[: prob.cell.n]
            prob = build_increment(
                real, SymTensor2(*rng.normal(scale=5e-3, size=3)), p_prev=p_prev, A=prob.A
            )
    elapsed = time.perf_counter() - t0
    assert worst_energy <= 1e-9
    assert worst_dof < 1e-6
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 2 PASS: energy gap <= {worst_energy:.2e}, "
        f"max DOF diff {worst_dof:.2e}, runtime {elapsed:.1f}s"
    )


def test_c03_rate_independence():
    real = sample(LAW, SEED, 1, 6)
    base = cyclic_path()
    warped_times = np.concatenate([[0.0], np.cumsum(np.linspace(0.3, 2.7, base.n_steps))])
    from rveplast.driver import StrainPath

    warped = StrainPath(warped_times, base.tensors.copy())
    reports_a, reports_b = [], []
    recs_a = run_path(real, base, reports=reports_a)
    recs_b = run_path(real, warped, reports=reports_b)
    audit_reports("criterion 3", reports_a + reports_b)
    for (_, ra), (_, rb) in zip(recs_a, recs_b):
        assert np.array_equal(ra.s, rb.s)
        assert np.array_equal(ra.fractions, rb.fractions)
        assert ra.energy == rb.energy
    print("ACCEPTANCE 3 PASS: bitwise-identical stress records on both time grids")


def test_c04_elastic_linearity_and_yield_onset():
    # paper law, loads scaled by 1e-2: the response stays elastic and linear
    reports = []
    real = sample(LAW, SEED, 1, 6)
    small = run_path(real, monotonic_path(rate=0.0034e-2), reports=reports)
    double = run_path(real, monotonic_path(rate=2 * 0.0034e-2), reports=reports)
    audit_reports("criterion 4 linearity", reports)
    worst = 0.0
    for (_, r1), (_, r2) in zip(small[1:], double[1:]):
        worst = max(worst, np.linalg.norm(r2.s - 2.0 * r1.s) / np.linalg.norm(r2.s))
    assert worst < 1e-8

    # homogeneous midpoint coefficients: first plastic events per type
    hom = sample(MIDPOINT, SEED, 1, 3)
    path = monotonic_path()
    reports_hom = []
    records = run_path(hom, path, reports=reports_hom)
    audit_reports("criterion 4 onsets", reports_hom)
    fractions = np.array([rec.fractions for _, rec in records])
    f11 = path.tensors[:, 0]
    step = f11[1] - f11[0]
    first_h = f11[np.argmax(fractions[:, 0] > 0)]
    first_d = f11[np.argmax(fractions[:, 2] > 0)]
    yield_h = 1.0e3 / 1.5e6
    yield_d = 2.0e3 / 1.5e6
    assert abs(first_h - yield_h) <= step + 1e-12
    assert abs(first_d - yield_d) <= step + 1e-12
    print(
        f"ACCEPTANCE 4 PASS: linearity defect {worst:.2e}; first events at "
        f"F11={first_h:.4e} (ideal {yield_h:.4e}) and {first_d:.4e} (ideal {yield_d:.4e})"
    )


def _distinct_slopes(f11, s1, rel_tol=1e-3):
    df = np.diff(f11)
    keep = np.abs(df) > 1e-12
    slopes = np.diff(s1)[keep] / df[keep]
    clusters: list[float] = []
    for slope in sorted(slopes):
        if not clusters or abs(slope - clusters[-1]) > rel_tol * max(abs(slope), 1.0):
            clusters.append(slope)
    return len(clusters)


def test_c05_cyclic_hysteresis(cyclic_small, cyclic_large):
    ens4, t4 = cyclic_small
    ens40, t40 = cyclic_large
    assert t4 < 5.0
    assert t40 < 300.0
    for i in range(ens4.M):
        assert _distinct_slopes(ens4.f11, ens4.stresses[i, :, 0]) >= 2
    sd4 = np.std(ens4.stresses[:, -1, 0])
    sd40 = np.std(ens40.stresses[:, -1, 0])
    assert sd40 * 2.0 <= sd4
    print(
        f"ACCEPTANCE 5 PASS: L=4 in {t4:.1f}s, L=40 in {t40:.0f}s, "
        f"sd(s1(T)) {sd4:.2f} -> {sd40:.2f} (factor {sd4 / sd40:.1f})"
    )


def test_c06_monotonic_regime_structure(mono30):
    ens, elapsed = mono30
    assert elapsed < 900.0
    frac = ens.fractions.mean(axis=0)
    f11 = ens.f11

    assert np.all(frac[:, 1] == 0.0)  # vertical springs stay elastic

    first_r1 = f11[np.argmax(frac[:, 0] > 0)]
    assert 0.0003 <= first_r1 <= 0.0008
    full_r1 = f11[np.argmax(frac[:, 0] >= 1.0)]
    assert frac[:, 0].max() >= 1.0 and full_r1 <= 0.0015

    first_r3 = f11[np.argmax(frac[:, 2] > 0)]
    assert first_r3 > first_r1
    assert frac[:, 2].max() >= 1.0, f"R3 never fully plastic: max mean fraction {frac[:, 2].max():.5f}"
    full_r3 = f11[np.argmax(frac[:, 2] >= 1.0)]
    gate = int(np.flatnonzero(f11 <= 0.0025)[-1])
    elastic_r3 = int(np.rint((1.0 - ens.fractions[:, gate, 2]) * ens.L**2).sum())
    assert full_r3 <= 0.0025, (
        f"R3 fully plastic only at F11={full_r3:.6f}; at F11={f11[gate]:.6f} the mean R3 "
        f"fraction is {frac[gate, 2]:.5f} with {elastic_r3} of {ens.M * ens.L**2} "
        f"diagonal springs elastic"
    )

    slopes = numerical_slope(
        np.column_stack([ens.times, ens.mean[:, 0]]), np.column_stack([ens.times, f11])
    )
    # slope entries k use strains (f11[k-1], f11[k])
    elastic = slopes[[k - 1 for k in range(1, 51) if f11[k] <= 0.0003]]
    plastic = slopes[[k - 1 for k in range(1, 51) if f11[k - 1] >= 0.0025]]
    spread_e = (elastic.max() - elastic.min()) / elastic.mean()
    spread_p = (plastic.max() - plastic.min()) / plastic.mean()
    assert spread_e <= 0.01
    assert spread_p <= 0.01
    print(
        f"ACCEPTANCE 6 PASS: runtime {elapsed:.0f}s; R1 onset {first_r1:.4f}, full {full_r1:.4f}; "
        f"R3 onset {first_r3:.4f}, full {full_r3:.4f}; slope spreads {spread_e:.2e}/{spread_p:.2e}"
    )


def test_c07_random_error_scaling(error_table):
    table, elapsed = error_table
    assert elapsed < 600.0 + 1800.0  # shared with the systematic study below
    window = [6, 10, 14, 18, 22]
    l_elast = int(np.argmin(np.abs(table.times - 0.08)))
    l_plast = int(np.argmin(np.abs(table.times - 1.0)))
    slope_elast = loglog_slope(window, [table.variance[L][l_elast, 0] for L in window])
    slope_plast = loglog_slope(window, [table.variance[L][l_plast, 0] for L in window])
    assert -2.8 <= slope_elast <= -1.2
    assert -2.8 <= slope_plast <= -1.2
    print(
        f"ACCEPTANCE 7 PASS: variance slopes {slope_elast:+.2f} (elastic), "
        f"{slope_plast:+.2f} (plastic); ideal -2"
    )


def test_c08_systematic_error_decay(error_table):
    table, elapsed = error_table
    assert elapsed < 1800.0
    window = [6, 10, 14, 18, 22, 26]
    l_elast = int(np.argmin(np.abs(table.times - 0.08)))
    rel = np.array(
        [table.e_sys[L][l_elast, 0] for L in window]
    ) / table.mean[table.L_max][l_elast, 0]
    paired = 0.5 * (rel[:-1] + rel[1:])
    assert np.all(np.diff(paired) < 0.0)
    slope = loglog_slope(window, rel)
    assert -3.0 <= slope <= -1.2
    print(
        f"ACCEPTANCE 8 PASS: runtime {elapsed:.0f}s, pairwise-averaged relative error "
        f"strictly decreasing, slope {slope:+.2f} (ideal -2 up to log factors)"
    )


def test_c09_solver_certificates(cyclic_small, cyclic_large, mono30, error_table):
    assert CERTIFICATES, "earlier criteria must have registered their runs"
    worst = max(residual for _, residual, _ in CERTIFICATES)
    offenders = [label for label, residual, mono in CERTIFICATES if residual > RESIDUAL_TOL or not mono]
    assert not offenders, offenders
    print(
        f"ACCEPTANCE 9 PASS: {len(CERTIFICATES)} audited runs, all energies nonincreasing, "
        f"worst relative residual {worst:.2e} <= {RESIDUAL_TOL:.0e}"
    )
