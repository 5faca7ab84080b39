"""Strain paths, path evolution, stress extraction, plastic fractions."""

import pickle
from dataclasses import asdict, replace

import hypothesis
import numpy as np
import pytest
from helpers import prandtl_ishlinskii
from hypothesis import given
from hypothesis import strategies as st

import rveplast.driver
import rveplast.solver
from rveplast.assembly import (
    RveState,
    assemble_load,
    assemble_operator,
    build_increment,
    cell_structure,
    increment_energy,
)
from rveplast.driver import (
    PathError,
    StrainPath,
    cyclic_path,
    monotonic_path,
    plastic_fraction,
    run_path,
    stress_vector,
)
from rveplast.lattice import SymTensor2, ps_map
from rveplast.randfield import MaterialLaw, restrict, sample
from rveplast.reference import SpringParams, spring_trajectory
from rveplast.solver import SolverError, SolverSettings, optimality_residual, solve_increment

LAW = MaterialLaw()
MID = MaterialLaw.point_mass(1.5e6, 1.625e6, 1.0e3)


class TestPaths:
    def test_cyclic_starts_at_zero(self):
        path = cyclic_path()
        assert np.all(path.tensors[0] == 0.0)
        assert path.times[0] == 0.0

    def test_cyclic_amplitude_at_quarter_period(self):
        # one step to t = pi/16 where sin(8 t) = 1
        path = cyclic_path(amplitude=3e-3, frequency=8.0, n_steps=1, t_end=np.pi / 16)
        assert path.tensors[1, 0] == pytest.approx(3e-3)

    def test_cyclic_default_grid(self):
        path = cyclic_path()
        assert path.n_steps == 50
        assert np.allclose(path.times, np.linspace(0.0, 1.0, 51))
        assert np.allclose(path.tensors[:, 0], 3e-3 * np.sin(8.0 * path.times))
        assert np.all(path.tensors[:, 1:] == 0.0)

    def test_monotonic_values(self):
        path = monotonic_path()
        assert path.tensors[0, 0] == 0.0
        assert path.tensors[-1, 0] == pytest.approx(0.0034)
        assert path.tensors[25, 0] == pytest.approx(0.0017)

    def test_validation(self):
        with pytest.raises(ValueError):
            StrainPath(np.array([0.0, 1.0]), np.array([[1e-3, 0, 0], [0, 0, 0]]))
        with pytest.raises(ValueError):
            StrainPath(np.array([0.0, 0.5, 0.5]), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            monotonic_path(n_steps=0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                StrainPath(np.array([0.0, 1.0, bad]), np.zeros((3, 3)))
            tensors = np.zeros((3, 3))
            tensors[2, 1] = bad
            with pytest.raises(ValueError):
                StrainPath(np.array([0.0, 1.0, 2.0]), tensors)

    def test_tensors_need_three_components(self):
        with pytest.raises(ValueError, match=r"tensors \(N\+1, 3\)"):
            StrainPath(np.array([0.0, 1.0, 2.0]), np.zeros((3, 2)))


class TestStressVector:
    def test_zero_everything(self):
        real = sample(LAW, 1, 1, 4)
        s = stress_vector(real, RveState.zero(4), SymTensor2(0.0, 0.0, 0.0))
        assert np.all(s == 0.0)

    def test_homogeneous_elastic(self):
        a0 = 1.5e6
        law = MaterialLaw.point_mass(a0, 1.6e6, 1e9)  # huge yield: stays elastic
        real = sample(law, 0, 1, 5)
        gamma = 2e-3
        s = stress_vector(real, RveState.zero(5), SymTensor2(gamma, 0.0, 0.0))
        assert np.allclose(s, [a0 * gamma, 0.0, a0 * gamma / 2], rtol=1e-14)

    def test_cyclic_magnitude_order_of_kilo(self):
        real = sample(LAW, 9, 1, 4)
        records = run_path(real, cyclic_path())
        peak = max(abs(rec.s[0]) for _, rec in records)
        assert 5e2 < peak < 5e4


class TestPlasticFraction:
    def test_zero_state(self):
        assert np.all(plastic_fraction(RveState.zero(3)) == 0.0)

    def test_all_plastic(self):
        state = RveState.zero(3)
        state.p[:] = 1e-4
        assert np.all(plastic_fraction(state) == 1.0)

    def test_homogeneous_just_past_horizontal_yield(self):
        # first yield at F11 = sy / a for horizontal, 2 sy / a for diagonal
        yield_strain = 1.0e3 / 1.5e6
        real = sample(MID, 0, 1, 3)
        path = monotonic_path(rate=1.1 * yield_strain, n_steps=1)
        state, _ = run_path(real, path)[-1]
        assert np.allclose(plastic_fraction(state), [1.0, 0.0, 0.0])


class TestRunPath:
    def test_zero_path(self):
        real = sample(LAW, 2, 1, 3)
        path = StrainPath(np.linspace(0, 1, 4), np.zeros((4, 3)))
        cell = cell_structure(3)
        for state, rec in run_path(real, path):
            assert state.p.shape == (cell.n,) and state.phi.shape == (cell.m,)
            assert np.all(state.p == 0.0) and np.all(state.phi == 0.0)
            assert np.all(rec.s == 0.0) and rec.energy == 0.0

    def test_homogeneous_matches_single_spring_oracle(self):
        real = sample(MID, 0, 1, 3)
        path = monotonic_path()
        records = run_path(real, path)
        gammas = path.tensors[:, 0]
        params = SpringParams(1.5e6, 1.625e6, 1.0e3)
        _, s1 = spring_trajectory(params, gammas)
        _, s3 = spring_trajectory(params, gammas / 2)
        for l, (state, rec) in enumerate(records):
            assert np.abs(state.phi).max() <= 1e-10
            assert abs(rec.s[0] - s1[l]) < 1e-8 * (1 + abs(s1[l]))
            assert rec.s[1] == pytest.approx(0.0, abs=1e-8)
            assert abs(rec.s[2] - s3[l]) < 1e-8 * (1 + abs(s3[l]))

    def test_rate_independence_bitwise(self):
        real = sample(LAW, 3, 1, 5)
        base = cyclic_path(n_steps=20)
        stretched = StrainPath(np.cumsum(np.concatenate([[0.0], 1 + np.arange(20) % 3])), base.tensors)
        recs_a = run_path(real, base)
        recs_b = run_path(real, stretched)
        for (_, ra), (_, rb) in zip(recs_a, recs_b):
            assert np.array_equal(ra.s, rb.s)
            assert np.array_equal(ra.fractions, rb.fractions)
            assert ra.energy == rb.energy

    def test_rate_independence_bitwise_with_pcg(self):
        # at L=16 most Newton steps are solved by CG with the path's factor
        real = sample(LAW, 3, 1, 16)
        assert cell_structure(16).m >= rveplast.solver._PCG_MIN_DOFS
        base = cyclic_path(n_steps=20)
        times = np.cumsum(np.concatenate([[0.0], 1 + np.arange(20) % 3]))
        stretched = StrainPath(times, base.tensors)
        reports = []
        recs_a = run_path(real, base, reports=reports)
        recs_b = run_path(real, stretched)
        assert sum(rep.pcg_solves for rep in reports) > 0
        for (sa, ra), (sb, rb) in zip(recs_a, recs_b):
            assert np.array_equal(sa.p, sb.p) and np.array_equal(sa.phi, sb.phi)
            assert np.array_equal(ra.s, rb.s)
            assert ra.energy == rb.energy

    def test_increments_match_build_increment(self, monkeypatch):
        # run_path and build_increment make the same increments: the same load
        # bitwise, the previous step's plastic strains, the same A; the steps
        # of one path share one Schur factor cache.  Each starts at the secant
        # predictor phi_(l-1) + c_l (phi_(l-1) - phi_(l-2)), c_l from the
        # strains, and c_l = 0 after the repeated strain row (a zero step);
        # run_path hands it over as the free displacements in DOF order
        solve = rveplast.driver.solve_increment
        problems = []
        starts = []

        def spy(prob, **kwargs):
            problems.append(prob)
            starts.append(kwargs["warm_start"])
            return solve(prob, **kwargs)

        monkeypatch.setattr(rveplast.driver, "solve_increment", spy)
        real = sample(LAW, 8, 1, 4)
        repeated = [1e-3, 4e-4, -2e-4]
        tensors = [[0, 0, 0], repeated, repeated, [2e-3, -3e-4, 5e-4], [0, 1e-3, 0]]
        path = StrainPath(np.linspace(0.0, 1.0, 5), tensors)
        records = run_path(real, path)
        assert len(problems) == path.n_steps
        for l, prob in enumerate(problems, start=1):
            expected = build_increment(real, path.tensor(l), p_prev=records[l - 1][0].p)
            assert np.array_equal(prob.f, expected.f)
            assert np.array_equal(prob.p_prev, expected.p_prev)
            assert np.array_equal(prob.r, expected.r)
            assert (prob.A != expected.A).nnz == 0
            assert prob.schur_factor is problems[0].schur_factor
        assert problems[0].schur_factor  # holds the path's last factor
        phis = [np.zeros_like(starts[0])] + [state.phi for state, _ in records]
        steps = np.diff(path.tensors, axis=0)
        assert np.all(starts[0] == 0.0)
        for l in range(2, path.n_steps + 1):
            norm = np.dot(steps[l - 2], steps[l - 2])
            c = np.dot(steps[l - 1], steps[l - 2]) / norm if norm > 0.0 else 0.0
            expected = phis[l] + c * (phis[l] - phis[l - 1])
            assert np.abs(starts[l - 1] - expected).max() <= 1e-14 * np.abs(expected).max()
            if l == 3:  # the step after the zero step starts at phi_2 itself
                assert c == 0.0 and np.array_equal(starts[l - 1], phis[l])
        assert c < 0.0  # the last step reverses the load

    @pytest.mark.parametrize("L, make_path", [(6, cyclic_path), (16, monotonic_path)])
    def test_history_matches_solve_loop(self, L, make_path):
        # one solve_increment per step from the secant predictor, with the
        # path's Schur factor cache: the same states, energies, fractions and
        # reports bitwise, and the stresses of per-step mapped_stress up to
        # round-off.  L=6 factors every flowing set, L=16 solves most by CG
        real = sample(LAW, 20240, 1, L)
        path = make_path()
        reports = []
        records = run_path(real, path, reports=reports)
        cell = cell_structure(L)
        B = assemble_load(real)
        a_sums = real.by_type("a").sum(axis=1)
        A = assemble_operator(real)
        cache = {}
        n = cell.n
        y = before = np.zeros(cell.total)
        assert np.all(records[0][1].s == 0.0) and np.all(records[0][1].fractions == 0.0)
        for l in range(1, path.n_steps + 1):
            step = path.tensors[l] - path.tensors[l - 1]
            last = path.tensors[l - 1] - path.tensors[l - 2]
            c = float(step @ last / (last @ last)) if l >= 2 and last @ last > 0.0 else 0.0
            start = y[n:] + c * (y[n:] - before[n:])
            prob = build_increment(real, path.tensor(l), p_prev=y[:n], A=A)
            prob = replace(prob, schur_factor=cache)
            before = y
            y, report = solve_increment(prob, warm_start=start)
            state = RveState(y[:n], y[n:])
            got, rec = records[l]
            assert np.array_equal(got.p, state.p) and np.array_equal(got.phi, state.phi)
            assert rec.energy == report.energy
            assert np.array_equal(rec.fractions, plastic_fraction(state))
            assert asdict(reports[l - 1]) == asdict(report)
            s_ref = cell.mapped_stress(B, a_sums, y, ps_map(path.tensor(l)))
            assert np.abs(rec.s - s_ref).max() <= 1e-13 * np.abs(s_ref).max()
        if L == 16:
            assert sum(rep.pcg_solves for rep in reports) > 0

    def test_records_do_not_alias(self):
        # each state views its own row of its path's array: no two states share
        # memory, and a later path on the same cell size changes no record
        path = cyclic_path(n_steps=12)
        records = run_path(sample(LAW, 20240, 1, 6), path)
        kept = [(s.p.copy(), s.phi.copy(), r.s.copy(), r.fractions.copy()) for s, r in records]
        for (a, ra), (b, rb) in zip(records, records[1:]):
            assert not np.shares_memory(a.p, b.p) and not np.shares_memory(a.phi, b.phi)
            assert not np.shares_memory(a.p, a.phi) and not np.shares_memory(ra.s, rb.s)
        run_path(sample(LAW, 20240, 2, 6), path)
        for (state, rec), (p, phi, s, fractions) in zip(records, kept):
            assert np.array_equal(state.p, p) and np.array_equal(state.phi, phi)
            assert np.array_equal(rec.s, s) and np.array_equal(rec.fractions, fractions)

    @pytest.mark.parametrize("L", [4, 16])
    @pytest.mark.parametrize(
        "make_path", [monotonic_path, cyclic_path], ids=["monotonic", "cyclic"]
    )
    def test_records_match_edge_definitions(self, L, make_path):
        # run_path reads the stresses off its per-path load map, stress_vector
        # sums over the edges; the fractions are plastic_fraction's
        real = sample(LAW, 20240, 2, L)
        path = make_path()
        records = run_path(real, path)
        for l, (state, rec) in enumerate(records):
            s_ref = stress_vector(real, state, path.tensor(l))
            assert np.abs(rec.s - s_ref).max() <= 1e-12 * np.abs(s_ref).max()
            assert np.array_equal(rec.fractions, plastic_fraction(state))
        assert records[-1][1].fractions[0] > 0.0
        # a stack of states, p of shape (N+1, n), gives the fractions state by state, bitwise
        P, Phi = (np.array([getattr(state, key) for state, _ in records]) for key in ("p", "phi"))
        stacked = plastic_fraction(RveState(P, Phi))
        assert stacked.shape == (len(records), 3)
        assert np.array_equal(stacked, [plastic_fraction(state) for state, _ in records])

    @pytest.mark.parametrize(
        "make_path", [monotonic_path, cyclic_path], ids=["monotonic", "cyclic"]
    )
    def test_secant_start_saves_newton_steps(self, make_path):
        # the same certified states as starting each increment at the previous
        # state, in fewer Newton steps
        real = sample(LAW, 20240, 1, 14)
        path = make_path()
        reports = []
        records = run_path(real, path, reports=reports)
        cell = cell_structure(14)
        y = np.zeros(cell.total)
        steps = 0
        for l in range(1, path.n_steps + 1):
            prob = build_increment(real, path.tensor(l), p_prev=y[: cell.n])
            y, report = solve_increment(prob, warm_start=y[cell.n :])
            steps += report.iterations
            s, s_ref = records[l][1].s, stress_vector(real, RveState(y[: cell.n], y[cell.n :]), path.tensor(l))
            assert np.abs(s - s_ref).max() <= 1e-10 * np.abs(s_ref).max()
        assert sum(rep.iterations for rep in reports) < steps

    @pytest.mark.parametrize("L", [6, 14])
    def test_uneven_steps_with_reversal_and_hold(self, L):
        # the predictor's coefficient takes values other than 1, negative ones
        # at the reversal and 0 after the hold; every increment is certified
        f11 = [0, 4e-4, 1.2e-3, 1.2e-3, 1.5e-3, 2.4e-3, 3e-3, 2.2e-3, 1.9e-3, 5e-4, -2e-4, -1e-3]
        tensors = np.zeros((len(f11), 3))
        tensors[:, 0] = f11
        path = StrainPath(np.arange(len(f11), dtype=float), tensors)
        steps = np.diff(f11)
        products = steps[1:] * steps[:-1]
        assert np.any(steps == 0.0) and np.any(products < 0.0)
        assert len(set(np.abs(steps[steps != 0.0]))) > 1  # uneven
        real = sample(LAW, 20240, 2, L)
        reports = []
        records = run_path(real, path, reports=reports)
        gate = SolverSettings().tol_residual
        for l, rep in enumerate(reports, start=1):
            prob = build_increment(real, path.tensor(l), p_prev=records[l - 1][0].p)
            residual = optimality_residual(prob, records[l][0])
            assert residual <= gate * (1.0 + rep.load_norm)
            assert np.all(np.diff(rep.energies) <= 0.0)

    def test_fraction_monotone_under_monotone_load(self):
        real = sample(LAW, 4, 1, 6)
        records = run_path(real, monotonic_path())
        fractions = np.array([rec.fractions for _, rec in records])
        assert np.all(np.diff(fractions, axis=0) >= 0.0)

    def test_regimewise_affine_response(self):
        # with homogeneous coefficients the stress-strain relation is affine
        # while the edge classification stays constant
        real = sample(MID, 0, 1, 4)
        records = run_path(real, monotonic_path())
        s1 = np.array([rec.s[0] for _, rec in records])
        f11 = np.array([rec.F.a11 for _, rec in records])
        labels = [tuple(rec.fractions) for _, rec in records]
        slopes = np.diff(s1) / np.diff(f11)
        for k in range(1, len(slopes)):
            if labels[k - 1] == labels[k] == labels[k + 1]:
                assert slopes[k] == pytest.approx(slopes[k - 1], rel=1e-8)

    def test_solver_failure_carries_step(self):
        real = sample(LAW, 6, 1, 4)
        with pytest.raises(PathError) as excinfo:
            run_path(real, monotonic_path(), settings=SolverSettings(max_outer=1))
        assert excinfo.value.step >= 1

    def test_solver_failure_survives_pickling(self):
        # a worker process hands its PathError to the parent as a pickle
        real = sample(LAW, 6, 1, 4)
        with pytest.raises(PathError) as excinfo:
            run_path(real, monotonic_path(), settings=SolverSettings(max_outer=1))
        err = excinfo.value
        copy = pickle.loads(pickle.dumps(err))
        assert type(copy) is PathError and str(copy) == str(err) and copy.step == err.step
        assert type(copy.cause) is SolverError and str(copy.cause) == str(err.cause)
        assert copy.cause.report == err.cause.report and copy.cause.report.iterations == 1

    def test_rejects_tiny_cells(self):
        # a cell of side 1 has no increment problem; its load map refuses it
        with pytest.raises(ValueError, match="L >= 2, got L=1"):
            run_path(sample(LAW, 1, 1, 1), monotonic_path(n_steps=2))

    def test_reports_collected(self):
        real = sample(LAW, 7, 1, 3)
        reports = []
        run_path(real, monotonic_path(n_steps=5), reports=reports)
        assert len(reports) == 5
        assert all(rep.converged for rep in reports)

    def test_reports_count_factors_and_pcg(self):
        # one path shares one factor: CG solves the later flowing sets, and
        # some of those solves stop early on a changed side pattern
        real = sample(LAW, 7, 1, 16)
        reports = []
        records = run_path(real, monotonic_path(), reports=reports)
        steps = sum(rep.iterations for rep in reports)
        factors = sum(rep.factors for rep in reports)
        pcg_solves = sum(rep.pcg_solves for rep in reports)
        assert 1 <= factors < steps
        assert pcg_solves > 0
        pcg_iterations = sum(rep.pcg_iterations for rep in reports)
        assert pcg_iterations <= rveplast.solver._PCG_MAX_ITER * pcg_solves
        assert 0 < sum(rep.pattern_exits for rep in reports) < pcg_solves
        for (before, _), (after, _), rep in zip(records, records[1:], reports):
            assert rep.flowing == np.count_nonzero(after.p != before.p)
        assert reports[0].flowing == 0 < reports[-1].flowing


# Increments on which a solver that compares two evaluated energies stalls:
# near the minimizer a step's energy decrease lies below the round-off of the
# energy's separate terms, so every step is rejected.
_MONO = monotonic_path()
STALLS = {
    # nested-restriction study, sample 7 restricted from L=42 to 18, through step 20
    "restricted-L18": (
        lambda: restrict(sample(LAW, 20240, 7, 42), 18),
        StrainPath(_MONO.times[:21], _MONO.tensors[:21]),
    ),
    # cyclic preset, master seed 44, sample 3, stalled at step 17
    "cyclic-L6": (lambda: sample(LAW, 44, 3, 6), cyclic_path()),
}


@pytest.fixture(scope="module", params=sorted(STALLS))
def stall_replay(request):
    make_real, path = STALLS[request.param]
    real = make_real()
    reports = []
    records = run_path(real, path, reports=reports)
    return real, path, records, reports


class TestStallReplays:
    def test_certificates_and_monotone_energies(self, stall_replay):
        _, path, _, reports = stall_replay
        tol = SolverSettings().tol_residual
        assert len(reports) == path.n_steps
        for rep in reports:
            assert rep.converged
            assert rep.residual / (1.0 + rep.load_norm) <= tol
            assert all(b <= a for a, b in zip(rep.energies, rep.energies[1:]))

    def test_reported_energy_is_increment_energy(self, stall_replay):
        real, path, records, reports = stall_replay
        for l, rep in enumerate(reports, start=1):
            prev_state, _ = records[l - 1]
            state, rec = records[l]
            prob = build_increment(real, path.tensor(l), p_prev=prev_state.p)
            exact = increment_energy(prob, state)
            assert rec.energy == rep.energy
            assert abs(rep.energy - exact) <= 1e-12 * (1.0 + abs(exact))


def _interval(low, high):
    """(lo, hi) with lo in [low, high] and hi up to 3 lo."""
    return st.tuples(st.floats(low, high), st.floats(1.0, 3.0)).map(lambda t: (t[0], t[0] * t[1]))


def f11_path(values) -> StrainPath:
    """The uniaxial path from zero strain through the given F11 values, one time unit apart."""
    tensors = np.zeros((len(values) + 1, 3))
    tensors[1:, 0] = values
    return StrainPath(np.arange(len(values) + 1, dtype=float), tensors)


class TestPrandtlIshlinskii:
    # Under the paper's law the uniaxial response of a cell is a generalized
    # Prandtl-Ishlinskii operator (Krasnosel'skii and Pokrovskii, Systems with
    # Hysteresis, 1989), exact to round-off.  The cases are fixed: under
    # high-contrast laws the structure is inexact, and a search would find that.
    CELLS = [(L, seed) for L in (3, 4, 6) for seed in (1, 2, 3, 4)]

    @pytest.mark.parametrize("L, seed", CELLS)
    @pytest.mark.parametrize(
        "start, segment",
        [([], (0.0, 3.4e-3)), ([3e-3], (3e-3, -1e-3))],
        ids=["virgin", "after-reversal"],
    )
    def test_monotone_segment_is_step_independent(self, L, seed, start, segment):
        real = sample(LAW, seed, 1, L)
        ends = [
            run_path(real, f11_path(start + list(np.linspace(*segment, n + 1)[1:])))[-1][1].s
            for n in (1, 10, 40)
        ]
        scale = max(np.abs(s).max() for s in ends)
        for s in ends[1:]:
            assert np.abs(s - ends[0]).max() <= 1e-12 * scale

    @pytest.mark.parametrize("L, seed", CELLS)
    @pytest.mark.parametrize("F_r, delta", [(3e-3, 2e-3), (2e-3, 4e-3), (1e-3, 1.5e-3), (3.4e-3, 6.8e-3)])
    def test_masing_rule(self, L, seed, F_r, delta):
        # s(F_r - delta) = s(F_r) - 2 phi(delta / 2), phi the virgin response
        # of one increment from zero strain
        real = sample(LAW, seed, 1, L)
        records = run_path(real, f11_path([F_r, F_r - delta]))
        s_r, s_back = records[1][1].s, records[2][1].s
        virgin = run_path(real, f11_path([delta / 2]))[1][1].s
        scale = max(np.abs(s_r).max(), np.abs(s_back).max())
        assert np.abs(s_back - (s_r - 2.0 * virgin)).max() <= 1e-12 * scale

    @pytest.mark.parametrize("L, seed", CELLS)
    @pytest.mark.parametrize(
        "F1, F2, F3",
        [(3e-3, 1e-3, 3.4e-3), (2e-3, -1e-3, 3e-3), (3.4e-3, 2.5e-3, 3.4e-3), (-2e-3, 1e-3, -3e-3)],
    )
    def test_wiping_out(self, L, seed, F1, F2, F3):
        # return-point memory: the minor loop F1 -> F2 -> F1 ends at the stress
        # of the first F1, and the continuation to F3 is that of 0 -> F1 -> F3
        real = sample(LAW, seed, 1, L)
        for n in (1, 7):  # steps per segment

            def legs(corners):
                ends = [0.0, *corners]
                return [F for a, b in zip(ends, ends[1:]) for F in np.linspace(a, b, n + 1)[1:]]

            loop = [rec.s for _, rec in run_path(real, f11_path(legs([F1, F2, F1, F3])))]
            direct = [rec.s for _, rec in run_path(real, f11_path(legs([F1, F3])))]
            scale = max(np.abs(s).max() for s in loop + direct)
            assert np.abs(loop[3 * n] - loop[n]).max() <= 1e-12 * scale
            for s, s_direct in zip(loop[3 * n + 1 :], direct[n + 1 :], strict=True):
                assert np.abs(s - s_direct).max() <= 1e-12 * scale

    @pytest.mark.parametrize("L, seed", CELLS)
    @pytest.mark.parametrize(
        "corners",
        [
            [3e-3, 1e-3, 2.5e-3, -2e-3, 3.4e-3],
            [2e-3, -3e-3, 1e-3, -1e-3, 3.4e-3],
            [-1e-3, 2.5e-3, -2.5e-3, 2e-3, 0.5e-3, 1.5e-3],
        ],
        ids=["inner-loop", "virgin-regained", "minor-loops"],
    )
    def test_memory_sequence_oracle(self, L, seed, corners):
        # the stress along the whole path equals that of the Prandtl-Ishlinskii
        # oracle, built from one-increment evaluations of the virgin curve alone
        real = sample(LAW, seed, 1, L)

        def virgin(x):
            return run_path(real, f11_path([x]))[-1][1].s

        for n in (1, 5):  # steps per leg
            ends = [0.0, *corners]
            F = [0.0] + [x for a, b in zip(ends, ends[1:]) for x in np.linspace(a, b, n + 1)[1:]]
            stresses = [rec.s for _, rec in run_path(real, f11_path(F[1:]))]
            oracle = prandtl_ishlinskii(virgin, F)
            scale = max(np.abs(s).max() for s in stresses)
            for s, s_oracle in zip(stresses, oracle, strict=True):
                assert np.abs(s - s_oracle).max() <= 1e-12 * scale


@st.composite
def reversal_paths(draw):
    """Piecewise-linear (F11, F12, F22) paths from 0 whose every component changes sign at every corner."""
    signs = np.array(draw(st.tuples(*[st.sampled_from([-1.0, 1.0])] * 3)))
    corners = [np.zeros(3)]
    for leg in range(draw(st.integers(2, 4))):
        size = np.array(draw(st.tuples(*[st.floats(1e-4, 4e-3)] * 3)))
        corners.append((-1.0) ** leg * signs * size)
    rows = [corners[0]]
    for start, end in zip(corners, corners[1:]):
        n = draw(st.integers(1, 5))
        rows += [start + (end - start) * k / n for k in range(1, n + 1)]
    return StrainPath(np.arange(len(rows), dtype=float), np.array(rows))


class TestReversalPaths:
    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        L=st.sampled_from([2, 3]),
        a=_interval(1e5, 2e6),
        h=_interval(1e5, 2e6),
        sy=_interval(1e2, 2e3),
        seed=st.integers(0, 2**32 - 1),
        path=reversal_paths(),
    )
    def test_paths_with_load_reversals(self, L, a, h, sy, seed, path):
        # a point mass at the lower ends, and the random law on the intervals
        point = MaterialLaw.point_mass(a[0], h[0], sy[0])
        gate = SolverSettings().tol_residual
        for law in (MaterialLaw(a, h, sy), point):
            real = sample(law, seed, 1, L)
            reports = []
            records = run_path(real, path, reports=reports)
            for l, rep in enumerate(reports, start=1):
                prob = build_increment(real, path.tensor(l), p_prev=records[l - 1][0].p)
                residual = optimality_residual(prob, records[l][0])
                assert residual == rep.residual <= gate * (1.0 + rep.load_norm)
                assert np.all(np.diff(rep.energies) <= 0.0)
        # homogeneous cell (the last law): every type-alpha spring follows the
        # scalar oracle at the strain (ps_map F)_alpha, and phi stays 0
        strains = np.array([ps_map(path.tensor(l)) for l in range(path.n_steps + 1)])
        params = SpringParams(a[0], h[0], sy[0])
        for alpha in range(3):
            _, s = spring_trajectory(params, strains[:, alpha])
            for l, (state, rec) in enumerate(records):
                assert np.all(state.phi == 0.0)
                assert abs(rec.s[alpha] - s[l]) <= 1e-8 * (1 + abs(s[l]))
