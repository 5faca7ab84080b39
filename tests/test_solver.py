"""Return map, Newton steps and the increment solve."""

from dataclasses import replace
from functools import partial

import hypothesis
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st
from helpers import dof_order, edge_strains, node_major

import rveplast.assembly
import rveplast.solver
from rveplast.assembly import RveState, build_increment, cell_structure, csr_apply, increment_energy
from rveplast.driver import StrainPath, monotonic_path, run_path
from rveplast.lattice import SymTensor2, ps_map
from rveplast.randfield import MaterialLaw, sample
from rveplast.reference import brute_force_increment, return_map, SpringParams
from rveplast.solver import (
    SolverError,
    SolverSettings,
    _increment_terms,
    _return_map,
    optimality_residual,
    solve_increment,
)

LAW = MaterialLaw()
# hardening moduli far below the elastic ones
SOFT = MaterialLaw((1.5e6, 2e6), (1e5, 1.5e5), (1e2, 1e3))


def random_problem(L, seed, scale=5e-3, p_prev_scale=0.0, law=LAW):
    real = sample(law, seed, 1, L)
    rng = np.random.default_rng(seed)
    F = SymTensor2(*rng.normal(scale=scale, size=3))
    prob = build_increment(real, F)
    if p_prev_scale:
        prob = replace(prob, p_prev=rng.normal(scale=p_prev_scale, size=prob.cell.n))
    return prob


def with_weights(prob, r):
    """The same increment with dissipation weights r."""
    return replace(prob, r=r)


def stiffness(prob, flowing):
    """k = a h / (a + h) on the flowing edges, a on the stuck ones."""
    return np.where(flowing, prob.a * prob.h / (prob.a + prob.h), prob.a)


def dense_schur(prob, flowing):
    """S(k) = G.T diag(k) G of the flowing set as a dense array."""
    cell = prob.cell
    return (cell.G_t @ sp.diags(stiffness(prob, flowing)) @ cell.G).toarray()


class TestReturnMap:
    @pytest.mark.parametrize("L", [3, 6])
    def test_matches_scalar_return_map(self, L):
        rng = np.random.default_rng(L)
        real = sample(LAW, 90 + L, 1, L)
        F = SymTensor2(*rng.normal(scale=5e-4, size=3))
        prob = build_increment(real, F, p_prev=rng.normal(scale=3e-4, size=3 * L**2))
        phi = rng.normal(scale=3e-4, size=prob.cell.m)
        p = _return_map(prob, phi, _increment_terms(prob))

        strain = (ps_map(F)[:, None] + edge_strains(node_major(prob.cell, phi), L)).ravel()
        expected = np.array(
            [
                return_map(SpringParams(a, h, sy), d, p_prev)
                for a, h, sy, d, p_prev in zip(real.a, real.h, real.sy, strain, prob.p_prev)
            ]
        )
        stuck = expected == prob.p_prev
        assert 0 < stuck.sum() < stuck.size  # both branches are exercised
        assert np.array_equal(p[stuck], prob.p_prev[stuck])
        assert np.abs(p - expected).max() <= 1e-14 * np.abs(expected).max()


class TestNewtonCorrection:
    def test_elastic_problem_solved_in_one_correction(self):
        # uniaxial: the vertical edges carry no load, so p = p_prev there at
        # the zero start, and they must still count as flowing
        prob = build_increment(sample(LAW, 31, 1, 4), SymTensor2(1e-3, 0.0, 0.0))
        smooth = with_weights(prob, np.zeros_like(prob.r))
        y, report = solve_increment(smooth)
        exact = spla.spsolve(sp.csc_matrix(prob.A), prob.f)
        assert report.iterations == 1  # the full step keeps every edge flowing: exact
        assert report.halvings == 0
        assert np.abs(y - exact).max() <= 1e-10 * np.abs(exact).max()

    def test_all_kinked_reduces_to_displacement_solve(self):
        prob = random_problem(4, seed=32, p_prev_scale=2e-4)
        prob = with_weights(prob, np.full_like(prob.r, 1e9))
        n = prob.cell.n
        y, _ = solve_increment(prob)
        assert np.array_equal(y[:n], prob.p_prev)  # every edge stuck, bitwise
        # block-elimination oracle: Q phi = f_phi - C p_prev
        A = prob.A.toarray()
        phi_exact = np.linalg.solve(A[n:, n:], prob.f[n:] - A[n:, :n] @ prob.p_prev)
        assert np.abs(y[n:] - phi_exact).max() <= 1e-12 * np.abs(phi_exact).max()

    def test_energy_never_increases(self):
        # far warm starts.  Under the default law no full step of these solves
        # raises the energy, since a flowing edge's Newton curvature
        # a h/(a + h) stays within a factor 2.6 of the stuck one, a; under
        # soft hardening each of them has a full step that does, and the line
        # search halves it
        for law in (LAW, SOFT):
            rng = np.random.default_rng(4)
            for seed in range(5):
                prob = random_problem(3, seed=40 + seed, p_prev_scale=2e-4, law=law)
                # drawn in node order, so the warm starts do not depend on the DOF numbering
                draws = rng.normal(scale=1e-2, size=prob.cell.total)
                phi = np.zeros(prob.cell.free.shape)
                phi[prob.cell.free] = draws[prob.cell.n :]
                phi0 = dof_order(prob.cell, phi)
                _, report = solve_increment(prob, warm_start=phi0)
                start = np.concatenate([_return_map(prob, phi0, _increment_terms(prob)), phi0])
                assert report.energies[0] == increment_energy(prob, start)
                assert all(b <= a for a, b in zip(report.energies, report.energies[1:]))
                if law is SOFT:
                    assert report.halvings > 0

    def test_halvings_count_rejected_trial_steps(self, monkeypatch):
        # under soft hardening a Newton step on a flowing set overshoots onto
        # the stiffer branch of edges that stick again; such a full step
        # raises the energy and is halved.  Each trial step is one energy change.
        # A rejected trial point leaves no value behind: the residual and the
        # flowing count of the report are those of the state returned
        energy_change = rveplast.solver._energy_change
        trials = []

        def spy(*args):
            trials.append(None)
            return energy_change(*args)

        monkeypatch.setattr(rveplast.solver, "_energy_change", spy)
        rng = np.random.default_rng(4)
        halvings = 0
        for seed in range(5):
            prob = random_problem(3, seed=40 + seed, law=SOFT)
            warm = rng.normal(scale=1e-2, size=prob.cell.total)[prob.cell.n :]
            trials.clear()
            y, report = solve_increment(prob, warm_start=warm)
            assert len(trials) == report.iterations + report.halvings
            assert all(b <= a for a, b in zip(report.energies, report.energies[1:]))
            if report.halvings > 0:
                assert report.residual == optimality_residual(prob, y)
                assert report.flowing == np.count_nonzero(y[: prob.cell.n] != prob.p_prev)
            halvings += report.halvings
        assert halvings > 0

    @pytest.mark.parametrize("law", [SOFT, LAW], ids=["soft", "law"])
    def test_report_of_solve_with_halved_last_step(self, monkeypatch, law):
        # a first trial step of length 3 overshoots the minimum along the
        # last Newton direction, on whose side pattern the full step lands,
        # so the last Newton step rejects a trial point before it takes the
        # full one; the report's residual and flowing count are still those
        # of the state returned.  The last step's rejected trial is the
        # energy change before the accepted one
        monkeypatch.setattr(rveplast.solver, "_STEPS", [3.0, *rveplast.solver._STEPS])
        energy_change = rveplast.solver._energy_change
        changes = []
        monkeypatch.setattr(
            rveplast.solver,
            "_energy_change",
            lambda *args: changes.append(energy_change(*args)) or changes[-1],
        )
        rng = np.random.default_rng(4)
        for seed in range(5):
            prob = random_problem(3, seed=40 + seed, law=law)
            warm = rng.normal(scale=1e-2, size=prob.cell.total)[prob.cell.n :]
            changes.clear()
            y, report = solve_increment(prob, warm_start=warm)
            assert report.iterations > 0 and changes[-2] > 0.0 >= changes[-1]
            assert report.residual == optimality_residual(prob, y)
            assert report.flowing == np.count_nonzero(y[: prob.cell.n] != prob.p_prev)

    def test_reused_factor_matches_fresh_problem(self):
        # the Schur factor is kept between solves on the same operator: a
        # repeated flowing set must reuse it, a changed one must not
        prob = random_problem(4, seed=60, scale=1e-3, p_prev_scale=2e-4)
        rng = np.random.default_rng(6)
        warm1 = rng.normal(scale=1e-3, size=prob.cell.total)[prob.cell.n :]
        warm2 = rng.normal(scale=1e-5, size=prob.cell.total)[prob.cell.n :]
        for warm in (warm1, warm1, warm2, warm1):
            fresh = replace(prob, schur_factor={})
            expected, rep_fresh = solve_increment(fresh, warm_start=warm)
            y, report = solve_increment(prob, warm_start=warm)
            assert np.array_equal(y, expected)
            assert report.energies == rep_fresh.energies

    def test_replaced_weights_form_their_own_terms(self):
        # a problem made with dataclasses.replace shares the cache of the
        # one it was made from; with other dissipation weights it forms its
        # own return-map terms and solves as with a cache of its own
        prob = random_problem(4, seed=61, p_prev_scale=2e-4)
        solve_increment(prob)
        for r in (np.zeros_like(prob.r), 2.0 * prob.r, prob.r):
            other = with_weights(prob, r)
            expected, rep_fresh = solve_increment(replace(other, schur_factor={}))
            y, report = solve_increment(other)
            assert np.array_equal(y, expected)
            assert report.energies == rep_fresh.energies

    def test_reused_factor_preconditions_above_threshold(self, monkeypatch):
        # above the size threshold a kept factor of another flowing set
        # preconditions CG instead of being replaced: the same Newton steps
        # and certified states within the CG target.  The increment is step 19
        # of a monotonic path on L=16, the first cell that takes CG,
        # warm-started from the two states before it, so every CG solve
        # converges far inside its cap and runs to its target: the early exit
        # on a changed side pattern is off
        real = sample(LAW, 20240, 1, 16)
        path = monotonic_path()
        records = run_path(real, StrainPath(path.times[:19], path.tensors[:19]))
        prob = build_increment(real, path.tensor(19), p_prev=records[-1][0].p)
        assert prob.cell.m >= rveplast.solver._PCG_MIN_DOFS
        monkeypatch.setattr(rveplast.solver, "_PATTERN_CHECK", 0.0)
        pcg, returns = rveplast.solver._pcg, []
        monkeypatch.setattr(
            rveplast.solver, "_pcg", lambda *args: returns.append(pcg(*args)) or returns[-1]
        )
        gate = SolverSettings().tol_residual * (1 + np.abs(prob.f).max())
        target = gate / 10  # of each linear solve, max|S d_phi - rhs|
        n = prob.cell.n
        warm1 = records[-1][0].phi
        warm2 = records[-2][0].phi
        pcg_solves = cg_states_moved = 0
        for warm in (warm1, warm1, warm2, warm1):
            fresh = replace(prob, schur_factor={})
            expected, rep_fresh = solve_increment(fresh, warm_start=warm)
            y, report = solve_increment(prob, warm_start=warm)
            pcg_solves += report.pcg_solves
            assert report.iterations == rep_fresh.iterations
            assert optimality_residual(prob, y) <= gate
            # on one side pattern E is quadratic in phi with Hessian S, and
            # the last step of each solve leaves the residual of its linear
            # solve, at most the target; so S maps the difference of the two
            # states to the difference of two such residuals
            side = np.sign(y[:n] - prob.p_prev)
            assert np.array_equal(side, np.sign(expected[:n] - prob.p_prev))
            S = dense_schur(prob, side != 0)
            d_phi = y[n:] - expected[n:]
            assert np.abs(S @ d_phi).max() <= 2 * target
            cg_states_moved += report.pcg_solves > 0 and not np.array_equal(y[n:], expected[n:])
        assert pcg_solves > 0
        # the bound above is met by a CG-solved state that is not the fresh
        # factor's bitwise, and no CG solve came near the cap
        assert cg_states_moved > 0
        cap = rveplast.solver._PCG_MAX_ITER
        assert all(x is not None and iterations <= cap // 2 for x, iterations in returns)


def count_products(monkeypatch, matrix) -> list[int]:
    """Count the ``csr_apply`` products with ``matrix`` that the solver and the energy make.

    Both modules' names of the helper are replaced by one counting wrapper;
    the returned one-entry list holds the count.
    """
    products = [0]

    def counting(M, x):
        products[0] += M is matrix
        return csr_apply(M, x)

    monkeypatch.setattr(rveplast.solver, "csr_apply", counting)
    monkeypatch.setattr(rveplast.assembly, "csr_apply", counting)
    return products


def energy_change_bound(prob, y, z):
    """The round-off scale of an energy change: L^-2 max|f| |z - y|_1."""
    return prob.scale * np.abs(prob.f).max() * np.abs(z.vec - y.vec).sum()


class TestEnergyChange:
    @pytest.mark.parametrize("law", [LAW, SOFT], ids=["law", "soft"])
    def test_matches_difference_of_energies(self, law):
        # random pairs of points, both ways: y on the return map, so with
        # stuck edges (at p_prev) and flowing ones, and z with each edge's
        # plastic strain kept on y's side, put on the kink, mirrored across
        # it or drawn anew
        point = rveplast.solver._point
        rng = np.random.default_rng(9)
        kinds = np.zeros(4, dtype=int)  # stuck in y, kept side, crossed, left for the kink
        for seed in range(10):
            prob = random_problem(3, seed=90 + seed, p_prev_scale=2e-4, law=law)
            n, m = prob.cell.n, prob.cell.m
            phi = rng.normal(scale=1e-3, size=m)
            y = point(prob, np.concatenate([_return_map(prob, phi, _increment_terms(prob)), phi]))
            moves = np.stack([y.dp, np.zeros(n), -y.dp, rng.normal(scale=3e-4, size=n)])
            dp = moves[rng.integers(len(moves), size=n), np.arange(n)]
            phi_z = phi + rng.normal(scale=1e-3, size=m)
            z = point(prob, np.concatenate([prob.p_prev + dp, phi_z]))
            kinds += [
                np.sum(y.side == 0.0),
                np.sum((y.side != 0.0) & (y.side == z.side)),
                np.sum(y.side * z.side < 0.0),
                np.sum((y.side != 0.0) & (z.side == 0.0)),
            ]
            for start, end in ((y, z), (z, y)):
                change = rveplast.solver._energy_change(prob, start, end)
                expected = increment_energy(prob, end.vec) - increment_energy(prob, start.vec)
                assert abs(change - expected) <= 1e-13 * energy_change_bound(prob, start, end)
        assert np.all(kinds > 0)

    @pytest.mark.parametrize("law", [LAW, SOFT], ids=["law", "soft"])
    def test_trial_steps_match_difference_of_energies(self, monkeypatch, law):
        # every trial point of far-started solves, the rejected ones too:
        # under soft hardening some full Newton steps raise the energy
        energy_change = rveplast.solver._energy_change
        trials = []

        def spy(prob, y, z):
            trials.append((prob, y, z, energy_change(prob, y, z)))
            return trials[-1][-1]

        monkeypatch.setattr(rveplast.solver, "_energy_change", spy)
        rng = np.random.default_rng(4)
        for seed in range(5):
            prob = random_problem(3, seed=40 + seed, law=law)
            warm = rng.normal(scale=1e-2, size=prob.cell.total)[prob.cell.n :]
            solve_increment(prob, warm_start=warm)
        for prob, y, z, change in trials:
            expected = increment_energy(prob, z.vec) - increment_energy(prob, y.vec)
            assert abs(change - expected) <= 1e-13 * energy_change_bound(prob, y, z)
        assert any(change > 0.0 for *_, change in trials) == (law is SOFT)

    @pytest.mark.parametrize("law", [LAW, SOFT], ids=["law", "soft"])
    def test_one_product_with_A_per_point(self, law, monkeypatch):
        # the warm start and each trial point form A y once; that product
        # serves the point's energy change, its certificate and its Newton
        # right-hand side
        rng = np.random.default_rng(4)
        halvings = 0
        for seed in range(5):
            prob = random_problem(3, seed=40 + seed, law=law)
            warm = rng.normal(scale=1e-2, size=prob.cell.total)[prob.cell.n :]
            with monkeypatch.context() as patch:
                products = count_products(patch, prob.A)
                y, report = solve_increment(prob, warm_start=warm)
            assert report.iterations > 1
            assert products[0] == 1 + report.iterations + report.halvings
            assert report.residual == optimality_residual(prob, y)
            halvings += report.halvings
        assert (halvings > 0) == (law is SOFT)


def increment_on_path(L, step=25, seed=20240):
    """The increment of ``step`` on the monotonic path and the state before it."""
    real = sample(LAW, seed, 1, L)
    path = monotonic_path()
    records = run_path(real, StrainPath(path.times[:step], path.tensors[:step]))
    state = records[-1][0]
    return build_increment(real, path.tensor(step), p_prev=state.p), state


def first_newton_step(L):
    """S (dense), the right-hand side and the CG target of the first Newton step of an increment."""
    prob, state = increment_on_path(L)
    n = prob.cell.n
    phi = prob.as_vector(state)[n:]
    y = np.concatenate([_return_map(prob, phi, _increment_terms(prob)), phi])
    rhs = prob.f[n:] - (prob.A @ y)[n:]
    flowing = y[:n] != prob.p_prev
    S = dense_schur(prob, flowing)
    target = SolverSettings().tol_residual * (1 + np.abs(prob.f).max()) / 10
    return prob, flowing, S, rhs, target


def band_solve(prob, flowing):
    """The solve with the band factor of S on ``flowing``, as the solver keeps it."""
    return partial(prob.cell.solve_schur, prob.cell.factor_schur(stiffness(prob, flowing)))


class TestPreconditionedSolve:
    @pytest.mark.parametrize("L", [14, 18])
    def test_factor_of_other_flowing_set_meets_target(self, L):
        # the first Newton step of an increment, preconditioned by factors of
        # its flowing set with a random 5% of the edges switched
        prob, flowing, S, rhs, target = first_newton_step(L)
        assert np.abs(rhs).max() > 1e6 * target
        rng = np.random.default_rng(L)
        for _ in range(3):
            other = flowing ^ (rng.random(prob.cell.n) < 0.05)
            solve = band_solve(prob, other)
            d_phi, iterations = rveplast.solver._pcg(S.dot, solve, rhs, target)
            assert d_phi is not None and iterations <= rveplast.solver._PCG_MAX_ITER
            assert np.abs(S @ d_phi - rhs).max() <= target

    def test_unchanged_pattern_continues_bitwise(self):
        # a check that finds the pattern kept is asked once and leaves the
        # iteration as it is without the check
        prob, flowing, S, rhs, target = first_newton_step(14)
        solve = band_solve(prob, ~flowing)
        asked = []
        expected = rveplast.solver._pcg(S.dot, solve, rhs, target)
        got = rveplast.solver._pcg(S.dot, solve, rhs, target, lambda x: asked.append(x) or False)
        assert len(asked) == 1
        assert got[1] == expected[1] and np.array_equal(got[0], expected[0])

    @pytest.mark.parametrize("check", [False, True])
    def test_one_preconditioner_solve_per_iteration(self, check):
        # no solve is made for an iterate that an exit then returns, whether
        # the exit is the target or a changed side pattern
        prob, flowing, S, rhs, target = first_newton_step(14)
        solve = band_solve(prob, ~flowing)
        solves = []
        x, iterations = rveplast.solver._pcg(
            S.dot, lambda r: solves.append(r) or solve(r), rhs, target, lambda x: check
        )
        assert x is not None and iterations > 0
        assert len(solves) == iterations

    def test_changed_pattern_stops_at_check_level(self):
        # a check that finds the pattern changed returns the first iterate at
        # or under the check level, the one CG with that level as its target
        # stops at, and before CG's own target
        prob, flowing, S, rhs, target = first_newton_step(14)
        solve = band_solve(prob, ~flowing)
        level = rveplast.solver._PATTERN_CHECK * np.abs(rhs).max()
        asked = []
        x, iterations = rveplast.solver._pcg(
            S.dot, solve, rhs, target, lambda x: asked.append(x) or True
        )
        first, first_iterations = rveplast.solver._pcg(S.dot, solve, rhs, level)
        assert len(asked) == 1 and asked[0] is x
        assert iterations == first_iterations and np.array_equal(x, first)
        assert target < np.abs(S @ x - rhs).max() <= level
        assert iterations < rveplast.solver._pcg(S.dot, solve, rhs, target)[1]

    def test_pattern_exits_save_cg_iterations(self, monkeypatch):
        # on a monotonic path some CG solves stop at a step that changes the
        # side pattern; every increment stays certified, the stresses move by
        # round-off, and the path takes fewer CG iterations than without them
        real = sample(LAW, 20240, 1, 16)
        path = monotonic_path()
        reports = []
        records = run_path(real, path, reports=reports)
        monkeypatch.setattr(rveplast.solver, "_PATTERN_CHECK", 0.0)
        full_reports = []
        full_records = run_path(real, path, reports=full_reports)
        assert sum(rep.pattern_exits for rep in full_reports) == 0
        assert sum(rep.pattern_exits for rep in reports) > 0
        cg = sum(rep.pcg_iterations for rep in reports)
        assert cg < sum(rep.pcg_iterations for rep in full_reports)
        for l, rep in enumerate(reports, start=1):
            prob = build_increment(real, path.tensor(l), p_prev=records[l - 1][0].p)
            gate = SolverSettings().tol_residual * (1 + rep.load_norm)
            assert optimality_residual(prob, records[l][0]) <= gate
            s, s_full = records[l][1].s, full_records[l][1].s
            assert np.abs(s - s_full).max() <= 1e-10 * np.abs(s_full).max()

    def test_cap_reached_refactors(self, monkeypatch):
        # with a cap of one iteration CG fails on almost every new flowing
        # set, and each failure makes a new factor
        real = sample(LAW, 20240, 1, 16)
        path = monotonic_path(n_steps=10)
        uncapped = []
        records = run_path(real, path, reports=uncapped)
        monkeypatch.setattr(rveplast.solver, "_PCG_MAX_ITER", 1)
        reports = []
        capped = run_path(real, path, reports=reports)
        pcg_solves = sum(rep.pcg_solves for rep in reports)
        factors = sum(rep.factors for rep in reports)
        assert sum(rep.pcg_iterations for rep in reports) <= pcg_solves
        # the path's first step has no factor to precondition with
        assert sum(rep.factors for rep in uncapped) < factors <= pcg_solves + 1
        for l, rep in enumerate(reports, start=1):
            assert all(b <= a for a, b in zip(rep.energies, rep.energies[1:]))
            prob = build_increment(real, path.tensor(l), p_prev=capped[l - 1][0].p)
            state = capped[l][0]
            gate = SolverSettings().tol_residual * (1 + rep.load_norm)
            assert optimality_residual(prob, state) <= gate
            s, s_ref = capped[l][1].s, records[l][1].s
            assert np.abs(s - s_ref).max() <= 1e-10 * np.abs(s_ref).max()

    @pytest.mark.parametrize(
        "solve", [np.zeros_like, lambda r: np.full_like(r, np.nan)], ids=["zero", "nan"]
    )
    def test_breakdown_refactors(self, solve):
        # a preconditioner that zeroes the direction (d.S d = 0) or returns
        # non-finite values breaks CG down at once; the new S is factored
        # and replaces it
        prob, state = increment_on_path(16)
        S = dense_schur(prob, np.ones(prob.cell.n, dtype=bool))
        assert rveplast.solver._pcg(S.dot, solve, prob.f[prob.cell.n :], 1e-6) == (None, 0)
        prob.schur_factor["last"] = (b"another flowing set", solve)
        warm = state.phi
        result, report = solve_increment(prob, warm_start=warm)
        assert report.converged and report.factors >= 1 and report.pcg_solves >= 1
        # the kept solve is a partial of the cell's solve and its new band factor
        kept = prob.schur_factor["last"][1]
        assert kept.func == prob.cell.solve_schur
        assert kept.args[0].shape == (prob.cell.kd + 1, prob.cell.m)
        gate = SolverSettings().tol_residual * (1 + report.load_norm)
        assert optimality_residual(prob, result) <= gate
        assert all(b <= a for a, b in zip(report.energies, report.energies[1:]))
        expected, _ = solve_increment(replace(prob, schur_factor={}), warm_start=warm)
        n = prob.cell.n
        assert np.abs(result[n:] - expected[n:]).max() <= 1e-10 * np.abs(expected[n:]).max()


class TestSolveIncrement:
    def test_zero_problem_returns_zero(self):
        real = sample(LAW, 60, 1, 3)
        prob = build_increment(real, SymTensor2(0.0, 0.0, 0.0))
        y, report = solve_increment(prob)
        assert np.all(y == 0.0)
        assert report.converged and report.energy == 0.0

    def test_single_spring_matches_return_map(self):
        law = MaterialLaw.point_mass(1.5e6, 1.6e6, 1.0e3)
        real = sample(law, 0, 1, 2)
        gamma = 2.4e-3
        prob = build_increment(real, SymTensor2(gamma, 0.0, 0.0))
        y, _ = solve_increment(prob)
        params = SpringParams(1.5e6, 1.6e6, 1.0e3)
        expected = [return_map(params, d, 0.0) for d in (gamma, 0.0, gamma / 2)]
        for alpha in range(3):
            assert np.abs(y[4 * alpha : 4 * (alpha + 1)] - expected[alpha]).max() < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_oracle(self, seed):
        prob = random_problem(2, seed=70 + seed)
        y, report = solve_increment(prob)
        oracle = brute_force_increment(prob, iterations=100_000)
        assert increment_energy(prob, y) <= increment_energy(prob, oracle) + 1e-10

    def test_energy_sequence_nonincreasing(self):
        prob = random_problem(4, seed=80)
        _, report = solve_increment(prob)
        assert all(b <= a for a, b in zip(report.energies, report.energies[1:]))

    def test_optimality_certificate(self):
        prob = random_problem(4, seed=81, p_prev_scale=2e-4)
        y, report = solve_increment(prob)
        tol = 1e-8 * (1 + np.abs(prob.f).max())
        assert report.residual <= tol
        assert optimality_residual(prob, y) == report.residual

    def test_warm_start_invariance(self):
        prob = random_problem(4, seed=82)
        rng = np.random.default_rng(5)
        y_cold, rep_cold = solve_increment(prob)
        warm = rng.normal(scale=1e-3, size=prob.cell.total)[prob.cell.n :]
        assert np.abs(warm).max() > 0.0
        y_warm, rep_warm = solve_increment(prob, warm_start=warm)
        assert rep_warm.energies[0] > rep_cold.energies[0]  # a different start
        assert abs(rep_cold.energy - rep_warm.energy) <= 2 * 1e-12 * (1 + abs(rep_cold.energy))
        diff = np.abs(y_cold - y_warm).max()
        assert diff <= 10 * 1e-10 * (1 + np.abs(y_cold[: prob.cell.n]).max())

    def test_int_list_warm_start_matches_float_array(self):
        prob = random_problem(3, seed=86)
        warm = np.random.default_rng(86).integers(-1, 2, size=prob.cell.m)
        assert np.abs(warm).max() == 1
        y_list, rep_list = solve_increment(prob, warm_start=warm.tolist())
        y, report = solve_increment(prob, warm_start=warm.astype(float))
        assert np.array_equal(y_list, y)
        assert rep_list.energies == report.energies and rep_list.iterations == report.iterations

    def test_wrong_lengths_raise(self):
        prob = random_problem(3, seed=87)
        m = prob.cell.m
        for warm in (np.zeros(m - 1), np.zeros(m + 1), np.zeros((m, 1))):
            with pytest.raises(ValueError, match=f"m = {m}"):
                solve_increment(prob, warm_start=warm)
        for y in (np.zeros(prob.cell.total - 1), np.zeros(prob.cell.total + 1), np.zeros(m)):
            with pytest.raises(ValueError, match=f"n \\+ m = {prob.cell.total}"):
                optimality_residual(prob, y)
            with pytest.raises(ValueError, match=f"n \\+ m = {prob.cell.total}"):
                increment_energy(prob, y)

    def test_solution_improves_on_warm_start(self):
        prob = random_problem(3, seed=83, p_prev_scale=1e-4)
        warm = RveState.zero(3)
        warm.p[:] = 1e-3
        _, report = solve_increment(prob, warm_start=warm.phi)
        assert report.energy <= increment_energy(prob, warm)

    def test_nonconvergence_raises_with_report(self):
        # a far warm start that needs more than one Newton step
        prob = random_problem(4, seed=84)
        rng = np.random.default_rng(84)
        warm = rng.normal(scale=1e-2, size=prob.cell.total)[prob.cell.n :]
        _, report = solve_increment(prob, warm_start=warm)
        assert report.iterations >= 2
        with pytest.raises(SolverError) as excinfo:
            solve_increment(prob, warm_start=warm, settings=SolverSettings(max_outer=1))
        assert excinfo.value.report.iterations == 1

    def test_no_descent_raises_at_once(self, monkeypatch):
        # the iteration is deterministic: a step the line search rejects would
        # be rejected again, so the solve fails at the first one
        prob = random_problem(4, seed=85)
        monkeypatch.setattr(rveplast.solver, "_energy_change", lambda *args: 1.0)
        with pytest.raises(SolverError, match="no descent") as excinfo:
            solve_increment(prob)
        report = excinfo.value.report
        assert report.iterations == 1 and not report.converged
        phi0 = np.zeros(prob.cell.m)
        start = np.concatenate([_return_map(prob, phi0, _increment_terms(prob)), phi0])
        assert report.residual == optimality_residual(prob, start)  # the point is kept

    def test_nan_reaches_the_certificate(self):
        # the certificate's max propagates a NaN, which a max-abs shortcut
        # such as BLAS idamax would skip for the largest finite entry
        prob, state = increment_on_path(4)
        y, _ = solve_increment(prob, warm_start=state.phi)
        for index in (0, prob.cell.n):  # one plastic strain, then one displacement
            bad = y.copy()
            bad[index] = np.nan
            assert np.isnan(optimality_residual(prob, bad))

    @pytest.mark.parametrize("L", [4, 18])
    def test_nan_warm_start_raises(self, L):
        # both sides of _PCG_MIN_DOFS: L=4 factors every new flowing set, L=18 keeps one factor per path
        prob, state = increment_on_path(L)
        warm = state.phi.copy()
        warm[0] = np.nan
        with pytest.raises(SolverError):
            solve_increment(prob, warm_start=warm)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(tol_residual=0.0)
        with pytest.raises(ValueError):
            SolverSettings(max_outer=0)
        for bad in (np.inf, np.nan, -1e-9):
            with pytest.raises(ValueError):
                SolverSettings(tol_residual=bad)
        for bad in (1.5, 2.0, True):
            with pytest.raises(ValueError):
                SolverSettings(max_outer=bad)


def intervals(low, high, zero=False):
    """(lo, hi) with lo in [low, high] and hi up to 3 lo; a point mass when equal."""
    lo = st.floats(low, high)
    if zero:
        lo = st.one_of(st.just(0.0), lo)
    return st.tuples(lo, st.floats(1.0, 3.0)).map(lambda t: (t[0], t[0] * t[1]))


@st.composite
def laws(draw):
    a, h = draw(intervals(1e5, 2e6)), draw(intervals(1e5, 2e6))
    sy = draw(intervals(1e2, 2e3, zero=True))
    if draw(st.booleans()):
        return MaterialLaw.point_mass(a[0], h[0], sy[0])
    return MaterialLaw(a, h, sy)


class TestSolveProperties:
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        L=st.sampled_from([2, 3]),
        law=laws(),
        seed=st.integers(0, 2**32 - 1),
        F=st.tuples(*[st.floats(-5e-3, 5e-3)] * 3),
        p_prev_scale=st.floats(0.0, 5e-4),
        phi_scale=st.floats(0.0, 1e-2),
    )
    def test_converges_to_certified_minimizer(self, L, law, seed, F, p_prev_scale, phi_scale):
        real = sample(law, seed, 1, L)
        rng = np.random.default_rng(seed)
        p_prev = rng.normal(scale=p_prev_scale, size=3 * L**2)
        prob = build_increment(real, SymTensor2(*F), p_prev=p_prev)
        warm = rng.normal(scale=phi_scale, size=prob.cell.total)[prob.cell.n :]
        y, report = solve_increment(prob, warm_start=warm)
        gate = SolverSettings().tol_residual * (1.0 + report.load_norm)
        assert report.converged
        assert optimality_residual(prob, y) == report.residual <= gate
        assert all(b <= a for a, b in zip(report.energies, report.energies[1:]))
        if L == 2:
            oracle = brute_force_increment(prob, iterations=2000)
            assert increment_energy(prob, y) <= increment_energy(prob, oracle) + 1e-10
