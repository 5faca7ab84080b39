"""Assembled operator, load vector, clamping, and the energy identity."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from helpers import dof_order, edge_strains, node_major, projected_edge_derivative

import rveplast.assembly
from rveplast.assembly import (
    CellStructure,
    RveState,
    assemble_load,
    assemble_operator,
    build_increment,
    cell_structure,
    csr_apply,
    increment_energy,
)
from rveplast.driver import stress_vector
from rveplast.lattice import K, SymTensor2, ps_map
from rveplast.randfield import MaterialLaw, sample
from rveplast.solver import (
    _PCG_MIN_DOFS,
    SolverError,
    SolverSettings,
    optimality_residual,
    solve_increment,
)

LAW = MaterialLaw()


def random_state(cell, rng, scale=1e-3):
    """p on the n edges and phi on the m free components of ``cell``."""
    return RveState(rng.normal(scale=scale, size=cell.n), rng.normal(scale=scale, size=cell.m))


def flat(state):
    """The flat vector y = [p; phi] of a state."""
    return np.concatenate([state.p, state.phi])


def strains(real, state):
    """g_e(phi) of the state's node-major field, shape (K, L*L)."""
    return edge_strains(node_major(cell_structure(real.L), state.phi), real.L)


def edge_sum_form(real, state):
    """Definition-level oracle for the quadratic form value."""
    g = strains(real, state)
    p = state.p.reshape(K, real.L**2)
    a, h = real.by_type("a"), real.by_type("h")
    return float(np.sum(a * (g - p) ** 2 + h * p**2))


def edge_sum_load(real, F, state):
    """Definition-level oracle for f . y = sum a Fhat (p - g)."""
    g = strains(real, state)
    p = state.p.reshape(K, real.L**2)
    fhat = ps_map(F)
    return float(np.sum(real.by_type("a") * fhat[:, None] * (p - g)))


def stored_energy(real, F, state):
    """Full stored energy: sum_e a/2 (Fhat + g - p)^2 + h/2 p^2."""
    g = strains(real, state)
    p = state.p.reshape(K, real.L**2)
    fhat = ps_map(F)
    a, h = real.by_type("a"), real.by_type("h")
    return float(np.sum(0.5 * a * (fhat[:, None] + g - p) ** 2 + 0.5 * h * p**2))


class TestClamping:
    def test_four_distinct_corners(self):
        assert list(cell_structure(5).clamped_nodes) == [0, 4, 20, 24]

    def test_small_cells_clamp_fewer(self):
        assert list(cell_structure(2).clamped_nodes) == [0, 1, 2, 3]  # every node is a corner
        assert list(cell_structure(1).clamped_nodes) == [0]

    def test_dof_counts(self):
        cell = cell_structure(5)
        assert cell.n == 3 * 25 and cell.m == 2 * 25 - 8
        assert cell_structure(2).m == 0

    def test_pack_unpack_roundtrip(self):
        # a state is the flat y = [p; phi], and the tests' node-major scatter
        # and gather through phi_index are inverse to each other
        cell = cell_structure(4)
        rng = np.random.default_rng(0)
        state = random_state(cell, rng)
        prob = build_increment(sample(LAW, 1, 1, 4), SymTensor2(0.0, 0.0, 0.0))
        assert np.array_equal(prob.as_vector(state), flat(state))
        field = node_major(cell, state.phi)
        assert field.shape == (16, 2) and not field[cell.clamped_nodes].any()
        assert np.array_equal(dof_order(cell, field), state.phi)
        free_field = np.where(cell.free, rng.normal(size=cell.free.shape), 0.0)
        assert np.array_equal(node_major(cell, dof_order(cell, free_field)), free_field)

    def test_as_vector_rejects_other_shapes(self):
        # a state holds n plastic strains and the m free displacements; a
        # node-major phi of the (L**2, 2) field fails loudly
        cell = cell_structure(4)
        prob = build_increment(sample(LAW, 1, 1, 4), SymTensor2(0.0, 0.0, 0.0))
        state = random_state(cell, np.random.default_rng(1))
        bad = [
            RveState(state.p, node_major(cell, state.phi)),
            RveState(state.p, state.phi[:-1]),
            RveState(state.p[:-1], state.phi),
        ]
        for wrong in bad:
            with pytest.raises(ValueError, match=f"\\(n,\\) = \\({cell.n},\\).*\\(m,\\) = \\({cell.m},\\)"):
                prob.as_vector(wrong)


class TestOperator:
    def test_zero_state_zero_form(self):
        real = sample(LAW, 1, 1, 4)
        A = assemble_operator(real)
        y = np.zeros(A.shape[0])
        assert y @ (A @ y) == 0.0

    def test_single_plastic_dof(self):
        real = sample(LAW, 1, 1, 4)
        A = assemble_operator(real)
        cell = cell_structure(4)
        for edge in (0, 17, 3 * 16 - 1):
            y = np.zeros(cell.total)
            y[edge] = 1.0
            assert y @ (A @ y) == pytest.approx(real.a[edge] + real.h[edge], rel=1e-14)

    def test_exactly_symmetric(self):
        real = sample(LAW, 2, 1, 5)
        A = assemble_operator(real)
        assert (A - A.T).nnz == 0

    @pytest.mark.parametrize("L", [2, 3, 5])
    def test_form_matches_edge_sum(self, L):
        real = sample(LAW, 3, 1, L)
        A = assemble_operator(real)
        cell = cell_structure(L)
        rng = np.random.default_rng(L)
        for _ in range(3):
            state = random_state(cell, rng)
            y = flat(state)
            assert y @ (A @ y) == pytest.approx(edge_sum_form(real, state), rel=1e-12)

    def test_unclamped_form_invariant_under_constant_shift(self):
        real = sample(LAW, 4, 1, 4)
        cell = CellStructure(4, clamped=False)
        A = cell.operator(real.a, real.h)
        rng = np.random.default_rng(7)
        state = random_state(cell, rng)
        field = node_major(cell, state.phi) + np.array([0.37, -1.2])
        shifted = RveState(state.p.copy(), dof_order(cell, field))
        y, ys = flat(state), flat(shifted)
        assert ys @ (A @ ys) == pytest.approx(y @ (A @ y), rel=1e-9)

    def test_uniform_coercivity(self):
        # smallest eigenvalue of A in the cell-averaged norms (mass 1 on p,
        # L^-2 on phi), via inverse power iteration on A^-1 M
        def smallest(L):
            real = sample(LAW, 5, 1, L)
            A = assemble_operator(real)
            cell = cell_structure(L)
            mdiag = np.ones(cell.total)
            mdiag[cell.n :] = float(L) ** -2
            lu = spla.splu(sp.csc_matrix(A))
            v = np.ones(cell.total)
            lam = np.inf
            for _ in range(400):
                w = lu.solve(mdiag * v)
                v = w / np.sqrt(w @ (mdiag * w))
                lam = (v @ (A @ v)) / (v @ (mdiag * v))
            return lam

        lams = {L: smallest(L) for L in (3, 4, 6)}
        assert all(lam > 0 for lam in lams.values())
        assert lams[6] >= lams[3] / 2.0  # no more than a factor-2 drop


class TestLoad:
    def test_rejects_tiny_cells(self):
        with pytest.raises(ValueError, match="L >= 2, got L=1"):
            assemble_load(sample(LAW, 6, 1, 1))

    def test_zero_strain_zero_load(self):
        real = sample(LAW, 6, 1, 4)
        assert np.all(assemble_load(real) @ ps_map(SymTensor2(0.0, 0.0, 0.0)) == 0.0)

    def test_homogeneous_displacement_block_vanishes(self):
        # constant edge forces telescope to zero around every node
        law = MaterialLaw.point_mass(1.5e6, 1.6e6, 1.0e3)
        real = sample(law, 0, 1, 5)
        f = assemble_load(real) @ ps_map(SymTensor2(2e-3, 3e-4, -1e-3))
        cell = cell_structure(5)
        assert np.abs(f[cell.n :]).max() < 1e-9 * np.abs(f).max()

    def test_uniaxial_plastic_components(self):
        # horizontal plastic DOF receives +a*gamma, vertical receives 0
        # (sign fixed by the stored-energy identity, see test below)
        real = sample(LAW, 7, 1, 4)
        gamma = 1.7e-3
        f = assemble_load(real) @ ps_map(SymTensor2(gamma, 0.0, 0.0))
        npt = 16
        assert np.allclose(f[:npt], real.a[:npt] * gamma, rtol=1e-14)
        assert np.all(f[npt : 2 * npt] == 0.0)

    @pytest.mark.parametrize("L", [2, 4])
    def test_load_pairing_matches_edge_sum(self, L):
        real = sample(LAW, 8, 1, L)
        F = SymTensor2(1.1e-3, -0.4e-3, 0.7e-3)
        f = assemble_load(real) @ ps_map(F)
        cell = cell_structure(L)
        rng = np.random.default_rng(L + 10)
        state = random_state(cell, rng)
        assert f @ flat(state) == pytest.approx(edge_sum_load(real, F, state), rel=1e-12)

    @pytest.mark.parametrize("L", [2, 3, 5])
    def test_smooth_part_is_stored_energy_minus_constant(self, L):
        real = sample(LAW, 9, 1, L)
        F = SymTensor2(1.3e-3, 0.2e-3, -0.8e-3)
        A = assemble_operator(real)
        f = assemble_load(real) @ ps_map(F)
        cell = cell_structure(L)
        fhat = ps_map(F)
        const = float(np.sum(0.5 * real.by_type("a") * fhat[:, None] ** 2))
        rng = np.random.default_rng(L)
        for _ in range(3):
            state = random_state(cell, rng)
            y = flat(state)
            smooth = 0.5 * y @ (A @ y) - f @ y
            assert smooth + const == pytest.approx(stored_energy(real, F, state), rel=1e-10)


def edge_derivatives(state, L):
    """g_e(phi) edge by edge with projected_edge_derivative, shape (K, L*L)."""
    field = node_major(cell_structure(L), state.phi)
    return np.array(
        [
            [projected_edge_derivative(field, (tail, alpha), L) for tail in range(L**2)]
            for alpha in range(K)
        ]
    )


class TestLoadStressPairing:
    """assemble_load and stress_vector (both made from G) edge by edge."""

    F = SymTensor2(1.2e-3, -0.9e-3, 0.4e-3)  # F12 != 0 loads the diagonal edges apart

    @pytest.mark.parametrize("L", [2, 3, 6])
    def test_load_pairing_matches_edge_definition(self, L):
        real = sample(LAW, 40 + L, 1, L)
        cell = cell_structure(L)
        f = assemble_load(real) @ ps_map(self.F)
        rng = np.random.default_rng(L)
        for _ in range(3):
            state = random_state(cell, rng)
            p = state.p.reshape(K, L**2)
            # f.y = sum_e a_e Fhat_a (p_e - g_e(phi))
            terms = real.by_type("a") * ps_map(self.F)[:, None] * (p - edge_derivatives(state, L))
            assert abs(f @ flat(state) - terms.sum()) <= 1e-13 * np.abs(terms).sum()

    @pytest.mark.parametrize("L", [2, 3, 6])
    def test_stress_matches_edge_definition(self, L):
        real = sample(LAW, 50 + L, 1, L)
        cell = cell_structure(L)
        rng = np.random.default_rng(10 + L)
        for _ in range(3):
            state = random_state(cell, rng)
            p = state.p.reshape(K, L**2)
            # s_alpha = L^-2 sum_{e in alpha} a_e (Fhat_a + g_e(phi) - p_e)
            terms = real.by_type("a") * (ps_map(self.F)[:, None] + edge_derivatives(state, L) - p)
            expected = terms.sum(axis=1) / L**2
            tol = 1e-13 * np.abs(terms).sum(axis=1) / L**2
            assert np.all(np.abs(stress_vector(real, state, self.F) - expected) <= tol)

    @pytest.mark.parametrize("L", [2, 3, 6])
    def test_load_map_columns_are_unit_loads(self, L):
        # column alpha of B is the load at the unit strain of type alpha,
        # ps_map F = e_alpha, and run_path takes each step's load as
        # B ps_map(F): bitwise build_increment's
        real = sample(LAW, 60 + L, 1, L)
        cell = cell_structure(L)
        B = assemble_load(real)
        assert B.shape == (cell.total, K)
        units = [SymTensor2(1.0, -0.5, 0.0), SymTensor2(0.0, -0.5, 1.0), SymTensor2(0.0, 1.0, 0.0)]
        # g_e of the unit displacement of each free component, in DOF order
        unit_g = []
        for dof in range(cell.m):
            unit = RveState.zero(L)
            unit.phi[dof] = 1.0
            unit_g.append(edge_derivatives(unit, L))
        for alpha, F in enumerate(units):
            assert np.array_equal(ps_map(F), np.eye(K)[alpha])
            # f.y = sum_e a_e Fhat_e (p_e - g_e(phi)), entry by entry
            weights = real.by_type("a") * ps_map(F)[:, None]
            f_phi = np.array([-np.sum(weights * g) for g in unit_g])
            assert np.array_equal(B[: cell.n, alpha], weights.ravel())
            tol = 1e-13 * np.abs(weights).sum()
            assert np.abs(B[cell.n :, alpha] - f_phi).max(initial=0.0) <= tol
        assert np.array_equal(build_increment(real, self.F).f, B @ ps_map(self.F))
        a_sums = real.by_type("a").sum(axis=1)
        rng = np.random.default_rng(20 + L)
        for _ in range(3):
            state = random_state(cell, rng)
            s = cell.mapped_stress(B, a_sums, flat(state), ps_map(self.F))
            s_ref = stress_vector(real, state, self.F)
            assert np.abs(s - s_ref).max() <= 1e-13 * np.abs(s_ref).max()


class TestCellStructure:
    def test_builder_shares_operator_and_structure(self):
        # a given A is reused, and every increment of a cell size reads the
        # same structure
        real = sample(LAW, 60, 1, 4)
        A = assemble_operator(real)
        prob = build_increment(real, SymTensor2(1.2e-3, -0.9e-3, 0.4e-3), A=A)
        assert prob.A is A and np.all(prob.p_prev == 0.0)
        second = build_increment(real, SymTensor2(0.0, 0.0, 0.0))
        assert second.cell is prob.cell and second.schur_factor is not prob.schur_factor

    @pytest.mark.parametrize("p_prev", [1e-4, np.full(1, 1e-4), np.zeros(5)], ids=["scalar", "(1,)", "(5,)"])
    def test_build_increment_rejects_p_prev_of_other_shapes(self, p_prev):
        # a scalar or a (1,) p_prev would broadcast as a constant plastic
        # strain, and a (5,) one would fail inside the solver
        real = sample(LAW, 60, 1, 4)
        with pytest.raises(ValueError, match=f"n = {cell_structure(4).n} plastic strains"):
            build_increment(real, SymTensor2(1e-3, 0.0, 0.0), p_prev=p_prev)

    def test_one_read_only_structure_per_cell_size(self):
        # every realization of one size shares the cached structure: it is
        # made once per L and nobody may write to it
        cell_structure.cache_clear()
        first = build_increment(sample(LAW, 61, 1, 5), SymTensor2(0.0, 0.0, 0.0)).cell
        second = build_increment(sample(LAW, 61, 2, 5), SymTensor2(0.0, 0.0, 0.0)).cell
        assert second is first and cell_structure.cache_info().misses == 1
        arrays = [first.clamped_nodes, first.free, first.phi_index, first.band_index]
        arrays += [first.A_indices, first.A_indptr]
        for mat in (first.G, first.G_t, first.schur_map, first.A_map):
            arrays += [mat.data, mat.indices, mat.indptr]
        assert not any(arr.flags.writeable for arr in arrays)
        with pytest.raises(ValueError):
            first.G.data[0] = 0.0


class TestCsrApply:
    """``csr_apply`` against ``M @ x`` on the matrices a solve multiplies with."""

    @staticmethod
    def matrices(L):
        cell = cell_structure(L)
        A = assemble_operator(sample(LAW, 20240, 1, L))
        return {"G": cell.G, "G_t": cell.G_t, "schur_map": cell.schur_map, "A_map": cell.A_map, "A": A}

    @pytest.mark.parametrize("L", [2, 3, 6, 18])
    def test_bitwise_matmul(self, L):
        # at L=2 every displacement is clamped: G is n x 0 and G_t 0 x n
        assert (cell_structure(L).m == 0) == (L == 2)
        rng = np.random.default_rng(L)
        for M in self.matrices(L).values():
            x = rng.normal(size=2 * M.shape[1])
            for v in (x[: M.shape[1]], x[::2]):  # contiguous and strided
                got, expected = csr_apply(M, v), M @ v
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", ["short", "long", "2-D", "int", "float32", "list", "CSC matrix"])
    def test_rejects_before_the_kernel(self, bad, monkeypatch):
        # the kernel checks no lengths and reads any matrix's arrays as CSR
        # arrays, so a wrong input must never reach it
        M = cell_structure(6).G
        m = M.shape[1]
        M, x = {
            "short": (M, np.zeros(m - 1)),
            "long": (M, np.zeros(m + 1)),
            "2-D": (M, np.zeros((m, 1))),
            "int": (M, np.zeros(m, dtype=int)),
            "float32": (M, np.zeros(m, dtype=np.float32)),
            "list": (M, [0.0] * m),
            "CSC matrix": (M.tocsc(), np.zeros(m)),
        }[bad]
        calls = []
        monkeypatch.setattr(rveplast.assembly, "csr_matvec", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="csr_apply needs a"):
            csr_apply(M, x)
        assert not calls


def schur_setup(L, seed=13):
    real, cell = sample(LAW, seed, 1, L), cell_structure(L)
    return real, assemble_operator(real), cell.n, cell


def stiffness(real, flowing):
    """k = a h / (a + h) on the flowing edges, a on the stuck ones."""
    return np.where(flowing, real.a * real.h / (real.a + real.h), real.a)


def dense_schur(cell, k):
    """S(k) = G.T diag(k) G as a dense array."""
    return (cell.G_t @ sp.diags(k) @ cell.G).toarray()


def band_of(cell, k):
    """The band factor_schur fills with P k, and S(k)'s lower triangle read back from it.

    The band holds S[i, j], i >= j, at row j and column i - j; ``inside``
    marks the band entries with i < m.
    """
    band = np.zeros((cell.m, cell.kd + 1))
    band.ravel()[cell.band_index] = cell.schur_map @ k
    j, c = np.indices(band.shape)
    i = j + c
    inside = i < cell.m
    lower = np.zeros((cell.m, cell.m))
    lower[i[inside], j[inside]] = band[inside]
    return band, inside, lower


class TestOperatorBlocks:
    """The Schur complement of A's plastic block, S = Q - C diag(w) C.T, against its dense form."""

    @pytest.mark.parametrize("L", [2, 3, 6])
    @pytest.mark.parametrize("active", ["empty", "full", "random"])
    def test_schur_matches_dense(self, L, active):
        real, A, n, cell = schur_setup(L)
        mask = {
            "empty": np.zeros(n, dtype=bool),
            "full": np.ones(n, dtype=bool),
            "random": np.random.default_rng(L).random(n) < 0.5,
        }[active]
        dense = A.toarray()
        w = np.where(mask, 1.0 / np.diag(dense)[:n], 0.0)
        Q, C = dense[n:, n:], dense[n:, :n]
        expected = Q - C @ np.diag(w) @ C.T
        scale = np.abs(expected).max(initial=0.0)
        k = stiffness(real, mask)
        # the two forms S takes: the band factor_schur factors, and CG's product
        _, _, lower = band_of(cell, k)
        from_band = lower + np.tril(lower, -1).T
        product = cell.G_t @ (k[:, None] * (cell.G @ np.eye(cell.m)))
        for S in (from_band, product):
            assert S.shape == Q.shape
            assert np.abs(S - expected).max(initial=0.0) <= 1e-13 * scale

    def test_schur_map_has_at_most_10_entries_per_edge(self):
        # an edge couples at most 4 displacement components, and the map
        # holds the lower triangle of their 4 x 4 outer product
        _, _, n, cell = schur_setup(6)
        per_dof = np.diff(cell.schur_map.tocsc().indptr)
        assert per_dof.size == n and per_dof.max() == 10


class TestSchurFactor:
    """The band Cholesky factor of S in the cell's folded DOF numbering."""

    @pytest.mark.parametrize("L", [2, 3, 6, 14, 30])
    def test_order_is_a_permutation(self, L):
        # the DOF numbering lists every free component once and no clamped one
        cell = cell_structure(L)
        assert cell.phi_index.size == cell.m
        assert np.array_equal(np.sort(cell.phi_index), np.flatnonzero(cell.free))

    @pytest.mark.parametrize("L", [6, 14, 30])
    def test_band_holds_every_entry(self, L):
        # the folded order keeps S within half-width 4L + 5, and the band
        # holds S[i, j], i >= j, at row j and column i - j, and zeros past
        # the last row of S; the map fills each band slot once
        real, _, n, cell = schur_setup(L)
        assert cell.kd <= min(4 * L + 5, cell.m - 1)
        assert np.unique(cell.band_index).size == cell.band_index.size == cell.schur_map.shape[0]
        k = stiffness(real, np.random.default_rng(L).random(n) < 0.5)
        band, inside, lower = band_of(cell, k)
        expected = np.tril(dense_schur(cell, k))
        assert not band[~inside].any()
        assert np.array_equal(lower != 0.0, expected != 0.0)
        assert np.abs(lower - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_clamped_only_cell_has_empty_factor(self):
        real, _, n, cell = schur_setup(2)
        assert cell.m == 0 and cell.phi_index.size == 0 and cell.kd == 0
        c = cell.factor_schur(stiffness(real, np.ones(n, dtype=bool)))
        assert c.shape == (1, 0)
        assert cell.solve_schur(c, np.zeros(0)).shape == (0,)

    def test_smallest_free_cell_solves(self):
        real, _, n, cell = schur_setup(3)
        k = stiffness(real, np.arange(n) % 2 == 0)
        S = dense_schur(cell, k)
        b = np.random.default_rng(3).normal(size=cell.m)
        x = cell.solve_schur(cell.factor_schur(k), b)
        expected = np.linalg.solve(S, b)
        assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()

    # the band factor against a dense solve of S, from the clamped-only cell
    # to the largest cell that factors every flowing set and beyond
    @pytest.mark.parametrize("L", [2, 3, 4, 6, 8, 11, 14, 15, 30])
    @pytest.mark.parametrize("active", ["empty", "full", "random"])
    def test_dense_factor_solves_as_sparse_factor(self, L, active):
        real, _, n, cell = schur_setup(L)
        rng = np.random.default_rng(L)
        flowing = {
            "empty": np.zeros(n, dtype=bool),
            "full": np.ones(n, dtype=bool),
            "random": rng.random(n) < 0.5,
        }[active]
        assert cell.kd <= min(4 * L + 5, max(cell.m - 1, 0))
        b = rng.normal(size=cell.m)
        k = stiffness(real, flowing)
        S = dense_schur(cell, k)
        expected = np.linalg.solve(S, b)
        x = cell.solve_schur(cell.factor_schur(k), b)
        assert np.abs(x - expected).max(initial=0.0) <= 1e-12 * np.abs(expected).max(initial=0.0)
        assert np.abs(S @ x - b).max(initial=0.0) <= 1e-12 * np.abs(b).max(initial=0.0)

    def test_largest_factored_cell_is_below_crossover(self):
        # the largest cell that factors every flowing set (L=15) and the first CG cell
        assert cell_structure(15).m < _PCG_MIN_DOFS <= cell_structure(16).m

    @pytest.mark.parametrize("kind", ["singular", "indefinite"])
    def test_unfactorizable_schur_raises(self, kind):
        # S(k) is zero with a = 0, and indefinite with one edge type's a
        # negated; the first Newton step of a path makes a factor at every L
        for L in (6, 14):
            real = sample(LAW, 13, 1, L)
            prob = build_increment(real, SymTensor2(1e-3, 0.0, 0.0))
            first_type = np.arange(prob.cell.n) < real.L**2
            a = {
                "singular": np.zeros_like(prob.a),
                "indefinite": np.where(first_type, -prob.a, prob.a),
            }[kind]
            with pytest.raises(SolverError, match="Schur complement not factorizable"):
                solve_increment(replace(prob, a=a))

    def test_clamped_only_cell_solves(self):
        # at L=2 every displacement is clamped: no Newton step needs a factor
        real, _, n, cell = schur_setup(2)
        prob = build_increment(real, SymTensor2(3e-3, 1e-3, 0.0))
        y, report = solve_increment(prob)
        assert report.converged and y.size == n and report.factors == 0
        gate = SolverSettings().tol_residual * (1 + report.load_norm)
        assert optimality_residual(prob, y) <= gate


class TestIncrementEnergy:
    def test_zero(self):
        real = sample(LAW, 10, 1, 3)
        prob = build_increment(real, SymTensor2(0.0, 0.0, 0.0))
        assert increment_energy(prob, RveState.zero(3)) == 0.0

    def test_elastic_limit_minimizer_solves_linear_system(self):
        real = sample(LAW, 11, 1, 4)
        prob = build_increment(real, SymTensor2(2e-3, 0.0, 1e-3))
        elastic = replace(prob, r=np.zeros_like(prob.r))
        y_exact = spla.spsolve(sp.csc_matrix(prob.A), prob.f)
        e_exact = increment_energy(elastic, y_exact)
        rng = np.random.default_rng(0)
        for _ in range(5):
            y = y_exact + rng.normal(scale=1e-5, size=y_exact.size)
            assert increment_energy(elastic, y) >= e_exact

    def test_single_spring_scalar_formula(self):
        # L=2 clamps all nodes: each edge is an isolated spring and the
        # increment value must match the scalar objective up to the
        # F-constant, cell-averaged
        law = MaterialLaw.point_mass(2.0, 1.0, 1.0)
        real = sample(law, 0, 1, 2)
        gamma = 3.0
        prob = build_increment(real, SymTensor2(gamma, 0.0, 0.0))
        fhat = ps_map(SymTensor2(gamma, 0.0, 0.0))
        for p_val in np.linspace(-2.0, 2.0, 9):
            state = RveState.zero(2)
            state.p[:] = p_val
            scalar = sum(
                0.5 * 2.0 * (fh - p_val) ** 2 + 0.5 * p_val**2 + 1.0 * abs(p_val)
                for fh in fhat
                for _ in range(4)
            )
            const = sum(0.5 * 2.0 * fh**2 for fh in fhat for _ in range(4))
            assert increment_energy(prob, state) == pytest.approx(
                (scalar - const) / 4.0, rel=1e-12, abs=1e-12
            )

    def test_rejects_tiny_cells(self):
        real = sample(LAW, 12, 1, 1)
        with pytest.raises(ValueError):
            build_increment(real, SymTensor2(0.0, 0.0, 0.0))
