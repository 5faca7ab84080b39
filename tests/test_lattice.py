"""Lattice geometry, discrete derivatives, and the strain conversion maps."""

import numpy as np
import pytest
from helpers import edge_strains, projected_edge_derivative, ps_adjoint
from hypothesis import given, strategies as st

from rveplast.lattice import (
    EDGE_COEFF,
    EDGE_TYPES,
    K,
    SymTensor2,
    edge_heads,
    ps_map,
    wrap_node,
)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def unit(direction):
    """The unit vector of an edge direction."""
    return np.asarray(direction, dtype=float) / np.hypot(*direction)


class TestEdgeTypes:
    def test_generating_directions(self):
        assert EDGE_TYPES == ((1, 0), (0, 1), (1, 1))
        assert EDGE_TYPES[2] == tuple(np.add(EDGE_TYPES[0], EDGE_TYPES[1]))

    def test_unit_vectors(self):
        # EDGE_COEFF[alpha] = unit(alpha) / length(alpha) to round-off; the weights themselves are exact
        for alpha, direction in enumerate(EDGE_TYPES):
            assert np.linalg.norm(unit(direction)) == pytest.approx(1.0, abs=1e-15)
            assert EDGE_COEFF[alpha] == pytest.approx(unit(direction) / np.hypot(*direction), abs=1e-16)
        assert np.hypot(*EDGE_TYPES[0]) == 1.0
        assert np.hypot(*EDGE_TYPES[2]) == pytest.approx(np.sqrt(2.0))
        assert np.array_equal(EDGE_COEFF, [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])


class TestIndexing:
    def test_wrap_node_examples(self):
        assert wrap_node((0, 0), 4) == 0
        assert wrap_node((4, 1), 4) == 4  # wraps to (0, 1)
        assert wrap_node((-1, -1), 4) == 15  # nonnegative modulus: (3, 3)

    def test_wrap_node_rejects_bad_side(self):
        with pytest.raises(ValueError):
            wrap_node((0, 0), 0)

    def test_edge_heads_rejects_bad_side(self):
        with pytest.raises(ValueError, match="lattice side must be >= 1"):
            edge_heads(0)

    @pytest.mark.parametrize("L", [1, 2, 3, 5])
    def test_bijections(self, L):
        nodes = {wrap_node((x, y), L) for x in range(L) for y in range(L)}
        assert nodes == set(range(L**2))

    @pytest.mark.parametrize("L", [1, 2, 3, 5])
    def test_heads_are_periodic_translates(self, L):
        heads = edge_heads(L)
        for node in range(L**2):
            x, y = node % L, node // L
            for alpha, (ex, ey) in enumerate(EDGE_TYPES):
                assert heads[alpha, node] == wrap_node((x + ex, y + ey), L)


class TestProjectedEdgeDerivative:
    @given(cx=finite, cy=finite, alpha=st.integers(0, 2))
    def test_constant_fields_in_kernel(self, cx, cy, alpha):
        L = 4
        field = np.tile([cx, cy], (L**2, 1))
        assert projected_edge_derivative(field, (5, alpha), L) == 0.0

    def test_linear_field_horizontal(self):
        L = 4
        field = np.zeros((L**2, 2))
        field[:, 0] = np.tile(np.arange(L), L)  # u(x, y) = (x, 0)
        # interior horizontal edge from (1, 1), no wrap
        assert projected_edge_derivative(field, (5, 0), L) == pytest.approx(1.0)

    def test_linear_field_diagonal(self):
        L = 4
        field = np.zeros((L**2, 2))
        field[:, 0] = np.tile(np.arange(L), L)
        # diagonal edge from (1, 1): unit . (1, 0) / sqrt(2) = 1/2
        assert projected_edge_derivative(field, (5, 2), L) == pytest.approx(0.5)

    def test_linearity(self):
        L = 3
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=(2, L**2, 2))
        for alpha in range(K):
            lhs = projected_edge_derivative(2.5 * u - 0.5 * v, (4, alpha), L)
            rhs = 2.5 * projected_edge_derivative(u, (4, alpha), L) - 0.5 * (
                projected_edge_derivative(v, (4, alpha), L)
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_vectorized_strains_match_scalar(self):
        L = 5
        rng = np.random.default_rng(1)
        field = rng.normal(size=(L**2, 2))
        g = edge_strains(field, L)
        for node in range(L**2):
            for alpha in range(K):
                assert g[alpha, node] == pytest.approx(
                    projected_edge_derivative(field, (node, alpha), L), abs=1e-14
                )


def direct_ps(F):
    """Definition-level oracle: longitudinal components unit . F unit."""
    F = np.asarray(F, dtype=float)
    return np.array([unit(e) @ F @ unit(e) for e in EDGE_TYPES])


class TestPsMaps:
    def test_identity(self):
        assert np.allclose(ps_map(np.eye(2)), [1.0, 1.0, 1.0])

    def test_uniaxial(self):
        gamma = 0.37
        F = np.diag([gamma, 0.0])
        assert np.allclose(ps_map(F), direct_ps(F))
        assert np.allclose(ps_map(F), [gamma, 0.0, gamma / 2])

    def test_zero(self):
        assert np.all(ps_map(np.zeros((2, 2))) == 0.0)

    def test_accepts_sym_tensor(self):
        t = SymTensor2(1.0, 2.0, 3.0)
        assert np.allclose(ps_map(t), ps_map(t.as_matrix()))

    def test_adjoint_example(self):
        sigma = ps_adjoint([1.0, 1.0, 1.0]).as_matrix()
        assert np.allclose(sigma, [[1.5, 0.5], [0.5, 1.5]])
        assert np.all(ps_adjoint([0.0, 0.0, 0.0]).as_matrix() == 0.0)

    @given(st.lists(finite, min_size=3, max_size=3), st.lists(finite, min_size=3, max_size=3))
    def test_adjoint_identity(self, s, f):
        F = SymTensor2(*f).as_matrix()
        lhs = np.dot(s, ps_map(F))
        rhs = np.sum(ps_adjoint(s).as_matrix() * F)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)

    @given(st.lists(finite, min_size=4, max_size=4))
    def test_annihilates_antisymmetric_part(self, entries):
        F = np.array(entries).reshape(2, 2)
        sym = 0.5 * (F + F.T)
        assert np.allclose(ps_map(F), ps_map(sym), rtol=1e-12, atol=1e-12)

    def test_matrix_korn_constant_at_most_ten(self):
        rng = np.random.default_rng(12345)
        worst = 0.0
        for _ in range(2000):
            F = rng.normal(size=(2, 2))
            sym = 0.5 * (F + F.T)
            num = float(np.sum(sym * sym))
            den = float(np.sum(direct_ps(F) ** 2))
            if den > 1e-12:
                worst = max(worst, num / den)
        assert 0.0 < worst <= 10.0
