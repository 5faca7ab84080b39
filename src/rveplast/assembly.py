"""Assembly of the quadratic increment functional on the periodic cell.

One load increment at macroscopic strain F minimizes

    J(p, phi) = sum_e [ a_e/2 (Fhat_e + g_e(phi) - p_e)^2 + h_e/2 p_e^2 ]
                + sum_e sy_e |p_e - p_prev_e|

over the plastic strains p (one scalar per edge) and the displacement
fluctuation phi (one 2-vector per node, clamped to zero at the cell
corners).  Here g_e(phi) is the projected edge derivative and
Fhat_e = (ps_map F)_alpha the longitudinal macro strain of the edge's
type alpha.

The edge derivatives are linear in the free displacements, g = G phi, with
a sparse n x m matrix G (n edges, m free displacement components) that
depends on the cell size alone.  ``CellStructure`` holds G, made once per
L; everything a realization needs follows from G and its edge values a, h:

    A       = [[diag(a + h), -diag(a) G], [-G.T diag(a), G.T diag(a) G]]
    f       = [a Fhat; -G.T (a Fhat)]
    s_alpha = L^-2 sum_{e in alpha} a_e (Fhat_e + (G phi)_e - p_e)
    S(k)    = G.T diag(k) G

The smooth part of J is carried as 1/2 y.A y - f.y with the Hessian A
(independent of F) and the load f; this equals it minus the
state-independent constant sum_e a_e/2 Fhat_e^2.  s is the cell-averaged
stress, the derivative of the stored energy with respect to ps_map F.
S(k) is the Hessian of the displacements once the plastic strains of the
flowing edges are eliminated: a flowing edge puts its springs a_e and h_e
in series, k_e = a_e h_e / (a_e + h_e), and a stuck edge keeps k_e = a_e.
The cell average factor L^-2 is kept out of A, f and the dissipation
weights (it does not change minimizers) and applied only when reporting
energies and stresses.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .lattice import D, EDGE_COEFF, K, PeriodicLattice, ps_map, wrap_node
from .randfield import Realization


def corner_nodes(L: int) -> np.ndarray:
    """Clamped nodes: the distinct cell corners (all nodes when L <= 2)."""
    corners = {wrap_node((x, y), L) for x in (0, L - 1) for y in (0, L - 1)}
    return np.array(sorted(corners), dtype=np.intp)


@dataclass(frozen=True)
class RveState:
    """Plastic strain per edge and displacement fluctuation per node."""

    p: np.ndarray  # shape (K * L**2,)
    phi: np.ndarray  # shape (L**2, 2)

    @classmethod
    def zero(cls, L: int) -> "RveState":
        return cls(np.zeros(K * L**2), np.zeros((L**2, 2)))


class DofMap:
    """Flat numbering of the free degrees of freedom.

    Plastic DOFs come first (edge order), then the unclamped displacement
    components in node-major, component-minor order.
    """

    def __init__(self, L: int, clamped: bool = True):
        self.L = int(L)
        self.lattice = PeriodicLattice(L)
        self.n = K * L**2
        flat = np.arange(2 * L**2).reshape(L**2, 2)
        free = np.ones(2 * L**2, dtype=bool)
        self.clamped_nodes = corner_nodes(L) if clamped else np.empty(0, dtype=np.intp)
        free[flat[self.clamped_nodes].ravel()] = False
        self.m = int(free.sum())
        self.total = self.n + self.m
        # phi_dof[node, comp] -> global index, -1 where clamped
        self.phi_dof = np.full(2 * L**2, -1, dtype=np.intp)
        self.phi_dof[free] = self.n + np.arange(self.m)
        self.phi_dof = self.phi_dof.reshape(L**2, 2)
        self._free_mask = free.reshape(L**2, 2)

    def pack(self, state: RveState) -> np.ndarray:
        y = np.empty(self.total)
        y[: self.n] = state.p
        y[self.n :] = state.phi[self._free_mask]
        return y

    def unpack(self, y: np.ndarray) -> RveState:
        phi = np.zeros((self.L**2, 2))
        phi[self._free_mask] = y[self.n :]
        return RveState(y[: self.n].copy(), phi)


def _quadratic_map(dof: np.ndarray, weight: np.ndarray, size: int):
    """Fixed pattern of sum_e v_e w_e w_e.T and the map M of v to its data.

    Row e of ``dof`` and ``weight`` lists the nonzero entries of the vector
    w_e (entries of weight 0 are skipped).  Returns the pattern as a CSR
    matrix of ones and the sparse map M with one row per pattern entry, so
    that the matrix is csr(M v) on the pattern.  Pattern and values are
    symmetric, so the CSR arrays are also the CSC arrays.
    """
    keep = weight != 0.0
    pair = keep[:, :, None] & keep[:, None, :]
    i = np.broadcast_to(dof[:, :, None], pair.shape)[pair]
    j = np.broadcast_to(dof[:, None, :], pair.shape)[pair]
    e = np.broadcast_to(np.arange(dof.shape[0])[:, None, None], pair.shape)[pair]
    # row-major keys ascend in CSR order with sorted indices
    keys, entry = np.unique(i * size + j, return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(size + 1) * size)
    pattern = sp.csr_matrix((np.ones(keys.size), keys % size, indptr), shape=(size, size))
    values = (weight[:, :, None] * weight[:, None, :])[pair]
    return pattern, sp.csr_matrix((values, (entry, e)), shape=(keys.size, dof.shape[0]))


def _with_data(pattern: sp.csr_matrix, data: np.ndarray) -> sp.csr_matrix:
    return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)


class CellStructure:
    """The edge-strain operator G of the cell of side L and the patterns made from it.

    Everything here depends on L alone (``cell_structure`` makes it once per
    L); a realization contributes only its edge values a and h.  ``G`` maps
    the free displacements to the edge derivatives, g(phi) = G phi; row e
    holds the weights of the displacement components of the head and tail
    of edge e.  A and S(k) are sums of one rank-one term per edge, so each
    has a fixed pattern and a sparse map from the edge values to its data:
    A.data = M [a; h], and S(k).data = P k with P_(i,j),e = G_ei G_ej, at
    most 16 entries per edge.  The arrays are read-only, because
    realizations on several threads share one structure.
    """

    def __init__(self, L: int, clamped: bool = True):
        self.dofmap = dm = DofMap(L, clamped=clamped)
        n, m, npt = dm.n, dm.m, L**2
        edges = np.arange(n)
        tails = edges % npt
        coeff = np.repeat(EDGE_COEFF, npt, axis=0)
        # per edge: the x, y components of head and tail, their global dof
        # (-1 where clamped) and their weights in g_e
        dof = np.concatenate([dm.phi_dof[dm.lattice.heads.ravel()], dm.phi_dof[tails]], axis=1)
        weight = np.concatenate([coeff, -coeff], axis=1)
        weight[dof < 0] = 0.0
        keep = weight != 0.0
        rows = np.broadcast_to(edges[:, None], dof.shape)[keep]
        self.G = sp.csr_matrix((weight[keep], (rows, dof[keep] - n)), shape=(n, m))
        self.G_t = self.G.T.tocsr()  # kept: a transpose per call costs 4x the product
        self.schur_pattern, self.schur_map = _quadratic_map(dof - n, weight, m)
        # A: a_e times the stencil of g_e - p_e, then h_e times that of p_e
        stencil = np.column_stack([edges, dof])
        ones = np.ones((n, 1))
        self.A_pattern, self.A_map = _quadratic_map(
            np.concatenate([stencil, stencil]),
            np.block([[-ones, weight], [ones, np.zeros_like(weight)]]),
            dm.total,
        )
        matrices = (self.G, self.G_t, self.schur_pattern, self.schur_map, self.A_pattern, self.A_map)
        for mat in matrices:
            for arr in (mat.data, mat.indices, mat.indptr):
                arr.flags.writeable = False
        for arr in (dm.phi_dof, dm.clamped_nodes, dm._free_mask):
            arr.flags.writeable = False

    @property
    def L(self) -> int:
        return self.dofmap.L

    def _edge_macro_strain(self, F) -> np.ndarray:
        """Fhat_e = (ps_map F)_alpha on every edge e of type alpha."""
        return np.repeat(ps_map(F), self.L**2)

    def operator(self, a: np.ndarray, h: np.ndarray) -> sp.csr_matrix:
        """A = [[diag(a + h), -diag(a) G], [-G.T diag(a), G.T diag(a) G]]."""
        return _with_data(self.A_pattern, self.A_map @ np.concatenate([a, h]))

    def load(self, a: np.ndarray, F) -> np.ndarray:
        """f = [a Fhat; -G.T (a Fhat)]."""
        af = a * self._edge_macro_strain(F)
        return np.concatenate([af, -(self.G_t @ af)])

    def stress(self, a: np.ndarray, state: RveState, F) -> np.ndarray:
        """s_alpha = L^-2 sum_{e in alpha} a_e (Fhat_e + (G phi)_e - p_e).

        The displacements of ``state`` must vanish where they are clamped,
        as in every state the solver returns.
        """
        phi = self.dofmap.pack(state)[self.dofmap.n :]
        sigma = a * (self._edge_macro_strain(F) + self.G @ phi - state.p)
        return sigma.reshape(K, -1).sum(axis=1) * float(self.L) ** (-D)

    def schur(self, a: np.ndarray, h: np.ndarray, flowing: np.ndarray) -> sp.csc_matrix:
        """S(k) = G.T diag(k) G with k = a h / (a + h) on the flowing edges, a elsewhere."""
        k = np.where(flowing, a * h / (a + h), a)
        return _with_data(self.schur_pattern, self.schur_map @ k).T


@functools.lru_cache(maxsize=8)
def cell_structure(L: int) -> CellStructure:
    """The shared, read-only ``CellStructure`` of the clamped cell of side L."""
    return CellStructure(L)


def assemble_operator(real: Realization) -> sp.csr_matrix:
    """Sparse symmetric Hessian A with y.A y = sum_e a (g - p)^2 + h p^2."""
    return cell_structure(real.L).operator(real.a, real.h)


def assemble_load(real: Realization, F) -> np.ndarray:
    """Load vector f with f.y = sum_e a_e Fhat_e (p_e - g_e(phi)).

    This makes 1/2 y.A y - f.y equal the stored energy at macro strain F
    up to the constant sum_e a_e/2 Fhat_e^2.  With spatially constant
    coefficients the displacement block of f telescopes to zero.
    """
    return cell_structure(real.L).load(real.a, F)


@dataclass(frozen=True)
class IncrementProblem:
    """One time increment: Hessian, load, dissipation weights, previous state.

    ``a`` and ``h`` are the edge moduli ``A`` is made of on ``cell``; the
    solver's return map and Schur complement read them.  ``schur_factor``
    holds the solver's last factor of a Schur complement, paired with the
    flowing set it eliminated ("last").  The increments of one path share
    it: the factor solves directly while the flowing set repeats and
    preconditions CG on other flowing sets; it is never shared between
    threads.
    """

    A: sp.csr_matrix = field(repr=False)
    f: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    p_prev: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)
    cell: CellStructure = field(repr=False)
    schur_factor: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dofmap(self) -> DofMap:
        return self.cell.dofmap

    @property
    def scale(self) -> float:
        """Cell-average prefactor applied when reporting energies."""
        return float(self.dofmap.L) ** (-D)

    def as_vector(self, y) -> np.ndarray:
        return self.dofmap.pack(y) if isinstance(y, RveState) else np.asarray(y, dtype=float)


def build_increment(
    real: Realization,
    F,
    p_prev: np.ndarray | None = None,
    A: sp.csr_matrix | None = None,
) -> IncrementProblem:
    """Assemble the increment problem for macro strain F.

    ``p_prev`` holds the plastic strains of the previous step (default 0).
    Pass the operator of a previous increment as ``A`` to reuse it: the
    Hessian does not depend on F or the plastic history.
    """
    if real.L < 2:
        raise ValueError(f"increment problems need L >= 2, got L={real.L}")
    cell = cell_structure(real.L)
    return IncrementProblem(
        A=assemble_operator(real) if A is None else A,
        f=assemble_load(real, F),
        r=real.sy,
        p_prev=np.zeros(cell.dofmap.n) if p_prev is None else np.asarray(p_prev, dtype=float),
        a=real.a,
        h=real.h,
        cell=cell,
    )


def increment_energy(prob: IncrementProblem, y) -> float:
    """Cell-averaged increment functional value at state y.

    Returns scale * (1/2 y.A y - f.y + sum_e r_e |p_e - p_prev_e|); the
    offset to the full stored energy is independent of y.
    """
    yv = prob.as_vector(y)
    n = prob.dofmap.n
    smooth = 0.5 * yv @ (prob.A @ yv) - prob.f @ yv
    rough = prob.r @ np.abs(yv[:n] - prob.p_prev)
    return prob.scale * (smooth + rough)
