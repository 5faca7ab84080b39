"""Assembly of the quadratic increment functional on the periodic cell.

One load increment at macroscopic strain F minimizes

    J(p, phi) = sum_e [ a_e/2 (Fhat_a + g_e(phi) - p_e)^2 + h_e/2 p_e^2 ]
                + sum_e sy_e |p_e - p_prev_e|

over the plastic strains p (one scalar per edge) and the displacement
fluctuation phi (one 2-vector per node, clamped to zero at the cell
corners).  Here g_e(phi) is the projected edge derivative and
Fhat_a = (ps_map F)_alpha the longitudinal macro strain of the edge type.

The smooth part is carried as  1/2 y.A y - f.y  with A the Hessian
(independent of F) and f the load vector: this equals J's smooth part
minus the state-independent constant  sum_e a_e/2 Fhat_a^2.  The cell
average factor L^-2 is kept out of A, f and the dissipation weights (it
does not change minimizers) and applied only when reporting energies.

f is linear in ps_map F: f = B ps_map(F) with the load basis B of shape
(total, K), made once per cell (``LoadBasis``).  The cell-averaged stress
is the derivative of the stored energy with respect to ps_map F, so the
same B gives it too:

    s_alpha = L^-2 ( sum_{e in alpha} a_e Fhat_a - (B.T y)_alpha ).

``IncrementBuilder`` holds everything of a cell's increments that does not
depend on F or the plastic history (dof map, A, B and the block split of
A), so a time step costs one product B ps_map(F).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .lattice import D, EDGE_COEFF, K, PeriodicLattice, ps_map
from .randfield import Realization


def corner_nodes(L: int) -> np.ndarray:
    """Clamped nodes: the distinct cell corners (all nodes when L <= 2)."""
    lat = PeriodicLattice(L)
    corners = {lat.node_index(x, y) for x in (0, L - 1) for y in (0, L - 1)}
    return np.array(sorted(corners), dtype=np.intp)


@dataclass(frozen=True)
class RveState:
    """Plastic strain per edge and displacement fluctuation per node."""

    p: np.ndarray  # shape (K * L**2,)
    phi: np.ndarray  # shape (L**2, 2)

    @classmethod
    def zero(cls, L: int) -> "RveState":
        return cls(np.zeros(K * L**2), np.zeros((L**2, 2)))

    @property
    def L(self) -> int:
        return int(np.sqrt(self.phi.shape[0]))

    def copy(self) -> "RveState":
        return RveState(self.p.copy(), self.phi.copy())


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


def _edge_stencil(dofmap: DofMap, alpha: int):
    """Per-edge (dof, coefficient) stencil of the elastic strain g - p.

    Five entries per edge: the plastic DOF with weight -1 and the four
    displacement components of head and tail weighted by the projected
    derivative; clamped components get dof -1 / weight 0.
    """
    lat = dofmap.lattice
    npt = lat.num_nodes
    tails = np.arange(npt)
    heads = lat.heads[alpha]
    c = EDGE_COEFF[alpha]
    dofs = np.empty((5, npt), dtype=np.intp)
    coef = np.empty((5, npt))
    dofs[0] = alpha * npt + tails
    coef[0] = -1.0
    for i in range(2):
        dofs[1 + i] = dofmap.phi_dof[heads, i]
        coef[1 + i] = c[i]
        dofs[3 + i] = dofmap.phi_dof[tails, i]
        coef[3 + i] = -c[i]
    coef[dofs < 0] = 0.0
    return dofs, coef


def assemble_operator(
    real: Realization, clamped: bool = True, dofmap: DofMap | None = None
) -> sp.csr_matrix:
    """Sparse symmetric Hessian A with y.A y = sum_e a (g - p)^2 + h p^2."""
    if dofmap is None:
        dofmap = DofMap(real.L, clamped=clamped)
    npt = real.L**2
    rows, cols, vals = [], [], []
    a = real.by_type("a")
    for alpha in range(K):
        dofs, coef = _edge_stencil(dofmap, alpha)
        for i in range(5):
            keep_i = dofs[i] >= 0
            for j in range(5):
                keep = keep_i & (dofs[j] >= 0)
                rows.append(dofs[i][keep])
                cols.append(dofs[j][keep])
                vals.append((a[alpha] * coef[i] * coef[j])[keep])
        # hardening acts on the plastic DOF alone
        rows.append(dofs[0])
        cols.append(dofs[0])
        vals.append(real.by_type("h")[alpha])
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dofmap.total, dofmap.total),
    ).tocsr()
    A.sum_duplicates()
    A.eliminate_zeros()
    return A


@dataclass(frozen=True, eq=False)
class LoadBasis:
    """The load vector and the cell-averaged stress as linear maps of ps_map F.

    Column alpha of B is -a_e times the stencil of g_e - p_e, summed over
    the type-alpha edges, so that with Fhat = ps_map(F)

        (B Fhat).y = sum_e a_e Fhat_a (p_e - g_e(phi)).

    The stored energy sum_e a_e/2 (Fhat_a + g_e - p_e)^2 has the derivative
    sum_{e in alpha} a_e (Fhat_a + g_e - p_e) with respect to Fhat_alpha,
    which is  sum_{e in alpha} a_e Fhat_a - (B.T y)_alpha.
    """

    B: sp.csr_matrix = field(repr=False)  # shape (total, K)
    B_t: sp.csr_matrix = field(repr=False)  # B.T, kept: a transpose per call costs 4x the product
    a_sums: np.ndarray  # sum of a_e over the edges of each type, shape (K,)
    scale: float  # L^-2

    @classmethod
    def of(cls, real: Realization, dofmap: DofMap) -> "LoadBasis":
        rows, cols, vals = [], [], []
        a = real.by_type("a")
        for alpha in range(K):
            dofs, coef = _edge_stencil(dofmap, alpha)
            keep = dofs >= 0
            rows.append(dofs[keep])
            cols.append(np.full(np.count_nonzero(keep), alpha))
            vals.append((-a[alpha] * coef)[keep])
        B = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(dofmap.total, K),
        ).tocsr()
        B.sum_duplicates()
        B.eliminate_zeros()
        return cls(B=B, B_t=B.T.tocsr(), a_sums=a.sum(axis=1), scale=float(real.L) ** (-D))

    def load(self, F) -> np.ndarray:
        """f = B ps_map(F)."""
        return self.B @ ps_map(F)

    def stress(self, y: np.ndarray, F) -> np.ndarray:
        """Cell-averaged stress at the packed state y, one entry per edge type."""
        return self.scale * (self.a_sums * ps_map(F) - self.B_t @ y)


def assemble_load(
    real: Realization, F, clamped: bool = True, dofmap: DofMap | None = None
) -> np.ndarray:
    """Load vector f with f.y = sum_e a_e Fhat_a (p_e - g_e(phi)).

    This makes 1/2 y.A y - f.y equal the stored energy at macro strain F
    up to the constant sum_e a_e/2 Fhat_a^2.  With spatially constant
    coefficients the displacement block of f telescopes to zero.
    """
    if dofmap is None:
        dofmap = DofMap(real.L, clamped=clamped)
    return LoadBasis.of(real, dofmap).load(F)


@dataclass(frozen=True, eq=False)
class OperatorBlocks:
    """The Hessian split at the boundary of plastic and displacement DOFs.

    A plastic DOF couples only with itself and the displacement DOFs of its
    own edge, so the plastic block of A is diagonal:

        A = [[diag(d), C.T],
             [C,       Q  ]]

    At fixed displacements the plastic DOFs therefore minimize one by one
    (the solver's return map, which reads d and C.T), and eliminating the
    flowing ones leaves the Schur complement S(w) = Q - C diag(w) C.T on the
    displacements, with w = 1/d on the flowing DOFs and 0 elsewhere.  Its
    CSC pattern, the values of Q on it and the sparse map M with
    S(w).data = q - M w are fixed for the life of A and computed once, in
    ``split``.  Each plastic DOF touches at most four displacement DOFs, so M
    has at most 16 entries per column.
    """

    diag: np.ndarray  # d, shape (n,)
    coupling_t: sp.csr_matrix  # C.T = A[:n, n:]
    schur_pattern: tuple[np.ndarray, np.ndarray] = field(repr=False)  # (indices, indptr)
    schur_q: np.ndarray = field(repr=False)  # Q on the pattern
    schur_map: sp.csr_matrix = field(repr=False)  # M, one row per pattern entry
    # "last": the solver's last factor of a Schur complement, paired with
    # the set of flowing plastic DOFs it eliminated
    schur_factor: dict = field(default_factory=dict, repr=False)

    @classmethod
    def split(cls, A: sp.csr_matrix, n: int) -> "OperatorBlocks":
        A = sp.csr_matrix(A)
        plastic = A[:n, :n]
        diag = plastic.diagonal()
        if plastic.count_nonzero() != np.count_nonzero(diag):
            raise ValueError("the plastic block of the operator must be diagonal")
        disp = A[n:, n:].tocsc()
        coupling_t = A[:n, n:]
        m = disp.shape[0]

        # pad the rows of C.T (the displacement DOFs of each plastic DOF)
        coupling_t.sort_indices()
        counts = np.diff(coupling_t.indptr)
        slot = np.arange(coupling_t.nnz) - np.repeat(coupling_t.indptr[:-1], counts)
        rows = np.repeat(np.arange(n), counts)
        cols = np.full((n, counts.max(initial=0)), -1, dtype=np.intp)
        vals = np.zeros(cols.shape)
        cols[rows, slot] = coupling_t.indices
        vals[rows, slot] = coupling_t.data
        # every (i, j, e) with C_ie C_je != 0: the entries of C diag(w) C.T
        shape = (n, cols.shape[1], cols.shape[1])
        pair_i = np.broadcast_to(cols[:, :, None], shape)
        pair_j = np.broadcast_to(cols[:, None, :], shape)
        keep = (pair_i >= 0) & (pair_j >= 0)
        pair_i, pair_j = pair_i[keep], pair_j[keep]
        pair_e = np.broadcast_to(np.arange(n)[:, None, None], shape)[keep]
        pair_v = (vals[:, :, None] * vals[:, None, :])[keep]

        # CSC pattern of S: Q's pattern joined with C C.T's.  The column-major
        # keys of a CSC matrix with sorted indices ascend, which locates an
        # entry (i, j) by binary search.
        pattern = sp.csc_matrix((np.ones(pair_i.size), (pair_i, pair_j)), shape=(m, m))
        pattern = pattern + abs(disp)
        disp.sort_indices()
        pattern.sort_indices()

        def keys_of(mat):
            return np.repeat(np.arange(m), np.diff(mat.indptr)) * m + mat.indices

        keys = keys_of(pattern)
        q = np.zeros(keys.size)
        q[np.searchsorted(keys, keys_of(disp))] = disp.data
        entry = np.searchsorted(keys, pair_j * m + pair_i)
        schur_map = sp.csr_matrix((pair_v, (entry, pair_e)), shape=(keys.size, n))
        return cls(
            diag=diag,
            coupling_t=coupling_t,
            schur_pattern=(pattern.indices, pattern.indptr),
            schur_q=q,
            schur_map=schur_map,
        )

    def schur(self, w: np.ndarray) -> sp.csc_matrix:
        """S = Q - C diag(w) C.T, on the fixed pattern."""
        m = self.schur_pattern[1].size - 1
        data = self.schur_q - self.schur_map @ w
        return sp.csc_matrix((data, *self.schur_pattern), shape=(m, m))


@dataclass(frozen=True)
class IncrementProblem:
    """One time increment: Hessian, load, dissipation weights, previous state.

    ``blocks`` is the block split of ``A``; it is computed on first use
    unless given.  Pass the blocks of a previous increment with the same
    ``A`` to reuse them.
    """

    A: sp.csr_matrix = field(repr=False)
    f: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    p_prev: np.ndarray = field(repr=False)
    dofmap: DofMap = field(repr=False)
    blocks: OperatorBlocks | None = field(default=None, repr=False, compare=False)

    def operator_blocks(self) -> OperatorBlocks:
        if self.blocks is None:
            object.__setattr__(self, "blocks", OperatorBlocks.split(self.A, self.dofmap.n))
        return self.blocks

    @property
    def scale(self) -> float:
        """Cell-average prefactor applied when reporting energies."""
        return float(self.dofmap.L) ** (-D)

    def as_vector(self, y) -> np.ndarray:
        return self.dofmap.pack(y) if isinstance(y, RveState) else np.asarray(y, dtype=float)


class IncrementBuilder:
    """The increments of one realization: dof map, A and B are made once.

    With ``split`` the block split of A is made once too and shared by every
    increment, so solves of successive time steps also share the solver's
    cached Schur factor.  Otherwise each increment splits A on first use.
    """

    def __init__(self, real: Realization, A: sp.csr_matrix | None = None, split: bool = False):
        self.real = real
        self.dofmap = DofMap(real.L)
        self.A = assemble_operator(real, dofmap=self.dofmap) if A is None else A
        self.basis = LoadBasis.of(real, self.dofmap)
        self.blocks = OperatorBlocks.split(self.A, self.dofmap.n) if split else None

    def increment(self, F, p_prev: np.ndarray | None = None) -> IncrementProblem:
        """The increment problem at macro strain F from plastic strains p_prev (default 0)."""
        if p_prev is None:
            p_prev = np.zeros(self.dofmap.n)
        return IncrementProblem(
            A=self.A,
            f=self.basis.load(F),
            r=self.real.sy,
            p_prev=np.asarray(p_prev, dtype=float),
            dofmap=self.dofmap,
            blocks=self.blocks,
        )

    def stress(self, state: RveState, F) -> np.ndarray:
        """Cell-averaged stress of ``state`` at macro strain F (``LoadBasis.stress``)."""
        return self.basis.stress(self.dofmap.pack(state), F)


def build_increment(
    real: Realization,
    F,
    p_prev: np.ndarray | None = None,
    A: sp.csr_matrix | None = None,
) -> IncrementProblem:
    """Assemble the increment problem for macro strain F.

    Pass the operator of a previous increment as ``A`` to reuse it: the
    Hessian does not depend on F or the plastic history.
    """
    if real.L < 2:
        raise ValueError(f"increment problems need L >= 2, got L={real.L}")
    return IncrementBuilder(real, A=A).increment(F, p_prev)


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
