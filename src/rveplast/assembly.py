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
depends on the cell size alone.  ``CellStructure`` is the one object per
cell size: it numbers the degrees of freedom y = [p; phi], the displacements
in a folded order that puts every S below within a narrow band, and holds
the clamp and G.  ``RveState`` holds a state in this one layout.  Everything
a realization needs follows from G and its edge values a, h:

    A       = [[diag(a + h), -diag(a) G], [-G.T diag(a), G.T diag(a) G]]
    f       = [a Fhat; -G.T (a Fhat)] = B ps_map F,   B = [E; -G.T E]
    s_alpha = L^-2 sum_{e in alpha} a_e (Fhat_e + (G phi)_e - p_e)
    S(k)    = G.T diag(k) G

The smooth part of J is carried as 1/2 y.A y - f.y with the Hessian A
(independent of F) and the load f, which the (n + m) x K load map B
(``assemble_load``) maps from ps_map F (E_e,alpha = a_e on the type-alpha
edges, 0 elsewhere); this equals it minus the state-independent constant
sum_e a_e/2 Fhat_e^2.  s is the cell-averaged stress, the derivative of
the stored energy with respect to ps_map F.
S(k) is the Hessian of the displacements once the plastic strains of the
flowing edges are eliminated: a flowing edge puts its springs a_e and h_e
in series, k_e = a_e h_e / (a_e + h_e), and a stuck edge keeps k_e = a_e.
S(k) has one form, its band factor: in the folded order S(k) is a band
matrix, filled from k and factored by LAPACK's band Cholesky (George and
Liu, *Computer Solution of Large Sparse Positive Definite Systems*, 1981),
and no sparse S is assembled, since a product with S(k) is G.T (k G x).
The cell average factor L^-2 is kept out of A, f and the dissipation
weights (it does not change minimizers) and applied only when reporting
energies and stresses.

Every product that runs per point, per CG iteration or per factor of an
increment solve (G phi, G.T x, A y and P k) goes through ``csr_apply``,
which calls scipy's CSR kernel ``csr_matvec`` directly, the kernel that
``M @ x`` ends in, so the products are bitwise those of ``M @ x``.  On a
small cell the products take less time than scipy.sparse's Python dispatch
around them: at L=6, G @ phi took 2.4 us, of which the kernel is 1.0 us
(scipy 1.17.1, one BLAS thread, a 2-core Xeon).  The kernel checks no
lengths and would read past the end of a short vector, so ``csr_apply``
checks its input first.  Products made once per path keep ``@``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse._sparsetools import csr_matvec

from .lattice import D, EDGE_COEFF, K, edge_heads, ps_map, wrap_node
from .randfield import Realization


def csr_apply(M: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """M @ x for a CSR matrix M, bitwise, without scipy.sparse's dispatch.

    Calls ``csr_matvec``, the kernel of scipy.sparse's private
    ``_sparsetools`` that ``M @ x`` ends in.  The kernel checks no lengths
    and reads any matrix's arrays as CSR arrays, so a matrix that is not
    CSR, or an x that is not a 1-D float64 ndarray of length M.shape[1],
    raises ValueError before it runs.  A strided x is copied to contiguous
    memory by the kernel's wrapper.  The kernel is imported at the top of
    this module, so a scipy without it fails at import; it was checked on
    scipy 1.17.1 only, though pyproject.toml allows scipy >= 1.10.
    """
    n_row, n_col = M.shape
    if M.format != "csr":
        raise ValueError(f"csr_apply needs a CSR matrix, got {M.format}")
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64 and x.shape == (n_col,)):
        kind = getattr(x, "dtype", type(x).__name__)
        raise ValueError(f"csr_apply needs a float64 vector of length {n_col}, got {kind} of shape {np.shape(x)}")
    out = np.zeros(n_row)
    csr_matvec(n_row, n_col, M.indptr, M.indices, M.data, x, out)
    return out


@dataclass(frozen=True)
class RveState:
    """Plastic strain per edge and free displacement components in DOF order: y = [p; phi]."""

    p: np.ndarray  # shape (n,), n = K * L**2
    phi: np.ndarray  # shape (m,), in the order of ``CellStructure.phi_index``

    @classmethod
    def zero(cls, L: int) -> "RveState":
        cell = cell_structure(L)
        return cls(np.zeros(cell.n), np.zeros(cell.m))


def _quadratic_map(dof: np.ndarray, weight: np.ndarray, size: int):
    """Fixed pattern of sum_e v_e w_e w_e.T and the map M of v to its data.

    Row e of ``dof`` and ``weight`` lists the nonzero entries of the vector
    w_e (entries of weight 0 are skipped).  Returns the pattern's CSR
    ``indices`` and ``indptr`` and the sparse map M with one row per pattern
    entry, so that the matrix is csr((M v, indices, indptr)).  Pattern and
    values are symmetric, so the CSR arrays are also the CSC arrays.
    """
    keep = weight != 0.0
    pair = keep[:, :, None] & keep[:, None, :]
    i = np.broadcast_to(dof[:, :, None], pair.shape)[pair]
    j = np.broadcast_to(dof[:, None, :], pair.shape)[pair]
    e = np.broadcast_to(np.arange(dof.shape[0])[:, None, None], pair.shape)[pair]
    # row-major keys ascend in CSR order with sorted indices
    keys, entry = np.unique(i * size + j, return_inverse=True)
    # int32, scipy's own index type at these sizes: csr_matrix then shares
    # the arrays instead of converting a copy on every call
    indices = (keys % size).astype(np.int32)
    indptr = np.searchsorted(keys, np.arange(size + 1) * size).astype(np.int32)
    values = (weight[:, :, None] * weight[:, None, :])[pair]
    return indices, indptr, sp.csr_matrix((values, (entry, e)), shape=(keys.size, dof.shape[0]))


class CellStructure:
    """The cell of side L: its DOF numbering and clamp, G, and the maps to A and S.

    Everything here depends on L alone (``cell_structure`` makes it once per
    L); a realization contributes only its edge values a and h.  The flat
    vector y = [p; phi] holds the n plastic strains (edge order), then the
    m free displacement components in the folded order, the one layout of
    every state; clamped components are not stored.  The cell corners are
    clamped (``clamped_nodes``, all nodes when L <= 2), ``free`` marks the
    unclamped components of a node-major (L**2, 2) array, and ``phi_index``
    lists their flat indices node * 2 + component in DOF order.
    The folded order numbers the coordinates 0, 2, 4, ... going up to the
    middle of the cell and ..., 5, 3, 1 coming back, so periodic neighbours
    are at most two apart in each coordinate, and sorts the components by
    (fold(y) L + fold(x)) 2 + component: every S(k) then lies within a band
    of half-width ``kd`` <= 4L + 5.  ``G`` maps the free displacements to the
    edge derivatives, g(phi) = G phi; row e holds the weights of the
    displacement components of the head and tail of edge e.  A and S(k) are
    sums of one rank-one term per edge, so each has a fixed pattern and a
    sparse map from the edge values to its data: A.data = M [a; h] on the
    CSR pattern ``A_indices``, ``A_indptr``, and the lower triangle of S(k)
    is P k with P_(i,j),e = G_ei G_ej, i >= j (``schur_map``, at most 10
    entries per edge, the lower triangle of a 4 x 4 outer product).  S(k)
    is only ever factored: ``band_index`` scatters P k into LAPACK's lower
    band storage of S, one slot per row of P, and a product with S(k) is
    G.T (k G x).  The arrays are read-only, because ``cell_structure``
    caches one structure per L that every realization of that size shares.
    """

    def __init__(self, L: int, clamped: bool = True):
        L = self.L = int(L)
        npt = L**2
        self.n = n = K * npt
        corners = {wrap_node((x, y), L) for x in (0, L - 1) for y in (0, L - 1)}
        self.clamped_nodes = np.array(sorted(corners) if clamped else [], dtype=np.intp)
        self.free = np.ones((npt, 2), dtype=bool)
        self.free[self.clamped_nodes] = False
        self.m = m = int(self.free.sum())
        self.total = n + m
        coord = np.arange(L)
        fold = np.where(coord < (L + 1) // 2, 2 * coord, 2 * (L - 1 - coord) + 1)
        # node y * L + x has the key fold(y) * L + fold(x), and its components 2 key + c
        key = 2 * (fold[:, None] * L + fold[None, :]).reshape(npt, 1) + np.arange(2)
        free_flat = np.flatnonzero(self.free)
        self.phi_index = free_flat[np.argsort(key.ravel()[free_flat])]
        # phi_dof[node, comp]: column of G of the component, -1 where clamped
        phi_dof = np.full(2 * npt, -1, dtype=np.intp)
        phi_dof[self.phi_index] = np.arange(m)
        phi_dof = phi_dof.reshape(npt, 2)
        edges = np.arange(n)
        coeff = np.repeat(EDGE_COEFF, npt, axis=0)
        # per edge: the x, y components of head and tail, their column of G
        # (-1 where clamped) and their weights in g_e
        dof = np.concatenate([phi_dof[edge_heads(L).ravel()], phi_dof[edges % npt]], axis=1)
        weight = np.concatenate([coeff, -coeff], axis=1)
        weight[dof < 0] = 0.0
        keep = weight != 0.0
        rows = np.broadcast_to(edges[:, None], dof.shape)[keep]
        self.G = sp.csr_matrix((weight[keep], (rows, dof[keep])), shape=(n, m))
        self.G_t = self.G.T.tocsr()  # kept: a transpose per call costs 4x the product
        cols, indptr, schur_map = _quadratic_map(dof, weight, m)
        # S is symmetric: keep its lower triangle, i >= j.  S[i, j] sits at
        # row j, column i - j of a C-ordered (m, kd + 1) array, whose
        # transpose is LAPACK's lower band storage
        rows = np.repeat(np.arange(m), np.diff(indptr))
        lower = np.flatnonzero(rows >= cols)
        rows, cols = rows[lower], cols[lower]
        self.schur_map = schur_map[lower]
        self.kd = kd = int((rows - cols).max(initial=0))
        self.band_index = cols * (kd + 1) + rows - cols
        # A: a_e times the stencil of g_e - p_e, then h_e times that of p_e
        stencil = np.column_stack([edges, dof + n])
        ones = np.ones((n, 1))
        self.A_indices, self.A_indptr, self.A_map = _quadratic_map(
            np.concatenate([stencil, stencil]),
            np.block([[-ones, weight], [ones, np.zeros_like(weight)]]),
            self.total,
        )
        arrays = [self.clamped_nodes, self.free, self.phi_index, self.band_index]
        arrays += [self.A_indices, self.A_indptr]
        for mat in (self.G, self.G_t, self.schur_map, self.A_map):
            arrays += [mat.data, mat.indices, mat.indptr]
        for arr in arrays:
            arr.flags.writeable = False

    def operator(self, a: np.ndarray, h: np.ndarray) -> sp.csr_matrix:
        """A = [[diag(a + h), -diag(a) G], [-G.T diag(a), G.T diag(a) G]]."""
        data = self.A_map @ np.concatenate([a, h])
        return sp.csr_matrix((data, self.A_indices, self.A_indptr), shape=(self.total, self.total))

    def mapped_stress(self, B: np.ndarray, c: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``stress_vector`` read off the load map B (``assemble_load``): L^-2 (c v - B.T y).

        y is the flat state, v = ps_map F and c_alpha the sum of a over the
        type-alpha edges; equal to ``driver.stress_vector``, the edge-by-edge
        stress, up to round-off.  A stack of states, one per row of y, with
        one v per row, gives one stress per row.
        """
        return (c * v - y @ B) * float(self.L) ** (-D)

    def factor_schur(self, k: np.ndarray) -> np.ndarray:
        """Band Cholesky factor S(k) = G.T diag(k) G = U.T U (LAPACK dpbtrf).

        k holds one stiffness per edge.  The entries P k of S are scattered
        once into a C-ordered (m, kd + 1) array, whose Fortran-ordered
        transpose is LAPACK's lower band storage and is factored in place,
        S = L L.T.  Returns U = L.T in upper band storage, which
        ``solve_schur`` solves with.  Raises RuntimeError if S is not
        positive definite.
        """
        # the lower factorization: on OpenBLAS's default two threads the
        # upper one of a band narrower than 64 took 2-5x as long as on one
        # thread, the lower one no longer.  Solving with L made L=30 paths
        # about 10% slower than solving with U = L.T, so U is handed over in
        # upper storage, which holds L[j + d, j] at row kd - d, column j + d:
        # a view of the same memory with strides kd and kd + 1.  The memory
        # starts kd**2 zeros early, where the unreferenced corner of U reads.
        m, kd = self.m, self.kd
        memory = np.zeros(kd * kd + m * (kd + 1))
        memory[kd * kd + self.band_index] = csr_apply(self.schur_map, k)
        band = memory[kd * kd :].reshape(m, kd + 1).T
        _, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:
            raise RuntimeError(f"S is not positive definite (dpbtrf info {info})")
        step = memory.itemsize
        upper = np.ndarray((kd + 1, m), buffer=memory, strides=(kd * step, (kd + 1) * step))
        return np.array(upper, order="F")

    @staticmethod
    def solve_schur(c: np.ndarray, b: np.ndarray) -> np.ndarray:
        """x with S x = b, for the factor ``c`` of S that ``factor_schur`` made."""
        return lapack.dpbtrs(c, b, lower=0)[0]


@functools.lru_cache(maxsize=8)
def cell_structure(L: int) -> CellStructure:
    """The shared, read-only ``CellStructure`` of the clamped cell of side L."""
    return CellStructure(L)


def assemble_operator(real: Realization) -> sp.csr_matrix:
    """Sparse symmetric Hessian A with y.A y = sum_e a (g - p)^2 + h p^2."""
    return cell_structure(real.L).operator(real.a, real.h)


def assemble_load(real: Realization) -> np.ndarray:
    """The load map B = [E; -G.T E], (n + m) x K, with E_e,alpha = a_e on the edges e of type alpha.

    Load and stress are linear in v = ps_map F.  The load at macro strain F
    is f = B v, with f.y = sum_e a_e Fhat_e (p_e - g_e(phi)), which makes
    1/2 y.A y - f.y equal the stored energy up to the constant
    sum_e a_e/2 Fhat_e^2; at the flat state y the stress is
    L^-2 (c v - B.T y) (``CellStructure.mapped_stress``).  With spatially
    constant coefficients the displacement block of f telescopes to zero.
    Every increment, built by ``build_increment`` or by ``run_path``, takes
    its load from here, so this is where cells of side L < 2 are refused.
    """
    if real.L < 2:
        raise ValueError(f"increment problems need L >= 2, got L={real.L}")
    cell = cell_structure(real.L)
    E = np.zeros((cell.n, K))
    E[np.arange(cell.n), np.arange(cell.n) // real.L**2] = real.a
    return np.concatenate([E, -(cell.G_t @ E)])


@dataclass(frozen=True)
class IncrementProblem:
    """One time increment: Hessian, load, dissipation weights, previous state.

    ``a`` and ``h`` are the edge moduli ``A`` is made of on ``cell``; the
    solver's return map and Schur complement read them.  ``schur_factor``
    holds the solve with the solver's last band factor of a Schur complement
    (``CellStructure.factor_schur``), paired with the flowing set it
    eliminated ("last"), and the solver's terms of a, h and r ("edges").
    The increments of one path share it: the factor solves directly while
    the flowing set repeats and preconditions CG on other flowing sets, and
    the terms are formed once.  A problem made by ``build_increment``
    starts with an empty one.
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
    def scale(self) -> float:
        """Cell-average prefactor applied when reporting energies."""
        return float(self.cell.L) ** (-D)

    def as_vector(self, y) -> np.ndarray:
        """The flat state y = [p; phi] of an ``RveState`` or of an array of length n + m."""
        n, m = self.cell.n, self.cell.m
        if isinstance(y, RveState):
            if np.shape(y.p) != (n,) or np.shape(y.phi) != (m,):
                got = f"{np.shape(y.p)} and {np.shape(y.phi)}"
                raise ValueError(f"a state needs p of shape (n,) = ({n},) and phi of shape (m,) = ({m},), got {got}")
            return np.concatenate([y.p, y.phi])
        vec = np.asarray(y, dtype=float)
        if vec.shape != (n + m,):
            raise ValueError(f"a flat state needs n + m = {n + m} entries, got shape {vec.shape}")
        return vec


def build_increment(
    real: Realization,
    F,
    p_prev: np.ndarray | None = None,
    A: sp.csr_matrix | None = None,
) -> IncrementProblem:
    """Assemble the increment problem for macro strain F.

    ``p_prev`` holds the n plastic strains of the previous step (default 0),
    else ValueError.  Pass the operator of a previous increment as ``A`` to
    reuse it: the Hessian does not depend on F or the plastic history.
    """
    cell = cell_structure(real.L)
    p_prev = np.zeros(cell.n) if p_prev is None else np.asarray(p_prev, dtype=float)
    if p_prev.shape != (cell.n,):
        raise ValueError(f"p_prev needs the n = {cell.n} plastic strains, got shape {p_prev.shape}")
    return IncrementProblem(
        A=assemble_operator(real) if A is None else A,
        f=assemble_load(real) @ ps_map(F),
        r=real.sy,
        p_prev=p_prev,
        a=real.a,
        h=real.h,
        cell=cell,
    )


def increment_energy(prob: IncrementProblem, y, Ay: np.ndarray | None = None) -> float:
    """Cell-averaged increment functional value at state y.

    Returns scale * (1/2 y.A y - f.y + sum_e r_e |p_e - p_prev_e|); the
    offset to the full stored energy is independent of y.  A caller that
    has already formed the product A y passes it as ``Ay``.
    """
    yv = prob.as_vector(y)
    if Ay is None:
        Ay = csr_apply(prob.A, yv)
    smooth = 0.5 * yv @ Ay - prob.f @ yv
    rough = prob.r @ np.abs(yv[: prob.cell.n] - prob.p_prev)
    return prob.scale * (smooth + rough)
