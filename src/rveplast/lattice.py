"""Periodic triangular lattice: geometry, discrete derivatives, strain conversion.

The cell is the integer box [0, L) x [0, L) with periodic wraparound.  Nodes
are indexed row-major (x fastest), edges are stored tail-centric: every node
is the tail of exactly one edge per type, so edge (node, alpha) gets the
index alpha * L**2 + node.  The three edge types of the triangular lattice
are horizontal (1,0), vertical (0,1) and diagonal (1,1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

D = 2  # spatial dimension
K = 3  # number of edge types

# the generating edge directions e_alpha of the triangular lattice
EDGE_TYPES: tuple[tuple[int, int], ...] = ((1, 0), (0, 1), (1, 1))

# unit(alpha) / length(alpha) = e_alpha / |e_alpha|^2: per-component weights of
# the projected edge derivative, grad_s u(e) = EDGE_COEFF[alpha] . (u(head) - u(tail))
EDGE_COEFF = np.array([np.divide(e, np.dot(e, e)) for e in EDGE_TYPES])


@dataclass(frozen=True)
class SymTensor2:
    """Symmetric 2x2 tensor stored as its three independent entries."""

    a11: float
    a12: float
    a22: float

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]])


def edge_heads(L: int) -> np.ndarray:
    """Head node of every edge (tail, alpha) of the cell of side L, shape (K, L*L)."""
    if L < 1:
        raise ValueError(f"lattice side must be >= 1, got {L}")
    x, y = np.tile(np.arange(L), L), np.repeat(np.arange(L), L)
    return np.array([((y + ey) % L) * L + (x + ex) % L for ex, ey in EDGE_TYPES])


def wrap_node(xy, L: int) -> int:
    """Row-major index of a node position wrapped into the periodic cell."""
    if L < 1:
        raise ValueError(f"lattice side must be >= 1, got {L}")
    x, y = xy
    return (int(y) % L) * L + (int(x) % L)


def ps_map(F) -> np.ndarray:
    """Tensor-to-vector conversion: longitudinal strain per edge type.

    Accepts a SymTensor2 or any 2x2 array-like; antisymmetric parts are
    annihilated.  For the triangular lattice the result is
    (F11, F22, (F11 + 2 F12 + F22) / 2).  A 2 x 2 x N stack of tensors maps
    entry by entry to a 3 x N array, column j bitwise ps_map of tensor j.
    """
    if isinstance(F, SymTensor2):
        m = F.as_matrix()
    else:
        m = np.asarray(F, dtype=float)
    return np.array(
        [
            m[0, 0],
            m[1, 1],
            0.5 * (m[0, 0] + m[0, 1] + m[1, 0] + m[1, 1]),
        ]
    )

