"""Node-major displacement fields for the tests' edge-by-edge oracles.

The library stores a state's displacements only as the m free components in
DOF order (``RveState.phi``, the tail of y = [p; phi]).  The oracles read a
field as one 2-vector per node, shape (L**2, 2); ``node_major`` and
``dof_order`` convert between the two through ``CellStructure.phi_index``.
"""

import numpy as np

from rveplast.lattice import EDGE_COEFF, K, edge_heads


def node_major(cell, phi):
    """The (L**2, 2) field of the free displacements phi in DOF order; zero where clamped."""
    field = np.zeros(cell.free.size)
    field[cell.phi_index] = phi
    return field.reshape(cell.free.shape)


def dof_order(cell, field):
    """The free components of a node-major (L**2, 2) field, in DOF order."""
    return np.asarray(field, dtype=float).reshape(-1)[cell.phi_index]


def edge_strains(field, L):
    """Projected edge derivative of a node-major field on all edges at once, shape (K, L*L)."""
    field = np.asarray(field, dtype=float)
    heads = edge_heads(L)
    return np.array([(field[heads[alpha]] - field) @ EDGE_COEFF[alpha] for alpha in range(K)])
