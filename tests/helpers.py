"""Helpers that only the tests call.

Node-major displacement fields for the edge-by-edge oracles.  The library
stores a state's displacements only as the m free components in DOF order
(``RveState.phi``, the tail of y = [p; phi]).  The oracles read a field as
one 2-vector per node, shape (L**2, 2); ``node_major`` and ``dof_order``
convert between the two through ``CellStructure.phi_index``.

The scalar edge-by-edge oracle ``projected_edge_derivative``, the
adjoint of ``ps_map`` (``ps_adjoint``) and the difference quotient of
a stress series against the loading (``numerical_slope``), which no study
of the library needs.

A Prandtl-Ishlinskii oracle (``prandtl_ishlinskii``) that rebuilds the
stress along a uniaxial path from the virgin curve alone, through the
memory sequence of turning points, without the path history of
``run_path``.
"""

import numpy as np

from rveplast.lattice import EDGE_COEFF, EDGE_TYPES, K, SymTensor2, edge_heads, wrap_node


def node_major(cell, phi):
    """The (L**2, 2) field of the free displacements phi in DOF order; zero where clamped."""
    field = np.zeros(cell.free.size)
    field[cell.phi_index] = phi
    return field.reshape(cell.free.shape)


def dof_order(cell, field):
    """The free components of a node-major (L**2, 2) field, in DOF order."""
    return np.asarray(field, dtype=float).reshape(-1)[cell.phi_index]


def projected_edge_derivative(field, edge, L: int) -> float:
    """Longitudinal strain of one edge of a node-wise displacement field.

    ``field`` holds one 2-vector per node (shape (L*L, 2)), ``edge`` is the
    pair (tail node index, type index alpha in {0,1,2}).  Returns
    unit(alpha) . (field[head] - field[tail]) / |e_alpha| with the head
    taken periodically.  Vanishes on constant fields and equals
    unit . F unit for the linear field x -> F x.
    """
    field = np.asarray(field, dtype=float)
    tail, alpha = edge
    x, y = tail % L, tail // L
    ex, ey = EDGE_TYPES[alpha]
    head = wrap_node((x + ex, y + ey), L)
    return float(EDGE_COEFF[alpha] @ (field[head] - field[tail]))


def edge_strains(field, L):
    """Projected edge derivative of a node-major field on all edges at once, shape (K, L*L)."""
    field = np.asarray(field, dtype=float)
    heads = edge_heads(L)
    return np.array([(field[heads[alpha]] - field) @ EDGE_COEFF[alpha] for alpha in range(K)])


def ps_adjoint(s) -> SymTensor2:
    """Adjoint of ps_map: maps a per-type vector back to a symmetric tensor.

    Satisfies s . ps_map(F) == ps_adjoint(s) : F for all symmetric F.
    """
    s = np.asarray(s, dtype=float)
    return SymTensor2(s[0] + 0.5 * s[2], 0.5 * s[2], s[1] + 0.5 * s[2])


def numerical_slope(series, driver) -> np.ndarray:
    """Difference quotient of a time series against the loading component.

    Both arguments are sequences of (t, value) pairs on the same time
    grid; the driver values (the loading) must be strictly increasing.
    Returns (v_k - v_{k-1}) / (F_k - F_{k-1}) for k = 1..N.
    """
    series = np.asarray(series, dtype=float)
    driver = np.asarray(driver, dtype=float)
    if series.shape != driver.shape or series.ndim != 2 or series.shape[1] != 2:
        raise ValueError("need matching (t, value) pair sequences")
    if not np.array_equal(series[:, 0], driver[:, 0]):
        raise ValueError("series and driver are on different time grids")
    dF = np.diff(driver[:, 1])
    if np.any(dF <= 0):
        raise ValueError("the loading component must be strictly increasing")
    return np.diff(series[:, 1]) / dF


def prandtl_ishlinskii(virgin, F):
    """The stress of a Prandtl-Ishlinskii operator along the inputs F, from its virgin curve.

    ``virgin(x)`` is the stress of one increment from zero strain to the
    input x (an odd function), and F[0] is the first input, reached on the
    virgin curve.  The virgin curve holds wherever |F| reaches the largest
    earlier |F|.  A reversal at (F_r, s_r) starts the branch
    s_r + 2 virgin((F - F_r) / 2) (the Masing rule), and the turning points
    form a stack.  A branch that reaches the turning point before its own
    start closes that minor loop, both points leave the stack (wiping-out),
    and the branch before them continues.  Returns one stress per input.
    """
    turns = []  # the turning points (F_r, s_r) of the branches still open
    largest = 0.0
    direction = 0.0
    stresses = []
    for l, x in enumerate(F):
        if l > 0 and x != F[l - 1]:
            step = np.sign(x - F[l - 1])
            if direction and step != direction:
                turns.append((F[l - 1], stresses[-1]))
            direction = step
        while len(turns) >= 2 and direction * (x - turns[-2][0]) >= 0.0:
            del turns[-2:]
        if abs(x) >= largest:
            turns.clear()
            largest = abs(x)
        if turns:
            F_r, s_r = turns[-1]
            stresses.append(s_r + 2.0 * virgin((x - F_r) / 2.0))
        else:
            stresses.append(virgin(x))
    return stresses
