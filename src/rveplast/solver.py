"""Minimization of the nonsmooth convex increment functional.

The solver alternates an exact nonlinear Gauss-Seidel sweep (scalar prox
per plastic DOF, 1-D quadratic solve per displacement DOF) with a damped
Newton correction restricted to the currently smooth DOFs: the TNNMG
structure with the multigrid step replaced by an exact sparse direct
solve, which is cheap at the cell sizes handled here.  Plastic DOFs whose
value equals the previous plastic strain exactly are "at the kink" and
excluded from the correction; the correction direction is truncated so no
plastic DOF crosses its kink.

Both steps use that the plastic block of the Hessian is diagonal
(``OperatorBlocks``): the sweep updates all plastic DOFs at once and the
displacement DOFs by one forward substitution, and the Newton correction
eliminates the active plastic DOFs and factors the Schur complement on
the displacements.  The Hessian does not change along a path, so its
split is made once per path run: the lower triangle of the displacement
block is factored there (the forward substitution is a solve with that
factor), and the Schur complement of any active set is one sparse
matrix-vector product onto a fixed sparsity pattern.  Only its factor is
made during the solve, and kept while the active set repeats.

Every step (outer iteration, line-search trial, certificate sweep) is
accepted only if the energy change from the current point is not positive.
The change is evaluated in difference form, from the step itself, never as
the difference of two energy values: near the minimizer the decrease of a
step can lie far below the round-off of the energy's separate terms, and
comparing two evaluated energies then rejects every step and stalls the
solver.  The recorded energy sequence starts at the energy of the start
point and adds each accepted change, so it is nonincreasing by
construction.  Convergence requires a small relative step, energy
stagnation, and a certificate sweep that moves no DOF by more than the
step tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import IncrementProblem, OperatorBlocks, RveState, increment_energy

_LINESEARCH_FLOOR = 1e-16


@dataclass(frozen=True)
class SolverSettings:
    tol_increment: float = 1e-10  # relative step norm
    tol_energy: float = 1e-12  # relative energy stagnation
    tol_residual: float = 1e-9  # optimality residual, relative to 1 + max|f|
    max_outer: int = 500
    kink_epsilon: float = 0.0  # plastic DOF counts as stuck iff |p - p_prev| <= this

    def __post_init__(self):
        if self.tol_increment <= 0 or self.tol_energy <= 0 or self.tol_residual <= 0:
            raise ValueError("tolerances must be positive")
        if self.kink_epsilon < 0:
            raise ValueError("kink_epsilon must be >= 0")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


@dataclass
class SolveReport:
    """Diagnostics of one increment solve.

    ``energies[0]`` is ``increment_energy`` of the start point; each later
    entry adds the difference-form energy change of one accepted step, so
    the sequence is nonincreasing and ``energy`` (its last entry) equals
    ``increment_energy`` of the returned state up to round-off.
    """

    iterations: int = 0
    energy: float = np.nan
    residual: float = np.nan
    load_norm: float = np.nan  # max |f|, the scale for residual tolerances
    converged: bool = False
    energies: list[float] = field(default_factory=list)
    newton_fallbacks: int = 0


class SolverError(RuntimeError):
    """Increment solve did not converge; carries the diagnostic report."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


def scalar_prox(c2: float, c1: float, w: float, anchor: float) -> float:
    """Minimizer of x -> c2/2 x^2 + c1 x + w |x - anchor|.

    Soft-thresholds the unconstrained minimizer -c1/c2 toward the anchor
    by w/c2; returns the anchor itself (bitwise) when the subgradient
    interval absorbs the slope there.
    """
    if c2 <= 0:
        raise ValueError(f"curvature must be positive, got {c2}")
    g = c2 * anchor + c1
    if abs(g) <= w:
        return anchor
    if g > w:
        return (w - c1) / c2
    return (-w - c1) / c2


def _sweep(prob: IncrementProblem, y: np.ndarray) -> float:
    """One ascending Gauss-Seidel sweep in place; returns max |change|.

    Plastic DOFs (index < n) minimize their scalar nonsmooth problem
    exactly, displacement DOFs solve their 1-D quadratic exactly.  The
    plastic block of A is diagonal, so the plastic DOFs do not see each
    other's updates and are visited at once; the displacement DOFs, visited
    in ascending order after them, amount to one forward substitution with
    the lower triangle of the displacement block.
    """
    blocks = prob.operator_blocks()
    n = prob.dofmap.n
    p, phi = y[:n], y[n:]
    c1 = blocks.coupling_t @ phi - prob.f[:n]
    d = blocks.diag
    g = d * prob.p_prev + c1
    p_new = np.where(
        np.abs(g) <= prob.r,
        prob.p_prev,
        np.where(g > prob.r, (prob.r - c1) / d, (-prob.r - c1) / d),
    )
    change = float(np.max(np.abs(p_new - p), initial=0.0))
    p[:] = p_new
    if phi.size:
        rhs = prob.f[n:] - blocks.coupling @ p - blocks.disp_upper @ phi
        phi_new = blocks.disp_lower_lu.solve(rhs)
        change = max(change, float(np.max(np.abs(phi_new - phi))))
        phi[:] = phi_new
    return change


def gauss_seidel_sweep(prob: IncrementProblem, y):
    """Visit every free DOF once in ascending order, minimizing it exactly.

    Accepts and returns either an RveState or a flat DOF vector (the
    vector is updated in place).
    """
    if isinstance(y, RveState):
        yv = prob.dofmap.pack(y)
        _sweep(prob, yv)
        return prob.dofmap.unpack(yv)
    yv = np.asarray(y, dtype=float)
    _sweep(prob, yv)
    return yv


def _energy_change(
    prob: IncrementProblem, y: np.ndarray, z: np.ndarray, g: np.ndarray | None = None
) -> float:
    """Cell-averaged increment_energy(z) - increment_energy(y), without cancellation.

    With delta = z - y and g = A y - f (pass it when already known), the
    smooth part changes by exactly g.delta + 1/2 delta.A delta.  An edge whose
    plastic strain stays on one side of p_prev changes its dissipation by
    sign(y_e - p_prev_e) delta_e; only edges that cross or leave the kink
    take the difference of the absolute values.
    """
    n = prob.dofmap.n
    delta = z - y
    if g is None:
        g = prob.A @ y - prob.f
    smooth = g @ delta + 0.5 * delta @ (prob.A @ delta)
    dy = y[:n] - prob.p_prev
    dz = z[:n] - prob.p_prev
    side = np.sign(dy)
    rough = np.where(side == np.sign(dz), side * delta[:n], np.abs(dz) - np.abs(dy))
    return prob.scale * (smooth + prob.r @ rough)


def _schur_factor(blocks: OperatorBlocks, active_p: np.ndarray, w: np.ndarray) -> spla.SuperLU:
    """LU of S = Q - C diag(w) C.T for the active plastic DOFs ``active_p``.

    S depends on the active set alone, so the last factor is reused for as
    long as the active set repeats (across outer iterations and increments).
    """
    key = active_p.tobytes()
    cache = blocks.schur_factor
    if cache.get("last", (None,))[0] == key:
        return cache["last"][1]
    # free the old factor before making the new one: holding both fragments
    # the heap and raised the peak RSS of one L=30 path run from 68 to 80 MB
    cache.clear()
    lu = spla.splu(
        blocks.schur(w),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    cache["last"] = (key, lu)
    return lu


def _newton_correction(
    prob: IncrementProblem, y: np.ndarray, settings: SolverSettings
) -> tuple[np.ndarray, bool]:
    """Damped exact Newton step on the smooth active set.

    Returns (possibly unchanged y, fallback flag); the energy at the
    returned point never exceeds the energy at the input point.
    """
    n = prob.dofmap.n
    dp = y[:n] - prob.p_prev
    # a plastic DOF is nonsmooth only with positive dissipation weight
    kinked = prob.r > 0.0
    active_p = ~kinked | (np.abs(dp) > settings.kink_epsilon)
    if not (active_p.any() or prob.dofmap.m):
        return y, False

    g0 = prob.A @ y - prob.f
    grad = g0.copy()
    sub = active_p & kinked
    grad[:n][sub] += prob.r[sub] * np.sign(dp[sub])
    # Eliminate the active plastic DOFs (their block is diagonal) and solve
    # the Schur complement on the displacements, which is symmetric positive
    # definite: S = Q - C W C.T with W the inverse diagonal on active DOFs.
    blocks = prob.operator_blocks()
    w = np.where(active_p, 1.0 / blocks.diag, 0.0)
    wg = w * grad[:n]
    if prob.dofmap.m:
        try:
            lu = _schur_factor(blocks, active_p, w)
        except RuntimeError:
            return y, True
        d_phi = lu.solve(blocks.coupling @ wg - grad[n:])
    else:
        d_phi = np.zeros(0)
    d_p = -(wg + w * (blocks.coupling_t @ d_phi))
    d = np.concatenate([d_p, d_phi])
    if not np.all(np.isfinite(d)):
        return y, True

    # truncate kinked DOFs that would cross, and guard against roundoff
    # carrying a truncated DOF an ulp past the kink
    idx = np.flatnonzero(sub)
    crossing = (dp[idx] + d[idx]) * dp[idx] < 0.0
    d[idx[crossing]] = -dp[idx[crossing]]

    step = 1.0
    while step >= _LINESEARCH_FLOOR:
        y_trial = y + step * d
        flipped = idx[(y_trial[idx] - prob.p_prev[idx]) * dp[idx] < 0.0]
        y_trial[flipped] = prob.p_prev[flipped]
        if _energy_change(prob, y, y_trial, g0) < 0.0:
            return y_trial, False
        step *= 0.5
    return y, False


def truncated_newton_correction(prob: IncrementProblem, y, settings: SolverSettings | None = None):
    """Public wrapper around the Newton correction; preserves input type."""
    settings = settings or SolverSettings()
    if isinstance(y, RveState):
        yv, _ = _newton_correction(prob, prob.dofmap.pack(y), settings)
        return prob.dofmap.unpack(yv)
    yv, _ = _newton_correction(prob, np.asarray(y, dtype=float), settings)
    return yv


def optimality_residual(prob: IncrementProblem, y) -> float:
    """Max violation of the first-order conditions of the increment.

    Displacement DOFs: |(A y - f)_i|.  Plastic DOFs at the kink:
    excess of |(A y - f)_i| over the dissipation weight.  Plastic DOFs
    off the kink: |(A y - f)_i + r_i sign(p_i - p_prev_i)|.
    """
    yv = prob.as_vector(y)
    n = prob.dofmap.n
    g = prob.A @ yv - prob.f
    dp = yv[:n] - prob.p_prev
    at_kink = dp == 0.0
    viol_p = np.where(
        at_kink,
        np.maximum(np.abs(g[:n]) - prob.r, 0.0),
        np.abs(g[:n] + prob.r * np.sign(dp)),
    )
    viol_phi = np.abs(g[n:]) if prob.dofmap.m else np.zeros(1)
    return float(max(viol_p.max(initial=0.0), viol_phi.max(initial=0.0)))


def solve_increment(
    prob: IncrementProblem,
    warm_start: RveState | None = None,
    settings: SolverSettings | None = None,
) -> tuple[RveState, SolveReport]:
    """Minimize the increment functional to the configured tolerances.

    Warm starting with the previous time step's state is the intended
    use; the default start is the zero state.  Raises SolverError with
    the diagnostic report if max_outer iterations do not converge.
    """
    settings = settings or SolverSettings()
    dofmap = prob.dofmap
    y = dofmap.pack(warm_start) if warm_start is not None else np.zeros(dofmap.total)

    report = SolveReport()
    report.load_norm = float(np.max(np.abs(prob.f), initial=0.0))
    residual_gate = settings.tol_residual * (1.0 + report.load_norm)
    report.energies.append(increment_energy(prob, y))
    for it in range(1, settings.max_outer + 1):
        report.iterations = it
        y_try = y.copy()
        _sweep(prob, y_try)
        y_try, fallback = _newton_correction(prob, y_try, settings)
        report.newton_fallbacks += int(fallback)
        change = _energy_change(prob, y, y_try)

        if change <= 0.0:
            step_norm = float(np.max(np.abs(y_try - y), initial=0.0))
            drop = -change
            y = y_try
            report.energies.append(report.energies[-1] + change)
        else:
            # the step raises the energy: keep the old point
            step_norm = 0.0
            drop = 0.0

        scale_y = 1.0 + float(np.max(np.abs(y), initial=0.0))
        small_step = step_norm <= settings.tol_increment * scale_y
        stagnated = drop <= settings.tol_energy * (1.0 + abs(report.energies[-1]))
        if small_step and stagnated:
            y_cert = y.copy()
            cert_change = _sweep(prob, y_cert)
            change = _energy_change(prob, y, y_cert)
            if change <= 0.0:
                y = y_cert
                report.energies.append(report.energies[-1] + change)
            if (
                cert_change <= settings.tol_increment * scale_y
                and optimality_residual(prob, y) <= residual_gate
            ):
                report.converged = True
                break

    report.energy = report.energies[-1]
    report.residual = optimality_residual(prob, y)
    if not report.converged:
        raise SolverError(
            f"increment solve did not converge in {settings.max_outer} iterations "
            f"(residual {report.residual:.3e})",
            report,
        )
    return dofmap.unpack(y), report
