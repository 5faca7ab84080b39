"""Minimization of the nonsmooth convex increment functional.

A plastic strain couples only with itself and the displacements of its own
edge (``assembly``), so at fixed displacements phi each plastic strain
minimizes its own scalar problem in closed form: p*(phi) is the return map
of the edge strain.  An edge is stuck while its driving force stays within
its dissipation weight; then p*_e = p_prev_e, bitwise.  The reduced energy
E(phi) = J(p*(phi), phi) is convex and C^1 with a piecewise-constant
Hessian, the Schur complement S(k) = G.T diag(k) G with k = a h / (a + h)
on the flowing edges and k = a on the stuck ones.  The solver runs
semismooth Newton on E (the primal-dual active set method): each step
solves S(k) dphi = -grad E(phi) and backtracks along phi, every trial point
being (p*(phi + s dphi), phi + s dphi).  S is one sparse matrix-vector
product onto a fixed pattern; only its factor is made during the solve, and
kept while the flowing set repeats.

A step is accepted only if the energy change from the current point is not
positive.  The change is evaluated in difference form, from the step
itself, never as the difference of two energy values: near the minimizer
the decrease of a step can lie far below the round-off of the energy's
separate terms, and comparing two evaluated energies then rejects every
step and stalls the solver.  The recorded energy sequence starts at the
energy of (p*(phi_0), phi_0) and adds each accepted change, so it is
nonincreasing by construction.

The solve has one exit: a point whose optimality residual of the full
problem is within tol_residual (1 + max|f|).  The residual is read from
g = A y - f, which the Newton step at the same point needs anyway, so each
step costs no extra product.  On one side pattern (which edges are stuck,
and on which side of p_prev each flowing edge lies) p*(phi) is affine in
phi and E is quadratic with the Hessian S(k) of the step, so a full step
that keeps the pattern lands on the minimizer and the next certificate
ends the solve.  A line search that finds no descent raises at once: the
iteration is deterministic, and repeating the step would repeat it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import IncrementProblem, RveState, increment_energy

# backtracking step lengths: 1, 1/2, ... down to 2**-53, about 1e-16
_STEPS = [0.5**k for k in range(54)]


@dataclass(frozen=True)
class SolverSettings:
    tol_residual: float = 1e-9  # optimality residual, relative to 1 + max|f|
    max_outer: int = 500  # Newton steps

    def __post_init__(self):
        if self.tol_residual <= 0:
            raise ValueError("tol_residual must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


@dataclass
class SolveReport:
    """Diagnostics of one increment solve.

    ``residual`` is the optimality residual of the returned point (of the
    last point reached, if the solve failed).  ``iterations`` counts the
    Newton steps taken: 0 if the warm start already passes the certificate.
    Only the displacements phi_0 of the warm start are read: ``energies[0]`` is ``increment_energy`` at
    (p*(phi_0), phi_0), and each later entry adds the difference-form energy
    change of one accepted step, so the sequence is nonincreasing and
    ``energy`` (its last entry) equals ``increment_energy`` of the returned
    state up to round-off.
    """

    iterations: int = 0
    energy: float = np.nan
    residual: float = np.nan
    load_norm: float = np.nan  # max |f|, the scale for residual tolerances
    converged: bool = False
    energies: list[float] = field(default_factory=list)


class SolverError(RuntimeError):
    """Increment solve did not converge; carries the diagnostic report."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


def _return_map(prob: IncrementProblem, phi: np.ndarray) -> np.ndarray:
    """p*(phi): the plastic strains that minimize the increment at fixed phi.

    Edge by edge, d_e p_e + c_e is the driving force with d = a + h and
    c = -a G phi - f_p; a stuck edge (|d_e p_prev_e + c_e| <= r_e) returns
    p_prev_e itself.
    """
    d = prob.a + prob.h
    c = -(prob.a * (prob.cell.G @ phi)) - prob.f[: prob.dofmap.n]
    g = d * prob.p_prev + c
    return np.where(np.abs(g) <= prob.r, prob.p_prev, (np.copysign(prob.r, g) - c) / d)


def _energy_change(prob: IncrementProblem, y: np.ndarray, z: np.ndarray, g: np.ndarray) -> float:
    """Cell-averaged increment_energy(z) - increment_energy(y), without cancellation.

    With delta = z - y and g = A y - f, the smooth part changes by exactly
    g.delta + 1/2 delta.A delta.  An edge whose plastic strain stays on one
    side of p_prev changes its dissipation by sign(y_e - p_prev_e) delta_e;
    only edges that cross or leave the kink take the difference of the
    absolute values.
    """
    n = prob.dofmap.n
    delta = z - y
    smooth = g @ delta + 0.5 * delta @ (prob.A @ delta)
    dy = y[:n] - prob.p_prev
    dz = z[:n] - prob.p_prev
    side = np.sign(dy)
    rough = np.where(side == np.sign(dz), side * delta[:n], np.abs(dz) - np.abs(dy))
    return prob.scale * (smooth + prob.r @ rough)


def _schur_factor(prob: IncrementProblem, flowing: np.ndarray) -> spla.SuperLU:
    """LU of S(k) = G.T diag(k) G for the flowing plastic DOFs ``flowing``.

    S depends on the flowing set alone, so the last factor is reused for as
    long as the set repeats (across Newton steps and the increments that
    share ``prob.schur_factor``).
    """
    key = flowing.tobytes()
    cache = prob.schur_factor
    if cache.get("last", (None,))[0] == key:
        return cache["last"][1]
    # free the old factor before making the new one: holding both fragments
    # the heap and raised the peak RSS of one L=30 path run from 68 to 80 MB
    cache.clear()
    lu = spla.splu(
        prob.cell.schur(prob.a, prob.h, flowing),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    cache["last"] = (key, lu)
    return lu


def _certificate(prob: IncrementProblem, y: np.ndarray, g: np.ndarray) -> float:
    """``optimality_residual`` at the vector y, given g = A y - f."""
    n = prob.dofmap.n
    dp = y[:n] - prob.p_prev
    viol_p = np.where(
        dp == 0.0,
        np.maximum(np.abs(g[:n]) - prob.r, 0.0),
        np.abs(g[:n] + prob.r * np.sign(dp)),
    )
    return float(max(viol_p.max(initial=0.0), np.abs(g[n:]).max(initial=0.0)))


def optimality_residual(prob: IncrementProblem, y) -> float:
    """Max violation of the first-order conditions of the increment.

    Displacement DOFs: |(A y - f)_i|.  Plastic DOFs at the kink:
    excess of |(A y - f)_i| over the dissipation weight.  Plastic DOFs
    off the kink: |(A y - f)_i + r_i sign(p_i - p_prev_i)|.
    """
    yv = prob.as_vector(y)
    return _certificate(prob, yv, prob.A @ yv - prob.f)


def solve_increment(
    prob: IncrementProblem,
    warm_start: RveState | None = None,
    settings: SolverSettings | None = None,
) -> tuple[RveState, SolveReport]:
    """Minimize the increment functional until the optimality certificate holds.

    Warm starting with the previous time step's state is the intended
    use; the default start is the zero state.  Only the warm start's
    displacements are read.  Raises SolverError with the diagnostic report
    if max_outer Newton steps do not pass the certificate or a line search
    finds no descent.
    """
    settings = settings or SolverSettings()
    dofmap = prob.dofmap
    n = dofmap.n
    phi = dofmap.pack(warm_start)[n:] if warm_start is not None else np.zeros(dofmap.m)
    y = np.concatenate([_return_map(prob, phi), phi])
    smooth = prob.r == 0.0  # never stuck: the return map is linear in phi

    report = SolveReport()
    report.load_norm = float(np.max(np.abs(prob.f), initial=0.0))
    residual_gate = settings.tol_residual * (1.0 + report.load_norm)
    report.energies.append(increment_energy(prob, y))
    failure = None
    while True:
        g = prob.A @ y - prob.f
        report.residual = _certificate(prob, y, g)
        if report.residual <= residual_gate:
            break
        if report.iterations == settings.max_outer:
            failure = f"did not converge in {settings.max_outer} Newton steps"
            break
        report.iterations += 1
        d_phi = np.zeros(dofmap.m)
        if dofmap.m:
            # no local name for the factor: the cache frees it before the next
            # one is made, which keeps the peak RSS down
            try:
                d_phi = _schur_factor(prob, smooth | (y[:n] != prob.p_prev)).solve(-g[n:])
            except RuntimeError as err:
                raise SolverError(f"Schur complement not factorizable: {err}", report) from err

        for step in _STEPS:
            phi = y[n:] + step * d_phi
            z = np.concatenate([_return_map(prob, phi), phi])
            change = _energy_change(prob, y, z, g)
            if change <= 0.0:
                y = z
                report.energies.append(report.energies[-1] + change)
                break
        else:
            failure = f"found no descent at Newton step {report.iterations}"
            break

    report.energy = report.energies[-1]
    report.converged = failure is None
    if failure is not None:
        raise SolverError(f"increment solve {failure} (residual {report.residual:.3e})", report)
    return dofmap.unpack(y), report
