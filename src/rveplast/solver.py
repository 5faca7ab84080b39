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
being (p*(phi + s dphi), phi + s dphi).

S is one sparse matrix-vector product onto a fixed pattern, and every factor
of S is a band Cholesky factor (LAPACK's ``dpbtrf``): the cell numbers its
displacements in a folded order that keeps S within a band of half-width
at most 4L + 5 (``CellStructure.factor_schur``).  The increments of a path
hold one factor of S, that of the last flowing set factored, and solve
directly with it while the flowing set repeats.  On a small cell (L < 16)
every new flowing set is factored.  On a large cell the factor of the last
set preconditions conjugate gradients on the new S instead: x.S(k)x =
sum_e k_e (G x)_e^2, and k_e/a_e is 1 or h_e/(a_e + h_e), so the factor of
any earlier S is a preconditioner of condition number at most
max (a + h)/h when one flowing set contains the other (its square in
general).  CG then needs about ten iterations, where a new factor costs the
time of 7 to 27 (L = 16 to 42).  Only when CG reaches its iteration cap or
breaks down, and on the first step of a path, is the new S of a large cell
factored; its factor replaces the old.

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
ends the solve.  That step leaves only the residual of its linear solve,
which CG brings below a tenth of the certificate's gate.  A line search
that finds no descent raises at once: the iteration is deterministic, and
repeating the step would repeat it.

A step that changes the pattern is not the last one, and the next step
builds its own S at the point it reaches, so it needs no tight solve (an
inexact Newton step: Eisenstat and Walker, SIAM J. Sci. Comput. 17, 1996,
here applied to the active set iteration of Hintermueller, Ito and Kunisch,
SIAM J. Optim. 13, 2002).  CG therefore asks once per solve, when its
residual first falls to ``_PATTERN_CHECK`` of the right-hand side, whether
the return map at phi + x has another side pattern than the current point;
if so, it returns x.  Otherwise it goes on, unchanged, to a tenth of the
gate, so the last step of an increment, which keeps the pattern, is still
solved that tightly.  An iterate of CG started at zero has b.x > 0, a
descent direction, so the line search takes an early step like any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .assembly import IncrementProblem, RveState, increment_energy

# backtracking step lengths: 1, 1/2, ... down to 2**-53, about 1e-16
_STEPS = [0.5**k for k in range(54)]
# CG replaces a new factor of S from this many displacement DOFs on (L >= 16);
# on smaller cells a band factor of S costs less than CG's ten or so
# iterations.  Median times of ``run_path`` on samples 1-3 (seed 20240, 15
# alternating rounds, one worker thread), a factor of every flowing set
# against CG, cyclic and monotonic, in ms [rounds of 15 CG was faster in].
# OpenBLAS's default threads (two on a 2-core host): L=14 83.3/99.9 and
# 99.9/111.3 [2, 0]; L=15 127.3/125.7 and 109.0/105.8 [9, 11]; L=16
# 123.7/119.0 and 121.0/104.8 [13, 14]; L=17 182.0/138.4 and 149.9/106.9
# [15, 15].  One BLAS thread: L=15 100.1/114.3 and 85.1/98.5 [3, 2]; L=16
# 130.4/138.4 and 87.2/108.1 [2, 1]; L=17 161.7/149.1 and 152.8/137.1
# [14, 14].  The threshold follows the default threads
_PCG_MIN_DOFS = 504
# CG iterations before the new S is factored instead: a band factor costs 13
# (L=16) to 27 (L=42) iterations on the default BLAS threads, 7 to 16 on one,
# and the most a solve was seen to take is 16
_PCG_MAX_ITER = 20
# CG asks once per solve, when max|r| first falls to this share of max|b|,
# whether its step so far changes the side pattern, and stops there if it
# does.  Monotonic paths at L=30 (seed 20240, samples 1-3) take 141 Newton
# steps and 1489 CG iterations without the check, 147 and 1024 with it at
# 1e-1, 142 and 1067 at 1e-2, and 141 and 1118 at 1e-3
_PATTERN_CHECK = 1e-2


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
    Only the displacements phi_0 of the warm start are read:
    ``energies[0]`` is ``increment_energy`` at (p*(phi_0), phi_0), and each
    later entry adds the difference-form energy change of one accepted step,
    so the sequence is nonincreasing and ``energy`` (its last entry) equals
    ``increment_energy`` of the returned state up to round-off.
    """

    iterations: int = 0
    energy: float = np.nan
    residual: float = np.nan
    load_norm: float = np.nan  # max |f|, the scale for residual tolerances
    converged: bool = False
    energies: list[float] = field(default_factory=list)
    factors: int = 0  # new band Cholesky factors of the Schur complement
    pcg_solves: int = 0  # Newton steps solved by CG, a failed attempt included
    pcg_iterations: int = 0  # CG iterations of those solves
    pattern_exits: int = 0  # CG solves stopped early on a changed side pattern
    halvings: int = 0  # trial steps the line search rejected and halved
    flowing: int = 0  # edges with p != p_prev at the returned point


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
    c = -(prob.a * (prob.cell.G @ phi)) - prob.f[: prob.cell.n]
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
    n = prob.cell.n
    delta = z - y
    smooth = g @ delta + 0.5 * delta @ (prob.A @ delta)
    dy = y[:n] - prob.p_prev
    dz = z[:n] - prob.p_prev
    side = np.sign(dy)
    rough = np.where(side == np.sign(dz), side * delta[:n], np.abs(dz) - np.abs(dy))
    return prob.scale * (smooth + prob.r @ rough)


def _pcg(
    S, precondition, b: np.ndarray, target: float, changes_pattern=None
) -> tuple[np.ndarray | None, int]:
    """Conjugate gradients on S x = b until max|b - S x| <= target.

    Returns x and the iterations taken, or None for x if the cap is reached
    or the iteration breaks down (d.S d <= 0 or a non-finite value).  If
    ``changes_pattern`` is given, it is called once, on the first iterate x
    short of the target with max|b - S x| <= _PATTERN_CHECK max|b|; if it
    returns True, that x is returned, and otherwise the iteration goes on
    unchanged.
    """
    check_level = _PATTERN_CHECK * np.abs(b).max(initial=0.0)
    x = np.zeros_like(b)
    r = b.copy()
    d = rz = None
    for iteration in range(_PCG_MAX_ITER + 1):
        residual = np.abs(r).max(initial=0.0)
        if residual <= target:
            return x, iteration
        if iteration == _PCG_MAX_ITER:
            break
        if changes_pattern is not None and residual <= check_level:
            if changes_pattern(x):
                return x, iteration
            changes_pattern = None
        # the preconditioner runs only past the exits: k iterations make k solves with it
        z = precondition(r)
        rz, rz_old = r @ z, rz
        d = z if d is None else z + (rz / rz_old) * d
        q = S @ d
        dq = d @ q
        if not (0.0 < dq < np.inf and np.isfinite(rz)):
            break
        alpha = rz / dq
        x += alpha * d
        r -= alpha * q
    return None, iteration


def _newton_direction(
    prob: IncrementProblem, y: np.ndarray, rhs: np.ndarray, target: float, report: SolveReport
) -> np.ndarray:
    """Solve S(k) d_phi = rhs on the flowing set of the point y.

    ``prob.schur_factor`` holds the solve with the path's last band factor
    of a Schur complement, keyed by the flowing set it eliminated ("last").
    On that set the factor solves directly.  On another set of a large cell it
    preconditions CG on the new S down to max|S d_phi - rhs| <= target, or
    until an iterate already changes the side pattern of y (an inexact
    step).  The new S is factored, and its factor replaces the old, only if
    there is no factor yet, the cell is small, or CG fails.
    """
    cell = prob.cell
    n = cell.n
    # an edge with r = 0 is never stuck: its return map is linear in phi
    flowing = (prob.r == 0.0) | (y[:n] != prob.p_prev)
    key = flowing.tobytes()
    cache = prob.schur_factor
    last_key, last_solve = cache.get("last", (None, None))
    if last_key == key:
        return last_solve(rhs)
    if last_solve is not None and rhs.size >= _PCG_MIN_DOFS:

        def changes_pattern(d_phi: np.ndarray) -> bool:
            side = np.sign(y[:n] - prob.p_prev)
            changed = not np.array_equal(
                np.sign(_return_map(prob, y[n:] + d_phi) - prob.p_prev), side
            )
            report.pattern_exits += changed
            return changed

        S = cell.schur(prob.a, prob.h, flowing)
        d_phi, iterations = _pcg(S, last_solve, rhs, target, changes_pattern)
        report.pcg_solves += 1
        report.pcg_iterations += iterations
        if d_phi is not None:
            return d_phi
    del last_solve
    cache.clear()
    report.factors += 1
    try:
        solve = partial(cell.solve_schur, cell.factor_schur(prob.a, prob.h, flowing))
    except RuntimeError as err:
        raise SolverError(f"Schur complement not factorizable: {err}", report) from err
    cache["last"] = (key, solve)
    return solve(rhs)


def _certificate(prob: IncrementProblem, y: np.ndarray, g: np.ndarray) -> float:
    """``optimality_residual`` at the vector y, given g = A y - f."""
    n = prob.cell.n
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

    The default start is the zero state.  The start changes the Newton
    steps taken, not the minimizer: ``run_path`` saves steps by starting at
    the previous time steps' displacements extrapolated along the strain
    path.  Only the warm start's displacements are read.  Raises
    SolverError with the diagnostic report if max_outer Newton steps do not
    pass the certificate or a line search finds no descent.
    """
    settings = settings or SolverSettings()
    cell = prob.cell
    n = cell.n
    phi = cell.free_phi(warm_start.phi) if warm_start is not None else np.zeros(cell.m)
    y = np.concatenate([_return_map(prob, phi), phi])

    report = SolveReport()
    report.load_norm = float(np.max(np.abs(prob.f), initial=0.0))
    residual_gate = settings.tol_residual * (1.0 + report.load_norm)
    Ay = prob.A @ y  # serves the first energy and the first certificate
    report.energies.append(increment_energy(prob, y, Ay))
    failure = None
    while True:
        g = Ay - prob.f
        report.residual = _certificate(prob, y, g)
        if report.residual <= residual_gate:
            break
        if report.iterations == settings.max_outer:
            failure = f"did not converge in {settings.max_outer} Newton steps"
            break
        report.iterations += 1
        d_phi = np.zeros(cell.m)
        if cell.m:
            d_phi = _newton_direction(prob, y, -g[n:], residual_gate / 10, report)

        for step in _STEPS:
            phi = y[n:] + step * d_phi
            z = np.concatenate([_return_map(prob, phi), phi])
            change = _energy_change(prob, y, z, g)
            if change <= 0.0:
                y = z
                report.energies.append(report.energies[-1] + change)
                break
            report.halvings += 1
        else:
            failure = f"found no descent at Newton step {report.iterations}"
            break
        Ay = prob.A @ y

    report.energy = report.energies[-1]
    report.flowing = int(np.count_nonzero(y[:n] != prob.p_prev))
    report.converged = failure is None
    if failure is not None:
        raise SolverError(f"increment solve {failure} (residual {report.residual:.3e})", report)
    return cell.unpack(y), report
