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

S(k) is never assembled as a sparse matrix.  It is either factored, a
band Cholesky factor (LAPACK's ``dpbtrf``) filled from k, since the cell
numbers its displacements in a folded order that keeps S within a band of
half-width at most 4L + 5 (``CellStructure.factor_schur``), or applied by
CG as G.T (k G x), a product with the cell's G and one with its stored
transpose, made like every product of a solve by ``assembly.csr_apply``.
The increments of a path hold one factor of S, that of the last flowing
set factored, and solve directly with it while the flowing set repeats.
On a small cell (L < 16) every new flowing set is factored.  On a large
cell the factor of the last set preconditions conjugate gradients on the
new S instead: x.S(k)x = sum_e k_e (G x)_e^2, and k_e/a_e is 1 or
h_e/(a_e + h_e), so the factor of any earlier S is a preconditioner of
condition number at most max (a + h)/h when one flowing set contains the
other (its square in general).  CG then needs about ten iterations, where
a new factor costs the time of 7 to 27 (L = 16 to 42).  Only when CG
reaches its iteration cap or breaks down, and on the first step of a path,
is the new S of a large cell factored; its factor replaces the old.

A step is accepted only if the energy change from the current point is not
positive.  The change is evaluated in difference form, from the step
and the gradients at its two ends, never as the difference of two energy
values: near the minimizer the decrease of a step can lie far below the
round-off of the energy's separate terms, and comparing two evaluated
energies then rejects every step and stalls the solver.  The smooth part
of J is quadratic, so from y to z it changes by exactly
1/2 (z - y).(g_y + g_z) with g = A y - f, the trapezoid rule; the
dissipation changes edge by edge.  The recorded energy sequence starts at the
energy of (p*(phi_0), phi_0) and adds each accepted change, so it is
nonincreasing by construction.

The solve has one exit: a point whose optimality residual of the full
problem is within tol_residual (1 + max|f|).  The residual is read from
g = A y - f, which the energy changes from and to the point and the Newton
step at it need anyway.  On one side pattern (which edges are stuck,
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

Each point the solve reaches, the warm start and every trial point of the
line search, is evaluated once (``_Point``): its return map, then
g = A y - f, its one product with A, and p - p_prev and its sign, which
its certificate, its flowing set, its Newton right-hand side and the
energy changes from and to it share.  A solve thus forms
1 + (Newton steps) + (halvings) products with A.  The terms of the return
map and of k that depend on the edge values alone, a + h, -r,
a h / (a + h) and the edges with r = 0, are formed once per path and kept
with its Schur factor; (a + h) p_prev - f_p is formed once per increment,
and k only on a Newton step whose flowing set is not the one factored
last.  The certificate reads g of the point it certifies, formed afresh
from A y there, not carried forward from point to point by adding the A
delta of each step: such an update would add each step's round-off to the
residual that decides the exit, and the certificate would check the steps
taken rather than the point returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import daxpy

from .assembly import IncrementProblem, csr_apply, increment_energy
from .randfield import ConfigError

# backtracking step lengths: 1, 1/2, ... down to 2**-53, about 1e-16
_STEPS = [0.5**k for k in range(54)]
# CG replaces a new factor of S from this many displacement DOFs on (L >= 16);
# on smaller cells a band factor of S costs less than CG's ten or so
# iterations.  Median times of ``run_path`` on samples 1-3 (seed 20240, 15
# alternating rounds, in one process), a factor of every flowing set
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
        if not (0.0 < self.tol_residual < np.inf):
            raise ConfigError(f"tol_residual must be finite and positive, got {self.tol_residual}")
        if type(self.max_outer) is not int or self.max_outer < 1:  # a bool is not one
            raise ConfigError(f"max_outer must be an integer >= 1, got {self.max_outer!r}")


_DEFAULT_SETTINGS = SolverSettings()


@dataclass
class SolveReport:
    """Diagnostics of one increment solve.

    ``residual`` is the optimality residual of the returned point (of the
    last point reached, if the solve failed).  ``iterations`` counts the
    Newton steps taken: 0 if the warm start already passes the certificate.
    For the warm start phi_0 (free displacements),
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

    def __reduce__(self):  # pickle the report too, so the error crosses from a worker process
        return type(self), (str(self), self.report)


class _Point(NamedTuple):
    """A point of the solve: y = [p; phi] (``vec``), g = A y - f, dp = p - p_prev, side = sign(dp).

    The certificate at the point, its flowing set (side != 0), its Newton
    right-hand side and the energy changes from and to it all read g, dp
    and side, so ``_point`` forms them once per point.
    """

    vec: np.ndarray
    g: np.ndarray
    dp: np.ndarray
    side: np.ndarray


def _point(prob: IncrementProblem, vec: np.ndarray, Avec: np.ndarray | None = None) -> _Point:
    """The point ``vec``; a caller that has already formed A vec passes it as ``Avec``."""
    if Avec is None:
        Avec = csr_apply(prob.A, vec)
    dp = vec[: prob.cell.n] - prob.p_prev
    return _Point(vec, Avec - prob.f, dp, np.sign(dp))


class _Terms(NamedTuple):
    """The parts of the return map and of k: t is the increment's, the others the edge values'."""

    d: np.ndarray  # a + h
    t: np.ndarray  # d p_prev - f_p
    neg_r: np.ndarray  # -r
    series: np.ndarray  # a h / (a + h): k of a flowing edge, its springs in series
    never_stuck: np.ndarray  # r == 0: the return map of such an edge is linear in phi


def _increment_terms(prob: IncrementProblem) -> _Terms:
    """The terms of the increment; those of the edge values a, h and r are formed once per path.

    The increments of a path share ``prob.schur_factor``, which keeps the
    edge terms together with the arrays they were formed from ("edges"); a
    problem with other a, h or r arrays forms and keeps its own.
    """
    a, h, r = prob.a, prob.h, prob.r
    kept = prob.schur_factor.get("edges")
    if kept is None or kept[0] is not a or kept[1] is not h or kept[2] is not r:
        d = a + h
        kept = prob.schur_factor["edges"] = (a, h, r, d, -r, a * h / d, r == 0.0)
    d, neg_r, series, never_stuck = kept[3:]
    return _Terms(d, d * prob.p_prev - prob.f[: prob.cell.n], neg_r, series, never_stuck)


def _return_map(prob: IncrementProblem, phi: np.ndarray, terms: _Terms) -> np.ndarray:
    """p*(phi): the plastic strains that minimize the increment at fixed phi.

    Edge by edge, d_e p_e + c_e is the driving force with d = a + h and
    c = -a G phi - f_p, so at p_prev it is g = t - a G phi with
    t = d p_prev - f_p, and p*_e = p_prev_e + (clip(g_e, -r_e, r_e) - g_e) / d_e.
    A stuck edge (|g_e| <= r_e) adds (g_e - g_e) / d_e = 0 and returns
    p_prev_e itself; a flowing one returns p_prev_e + (r_e sign(g_e) - g_e) / d_e.
    ``terms`` is ``_increment_terms(prob)``, formed once per increment.
    """
    g = terms.t - prob.a * csr_apply(prob.cell.G, phi)
    # the clip as np.minimum(np.maximum(...)): np.clip took 1.7 against 0.7 us on 108 edges (L=6)
    return prob.p_prev + (np.minimum(np.maximum(g, terms.neg_r), prob.r) - g) / terms.d


def _energy_change(prob: IncrementProblem, y: _Point, z: _Point) -> float:
    """Cell-averaged increment_energy(z) - increment_energy(y), without cancellation.

    The smooth part is quadratic, so with delta = z - y it changes by
    exactly 1/2 delta.(g_y + g_z), the trapezoid rule on the gradients
    g = A y - f of the two points.  An edge whose plastic strain stays on one
    side of p_prev changes its dissipation by sign(y_e - p_prev_e) delta_e;
    only edges that cross or leave the kink take the difference of the
    absolute values.
    """
    n = prob.cell.n
    delta = z.vec - y.vec
    smooth = 0.5 * (delta @ y.g + delta @ z.g)
    rough = np.where(y.side == z.side, y.side * delta[:n], np.abs(z.dp) - np.abs(y.dp))
    return prob.scale * (smooth + prob.r @ rough)


def _pcg(
    apply_S, precondition, b: np.ndarray, target: float, changes_pattern=None
) -> tuple[np.ndarray | None, int]:
    """Conjugate gradients on S x = b until max|b - S x| <= target.

    ``apply_S`` maps d to S d, and ``precondition`` r to an approximation
    of S^-1 r in a new array, which becomes the next search direction in
    place; x, r and the direction are updated in place by BLAS ``daxpy``.
    Returns x and the iterations taken, or None for x if the
    cap is reached or the iteration breaks down (d.S d <= 0 or a non-finite
    value).  If
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
        d = z if d is None else daxpy(d, z, a=rz / rz_old)
        q = apply_S(d)
        dq = d @ q
        if not (0.0 < dq < np.inf and np.isfinite(rz)):
            break
        alpha = rz / dq
        daxpy(d, x, a=alpha)
        daxpy(q, r, a=-alpha)
    return None, iteration


def _newton_direction(
    prob: IncrementProblem,
    terms: _Terms,
    y: _Point,
    flowing: np.ndarray,
    rhs: np.ndarray,
    target: float,
    report: SolveReport,
) -> np.ndarray:
    """Solve S(k) d_phi = rhs on the flowing set ``flowing`` of the point y.

    ``prob.schur_factor`` holds the solve with the path's last band factor
    of a Schur complement, keyed by the flowing set it eliminated ("last").
    On that set the factor solves directly.  On another set of a large cell it
    preconditions CG on the new S, applied as G.T (k G d), down to
    max|S d_phi - rhs| <= target, or until an iterate already changes the
    side pattern of y (an inexact step).  The new S is factored, and its
    factor replaces the old, only if there is no factor yet, the cell is
    small, or CG fails.
    """
    cell = prob.cell
    n = cell.n
    key = flowing.tobytes()
    cache = prob.schur_factor
    last_key, last_solve = cache.get("last", (None, None))
    if last_key == key:
        return last_solve(rhs)
    k = np.where(flowing, terms.series, prob.a)
    if last_solve is not None and rhs.size >= _PCG_MIN_DOFS:

        def changes_pattern(d_phi: np.ndarray) -> bool:
            p = _return_map(prob, y.vec[n:] + d_phi, terms)
            changed = not np.array_equal(np.sign(p - prob.p_prev), y.side)
            report.pattern_exits += changed
            return changed

        d_phi, iterations = _pcg(
            lambda d: csr_apply(cell.G_t, k * csr_apply(cell.G, d)), last_solve, rhs, target, changes_pattern
        )
        report.pcg_solves += 1
        report.pcg_iterations += iterations
        if d_phi is not None:
            return d_phi
    del last_solve
    cache.pop("last", None)
    report.factors += 1
    try:
        solve = partial(cell.solve_schur, cell.factor_schur(k))
    except RuntimeError as err:
        raise SolverError(f"Schur complement not factorizable: {err}", report) from err
    cache["last"] = (key, solve)
    return solve(rhs)


def _certificate(prob: IncrementProblem, y: _Point) -> float:
    """``optimality_residual`` at the point y, read from its g = A y - f.

    A plastic DOF at the kink (side 0) reads |g_i| - r_i, one off it
    |g_i + r_i side_i|; the maximum with 0 clips the first at 0.
    """
    n = prob.cell.n
    viol_p = np.abs(y.g[:n] + prob.r * y.side) - prob.r * (y.side == 0.0)
    # np.maximum keeps a NaN of either part; Python's max drops one in its second argument
    return float(np.maximum(viol_p.max(initial=0.0), np.abs(y.g[n:]).max(initial=0.0)))


def optimality_residual(prob: IncrementProblem, y) -> float:
    """Max violation of the first-order conditions of the increment.

    Displacement DOFs: |(A y - f)_i|.  Plastic DOFs at the kink:
    excess of |(A y - f)_i| over the dissipation weight.  Plastic DOFs
    off the kink: |(A y - f)_i + r_i sign(p_i - p_prev_i)|.
    """
    return _certificate(prob, _point(prob, prob.as_vector(y)))


def solve_increment(
    prob: IncrementProblem,
    warm_start: np.ndarray | None = None,
    settings: SolverSettings | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Minimize the increment functional until the optimality certificate holds.

    Returns the minimizer as the flat vector y = [p; phi], the displacements
    in DOF order, the layout of an ``RveState`` (p its head, phi its tail), and
    the report.  The warm start is the m free displacements, the tail of
    such a y; the default start is the zero state.  The start changes the
    Newton steps taken, not the minimizer: ``run_path`` saves steps by
    starting at the previous time steps' displacements extrapolated along
    the strain path.  Raises ValueError if the warm start does not hold m
    values, and SolverError with the diagnostic report if max_outer Newton
    steps do not pass the certificate or a line search finds no descent.
    """
    settings = settings or _DEFAULT_SETTINGS
    cell = prob.cell
    n = cell.n
    terms = _increment_terms(prob)
    phi = np.zeros(cell.m) if warm_start is None else np.asarray(warm_start, dtype=float)
    if phi.shape != (cell.m,):
        raise ValueError(f"the warm start needs the m = {cell.m} free displacements, got shape {phi.shape}")
    start = np.concatenate([_return_map(prob, phi, terms), phi])
    Ay = csr_apply(prob.A, start)  # serves the first energy and the first point
    y = _point(prob, start, Ay)

    report = SolveReport()
    report.load_norm = float(np.abs(prob.f).max(initial=0.0))
    residual_gate = settings.tol_residual * (1.0 + report.load_norm)
    report.energies.append(increment_energy(prob, start, Ay))
    failure = None
    while True:
        report.residual = _certificate(prob, y)
        if report.residual <= residual_gate:
            break
        if report.iterations == settings.max_outer:
            failure = f"did not converge in {settings.max_outer} Newton steps"
            break
        report.iterations += 1
        d_phi = np.zeros(cell.m)
        if cell.m:
            flowing = terms.never_stuck | (y.side != 0.0)
            d_phi = _newton_direction(prob, terms, y, flowing, -y.g[n:], residual_gate / 10, report)

        for step in _STEPS:
            phi = y.vec[n:] + step * d_phi
            z = _point(prob, np.concatenate([_return_map(prob, phi, terms), phi]))
            change = _energy_change(prob, y, z)
            if change <= 0.0:
                y = z
                report.energies.append(report.energies[-1] + change)
                break
            report.halvings += 1
        else:
            failure = f"found no descent at Newton step {report.iterations}"
            break

    report.energy = report.energies[-1]
    report.flowing = int(np.count_nonzero(y.side))
    report.converged = failure is None
    if failure is not None:
        raise SolverError(f"increment solve {failure} (residual {report.residual:.3e})", report)
    return y.vec, report
