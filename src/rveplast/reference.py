"""Independent oracles: scalar return mapping and brute-force minimization.

These are deliberately naive implementations used to cross-check the
assembled network solver.  They ship with the library so users can rerun
the verification themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import IncrementProblem


@dataclass(frozen=True)
class SpringParams:
    """Parameters of a single elastoplastic spring with kinematic hardening."""

    a: float  # elastic modulus
    h: float  # hardening modulus
    sy: float  # yield weight

    def __post_init__(self):
        if self.a <= 0 or self.h <= 0 or self.sy < 0:
            raise ValueError(f"need a, h > 0 and sy >= 0, got {self}")


def return_map(params: SpringParams, d: float, p_prev: float) -> float:
    """Plastic strain update of one spring at total strain d.

    Minimizes  a/2 (d - p)^2 + h/2 p^2 + sy |p - p_prev|  over p.
    Elastic trial: tau = a d - (a + h) p_prev; the spring sticks at p_prev
    when |tau| <= sy and otherwise flows onto the shifted yield surface.
    """
    a, h, sy = params.a, params.h, params.sy
    tau = a * d - (a + h) * p_prev
    if abs(tau) <= sy:
        return p_prev
    return (a * d - np.sign(tau) * sy) / (a + h)


def spring_trajectory(params: SpringParams, strains) -> tuple[np.ndarray, np.ndarray]:
    """Chain the return map along a strain history starting at 0.

    Returns the plastic strain and stress a (d - p) at every entry of
    ``strains``.  Under monotone loading the stress curve is bilinear with
    slopes a (elastic) and a h / (a + h) (plastic).
    """
    strains = np.asarray(strains, dtype=float)
    p = np.empty_like(strains)
    prev = 0.0
    for i, d in enumerate(strains):
        prev = return_map(params, d, prev)
        p[i] = prev
    stress = params.a * (strains - p)
    return p, stress


_POWER_ITERATIONS = 200
_POWER_SEED = 0


def estimate_operator_norm(A) -> float:
    """Power-iteration estimate of the spectral norm of a symmetric matrix."""
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_POWER_ITERATIONS):
        w = A @ v
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0
        v = w / lam
    return lam


def brute_force_increment(
    prob: IncrementProblem, iterations: int, step: float | None = None
) -> np.ndarray:
    """Proximal-gradient minimization of the increment functional.

    A gradient step on the smooth quadratic part followed by the exact
    scalar prox on every plastic degree of freedom.  Converges to the
    unique minimizer for step < 1 / ||A||; intended for tiny cells only.
    Returns the flat state y = [p; phi in DOF order], as ``solve_increment`` does.
    """
    A, f, r, p_prev = prob.A, prob.f, prob.r, prob.p_prev
    n = prob.cell.n
    if step is None:
        step = 0.9 / estimate_operator_norm(A)
    y = np.zeros(A.shape[0])
    for _ in range(iterations):
        z = y - step * (A @ y - f)
        # prox of step * r |p - p_prev|: soft-threshold toward the anchor
        dp = z[:n] - p_prev
        z[:n] = p_prev + np.sign(dp) * np.maximum(np.abs(dp) - step * r, 0.0)
        y = z
    return y
