"""Time-incremental evolution of one cell along a macroscopic strain path.

Starting from the trivial state, each time step solves the increment at the
current macro strain F and records the cell-averaged stress (the
hysteresis-operator output) together with the per-type plastic fractions.
The load and the stress depend on F only through v = ps_map F, linearly, so
a path assembles its (n + m) x 3 load map B once (``assemble_load``): a
step's load is B v, bitwise the load ``build_increment`` makes, and its
stress is L^-2 (c v - B.T y) at the solved state y
(``CellStructure.mapped_stress``), with c_alpha the sum of a over the
type-alpha edges.

A path keeps its states in one array, one row per time stamp: row l holds
the flat y = [p; phi] that ``solve_increment`` returns for step l, the
displacements in DOF order, and row 0 the zero state.  A step reads the
previous plastic strains and the predictor's displacements from the rows
before it and writes its solved state into its own row.  After the last
step the stresses are read off all rows at once, and the returned states
view the rows: each state's p and phi are the head and the tail of its row.

Each solve starts at the secant predictor: the previous displacements
extrapolated along the last step's change, scaled by the projection of the
new strain step onto the last one.  Along a uniaxial path the minimizer is
piecewise affine in the strain, so the predictor often has the new step's
flowing set, and one Newton step ends the solve.  The minimizer, not the
start, defines the increment.  Increments depend on time only through the
strain values, and so does the predictor, so the evolution is rate
independent: reparametrizing the time stamps leaves all outputs unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (
    IncrementProblem,
    RveState,
    assemble_load,
    assemble_operator,
    cell_structure,
)
from .lattice import D, K, SymTensor2, ps_map
from .randfield import Realization
from .solver import SolverError, SolveReport, SolverSettings, solve_increment


@dataclass(frozen=True)
class StrainPath:
    """Macroscopic strain trajectory sampled at increasing time stamps."""

    times: np.ndarray  # shape (N+1,), times[0] = 0
    tensors: np.ndarray  # shape (N+1, 3): rows (F11, F12, F22)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        tensors = np.asarray(self.tensors, dtype=float)
        if times.ndim != 1 or tensors.shape != (times.size, 3):
            raise ValueError("need times (N+1,) and tensors (N+1, 3)")
        if not (np.isfinite(times).all() and np.isfinite(tensors).all()):
            raise ValueError("time stamps and strains must be finite")
        if times.size < 1 or np.any(np.diff(times) <= 0):
            raise ValueError("time stamps must be strictly increasing")
        if np.any(tensors[0] != 0.0):
            raise ValueError("the path must start at zero strain")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "tensors", tensors)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    def tensor(self, l: int) -> SymTensor2:
        f11, f12, f22 = self.tensors[l]
        return SymTensor2(f11, f12, f22)


def _uniaxial_path(f11, n_steps: int, t_end: float) -> StrainPath:
    """Uniaxial loading F11 = f11(t) on n_steps equal steps of [0, t_end]."""
    if n_steps < 1:
        raise ValueError("need at least one time step")
    t = np.linspace(0.0, t_end, n_steps + 1)
    tensors = np.zeros((n_steps + 1, 3))
    tensors[:, 0] = f11(t)
    return StrainPath(t, tensors)


def cyclic_path(
    amplitude: float = 3e-3, frequency: float = 8.0, n_steps: int = 50, t_end: float = 1.0
) -> StrainPath:
    """Uniaxial cyclic loading F11(t) = amplitude * sin(frequency * t)."""
    return _uniaxial_path(lambda t: amplitude * np.sin(frequency * t), n_steps, t_end)


def monotonic_path(rate: float = 0.0034, n_steps: int = 50, t_end: float = 1.0) -> StrainPath:
    """Uniaxial monotonic loading F11(t) = rate * t."""
    return _uniaxial_path(lambda t: rate * t, n_steps, t_end)


@dataclass(frozen=True)
class StressRecord:
    """Cell-averaged response at one time step."""

    F: SymTensor2
    s: np.ndarray  # stress vector, one longitudinal component per edge type
    fractions: np.ndarray  # plastic fraction per edge type
    energy: float  # reported (cell-averaged) increment energy


class PathError(RuntimeError):
    """Solver failure during a path run; carries the failing step index."""

    def __init__(self, message: str, step: int, cause: SolverError):
        super().__init__(message)
        self.step = step
        self.cause = cause

    def __reduce__(self):  # pickle the step and cause too, so the error crosses from a worker process
        return type(self), (str(self), self.step, self.cause)


def stress_vector(real: Realization, state: RveState, F) -> np.ndarray:
    """Per-type average of a * (elastic strain): the stress operator output.

    s_alpha = L^-2 sum over type-alpha edges of
    a_e ((ps_map F)_alpha + g_e(phi) - p_e), the edge-by-edge definition;
    ``run_path`` gets the same values to round-off from its per-path load
    map (``CellStructure.mapped_stress``).
    """
    # Fhat_e = (ps_map F)_alpha on every edge e of type alpha
    Fhat = np.repeat(ps_map(F), real.L**2)
    sigma = real.a * (Fhat + cell_structure(real.L).G @ state.phi - state.p)
    return sigma.reshape(K, -1).sum(axis=1) * float(real.L) ** (-D)


def plastic_fraction(state: RveState) -> np.ndarray:
    """Share of edges per type with nonzero plastic strain (exact nonzero).

    ``state.p`` has shape (n,), n = K * L**2, and the result shape (K,); a
    stack of states with p of shape (S, n) gives shape (S, K), row j bitwise
    the fractions of state j.
    """
    p = state.p
    npt = p.shape[-1] // K
    return np.count_nonzero(p.reshape(*p.shape[:-1], K, npt), axis=-1) / npt


def _secant_coefficients(tensors: np.ndarray) -> np.ndarray:
    """c_l = dF_l . dF_(l-1) / |dF_(l-1)|^2 with dF_l = F_l - F_(l-1), for l = 0..N.

    The warm start of step l is phi_(l-1) + c_l (phi_(l-1) - phi_(l-2)).
    c_l is 0 on the first step and after a step of zero strain.
    """
    steps = np.diff(tensors, axis=0)
    last = steps[:-1]
    c = np.zeros(len(tensors))
    norms = np.einsum("ij,ij->i", last, last)
    np.divide(np.einsum("ij,ij->i", steps[1:], last), norms, out=c[2:], where=norms > 0.0)
    return c


def run_path(
    real: Realization,
    path: StrainPath,
    settings: SolverSettings | None = None,
    reports: list[SolveReport] | None = None,
) -> list[tuple[RveState, StressRecord]]:
    """Evolve one realization along the strain path from the trivial state.

    Returns one (state, record) pair per time stamp, the first being the
    zero state at t=0.  Pass a list as ``reports`` to collect the solver
    report of every increment.  The increments share one operator, one map
    from ps_map F to the load and the stress, and one Schur factor cache, and
    each starts at the secant predictor.  ps_map F of every step and the
    predictor's coefficients depend on the path alone and are formed once.
    Each step solves into its row of the path's flat states; stresses and
    plastic fractions (``plastic_fraction`` of the stacked states) are formed
    for all steps at once, after the last.
    """
    cell = cell_structure(real.L)
    n = cell.n
    A = assemble_operator(real)
    B = assemble_load(real)
    a_sums = real.by_type("a").sum(axis=1)
    # row l is ps_map(F_l), bitwise: ps_map maps a 2 x 2 x (N+1) stack entry by entry
    f11, f12, f22 = path.tensors.T
    ps_strains = np.ascontiguousarray(ps_map(np.array([[f11, f12], [f12, f22]])).T)
    secant = _secant_coefficients(path.tensors).tolist()
    schur_factor: dict = {}
    # row l is the flat y = [p; phi] after step l, row 0 the zero state
    states = np.zeros((path.n_steps + 1, cell.total))
    energies = [0.0]
    for l in range(1, path.n_steps + 1):
        f = B @ ps_strains[l]
        prob = IncrementProblem(A, f, real.sy, states[l - 1, :n], real.a, real.h, cell, schur_factor)
        last = states[l - 1, n:]
        start = last + secant[l] * (last - states[max(l - 2, 0), n:])
        try:
            states[l], report = solve_increment(prob, warm_start=start, settings=settings)
        except SolverError as err:
            raise PathError(
                f"L={real.L} sample {real.sample_id}: solver failed at step {l} "
                f"(t={path.times[l]}, residual {err.report.residual:.3e})",
                l,
                err,
            ) from err
        if reports is not None:
            reports.append(report)
        energies.append(report.energy)
    stresses = cell.mapped_stress(B, a_sums, states, ps_strains)
    p, phi = states[:, :n], states[:, n:]
    fractions = plastic_fraction(RveState(p, phi))
    tensors = [SymTensor2(*row) for row in path.tensors.tolist()]
    return [
        (RveState(p_l, phi_l), StressRecord(F, s, fr, energy))
        for p_l, phi_l, F, s, fr, energy in zip(p, phi, tensors, stresses, fractions, energies)
    ]
