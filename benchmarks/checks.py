"""Output checks of an op against stored references and the optimality certificate.

An op fails its check if a final stress differs from the stored reference by
more than ``RTOL`` relative (energies likewise), if the full-problem
certificate residual / (1 + max|f|) of any increment exceeds the solver's
``tol_residual``, or if the energy sequence of any solve increases.  The
certificate is recomputed here from the returned states with the public
``build_increment`` and ``optimality_residual``, not read from the solver's
own report.  An op without stored references is checked by the certificate
and the energies alone.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import rveplast as rp

REFERENCE_FILE = Path(__file__).with_name("references.json")
RTOL = 1e-8


def load_references(path: Path = REFERENCE_FILE) -> dict[str, tuple[np.ndarray, float]]:
    """Reference key -> (final stress vector, final energy)."""
    raw = json.loads(path.read_text())
    return {key: (np.array(values[:-1]), values[-1]) for key, values in raw.items()}


def certificate(run) -> float:
    """Worst residual / (1 + max|f|) over the increments of a completed path run."""
    states = [state for state, _ in run.records]
    worst = 0.0
    A = None
    for l in range(1, len(states)):
        prob = rp.build_increment(run.real, run.path.tensor(l), p_prev=states[l - 1].p, A=A)
        A = prob.A
        residual = rp.optimality_residual(prob, states[l])
        worst = max(worst, residual / (1.0 + float(np.max(np.abs(prob.f), initial=0.0))))
    return worst


def check_op(op, references, tol_residual: float) -> tuple[list[str], bool]:
    """Return (problems found, whether every output had a stored reference)."""
    problems = []
    for run in op.runs:
        if run.records is None:
            continue
        where = f"sample {run.real.sample_id} L={run.real.L} seed {run.real.seed}"
        if any(b > a for rep in run.reports for a, b in zip(rep.energies, rep.energies[1:])):
            problems.append(f"{where}: energy increased within a solve")
        cert = certificate(run)
        if not cert <= tol_residual:
            problems.append(f"{where}: certificate {cert:.3e} > {tol_residual:.1e}")
    referenced = True
    for key, (s, energy) in op.outputs().items():
        if key not in references:
            referenced = False
            continue
        s_ref, e_ref = references[key]
        if not np.max(np.abs(s - s_ref)) <= RTOL * np.max(np.abs(s_ref)):
            problems.append(f"{key}: final stress {s.tolist()} differs from reference {s_ref.tolist()}")
        if not abs(energy - e_ref) <= RTOL * abs(e_ref):
            problems.append(f"{key}: final energy {energy!r} differs from reference {e_ref!r}")
    return problems, referenced
