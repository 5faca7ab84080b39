"""Periodic-RVE simulation of random elastoplastic spring networks.

The triangular spring network on a periodic cell defines, for every
realization of random spring parameters, a rate-independent hysteresis
operator from macroscopic strain paths to averaged stresses.  This
package samples realizations reproducibly, solves the nonsmooth convex
time increments, and runs the Monte-Carlo studies of how the cell-size
errors scale.
"""

from .assembly import (
    IncrementProblem,
    RveState,
    assemble_load,
    assemble_operator,
    build_increment,
    increment_energy,
)
from .driver import (
    PathError,
    StrainPath,
    cyclic_path,
    monotonic_path,
    plastic_fraction,
    run_path,
    stress_vector,
)
from .lattice import (
    EDGE_TYPES,
    SymTensor2,
    ps_map,
    wrap_node,
)
from .randfield import ConfigError, MaterialLaw, Realization, restrict, sample
from .reference import SpringParams, brute_force_increment, return_map, spring_trajectory
from .solver import (
    SolverError,
    SolverSettings,
    optimality_residual,
    solve_increment,
)
from .stats import (
    McEnsemble,
    loglog_slope,
    monte_carlo,
    systematic_error_study,
)

__version__ = "0.1.0"
