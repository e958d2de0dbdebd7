"""robinlab: a laboratory for two-sided Robin domain decomposition.

The Poisson problem on the unit square is split into two strips meeting
at a mesh line.  The package assembles the P1 systems on uniform criss
meshes, runs the damped Robin-Robin and Dirichlet-Neumann sweeps, and
carries the closed-form mode analysis and the trace-operator analysis
that explain the observed grid-independent contraction rates.
"""

from .dd_solvers import (DDParams, DDReport, assemble_global_solution,
                         dirichlet_neumann_solve, error_norms,
                         measured_reduction_rate, robin_robin_solve)
from .experiments import ExperimentConfig, TableResult, manufactured_solution, run
from .grid_fem import (GridSpec, SubdomainSystem, Tridiagonal,
                       assemble_interface_mass, assemble_load, build_grid,
                       build_subdomain_system)
from .operator_analysis import EquivalenceBounds
from .spectral import (BoundMargins, bound_margins, corollary_rate,
                       fd_eigenvalue, omega, omega_max, reduction_spectrum,
                       strip_symbol, theta_star, von_neumann_advisor,
                       von_neumann_rho)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
