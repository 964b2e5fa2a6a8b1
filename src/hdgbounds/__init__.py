"""Guaranteed upper/lower bounds for linear outputs of the 2D Poisson
problem, computed from HDG approximations via potential and projected
equilibrated flux reconstructions, with goal-oriented adaptivity.
"""

from .adapt import (AdaptiveRun, Bulk, ErrorDistribution, Uniform,
                    adaptive_loop, convergence_order, mark, run_pipeline)
from .bounds import (BoundsResult, EtaBreakdown, compute_bounds, compute_eta,
                     compute_kappa, poincare_constants)
from .femcore import QuadratureRule, segment_rule, triangle_rule
from .hdg import (DirichletBand, HDGSolution, OutputFunctional, ProblemData,
                  raw_output, solve, zero)
from .mesh import (Mesh, lshape_initial, read_mesh, refine_bisection,
                   refine_red, unit_square_crisscross, write_mesh)
from .problems import PROBLEM_IDS, BuiltinProblem, builtin
from .reconstruct import (ContinuousPotential, EquilibratedFlux,
                          EvaluatedPair, certified_pairs, enforce_dirichlet_band,
                          evaluate, flux_residuals, local_optimize,
                          make_continuous, postprocess_potential,
                          potential_residuals, reconstruct_flux)
from .workspace import NonFiniteDataError, Workspace

__version__ = "0.1.0"
