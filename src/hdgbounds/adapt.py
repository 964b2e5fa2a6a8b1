"""Goal-oriented adaptive loop: solve both problems, reconstruct, certify,
mark by bound-gap contributions, refine, repeat until the target gap or the
iteration cap is reached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import bounds as bd
from . import hdg
from . import reconstruct as rc
from .mesh import Mesh, refine_bisection, refine_red
from .workspace import Workspace

__all__ = [
    "Uniform",
    "ErrorDistribution",
    "Bulk",
    "mark",
    "convergence_order",
    "run_pipeline",
    "adaptive_loop",
    "AdaptiveRun",
]


# ---------------------------------------------------------------------------
# Marking strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Uniform:
    def __str__(self):
        return "uniform"


@dataclass(frozen=True)
class ErrorDistribution:
    """Refine elements with gap contribution >= delta_tol / n_el."""

    delta_tol: float

    def __post_init__(self):
        if not self.delta_tol > 0:
            raise ValueError("delta_tol must be positive")

    def __str__(self):
        return f"tol:{self.delta_tol:g}"


@dataclass(frozen=True)
class Bulk:
    """Doerfler marking: smallest prefix of descending contributions whose
    sum reaches theta times the total."""

    theta: float

    def __post_init__(self):
        if not 0 < self.theta <= 1:
            raise ValueError("theta must lie in (0, 1]")

    def __str__(self):
        return f"bulk:{self.theta:g}"


def mark(gaps: np.ndarray, strategy) -> np.ndarray:
    """Element indices selected for refinement."""
    gaps = np.asarray(gaps, dtype=float)
    if np.any(gaps < 0):
        raise ValueError("gap contributions must be non-negative")
    n = len(gaps)
    if isinstance(strategy, Uniform):
        return np.arange(n)
    if isinstance(strategy, ErrorDistribution):
        return np.nonzero(gaps >= strategy.delta_tol / n)[0]
    if isinstance(strategy, Bulk):
        # ties broken by element index for deterministic runs
        order = np.lexsort((np.arange(n), -gaps))
        csum = np.cumsum(gaps[order])
        total = csum[-1]
        if total == 0.0:
            return np.array([], dtype=int)
        k = int(np.searchsorted(csum, strategy.theta * total - 1e-15 * total)) + 1
        sel = order[:k]
        return np.sort(sel[gaps[sel] > 0])
    raise TypeError(f"unknown marking strategy {strategy!r}")


def convergence_order(e1: float, n1: int, e2: float, n2: int) -> float:
    """Computational order -2 log(e1/e2) / log(n1/n2) between two runs."""
    if e1 <= 0 or e2 <= 0:
        raise ValueError("errors must be positive")
    if n1 == n2:
        raise ValueError("element counts must differ")
    return -2.0 * np.log(e1 / e2) / np.log(n1 / n2)


# ---------------------------------------------------------------------------
# One mesh evaluation
# ---------------------------------------------------------------------------

def run_pipeline(mesh: Mesh, data: hdg.ProblemData, out: hdg.OutputFunctional,
                 p: int, tau=1.0, optimize: bool = False,
                 quad_degree: int | None = None, check: bool = True,
                 mode: str = "projected") -> bd.BoundsResult:
    """Solve primal and adjoint on one workspace with one skeleton
    factorization, reconstruct both pairs (band extensions applied when the
    data carry one), optionally run the local optimization, audit the
    certificates, and compute the bounds."""
    ws = Workspace(mesh, p, quad_degree)
    adata = out.adjoint_data()
    sol_u, sol_z = hdg.solve(ws, [data, adata], tau)

    pairs = []
    for sol, dat in ((sol_u, data), (sol_z, adata)):
        flux = rc.reconstruct_flux(sol, dat)
        pot = rc.make_continuous(rc.postprocess_potential(sol, flux),
                                 dat.g_D, ws)
        if dat.band is not None:
            pot = rc.enforce_dirichlet_band(pot, dat.g_D, dat.band, ws)
        if optimize:
            flux, pot = rc.local_optimize(flux, pot, dat, ws)
        pairs.append((flux, pot))

    if check:
        for (flux, pot), dat in zip(pairs, (data, adata)):
            fres = rc.flux_residuals(flux, dat, ws)
            pres = rc.potential_residuals(pot, dat.g_D, ws)
            # "not <=" so that a NaN residual fails the gate too
            if not all(r <= 1e-9 for r in {**fres, **pres}.values()):
                raise RuntimeError(
                    f"reconstruction certificate violated: {fres} {pres}")

    s_h = hdg.raw_output(sol_u, out)
    return bd.compute_bounds(pairs[0], pairs[1], data, out, ws,
                             mode=mode, s_h=s_h)


# ---------------------------------------------------------------------------
# Adaptive loop
# ---------------------------------------------------------------------------

@dataclass
class IterationRecord:
    nel: int
    n_edge_dofs: int
    bounds: bd.BoundsResult
    marked: int
    seconds: float


@dataclass
class AdaptiveRun:
    records: list[IterationRecord] = field(default_factory=list)
    converged: bool = False
    final_mesh: Optional[Mesh] = None

    @property
    def half_gaps(self) -> np.ndarray:
        return np.array([r.bounds.half_gap for r in self.records])

    @property
    def nels(self) -> np.ndarray:
        return np.array([r.nel for r in self.records])


_REFINERS = {"red": refine_red, "bisect": refine_bisection}


def adaptive_loop(mesh0: Mesh, data: hdg.ProblemData, out: hdg.OutputFunctional,
                  p: int, tau=1.0, strategy=Uniform(), target_gap: float = 1e-8,
                  max_iter: int = 40, refiner: str = "red",
                  optimize: bool = False, quad_degree: int | None = None,
                  uniform_family: Optional[Callable[[int], Mesh]] = None,
                  check: bool = True) -> AdaptiveRun:
    """Iterate solve -> reconstruct -> certify -> mark -> refine.

    Stops when the bound gap drops below ``target_gap`` or after ``max_iter``
    iterations (reported as non-converged, history retained).  With the
    Uniform strategy and a ``uniform_family`` the meshes are taken from the
    family (level per iteration); otherwise uniform means mark-everything.
    """
    if refiner not in _REFINERS:
        raise ValueError(f"unknown refiner {refiner!r} (expected red|bisect)")
    refine = _REFINERS[refiner]
    run = AdaptiveRun()
    mesh = mesh0
    for it in range(max_iter):
        t0 = time.perf_counter()
        res = run_pipeline(mesh, data, out, p, tau, optimize=optimize,
                           quad_degree=quad_degree, check=check)
        gap = res.s_plus - res.s_minus
        done = gap < target_gap
        marked = np.array([], dtype=int)
        if not done and it + 1 < max_iter:
            marked = mark(res.gap_elements, strategy)
            if len(marked) == 0 and not isinstance(strategy, Uniform):
                done = True  # all-zero contributions signal convergence
        run.records.append(IterationRecord(
            nel=mesh.n_elements, n_edge_dofs=mesh.n_facets * (p + 1),
            bounds=res, marked=len(marked), seconds=time.perf_counter() - t0))
        if done:
            run.converged = True
            break
        if it + 1 >= max_iter:
            break
        if isinstance(strategy, Uniform) and uniform_family is not None:
            mesh = uniform_family(it + 1)
        else:
            mesh = refine(mesh, marked)
    run.final_mesh = mesh
    return run
