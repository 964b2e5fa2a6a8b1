"""Goal-oriented adaptive loop: solve both problems, reconstruct, certify,
mark by bound-gap contributions, refine, repeat until the target gap or the
iteration cap is reached.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Refine every element."""


@dataclass(frozen=True)
class ErrorDistribution:
    """Refine elements with gap contribution >= delta_tol / n_el."""

    delta_tol: float

    def __post_init__(self):
        if not self.delta_tol > 0:
            raise ValueError("delta_tol must be positive")


@dataclass(frozen=True)
class Bulk:
    """Doerfler marking: smallest prefix of descending contributions whose
    sum reaches theta times the total."""

    theta: float

    def __post_init__(self):
        if not 0 < self.theta <= 1:
            raise ValueError("theta must lie in (0, 1]")


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
        order = np.argsort(-gaps, kind="stable")
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
                 p: int, tau=1.0, optimize: bool = False) -> bd.BoundsResult:
    """Solve primal and adjoint on one workspace with one skeleton
    factorization, reconstruct both pairs (band extensions applied when the
    data carry one), optionally run the local optimization, and compute the
    bounds, which audit the certificates, with the raw HDG output s_h."""
    ws = Workspace(mesh, p)
    datas = [data, out.adjoint_data()]
    sols = hdg.solve(ws, datas, tau)
    res = bd.compute_bounds(ws, *rc.certified_pairs(ws, sols, datas, optimize),
                            *datas)
    res.s_h = hdg.raw_output(ws, sols[0], out)
    return res


# ---------------------------------------------------------------------------
# Adaptive loop
# ---------------------------------------------------------------------------

@dataclass
class IterationRecord:
    nel: int
    n_edge_dofs: int
    bounds: bd.BoundsResult
    marked: int


@dataclass
class AdaptiveRun:
    records: list[IterationRecord]
    converged: bool
    final_mesh: Mesh

    @property
    def half_gaps(self) -> np.ndarray:
        return np.array([r.bounds.half_gap for r in self.records])

    @property
    def nels(self) -> np.ndarray:
        return np.array([r.nel for r in self.records])


_REFINERS = {"red": refine_red, "bisect": refine_bisection}


def adaptive_loop(mesh0: Mesh, data: hdg.ProblemData, out: hdg.OutputFunctional,
                  p: int, tau=1.0, strategy=Uniform(), target_gap: float = 1e-8,
                  max_iter: int = 40, refiner: str = "red", optimize: bool = False,
                  uniform_family: Optional[Callable[[int], Mesh]] = None
                  ) -> AdaptiveRun:
    """Iterate solve -> reconstruct -> certify -> mark -> refine.

    Stops when the bound gap 2 half_gap drops below ``target_gap``
    (converged), after ``max_iter`` iterations, or when the strategy marks
    no element (both reported as non-converged, history retained).  With
    the Uniform strategy and a ``uniform_family`` the meshes are taken from
    the family (level per iteration); otherwise uniform means mark-everything.
    """
    if refiner not in _REFINERS:
        raise ValueError(f"unknown refiner {refiner!r} (expected red|bisect)")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    refine = _REFINERS[refiner]
    records, mesh = [], mesh0
    for it in range(max_iter):
        res = run_pipeline(mesh, data, out, p, tau, optimize=optimize)
        converged = 2 * res.half_gap < target_gap
        marked = np.array([], dtype=int)
        if not converged and it + 1 < max_iter:
            marked = mark(res.gap_elements, strategy)
        records.append(IterationRecord(
            nel=mesh.n_elements, n_edge_dofs=mesh.n_facets * (p + 1),
            bounds=res, marked=len(marked)))
        if len(marked) == 0:  # converged, last iteration, or nothing marked
            break
        if isinstance(strategy, Uniform) and uniform_family is not None:
            mesh = uniform_family(it + 1)
        else:
            mesh = refine(mesh, marked)
    return AdaptiveRun(records, converged, mesh)
