"""The built-in benchmark problems.

Two domains, two outputs each:

* example1_*: unit square, nu = 1, homogeneous Dirichlet, source chosen so
  u = sin(pi x) sin(pi y).  s1 averages the solution (f_O = 1, exact
  s = 4/pi^2); s2 weights the boundary flux on x = 1 with (pi/2) sin(pi y)
  (exact s = pi^2/4, adjoint needs the band extension).
* example2_*: L-shaped domain, f = 1, homogeneous Dirichlet, corner
  singularity at the origin.  s1 is the energy output (f_O = f, exact
  s = 0.2140758036140825); s2 uses a steep localized adjoint source with no
  published exact value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .hdg import DirichletBand, OutputFunctional, ProblemData
from .mesh import Mesh, lshape_initial, unit_square_crisscross

__all__ = ["BuiltinProblem", "builtin", "PROBLEM_IDS"]


@dataclass
class BuiltinProblem:
    name: str
    initial_mesh: Callable[[], Mesh]
    data: ProblemData
    out: OutputFunctional
    exact_s: Optional[float]
    refiner: str
    uniform_family: Optional[Callable[[int], Mesh]] = None


def _example1_data() -> ProblemData:
    def f(x, y):
        return 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    return ProblemData(f=f)


def _example2_s2_source(x, y):
    r2 = (-2.0 * x + 0.5) ** 2 + (2.0 * y - 1.0) ** 2
    return -3.0 * (2.0 * y - 1.0) / (1e-4 + r2 ** 2.5)


def builtin(problem_id: str) -> BuiltinProblem:
    """Look up one of the built-in problems by id."""
    if problem_id == "example1_s1":
        return BuiltinProblem(
            name=problem_id,
            initial_mesh=unit_square_crisscross,
            uniform_family=unit_square_crisscross,
            data=_example1_data(),
            out=OutputFunctional(f_O=lambda x, y: np.ones_like(
                np.asarray(x, dtype=float))),
            exact_s=4.0 / np.pi ** 2,
            refiner="red",
        )
    if problem_id == "example1_s2":
        band = DirichletBand(
            axis=0, value=1.0,
            profile=lambda s: 0.5 * np.pi * np.sin(np.pi * s),
            profile_deriv=lambda s: 0.5 * np.pi ** 2 * np.cos(np.pi * s))

        def g_D_O(x, y):
            return np.where(np.abs(np.asarray(x, dtype=float) - 1.0) < 1e-12,
                            0.5 * np.pi * np.sin(np.pi * y), 0.0)
        return BuiltinProblem(
            name=problem_id,
            initial_mesh=unit_square_crisscross,
            uniform_family=unit_square_crisscross,
            data=_example1_data(),
            out=OutputFunctional(g_D_O=g_D_O, band=band),
            exact_s=np.pi ** 2 / 4.0,
            refiner="red",
        )
    one = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    if problem_id == "example2_s1":
        return BuiltinProblem(
            name=problem_id,
            initial_mesh=lshape_initial,
            data=ProblemData(f=one),
            out=OutputFunctional(f_O=one),
            exact_s=0.2140758036140825,
            refiner="bisect",
        )
    if problem_id == "example2_s2":
        return BuiltinProblem(
            name=problem_id,
            initial_mesh=lshape_initial,
            data=ProblemData(f=one),
            out=OutputFunctional(f_O=_example2_s2_source),
            exact_s=None,
            refiner="bisect",
        )
    raise KeyError(
        f"unknown problem id {problem_id!r}; available: {', '.join(PROBLEM_IDS)}")


PROBLEM_IDS = ("example1_s1", "example1_s2", "example2_s1", "example2_s2")
