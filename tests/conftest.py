import numpy as np
import pytest

from hdgbounds import (Workspace, make_continuous,
                       postprocess_potential, reconstruct_flux, solve)
from hdgbounds.reconstruct import enforce_dirichlet_band, local_optimize


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def build_pair(mesh, data, out, p, tau=1.0, optimize=False, quad_degree=None):
    """Solve primal+adjoint and build both reconstruction pairs."""
    ws = Workspace(mesh, p, quad_degree)
    adata = out.adjoint_data()
    sol_u, sol_z = solve(ws, [data, adata], tau)
    pairs = []
    for sol, dat in ((sol_u, data), (sol_z, adata)):
        flux = reconstruct_flux(sol, dat)
        pot = make_continuous(postprocess_potential(sol, flux), dat.g_D, ws)
        if dat.band is not None:
            pot = enforce_dirichlet_band(pot, dat.g_D, dat.band, ws)
        if optimize:
            flux, pot = local_optimize(flux, pot, dat, ws)
        pairs.append((flux, pot))
    return sol_u, sol_z, pairs[0], pairs[1], ws
