import numpy as np
import pytest

from hdgbounds import (Workspace, make_continuous,
                       postprocess_potential, reconstruct_flux, solve,
                       unit_square_crisscross)
from hdgbounds.mesh import Mesh
from hdgbounds.reconstruct import enforce_dirichlet_band, local_optimize


def perturbed_crisscross(amp=0.06, seed=7):
    """unit_square_crisscross(0) with its interior vertices moved at random,
    so that its elements are no longer congruent."""
    base = unit_square_crisscross(0)
    v = base.vertices.copy()
    interior = np.all((v > 1e-12) & (v < 1.0 - 1e-12), axis=1)
    v[interior] += np.random.default_rng(seed).uniform(
        -amp, amp, size=(int(interior.sum()), 2))
    return Mesh(v, base.elements, base.boundary_tag_dict())


def mixed_square(level=0):
    """Unit square with the left edge Neumann, rest Dirichlet."""
    m = unit_square_crisscross(level)
    tags = {}
    for i in np.nonzero(m.facet_tag != 0)[0]:
        a, b = m.facets[i]
        va, vb = m.vertices[a], m.vertices[b]
        on_left = va[0] < 1e-12 and vb[0] < 1e-12
        tags[(int(a), int(b))] = "N" if on_left else "D"
    return Mesh(m.vertices, m.elements, tags)


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
        flux = reconstruct_flux(sol)
        pot = make_continuous(postprocess_potential(sol, flux), dat.g_D, ws)
        if dat.band is not None:
            pot = enforce_dirichlet_band(pot, dat.g_D, dat.band, ws)
        if optimize:
            flux, pot = local_optimize(flux, pot, ws)
        pairs.append((flux, pot))
    return sol_u, sol_z, pairs[0], pairs[1], ws
