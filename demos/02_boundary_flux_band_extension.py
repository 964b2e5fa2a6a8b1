"""Exact Dirichlet enforcement for a non-polynomial boundary weight.

The boundary-flux output s = <(pi/2) sin(pi y), q.n> on x=1 leads to an
adjoint potential that must equal (pi/2) sin(pi y) on x=1 *exactly* for the
bounds to be guaranteed.  Nodal interpolation alone cannot do that, so the
reconstruction blends the datum linearly over the band between the last
mesh line and the boundary and carries the interpolation error as an
analytic per-element correction.
"""

import numpy as np

from hdgbounds import builtin, unit_square_crisscross
from hdgbounds.adapt import run_pipeline
from hdgbounds.reconstruct import (enforce_dirichlet_band, make_continuous,
                                   postprocess_potential, reconstruct_flux)
from hdgbounds import solve_adjoint

prob = builtin("example1_s2")
s_exact = prob.exact_s
mesh = unit_square_crisscross(1)
adata = prob.out.adjoint_data()

print("band corrections shrink rapidly with the polynomial degree:")
for p in (1, 2, 3):
    sol = solve_adjoint(mesh, prob.out, p=p)
    ws = sol.ws
    flux = reconstruct_flux(sol, adata)
    pot = make_continuous(postprocess_potential(sol, flux), adata.g_D, ws)
    pot = enforce_dirichlet_band(pot, adata.g_D, prob.out.band, ws)
    c = pot.correction
    pts = ws.qphys[c.elems]
    corr = ws.eval_data(c.ghat, pts) - np.einsum("ek,qk->eq", c.nodal, ws.lag_vals)
    print(f"  p={p}: band starts at x = {c.x_band:.3f}, "
          f"{len(c.elems)} band elements, max |correction| = "
          f"{np.abs(corr).max():.2e}")

print(f"\ncertified intervals for s = pi^2/4 = {s_exact:.12f}:")
for level in (0, 1, 2):
    m = unit_square_crisscross(level)
    res = run_pipeline(m, prob.data, prob.out, p=2, optimize=True)
    assert res.contains(s_exact)
    print(f"  nel={m.n_elements:4d}: [{res.s_minus:.12f}, {res.s_plus:.12f}]"
          f"  half gap {res.half_gap:.2e}")
