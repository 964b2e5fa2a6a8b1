"""Exact Dirichlet enforcement for a non-polynomial boundary weight.

The boundary-flux output s = <(pi/2) sin(pi y), q.n> on x=1 leads to an
adjoint potential that must equal (pi/2) sin(pi y) on x=1 *exactly* for the
bounds to be guaranteed.  Nodal interpolation alone cannot do that, so the
reconstruction blends the datum linearly over the band between the last
mesh line and the boundary into an analytic extension ghat.  It subtracts
ghat from the nodal values at the band elements' nodes and adds ghat itself
on the band elements: the polynomial part is zero on x=1, so the trace
there is ghat, the datum.  What ghat adds beyond its interpolant is
ghat - I ghat, which shrinks fast with the degree.
"""

import numpy as np

from hdgbounds import Workspace, builtin, solve, unit_square_crisscross
from hdgbounds.adapt import run_pipeline
from hdgbounds.reconstruct import (enforce_dirichlet_band, make_continuous,
                                   postprocess_potential, reconstruct_flux)

prob = builtin("example1_s2")
s_exact = prob.exact_s
mesh = unit_square_crisscross(1)
adata = prob.out.adjoint_data()

print("ghat - I ghat shrinks rapidly with the polynomial degree:")
for p in (1, 2, 3):
    ws = Workspace(mesh, p)
    sol = solve(ws, [adata])[0]
    flux = reconstruct_flux(ws, sol)
    (pot,) = make_continuous(ws, postprocess_potential(ws, [sol], [flux]), [adata.g_D])
    pot = enforce_dirichlet_band(ws, pot, prob.out.band)
    c = pot.correction
    pts = ws.qphys[c.elems]
    interp = ws.eval_data(c.ghat, ws.node_coords[ws.node_map[c.elems]])
    corr = ws.eval_data(c.ghat, pts) - np.einsum("ek,qk->eq", interp, ws.lag_vals)
    print(f"  p={p}: band starts at x = {c.x_band:.3f}, "
          f"{len(c.elems)} band elements, max |ghat - I ghat| = "
          f"{np.abs(corr).max():.2e}")

print(f"\ncertified intervals for s = pi^2/4 = {s_exact:.12f}:")
for level in (0, 1, 2):
    m = unit_square_crisscross(level)
    res = run_pipeline(m, prob.data, prob.out, p=2, optimize=True)
    assert res.contains(s_exact)
    print(f"  nel={m.n_elements:4d}: [{res.s_minus:.12f}, {res.s_plus:.12f}]"
          f"  half gap {res.half_gap:.2e}")
