"""Certified bounds for a smooth problem, step by step.

Solves -div(grad u) = f on the unit square with u = sin(pi x) sin(pi y),
certifies the mean-value output s = (1, u) = 4/pi^2, and shows the interval
tightening under uniform refinement.  Every printed interval is guaranteed
to contain the exact output.
"""

import numpy as np

from hdgbounds import (Workspace, builtin, compute_bounds, make_continuous,
                       postprocess_potential, reconstruct_flux, raw_output,
                       solve, unit_square_crisscross)
from hdgbounds.reconstruct import evaluate, flux_residuals, local_optimize

prob = builtin("example1_s1")
s_exact = prob.exact_s
p = 2

print(f"output: domain average of u; exact s = 4/pi^2 = {s_exact:.12f}\n")
print(f"{'nel':>6} {'s_h (raw HDG)':>16} {'certified interval':>34} "
      f"{'half gap':>10}")

for level in range(4):
    mesh = unit_square_crisscross(level)

    # 1. HDG solves of the primal and adjoint problems: one workspace of
    #    evaluation tables per mesh, which every step takes first, and one
    #    skeleton factorization for both
    ws = Workspace(mesh, p)
    adata = prob.out.adjoint_data()
    sol_u, sol_z = solve(ws, [prob.data, adata])

    # 2. element-by-element certificates: an equilibrated flux in RT^p and
    #    a continuous superconvergent potential, for both problems at once
    #    (one post-processing solve and one averaging serve both data)
    fluxes = [reconstruct_flux(ws, sol) for sol in (sol_u, sol_z)]
    pots = make_continuous(ws, postprocess_potential(ws, [sol_u, sol_z], fluxes),
                           [prob.data.g_D, adata.g_D])
    pairs = [local_optimize(ws, flux, pot) for flux, pot in zip(fluxes, pots)]

    # the certificates are verifiable: divergence/trace residuals ~ 1e-14
    res = flux_residuals(ws, evaluate(ws, *pairs[0], prob.data))
    assert max(res.values()) < 1e-10

    # 3. guaranteed interval; compute_bounds audits every certificate itself
    #    and raises RuntimeError if one fails
    b = compute_bounds(ws, pairs[0], pairs[1], prob.data, adata)
    assert b.contains(s_exact)
    print(f"{mesh.n_elements:>6} {raw_output(ws, sol_u, prob.out):>16.12f} "
          f"[{b.s_minus:.12f}, {b.s_plus:.12f}] {b.half_gap:>10.2e}")

print("\nthe bound average converges ~2 orders faster than s_h itself;")
print("at p=2 the gap shrinks with order p+3 = 5 in sqrt(nel).")
