import numpy as np
import pytest

from hdgbounds import (BoundsResult, Workspace, certified_pairs, lshape_initial,
                       solve, unit_square_crisscross)
from hdgbounds.bounds import _audited_records, _oscillating_data
from hdgbounds.mesh import Mesh, refine_bisection


def perturbed_crisscross(amp=0.06, seed=7, base=None):
    """base (default unit_square_crisscross(0)) with the vertices off its
    boundary facets moved at random by up to amp in each coordinate, so
    that its elements are no longer congruent; regions and nu are kept."""
    base = unit_square_crisscross(0) if base is None else base
    v = base.vertices.copy()
    interior = np.ones(len(v), dtype=bool)
    interior[base.facets[base.facet_tag != 0]] = False
    v[interior] += np.random.default_rng(seed).uniform(
        -amp, amp, size=(int(interior.sum()), 2))
    return Mesh(v, base.elements, base.boundary_tag_dict(),
                region=base.region, nu=base.nu)


def squeezed_crisscross(level, eps):
    """unit_square_crisscross(level), level >= 1, with the column of squares
    left of x = 1/2 squeezed about its centre line to width 2 eps by a
    piecewise-linear map of x that keeps the boundary fixed: the column's
    elements reach aspect ratios of about pitch / eps."""
    base = unit_square_crisscross(level)
    h = 0.5 ** (level + 1)
    c = 0.5 - h / 2
    v = base.vertices.copy()
    v[:, 0] = np.interp(v[:, 0], [0.0, 0.5 - h, 0.5, 1.0],
                        [0.0, c - eps, c + eps, 1.0])
    return Mesh(v, base.elements, base.boundary_tag_dict())


def bisected_lshape(rounds=30):
    """The L-shape after ``rounds`` bisections of the elements at the
    re-entrant corner: at 30, 186 elements, edges from 3.1e-5 to 1."""
    mesh = lshape_initial()
    for _ in range(rounds):
        corner = np.all(mesh.vertices[mesh.elements] == 0.0, axis=2).any(axis=1)
        mesh = refine_bisection(mesh, np.flatnonzero(corner))
    return mesh


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
    datas = [data, out.adjoint_data()]
    sols = solve(ws, datas, tau)
    return (*sols, *certified_pairs(ws, sols, datas, optimize), ws)


def exact_equilibration_bounds(ws, primal_pair, adjoint_pair, data, out):
    """Cross-route oracle for compute_bounds: the interval of exactly
    equilibrated reconstructions (polynomial data only),

        s_tilde = l_O(u~, q~) + 1/2 (nu^-1 (q~ + nu grad u~), zeta~ - nu grad xi~)
        half gap = 1/2 ||q~ + nu grad u~|| ||zeta~ + nu grad xi~||

    with l_O(u~, q~) = (f_O, u~) + <g_D_O, q~.n>_GD + <g_N_O, u~>_GN by its
    own quadrature.  The fields are evaluated from the pairs at the volume
    quadrature points, so the oracle checks compute_bounds' sums over
    modal coefficients against quadrature.  Audits the certificates as
    compute_bounds does, and raises ValueError when the data oscillation
    audit detects non-polynomial data (the guarantee would be lost)."""
    primal, adjoint = _audited_records(ws, primal_pair, adjoint_pair, data,
                                       out.adjoint_data())
    msgs = _oscillating_data(ws, primal) + _oscillating_data(ws, adjoint, "_O")
    if msgs:
        raise ValueError(
            "exact-equilibration bounds require elementwise-polynomial data "
            "of degree <= p; detected oscillation in: " + ", ".join(msgs))

    mesh = ws.mesh
    qn_dir = primal_pair[0].normal_trace(ws, mesh.dirichlet_facets)  # canonical = outward
    val = float(np.sum(ws.integrate_elementwise(ws.eval_data(out.f_O) * primal.u)))
    for fun, facets, tr in ((out.g_D_O, mesh.dirichlet_facets, qn_dir),
                            (out.g_N_O, mesh.neumann_facets, primal.u_neu)):
        if len(facets):
            g = ws.eval_data(fun, ws.ephys[facets])
            val += float(np.einsum("ft,ft,t,f->", g, tr, ws.ew, ws.facet_len[facets]))

    (q, u), (zeta, xi) = primal_pair, adjoint_pair
    nu = ws.nu[:, None, None]
    a = q.eval_values(ws) + nu * u.eval_grads(ws)
    zeta, grad_xi = zeta.eval_values(ws), nu * xi.eval_grads(ws)
    b, zeta_minus = zeta + grad_xi, zeta - grad_xi

    def inner(v, w):  # (nu^-1 v, w) by quadrature
        return float(np.sum(ws.integrate_elementwise(
            v[..., 0] * w[..., 0] + v[..., 1] * w[..., 1]) / ws.nu))

    cross = 0.5 * inner(a, zeta_minus)
    a2, b2 = inner(a, a), inner(b, b)
    half_gap = 0.5 * np.sqrt(a2 * b2)
    s_tilde = val + cross
    return BoundsResult(s_minus=float(s_tilde - half_gap),
                        s_plus=float(s_tilde + half_gap),
                        kappa=float(np.sqrt(b2 / a2)) if a2 > 0 else 1.0,
                        gap_elements=np.full(mesh.n_elements,
                                             2.0 * half_gap / mesh.n_elements),
                        half_gap=float(half_gap))
