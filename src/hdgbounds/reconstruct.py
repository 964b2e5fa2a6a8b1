"""Certified inputs to the bounds: the projected-equilibrated RT^p flux,
the superconvergent element potential, its continuous averaged version with
exact Dirichlet enforcement (including the band extension for
non-polynomial boundary data), and the optional elementwise minimization
of the combined residual.  Every step takes the workspace first, and no
field holds it or its mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import femcore as fc
from .hdg import DirichletBand, HDGSolution, ProblemData
from .mesh import Mesh
from .workspace import Workspace, _blocks, require_finite, spd_solve

__all__ = [
    "EquilibratedFlux",
    "ContinuousPotential",
    "reconstruct_flux",
    "postprocess_potential",
    "make_continuous",
    "enforce_dirichlet_band",
    "local_optimize",
    "certified_pairs",
    "EvaluatedPair",
    "interior_jumps",
    "evaluate",
    "flux_residuals",
    "potential_residuals",
]


# ---------------------------------------------------------------------------
# Field containers
# ---------------------------------------------------------------------------

@dataclass
class EquilibratedFlux:
    """Per-element vector polynomial with H(div) certificates.

    The field is stored componentwise in the mapped orthonormal modal basis
    of degree p+1 (RT^p embeds in [P^{p+1}]^2, and the optimized fluxes live
    there natively).  Certificates: elementwise div = Pi_K^p f, single-valued
    normal trace, Neumann trace Pi_e^p g_N.
    """

    coeffs: np.ndarray  # (ne, 2, n_modes(p+1))

    def eval_values(self, ws: Workspace, e=slice(None)) -> np.ndarray:
        """Values at the volume quadrature points of the elements e (a
        slice), (len(e), nq, 2)."""
        coeffs = self.coeffs[e]
        out = np.empty((len(coeffs), ws.nq, 2))
        for c in (0, 1):
            out[:, :, c] = (coeffs[:, c] @ ws.phi_m) / ws.sqrt_det[e, None]
        return out

    def eval_divergence(self, ws: Workspace) -> np.ndarray:
        """Divergence values at the volume quadrature points, (ne, nq): the
        coefficients mapped by J^-1, then one product with the reference
        gradients laid out as (2 nm, nq)."""
        ne, nm = self.coeffs.shape[0], ws.dphi_m.shape[0]
        grads = ws.dphi_m.transpose(2, 0, 1).reshape(2 * nm, ws.nq)
        return ((ws.jac_inv @ self.coeffs).reshape(ne, 2 * nm) @ grads
                ) / ws.sqrt_det[:, None]

    def normal_trace(self, ws: Workspace, facet_ids, side: int = 0) -> np.ndarray:
        """Trace v.n at facet quadrature points along the canonical normal,
        (len(facet_ids), ..., nqe) for coefficients (ne, ..., 2, n_modes)."""
        e = ws.mesh.facet_elems[facet_ids, side]
        v = ws.facet_trace(self.coeffs, ws.etab_m, facet_ids, side)
        shape = (len(e),) + (1,) * (v.ndim - 3)  # a facet, then the stacked axes
        v /= ws.sqrt_det[e].reshape(shape + (1, 1))
        n = ws.mesh.facet_normals[facet_ids].reshape(shape + (2, 1))
        return v[..., 0, :] * n[..., 0, :] + v[..., 1, :] * n[..., 1, :]


@dataclass
class BandCorrection:
    """The band extension ghat, added to the potential on the band
    elements; it vanishes on the band line, so the sum stays continuous.

    Its gradient g is analytic, so the bounds read it in two parts: its L2
    projection Pi g onto [P^{p+1}]^2, which grad_coeffs adds to the
    polynomial part, and the remainder g - Pi g, orthogonal to every
    polynomial of degree <= p+1 (EvaluatedPair.band_rem).  Pi g comes from
    the moments of g under the workspace rule, which is exact for the
    products of two polynomials of degree p+1 that the norms read."""

    elems: np.ndarray        # element ids inside the band, ascending
    ghat: Callable           # extension value (x, y) -> float
    grad: np.ndarray         # g at the volume quadrature points of elems, (nb, nq, 2)
    grad_proj: np.ndarray    # Pi g as mapped-modal coefficients, (nb, 2, nm)
    x_band: float


@dataclass
class ContinuousPotential:
    """Globally continuous piecewise P^{p+1} field, the values at the
    workspace's global nodes (ws.node_map numbers them), plus the analytic
    band extension on the band elements when ``correction`` is set; the
    trace of the sum on the Dirichlet boundary equals the datum exactly."""

    values: np.ndarray       # (n_global_nodes,)
    correction: Optional[BandCorrection] = None

    def nodal(self, ws: Workspace) -> np.ndarray:
        """The values at each element's nodes, (ne, n_nodes)."""
        return self.values[ws.node_map]

    def eval_values(self, ws: Workspace) -> np.ndarray:
        """Values at the volume quadrature points, (ne, nq)."""
        out = self.nodal(ws) @ ws.lag_vals.T
        if self.correction is not None:
            c = self.correction
            out[c.elems] += ws.eval_data(c.ghat, ws.qphys[c.elems])
        return out

    def grad_coeffs(self, ws: Workspace) -> np.ndarray:
        """Mapped-modal P^{p+1} coefficients of the gradient's polynomial
        part, (ne, 2, nm): the reference gradients lag_grads_m of the nodal
        values, mapped by J^-T, plus Pi g on the band elements; the rest of
        the gradient is the band remainder g - Pi g (BandCorrection)."""
        ref = (self.nodal(ws) @ ws.lag_grads_m.reshape(ws.n_nodes, -1)).reshape(
            ws.mesh.n_elements, 2, ws.nm)
        out = (ws.jac_inv_t @ ref) * ws.sqrt_det[:, None, None]
        if self.correction is not None:
            out[self.correction.elems] += self.correction.grad_proj
        return out

    def eval_grads(self, ws: Workspace) -> np.ndarray:
        """Gradients at the volume quadrature points, (ne, nq, 2)."""
        out = (self.nodal(ws) @ ws.lag_grads.reshape(ws.n_nodes, -1)).reshape(
            ws.mesh.n_elements, ws.nq, 2) @ ws.jac_inv  # mapped by J^-T
        if self.correction is not None:
            c = self.correction
            out[c.elems] += c.grad
        return out

    def trace_values(self, ws: Workspace, facet_ids, side=0, out=None):
        """Trace at facet quadrature points (corrections included); a given
        out holds the trace of the nodal values and is corrected in place."""
        if out is None:
            out = ws.facet_trace(self.nodal(ws), ws.lag_edge, facet_ids, side)
        if self.correction is not None:
            c = self.correction
            f = np.asarray(facet_ids)
            sel = np.flatnonzero(np.isin(ws.mesh.facet_elems[f, side], c.elems))
            out[sel] += ws.eval_data(c.ghat, ws.ephys[f[sel]])
        return out


# ---------------------------------------------------------------------------
# Flux reconstruction
# ---------------------------------------------------------------------------

def reconstruct_flux(ws: Workspace, sol: HDGSolution) -> EquilibratedFlux:
    """RT^p reconstruction from the HDG numerical flux: facet moments match
    qhat.n against P^p(e) on every facet, interior moments match q_h against
    [P^{p-1}(K)]^2 when p >= 1.

    The flux is q = J y / det J with y in the reference RT^p space, whose
    degrees of freedom are Piola invariant: on each element the facet
    moments are the reference ones times esign / sqrt(|e|) and the parity
    (-1)^k of the facet modes walked against the local edge direction, and
    the interior moments are the reference ones mixed by J / sqrt(det J).
    So every element combines its moments with the one reference dual
    basis ws.rt_dofs (femcore._reference_rt).
    """
    ne, p, F1 = ws.mesh.n_elements, ws.p, ws.p + 1
    n1 = fc.n_modes(p - 1)
    flip = np.where(ws.eo[:, :, None] == 1, 1.0, (-1.0) ** np.arange(F1))
    rhs = np.empty((ne, len(ws.rt_dofs)))
    rhs[:, :3 * F1] = (sol.qhat_n[ws.ef] * flip * (
        ws.esign * np.sqrt(ws.elen))[:, :, None]).reshape(ne, 3 * F1)
    rhs[:, 3 * F1:] = (ws.jac_inv @ sol.q[:, :, :n1]).reshape(ne, 2 * n1) \
        * ws.sqrt_det[:, None]
    coeffs = ws.jac @ (rhs @ ws.rt_dofs).reshape(ne, 2, -1) \
        / ws.sqrt_det[:, None, None]
    return EquilibratedFlux(coeffs)


# ---------------------------------------------------------------------------
# Potential post-processing
# ---------------------------------------------------------------------------

def postprocess_potential(ws: Workspace, sols, fluxes) -> np.ndarray:
    """Element P^{p+1} potentials, one elimination for all HDG solutions
    sols: (grad u*, grad w)_K matches the flux data -(nu^-1 q~, grad w)_K,
    mean value pinned to u_h.  Returns mapped-modal coefficients
    (len(sols), ne, n_modes(p+1))."""
    nm, ne = ws.nm, ws.mesh.n_elements
    ginv = _metrics(ws)[1]   # (J^T J)^-1 = J^-1 J^-T, against S2's parts
    rhs = np.stack([-((ws.jac_inv @ flux.coeffs).reshape(ne, 2 * nm)
                      @ ws.Qm.reshape(2 * nm, nm)) / ws.nu[:, None]
                    for flux in fluxes], axis=2)
    coeffs = np.empty((len(sols), ne, nm))
    for e in _blocks(ne):
        K = (ginv[e] @ ws.S2).reshape(-1, nm - 1, nm - 1)
        coeffs[:, e, 1:] = spd_solve(K, rhs[e, 1:]).transpose(2, 0, 1)
    coeffs[:, :, 0] = [sol.u[:, 0] for sol in sols]  # (u*, 1)_K = (u_h, 1)_K
    return coeffs


# ---------------------------------------------------------------------------
# Continuous potential: averaging + Dirichlet enforcement
# ---------------------------------------------------------------------------

def make_continuous(ws: Workspace, ustars, g_Ds) -> list[ContinuousPotential]:
    """Average each datum's element potentials at shared Lagrange nodes and
    set Dirichlet-boundary nodes to its datum (exact whenever the datum is a
    facetwise polynomial of degree <= p+1; otherwise follow up with
    enforce_dirichlet_band)."""
    nodes, dnodes = ws.node_map.ravel(), ws.dirichlet_nodes
    n_global = len(ws.node_coords)
    count = np.bincount(nodes, minlength=n_global)
    pots = []
    for ustar, g_D in zip(ustars, g_Ds):
        nodal = np.einsum("kj,ej->ek", ws.vand_m, ustar) / ws.sqrt_det[:, None]
        values = np.bincount(nodes, nodal.ravel(), minlength=n_global) / count
        values[dnodes] = ws.eval_data(g_D, ws.node_coords[dnodes])
        pots.append(ContinuousPotential(values))
    return pots


def _find_band_line(mesh: Mesh, band: DirichletBand) -> tuple[float, np.ndarray]:
    """The admissible band line nearest the interior, and the elements
    between it and the portion, ascending."""
    ax, val = band.axis, band.value
    coords = mesh.vertices[:, ax]
    tol = 1e-12 * (1.0 + np.abs(val))
    below = coords < val - tol
    above = coords > val + tol
    if below.any() and above.any():
        raise ValueError("band portion must lie on the boundary of the domain")
    side = 1.0 if below.any() else -1.0  # interior on the smaller-coordinate side?
    cand = np.unique(coords[below if below.any() else above])
    # walk candidates from the portion inward; a line is admissible when no
    # element interior straddles it
    elem_c = coords[mesh.elements]
    cmin, cmax = elem_c.min(axis=1), elem_c.max(axis=1)
    for c in cand[::-1] if side > 0 else cand:  # np.unique sorts ascending
        if not np.any((cmin < c - tol) & (cmax > c + tol)):
            return float(c), np.flatnonzero(cmin >= c - tol if side > 0
                                            else cmax <= c + tol)
    raise ValueError("no admissible band line found; refine the mesh near the portion")


def enforce_dirichlet_band(ws: Workspace, pot: ContinuousPotential,
                           band: DirichletBand) -> ContinuousPotential:
    """Exact Dirichlet enforcement for a non-polynomial datum on a straight
    coordinate-aligned boundary portion.

    Builds the linear-blend extension ghat of the datum, ``band.profile``,
    over the band between the admissible mesh line and the portion.  The
    potential becomes its nodal values minus ghat at the band elements'
    nodes, plus ghat itself on the band elements: the nodes on the portion
    then hold g_D - ghat = 0, so the trace there is ghat, the datum, while
    ghat = 0 on the band line keeps the sum continuous.  The gradient of
    ghat is evaluated here, once, at the band elements' volume points, and
    projected onto [P^{p+1}]^2 (BandCorrection).  Raises ValueError on a
    potential that already carries a band correction, NonFiniteDataError
    where the profile or its derivative is not finite.
    """
    ax = band.axis
    if pot.correction is not None:
        raise ValueError("the potential already carries a band correction")
    if ax not in (0, 1):
        raise ValueError("band portions must be coordinate-aligned (axis 0 or 1)")
    x_band, band_elems = _find_band_line(ws.mesh, band)
    width = band.value - x_band
    profile, dprofile = band.profile, band.profile_deriv

    def ghat(x, y):
        a, s = (x, y) if ax == 0 else (y, x)
        return np.asarray(profile(s), dtype=float) * (a - x_band) / width

    nodes = np.unique(ws.node_map[band_elems])
    values = pot.values.copy()
    values[nodes] -= ws.eval_data(ghat, ws.node_coords[nodes])
    pts = ws.qphys[band_elems]
    a, s = pts[..., ax], pts[..., 1 - ax]
    grad = np.empty(pts.shape)
    grad[..., ax] = np.asarray(profile(s), dtype=float) / width
    grad[..., 1 - ax] = np.asarray(dprofile(s), dtype=float) * ((a - x_band) / width)
    proj = np.einsum("eqc,mq,q->ecm", require_finite(grad, pts), ws.phi_m, ws.qw
                     ) * ws.sqrt_det[band_elems, None, None]
    corr = BandCorrection(elems=band_elems, ghat=ghat, grad=grad,
                          grad_proj=proj, x_band=x_band)
    return replace(pot, values=values, correction=corr)


# ---------------------------------------------------------------------------
# Evaluated pairs and certificate audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EvaluatedPair:
    """What the audit and the bounds read of a pair and its data.

    The polynomial parts as mapped-modal P^{p+1} coefficients (ne, 2, nm),
    whose L2 norms and products are sums over the coefficients (Parseval):
    residual, q~ + nu grad u~, and grad_u, grad u~, each with the projection
    Pi g of the band gradient g on the band elements.  The rest there,
    band_rem = g - Pi g at the volume quadrature points (len(band), nq, 2),
    is orthogonal to the coefficients' polynomials, so its quadrature adds
    to their norms.  sum (nu^-1 q~, q~) from the coefficients.  On
    quadrature, where the integrand is data or the check is pointwise:
    max |q~| at the volume points, max_K h_K max |div q~ - Pi_p f|,
    interior_jumps, max |q~.n - Pi_e g_N| on neumann_facets, and
    max |u~ - g_D| and max |g_D| on dirichlet_facets; at the volume points
    u~, f and f - Pi_p f; on neumann_facets u~, g_N, Pi_e g_N."""

    q_max: float
    q_energy: float
    div_residual: float
    normal_jump: float
    continuity: float
    neumann: float
    dirichlet: float
    g_D_max: float
    residual: np.ndarray
    grad_u: np.ndarray
    band: np.ndarray
    band_rem: np.ndarray
    u: np.ndarray
    f: np.ndarray
    f_osc: np.ndarray
    u_neu: np.ndarray
    g_N: np.ndarray
    g_N_proj: np.ndarray


def interior_jumps(ws: Workspace, pairs) -> np.ndarray:
    """max |[q~.n]| and max |[u~]| on the interior facets, a row per pair:
    one trace per side and field of the pairs' stacked coefficients."""
    facets = ws.mesh.interior_facets
    flux = EquilibratedFlux(np.stack([q.coeffs for q, _ in pairs], axis=1))
    nodal = np.stack([pot.nodal(ws) for _, pot in pairs], axis=1)
    qn, u = [], []
    for side in (0, 1):
        qn.append(flux.normal_trace(ws, facets, side))
        u.append(ws.facet_trace(nodal, ws.lag_edge, facets, side))
        for i, (_, pot) in enumerate(pairs):  # band corrections per pair
            pot.trace_values(ws, facets, side, out=u[side][:, i])
    # pair by pair, so that each max runs over contiguous values
    return np.array([[np.abs(t0[:, i] - t1[:, i]).max(initial=0.0)
                      for t0, t1 in (qn, u)] for i in range(len(pairs))])


def evaluate(ws: Workspace, flux: EquilibratedFlux, pot: ContinuousPotential,
             data: ProblemData, jumps=None) -> EvaluatedPair:
    """Evaluate a pair and its data once, each array reduced once it is read;
    jumps is the pair's row of interior_jumps (of this pair alone if None)."""
    jumps = interior_jumps(ws, [(flux, pot)])[0] if jumps is None else jumps
    neu, dfac = ws.mesh.neumann_facets, ws.mesh.dirichlet_facets
    f = ws.eval_data(data.f)
    f_osc = ws.proj_p(f)
    div_residual = (np.abs(flux.eval_divergence(ws) - f_osc).max(axis=1)
                    * ws.h).max()
    np.subtract(f, f_osc, out=f_osc)
    q, grad_u, corr = flux.coeffs, pot.grad_coeffs(ws), pot.correction
    if corr is None:
        band, band_rem = np.empty(0, dtype=int), np.empty((0, ws.nq, 2))
    else:
        band = corr.elems
        band_rem = corr.grad - np.einsum("ecm,mq->eqc", corr.grad_proj, ws.phi_m
                                         ) / ws.sqrt_det[band, None, None]
    g_N = ws.eval_data(data.g_N, ws.ephys[neu])
    g_N_proj = ws.facet_proj_p(g_N, neu)
    g_D = ws.eval_data(data.g_D, ws.ephys[dfac])
    return EvaluatedPair(
        q_max=np.max([np.abs(flux.eval_values(ws, e)).max()
                      for e in _blocks(ws.mesh.n_elements)]),
        q_energy=(np.einsum("ecm,ecm->e", q, q) / ws.nu).sum(),
        div_residual=div_residual, normal_jump=jumps[0], continuity=jumps[1],
        neumann=np.abs(flux.normal_trace(ws, neu) - g_N_proj).max(initial=0.0),
        dirichlet=np.abs(pot.trace_values(ws, dfac) - g_D).max(),
        g_D_max=np.abs(g_D).max(),
        residual=q + ws.nu[:, None, None] * grad_u, grad_u=grad_u, band=band,
        band_rem=band_rem,
        u=pot.eval_values(ws), f=f, f_osc=f_osc,
        u_neu=pot.trace_values(ws, neu), g_N=g_N, g_N_proj=g_N_proj)


def _relative(res, scale) -> float:
    """res / scale, so that reading it against tol means res <= tol * scale:
    0 for a zero residual (of a zero field too), inf for a nonzero residual
    against a zero scale, NaN for a NaN residual."""
    if res == 0:
        return 0.0
    return float(res / scale) if scale > 0 else float("inf")


def flux_residuals(ws: Workspace, rec: EvaluatedPair) -> dict:
    """Residuals of the three equilibration certificates relative to the
    flux scale: the divergence residual times h_K, and the pointwise
    normal-jump and Neumann trace errors.  The scale is max |q~|, or
    nu_K max_K |u~| / h_K where that is larger: the flux comes from
    potential differences over h_K, so where u~ is nearly constant q~ is
    round-off of that size."""
    qscale = np.maximum(rec.q_max, (ws.nu * np.abs(rec.u).max(axis=1)
                                    / ws.h).max())
    return {"divergence": _relative(rec.div_residual, qscale),
            "normal_jump": _relative(rec.normal_jump, qscale),
            "neumann": _relative(rec.neumann, np.maximum(
                qscale, np.abs(rec.g_N_proj).max(initial=0.0)))}


def potential_residuals(ws: Workspace, rec: EvaluatedPair) -> dict:
    """Dirichlet trace error (corrections included) and inter-element
    continuity of the potential, relative to max |u~| (and to the datum)."""
    umax = np.abs(rec.u).max()
    return {"dirichlet_trace": _relative(rec.dirichlet, np.maximum(umax, rec.g_D_max)),
            "continuity": _relative(rec.continuity, umax)}


# ---------------------------------------------------------------------------
# Local optimization of the combined residual
# ---------------------------------------------------------------------------

def _metrics(ws: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """The entries 00, 01, 11 of J^T J and of (J^T J)^-1, (ne, 3) each."""
    (a0, b0), (a1, b1) = ws.jac[:, 0].T, ws.jac[:, 1].T
    jtj = np.column_stack([a0 * a0 + a1 * a1, a0 * b0 + a1 * b1,
                           b0 * b0 + b1 * b1])
    return jtj, jtj[:, ::-1] * ([1.0, -1.0, 1.0] / ws.det[:, None] ** 2)


def _normal_matrix(ws: Workspace, jtj, ginv) -> np.ndarray:
    """local_optimize's normal matrix (ne, k, k) from the _metrics of ws."""
    ne, k, nu = ws.mesh.n_elements, ws.opt_nullspace.shape[1], ws.nu[:, None]
    return (np.concatenate([jtj / nu, ginv * nu], axis=1) @ ws.opt_gram
            ).reshape(ne, k, k) + ws.opt_cross


def local_optimize(ws: Workspace, pairs
                   ) -> list[tuple[EquilibratedFlux, ContinuousPotential]]:
    """Per element, minimize ||q* + nu grad u*||_K of each pair over q* in
    [P^{p+1}]^2 and u* in P^{p+1} subject to: div q* = Pi_K^p f, q*.n = q~.n
    on dK, u* = u~ on dK, and (u*, 1)_K preserved; returns the pairs in order.
    The inputs are feasible, so the objective never increases; all flux
    certificates, the potential traces, and the element means are preserved.

    The feasible directions are the reference nullspace mapped to each
    element (ws.opt_nullspace, see femcore._reference_nullspace; k = 0 at
    p = 0).  Along them each element solves the k x k normal equations,
    assembled from reference tensors (femcore._reference_opt_tensors): the
    matrix, of the mesh alone, from one product of the element metrics
    J^T J / nu and nu (J^T J)^-1 with the Gram tensors, a right-hand side per
    pair from the coefficients of its residual q~ + nu grad u~ (flux.coeffs
    and grad_coeffs).  A band remainder g - Pi g (BandCorrection) is
    orthogonal to every feasible direction, whose flux lies in [P^{p+1}]^2
    and whose potential gradient in [P^p]^2, so it adds nothing.  The
    rotated basis and a diagonal (Jacobi) scaling keep the matrix well
    conditioned on graded meshes.
    Any step along the directions keeps the pairs feasible, so the
    certificates do not depend on the accuracy of the solve; only the
    optimality does.
    """
    nm, ne = ws.nm, ws.mesh.n_elements
    N = ws.opt_nullspace
    k = N.shape[1]
    M = _normal_matrix(ws, *_metrics(ws))
    # right-hand sides from the coefficients of the residuals, (ne, k, pairs)
    nu = ws.nu[:, None, None]
    wq = np.concatenate([ws.jac / nu, ws.jac_inv_t], axis=2)
    b = np.stack([np.einsum("edj,edjk->ek", wq, (
        (flux.coeffs + nu * pot.grad_coeffs(ws)).reshape(2 * ne, nm)
        @ ws.opt_rhs_q).reshape(ne, 2, 4, k)) for flux, pot in pairs], axis=2)

    d = 1.0 / np.sqrt(np.einsum("ekk->ek", M))
    X = spd_solve(M * d[:, :, None] * d[:, None, :], d[:, :, None] * b)

    Nq, Nu = N[:2 * nm], N[2 * nm:]
    # boundary traces are constrained, so only interior node values move
    slots = ws.lattice.interior_slots
    out = []
    for i, (flux, pot) in enumerate(pairs):
        xi = -d * X[:, :, i]
        coeffs = flux.coeffs + ws.jac @ (xi @ Nq.T).reshape(ne, 2, nm)
        values = pot.values.copy()
        values[ws.node_map[:, slots]] += (
            xi @ (ws.vand_m[slots] @ Nu).T) / ws.sqrt_det[:, None]
        out.append((replace(flux, coeffs=coeffs), replace(pot, values=values)))
    return out


# ---------------------------------------------------------------------------
# The pair recipe
# ---------------------------------------------------------------------------

def certified_pairs(ws: Workspace, sols, datas, optimize: bool = False
                    ) -> list[tuple[EquilibratedFlux, ContinuousPotential]]:
    """The pairs (q~, u~) of the HDG solutions sols of the problems with
    datas: the equilibrated fluxes, the continuous potentials (one solve and
    one averaging for all), then per pair the band extension when its data
    carry one and, with ``optimize``, the local optimization of all pairs."""
    fluxes = [reconstruct_flux(ws, sol) for sol in sols]
    pots = make_continuous(ws, postprocess_potential(ws, sols, fluxes),
                           [d.g_D for d in datas])
    pairs = [(flux, pot if data.band is None
              else enforce_dirichlet_band(ws, pot, data.band))
             for flux, pot, data in zip(fluxes, pots, datas)]
    return local_optimize(ws, pairs) if optimize else pairs
