"""Certified inputs to the bounds: the projected-equilibrated RT^p flux,
the superconvergent element potential, its continuous averaged version with
exact Dirichlet enforcement (including the band extension for
non-polynomial boundary data), and the optional elementwise minimization
of the combined residual.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import femcore as fc
from .hdg import DirichletBand, HDGSolution, ProblemData
from .mesh import Mesh
from .workspace import Workspace, require_finite

__all__ = [
    "EquilibratedFlux",
    "ContinuousPotential",
    "reconstruct_flux",
    "postprocess_potential",
    "make_continuous",
    "enforce_dirichlet_band",
    "local_optimize",
    "EvaluatedPair",
    "evaluate",
    "flux_residuals",
    "potential_residuals",
    "dump_fields",
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

    mesh: Mesh
    p: int
    coeffs: np.ndarray  # (ne, 2, n_modes(p+1))

    @property
    def degree(self) -> int:
        return self.p + 1

    def eval_values(self, ws: Workspace) -> np.ndarray:
        """Values at the volume quadrature points, (ne, nq, 2)."""
        out = np.empty((self.mesh.n_elements, ws.nq, 2))
        for c in (0, 1):
            out[:, :, c] = (self.coeffs[:, c] @ ws.phi_m) / ws.sqrt_det[:, None]
        return out

    def eval_divergence(self, ws: Workspace) -> np.ndarray:
        """Divergence values at the volume quadrature points, (ne, nq)."""
        out = np.zeros((self.mesh.n_elements, ws.nq))
        for c in (0, 1):
            for d in (0, 1):
                out += (self.coeffs[:, c] @ ws.dphi_m[:, :, d]) \
                    * ws.jac_inv_t[:, c, d, None]
        return out / ws.sqrt_det[:, None]

    def normal_trace(self, ws: Workspace, facet_ids, side: int = 0) -> np.ndarray:
        """Trace v.n at facet quadrature points along the canonical normal."""
        e = self.mesh.facet_elems[facet_ids, side]
        v = ws.facet_trace(self.coeffs, ws.etab_m, facet_ids, side
                           ) / ws.sqrt_det[e, None, None]
        n = self.mesh.facet_normals[facet_ids]
        return v[:, 0] * n[:, 0:1] + v[:, 1] * n[:, 1:2]


@dataclass
class BandCorrection:
    """Non-polynomial additive correction on the band elements."""

    elems: np.ndarray            # element ids inside the band
    ghat: Callable               # extension value (x, y) -> float
    ghat_grad: Callable          # extension gradient (x, y) -> (..., 2)
    nodal: np.ndarray            # (len(elems), n_nodes) interpolant values
    x_band: float

    def grads_at(self, pts):
        return require_finite(np.asarray(
            self.ghat_grad(pts[..., 0], pts[..., 1]), dtype=float), pts)


@dataclass
class ContinuousPotential:
    """Globally continuous piecewise P^{p+1} field plus optional analytic
    band corrections; the trace on the Dirichlet boundary equals the datum
    exactly (corrections included)."""

    mesh: Mesh
    degree: int
    values: np.ndarray       # (n_global_nodes,)
    node_map: np.ndarray     # (ne, n_nodes_per_element)
    correction: Optional[BandCorrection] = None

    def nodal(self) -> np.ndarray:
        return self.values[self.node_map]

    def eval_values(self, ws: Workspace) -> np.ndarray:
        out = self.nodal() @ ws.lag_vals.T
        if self.correction is not None:
            c = self.correction
            out[c.elems] += (ws.eval_data(c.ghat, ws.qphys[c.elems])
                             - c.nodal @ ws.lag_vals.T)
        return out

    def eval_grads(self, ws: Workspace) -> np.ndarray:
        def grads(nodal, jac_inv):  # reference gradients mapped by J^-T
            return (nodal @ ws.lag_grads.reshape(ws.n_nodes, -1)).reshape(
                len(nodal), ws.nq, 2) @ jac_inv
        out = grads(self.nodal(), ws.jac_inv)
        if self.correction is not None:
            c = self.correction
            out[c.elems] += (c.grads_at(ws.qphys[c.elems])
                             - grads(c.nodal, ws.jac_inv[c.elems]))
        return out

    def trace_values(self, ws: Workspace, facet_ids, side: int = 0) -> np.ndarray:
        """Trace at facet quadrature points (corrections included)."""
        out = ws.facet_trace(self.nodal(), ws.lag_edge, facet_ids, side)
        if self.correction is not None:
            c = self.correction
            band = np.zeros((self.mesh.n_elements, ws.n_nodes))
            band[c.elems] = c.nodal
            f = np.asarray(facet_ids)
            sel = np.flatnonzero(np.isin(self.mesh.facet_elems[f, side], c.elems))
            out[sel] += (ws.eval_data(c.ghat, ws.ephys[f[sel]])
                         - ws.facet_trace(band, ws.lag_edge, f[sel], side))
        return out


# ---------------------------------------------------------------------------
# Flux reconstruction
# ---------------------------------------------------------------------------

def reconstruct_flux(sol: HDGSolution) -> EquilibratedFlux:
    """RT^p reconstruction from the HDG numerical flux: facet moments match
    qhat.n against P^p(e) on every facet, interior moments match q_h against
    [P^{p-1}(K)]^2 when p >= 1.

    The flux is q = J y / det J with y in the reference RT^p space, whose
    degrees of freedom are Piola invariant: on each element the facet
    moments are the reference ones times esign / sqrt(|e|) and the parity
    (-1)^k of the facet modes walked against the local edge direction, and
    the interior moments are the reference ones mixed by J / sqrt(det J).
    So every element solves with the one reference matrix ws.rt_A
    (femcore._reference_rt).
    """
    ws = sol.ws
    ne, p, F1 = sol.mesh.n_elements, sol.p, sol.p + 1
    n1 = fc.n_modes(p - 1) if p else 0
    T, A = ws.rt_T, ws.rt_A
    flip = np.where(ws.eo[:, :, None] == 1, 1.0, (-1.0) ** np.arange(F1))
    rhs = np.empty((ne, len(T)))
    rhs[:, :3 * F1] = (sol.qhat_n[ws.ef] * flip * (ws.esign * np.sqrt(ws.elen))[
        :, :, None]).reshape(ne, 3 * F1)
    rhs[:, 3 * F1:] = (ws.jac_inv @ sol.q[:, :, :n1]).reshape(ne, 2 * n1) \
        * ws.sqrt_det[:, None]
    # reference coefficients beta = A^-1 rhs, and their modal coefficients
    yhat = (rhs @ np.linalg.solve(A.T, T.reshape(len(T), -1))).reshape(ne, 2, -1)
    return EquilibratedFlux(mesh=sol.mesh, p=p,
                            coeffs=ws.jac @ yhat / ws.sqrt_det[:, None, None])


# ---------------------------------------------------------------------------
# Potential post-processing
# ---------------------------------------------------------------------------

def postprocess_potential(sol: HDGSolution, flux: EquilibratedFlux) -> np.ndarray:
    """Element P^{p+1} potential: (grad u*, grad w)_K matches the flux data
    -(nu^-1 q~, grad w)_K, mean value pinned to u_h.  Returns mapped-modal
    coefficients (ne, n_modes(p+1))."""
    ws, ne, nm = sol.ws, sol.mesh.n_elements, sol.ws.nm
    G = ws.jac_inv @ ws.jac_inv_t                       # G[e, r, s]
    K = (G.reshape(ne, 4) @ ws.S2.reshape(4, nm * nm)).reshape(ne, nm, nm)
    rhs = -((ws.jac_inv @ flux.coeffs).reshape(ne, 2 * nm)
            @ ws.Qm.reshape(2 * nm, nm)) / ws.nu[:, None]
    coeffs = np.zeros((ne, nm))
    coeffs[:, 1:] = np.linalg.solve(K[:, 1:, 1:], rhs[:, 1:, None])[:, :, 0]
    coeffs[:, 0] = sol.u[:, 0]  # same constant mode pins (u*, 1)_K = (u_h, 1)_K
    return coeffs


# ---------------------------------------------------------------------------
# Continuous potential: averaging + Dirichlet enforcement
# ---------------------------------------------------------------------------

def make_continuous(ustar: np.ndarray, g_D, ws: Workspace) -> ContinuousPotential:
    """Average the element potentials at shared Lagrange nodes and set
    Dirichlet-boundary nodes to the datum (exact whenever the datum is a
    facetwise polynomial of degree <= p+1; otherwise follow up with
    enforce_dirichlet_band)."""
    n_global, node_map, coords = ws.global_nodes()
    nodal = np.einsum("kj,ej->ek", ws.vand_m, ustar) / ws.sqrt_det[:, None]
    values = np.zeros(n_global)
    counts = np.zeros(n_global)
    np.add.at(values, node_map.ravel(), nodal.ravel())
    np.add.at(counts, node_map.ravel(), 1.0)
    values /= counts

    dnodes = ws.dirichlet_nodes()
    values[dnodes] = ws.eval_data(g_D, coords[dnodes])
    return ContinuousPotential(mesh=ws.mesh, degree=ws.m, values=values,
                               node_map=node_map)


def _find_band_line(mesh: Mesh, band: DirichletBand) -> float:
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
    order = np.argsort(cand)[::-1] if side > 0 else np.argsort(cand)
    for c in cand[order]:
        if not np.any((cmin < c - tol) & (cmax > c + tol)):
            return float(c)
    raise ValueError("no admissible band line found; refine the mesh near the portion")


def enforce_dirichlet_band(pot: ContinuousPotential, g_D, band: DirichletBand,
                           ws: Workspace) -> ContinuousPotential:
    """Exact Dirichlet enforcement for a non-polynomial datum on a straight
    coordinate-aligned boundary portion.

    Builds the linear-blend extension of the datum over the band between the
    admissible mesh line and the portion, and attaches the interpolation
    error as an analytic per-element correction, so the trace on the portion
    is exact while global continuity is preserved.
    """
    mesh, ax = ws.mesh, band.axis
    if ax not in (0, 1):
        raise ValueError("band portions must be coordinate-aligned (axis 0 or 1)")
    x_band = _find_band_line(mesh, band)
    val = band.value
    width = val - x_band
    profile, dprofile = band.profile, band.profile_deriv

    def ghat(x, y):
        a = x if ax == 0 else y
        s = y if ax == 0 else x
        return np.asarray(profile(s), dtype=float) * (a - x_band) / width

    def ghat_grad(x, y):
        a = x if ax == 0 else y
        s = y if ax == 0 else x
        blend = (a - x_band) / width
        da = np.asarray(profile(s), dtype=float) / width
        ds = np.asarray(dprofile(s), dtype=float) * blend
        out = np.empty(np.broadcast(x, y).shape + (2,))
        out[..., ax] = da
        out[..., 1 - ax] = ds
        return out

    tol = 1e-12 * (1.0 + abs(val))
    elem_c = mesh.vertices[mesh.elements][:, :, ax]
    if width > 0:
        band_elems = np.nonzero(elem_c.min(axis=1) >= x_band - tol)[0]
    else:
        band_elems = np.nonzero(elem_c.max(axis=1) <= x_band + tol)[0]
    nodal = ws.eval_data(ghat, ws.node_phys[band_elems])
    corr = BandCorrection(elems=band_elems, ghat=ghat, ghat_grad=ghat_grad,
                          nodal=nodal, x_band=x_band)
    return replace(pot, correction=corr)


# ---------------------------------------------------------------------------
# Evaluated pairs and certificate audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EvaluatedPair:
    """A reconstruction pair and its data, evaluated once.

    At the volume quadrature points, (ne, nq) or (ne, nq, 2): the flux q~,
    its divergence, the potential u~ and its gradient (band correction
    applied), the residual q~ + nu grad u~, the source f and Pi_p f.  On
    the mesh's neumann_facets, (len(neumann_facets), nqe): q~.n, the trace
    of u~, g_N and Pi_e g_N.
    """

    flux: EquilibratedFlux
    pot: ContinuousPotential
    data: ProblemData
    q: np.ndarray
    div: np.ndarray
    u: np.ndarray
    grad_u: np.ndarray
    residual: np.ndarray
    f: np.ndarray
    f_proj: np.ndarray
    qn: np.ndarray
    u_neu: np.ndarray
    g_N: np.ndarray
    g_N_proj: np.ndarray


def evaluate(flux: EquilibratedFlux, pot: ContinuousPotential,
             data: ProblemData, ws: Workspace) -> EvaluatedPair:
    """Evaluate a pair and its data once, for the audit and the bounds."""
    neu = ws.mesh.neumann_facets
    q, grad_u = flux.eval_values(ws), pot.eval_grads(ws)
    f, g_N = ws.eval_data(data.f), ws.eval_data(data.g_N, ws.ephys[neu])
    return EvaluatedPair(
        flux=flux, pot=pot, data=data, q=q, div=flux.eval_divergence(ws),
        u=pot.eval_values(ws), grad_u=grad_u,
        residual=q + ws.nu[:, None, None] * grad_u, f=f, f_proj=ws.proj_p(f),
        qn=flux.normal_trace(ws, neu),
        u_neu=pot.trace_values(ws, neu), g_N=g_N,
        g_N_proj=ws.facet_proj_p(g_N, neu))


def _relative(res, scale) -> float:
    """res / scale, so that reading it against tol means res <= tol * scale:
    0 for a zero residual (of a zero field too), inf for a nonzero residual
    against a zero scale, NaN for a NaN residual."""
    if res == 0:
        return 0.0
    return float(res / scale) if scale > 0 else float("inf")


def flux_residuals(rec: EvaluatedPair, ws: Workspace) -> dict:
    """Residuals of the three equilibration certificates relative to the
    flux scale: the divergence residual times h_K, and the pointwise
    normal-jump and Neumann trace errors.  The scale is max |q~|, or
    nu_K max_K |u~| / h_K where that is larger: the flux comes from
    potential differences over h_K, so where u~ is nearly constant q~ is
    round-off of that size."""
    h = ws.elen.max(axis=1)
    qscale = np.maximum(np.abs(rec.q).max(),
                        (ws.nu * np.abs(rec.u).max(axis=1) / h).max())
    div_res = np.abs(rec.div - rec.f_proj).max(axis=1) * h
    out = {"divergence": _relative(div_res.max(), qscale)}

    interior = ws.mesh.interior_facets
    t0 = rec.flux.normal_trace(ws, interior, side=0)
    t1 = rec.flux.normal_trace(ws, interior, side=1)
    out["normal_jump"] = _relative(np.abs(t0 - t1).max(initial=0.0), qscale)
    out["neumann"] = _relative(
        np.abs(rec.qn - rec.g_N_proj).max(initial=0.0),
        np.maximum(qscale, np.abs(rec.g_N_proj).max(initial=0.0)))
    return out


def potential_residuals(rec: EvaluatedPair, ws: Workspace) -> dict:
    """Dirichlet trace error (corrections included) and inter-element
    continuity of the potential, relative to max |u~| (and to the datum)."""
    pot, mesh = rec.pot, ws.mesh
    umax = np.abs(rec.u).max()
    dfac = mesh.dirichlet_facets
    tr = pot.trace_values(ws, dfac, side=0)
    g = ws.eval_data(rec.data.g_D, ws.ephys[dfac])
    out = {"dirichlet_trace": _relative(np.abs(tr - g).max(),
                                        np.maximum(umax, np.abs(g).max()))}
    interior = mesh.interior_facets
    t0 = pot.trace_values(ws, interior, side=0)
    t1 = pot.trace_values(ws, interior, side=1)
    out["continuity"] = _relative(np.abs(t0 - t1).max(initial=0.0), umax)
    return out


# ---------------------------------------------------------------------------
# Local optimization of the combined residual
# ---------------------------------------------------------------------------

def local_optimize(flux: EquilibratedFlux, pot: ContinuousPotential,
                   ws: Workspace) -> tuple[EquilibratedFlux, ContinuousPotential]:
    """Per element, minimize ||q* + nu grad u*||_K over q* in [P^{p+1}]^2 and
    u* in P^{p+1} subject to: div q* = Pi_K^p f, q*.n = q~.n on dK, u* = u~
    on dK, and (u*, 1)_K preserved.  The input pair is feasible, so the
    objective never increases; all flux certificates, the potential traces,
    and the element means are preserved.

    The feasible directions are the reference nullspace mapped to each
    element (ws.opt_nullspace, see femcore._reference_nullspace); all
    elements are solved in one batched least-squares step.
    """
    nm, nq, ne = ws.nm, ws.nq, ws.mesh.n_elements
    N = ws.opt_nullspace
    k = N.shape[1]
    if k == 0:  # p = 0: the constraints fix the pair
        return (replace(flux, coeffs=flux.coeffs.copy()),
                replace(pot, values=pot.values.copy()))
    Nq, Nu = N[:2 * nm], N[2 * nm:]

    # objective rows sqrt(w detJ / nu) * (q* + nu grad u*), ordered by
    # (component, quadrature point), along each direction: reference tables
    # mapped by J (flux) and J^-T (potential gradient)
    qdir = np.einsum("aq,rak->rqk", ws.phi_m, Nq.reshape(2, nm, k)).reshape(2, nq * k)
    gdir = np.einsum("aqd,ak->dqk", ws.dphi_m, Nu).reshape(2, nq * k)
    sqw = np.sqrt(ws.wdet / ws.nu[:, None])                      # (ne, nq)
    B = (ws.jac @ qdir + ws.nu[:, None, None] * (ws.jac_inv_t @ gdir)
         ).reshape(ne, 2, nq, k) * (sqw / ws.sqrt_det[:, None])[:, None, :, None]
    resid = sqw[:, :, None] * (flux.eval_values(ws)
                               + ws.nu[:, None, None] * pot.eval_grads(ws))
    Q, R = np.linalg.qr(B.reshape(ne, 2 * nq, k))
    rhs = np.einsum("ecqk,eqc->ek", Q.reshape(ne, 2, nq, k), resid)
    xi = -np.linalg.solve(R, rhs[:, :, None])[:, :, 0]

    coeffs = flux.coeffs + ws.jac @ (xi @ Nq.T).reshape(ne, 2, nm)
    # boundary traces are constrained, so only interior node values move
    slots = ws.lattice.interior_slots
    values = pot.values.copy()
    values[pot.node_map[:, slots]] = pot.nodal()[:, slots] + (
        xi @ (ws.vand_m[slots] @ Nu).T) / ws.sqrt_det[:, None]
    return replace(flux, coeffs=coeffs), replace(pot, values=values)


# ---------------------------------------------------------------------------
# Debug dump
# ---------------------------------------------------------------------------

def dump_fields(flux: EquilibratedFlux, pot: ContinuousPotential,
                ws: Workspace, path) -> None:
    """Write the reconstructed fields at the volume quadrature points as CSV
    (element id, x, y, flux_x, flux_y, potential) for external plotting."""
    ne = flux.mesh.n_elements
    cols = np.column_stack([np.repeat(np.arange(ne), ws.nq),
                            ws.qphys.reshape(-1, 2),
                            flux.eval_values(ws).reshape(-1, 2),
                            pot.eval_values(ws).ravel()])
    np.savetxt(path, cols, fmt=["%d"] + ["%.12e"] * 5, delimiter=",",
               header="element,x,y,flux_x,flux_y,potential", comments="")
