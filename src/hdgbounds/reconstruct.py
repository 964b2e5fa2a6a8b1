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
from .mesh import DIRICHLET, INTERIOR, NEUMANN, Mesh
from .workspace import Workspace

__all__ = [
    "EquilibratedFlux",
    "ContinuousPotential",
    "reconstruct_flux",
    "postprocess_potential",
    "make_continuous",
    "enforce_dirichlet_band",
    "local_optimize",
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
        se, sl, so = ws.facet_sides()
        e, ell, o = se[facet_ids, side], sl[facet_ids, side], so[facet_ids, side]
        vx = ws.trace_values(self.coeffs[:, 0], facet_ids, e, ell, o, degree_m=True)
        vy = ws.trace_values(self.coeffs[:, 1], facet_ids, e, ell, o, degree_m=True)
        n = self.mesh.facet_normals[facet_ids]
        return vx * n[:, 0:1] + vy * n[:, 1:2]


@dataclass
class BandCorrection:
    """Non-polynomial additive correction on the band elements."""

    elems: np.ndarray            # element ids inside the band
    ghat: Callable               # extension value (x, y) -> float
    ghat_grad: Callable          # extension gradient (x, y) -> (..., 2)
    nodal: np.ndarray            # (len(elems), n_nodes) interpolant values
    x_band: float

    def values_at(self, pts):
        return np.asarray(self.ghat(pts[..., 0], pts[..., 1]), dtype=float)

    def grads_at(self, pts):
        return np.asarray(self.ghat_grad(pts[..., 0], pts[..., 1]), dtype=float)


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
        out = np.einsum("ek,qk->eq", self.nodal(), ws.lag_vals)
        if self.correction is not None:
            c = self.correction
            pts = ws.qphys[c.elems]
            out[c.elems] += c.values_at(pts) - np.einsum(
                "ek,qk->eq", c.nodal, ws.lag_vals)
        return out

    def eval_grads(self, ws: Workspace) -> np.ndarray:
        ref = np.einsum("ek,kqd->eqd", self.nodal(), ws.lag_grads)
        out = np.einsum("eqd,ecd->eqc", ref, ws.jac_inv_t)
        if self.correction is not None:
            c = self.correction
            pts = ws.qphys[c.elems]
            ref_c = np.einsum("ek,kqd->eqd", c.nodal, ws.lag_grads)
            out[c.elems] += (c.grads_at(pts)
                             - np.einsum("eqd,ecd->eqc", ref_c, ws.jac_inv_t[c.elems]))
        return out

    def trace_values(self, ws: Workspace, facet_ids, side: int = 0) -> np.ndarray:
        """Trace at facet quadrature points (corrections included)."""
        se, sl, so = ws.facet_sides()
        e, ell, o = se[facet_ids, side], sl[facet_ids, side], so[facet_ids, side]
        nodal = self.nodal()
        out = np.empty((len(facet_ids), ws.nqe))
        for L in range(3):
            for O in range(2):
                sel = (ell == L) & (o == O)
                if np.any(sel):
                    out[sel] = nodal[e[sel]] @ ws.lag_edge[L, O]
        if self.correction is not None:
            c = self.correction
            pos = {int(k): i for i, k in enumerate(c.elems)}
            for i, f in enumerate(facet_ids):
                j = pos.get(int(e[i]))
                if j is None:
                    continue
                pts = ws.ephys[f]
                out[i] += c.values_at(pts) - c.nodal[j] @ ws.lag_edge[ell[i], o[i]]
        return out


# ---------------------------------------------------------------------------
# Flux reconstruction
# ---------------------------------------------------------------------------

def _rt_tails(ws: Workspace, pts_phys: np.ndarray) -> np.ndarray:
    """The p+1 non-gradient RT generators at given points: (ne, p+1, npts, 2).

    Tail k is  s * (x - c) * h_k((x - c)/h_K)  with h_k the homogeneous
    degree-p monomials and s a per-element normalization.
    """
    p = ws.p
    diam = np.linalg.norm(ws.jac, axis=1).max(axis=1)  # edge-length scale per element
    d = (pts_phys - ws.centroid[:, None, :]) / diam[:, None, None]
    ts = (np.sqrt(2.0 / ws.det) / diam)[:, None]
    out = np.empty((ws.mesh.n_elements, p + 1, pts_phys.shape[1], 2))
    for k in range(p + 1):
        h = d[:, :, 0] ** (p - k) * d[:, :, 1] ** k
        out[:, k] = (pts_phys - ws.centroid[:, None, :]) * (ts * h)[:, :, None]
    return out


def reconstruct_flux(sol: HDGSolution, data: ProblemData) -> EquilibratedFlux:
    """Element-by-element RT^p reconstruction from the HDG numerical flux:
    facet moments match qhat.n against P^p(e) on every facet, interior
    moments match q_h against [P^{p-1}(K)]^2 when p >= 1.
    """
    ws = sol.ws
    mesh, p = sol.mesh, sol.p
    ne, np_, F1 = mesh.n_elements, ws.np_, p + 1
    n_int = 2 * fc.n_modes(p - 1) if p >= 1 else 0
    N = (p + 1) * (p + 3)
    assert N == 2 * np_ + (p + 1) and N == 3 * F1 + n_int

    A = np.zeros((ne, N, N))
    rhs = np.zeros((ne, N))

    tails_vol = _rt_tails(ws, ws.qphys)                       # (ne, p+1, nq, 2)

    # facet rows: scalar-part columns then tail columns
    scale = np.sqrt(ws.elen) / ws.sqrt_det[:, None]
    for ell in range(3):
        rows = slice(ell * F1, (ell + 1) * F1)
        f = ws.ef[:, ell]
        n_can = mesh.facet_normals[f]                          # canonical normal
        T = ws.T_p[ell, ws.eo[:, ell]]                         # (ne, F1, np_)
        blk = np.einsum("ec,emv->emcv", n_can, T) * scale[:, ell, None, None, None]
        A[:, rows, :2 * np_] = blk.reshape(ne, F1, 2 * np_)
        pts = ws.ephys[f]                                      # (ne, nqe, 2)
        tails_e = _rt_tails(ws, pts)                           # (ne, p+1, nqe, 2)
        tn = np.einsum("ektc,ec->ekt", tails_e, n_can)
        A[:, rows, 2 * np_:] = np.einsum(
            "ekt,mt,t->emk", tn, ws.psi_p, ws.ew) * np.sqrt(ws.facet_len[f])[:, None, None]
        rhs[:, rows] = sol.qhat_n[f]

    if n_int:
        nint1 = n_int // 2
        idx = np.arange(nint1)
        for c in (0, 1):
            r0 = 3 * F1 + c * nint1
            # scalar columns are orthonormal: identity against the degree p-1 prefix
            A[:, r0 + idx, c * np_ + idx] = 1.0
            A[:, r0:r0 + nint1, 2 * np_:] = np.einsum(
                "ekq,jq,q->ejk", tails_vol[:, :, :, c], ws.phi_p[:nint1], ws.qw
            ) * ws.sqrt_det[:, None, None]
            rhs[:, r0:r0 + nint1] = sol.q[:, c, :nint1]

    try:
        alpha = np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"singular local RT system (degenerate element?): {exc}")

    # convert to componentwise modal degree p+1 coefficients
    coeffs = np.zeros((ne, 2, ws.nm))
    coeffs[:, 0, :np_] = alpha[:, :np_]
    coeffs[:, 1, :np_] = alpha[:, np_:2 * np_]
    tail_alpha = alpha[:, 2 * np_:]
    for c in (0, 1):
        proj = np.einsum("ekq,jq,q->ekj", tails_vol[:, :, :, c], ws.phi_m, ws.qw) \
            * ws.sqrt_det[:, None, None]
        coeffs[:, c] += np.einsum("ek,ekj->ej", tail_alpha, proj)
    return EquilibratedFlux(mesh=mesh, p=p, coeffs=coeffs)


# ---------------------------------------------------------------------------
# Potential post-processing
# ---------------------------------------------------------------------------

def postprocess_potential(sol: HDGSolution, flux: EquilibratedFlux) -> np.ndarray:
    """Element P^{p+1} potential: (grad u*, grad w)_K matches the flux data
    -(nu^-1 q~, grad w)_K, mean value pinned to u_h.  Returns mapped-modal
    coefficients (ne, n_modes(p+1))."""
    ws = sol.ws
    G = np.einsum("erc,esc->ers", ws.jac_inv, ws.jac_inv)
    K = np.einsum("ers,rsab->eab", G, ws.S2)
    rhs = -np.einsum("ecr,eca,rai->ei", ws.jac_inv_t, flux.coeffs, ws.Qm) \
        / ws.nu[:, None]
    coeffs = np.zeros((sol.mesh.n_elements, ws.nm))
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
    values[dnodes] = np.asarray(g_D(coords[dnodes, 0], coords[dnodes, 1]),
                                dtype=float)
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
    pts = ws.node_phys[band_elems]
    nodal = np.asarray(ghat(pts[..., 0], pts[..., 1]), dtype=float)
    corr = BandCorrection(elems=band_elems, ghat=ghat, ghat_grad=ghat_grad,
                          nodal=nodal, x_band=x_band)
    return replace(pot, correction=corr)


# ---------------------------------------------------------------------------
# Certificate audits
# ---------------------------------------------------------------------------

def flux_residuals(flux: EquilibratedFlux, data: ProblemData, ws: Workspace) -> dict:
    """Relative residuals of the three equilibration certificates."""
    mesh = flux.mesh
    div = flux.eval_divergence(ws)
    fproj = ws.eval_modal(ws.project_p(data.f))
    fscale = np.sqrt(ws.integrate_elementwise(fproj ** 2).sum())
    div_res = np.sqrt(ws.integrate_elementwise((div - fproj) ** 2))
    out = {"divergence": float(div_res.max() / (1.0 + fscale))}

    interior = np.nonzero(mesh.facet_tag == INTERIOR)[0]
    if len(interior):
        t0 = flux.normal_trace(ws, interior, side=0)
        t1 = flux.normal_trace(ws, interior, side=1)
        jump2 = np.einsum("ft,t->f", (t0 - t1) ** 2, ws.ew) * ws.facet_len[interior]
        tscale = 1.0 + float(np.abs(t0).max())
        out["normal_jump"] = float(np.sqrt(jump2.max()) / tscale)
    else:
        out["normal_jump"] = 0.0

    neu = np.nonzero(mesh.facet_tag == NEUMANN)[0]
    if len(neu):
        tr = flux.normal_trace(ws, neu, side=0)
        mom = ws.facet_data_moments(data.g_N, neu, ws.p)
        gn_proj = (mom @ ws.psi_p) / np.sqrt(ws.facet_len[neu])[:, None]
        err2 = np.einsum("ft,t->f", (tr - gn_proj) ** 2, ws.ew) * ws.facet_len[neu]
        out["neumann"] = float(np.sqrt(err2.max()) / (1.0 + np.abs(gn_proj).max()))
    else:
        out["neumann"] = 0.0
    return out


def potential_residuals(pot: ContinuousPotential, g_D, ws: Workspace) -> dict:
    """Dirichlet trace error (corrections included) and inter-element
    continuity of the potential."""
    mesh = pot.mesh
    dfac = np.nonzero(mesh.facet_tag == DIRICHLET)[0]
    tr = pot.trace_values(ws, dfac, side=0)
    pts = ws.ephys[dfac]
    g = np.broadcast_to(np.asarray(g_D(pts[..., 0], pts[..., 1]), dtype=float),
                        tr.shape)
    scale = 1.0 + float(np.abs(g).max())
    out = {"dirichlet_trace": float(np.abs(tr - g).max() / scale)}

    interior = np.nonzero(mesh.facet_tag == INTERIOR)[0]
    if len(interior):
        t0 = pot.trace_values(ws, interior, side=0)
        t1 = pot.trace_values(ws, interior, side=1)
        out["continuity"] = float(np.abs(t0 - t1).max()
                                  / (1.0 + np.abs(t0).max()))
    else:
        out["continuity"] = 0.0
    return out


# ---------------------------------------------------------------------------
# Local optimization of the combined residual
# ---------------------------------------------------------------------------

def local_optimize(flux: EquilibratedFlux, pot: ContinuousPotential,
                   data: ProblemData, ws: Workspace
                   ) -> tuple[EquilibratedFlux, ContinuousPotential]:
    """Per element, minimize ||q* + nu grad u*||_K over q* in [P^{p+1}]^2 and
    u* in P^{p+1} subject to: div q* = Pi_K^p f, q*.n = q~.n on dK, u* = u~
    on dK, and (u*, 1)_K preserved.  The input pair is feasible, so the
    objective never increases; all flux certificates, the potential traces,
    and the element means are preserved.
    """
    mesh, p, nm, np_ = flux.mesh, flux.p, ws.nm, ws.np_
    F2 = p + 2
    ne = mesh.n_elements
    nu = ws.nu

    fmom = ws.project_p(data.f)
    nodal = pot.nodal()
    pot_modal = np.einsum("jk,ek->ej", ws.lattice.vandermonde_inv,
                          nodal) * ws.sqrt_det[:, None]

    # objective rows: sqrt(w detJ / nu) * [q*_c + nu (grad u*)_c] at quad pts
    new_flux = flux.coeffs.copy()
    new_values = pot.values.copy()
    sqw = np.sqrt(ws.wdet / nu[:, None])                      # (ne, nq)

    corr_elems = {}
    if pot.correction is not None:
        corr_elems = {int(k): i for i, k in enumerate(pot.correction.elems)}

    for e in range(ne):
        phi = ws.phi_m / ws.sqrt_det[e]                       # (nm, nq)
        gphi = np.einsum("cd,jqd->jqc", ws.jac_inv_t[e],
                         ws.dphi_m) / ws.sqrt_det[e]          # (nm, nq, 2)
        nq = ws.nq
        Aobj = np.zeros((2 * nq, 3 * nm))
        for c in (0, 1):
            Aobj[c * nq:(c + 1) * nq, c * nm:(c + 1) * nm] = (phi * sqw[e]).T
            Aobj[c * nq:(c + 1) * nq, 2 * nm:] = (gphi[:, :, c] * sqw[e]).T * nu[e]
        bobj = np.zeros(2 * nq)
        j = corr_elems.get(e)
        if j is not None:
            # correction gradients enter the objective as fixed data
            g = pot.correction.grads_at(ws.qphys[e])          # (nq, 2)
            ref_c = np.einsum("k,kqd->qd", pot.correction.nodal[j], ws.lag_grads)
            g = g - ref_c @ ws.jac_inv_t[e].T
            for c in (0, 1):
                bobj[c * nq:(c + 1) * nq] = -nu[e] * g[:, c] * sqw[e]

        ncon = np_ + 3 * F2 + 3 * F2 + 1
        C = np.zeros((ncon, 3 * nm))
        d = np.zeros(ncon)
        # divergence rows
        for c in (0, 1):
            C[:np_, c * nm:(c + 1) * nm] = np.einsum(
                "r,rai->ia", ws.jac_inv_t[e, c], ws.S_mp)
        d[:np_] = fmom[e]
        # facet rows
        row = np_
        for ell in range(3):
            f = ws.ef[e, ell]
            o = ws.eo[e, ell]
            n_can = mesh.facet_normals[f]
            sc = np.sqrt(ws.facet_len[f]) / ws.sqrt_det[e]
            T = ws.T_mm[ell, o]                               # (F2, nm)
            for c in (0, 1):
                C[row:row + F2, c * nm:(c + 1) * nm] = sc * n_can[c] * T
            # rhs: moments of the current flux's normal trace
            vx = (flux.coeffs[e, 0] @ ws.etab_m[ell, o]) / ws.sqrt_det[e]
            vy = (flux.coeffs[e, 1] @ ws.etab_m[ell, o]) / ws.sqrt_det[e]
            tr = vx * n_can[0] + vy * n_can[1]
            d[row:row + F2] = np.sqrt(ws.facet_len[f]) * (ws.psi_m * ws.ew) @ tr
            # potential trace rows
            C[row + 3 * F2:row + 3 * F2 + F2, 2 * nm:] = sc * T
            tru = (pot_modal[e] @ ws.etab_m[ell, o]) / ws.sqrt_det[e]
            d[row + 3 * F2:row + 3 * F2 + F2] = (
                np.sqrt(ws.facet_len[f]) * (ws.psi_m * ws.ew) @ tru)
            row += F2
        # element-mean row (constant mode coefficient)
        C[-1, 2 * nm] = 1.0
        d[-1] = pot_modal[e, 0]

        z0 = np.concatenate([flux.coeffs[e, 0], flux.coeffs[e, 1], pot_modal[e]])
        # nullspace method; C is rank-deficient but consistent by construction
        _, S, Vt = np.linalg.svd(C, full_matrices=True)
        rank = int(np.sum(S > S[0] * 1e-11))
        Nsp = Vt[rank:].T
        if Nsp.shape[1] == 0:
            continue
        r0 = bobj - Aobj @ z0
        xi, *_ = np.linalg.lstsq(Aobj @ Nsp, r0, rcond=None)
        z = z0 + Nsp @ xi
        new_flux[e, 0] = z[:nm]
        new_flux[e, 1] = z[nm:2 * nm]
        # boundary traces are constrained, so only interior node values move
        new_nodal = ws.vand_m @ z[2 * nm:] / ws.sqrt_det[e]
        slots = ws.lattice.interior_slots
        new_values[pot.node_map[e, slots]] = new_nodal[slots]

    new_pot = ContinuousPotential(mesh=mesh, degree=pot.degree, values=new_values,
                                  node_map=pot.node_map, correction=pot.correction)
    return EquilibratedFlux(mesh=mesh, p=p, coeffs=new_flux), new_pot


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
