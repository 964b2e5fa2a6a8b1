"""Batched per-mesh evaluation tables.

A Workspace bundles, for one (mesh, degree, quadrature) triple, everything
the solver and the reconstructions evaluate repeatedly: affine maps, volume
and facet quadrature in physical coordinates, modal basis tables at the
quadrature points, Lagrange tables for the degree p+1 potential, and the
facet trace tables for each (local edge, orientation) case.

All arrays are laid out elementwise so the hot paths are numpy einsums and
batched linear solves; no Python loop runs over elements in the pipelines.
"""

from __future__ import annotations

import numpy as np

from . import femcore as fc
from .mesh import DIRICHLET, Mesh

_REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class NonFiniteDataError(ValueError):
    """A data callable returned a non-finite value."""


def require_finite(vals: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Return vals, the values (scalar or vector) of a data callable at pts
    (..., 2); raise NonFiniteDataError naming a point where one is not finite."""
    ok = np.isfinite(vals).reshape(pts.shape[:-1] + (-1,)).all(axis=-1)
    if not ok.all():
        bad = pts[~ok][0]
        raise NonFiniteDataError(f"non-finite data value at {tuple(bad.tolist())}")
    return vals


class Workspace:
    """Evaluation tables of one mesh at degree p.

    The caller builds one per mesh and hands it to every step that works on
    that mesh; quad_degree defaults to 2p + 4.
    """

    def __init__(self, mesh: Mesh, p: int, quad_degree: int | None = None):
        if p < 0:
            raise ValueError("polynomial degree must be non-negative")
        quad_degree = int(quad_degree) if quad_degree is not None else 2 * p + 4
        self.mesh = mesh
        self.p = p
        self.m = p + 1                       # potential / reconstruction degree
        self.quad_degree = quad_degree
        self.np_ = fc.n_modes(p)
        self.nm = fc.n_modes(self.m)

        v = mesh.vertices[mesh.elements]                     # (ne, 3, 2)
        self.v0 = v[:, 0]
        self.jac = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)
        self.det = (self.jac[:, 0, 0] * self.jac[:, 1, 1]
                    - self.jac[:, 0, 1] * self.jac[:, 1, 0])
        inv = np.empty_like(self.jac)
        inv[:, 0, 0] = self.jac[:, 1, 1]
        inv[:, 0, 1] = -self.jac[:, 0, 1]
        inv[:, 1, 0] = -self.jac[:, 1, 0]
        inv[:, 1, 1] = self.jac[:, 0, 0]
        inv /= self.det[:, None, None]
        self.jac_inv = inv                                   # (ne, 2, 2)
        self.jac_inv_t = np.swapaxes(inv, 1, 2)
        self.sqrt_det = np.sqrt(self.det)
        self.nu = mesh.element_nu()
        self.centroid = v.mean(axis=1)

        # volume quadrature
        rule = fc.triangle_rule(quad_degree)
        self.qref = rule.points                              # (nq, 2)
        self.qw = rule.weights
        self.nq = len(self.qw)
        self.qphys = self.v0[:, None, :] + np.einsum(
            "qr,erd->eqd", self.qref, np.swapaxes(self.jac, 1, 2))
        # integration weights including detJ: (ne, nq)
        self.wdet = self.det[:, None] * self.qw[None, :]

        # modal tables at volume quadrature
        self.phi_p = fc.tri_basis(p, self.qref)              # (np_, nq)
        self.dphi_p = fc.tri_basis_grad(p, self.qref)        # (np_, nq, 2)
        self.phi_m = fc.tri_basis(self.m, self.qref)
        self.dphi_m = fc.tri_basis_grad(self.m, self.qref)

        # reference tensors for local solvers
        #   S[r, a, b]  = int d_r phi^p_a phi^p_b
        #   Q_m[r, a, b] = int phi^m_a d_r phi^m_b
        #   S2[r, s, a, b] = int d_r phi^m_a d_s phi^m_b
        w = self.qw
        self.S = np.einsum("aqr,bq,q->rab", self.dphi_p, self.phi_p, w)
        self.Qm = np.einsum("aq,bqr,q->rab", self.phi_m, self.dphi_m, w)
        self.S2 = np.einsum("aqr,bqs,q->rsab", self.dphi_m, self.dphi_m, w)
        # mixed: d_r phi^m_a against phi^p_i
        self.S_mp = np.einsum("aqr,iq,q->rai", self.dphi_m, self.phi_p, w)

        # facet quadrature (canonical parameterization t in [0,1])
        erule = fc.segment_rule(quad_degree)
        self.et = erule.points
        self.ew = erule.weights
        self.nqe = len(self.et)
        va = mesh.vertices[mesh.facets[:, 0]]
        vb = mesh.vertices[mesh.facets[:, 1]]
        self.facet_len = np.linalg.norm(vb - va, axis=1)
        self.ephys = va[:, None, :] + self.et[:, None] * (vb - va)[:, None, :]

        # canonical segment bases on the facets
        self.psi_p = fc.seg_basis(p, self.et)                # (p+1, nqe)
        self.psi_m = fc.seg_basis(self.m, self.et)           # (p+2, nqe)

        # trace tables: reference coordinates of canonical edge points for
        # each (local edge, orientation) case, and modal values there
        # orientation o=1: canonical direction matches the local edge direction
        self.edge_ref = np.empty((3, 2, self.nqe, 2))
        for ell, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            self.edge_ref[ell, 1] = (_REF_VERTS[a]
                                     + self.et[:, None] * (_REF_VERTS[b] - _REF_VERTS[a]))
            self.edge_ref[ell, 0] = (_REF_VERTS[b]
                                     + self.et[:, None] * (_REF_VERTS[a] - _REF_VERTS[b]))
        self.etab_p = np.empty((3, 2, self.np_, self.nqe))
        self.etab_m = np.empty((3, 2, self.nm, self.nqe))
        self.detab_m = np.empty((3, 2, self.nm, self.nqe, 2))
        for ell in range(3):
            for o in range(2):
                self.etab_p[ell, o] = fc.tri_basis(p, self.edge_ref[ell, o])
                self.etab_m[ell, o] = fc.tri_basis(self.m, self.edge_ref[ell, o])
                self.detab_m[ell, o] = fc.tri_basis_grad(self.m, self.edge_ref[ell, o])

        # T_p[ell, o, m, i] = int_0^1 psi_p[m] etab_p[ell, o, i] dt, and the
        # same against the degree-m trace space
        self.T_p = np.einsum("mt,loit,t->lomi", self.psi_p, self.etab_p, self.ew)
        self.T_mm = np.einsum("mt,loit,t->lomi", self.psi_m, self.etab_m, self.ew)
        # facet mass of the element traces: EE[ell, i, j]
        self.EE = np.einsum("loit,lojt,t->loij", self.etab_p, self.etab_p, self.ew)[:, 0]

        # element <-> facet linkage with orientation and outward-normal sign
        self.ef = mesh.elem_facets                            # (ne, 3)
        self.eo = mesh.elem_facet_orient.astype(int)          # (ne, 3)
        owner = mesh.facet_elems[self.ef, 0] == np.arange(mesh.n_elements)[:, None]
        self.esign = np.where(owner, 1.0, -1.0)               # n_K = esign * n_canonical
        self.enormal = mesh.facet_normals[self.ef] * self.esign[:, :, None]
        self.elen = self.facet_len[self.ef]                   # (ne, 3)

        # Lagrange lattice of degree m
        lat = fc.lagrange_lattice(self.m)
        self.lattice = lat
        self.n_nodes = len(lat.nodes)
        self.lag_vals = self.phi_m.T @ lat.vandermonde_inv            # (nq, n_nodes)
        self.lag_grads = np.einsum("jqd,jk->kqd", self.dphi_m, lat.vandermonde_inv)
        self.lag_edge = np.einsum("loit,ik->lokt", self.etab_m, lat.vandermonde_inv)
        # modal Vandermonde at the lattice nodes (nodal values <- modal coeffs)
        self.vand_m = fc.tri_basis(self.m, lat.nodes).T               # (n_nodes, nm)
        self.node_phys = self.v0[:, None, :] + np.einsum(
            "kr,erd->ekd", lat.nodes, np.swapaxes(self.jac, 1, 2))    # (ne, n_nodes, 2)

        self._global_nodes = None
        self._facet_side_cache = None

    # -- generic integration helpers ---------------------------------------

    def integrate_elementwise(self, values_eq: np.ndarray) -> np.ndarray:
        """Integrate per-element given values at the volume quadrature points."""
        return np.einsum("eq,eq->e", values_eq, self.wdet)

    def eval_data(self, fun, pts=None) -> np.ndarray:
        """Values of a scalar data callable at points (..., 2), by default the
        volume quadrature points; raises NonFiniteDataError on a non-finite
        value."""
        pts = self.qphys if pts is None else pts
        vals = np.asarray(fun(pts[..., 0], pts[..., 1]), dtype=float)
        return require_finite(np.broadcast_to(vals, pts.shape[:-1]), pts)

    def moments_p(self, values_eq: np.ndarray) -> np.ndarray:
        """(f, phi_i)_K for the mapped degree-p basis; shape (ne, np_)."""
        return np.einsum("eq,iq->ei", values_eq * self.qw[None, :],
                         self.phi_p) * self.sqrt_det[:, None]

    def moments_m(self, values_eq: np.ndarray) -> np.ndarray:
        return np.einsum("eq,iq->ei", values_eq * self.qw[None, :],
                         self.phi_m) * self.sqrt_det[:, None]

    def project_p(self, fun) -> np.ndarray:
        """Batched L2 projection onto P^p: modal coefficients (ne, np_)."""
        return self.moments_p(self.eval_data(fun))

    def proj_p(self, values_eq: np.ndarray) -> np.ndarray:
        """Pi_p of values at the volume quadrature points, evaluated there;
        the data residual is values_eq - proj_p(values_eq)."""
        return self.eval_modal(self.moments_p(values_eq))

    def eval_modal(self, coeffs: np.ndarray, degree_m: bool = False) -> np.ndarray:
        """Values at volume quadrature of mapped-modal coefficients (ne, n)."""
        tab = self.phi_m if degree_m else self.phi_p
        return (coeffs @ tab) / self.sqrt_det[:, None]

    # -- facet machinery ----------------------------------------------------

    def _facet_moments(self, vals: np.ndarray, facet_ids) -> np.ndarray:
        """Moments of values at the facet quadrature points of ``facet_ids``
        against the canonical P^p facet basis; shape (len(facet_ids), p+1)."""
        return np.einsum("ft,mt,t->fm", vals, self.psi_p, self.ew
                         ) * np.sqrt(self.facet_len[facet_ids])[:, None]

    def facet_data_moments(self, fun, facet_ids) -> np.ndarray:
        """Moments of a data callable against the canonical P^p facet basis."""
        return self._facet_moments(self.eval_data(fun, self.ephys[facet_ids]),
                                  facet_ids)

    def facet_proj_p(self, vals: np.ndarray, facet_ids) -> np.ndarray:
        """Pi_e^p of values at the facet quadrature points, evaluated there."""
        return (self._facet_moments(vals, facet_ids) @ self.psi_p
                ) / np.sqrt(self.facet_len[facet_ids])[:, None]

    def facet_sides(self):
        """Grouping of (element, local edge) pairs by facet side.

        Returns arrays (nf, 2) elem, (nf, 2) local edge, (nf, 2) orientation;
        second column is -1 for boundary facets.
        """
        if self._facet_side_cache is None:
            nf = self.mesh.n_facets
            se = np.full((nf, 2), -1, dtype=int)
            sl = np.full((nf, 2), -1, dtype=int)
            so = np.zeros((nf, 2), dtype=int)
            for ell in range(3):
                f = self.ef[:, ell]
                side = np.where(self.mesh.facet_elems[f, 0] == np.arange(len(f)), 0, 1)
                se[f, side] = np.arange(len(f))
                sl[f, side] = ell
                so[f, side] = self.eo[:, ell]
            self._facet_side_cache = (se, sl, so)
        return self._facet_side_cache

    def trace_values(self, elem_values_modal: np.ndarray, facet_ids, side_elem,
                     side_ell, side_o, degree_m: bool = False) -> np.ndarray:
        """Trace of mapped-modal element polynomials on given facets.

        elem_values_modal: (ne, n_modes) coefficients; returns (len(facet_ids), nqe).
        """
        tab = self.etab_m if degree_m else self.etab_p
        out = np.empty((len(facet_ids), self.nqe))
        for ell in range(3):
            for o in range(2):
                sel = (side_ell == ell) & (side_o == o)
                if not np.any(sel):
                    continue
                e = side_elem[sel]
                out[sel] = (elem_values_modal[e] @ tab[ell, o]) / self.sqrt_det[e, None]
        return out

    # -- global Lagrange nodes ----------------------------------------------

    def global_nodes(self):
        """Global node numbering for the continuous degree-m space.

        Returns (n_global, node_map (ne, n_nodes), node_coords (n_global, 2)).
        """
        if self._global_nodes is not None:
            return self._global_nodes
        mesh, m = self.mesh, self.m
        lat = self.lattice
        ne, nf, nv = mesh.n_elements, mesh.n_facets, mesh.n_vertices
        per_edge = m - 1
        n_int = len(lat.interior_slots)
        node_map = np.empty((ne, self.n_nodes), dtype=np.int64)
        node_map[:, lat.vertex_slots] = mesh.elements
        for ell in range(3):
            f = self.ef[:, ell]
            base = nv + f * per_edge
            idx = np.arange(per_edge)
            fwd = base[:, None] + idx[None, :]
            rev = base[:, None] + (per_edge - 1 - idx)[None, :]
            vals = np.where(self.eo[:, [ell]].astype(bool), fwd, rev)
            node_map[:, lat.edge_slots[ell]] = vals
        base_int = nv + nf * per_edge
        node_map[:, lat.interior_slots] = (base_int + n_int * np.arange(ne)[:, None]
                                           + np.arange(n_int)[None, :])
        n_global = base_int + n_int * ne
        coords = np.empty((n_global, 2))
        coords[node_map.ravel()] = self.node_phys.reshape(-1, 2)
        self._global_nodes = (n_global, node_map, coords)
        return self._global_nodes

    def dirichlet_nodes(self):
        """Global node ids lying on the Dirichlet boundary."""
        mesh = self.mesh
        n_global, node_map, coords = self.global_nodes()
        per_edge = self.m - 1
        ids = []
        dfac = np.nonzero(mesh.facet_tag == DIRICHLET)[0]
        ids.append(mesh.facets[dfac].ravel())
        if per_edge:
            base = mesh.n_vertices + dfac * per_edge
            ids.append((base[:, None] + np.arange(per_edge)[None, :]).ravel())
        return np.unique(np.concatenate(ids))
