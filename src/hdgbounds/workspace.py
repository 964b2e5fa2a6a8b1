"""Batched per-mesh evaluation tables.

A Workspace bundles, for one (mesh, degree, quadrature) triple, everything
the solver and the reconstructions evaluate repeatedly: affine maps, volume
and facet quadrature in physical coordinates, Lagrange nodes, and the
element-facet linkage.  The tables that do not depend on the mesh (modal
bases at the quadrature points, local-solver tensors, facet trace tables
for each (local edge, orientation) case, Lagrange tables for the degree
p+1 potential) come from femcore.reference_tables, built once per
(p, quad_degree) and exposed here under the same names.

All arrays are laid out elementwise so the hot paths are batched matrix
products and solves; no Python loop runs over elements in the pipelines.
"""

from __future__ import annotations

import numpy as np

from . import femcore as fc
from .mesh import Mesh


class NonFiniteDataError(ValueError):
    """A data callable returned a non-finite value."""


def require_finite(vals: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Return vals, the values (scalar or vector) of a data callable at pts
    (..., 2); raise NonFiniteDataError naming a point where one is not finite."""
    if not vals.size:  # no points: the reshape below cannot infer -1
        return vals
    ok = np.isfinite(vals).reshape(pts.shape[:-1] + (-1,)).all(axis=-1)
    if not ok.all():
        bad = pts[~ok][0]
        raise NonFiniteDataError(f"non-finite data value at {tuple(bad.tolist())}")
    return vals


class Workspace:
    """Evaluation tables of one mesh at degree p.

    The caller builds one per mesh and hands it to every step that works on
    that mesh; quad_degree defaults to 2p + 4.  Every entry of
    femcore.reference_tables(p, quad_degree) is an attribute of the same
    name, read-only and shared with every Workspace of that pair.
    """

    def __init__(self, mesh: Mesh, p: int, quad_degree: int | None = None):
        if p < 0:
            raise ValueError("polynomial degree must be non-negative")
        quad_degree = int(quad_degree) if quad_degree is not None else 2 * p + 4
        self.mesh = mesh
        self.__dict__.update(fc.reference_tables(p, quad_degree))

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

        # volume quadrature points and weights including detJ: (ne, nq)
        jac_t = np.swapaxes(self.jac, 1, 2)
        self.qphys = self.v0[:, None, :] + self.qref @ jac_t
        self.wdet = self.det[:, None] * self.qw[None, :]

        # facet quadrature points (canonical parameterization t in [0,1])
        va = mesh.vertices[mesh.facets[:, 0]]
        vb = mesh.vertices[mesh.facets[:, 1]]
        self.facet_len = np.linalg.norm(vb - va, axis=1)
        self.ephys = va[:, None, :] + self.et[:, None] * (vb - va)[:, None, :]

        # element <-> facet linkage with orientation and outward-normal sign
        self.ef = mesh.elem_facets                            # (ne, 3)
        self.eo = mesh.elem_facet_orient.astype(int)          # (ne, 3)
        owner = mesh.facet_elems[self.ef, 0] == np.arange(mesh.n_elements)[:, None]
        self.esign = np.where(owner, 1.0, -1.0)               # n_K = esign * n_canonical
        self.enormal = mesh.facet_normals[self.ef] * self.esign[:, :, None]
        self.elen = self.facet_len[self.ef]                   # (ne, 3)

        # Lagrange lattice nodes of degree m
        self.node_phys = self.v0[:, None, :] + self.lattice.nodes @ jac_t  # (ne, n_nodes, 2)

        self._global_nodes = None

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

    def facet_trace(self, vals: np.ndarray, tab: np.ndarray, facet_ids,
                    side: int = 0) -> np.ndarray:
        """Trace on ``facet_ids``, at their quadrature points, of the element
        polynomials vals (ne, ..., n) of each facet's element on ``side``.

        tab is a (local edge, orientation) table, etab_p, etab_m or
        lag_edge; returns (len(facet_ids), ..., nqe).  Modal values still
        need the division by sqrt_det of the side element.
        """
        e = self.mesh.facet_elems[facet_ids, side]
        ell = self.mesh.facet_local_edge[facet_ids, side]
        o = self.eo[e, ell]
        out = np.empty((len(e),) + vals.shape[1:-1] + (self.nqe,))
        for L in range(3):
            for O in range(2):
                sel = np.flatnonzero((ell == L) & (o == O))
                if len(sel):
                    v = vals[e[sel]]
                    out[sel] = (v.reshape(-1, v.shape[-1]) @ tab[L, O]
                                ).reshape((len(sel),) + out.shape[1:])
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
        dfac = mesh.dirichlet_facets
        ids.append(mesh.facets[dfac].ravel())
        if per_edge:
            base = mesh.n_vertices + dfac * per_edge
            ids.append((base[:, None] + np.arange(per_edge)[None, :]).ravel())
        return np.unique(np.concatenate(ids))
