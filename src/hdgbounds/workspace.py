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
A step that works on a subset e of the elements indexes the per-element
arrays with it (ws.qphys[e], ws.jac[e]).  The element-local solves, of
static condensation, of the potential post-processing and of the local
optimization, run over _blocks, slices of _BLOCK elements: the HDG local
solvers build their operators block by block, and spd_solve, the one dense
solver of the element-local systems, eliminates block by block.  Every
other step works on the whole mesh.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import femcore as fc
from .mesh import Mesh


# elements per block of the element-local solves: their per-element matrices
# and working copies are larger than the solution they produce, so the block
# bounds their temporaries
_BLOCK = 1024


def _blocks(ne: int):
    """Consecutive slices of at most _BLOCK of the ne elements."""
    return (slice(start, min(start + _BLOCK, ne)) for start in range(0, ne, _BLOCK))


class ZeroPivotError(np.linalg.LinAlgError):
    """spd_solve met an exactly zero pivot; ``elements`` holds the indices,
    into its stack, of the elements where it did."""

    def __init__(self, elements: np.ndarray):
        super().__init__(f"zero pivot on element(s) {elements[:5].tolist()}")
        self.elements = elements


def spd_solve(K: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X (ne, n, r) with K[e] X[e] = B[e] for a stack of symmetric positive
    definite K (ne, n, n), of which only the upper triangle is read, and
    right-hand sides B (ne, n, r).

    Symmetric Gaussian elimination without pivoting, backward stable on SPD
    matrices (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 2002, section 10), on the blocks of _blocks stored along the
    last axis: each row update and each back-substitution row is one numpy
    operation over the block, where a solve per element would make one
    LAPACK call each.  Only an exactly zero pivot raises ZeroPivotError; a
    negative or NaN pivot, which no SPD matrix has, passes its garbage on to
    the callers' certificate checks.
    """
    ne, n, r = B.shape
    X = np.empty((ne, n, r))
    for e in _blocks(ne):
        # [K | B] with the elements last; row j holds U[j, j:] once eliminated
        A = np.empty((n, n + r, len(B[e])))
        A[:, :n] = K[e].transpose(1, 2, 0)
        A[:, n:] = B[e].transpose(1, 2, 0)
        for j in range(n):
            if not A[j, j].all():
                raise ZeroPivotError(e.start + np.flatnonzero(A[j, j] == 0))
            ell = A[j, j + 1:n] / A[j, j]   # column j below the pivot, by symmetry
            for i in range(j + 1, n):
                A[i, i:] -= ell[i - j - 1] * A[j, i:]
        Y = A[:, n:]
        Y[n - 1] /= A[n - 1, n - 1]
        for j in reversed(range(n - 1)):
            Y[j] -= np.einsum("irb,ib->rb", Y[j + 1:], A[j, j + 1:n])
            Y[j] /= A[j, j]
        X[e] = Y.transpose(2, 0, 1)
        del A, Y  # so that the next block's A does not coexist with this one
    return X


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
        self.neu_weights = self.ew[None, :] * self.facet_len[mesh.neumann_facets, None]
        self.ephys = va[:, None, :] + self.et[:, None] * (vb - va)[:, None, :]

        # element <-> facet linkage with orientation and outward-normal sign
        self.ef = mesh.elem_facets                            # (ne, 3)
        self.eo = mesh.elem_facet_orient.astype(int)          # (ne, 3)
        owner = mesh.facet_elems[self.ef, 0] == np.arange(mesh.n_elements)[:, None]
        self.esign = np.where(owner, 1.0, -1.0)               # n_K = esign * n_canonical
        self.enormal = mesh.facet_normals[self.ef] * self.esign[:, :, None]
        self.elen = self.facet_len[self.ef]                   # (ne, 3)
        self.h = self.elen.max(axis=1)                        # diameter h_K

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

    def proj_p(self, values_eq: np.ndarray) -> np.ndarray:
        """Pi_p of values at the volume quadrature points, evaluated there;
        the data residual is values_eq - proj_p(values_eq)."""
        return self.eval_modal(self.moments_p(values_eq))

    def eval_modal(self, coeffs: np.ndarray) -> np.ndarray:
        """Values at volume quadrature of mapped-modal coefficients (ne, np_)."""
        return (coeffs @ self.phi_p) / self.sqrt_det[:, None]

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
        v = np.take(vals, e, axis=0)
        t = np.take(tab.reshape((6,) + tab.shape[2:]), 2 * ell + self.eo[e, ell],
                    axis=0)                                # tab[ell, o] per facet
        rows = int(np.prod(v.shape[1:-1]))  # explicit, so that no facet works
        return (v.reshape(len(e), rows, v.shape[-1]) @ t).reshape(
            v.shape[:-1] + (self.nqe,))

    # -- global Lagrange nodes ----------------------------------------------
    # built on first read, after the HDG solve, which needs none of them

    @cached_property
    def node_map(self) -> np.ndarray:
        """Global numbering of the continuous degree-m space, (ne, n_nodes):
        the vertices, then m - 1 nodes per facet, then the interior nodes
        element by element."""
        mesh, lat = self.mesh, self.lattice
        ne, nf, nv = mesh.n_elements, mesh.n_facets, mesh.n_vertices
        per_edge = self.m - 1
        n_int = len(lat.interior_slots)
        node_map = np.empty((ne, self.n_nodes), dtype=np.int64)
        node_map[:, lat.vertex_slots] = mesh.elements
        idx = np.arange(per_edge)  # a facet's nodes, walked against it where eo = 0
        walk = np.where(self.eo[:, :, None] == 1, idx, per_edge - 1 - idx)
        node_map[:, lat.edge_slots] = nv + self.ef[:, :, None] * per_edge + walk
        base_int = nv + nf * per_edge
        node_map[:, lat.interior_slots] = (base_int + n_int * np.arange(ne)[:, None]
                                           + np.arange(n_int)[None, :])
        return node_map

    @cached_property
    def node_coords(self) -> np.ndarray:
        """Coordinates of the global nodes, (n_global, 2)."""
        node_phys = self.v0[:, None, :] + self.lattice.nodes @ np.swapaxes(
            self.jac, 1, 2)                                  # (ne, n_nodes, 2)
        coords = np.empty((self.node_map.max() + 1, 2))  # the numbering is dense
        coords[self.node_map.ravel()] = node_phys.reshape(-1, 2)
        return coords

    @cached_property
    def dirichlet_nodes(self) -> np.ndarray:
        """Global node ids lying on the Dirichlet boundary, ascending: the
        node map's entries at the slots of each Dirichlet facet's local edge
        (its two vertices and its edge nodes) in the facet's element."""
        mesh, lat = self.mesh, self.lattice
        dfac = mesh.dirichlet_facets
        edge = np.column_stack([lat.vertex_slots, np.roll(lat.vertex_slots, -1),
                                lat.edge_slots])          # local edge ell: v_ell, v_ell+1
        return np.unique(self.node_map[
            mesh.facet_elems[dfac, 0, None], edge[mesh.facet_local_edge[dfac, 0]]])
