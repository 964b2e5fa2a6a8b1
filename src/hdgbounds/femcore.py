"""Reference-element machinery on triangles and segments.

Everything downstream (HDG solves, flux/potential reconstructions, bound
evaluation) is expressed in terms of the objects defined here:

* Gauss quadrature rules on the unit triangle and the unit segment,
  exact to a requested polynomial degree.
* An orthonormal modal basis of P^q on the reference triangle (Jacobi
  polynomials in collapsed coordinates) and of P^q on the unit segment
  (rescaled Legendre).  Mapped affinely with a 1/sqrt(2|K|) scaling the
  basis stays L2-orthonormal on each physical element, which makes all
  L2 projections diagonal.
* Lagrange lattices of arbitrary degree for the continuous potential.
* The Raviart-Thomas space RT^q(K) = [P^q(K)]^2 + x P^q(K) built directly
  in physical coordinates.
* Elementwise and global energy norms sqrt((nu^-1 v, v)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import eval_jacobi, gammaln, roots_jacobi, roots_legendre

__all__ = [
    "QuadratureRule",
    "ScalarPoly",
    "VectorPoly",
    "RTSpace",
    "triangle_rule",
    "segment_rule",
    "tri_basis",
    "tri_basis_grad",
    "seg_basis",
    "lagrange_lattice",
    "n_modes",
    "project_element",
    "project_edge",
    "energy_norm",
]


def n_modes(q: int) -> int:
    """Dimension of P^q on a triangle."""
    return (q + 1) * (q + 2) // 2


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on a reference domain, exact up to ``degree``."""

    points: np.ndarray   # (nq, dim) for the triangle, (nq,) for the segment
    weights: np.ndarray  # (nq,)
    degree: int


@lru_cache(maxsize=64)
def triangle_rule(degree: int) -> QuadratureRule:
    """Gauss rule on the unit triangle {x,y >= 0, x+y <= 1}.

    Collapsed-coordinate product of Gauss-Legendre and Gauss-Jacobi(1,0)
    points; positive weights, exact for total degree <= ``degree``.
    """
    n = max(1, (degree + 2) // 2)
    ga, wa = roots_legendre(n)
    gb, wb = roots_jacobi(n, 1.0, 0.0)
    # biunit triangle {r,s >= -1, r+s <= 0}, then map to the unit triangle
    r = np.outer(1.0 + ga, 1.0 - gb) / 2.0 - 1.0
    s = np.broadcast_to(gb, r.shape)
    w = np.outer(wa, wb) / 2.0
    pts = np.column_stack([(r.ravel() + 1.0) / 2.0, (s.ravel() + 1.0) / 2.0])
    return QuadratureRule(pts, w.ravel() / 4.0, 2 * n - 1)


@lru_cache(maxsize=64)
def segment_rule(degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1], exact for degree <= ``degree``."""
    n = max(1, (degree + 2) // 2)
    g, w = roots_legendre(n)
    return QuadratureRule((g + 1.0) / 2.0, w / 2.0, 2 * n - 1)


# ---------------------------------------------------------------------------
# Orthonormal modal bases
# ---------------------------------------------------------------------------

def _jacobi_norm(n: int, a: float, b: float) -> float:
    # L2(-1,1) norm of P_n^{(a,b)} with weight (1-x)^a (1+x)^b
    num = gammaln(n + a + 1) + gammaln(n + b + 1)
    den = gammaln(n + a + b + 1) + gammaln(n + 1)
    return np.sqrt(2.0 ** (a + b + 1) / (2 * n + a + b + 1) * np.exp(num - den))


def _jacobi(x, n, a, b):
    return eval_jacobi(n, a, b, x) / _jacobi_norm(n, a, b)


def _grad_jacobi(x, n, a, b):
    if n == 0:
        return np.zeros_like(x)
    return np.sqrt(n * (n + a + b + 1)) * _jacobi(x, n - 1, a + 1, b + 1)


def _mode_pairs(q: int) -> list[tuple[int, int]]:
    # ordered by total degree so P^q modes prefix P^{q'} modes for q < q'
    return [(i, d - i) for d in range(q + 1) for i in range(d + 1)]


def _collapsed(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r = 2.0 * pts[:, 0] - 1.0
    s = 2.0 * pts[:, 1] - 1.0
    a = np.full_like(r, -1.0)
    ok = np.abs(s - 1.0) > 1e-14
    a[ok] = 2.0 * (1.0 + r[ok]) / (1.0 - s[ok]) - 1.0
    return a, s


def tri_basis(q: int, pts: np.ndarray) -> np.ndarray:
    """Orthonormal basis of P^q on the unit triangle, values at ``pts``.

    Returns an array of shape (n_modes(q), len(pts)).
    """
    a, b = _collapsed(np.asarray(pts, dtype=float))
    out = np.empty((n_modes(q), len(a)))
    for m, (i, j) in enumerate(_mode_pairs(q)):
        val = np.sqrt(2.0) * _jacobi(a, i, 0, 0) * _jacobi(b, j, 2 * i + 1, 0)
        if i > 0:
            val = val * (1.0 - b) ** i
        out[m] = 2.0 * val
    return out


def tri_basis_grad(q: int, pts: np.ndarray) -> np.ndarray:
    """Gradients of the P^q modal basis, shape (n_modes(q), len(pts), 2).

    Valid at interior points; the collapsed-coordinate chain rule is
    singular at the vertex (0, 1), which Gauss points never hit.
    """
    pts = np.asarray(pts, dtype=float)
    a, b = _collapsed(pts)
    out = np.empty((n_modes(q), len(a), 2))
    for m, (i, j) in enumerate(_mode_pairs(q)):
        fa = _jacobi(a, i, 0, 0)
        dfa = _grad_jacobi(a, i, 0, 0)
        gb = _jacobi(b, j, 2 * i + 1, 0)
        dgb = _grad_jacobi(b, j, 2 * i + 1, 0)
        half = 0.5 * (1.0 - b)
        dr = dfa * gb
        ds = dfa * (gb * 0.5 * (1.0 + a))
        if i > 0:
            dr = dr * half ** (i - 1)
            ds = ds * half ** (i - 1)
        tmp = dgb * half ** i
        if i > 0:
            tmp = tmp - 0.5 * i * gb * half ** (i - 1)
        ds = ds + fa * tmp
        scale = 2.0 ** (i + 0.5)
        # biunit (r,s) -> unit (x,y) contributes a factor 2, mapping the value
        # scaling (2) times the derivative chain (2)
        out[m, :, 0] = 4.0 * scale * dr
        out[m, :, 1] = 4.0 * scale * ds
    return out


def seg_basis(q: int, t: np.ndarray) -> np.ndarray:
    """Orthonormal basis of P^q on [0, 1]; shape (q+1, len(t))."""
    t = np.asarray(t, dtype=float)
    x = 2.0 * t - 1.0
    return np.array([np.sqrt(2.0) * _jacobi(x, k, 0, 0) for k in range(q + 1)])


# ---------------------------------------------------------------------------
# Lagrange lattice of degree m on the unit triangle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LagrangeLattice:
    """Principal lattice of degree m with node classification.

    Node order: the 3 vertices, then m-1 nodes per local edge
    (edge 0: v0->v1, edge 1: v1->v2, edge 2: v2->v0, endpoints excluded,
    walked in edge direction), then interior nodes.
    """

    degree: int
    nodes: np.ndarray          # (n_nodes, 2)
    vertex_slots: np.ndarray   # (3,) indices into nodes
    edge_slots: np.ndarray     # (3, m-1) indices, in local edge direction
    interior_slots: np.ndarray
    vandermonde_inv: np.ndarray  # maps modal coefficients -> nodal values


@lru_cache(maxsize=16)
def lagrange_lattice(m: int) -> LagrangeLattice:
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    nodes = [verts[0], verts[1], verts[2]]
    edge_slots = np.zeros((3, max(m - 1, 0)), dtype=int)
    for e, (va, vb) in enumerate(((0, 1), (1, 2), (2, 0))):
        for k in range(1, m):
            edge_slots[e, k - 1] = len(nodes)
            nodes.append(verts[va] + (verts[vb] - verts[va]) * k / m)
    interior = []
    for i in range(1, m):
        for j in range(1, m - i):
            interior.append(len(nodes))
            nodes.append(np.array([i / m, j / m]))
    nodes = np.array(nodes)
    vand = tri_basis(m, nodes).T               # (n_nodes, n_modes)
    return LagrangeLattice(
        degree=m,
        nodes=nodes,
        vertex_slots=np.array([0, 1, 2]),
        edge_slots=edge_slots,
        interior_slots=np.array(interior, dtype=int),
        vandermonde_inv=np.linalg.inv(vand),
    )


# ---------------------------------------------------------------------------
# Polynomial value types
# ---------------------------------------------------------------------------

@dataclass
class ScalarPoly:
    """Element polynomial: coefficients in the mapped orthonormal P^q basis."""

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        assert len(self.coeffs) == n_modes(self.degree)


@dataclass
class VectorPoly:
    """Element vector polynomial, one coefficient row per component."""

    degree: int
    coeffs: np.ndarray  # (2, n_modes)

    def __post_init__(self):
        assert self.coeffs.shape == (2, n_modes(self.degree))


# ---------------------------------------------------------------------------
# Projections (single-element convenience wrappers; pipelines use the
# batched versions in workspace.py)
# ---------------------------------------------------------------------------

def _element_map(mesh, k):
    v = mesh.vertices[mesh.elements[k]]
    jac = np.column_stack([v[1] - v[0], v[2] - v[0]])
    return v[0], jac, float(np.linalg.det(jac))


def element_points(mesh, k, ref_pts):
    """Map reference points to physical coordinates of element k."""
    v0, jac, _ = _element_map(mesh, k)
    return v0 + np.asarray(ref_pts) @ jac.T


def project_element(f, mesh, k: int, q: int, quad_degree: int | None = None) -> ScalarPoly:
    """L2 projection of f onto P^q(element k): (f - Pf, w)_K = 0 for w in P^q.

    f must be vectorized over (x, y) arrays.  Raises if f evaluates to a
    non-finite value at any quadrature point.
    """
    rule = triangle_rule(quad_degree if quad_degree is not None else 2 * q + 4)
    v0, jac, det = _element_map(mesh, k)
    pts = v0 + rule.points @ jac.T
    vals = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
    vals = np.broadcast_to(vals, (len(pts),))
    if not np.all(np.isfinite(vals)):
        bad = pts[~np.isfinite(vals)][0]
        raise ValueError(f"non-finite function value at quadrature point {tuple(bad)}")
    # mapped basis phi = ref_phi / sqrt(det); (f, phi)_K = det * sum(w f ref_phi) / sqrt(det)
    phi = tri_basis(q, rule.points)
    coeffs = np.sqrt(det) * (phi * rule.weights) @ vals
    return ScalarPoly(q, coeffs)


def eval_scalar_poly(poly: ScalarPoly, mesh, k: int, ref_pts) -> np.ndarray:
    """Evaluate an element polynomial at reference points of element k."""
    _, _, det = _element_map(mesh, k)
    return poly.coeffs @ tri_basis(poly.degree, ref_pts) / np.sqrt(det)


def project_edge(g, mesh, facet: int, q: int, quad_degree: int | None = None) -> np.ndarray:
    """L2 projection of g onto P^q(facet): coefficients in the orthonormal
    Legendre basis of the facet's canonical arclength parameterization."""
    rule = segment_rule(quad_degree if quad_degree is not None else 2 * q + 4)
    va, vb = mesh.vertices[mesh.facets[facet]]
    pts = va + np.outer(rule.points, vb - va)
    length = float(np.linalg.norm(vb - va))
    vals = np.asarray(g(pts[:, 0], pts[:, 1]), dtype=float)
    vals = np.broadcast_to(vals, (len(pts),))
    if not np.all(np.isfinite(vals)):
        bad = pts[~np.isfinite(vals)][0]
        raise ValueError(f"non-finite function value at quadrature point {tuple(bad)}")
    psi = seg_basis(q, rule.points)
    return np.sqrt(length) * (psi * rule.weights) @ vals


def eval_edge_poly(coeffs: np.ndarray, mesh, facet: int, t) -> np.ndarray:
    """Evaluate an edge polynomial at canonical parameters t in [0, 1]."""
    va, vb = mesh.vertices[mesh.facets[facet]]
    length = float(np.linalg.norm(vb - va))
    return coeffs @ seg_basis(len(coeffs) - 1, np.asarray(t)) / np.sqrt(length)


# ---------------------------------------------------------------------------
# Raviart-Thomas space on a physical element
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RTSpace:
    """RT^p on one physical triangle, built in physical coordinates.

    Basis: the 2*n_modes(p) mapped scalar modes times the unit vectors,
    followed by p+1 functions (x - c) * h_k((x - c)/h_K) with h_k the
    homogeneous degree-p monomials; c is the centroid.  dim = (p+1)(p+3).
    """

    p: int
    centroid: np.ndarray
    h_scale: float
    det: float

    @property
    def dim(self) -> int:
        return (self.p + 1) * (self.p + 3)

    def eval(self, pts_phys: np.ndarray, pts_ref: np.ndarray) -> np.ndarray:
        """Basis values at matching physical/reference points: (dim, npts, 2)."""
        p, npts = self.p, len(pts_phys)
        nm = n_modes(p)
        out = np.zeros((self.dim, npts, 2))
        phi = tri_basis(p, pts_ref) / np.sqrt(self.det)
        out[:nm, :, 0] = phi
        out[nm:2 * nm, :, 1] = phi
        # tails scaled to unit-size L2 norms so the local solve stays
        # well-conditioned on tiny elements
        d = (pts_phys - self.centroid) / self.h_scale
        ts = np.sqrt(2.0 / self.det) / self.h_scale
        for k in range(p + 1):
            h = d[:, 0] ** (p - k) * d[:, 1] ** k
            out[2 * nm + k] = ts * (pts_phys - self.centroid) * h[:, None]
        return out

    def divergence(self, pts_phys: np.ndarray, pts_ref: np.ndarray,
                   jac_inv_t: np.ndarray) -> np.ndarray:
        """Divergence of each basis member at the given points: (dim, npts)."""
        p, npts = self.p, len(pts_phys)
        nm = n_modes(p)
        out = np.zeros((self.dim, npts))
        grad = tri_basis_grad(p, pts_ref) / np.sqrt(self.det)  # ref gradients
        gx = grad @ jac_inv_t.T  # physical gradients, (nm, npts, 2)
        out[:nm] = gx[:, :, 0]
        out[nm:2 * nm] = gx[:, :, 1]
        d = (pts_phys - self.centroid) / self.h_scale
        ts = np.sqrt(2.0 / self.det) / self.h_scale
        for k in range(p + 1):
            h = d[:, 0] ** (p - k) * d[:, 1] ** k
            # div((x-c) h) = 2 h + (x-c).grad h, with (x-c).grad h = p h
            out[2 * nm + k] = ts * (2.0 + p) * h
        return out


# ---------------------------------------------------------------------------
# Energy norm
# ---------------------------------------------------------------------------

def energy_norm(v, mesh, per_element: bool = False):
    """Energy norm ||v|| = sqrt(sum_K (nu^-1 v, v)_K) of a callable
    (x, y) -> (..., 2) array of vector values, by a degree-8 rule per element.
    """
    rule = triangle_rule(8)
    nu = mesh.element_nu()
    acc = np.zeros(mesh.n_elements)
    for k in range(mesh.n_elements):
        v0, jac, det = _element_map(mesh, k)
        pts = v0 + rule.points @ jac.T
        vals = np.asarray(v(pts[:, 0], pts[:, 1]), dtype=float)
        vals = np.broadcast_to(vals, (len(pts), 2))
        acc[k] = det * np.sum(rule.weights * np.sum(vals * vals, axis=1)) / nu[k]
    return np.sqrt(acc) if per_element else float(np.sqrt(acc.sum()))
