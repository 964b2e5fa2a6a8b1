"""Reference-element machinery on triangles and segments.

Everything downstream (HDG solves, flux/potential reconstructions, bound
evaluation) is built on the reference tables defined here; the batched
per-mesh evaluation (projections, traces, the RT^p flux, energy norms) lives
in workspace.py, reconstruct.py and bounds.py:

* Gauss quadrature rules on the unit triangle and the unit segment,
  exact to a requested polynomial degree.
* An orthonormal modal basis of P^q on the reference triangle (Jacobi
  polynomials in collapsed coordinates) and of P^q on the unit segment
  (rescaled Legendre).  Mapped affinely with a 1/sqrt(2|K|) scaling the
  basis stays L2-orthonormal on each physical element, which makes all
  L2 projections diagonal.
* Lagrange lattices of arbitrary degree for the continuous potential.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import eval_jacobi, gammaln, roots_jacobi, roots_legendre

__all__ = [
    "QuadratureRule",
    "triangle_rule",
    "segment_rule",
    "tri_basis",
    "tri_basis_grad",
    "seg_basis",
    "lagrange_lattice",
    "n_modes",
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
