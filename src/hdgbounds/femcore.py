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
* reference_tables: every table of degree p and quadrature degree that does
  not depend on the mesh, built once per (p, quad_degree) and read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

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
    "reference_tables",
]


def n_modes(q: int) -> int:
    """Dimension of P^q on a triangle."""
    return (q + 1) * (q + 2) // 2


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on a reference domain (triangle_rule, segment_rule)."""

    points: np.ndarray   # (nq, dim) for the triangle, (nq,) for the segment
    weights: np.ndarray  # (nq,)


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
    w = w.ravel() / 4.0
    _frozen(pts, w)
    return QuadratureRule(pts, w)


def segment_rule(degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1], exact for degree <= ``degree``."""
    n = max(1, (degree + 2) // 2)
    g, w = roots_legendre(n)
    pts, w = (g + 1.0) / 2.0, w / 2.0
    _frozen(pts, w)
    return QuadratureRule(pts, w)


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
        out[m] = 2.0 * (val * (1.0 - b) ** i)
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

    nodes: np.ndarray          # (n_nodes, 2)
    vertex_slots: np.ndarray   # (3,) indices into nodes
    edge_slots: np.ndarray     # (3, m-1) indices, in local edge direction
    interior_slots: np.ndarray
    vandermonde_inv: np.ndarray  # maps nodal values -> modal coefficients


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
    lat = LagrangeLattice(
        nodes=nodes,
        vertex_slots=np.array([0, 1, 2]),
        edge_slots=edge_slots,
        interior_slots=np.array(interior, dtype=int),
        vandermonde_inv=np.linalg.inv(vand),
    )
    _frozen(lat.nodes, lat.vertex_slots, lat.edge_slots, lat.interior_slots,
            lat.vandermonde_inv)
    return lat


# ---------------------------------------------------------------------------
# Mesh-independent tables of one (p, quad_degree) pair
# ---------------------------------------------------------------------------

def _symmetric(A: np.ndarray) -> np.ndarray:
    """(2, 2, ...) -> (3, ...): the parts 00, 01 + 10 and 11 of A, which a
    symmetric 2 x 2 metric weighs."""
    return np.stack([A[0, 0], A[0, 1] + A[1, 0], A[1, 1]])


_REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_REF_EDGES = ((0, 1), (1, 2), (2, 0))


@lru_cache(maxsize=32)
def reference_tables(p: int, quad_degree: int) -> MappingProxyType:
    """Every table of degree p >= 0 (m = p + 1) under the rules exact to
    quad_degree that does not depend on the mesh, as a read-only mapping of
    read-only arrays, built on the first call and shared afterwards.  A
    Workspace exposes each entry as an attribute of the same name.

    Volume quadrature qref (nq, 2), qw; modal tables phi_p (np_, nq),
    phi_m, dphi_m (nm, nq, 2); local-solver tensors
      S[r, a, b]     = int d_r phi^p_a phi^p_b
      Qm[r, a, b]    = int phi^m_a d_r phi^m_b
      S_mp[r, a, i]  = int d_r phi^m_a phi^p_i,
    and S2 (3, (nm-1)^2), the _symmetric parts of int d_r phi^m_a d_s phi^m_b
    over the nonconstant modes a, b >= 1.
    Facet quadrature et (nqe,), ew on the canonical parameter t in [0, 1],
    segment bases psi_p (p+1, nqe), psi_m (p+2, nqe); for each (local edge,
    orientation) case, with o = 1 when the canonical direction matches the
    local edge direction, the modal traces etab_p/etab_m at the facet
    quadrature points, their segment moments
    T_p[l, o, m, i] = int psi_p[m] etab_p[l, o, i] dt (T_mm at degree m)
    and the trace mass EE[l, i, j].  The Lagrange lattice of degree m with
    its values lag_vals (nq, n_nodes), gradients lag_grads (n_nodes, nq, 2),
    traces lag_edge (3, 2, n_nodes, nqe) and gradients in the degree-m
    modal basis lag_grads_m[j, r, a] = int d_r L_j phi^m_a (n_nodes, 2, nm),
    and the modal Vandermonde vand_m (n_nodes, nm).  rt_T, rt_dofs: the
    reference RT^p generators and the basis dual to their degrees of
    freedom (_reference_rt); opt_nullspace: the reference feasible
    directions of the local optimization (_reference_nullspace), and the
    reference tensors its normal equations are built from
    (_reference_opt_tensors).  The scalars p, quad_degree, m, np_, nm, nq,
    nqe and n_nodes complete it.
    """
    t = {"p": p, "quad_degree": quad_degree, "m": p + 1,
         "np_": n_modes(p), "nm": n_modes(p + 1)}
    m = t["m"]
    rule = triangle_rule(quad_degree)
    qref = t["qref"] = rule.points
    w = t["qw"] = rule.weights
    t["nq"] = len(w)
    phi_p = t["phi_p"] = tri_basis(p, qref)
    phi_m = t["phi_m"] = tri_basis(m, qref)
    dphi_m = t["dphi_m"] = tri_basis_grad(m, qref)
    t["S"] = np.einsum("aqr,bq,q->rab", tri_basis_grad(p, qref), phi_p, w)
    t["Qm"] = np.einsum("aq,bqr,q->rab", phi_m, dphi_m, w)
    t["S2"] = _symmetric(np.einsum("aqr,bqs,q->rsab", dphi_m[1:], dphi_m[1:], w)
                         ).reshape(3, -1)
    t["S_mp"] = np.einsum("aqr,iq,q->rai", dphi_m, phi_p, w)

    erule = segment_rule(quad_degree)
    et = t["et"] = erule.points
    ew = t["ew"] = erule.weights
    nqe = t["nqe"] = len(et)
    psi_p = t["psi_p"] = seg_basis(p, et)
    psi_m = t["psi_m"] = seg_basis(m, et)
    edge_ref = np.empty((3, 2, nqe, 2))
    for ell, (a, b) in enumerate(_REF_EDGES):
        edge_ref[ell, 1] = _REF_VERTS[a] + et[:, None] * (_REF_VERTS[b] - _REF_VERTS[a])
        edge_ref[ell, 0] = _REF_VERTS[b] + et[:, None] * (_REF_VERTS[a] - _REF_VERTS[b])
    etab_p = t["etab_p"] = np.empty((3, 2, t["np_"], nqe))
    etab_m = t["etab_m"] = np.empty((3, 2, t["nm"], nqe))
    for ell in range(3):
        for o in range(2):
            etab_p[ell, o] = tri_basis(p, edge_ref[ell, o])
            etab_m[ell, o] = tri_basis(m, edge_ref[ell, o])
    t["T_p"] = np.einsum("mt,loit,t->lomi", psi_p, etab_p, ew)
    t["T_mm"] = np.einsum("mt,loit,t->lomi", psi_m, etab_m, ew)
    t["EE"] = np.einsum("loit,lojt,t->loij", etab_p, etab_p, ew)[:, 0]

    lat = t["lattice"] = lagrange_lattice(m)
    t["n_nodes"] = len(lat.nodes)
    t["lag_vals"] = phi_m.T @ lat.vandermonde_inv
    t["lag_grads"] = np.einsum("jqd,jk->kqd", dphi_m, lat.vandermonde_inv)
    t["lag_edge"] = np.einsum("loit,ik->lokt", etab_m, lat.vandermonde_inv)
    t["lag_grads_m"] = np.einsum("rab,bk->kra", t["Qm"], lat.vandermonde_inv)
    t["vand_m"] = tri_basis(m, lat.nodes).T

    t["rt_T"], t["rt_dofs"] = _reference_rt(t)
    t["opt_nullspace"] = _reference_nullspace(t)
    t.update(_reference_opt_tensors(t))
    _frozen(*(v for v in t.values() if isinstance(v, np.ndarray)))
    return MappingProxyType(t)


def _reference_rt(t: dict) -> tuple[np.ndarray, np.ndarray]:
    """The reference RT^p generators and the basis dual to their degrees of
    freedom.

    T (N, 2, nm) holds the componentwise modal P^{p+1} coefficients of the
    generators on the reference element: the P^p modes times each unit
    vector, then the p+1 tails (x - c) h_k(x - c), with c the centroid and
    h_k the homogeneous degree-p monomials.  A (N, N) holds their degrees of
    freedom: the moments of y.|e|n against P^p on each local edge, walked
    in its local direction, then the moments of each component against
    [P^{p-1}]^2.  Returns T and A^-T T (N, 2 nm), the modal coefficients
    of the basis whose degrees of freedom are the unit vectors.
    """
    p, np_, nm = t["p"], t["np_"], t["nm"]
    N, F1, n1 = (p + 1) * (p + 3), p + 1, n_modes(p - 1)
    T = np.zeros((N, 2, nm))
    idx = np.arange(np_)
    T[idx, 0, idx] = T[np_ + idx, 1, idx] = 1.0
    d = t["qref"] - 1.0 / 3.0
    for k in range(F1):
        h = d[:, 0] ** (p - k) * d[:, 1] ** k * t["qw"]
        T[2 * np_ + k] = (d * h[:, None]).T @ t["phi_m"].T
    A = np.empty((N, N))
    edge_normals = np.array([[0.0, -1.0], [1.0, 1.0], [-1.0, 0.0]])  # |e| n
    for ell in range(3):
        yn = edge_normals[ell] @ (T @ t["etab_m"][ell, 1])          # (N, nqe)
        A[ell * F1:(ell + 1) * F1] = (t["psi_p"] * t["ew"]) @ yn.T
    A[3 * F1:] = T[:, :, :n1].transpose(1, 2, 0).reshape(2 * n1, N)
    return T, np.linalg.solve(A.T, T.reshape(N, -1))


def _reference_constraints(t: dict) -> np.ndarray:
    """The constraints of local_optimize on the reference element, in the
    variables (y_0, y_1, u) with q = J y: the divergence moments against
    P^p, the moments of q.n and of u against P^{p+1} on each facet, and the
    constant mode of u.  Rank-deficient on purpose (the trace moments of
    the three facets are dependent)."""
    nm, np_, F2 = t["nm"], t["np_"], t["m"] + 1
    normals = np.array([[0.0, -1.0], [np.sqrt(0.5), np.sqrt(0.5)], [-1.0, 0.0]])
    C = np.zeros((np_ + 6 * F2 + 1, 3 * nm))
    for r in (0, 1):
        C[:np_, r * nm:(r + 1) * nm] = t["S_mp"][r].T          # div q = Pi_K^p f
    for ell in range(3):
        rows = np_ + ell * F2 + np.arange(F2)
        T = t["T_mm"][ell, 1]
        for r in (0, 1):
            C[rows, r * nm:(r + 1) * nm] = normals[ell, r] * T  # q.n on dK
        C[rows + 3 * F2, 2 * nm:] = T                          # u on dK
    C[-1, 2 * nm] = 1.0                                        # (u, 1)_K
    return C


def _reference_nullspace(t: dict) -> np.ndarray:
    """Orthonormal basis (3 nm, k) of the nullspace of local_optimize's
    constraints on the reference element, in the variables (y_0, y_1, u)
    with q = J y.

    On an element with Jacobian J the constraint matrix is a nonzero row
    scaling of this one applied to (J^-1 q, u): the facet rows carry
    J^T n, a multiple of the reference normal, and the orientation only
    flips the sign of odd trace moments.  So every element's feasible
    directions are the reference ones mapped by q = J y.

    The basis is rotated by the right singular vectors of its potential
    rows, which keeps its span and its orthonormality and makes those rows'
    columns mutually orthogonal: the directions without a potential part
    (pure flux, whose objective scales like h^2) are split from those with
    one (scaling like h^-2).  A diagonal scaling of the normal matrix then
    conditions it on graded meshes as well, which a mixed basis defeats.
    """
    _, S, Vt = np.linalg.svd(_reference_constraints(t))
    rank = int(np.sum(S > S[0] * 1e-11))
    N = Vt[rank:].T
    _, _, W = np.linalg.svd(N[2 * t["nm"]:])
    return N @ W.T


def _reference_opt_tensors(t: dict) -> dict:
    """Reference tensors of local_optimize's normal equations.

    With Y[r, q, k] the reference flux y and G[r, q, k] the reference
    potential gradient of direction k at quadrature point q, the objective
    on an element with Jacobian J and diffusivity nu has the normal matrix
      sum_rs (J^T J)_rs / nu Gqq_rs + Gqg + Gqg^T
             + nu sum_rs (J^T J)^-1_rs Ggg_rs
    (the cross term has no geometry, since J^T J^-T = I).  Both metrics
    are symmetric, so opt_gram (6, k k) holds the _symmetric parts of Gqq,
    then of Ggg, with Gqq_rs = sum_q w Y_r^T Y_s; opt_cross (k, k) is
    Gqg + Gqg^T.  The right-hand side against a residual q~ + nu grad u~ of
    mapped-modal coefficients C (2, nm) is
      sum_d C_d (sum_r J_dr / nu PY_r + (J^-1)_rd PG_r),
    with opt_rhs_q (nm, 4 k) = [PY_0, PY_1, PG_0, PG_1], PY_r[a, k] =
    sum_q w phi_a Y_r (PG likewise with G).
    """
    nm, w, N = t["nm"], t["qw"], t["opt_nullspace"]
    k = N.shape[1]
    Y = np.einsum("aq,rak->rqk", t["phi_m"], N[:2 * nm].reshape(2, nm, k))
    G = np.einsum("aqr,ak->rqk", t["dphi_m"], N[2 * nm:])
    gram = np.concatenate([_symmetric(np.einsum("rqk,sql,q->rskl", X, X, w))
                           for X in (Y, G)]).reshape(6, k * k)
    cross = np.einsum("rqk,rql,q->kl", Y, G, w)
    rhs_q = np.concatenate([np.einsum("aq,rqk,q->ark", t["phi_m"], X, w)
                            for X in (Y, G)], axis=1).reshape(nm, 4 * k)
    return {"opt_gram": gram, "opt_cross": cross + cross.T, "opt_rhs_q": rhs_q}
