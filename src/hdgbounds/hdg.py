"""HDG discretization of the primal and adjoint Poisson problems.

Element-local solvers are parameterized by the facet trace, statically
condensed onto the skeleton unknown, solved with a sparse direct
factorization, and back-substituted.  The numerical traces are

    uhat = Pi_e^p g_D                      on Dirichlet facets,
    qhat.n = q_h.n + tau (u_h - uhat)      from each element side,

with qhat.n single-valued across interior facets and equal to Pi_e^p g_N
on Neumann facets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import DIRICHLET, NEUMANN, Mesh
from .workspace import Workspace

__all__ = [
    "ProblemData",
    "OutputFunctional",
    "DirichletBand",
    "HDGSolution",
    "solve",
    "solve_primal",
    "solve_adjoint",
    "raw_output",
    "CondensedSystem",
    "assemble_condensed",
    "local_residuals",
    "zero",
]


def zero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class DirichletBand:
    """Descriptor of a non-polynomial Dirichlet datum on one straight,
    coordinate-aligned boundary portion, used by the band extension.

    axis: 0 if the portion lies on a line x = value, 1 for y = value.
    profile(s), profile_deriv(s): the datum and its derivative along the
    portion as functions of the varying coordinate s.
    """

    axis: int
    value: float
    profile: Callable
    profile_deriv: Callable


@dataclass
class ProblemData:
    """Source f, Dirichlet datum g_D, Neumann datum g_N (callables of
    vectorized x, y).  ``band`` flags g_D as non-polynomial on a straight
    boundary portion requiring the band extension."""

    f: Callable
    g_D: Callable = zero
    g_N: Callable = zero
    band: Optional[DirichletBand] = None


@dataclass
class OutputFunctional:
    """Quantity-of-interest data: s = (f_O, u) + <g_D_O, q.n>_GD + <g_N_O, u>_GN."""

    f_O: Callable = zero
    g_D_O: Callable = zero
    g_N_O: Callable = zero
    band: Optional[DirichletBand] = None

    def adjoint_data(self) -> ProblemData:
        """Data of the adjoint problem: (f, g_D, g_N) <- (f_O, g_D_O, -g_N_O)."""
        gno = self.g_N_O
        return ProblemData(f=self.f_O, g_D=self.g_D_O,
                           g_N=lambda x, y: -np.asarray(gno(x, y), dtype=float),
                           band=self.band)


@dataclass
class HDGSolution:
    """Element-local (u_h, q_h) plus skeleton traces on the workspace's mesh.

    u: (ne, n_p) and q: (ne, 2, n_p) mapped-orthonormal modal coefficients;
    uhat, qhat_n: (nf, p+1) coefficients in the canonical facet basis, with
    qhat_n taken along the stored (canonical) facet normal.
    """

    ws: Workspace
    tau: np.ndarray
    u: np.ndarray
    q: np.ndarray
    uhat: np.ndarray
    qhat_n: np.ndarray

    @property
    def mesh(self) -> Mesh:
        return self.ws.mesh

    @property
    def p(self) -> int:
        return self.ws.p


def _tau_array(mesh: Mesh, tau) -> np.ndarray:
    arr = np.broadcast_to(np.asarray(tau, dtype=float), (mesh.n_elements,)).copy()
    if np.any(arr <= 0):
        raise ValueError("stabilization tau must be strictly positive")
    return arr


def _local_operators(ws: Workspace, tau: np.ndarray):
    """Per-element local matrix and facet coupling.

    Returns M (ne, 3np, 3np), P (ne, 3np, 3F), R (ne, 3F, 3np) with the
    vector block ordered x-modes then y-modes, then the scalar block.
    """
    ne, np_, F1 = ws.mesh.n_elements, ws.np_, ws.p + 1
    nloc = 3 * np_

    # Kdiv[e, i, c*np_+m] = (div V_(c,m), psi_i)_K = JinvT[e,c,r] S[r,m,i]
    Kdiv = np.einsum("ecr,rmi->eicm", ws.jac_inv_t, ws.S).reshape(ne, np_, 2 * np_)

    M = np.zeros((ne, nloc, nloc))
    idx = np.arange(2 * np_)
    M[:, idx, idx] = (1.0 / ws.nu)[:, None]
    M[:, 2 * np_:, :2 * np_] = Kdiv
    M[:, :2 * np_, 2 * np_:] = -np.swapaxes(Kdiv, 1, 2)

    # boundary mass of scalar traces and trace couplings, per local edge
    P = np.zeros((ne, nloc, 3 * F1))
    R = np.zeros((ne, 3 * F1, nloc))
    E = np.zeros((ne, np_, np_))
    o = ws.eo  # (ne, 3)
    scale = np.sqrt(ws.elen) / ws.sqrt_det[:, None]          # (ne, 3)
    for ell in range(3):
        T = ws.T_p[ell, o[:, ell]]                           # (ne, F1, np_)
        sc = scale[:, ell]
        E += (ws.elen[:, ell] / ws.det)[:, None, None] * ws.EE[ell][None]
        cols = slice(ell * F1, (ell + 1) * F1)
        n = ws.enormal[:, ell]                               # (ne, 2) outward
        # Cq[e, (c,m_v), m] = n_c * sc * T[m, m_v]
        Cq = np.einsum("ec,emv->ecvm", n, T) * sc[:, None, None, None]
        Cq = Cq.reshape(ne, 2 * np_, F1)
        Cu = np.swapaxes(T, 1, 2) * sc[:, None, None]        # (ne, np_, F1)
        P[:, :2 * np_, cols] = -Cq
        P[:, 2 * np_:, cols] = tau[:, None, None] * Cu
        R[:, cols, :2 * np_] = np.swapaxes(Cq, 1, 2)
        R[:, cols, 2 * np_:] = tau[:, None, None] * np.swapaxes(Cu, 1, 2)
    M[:, 2 * np_:, 2 * np_:] = tau[:, None, None] * E
    return M, P, R


@dataclass
class CondensedSystem:
    """The statically condensed skeleton system for k right-hand sides, with
    what back-substitution needs.

    A is the symmetric positive definite operator on the free facet dofs
    (interior and Neumann facets) and rhs (n_free, k) its right-hand sides;
    uhat (k, nf*(p+1)) holds the Dirichlet trace moments at the fixed dofs.
    The local solution is X = XP uhat_e + Xb[:, :, j] per element.
    """

    A: sp.csc_matrix
    rhs: np.ndarray
    uhat: np.ndarray
    free_dofs: np.ndarray
    tau: np.ndarray
    XP: np.ndarray
    Xb: np.ndarray
    R: np.ndarray


def assemble_condensed(ws: Workspace, datas, tau) -> CondensedSystem:
    """Local solves for the traces and for every source in ``datas``, and the
    condensed skeleton system: one matrix, one right-hand side per datum."""
    mesh, p = ws.mesh, ws.p
    tau = _tau_array(mesh, tau)
    F1 = p + 1
    ne, nf = mesh.n_elements, mesh.n_facets

    M, P, R = _local_operators(ws, tau)
    b = np.zeros((ne, 3 * ws.np_, len(datas)))
    for j, data in enumerate(datas):
        b[:, 2 * ws.np_:, j] = ws.moments_p(ws.eval_data(data.f))

    try:
        X = np.linalg.solve(M, np.concatenate([P, b], axis=2))
    except np.linalg.LinAlgError:
        bad = [k for k in range(ne)
               if abs(np.linalg.det(M[k])) < 1e-300]
        raise RuntimeError(
            f"singular local solver matrix on element(s) {bad[:5]} "
            "(degenerate geometry?)")
    XP, Xb = X[:, :, :3 * F1], X[:, :, 3 * F1:]

    H = R @ XP                                               # (ne, 3F1, 3F1)
    diag = np.arange(3 * F1)
    H[:, diag, diag] -= np.repeat(tau, 3 * F1).reshape(ne, 3 * F1)

    gdof = (ws.ef[:, :, None] * F1 + np.arange(F1)[None, None, :]).reshape(ne, 3 * F1)
    rows = np.repeat(gdof, 3 * F1, axis=1).ravel()
    cols = np.tile(gdof, (1, 3 * F1)).ravel()
    A_full = sp.coo_matrix((H.ravel(), (rows, cols)),
                           shape=(nf * F1, nf * F1)).tocsr()

    dir_facets = np.nonzero(mesh.facet_tag == DIRICHLET)[0]
    neu_facets = np.nonzero(mesh.facet_tag == NEUMANN)[0]
    free = np.ones(nf, dtype=bool)
    free[dir_facets] = False
    free_dofs = (np.nonzero(free)[0][:, None] * F1 + np.arange(F1)[None, :]).ravel()
    fixed_dofs = (dir_facets[:, None] * F1 + np.arange(F1)[None, :]).ravel()
    A_free = A_full[free_dofs]
    A_fixed = A_free[:, fixed_dofs]

    # flip signs so the condensed operator is symmetric positive definite
    A = (-A_free[:, free_dofs]).tocsc()
    rhs = np.empty((len(free_dofs), len(datas)))
    uhat = np.zeros((len(datas), nf * F1))
    for j, data in enumerate(datas):
        rloc = -np.einsum("efl,el->ef", R, Xb[:, :, j])       # (ne, 3F1)
        rhs_full = np.zeros(nf * F1)
        np.add.at(rhs_full, gdof.ravel(), rloc.ravel())
        if len(neu_facets):
            rhs_full.reshape(nf, F1)[neu_facets] += ws.facet_data_moments(
                data.g_N, neu_facets)
        uhat_dir = ws.facet_data_moments(data.g_D, dir_facets).ravel()
        uhat[j, fixed_dofs] = uhat_dir
        rhs[:, j] = -(rhs_full[free_dofs] - A_fixed @ uhat_dir)
    return CondensedSystem(A=A, rhs=rhs, uhat=uhat, free_dofs=free_dofs,
                           tau=tau, XP=XP, Xb=Xb, R=R)


def _back_substitute(ws: Workspace, cs: CondensedSystem, j: int,
                     data: ProblemData) -> HDGSolution:
    mesh, p = ws.mesh, ws.p
    F1 = p + 1
    uhat_full = cs.uhat[j]
    uhat_e = uhat_full.reshape(mesh.n_facets, F1)[ws.ef].reshape(mesh.n_elements, 3 * F1)

    X = np.einsum("elf,ef->el", cs.XP, uhat_e) + cs.Xb[:, :, j]
    np_ = ws.np_
    q = X[:, :2 * np_].reshape(mesh.n_elements, 2, np_)
    u = X[:, 2 * np_:]

    # single-valued numerical flux in the canonical normal direction
    flux_mom = np.einsum("efl,el->ef", cs.R, X)              # <qhat.n_K, M_m> per side
    flux_mom -= cs.tau[:, None] * uhat_e
    flux_mom = flux_mom.reshape(mesh.n_elements, 3, F1) * ws.esign[:, :, None]
    qhat = np.zeros((mesh.n_facets, F1))
    cnt = np.zeros(mesh.n_facets)
    for ell in range(3):
        np.add.at(qhat, ws.ef[:, ell], flux_mom[:, ell])
        np.add.at(cnt, ws.ef[:, ell], 1.0)
    qhat /= cnt[:, None]
    neu = np.nonzero(mesh.facet_tag == NEUMANN)[0]
    if len(neu):
        # exact projected Neumann trace (canonical normal is outward there)
        qhat[neu] = ws.facet_data_moments(data.g_N, neu)

    return HDGSolution(ws=ws, tau=cs.tau, u=u, q=q,
                       uhat=uhat_full.reshape(mesh.n_facets, F1), qhat_n=qhat)


def solve(ws: Workspace, datas, tau=1.0) -> list[HDGSolution]:
    """HDG solutions on the workspace's mesh, one per ProblemData in
    ``datas``.  The data share the local solves, the condensed skeleton
    matrix and its sparse factorization."""
    cs = assemble_condensed(ws, datas, tau)
    if cs.A.shape[0]:
        try:
            lu = spla.splu(cs.A)
        except RuntimeError as exc:  # singular factorization
            raise RuntimeError(f"skeleton solve failed: {exc}") from exc
        cs.uhat[:, cs.free_dofs] = lu.solve(cs.rhs).T
    return [_back_substitute(ws, cs, j, data) for j, data in enumerate(datas)]


def solve_primal(mesh: Mesh, data: ProblemData, p: int, tau=1.0,
                 quad_degree: int | None = None) -> HDGSolution:
    """Solve the HDG primal problem; see module docstring for the traces."""
    return solve(Workspace(mesh, p, quad_degree), [data], tau)[0]


def solve_adjoint(mesh: Mesh, out: OutputFunctional, p: int, tau=1.0,
                  quad_degree: int | None = None) -> HDGSolution:
    """HDG approximation of the adjoint problem (data f_O, g_D_O, -g_N_O)."""
    return solve(Workspace(mesh, p, quad_degree), [out.adjoint_data()], tau)[0]


def raw_output(sol: HDGSolution, out: OutputFunctional) -> float:
    """s_h = (f_O, u_h) + <g_D_O, qhat.n>_GD + <g_N_O, u_h>_GN, with the
    numerical trace supplying the boundary flux."""
    ws = sol.ws
    mesh = sol.mesh
    fo = ws.eval_data(out.f_O)
    val = float(np.sum(ws.integrate_elementwise(fo * ws.eval_modal(sol.u))))

    dir_facets = np.nonzero(mesh.facet_tag == DIRICHLET)[0]
    if len(dir_facets):
        g = ws.eval_data(out.g_D_O, ws.ephys[dir_facets])
        tr = (sol.qhat_n[dir_facets] @ ws.psi_p) / np.sqrt(ws.facet_len[dir_facets])[:, None]
        val += float(np.einsum("ft,ft,t,f->", g, tr, ws.ew, ws.facet_len[dir_facets]))

    neu_facets = np.nonzero(mesh.facet_tag == NEUMANN)[0]
    if len(neu_facets):
        se, sl, so = ws.facet_sides()
        tr = ws.trace_values(sol.u, neu_facets, se[neu_facets, 0],
                             sl[neu_facets, 0], so[neu_facets, 0])
        g = ws.eval_data(out.g_N_O, ws.ephys[neu_facets])
        val += float(np.einsum("ft,ft,t,f->", g, tr, ws.ew, ws.facet_len[neu_facets]))
    return val


def local_residuals(sol: HDGSolution, data: ProblemData) -> tuple[float, float]:
    """Residuals of the two local HDG equations after back-substitution.

    Returns (flux-equation, balance-equation) max residuals, both relative;
    used by tests to assert the elementwise consistency of the solver.
    """
    ws = sol.ws
    tau = sol.tau
    M, P, R = _local_operators(ws, tau)
    fmom = ws.moments_p(ws.eval_data(data.f))
    b = np.zeros((ws.mesh.n_elements, 3 * ws.np_))
    b[:, 2 * ws.np_:] = fmom
    uhat_e = sol.uhat[ws.ef].reshape(ws.mesh.n_elements, 3 * (ws.p + 1))
    X = np.concatenate([sol.q.reshape(ws.mesh.n_elements, -1), sol.u], axis=1)
    res = np.einsum("eij,ej->ei", M, X) - np.einsum("eij,ej->ei", P, uhat_e) - b
    scale = 1.0 + np.abs(X).max(axis=1)
    r1 = np.abs(res[:, :2 * ws.np_]).max(axis=1) / scale
    r2 = np.abs(res[:, 2 * ws.np_:]).max(axis=1) / scale
    return float(r1.max()), float(r2.max())


def conservation_residual(sol: HDGSolution, data: ProblemData) -> float:
    """max_K |<qhat.n, 1>_dK - (f, 1)_K| (local conservation audit)."""
    ws = sol.ws
    # <qhat.n_K, 1>_e = esign * sqrt(L) * c_0 in the orthonormal facet basis,
    # and (f, 1)_K = (f, phi_0)_K * sqrt(det) / sqrt(2) for the constant mode
    c0 = sol.qhat_n[ws.ef, 0]
    flux = np.sum(c0 * ws.esign * np.sqrt(ws.elen), axis=1)
    fmom0 = ws.moments_p(ws.eval_data(data.f))[:, 0]
    fint = fmom0 * np.sqrt(ws.det) / np.sqrt(2.0)
    return float(np.abs(flux - fint).max() / (1.0 + np.abs(fint).max()))
