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

from .mesh import Mesh
from .workspace import Workspace

__all__ = [
    "ProblemData",
    "OutputFunctional",
    "DirichletBand",
    "HDGSolution",
    "solve",
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


def _local_operators(ws: Workspace):
    """The blocks of the element-local problem

        q / nu - Kdiv^T u  = -Cq uhat
        Kdiv q + tau E u   = tau Cu uhat + (f, psi)

    with q ordered x-modes then y-modes and the facet modes by local edge:
    Kdiv (ne, np, 2np), the trace mass E (ne, np, np), and the trace
    couplings Cq (ne, 2np, 3F), Cu (ne, np, 3F).
    """
    ne, np_, F1 = ws.mesh.n_elements, ws.np_, ws.p + 1

    # Kdiv[e, i, c*np_+m] = (div V_(c,m), psi_i)_K = JinvT[e,c,r] S[r,m,i]
    Kdiv = (ws.jac_inv_t @ ws.S.reshape(2, np_ * np_)).reshape(
        ne, 2 * np_, np_).swapaxes(1, 2)
    E = ((ws.elen / ws.det[:, None]) @ ws.EE.reshape(3, np_ * np_)).reshape(
        ne, np_, np_)

    # Cu[e, v, (ell, m)] = <psi_v, M_m>_ell and Cq[e, (c, v), :] = n_c Cu[e, v, :]
    T = ws.T_p[np.arange(3), ws.eo]                          # (ne, 3, F1, np_)
    scale = np.sqrt(ws.elen) / ws.sqrt_det[:, None]          # (ne, 3)
    Cu = (T * scale[:, :, None, None]).transpose(0, 3, 1, 2)  # (ne, np_, 3, F1)
    Cq = ws.enormal.transpose(0, 2, 1)[:, :, None, :, None] * Cu[:, None]
    return (Kdiv, E, Cq.reshape(ne, 2 * np_, 3 * F1),
            Cu.reshape(ne, np_, 3 * F1))


@dataclass
class CondensedSystem:
    """The statically condensed skeleton system for k right-hand sides, with
    what back-substitution needs.

    A is the symmetric positive definite operator on the free facet dofs
    (interior and Neumann facets) and rhs (n_free, k) its right-hand sides;
    uhat (k, nf*(p+1)) holds the Dirichlet trace moments at the fixed dofs.
    Per element u = XP uhat_e + Xb[:, :, j], and the flux follows from the
    local blocks Kdiv, Cq, Cu.
    """

    A: sp.csc_matrix
    rhs: np.ndarray
    uhat: np.ndarray
    free_dofs: np.ndarray
    tau: np.ndarray
    XP: np.ndarray
    Xb: np.ndarray
    Kdiv: np.ndarray
    Cq: np.ndarray
    Cu: np.ndarray


def assemble_condensed(ws: Workspace, datas, tau) -> CondensedSystem:
    """Local solves for the traces and for every source in ``datas``, and the
    condensed skeleton system: one matrix, one right-hand side per datum.

    The flux equation gives q = nu (Kdiv^T u - Cq uhat), which leaves the
    symmetric positive definite np x np system
    (nu Kdiv Kdiv^T + tau E) u = G uhat + (f, psi), G = tau Cu + nu Kdiv Cq.
    """
    mesh, p = ws.mesh, ws.p
    tau = _tau_array(mesh, tau)
    F1 = p + 1
    ne, nf = mesh.n_elements, mesh.n_facets

    Kdiv, E, Cq, Cu = _local_operators(ws)
    nu, t = ws.nu[:, None, None], tau[:, None, None]
    K = nu * (Kdiv @ Kdiv.swapaxes(1, 2)) + t * E
    G = t * Cu + nu * (Kdiv @ Cq)
    b = np.stack([ws.moments_p(ws.eval_data(data.f)) for data in datas], axis=2)
    try:
        X = np.linalg.solve(K, np.concatenate([G, b], axis=2))
    except np.linalg.LinAlgError:
        bad = np.flatnonzero(np.abs(np.linalg.det(K)) < 1e-300)
        raise RuntimeError(
            f"singular local solver matrix on element(s) {bad[:5].tolist()} "
            "(degenerate geometry?)")
    XP, Xb = X[:, :, :3 * F1], X[:, :, 3 * F1:]

    # <qhat.n_K, mu> = <q.n_K + tau (u - uhat), mu> = G^T Xb - Aloc uhat_e
    Aloc = nu * (Cq.swapaxes(1, 2) @ Cq) - G.swapaxes(1, 2) @ XP
    diag = np.arange(3 * F1)
    Aloc[:, diag, diag] += tau[:, None]
    GXb = G.swapaxes(1, 2) @ Xb                              # (ne, 3F1, k)

    gdof = (ws.ef[:, :, None] * F1 + np.arange(F1)[None, None, :]).reshape(ne, 3 * F1)
    rows = np.repeat(gdof, 3 * F1, axis=1).ravel()
    cols = np.tile(gdof, (1, 3 * F1)).ravel()
    A_full = sp.coo_matrix((Aloc.ravel(), (rows, cols)),
                           shape=(nf * F1, nf * F1)).tocsr()

    dir_facets, neu_facets = mesh.dirichlet_facets, mesh.neumann_facets
    free = np.ones(nf, dtype=bool)
    free[dir_facets] = False
    free_dofs = (np.nonzero(free)[0][:, None] * F1 + np.arange(F1)[None, :]).ravel()
    fixed_dofs = (dir_facets[:, None] * F1 + np.arange(F1)[None, :]).ravel()
    A_free = A_full[free_dofs]
    A_fixed = A_free[:, fixed_dofs]
    A = A_free[:, free_dofs].tocsc()

    # sum over elements of <qhat.n_K, mu> = <g_N, mu> on Neumann, 0 inside
    rhs = np.empty((len(free_dofs), len(datas)))
    uhat = np.zeros((len(datas), nf * F1))
    for j, data in enumerate(datas):
        rhs_full = np.bincount(gdof.ravel(), GXb[:, :, j].ravel(),
                               minlength=nf * F1)
        if len(neu_facets):
            rhs_full.reshape(nf, F1)[neu_facets] -= ws.facet_data_moments(
                data.g_N, neu_facets)
        uhat_dir = ws.facet_data_moments(data.g_D, dir_facets).ravel()
        uhat[j, fixed_dofs] = uhat_dir
        rhs[:, j] = rhs_full[free_dofs] - A_fixed @ uhat_dir
    return CondensedSystem(A=A, rhs=rhs, uhat=uhat, free_dofs=free_dofs,
                           tau=tau, XP=XP, Xb=Xb, Kdiv=Kdiv, Cq=Cq, Cu=Cu)


def _back_substitute(ws: Workspace, cs: CondensedSystem, j: int,
                     data: ProblemData) -> HDGSolution:
    mesh, p = ws.mesh, ws.p
    F1 = p + 1
    uhat_full = cs.uhat[j]
    uhat_e = uhat_full.reshape(mesh.n_facets, F1)[ws.ef].reshape(mesh.n_elements, 3 * F1)

    u = np.einsum("elf,ef->el", cs.XP, uhat_e) + cs.Xb[:, :, j]
    q = ws.nu[:, None] * (np.einsum("eil,ei->el", cs.Kdiv, u)
                          - np.einsum("elf,ef->el", cs.Cq, uhat_e))

    # single-valued numerical flux in the canonical normal direction
    flux_mom = (np.einsum("elf,el->ef", cs.Cq, q)            # <qhat.n_K, M_m> per side
                + cs.tau[:, None] * (np.einsum("elf,el->ef", cs.Cu, u) - uhat_e))
    flux_mom = flux_mom.reshape(mesh.n_elements, 3, F1) * ws.esign[:, :, None]
    fe, fl = mesh.facet_elems, mesh.facet_local_edge
    qhat = flux_mom[fe[:, 0], fl[:, 0]]
    inner = mesh.interior_facets    # the mean of the two sides
    qhat[inner] = (qhat[inner] + flux_mom[fe[inner, 1], fl[inner, 1]]) / 2.0
    neu = mesh.neumann_facets
    if len(neu):
        # exact projected Neumann trace (canonical normal is outward there)
        qhat[neu] = ws.facet_data_moments(data.g_N, neu)

    return HDGSolution(ws=ws, tau=cs.tau, u=u,
                       q=q.reshape(mesh.n_elements, 2, ws.np_),
                       uhat=uhat_full.reshape(mesh.n_facets, F1), qhat_n=qhat)


def solve(ws: Workspace, datas, tau=1.0) -> list[HDGSolution]:
    """HDG solutions on the workspace's mesh, one per ProblemData in
    ``datas``.  The data share the local solves, the condensed skeleton
    matrix and its sparse factorization, ordered by minimum degree on
    A^T + A (A is symmetric, and COLAMD's column ordering fills about three
    times as much)."""
    cs = assemble_condensed(ws, datas, tau)
    if cs.A.shape[0]:
        try:
            lu = spla.splu(cs.A, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # singular factorization
            raise RuntimeError(f"skeleton solve failed: {exc}") from exc
        cs.uhat[:, cs.free_dofs] = lu.solve(cs.rhs).T
    return [_back_substitute(ws, cs, j, data) for j, data in enumerate(datas)]


def raw_output(sol: HDGSolution, out: OutputFunctional) -> float:
    """s_h = (f_O, u_h) + <g_D_O, qhat.n>_GD + <g_N_O, u_h>_GN, with the
    numerical trace supplying the boundary flux."""
    ws = sol.ws
    mesh = sol.mesh
    fo = ws.eval_data(out.f_O)
    val = float(np.sum(ws.integrate_elementwise(fo * ws.eval_modal(sol.u))))

    dir_facets = mesh.dirichlet_facets     # never empty
    g = ws.eval_data(out.g_D_O, ws.ephys[dir_facets])
    tr = (sol.qhat_n[dir_facets] @ ws.psi_p) / np.sqrt(ws.facet_len[dir_facets])[:, None]
    val += float(np.einsum("ft,ft,t,f->", g, tr, ws.ew, ws.facet_len[dir_facets]))

    neu_facets = mesh.neumann_facets
    if len(neu_facets):
        tr = ws.facet_trace(sol.u, ws.etab_p, neu_facets) \
            / ws.sqrt_det[mesh.facet_elems[neu_facets, 0], None]
        g = ws.eval_data(out.g_N_O, ws.ephys[neu_facets])
        val += float(np.einsum("ft,ft,t,f->", g, tr, ws.ew, ws.facet_len[neu_facets]))
    return val


def local_residuals(sol: HDGSolution, data: ProblemData) -> tuple[float, float]:
    """Residuals of the two local HDG equations after back-substitution.

    Returns (flux-equation, balance-equation) max residuals, both relative;
    used by tests to assert the elementwise consistency of the solver.
    """
    ws = sol.ws
    ne = ws.mesh.n_elements
    Kdiv, E, Cq, Cu = _local_operators(ws)
    nu, tau = ws.nu[:, None], sol.tau[:, None]
    q, u = sol.q.reshape(ne, -1), sol.u
    uhat_e = sol.uhat[ws.ef].reshape(ne, 3 * (ws.p + 1))
    fmom = ws.moments_p(ws.eval_data(data.f))
    res_flux = (q / nu - np.einsum("eil,ei->el", Kdiv, u)
                + np.einsum("elf,ef->el", Cq, uhat_e))
    res_balance = (np.einsum("eil,el->ei", Kdiv, q)
                   + tau * (np.einsum("eij,ej->ei", E, u)
                            - np.einsum("eif,ef->ei", Cu, uhat_e)) - fmom)
    scale = 1.0 + np.maximum(np.abs(q).max(axis=1), np.abs(u).max(axis=1))
    r1 = np.abs(res_flux).max(axis=1) / scale
    r2 = np.abs(res_balance).max(axis=1) / scale
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
