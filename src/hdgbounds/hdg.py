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

from .mesh import DIRICHLET, Mesh
from .workspace import _BLOCK, Workspace, ZeroPivotError, spd_solve

__all__ = [
    "ProblemData",
    "OutputFunctional",
    "DirichletBand",
    "HDGSolution",
    "solve",
    "raw_output",
    "CondensedSystem",
    "assemble_condensed",
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
    tau: float
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


def _blocks(ne: int):
    """Consecutive slices of at most _BLOCK of the ne elements."""
    return (slice(start, min(start + _BLOCK, ne)) for start in range(0, ne, _BLOCK))


def _local_operators(ws: Workspace, e: slice):
    """The blocks of the element-local problem on the elements e

        q / nu - Kdiv^T u  = -Cq uhat
        Kdiv q + tau E u   = tau Cu uhat + (f, psi)

    with q ordered x-modes then y-modes and the facet modes by local edge:
    Kdiv (ne, np, 2np), the trace mass E (ne, np, np), and the trace
    couplings Cq (ne, 2np, 3F), Cu (ne, np, 3F).
    """
    elen, det = ws.elen[e], ws.det[e]
    ne, np_, F1 = len(det), ws.np_, ws.p + 1

    # Kdiv[e, i, c*np_+m] = (div V_(c,m), psi_i)_K = JinvT[e,c,r] S[r,m,i]
    Kdiv = (ws.jac_inv_t[e] @ ws.S.reshape(2, np_ * np_)).reshape(
        ne, 2 * np_, np_).swapaxes(1, 2)
    E = ((elen / det[:, None]) @ ws.EE.reshape(3, np_ * np_)).reshape(
        ne, np_, np_)

    # Cu[e, v, (ell, m)] = <psi_v, M_m>_ell and Cq[e, (c, v), :] = n_c Cu[e, v, :]
    T = ws.T_p[np.arange(3), ws.eo[e]]                       # (ne, 3, F1, np_)
    scale = np.sqrt(elen) / ws.sqrt_det[e, None]             # (ne, 3)
    Cu = (T * scale[:, :, None, None]).transpose(0, 3, 1, 2)  # (ne, np_, 3, F1)
    Cq = ws.enormal[e].transpose(0, 2, 1)[:, :, None, :, None] * Cu[:, None]
    return (Kdiv, E, Cq.reshape(ne, 2 * np_, 3 * F1),
            Cu.reshape(ne, np_, 3 * F1))


def _bit_length(x: np.ndarray) -> np.ndarray:
    """int.bit_length of every entry of a uint64 array, by integer shifts."""
    n = np.zeros(x.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        big = (x >> np.uint64(s)) != 0
        x, n = np.where(big, x >> np.uint64(s), x), n + s * big
    return n + (x != 0)


def _skeleton_order(mesh: Mesh) -> np.ndarray:
    """The free (interior and Neumann) facets in nested-dissection order.

    The Morton codes of the element centroids (31 bits per axis in the
    bounding square) define a binary tree of cells.  A facet separates the
    cell of the nbits = bit_length(code0 ^ code1) lowest bits, where its two
    elements part; a boundary facet is a leaf.  Sorted by the largest code
    of that cell, then by nbits, every cell follows its children."""
    v = mesh.vertices
    lo = v.min(axis=0)
    scale = 2.0 ** 31 / (v.max(axis=0) - lo).max()
    q = np.clip((v[mesh.elements].mean(axis=1) - lo) * scale, 0, 2 ** 31 - 1)
    q = q.astype(np.uint64)
    for s, m in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                 (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                 (1, 0x5555555555555555)):
        q = (q | (q << np.uint64(s))) & np.uint64(m)
    code = q[:, 0] | (q[:, 1] << np.uint64(1))
    c0, c1 = code[mesh.facet_elems[:, 0]], code[mesh.facet_elems[:, 1]]
    nbits = _bit_length(np.where(mesh.facet_elems[:, 1] >= 0, c0 ^ c1, 0))
    top = c0 | ((np.uint64(1) << nbits.astype(np.uint64)) - np.uint64(1))
    order = np.lexsort((nbits, top))
    return order[mesh.facet_tag[order] != DIRICHLET]


@dataclass
class CondensedSystem:
    """The statically condensed skeleton system for k right-hand sides, with
    what back-substitution needs.

    A is the symmetric positive definite operator on the free facet dofs
    (interior and Neumann facets) and rhs (n_free, k) its right-hand sides,
    both in factor order: row i is the global dof free_dofs[i].  uhat
    (k, nf*(p+1)) holds the Dirichlet trace moments at the fixed dofs, and
    g_N (k, len(neumann_facets), p+1) the Neumann data moments.
    Per element u = XP uhat_e + Xb[:, :, j]; _local_operators gives q and
    the flux moments from u and uhat_e.
    """

    A: sp.csc_matrix
    rhs: np.ndarray
    uhat: np.ndarray
    g_N: np.ndarray
    free_dofs: np.ndarray
    tau: float
    XP: np.ndarray
    Xb: np.ndarray


def assemble_condensed(ws: Workspace, datas, tau) -> CondensedSystem:
    """Local solves for the traces and for every source in ``datas``, and the
    condensed skeleton system: one matrix, one right-hand side per datum.

    The flux equation gives q = nu (Kdiv^T u - Cq uhat), which leaves the
    symmetric positive definite np x np system
    (nu Kdiv Kdiv^T + tau E) u = G uhat + (f, psi), G = tau Cu + nu Kdiv Cq,
    solved by spd_solve.  The local solves run block by block (_BLOCK
    elements).
    """
    if np.ndim(tau) != 0 or not 0 < tau < np.inf:
        raise ValueError(
            f"stabilization tau must be one positive number, not {tau!r}")
    mesh, F1, tau, k = ws.mesh, ws.p + 1, float(tau), len(datas)
    ne, nf, F3 = mesh.n_elements, mesh.n_facets, 3 * F1

    XP, Xb = np.empty((ne, ws.np_, F3)), np.empty((ne, ws.np_, k))
    Aloc, GXb = np.empty((ne, F3, F3)), np.empty((ne, F3, k))
    fmom = np.stack([ws.moments_p(ws.eval_data(data.f)) for data in datas],
                    axis=2)                                  # (f, psi_i)_K
    for e in _blocks(ne):
        Kdiv, E, Cq, Cu = _local_operators(ws, e)
        nu = ws.nu[e, None, None]
        K = nu * (Kdiv @ Kdiv.swapaxes(1, 2)) + tau * E
        G = tau * Cu + nu * (Kdiv @ Cq)
        try:
            X = spd_solve(K, np.concatenate([G, fmom[e]], axis=2))
        except ZeroPivotError as exc:
            bad = e.start + exc.elements
            raise RuntimeError(
                f"singular local solver matrix on element(s) {bad[:5].tolist()} "
                "(degenerate geometry?)")
        XP[e], Xb[e] = X[:, :, :F3], X[:, :, F3:]
        # <qhat.n_K, mu> = <q.n_K + tau (u - uhat), mu> = G^T Xb - Aloc uhat_e
        Aloc[e] = nu * (Cq.swapaxes(1, 2) @ Cq) - G.swapaxes(1, 2) @ X[:, :, :F3]
        GXb[e] = G.swapaxes(1, 2) @ X[:, :, F3:]
    diag = np.arange(F3)
    Aloc[:, diag, diag] += tau

    # the free facets numbered in factor order; Dirichlet dofs get -F1..-1
    order = _skeleton_order(mesh)
    n = len(order) * F1
    pos = np.full(nf, -1, dtype=np.int32)
    pos[order] = np.arange(len(order))
    ldof = (pos[ws.ef][:, :, None] * F1
            + np.arange(F1, dtype=np.int32)).reshape(ne, F3)
    free = ldof >= 0
    rows, cols = np.broadcast_arrays(ldof[:, :, None], ldof[:, None, :])
    both = (rows >= 0) & (cols >= 0)
    A = sp.csc_matrix((Aloc[both], (rows[both], cols[both])), shape=(n, n))

    # sum over elements of <qhat.n_K, mu> = <g_N, mu> on Neumann, 0 inside,
    # with the Dirichlet moments moved to the right-hand side per element
    dir_facets, neu_facets = mesh.dirichlet_facets, mesh.neumann_facets
    bd = np.flatnonzero(~free.all(axis=1))        # elements with a Dirichlet facet
    uhat = np.zeros((k, nf, F1))
    g_N = np.zeros((k, len(neu_facets), F1))
    rhs = np.empty((k, n))
    for j, data in enumerate(datas):
        uhat[j, dir_facets] = ws.facet_data_moments(data.g_D, dir_facets)
        loc = GXb[:, :, j].copy()
        loc[bd] -= np.einsum("eij,ej->ei", Aloc[bd],
                             uhat[j, ws.ef[bd]].reshape(len(bd), F3))
        rhs[j] = np.bincount(ldof[free], loc[free], minlength=n)
        if len(neu_facets):
            g_N[j] = ws.facet_data_moments(data.g_N, neu_facets)
            rhs[j].reshape(-1, F1)[pos[neu_facets]] -= g_N[j]
    return CondensedSystem(A=A, rhs=rhs.T, uhat=uhat.reshape(k, -1), g_N=g_N,
                           free_dofs=(order[:, None] * F1 + np.arange(F1)).ravel(),
                           tau=tau, XP=XP, Xb=Xb)


def _back_substitute(ws: Workspace, cs: CondensedSystem) -> list[HDGSolution]:
    """The solution of every datum from the skeleton traces, block by block,
    through the local solver of assemble_condensed: u = XP uhat_e + Xb,
    q = nu (Kdiv^T u - Cq uhat_e) and the flux moments

        <qhat.n_K, mu> = <q.n_K + tau (u - uhat), mu>
                       = Cq^T q + tau (Cu^T u - uhat_e).
    """
    mesh, F1, np_ = ws.mesh, ws.p + 1, ws.np_
    k, ne = cs.Xb.shape[2], mesh.n_elements
    uhat = cs.uhat.reshape(k, mesh.n_facets, F1)
    # the k data are the columns of every element's right-hand side
    uhat_e = np.take(uhat.transpose(1, 2, 0), ws.ef, axis=0).reshape(ne, 3 * F1, k)
    u, q = np.empty((k, ne, np_)), np.empty((k, ne, 2, np_))
    flux_mom = np.empty((k, ne, 3 * F1))      # <qhat.n_K, M_m> per side
    for e in _blocks(ne):
        Kdiv, _, Cq, Cu = _local_operators(ws, e)
        nu, ue = ws.nu[e, None, None], uhat_e[e]
        ub = cs.XP[e] @ ue + cs.Xb[e]
        qb = nu * (Kdiv.swapaxes(1, 2) @ ub - Cq @ ue)
        fm = Cq.swapaxes(1, 2) @ qb + cs.tau * (Cu.swapaxes(1, 2) @ ub - ue)
        u[:, e] = np.moveaxis(ub, 2, 0)
        q[:, e] = np.moveaxis(qb, 2, 0).reshape(k, -1, 2, np_)
        flux_mom[:, e] = np.moveaxis(fm, 2, 0)
    # single-valued numerical flux in the canonical normal direction: the
    # side-0 moments, averaged with side 1 inside
    flux_mom = flux_mom.reshape(k, 3 * ne, F1) * ws.esign.reshape(-1, 1)
    fe, fl, inner = mesh.facet_elems, mesh.facet_local_edge, mesh.interior_facets
    qhat = np.take(flux_mom, 3 * fe[:, 0] + fl[:, 0], axis=1)
    qhat[:, inner] += np.take(flux_mom, 3 * fe[inner, 1] + fl[inner, 1], axis=1)
    qhat[:, inner] /= 2.0
    # exact projected Neumann trace (canonical normal is outward there)
    qhat[:, mesh.neumann_facets] = cs.g_N
    return [HDGSolution(ws=ws, tau=cs.tau, u=u[j], q=q[j], uhat=uhat[j],
                        qhat_n=qhat[j]) for j in range(k)]


def solve(ws: Workspace, datas, tau=1.0) -> list[HDGSolution]:
    """HDG solutions on the workspace's mesh, one per ProblemData in
    ``datas``.  The data share the local solves, the condensed skeleton
    matrix and one sparse factorization.  A comes numbered in nested-dissection
    order, so SuperLU keeps that order (natural, symmetric mode, diagonal
    pivots: A is SPD) and runs no fill-reducing ordering of its own."""
    cs = assemble_condensed(ws, datas, tau)
    if cs.A.shape[0]:
        try:
            lu = spla.splu(cs.A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # singular factorization
            raise RuntimeError(f"skeleton solve failed: {exc}") from exc
        cs.uhat[:, cs.free_dofs] = lu.solve(cs.rhs).T
    return _back_substitute(ws, cs)


def raw_output(sol: HDGSolution, out: OutputFunctional) -> float:
    """s_h = l_O(u_h, qhat) = (f_O, u_h) + <g_D_O, qhat.n>_GD + <g_N_O, u_h>_GN,
    with the numerical trace supplying the outward boundary flux."""
    ws, mesh = sol.ws, sol.mesh
    dir_facets, neu_facets = mesh.dirichlet_facets, mesh.neumann_facets
    qn_dir = (sol.qhat_n[dir_facets] @ ws.psi_p) / np.sqrt(ws.facet_len[dir_facets])[:, None]
    u_neu = ws.facet_trace(sol.u, ws.etab_p, neu_facets) \
        / ws.sqrt_det[mesh.facet_elems[neu_facets, 0], None]
    val = float(np.sum(ws.integrate_elementwise(
        ws.eval_data(out.f_O) * ws.eval_modal(sol.u))))
    for fun, facets, tr in ((out.g_D_O, dir_facets, qn_dir),
                            (out.g_N_O, neu_facets, u_neu)):
        if len(facets):
            g = ws.eval_data(fun, ws.ephys[facets])
            val += float(np.einsum("ft,ft,t,f->", g, tr, ws.ew, ws.facet_len[facets]))
    return val
