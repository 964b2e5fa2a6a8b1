"""HDG discretization of the primal and adjoint Poisson problems.

Element-local solvers are parameterized by the facet trace, statically
condensed onto the skeleton unknown, and back-substituted.  The skeleton
system is condensed once more before its sparse direct factorization: two
levels of small element patches (pairs of elements, then pairs of pairs)
eliminate the facets inside them in batched dense blocks, so that the
factorization sees only the facets between patches; the eliminated traces
follow from the factorized ones, level by level.  The assembly streams
blocks of patches from the element solves through both levels, so that
what outlives the factorization is XP and Xb (the local solution in terms
of the traces), the patch eliminations, A and its right-hand sides, and
nothing else.  The numerical traces are

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

from . import workspace
from .mesh import DIRICHLET, Mesh
from .workspace import Workspace, ZeroPivotError, _blocks, spd_solve

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
    """Element-local (u_h, q_h) plus skeleton traces on the mesh of the
    workspace given to solve; each reader takes that workspace first.

    u: (ne, n_p) and q: (ne, 2, n_p) mapped-orthonormal modal coefficients;
    uhat, qhat_n: (nf, p+1) coefficients in the canonical facet basis, with
    qhat_n taken along the stored (canonical) facet normal.
    """

    u: np.ndarray
    q: np.ndarray
    uhat: np.ndarray
    qhat_n: np.ndarray


def _local_operators(ws: Workspace, e: np.ndarray, slots: np.ndarray):
    """The blocks of the element-local problem on the elements e (indices)

        q / nu - Kdiv^T u  = -Cq uhat
        Kdiv q + tau E u   = tau Cu uhat + (f, psi)

    with q ordered x-modes then y-modes and the facet modes by slot, slot j
    of an element being its local edge slots[:, j] (one row per element of
    e, or one row for all): Kdiv (ne, np, 2np), the trace mass E (ne, np,
    np), and the trace couplings Cq (ne, 2np, 3F), Cu (ne, np, 3F).
    """
    elen, det = np.take(ws.elen, e, axis=0), np.take(ws.det, e)
    ne, np_, F1 = len(det), ws.np_, ws.p + 1

    # Kdiv[e, i, c*np_+m] = (div V_(c,m), psi_i)_K = JinvT[e,c,r] S[r,m,i]
    JinvT = np.take(ws.jac_inv, e, axis=0).swapaxes(1, 2)
    Kdiv = (JinvT @ ws.S.reshape(2, np_ * np_)).reshape(
        ne, 2 * np_, np_).swapaxes(1, 2)
    E = ((elen / det[:, None]) @ ws.EE.reshape(3, np_ * np_)).reshape(
        ne, np_, np_)

    # Cu[e, v, (j, m)] = <psi_v, M_m>_ell, ell = slots[e, j], and
    # Cq[e, (c, v), :] = n_c Cu[e, v, :]
    row = np.arange(ne)[:, None]
    T = ws.T_p[slots, ws.eo[e[:, None], slots]]              # (ne, 3, F1, np_)
    scale = np.sqrt(elen[row, slots]) / np.take(ws.sqrt_det, e)[:, None]
    Cu = (T * scale[:, :, None, None]).transpose(0, 3, 1, 2)  # (ne, np_, 3, F1)
    normal = ws.enormal[e[:, None], slots]
    Cq = normal.transpose(0, 2, 1)[:, :, None, :, None] * Cu[:, None]
    return (Kdiv, E, Cq.reshape(ne, 2 * np_, 3 * F1),
            Cu.reshape(ne, np_, 3 * F1))


def _bit_length(x: np.ndarray) -> np.ndarray:
    """int.bit_length of every entry of a uint64 array: the frexp exponent
    of its upper and of its lower 32 bits, both exact in float64."""
    hi = np.frexp((x >> np.uint64(32)).astype(float))[1].astype(np.int64)
    lo = np.frexp((x & np.uint64(0xFFFFFFFF)).astype(float))[1]
    return np.where(hi > 0, hi + 32, lo)


def _dissection(mesh: Mesh):
    """The nested-dissection tree of the facets, as (nbits, order): per facet
    the cell it separates, and the free (interior and Neumann) facets in
    nested-dissection order, by the cell's top, then by nbits.

    The Morton codes of the element centroids (31 bits per axis in the
    bounding square) define a binary tree of cells.  A facet separates the
    cell of the nbits = bit_length(code0 ^ code1) lowest bits, where its two
    elements part, whose largest code is top, and follows the facets of the
    cell's children; a boundary facet is a leaf."""
    v = mesh.vertices
    lo = v.min(axis=0)
    scale = 2.0 ** 31 / (v.max(axis=0) - lo).max()
    q = (v[mesh.elements].sum(axis=1) / 3 - lo) * scale       # the centroids
    q = np.minimum(np.maximum(q, 0), 2 ** 31 - 1).astype(np.uint64)
    for s, m in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                 (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                 (1, 0x5555555555555555)):
        q = (q | (q << np.uint64(s))) & np.uint64(m)
    code = q[:, 0] | (q[:, 1] << np.uint64(1))
    c0, c1 = code[mesh.facet_elems[:, 0]], code[mesh.facet_elems[:, 1]]
    nbits = _bit_length(np.where(mesh.facet_elems[:, 1] >= 0, c0 ^ c1, 0))
    top = c0 | ((np.uint64(1) << nbits.astype(np.uint64)) - np.uint64(1))
    order = np.lexsort((nbits, top))
    return nbits, order[mesh.facet_tag[order] != DIRICHLET]


# rounds of mutual proposals that pair the nodes of one patch level, and the
# rank of no edge
_ROUNDS = 2
_NO_RANK = np.iinfo(np.int64).max


def _match(ends: np.ndarray, rank: np.ndarray, n: int) -> np.ndarray:
    """The mate (-1 if none) of each of n nodes, paired along the edges ends
    (m, 2) of distinct ranks by mutual proposal: every unpaired node
    proposes across its unpaired edge of least rank, and an edge proposed
    from both ends pairs them; _ROUNDS rounds."""
    mate = np.full(n, -1)
    a0, b0 = ends[:, 0], ends[:, 1]
    for _ in range(_ROUNDS):
        live = (mate[a0] < 0) & (mate[b0] < 0)
        a, b, r = a0[live], b0[live], rank[live]
        best = np.full(n, _NO_RANK)
        np.minimum.at(best, a, r)
        np.minimum.at(best, b, r)
        both = (best[a] == r) & (best[b] == r)
        mate[a[both]], mate[b[both]] = b[both], a[both]
    return mate


def _patches(mesh: Mesh, nbits: np.ndarray):
    """Two levels of patches for the condensation of the skeleton: pairs of
    elements sharing a facet, then pairs of those pairs, both matched by
    _match with the facets ranked by the lowest cell they separate
    (_dissection's nbits, then the facet number).  Two pairs are merged
    only where they share two facets, one in each of their elements (the
    four elements around a vertex of degree four, as in every criss-cross
    square); other matched pairs stay apart.

    Returns the elements in patch order, the counts (pairs, pairs of pairs)
    and the slots (ne, 3): the local edges of every element in the order
    that puts the facet inside its pair last and the facet its pair shares
    with the other pair of its patch, if any, next to last.  The order lists
    the first element of every pair, then the second, then the elements in
    no pair; the pairs come as first and second pairs of the patches, then
    the pairs in no patch.  Pair (a, b) lists its outer facets as a0, b0,
    a1, b1, so the two facets that two paired pairs share are the last two
    of each, in the same order.
    """
    ne, fe, fl = mesh.n_elements, mesh.facet_elems, mesh.facet_local_edge
    rank = nbits * mesh.n_facets + np.arange(mesh.n_facets)
    inner = np.flatnonzero(fe[:, 1] >= 0)

    mate = _match(fe[inner], rank[inner], ne)
    first = np.flatnonzero(mate > np.arange(ne))
    pair_of = np.full(ne, -1)
    pair_of[first] = pair_of[mate[first]] = np.arange(len(first))
    ends = pair_of[fe[inner]]
    cross = inner[(ends >= 0).all(axis=1) & (ends[:, 0] != ends[:, 1])]
    mate2 = _match(pair_of[fe[cross]], rank[cross], len(first))
    shared = cross[mate2[pair_of[fe[cross, 0]]] == pair_of[fe[cross, 1]]]
    once = np.bincount(fe[shared].ravel(), minlength=ne) == 1
    ok = once[first] & once[mate[first]]
    mate2[(mate2 >= 0) & ~(ok & ok[mate2])] = -1
    shared = cross[mate2[pair_of[fe[cross, 0]]] == pair_of[fe[cross, 1]]]

    prio = np.zeros((ne, 3), dtype=np.int8)
    for facets, level in ((shared, 1), (inner[mate[fe[inner, 0]] == fe[inner, 1]], 2)):
        prio[fe[facets, 0], fl[facets, 0]] = level
        prio[fe[facets, 1], fl[facets, 1]] = level
    slots = np.argsort(prio * 3 + np.arange(3), axis=1)
    held = np.full(ne, -1)
    held[fe[shared]] = shared[:, None]
    pairs = np.stack([first, mate[first]], axis=1)
    swap = held[pairs[:, 0]] > held[pairs[:, 1]]
    pairs[swap] = pairs[swap, ::-1]

    lead = np.flatnonzero(mate2 > np.arange(len(first)))
    pairs = pairs[np.concatenate([lead, mate2[lead], np.flatnonzero(mate2 < 0)])]
    elements = np.concatenate([pairs[:, 0], pairs[:, 1], np.flatnonzero(mate < 0)])
    return elements, (len(pairs), len(lead)), slots


def _dofs(facets: np.ndarray, F1: int) -> np.ndarray:
    """The trace dofs (m, n F1) of facets (m, n), facet by facet."""
    m, n = facets.shape
    return (facets[:, :, None] * F1 + np.arange(F1)).reshape(m, n * F1)


def _merge(P, Q, s: int, F1: int):
    """The patch of the patches P and Q, each (S, r, facets) with the
    patches along the last axis of the system S (n, n, m) and right-hand
    sides r (n, k, m), whose last s facets are the same, in the same order:
    the shared dofs eliminated from the summed system,

        Y = M_ii^-1 [M_io | r_i],  S = M_oo - M_oi Y_o,  r = r_o - M_oi Y_r,

    on the other facets, alternately one of P and one of Q.  Returns it with
    the elimination (inner dofs, outer dofs, Y (m, s F1, .)) that recovers
    the shared traces, uhat_i = Y_r - Y_o uhat_o."""
    (SP, rP, fP), (SQ, rQ, fQ) = P, Q
    n, k, m = rP.shape
    o, no = n - s * F1, fP.shape[1] - s
    C = np.empty((n - o, no, 2, F1, m))
    C[:, :, 0] = SP[o:, :o].reshape(n - o, no, F1, m)
    C[:, :, 1] = SQ[o:, :o].reshape(n - o, no, F1, m)
    C = C.reshape(n - o, 2 * o, m)
    try:
        Y = spd_solve((SP[o:, o:] + SQ[o:, o:]).transpose(2, 0, 1),
                      np.concatenate([C, rP[o:] + rQ[o:]], axis=1).transpose(2, 0, 1))
    except ZeroPivotError as exc:
        raise RuntimeError(f"skeleton solve failed: {exc}") from exc
    YT = np.ascontiguousarray(Y.transpose(1, 2, 0))
    S = np.einsum("ium,ivm->uvm", C, YT[:, :2 * o])
    r = np.einsum("ium,ivm->uvm", C, YT[:, 2 * o:])
    np.negative(S, out=S)
    np.negative(r, out=r)
    S_, r_ = S.reshape(no, 2, F1, no, 2, F1, m), r.reshape(no, 2, F1, k, m)
    for side, (Sx, rx) in enumerate(((SP, rP), (SQ, rQ))):
        S_[:, side, :, :, side] += Sx[:o, :o].reshape(no, F1, no, F1, m)
        r_[:, side] += rx[:o].reshape(no, F1, k, m)
    outer = np.empty((m, no, 2), dtype=fP.dtype)
    outer[:, :, 0], outer[:, :, 1] = fP[:, :no], fQ[:, :no]
    outer = outer.reshape(m, 2 * no)
    return (S, r, outer), (_dofs(fP[:, no:], F1), _dofs(outer, F1), Y)


def _patch_blocks(m1: int, m2: int, ne: int):
    """The patches of _patches in blocks of at most _BLOCK elements (_BLOCK
    at least 4): per block one slice of each kind of patch, numbered within
    its kind, taking as many as fit in the order of _patches: the m2 quads
    (pairs of pairs), then the m1 - 2 m2 lone pairs (pairs in no quad), then
    the ne - 2 m1 single elements (in no pair), so that the singles ride
    with the last blocks.  At least one block, empty for an empty mesh."""
    left, at = [m2, m1 - 2 * m2, ne - 2 * m1], [0, 0, 0]
    while True:
        room, block = workspace._BLOCK, []
        for kind, size in enumerate((4, 2, 1)):
            n = min(left[kind], room // size)
            block.append(slice(at[kind], at[kind] + n))
            at[kind] += n
            left[kind] -= n
            room -= n * size
        yield block
        if not any(left):
            return


def _skeleton(groups: list, pos: np.ndarray, n: int, F1: int, k: int):
    """The condensed matrix A, (n F1) x (n F1) CSC, and its right-hand sides
    (n F1, k), summed from the patch systems of groups, each (S, r, facets)
    with the patches along the last axis of S and r, at the block positions
    pos of their facets (negative: fixed, left out).  Each group is taken
    out of groups once written.

    A's columns list their rows in increasing order, F1 per block, so block
    j of block column c, in the order of its block row, starts at entry
    F1 (F1 start[c] + j), and each of its columns F1 count[c] entries after
    the one before.  A position occurs at most twice: a block couples two
    facets of a patch, and a facet lies in at most two patches.  The block
    written first to a position goes there, the other past A's entries, and
    is added once all are written."""
    # the block position (column-major, n * n where a facet is fixed) of
    # every block of every group, patch by patch
    keys, fixed = [], n * n
    for _, _, f in groups:
        fp = pos[f]                                         # (m, ns)
        live = (fp >= 0)[:, :, None] & (fp >= 0)[:, None, :]
        keys.append(np.where(live, fp[:, None, :] * n + fp[:, :, None], fixed).ravel())
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    sorted_keys = np.take(keys, order)
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    which = np.empty(len(keys), dtype=np.int64)       # the position of each
    which[order] = np.cumsum(new) - 1
    # the second block at each live position
    again = np.flatnonzero(~new)
    again = again[sorted_keys[again] != fixed]
    again = np.maximum(np.take(order, again), np.take(order, again - 1))
    sorted_keys = sorted_keys[new]
    nb = len(sorted_keys) - bool(len(sorted_keys) and sorted_keys[-1] == fixed)
    bcol, brow = np.divmod(sorted_keys[:nb], n)
    count = np.bincount(bcol, minlength=n)
    start = np.cumsum(count) - count
    # per position its first entry and the stride of its columns, and the
    # same for the fixed blocks, written past everything else and not read
    nnz, n2, modes = F1 * F1 * nb, len(again), np.arange(F1, dtype=np.int32)
    offset = np.append(F1 * (F1 * start[bcol] + np.arange(nb) - start[bcol]),
                       nnz + F1 * F1 * n2).astype(np.int32)
    stride = np.append(F1 * count[bcol], F1).astype(np.int32)
    indices = np.empty(nnz, dtype=np.int32)
    indices[offset[:nb] + stride[:nb] * modes[:, None, None] + modes[:, None]] = \
        brow.astype(np.int32) * F1 + modes[:, None]
    indptr = np.empty(n * F1 + 1, dtype=np.int32)
    indptr[:-1] = (F1 * F1 * start[:, None] + F1 * count[:, None] * modes).ravel()
    indptr[-1] = nnz
    # where every block goes: the second ones, by stride F1, past A's entries
    twice = np.take(which, again)
    at, step = np.take(offset, which), np.take(stride, which)
    at[again] = nnz + F1 * F1 * np.arange(n2, dtype=np.int32)
    step[again] = F1
    del keys, order, which
    data, done, rhs = np.empty(nnz + F1 * F1 * (n2 + 1)), 0, np.zeros(n * F1 * k)
    while groups:
        S, r, f = groups.pop(0)
        (m, ns), fp = f.shape, pos[f.T]
        # the entry (i, c) of block (a, b) of a patch is S[a F1 + i, b F1 + c]
        first, by = (x[done:done + ns * ns * m].reshape(m, ns, ns).transpose(1, 2, 0)
                     for x in (at, step))
        done += ns * ns * m
        S = S.reshape(ns, F1, ns, F1, m)
        for e in _blocks(m):
            data[first[:, None, :, None, e] + by[:, None, :, None, e] * modes[:, None]
                 + modes[:, None, None, None]] = S[..., e]
        # the right-hand sides of the fixed facets to facet n, left out
        dof = _dofs(np.where(fp >= 0, fp, n).T, F1).T     # (ns F1, m)
        rhs += np.bincount((dof[:, None] * k + np.arange(k)[:, None]).ravel(),
                           r.ravel(), minlength=(n + 1) * F1 * k)[:n * F1 * k]
        del S, r, f
    data[offset[twice, None, None] + stride[twice, None, None] * modes[:, None]
         + modes] += data[nnz:nnz + F1 * F1 * n2].reshape(n2, F1, F1)
    data.resize(nnz, refcheck=False)    # in place: no view of data is left
    A = sp.csc_matrix((data, indices, indptr), shape=(n * F1, n * F1))
    return A, rhs.reshape(n * F1, k)


@dataclass
class CondensedSystem:
    """The statically condensed skeleton system for k right-hand sides, with
    what recovery and back-substitution need.

    A is the symmetric positive definite operator on the free facet dofs
    (interior and Neumann facets) that no patch eliminated, and rhs
    (n_free, k) its right-hand sides, both in factor order: row i is the
    global dof free_dofs[i].  The traces are laid out by dof, then datum:
    uhat (nf*(p+1), k) holds the Dirichlet trace moments at the fixed dofs,
    and g_N (len(neumann_facets)*(p+1), k) the Neumann data moments, facet
    by facet.  eliminated lists the patch eliminations
    (inner dofs, outer dofs, Y) block by block, each block's pairs before
    its quads (_merge).
    Per element u = XP uhat_e + Xb[:, :, j], with the facet modes of uhat_e
    by slot (_local_operators with slots; slot_of is the slot of each local
    edge); _local_operators gives q and the flux moments from u and uhat_e.
    """

    A: sp.csc_matrix
    rhs: np.ndarray
    uhat: np.ndarray
    g_N: np.ndarray
    free_dofs: np.ndarray
    tau: float
    XP: np.ndarray
    Xb: np.ndarray
    slots: np.ndarray
    slot_of: np.ndarray
    eliminated: list


def _system(m: int, nf: int, F1: int, k: int, dtype):
    """The empty systems (S, r, facets) of m patches of nf facets each."""
    n = nf * F1
    return (np.empty((n, n, m)), np.empty((n, k, m)),
            np.empty((m, nf), dtype=dtype))


def _put(group, systems, at: slice):
    """Write the patch systems (S, r, facets) into group at the patches at."""
    S, r, f = group
    S[:, :, at], r[:, :, at], f[at] = systems


def assemble_condensed(ws: Workspace, datas, tau) -> CondensedSystem:
    """Local solves for the traces and for every source in ``datas``, and the
    condensed skeleton system: one matrix, one right-hand side per datum.

    The flux equation gives q = nu (Kdiv^T u - Cq uhat), which leaves the
    symmetric positive definite np x np system
    (nu Kdiv Kdiv^T + tau E) u = G uhat + (f, psi), G = tau Cu + nu Kdiv Cq,
    solved by spd_solve, with the facet modes in the slot order of
    _patches.  The element systems, with the Dirichlet and Neumann data on
    their right-hand sides, are merged into the two levels of _patches,
    each eliminating the facets inside it (_merge), and A sums what is left
    over the facets that no patch eliminated (_skeleton).

    One pass over the blocks of _patch_blocks takes each block from its
    local solve (one spd_solve) through both merges, and keeps of it only
    XP and Xb, its eliminations and the systems of its patches left; its
    element matrices and pair systems go once the next level has read
    them, and the patch systems once A holds them.  What the factorization
    finds alive is the CondensedSystem: XP, Xb, the eliminations, A and
    rhs, and nothing else.
    """
    if np.ndim(tau) != 0 or not 0 < tau < np.inf:
        raise ValueError(
            f"stabilization tau must be one positive number, not {tau!r}")
    mesh, F1, tau, k = ws.mesh, ws.p + 1, float(tau), len(datas)
    ne, nf, F3 = mesh.n_elements, mesh.n_facets, 3 * F1
    nbits, order = _dissection(mesh)
    elements, (m1, m2), slots = _patches(mesh, nbits)
    row = np.arange(ne)[:, None]
    facets = ws.ef[row, slots]
    dirichlet = mesh.facet_tag[facets] == DIRICHLET
    dir_facets, neu_facets = mesh.dirichlet_facets, mesh.neumann_facets
    uhat = np.zeros((nf, F1, k))
    g_N = np.empty((len(neu_facets), F1, k))
    for j, data in enumerate(datas):
        uhat[dir_facets, :, j] = ws.facet_data_moments(data.g_D, dir_facets)
        g_N[:, :, j] = ws.facet_data_moments(data.g_N, neu_facets)

    # filled block by block: XP then Xb of every element, the eliminations,
    # and the patch systems left, those of four facets (quads, then lone
    # pairs) and the singles
    XPb, eliminated = np.empty((ne, ws.np_, F3 + k)), []
    fours, singles = (_system(m1 - m2, 4, F1, k, facets.dtype),
                      _system(ne - 2 * m1, 3, F1, k, facets.dtype))
    fmom = np.stack([ws.moments_p(ws.eval_data(data.f)) for data in datas],
                    axis=2)                                  # (f, psi_i)_K
    slot_of = np.argsort(slots, axis=1)             # the slot of each local edge
    neu_e = mesh.facet_elems[neu_facets, 0]
    neu_slot = slot_of[neu_e, mesh.facet_local_edge[neu_facets, 0]]
    done, rank = 0, np.full(ne, -1)     # the elements solved, and their order
    diag = np.arange(F3)

    def part(S, r, f, start, stop):
        return S[:, :, start:stop], r[:, :, start:stop], f[start:stop]

    for quad, lone, single in _patch_blocks(m1, m2, ne):
        # the block's pairs, those of its quads first, and its elements: the
        # pairs' first elements, their second elements, then the singles
        pairs = np.concatenate(
            [np.arange(quad.start, quad.stop) + [[0], [m2]],
             np.arange(2 * m2 + lone.start, 2 * m2 + lone.stop)], axis=None)
        e = np.concatenate([np.take(elements, [pairs, m1 + pairs]),
                            elements[2 * m1 + single.start:2 * m1 + single.stop]],
                           axis=None)
        nb, nq, npairs = len(e), quad.stop - quad.start, len(pairs)
        Kdiv, E, Cq, Cu = _local_operators(ws, e, np.take(slots, e, axis=0))
        nu = np.take(ws.nu, e)[:, None, None]
        K = nu * (Kdiv @ Kdiv.swapaxes(1, 2)) + tau * E
        G = tau * Cu + nu * (Kdiv @ Cq)
        try:
            X = spd_solve(K, np.concatenate([G, np.take(fmom, e, axis=0)], axis=2))
        except ZeroPivotError as exc:
            bad = np.sort(e[exc.elements])
            raise RuntimeError(
                f"singular local solver matrix on element(s) {bad[:5].tolist()} "
                "(degenerate geometry?)")
        XPb[e] = X
        # <qhat.n_K, mu> = <q.n_K + tau (u - uhat), mu> = G^T Xb - Aloc uhat_e
        Aloc = nu * (Cq.swapaxes(1, 2) @ Cq) - G.swapaxes(1, 2) @ X[:, :, :F3]
        loc = G.swapaxes(1, 2) @ X[:, :, F3:]
        del Kdiv, E, Cq, Cu, K, G, X
        Aloc[:, diag, diag] += tau

        # sum over elements of <qhat.n_K, mu> = <g_N, mu> on Neumann, 0
        # inside: per element the Dirichlet moments and g_N go to the
        # right-hand side, and the Dirichlet rows and columns are dropped
        f, fixed = np.take(facets, e, axis=0), np.take(dirichlet, e, axis=0)
        bd = np.flatnonzero(fixed.any(axis=1))
        loc[bd] -= Aloc[bd] @ uhat[f[bd]].reshape(len(bd), F3, k)
        keep = np.repeat(~fixed[bd], F1, axis=1)
        # zeroed, not only moved: left in Aloc, the Dirichlet coupling
        # already in loc would enter the patch recovery uhat_i = Y_r - Y_o
        # uhat_o twice
        Aloc[bd] *= keep[:, :, None] & keep[:, None, :]
        rank[e] = np.arange(done, done + nb)
        neu = np.flatnonzero(rank[neu_e] >= done)
        loc.reshape(nb, 3, F1, k)[rank[neu_e[neu]] - done, neu_slot[neu]] -= g_N[neu]
        done += nb
        # with the elements along the last axis
        S, r = Aloc.transpose(1, 2, 0).copy(), loc.transpose(1, 2, 0).copy()
        del Aloc, loc

        # the patches: pairs of elements, then pairs of pairs
        two, elim = _merge(part(S, r, f, 0, npairs),
                           part(S, r, f, npairs, 2 * npairs), 1, F1)
        eliminated.append(elim)
        _put(singles, part(S, r, f, 2 * npairs, nb), single)
        del S, r, f
        four, elim = _merge(part(*two, 0, nq), part(*two, nq, 2 * nq), 2, F1)
        eliminated.append(elim)
        _put(fours, four, quad)
        _put(fours, part(*two, 2 * nq, npairs), slice(m2 + lone.start, m2 + lone.stop))
        del two, four, elim

    # the free facets left, numbered in factor order
    gone = np.zeros(nf, dtype=bool)
    for inner, _, _ in eliminated:
        gone[inner[:, ::F1] // F1] = True
    order = order[~gone[order]]
    pos = np.full(nf, -1)
    pos[order] = np.arange(len(order))
    groups = [fours, singles]
    del fours, singles
    A, rhs = _skeleton(groups, pos, len(order), F1, k)
    return CondensedSystem(A=A, rhs=rhs,
                           uhat=uhat.reshape(-1, k), g_N=g_N.reshape(-1, k),
                           free_dofs=(order[:, None] * F1 + np.arange(F1)).ravel(),
                           tau=tau, XP=XPb[:, :, :F3], Xb=XPb[:, :, F3:],
                           slots=slots, slot_of=slot_of,
                           eliminated=eliminated)


def _back_substitute(ws: Workspace, cs: CondensedSystem) -> list[HDGSolution]:
    """The solution of every datum from the skeleton traces, block by block,
    through the local solver of assemble_condensed: u = XP uhat_e + Xb,
    q = nu (Kdiv^T u - Cq uhat_e) and the flux moments

        <qhat.n_K, mu> = <q.n_K + tau (u - uhat), mu>
                       = Cq^T q + tau (Cu^T u - uhat_e).
    """
    mesh, F1, np_ = ws.mesh, ws.p + 1, ws.np_
    k, ne = cs.Xb.shape[2], mesh.n_elements
    # the k data are the columns of the traces and of every element's
    # right-hand side
    uhat = cs.uhat.reshape(mesh.n_facets, F1, k)
    row = np.arange(ne)[:, None]
    uhat_e = np.take(uhat, ws.ef[row, cs.slots], axis=0).reshape(ne, 3 * F1, k)
    u, q = np.empty((k, ne, np_)), np.empty((k, ne, 2, np_))
    flux_mom = np.empty((ne, 3 * F1, k))      # <qhat.n_K, M_m> per slot
    for e in _blocks(ne):
        Kdiv, _, Cq, Cu = _local_operators(ws, np.arange(e.start, e.stop), cs.slots[e])
        nu, ue = ws.nu[e, None, None], uhat_e[e]
        ub = cs.XP[e] @ ue + cs.Xb[e]
        qb = nu * (Kdiv.swapaxes(1, 2) @ ub - Cq @ ue)
        flux_mom[e] = Cq.swapaxes(1, 2) @ qb + cs.tau * (Cu.swapaxes(1, 2) @ ub - ue)
        u[:, e] = np.moveaxis(ub, 2, 0)
        q[:, e] = np.moveaxis(qb, 2, 0).reshape(k, -1, 2, np_)
    # single-valued numerical flux in the canonical normal direction: the
    # side-0 moments, averaged with side 1 inside
    esign = ws.esign[row, cs.slots]
    flux_mom = flux_mom.reshape(3 * ne, F1, k) * esign.reshape(-1, 1, 1)
    fe, fl, inner = mesh.facet_elems, mesh.facet_local_edge, mesh.interior_facets
    qhat = np.take(flux_mom, 3 * fe[:, 0] + cs.slot_of[fe[:, 0], fl[:, 0]], axis=0)
    qhat[inner] += np.take(
        flux_mom, 3 * fe[inner, 1] + cs.slot_of[fe[inner, 1], fl[inner, 1]], axis=0)
    qhat[inner] /= 2.0
    # exact projected Neumann trace (canonical normal is outward there)
    qhat[mesh.neumann_facets] = cs.g_N.reshape(-1, F1, k)
    return [HDGSolution(u=u[j], q=q[j], uhat=uhat[:, :, j], qhat_n=qhat[:, :, j])
            for j in range(k)]


def solve(ws: Workspace, datas, tau=1.0) -> list[HDGSolution]:
    """HDG solutions on the workspace's mesh, one per ProblemData in
    ``datas``.  The data share the local solves, the condensed skeleton
    matrix and one sparse factorization.  A comes numbered in nested-dissection
    order, so SuperLU keeps that order (natural, symmetric mode, diagonal
    pivots: A is SPD) and runs no fill-reducing ordering of its own.  The
    traces the patches eliminated follow from the factorized ones, level by
    level from the top."""
    cs = assemble_condensed(ws, datas, tau)
    if cs.A.shape[0]:
        try:
            lu = spla.splu(cs.A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # singular factorization
            raise RuntimeError(f"skeleton solve failed: {exc}") from exc
        cs.uhat[cs.free_dofs] = lu.solve(cs.rhs)
    for inner, outer, Y in reversed(cs.eliminated):
        no = outer.shape[1]
        cs.uhat[inner] = Y[:, :, no:] - Y[:, :, :no] @ cs.uhat[outer]
    return _back_substitute(ws, cs)


def raw_output(ws: Workspace, sol: HDGSolution, out: OutputFunctional) -> float:
    """s_h = l_O(u_h, qhat) = (f_O, u_h) + <g_D_O, qhat.n>_GD + <g_N_O, u_h>_GN,
    with the numerical trace supplying the outward boundary flux."""
    mesh = ws.mesh
    dir_facets, neu_facets = mesh.dirichlet_facets, mesh.neumann_facets
    qn_dir = (sol.qhat_n[dir_facets] @ ws.psi_p) / np.sqrt(ws.facet_len[dir_facets])[:, None]
    u_neu = ws.facet_trace(sol.u, ws.etab_p, neu_facets) \
        / ws.sqrt_det[mesh.facet_elems[neu_facets, 0], None]
    val = float(np.sum(ws.integrate_elementwise(
        ws.eval_data(out.f_O) * ws.eval_modal(sol.u))))
    for fun, facets, tr in ((out.g_D_O, dir_facets, qn_dir),
                            (out.g_N_O, neu_facets, u_neu)):
        g = ws.eval_data(fun, ws.ephys[facets])
        val += float(np.einsum("ft,ft,t,f->", g, tr, ws.ew, ws.facet_len[facets]))
    return val
