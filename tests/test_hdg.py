"""HDG solver: manufactured solutions, local structure, published values."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import mixed_square, perturbed_crisscross
from hdgbounds import (OutputFunctional, ProblemData, Workspace, raw_output,
                       solve, unit_square_crisscross, zero)
from hdgbounds.hdg import (_bit_length, _dissection, _local_operators,
                           assemble_condensed)
from hdgbounds.mesh import (DIRICHLET, NEUMANN, Mesh, lshape_initial,
                            refine_bisection)

EX1_F = lambda x, y: 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
EX1_U = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
ONE = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
# slot j of every element is its local edge j (_local_operators)
EDGES = np.arange(3)[None, :]


def local_residuals(ws, sol, data, tau):
    """Relative max residuals of the two local HDG equations (flux, balance)
    after back-substitution."""
    ne = ws.mesh.n_elements
    Kdiv, E, Cq, Cu = _local_operators(ws, np.arange(ne), EDGES)
    nu = ws.nu[:, None]
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


def conservation_residual(ws, sol, data):
    """max_K |<qhat.n, 1>_dK - (f, 1)_K| (local conservation audit)."""
    # <qhat.n_K, 1>_e = esign * sqrt(L) * c_0 in the orthonormal facet basis,
    # and (f, 1)_K = (f, phi_0)_K * sqrt(det) / sqrt(2) for the constant mode
    c0 = sol.qhat_n[ws.ef, 0]
    flux = np.sum(c0 * ws.esign * np.sqrt(ws.elen), axis=1)
    fmom0 = ws.moments_p(ws.eval_data(data.f))[:, 0]
    fint = fmom0 * np.sqrt(ws.det) / np.sqrt(2.0)
    return float(np.abs(flux - fint).max() / (1.0 + np.abs(fint).max()))


def _local_solve_dense(ws, datas, tau):
    """The local problem before the flux was eliminated: per element the
    dense (3np x 3np) system [[1/nu, -Kdiv^T], [Kdiv, tau E]] [q; u] =
    [-Cq; tau Cu] uhat + [0; (f, psi)] solved for the 3F trace columns and
    one column per datum.  Returns X (ne, 3np, 3F + k), the q rows first."""
    ne, np_, F1 = ws.mesh.n_elements, ws.np_, ws.p + 1
    tau = np.broadcast_to(np.asarray(tau, dtype=float), (ne,))
    Kdiv = np.einsum("ecr,rmi->eicm", ws.jac_inv_t, ws.S).reshape(ne, np_, 2 * np_)
    M = np.zeros((ne, 3 * np_, 3 * np_))
    idx = np.arange(2 * np_)
    M[:, idx, idx] = (1.0 / ws.nu)[:, None]
    M[:, 2 * np_:, :2 * np_] = Kdiv
    M[:, :2 * np_, 2 * np_:] = -np.swapaxes(Kdiv, 1, 2)
    P = np.zeros((ne, 3 * np_, 3 * F1))
    E = np.zeros((ne, np_, np_))
    scale = np.sqrt(ws.elen) / ws.sqrt_det[:, None]
    for ell in range(3):
        T = ws.T_p[ell, ws.eo[:, ell]]                       # (ne, F1, np_)
        E += (ws.elen[:, ell] / ws.det)[:, None, None] * ws.EE[ell][None]
        Cq = np.einsum("ec,emv->ecvm", ws.enormal[:, ell], T).reshape(ne, 2 * np_, F1)
        cols = slice(ell * F1, (ell + 1) * F1)
        P[:, :2 * np_, cols] = -Cq * scale[:, ell, None, None]
        P[:, 2 * np_:, cols] = (tau * scale[:, ell])[:, None, None] * np.swapaxes(T, 1, 2)
    M[:, 2 * np_:, 2 * np_:] = tau[:, None, None] * E
    b = np.zeros((ne, 3 * np_, len(datas)))
    for j, data in enumerate(datas):
        b[:, 2 * np_:, j] = ws.moments_p(ws.eval_data(data.f))
    return np.linalg.solve(M, np.concatenate([P, b], axis=2))


def _full_system(ws, datas, tau):
    """The skeleton system before any patch condensation, dense, from the
    dense local solve: each element's flux moments <qhat.n_K, mu> summed
    over its facets' dofs, the Neumann data and the Dirichlet moments moved
    to the right-hand side.  Returns A (n, n) and rhs (n, k) on the free
    dofs free (n,), ascending, and the Dirichlet moments uhat (k, nf F)."""
    mesh, F1, k = ws.mesh, ws.p + 1, len(datas)
    ne, n2, F3, N = mesh.n_elements, 2 * ws.np_, 3 * F1, mesh.n_facets * F1
    X = _local_solve_dense(ws, datas, tau)
    _, _, Cq, Cu = _local_operators(ws, np.arange(ne), EDGES)
    flux_mom = (np.swapaxes(Cq, 1, 2) @ X[:, :n2]
                + tau * (np.swapaxes(Cu, 1, 2) @ X[:, n2:]))
    flux_mom[:, :, :F3] -= tau * np.eye(F3)
    A, rhs = np.zeros((N, N)), np.zeros((N, k))
    for dofs, fm in zip((ws.ef[:, :, None] * F1 + np.arange(F1)).reshape(ne, F3),
                        flux_mom):
        A[np.ix_(dofs, dofs)] -= fm[:, :F3]
        rhs[dofs] += fm[:, F3:]
    dir_facets, neu_facets = mesh.dirichlet_facets, mesh.neumann_facets
    uhat = np.zeros((k, mesh.n_facets, F1))
    for j, data in enumerate(datas):
        uhat[j, dir_facets] = ws.facet_data_moments(data.g_D, dir_facets)
        if len(neu_facets):
            rhs.reshape(-1, F1, k)[neu_facets, :, j] -= ws.facet_data_moments(
                data.g_N, neu_facets)
    uhat = uhat.reshape(k, N)
    free = np.flatnonzero(np.repeat(mesh.facet_tag != DIRICHLET, F1))
    fixed = np.flatnonzero(np.repeat(mesh.facet_tag == DIRICHLET, F1))
    rhs = rhs[free] - A[np.ix_(free, fixed)] @ uhat[:, fixed].T
    return A[np.ix_(free, free)], rhs, free, uhat


def _full_solve(ws, datas, tau):
    """The traces (k, nf F) of the dense full skeleton system."""
    A, rhs, free, uhat = _full_system(ws, datas, tau)
    uhat[:, free] = np.linalg.solve(A, rhs).T
    return uhat


def _block_form_case(two_regions):
    """mixed_square(1) with Neumann data, and nu = 1 | 4 across x = 1/2 if
    two_regions."""
    mesh = mixed_square(1)
    if two_regions:
        cent = mesh.vertices[mesh.elements].mean(axis=1)
        mesh = Mesh(mesh.vertices, mesh.elements, mesh.boundary_tag_dict(),
                    region=(cent[:, 0] > 0.5).astype(int), nu={0: 1.0, 1: 4.0})
    data = ProblemData(f=EX1_F, g_D=lambda x, y: x * y, g_N=ONE)
    out = OutputFunctional(f_O=ONE, g_N_O=lambda x, y: 1.0 + y)
    return mesh, [data, out.adjoint_data()]


BLOCK_CASES = pytest.mark.parametrize(
    "p,tau,two_regions",
    [(p, tau, two) for p in range(4) for tau in (0.1, 1.0, 10.0)
     for two in (False, True)])


class TestManufactured:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_linear_solution_reproduced(self, p):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=zero, g_D=lambda x, y: x)
        ws = Workspace(mesh, p)
        sol = solve(ws, [data], tau=1.0)[0]
        assert np.abs(ws.eval_modal(sol.u) - ws.qphys[:, :, 0]).max() < 1e-10
        assert np.abs(ws.eval_modal(sol.q[:, 0]) + 1.0).max() < 1e-10
        assert np.abs(ws.eval_modal(sol.q[:, 1])).max() < 1e-10

    def test_zero_data_gives_zero(self):
        mesh = unit_square_crisscross(0)
        sol = solve(Workspace(mesh, 1), [ProblemData(f=zero)])[0]
        assert np.abs(sol.u).max() == 0.0
        assert np.abs(sol.q).max() == 0.0
        assert np.abs(sol.uhat).max() == 0.0

    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
    def test_mixed_neumann_linear(self, tau):
        # u = x, q = (-1, 0); on x=0 the outward normal is (-1,0): g_N = 1
        mesh = mixed_square()
        data = ProblemData(f=zero, g_D=lambda x, y: x, g_N=ONE)
        ws = Workspace(mesh, 1)
        sol = solve(ws, [data], tau=tau)[0]
        assert np.abs(ws.eval_modal(sol.u) - ws.qphys[:, :, 0]).max() < 1e-10


class TestLocalStructure:
    @BLOCK_CASES
    def test_local_equations_hold(self, p, tau, two_regions):
        mesh, datas = _block_form_case(two_regions)
        ws = Workspace(mesh, p)
        for sol, data in zip(solve(ws, datas, tau), datas):
            r1, r2 = local_residuals(ws, sol, data, tau)
            assert r1 < 1e-10 and r2 < 1e-10

    @BLOCK_CASES
    def test_block_form_matches_dense_local_solve(self, p, tau, two_regions):
        mesh, datas = _block_form_case(two_regions)
        ws = Workspace(mesh, p)
        cs = assemble_condensed(ws, datas, tau)
        X = _local_solve_dense(ws, datas, tau)
        ne, n2, F1 = mesh.n_elements, 2 * ws.np_, p + 1
        F3 = 3 * F1
        nu = ws.nu[:, None, None]
        Kdiv, _, Cq, Cu = _local_operators(ws, np.arange(ne), EDGES)
        Kt = np.swapaxes(Kdiv, 1, 2)
        # <qhat.n_K, mu> = Cq^T q + tau (Cu^T u - uhat_e) of the dense solution
        flux_mom = (np.swapaxes(Cq, 1, 2) @ X[:, :n2]
                    + tau * (np.swapaxes(Cu, 1, 2) @ X[:, n2:]))
        flux_mom[:, :, :F3] -= tau * np.eye(F3)
        # cs.XP has the facet modes by slot
        Cq_slot = _local_operators(ws, np.arange(ne), cs.slots)[2]
        by_slot = (cs.slots[:, :, None] * F1 + np.arange(F1)).reshape(ne, 1, F3)
        XP = np.take_along_axis(X[:, :, :F3], by_slot, axis=2)
        pairs = [(cs.XP, XP[:, n2:]), (cs.Xb, X[:, n2:, F3:]),
                 (nu * (Kt @ cs.XP - Cq_slot), XP[:, :n2]),
                 (nu * (Kt @ cs.Xb), X[:, :n2, F3:])]
        # A is the Schur complement, onto the dofs that no patch eliminated,
        # of the element matrices -flux_mom[:, :, :F3] summed over the free
        # dofs
        A, _, free, _ = _full_system(ws, datas, tau)
        kept = np.searchsorted(free, cs.free_dofs)
        gone = np.setdiff1d(np.arange(len(free)), kept)
        pairs.append((cs.A.toarray(), A[np.ix_(kept, kept)] - A[np.ix_(kept, gone)]
                      @ np.linalg.solve(A[np.ix_(gone, gone)], A[np.ix_(gone, kept)])))
        # at the solved traces every side's moments, in the canonical normal
        # direction, are the single-valued qhat_n of its facet
        for j, sol in enumerate(solve(ws, datas, tau)):
            ue = sol.uhat[ws.ef].reshape(ne, F3, 1)
            side = (flux_mom[:, :, :F3] @ ue)[:, :, 0] + flux_mom[:, :, F3 + j]
            pairs.append((sol.qhat_n[ws.ef] * ws.esign[:, :, None],
                          side.reshape(ne, 3, F1)))
        for got, ref in pairs:
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("block,bad", [(1024, 3), (7, 10)])
    def test_singular_local_matrix_names_elements(self, monkeypatch, block, bad):
        # with blocks of 7 of the 16 elements, one patch of four each,
        # element 10 lies in the third, its rows in patch order
        from hdgbounds import hdg, workspace
        local_operators = hdg._local_operators

        def zero_element(ws, e, slots):
            Kdiv, E, Cq, Cu = local_operators(ws, e, slots)
            Kdiv[e == bad] = 0.0
            E[e == bad] = 0.0
            return Kdiv, E, Cq, Cu

        monkeypatch.setattr(workspace, "_BLOCK", block)
        monkeypatch.setattr(hdg, "_local_operators", zero_element)
        with pytest.raises(RuntimeError, match=rf"element\(s\) \[{bad}\]"):
            solve(Workspace(unit_square_crisscross(0), 1), [ProblemData(f=EX1_F)])

    def test_solve_memory_scales_with_the_block(self):
        # numpy's traced peak of one solve at level 4 (4096 elements, four
        # blocks), p=2 is 14.0 MiB, set after the factorization; the whole
        # mesh's element matrices and patch systems at once gave 17.7 MiB,
        # and per-element temporaries of the whole mesh 28.2 MiB
        import tracemalloc
        ws = Workspace(unit_square_crisscross(4), 2)
        datas = [ProblemData(f=EX1_F), OutputFunctional(f_O=ONE).adjoint_data()]
        tracemalloc.start()
        try:
            solve(ws, datas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 14.0 * 2 ** 20

    def test_factorization_starts_without_the_local_matrices(self, monkeypatch):
        # numpy's traced memory when splu starts at level 4, p=2 is 5.78 MiB
        # (keeping the element matrices and G^T Xb for back-substitution
        # held 9.67 MiB), and its traced peak until then 10.71 MiB, where
        # the heap's high-water mark stays resident through the
        # factorization; the whole mesh's element matrices and patch systems
        # at once gave 17.73 MiB
        import tracemalloc
        from types import SimpleNamespace
        from hdgbounds import hdg
        live = []

        def recording_splu(*args, **kwargs):
            live.append(tracemalloc.get_traced_memory())
            return spla.splu(*args, **kwargs)

        monkeypatch.setattr(hdg, "spla", SimpleNamespace(splu=recording_splu))
        ws = Workspace(unit_square_crisscross(4), 2)
        datas = [ProblemData(f=EX1_F), OutputFunctional(f_O=ONE).adjoint_data()]
        tracemalloc.start()
        try:
            solve(ws, datas)
        finally:
            tracemalloc.stop()
        assert len(live) == 1
        assert live[0][0] <= 1.25 * 5.78 * 2 ** 20
        assert live[0][1] <= 1.25 * 10.71 * 2 ** 20

    def test_local_conservation(self):
        mesh = unit_square_crisscross(1)
        data = ProblemData(f=EX1_F)
        ws = Workspace(mesh, 1)
        sol = solve(ws, [data])[0]
        assert conservation_residual(ws, sol, data) < 1e-10

    def test_condensed_matrix_symmetric_positive(self):
        mesh = unit_square_crisscross(0)
        A = assemble_condensed(Workspace(mesh, 1), [ProblemData(f=EX1_F)], 1.0).A
        d = (A - A.T)
        assert (abs(d).max() if d.nnz else 0.0) <= 1e-12 * abs(A).max()
        w = np.linalg.eigvalsh(A.toarray())
        assert w.min() > 0

    def test_dirichlet_trace_is_projection(self):
        mesh = unit_square_crisscross(0)
        gd = lambda x, y: x + 0.5 * y
        ws = Workspace(mesh, 1)
        sol = solve(ws, [ProblemData(f=zero, g_D=gd)])[0]
        dfac = np.nonzero(mesh.facet_tag == 1)[0]
        mom = ws.facet_data_moments(gd, dfac)
        assert np.abs(sol.uhat[dfac] - mom).max() < 1e-12

    def test_skeleton_ordering_keeps_fill_low(self, monkeypatch):
        # on this mesh's patch-condensed matrix the dissection fills 3.2
        # A.nnz, minimum degree on A^T + A 3.3 and the default COLAMD 5.4
        from hdgbounds import hdg
        fills = []
        splu = hdg.spla.splu

        def recording_splu(A, *args, **kwargs):
            lu = splu(A, *args, **kwargs)
            fills.append((lu.L.nnz + lu.U.nnz) / A.nnz)
            return lu

        monkeypatch.setattr(hdg.spla, "splu", recording_splu)
        solve(Workspace(unit_square_crisscross(3), 2), [ProblemData(f=EX1_F)])
        assert len(fills) == 1 and fills[0] <= 4.0

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf, np.ones(16),
                                     [1.0]])
    def test_degenerate_tau_rejected(self, tau):
        # tau is one number for the whole mesh; an array, even a valid
        # per-element one, is rejected
        mesh = unit_square_crisscross(0)
        with pytest.raises(ValueError, match="tau must be one positive number"):
            solve(Workspace(mesh, 1), [ProblemData(f=zero)], tau=tau)


def _graded_lshape(n):
    """The L-shape bisected towards its re-entrant corner, a third of the
    elements at a time, until it has at least n elements."""
    mesh = lshape_initial()
    while mesh.n_elements < n:
        r = np.linalg.norm(mesh.vertices[mesh.elements].mean(axis=1), axis=1)
        mesh = refine_bisection(mesh, np.argsort(r, kind="stable")[:mesh.n_elements // 3])
    return mesh


ORDER_MESHES = {
    "crisscross": lambda: unit_square_crisscross(2),
    "perturbed": lambda: perturbed_crisscross(base=unit_square_crisscross(1)),
    "mixed_square": lambda: mixed_square(2),
    "lshape_bisected": lambda: refine_bisection(
        refine_bisection(lshape_initial(), [0, 3, 4]), [1, 5, 8]),
    "two_regions": lambda: _block_form_case(True)[0],
}


class TestSkeletonOrder:
    @pytest.mark.parametrize("name", sorted(ORDER_MESHES))
    def test_order_is_permutation_of_free_facets(self, name):
        mesh = ORDER_MESHES[name]()
        order = _dissection(mesh)[1]
        assert np.array_equal(np.sort(order),
                              np.flatnonzero(mesh.facet_tag != DIRICHLET))
        # A keeps the facets that no patch eliminated, in that order
        cs = assemble_condensed(Workspace(mesh, 1), [ProblemData(f=EX1_F)], 1.0)
        gone = np.concatenate([inner[:, ::2] // 2 for inner, _, _ in cs.eliminated],
                              axis=None)
        assert len(np.unique(gone)) == len(gone) and np.isin(gone, order).all()
        kept = order[~np.isin(order, gone)]
        assert np.array_equal(cs.free_dofs, (2 * kept[:, None] + [0, 1]).ravel())

    @pytest.mark.parametrize("name", sorted(ORDER_MESHES))
    def test_solve_matches_minimum_degree_reference(self, name):
        mesh = ORDER_MESHES[name]()
        _, datas = _block_form_case(False)
        ws = Workspace(mesh, 2)
        A, rhs, free, ref = _full_system(ws, datas, 1.0)
        ref[:, free] = spla.splu(sp.csc_matrix(A),
                                 permc_spec="MMD_AT_PLUS_A").solve(rhs).T
        for sol, want in zip(solve(ws, datas, 1.0), ref):
            got = sol.uhat.ravel()
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_bit_length_exact_at_powers_of_two(self):
        # a float bit length (np.frexp) rounds up just below 2^k for k > 53
        x = [0] + [v for k in range(63) for v in (2 ** k - 1, 2 ** k, 2 ** k + 1)]
        got = _bit_length(np.array(x, dtype=np.uint64))
        assert got.tolist() == [v.bit_length() for v in x]

    @staticmethod
    def _fill_over_minimum_degree(monkeypatch, mesh, p):
        """LU nonzeros of the factorization ``solve`` makes, over those of
        minimum degree on A^T + A in the mesh's own facet numbering."""
        from hdgbounds import hdg
        fills = []
        splu = hdg.spla.splu

        def recording_splu(A, *args, **kwargs):
            lu = splu(A, *args, **kwargs)
            fills.append(lu.L.nnz + lu.U.nnz)
            return lu

        monkeypatch.setattr(hdg.spla, "splu", recording_splu)
        ws = Workspace(mesh, p)
        solve(ws, [ProblemData(f=EX1_F)])
        cs = assemble_condensed(ws, [ProblemData(f=EX1_F)], 1.0)
        back = np.argsort(cs.free_dofs)
        mmd = splu(cs.A[back][:, back], permc_spec="MMD_AT_PLUS_A")
        assert len(fills) == 1
        return fills[0] / (mmd.L.nnz + mmd.U.nnz)

    def test_fill_below_minimum_degree_on_square(self, monkeypatch):
        # 505,920 against 596,531 LU nonzeros, on the patch-condensed matrix
        mesh = unit_square_crisscross(4)
        assert self._fill_over_minimum_degree(monkeypatch, mesh, 2) < 1.0

    def test_fill_near_minimum_degree_on_graded_lshape(self, monkeypatch):
        # 1.005 on this 2098-element mesh, on the patch-condensed matrix
        mesh = _graded_lshape(1760)
        assert self._fill_over_minimum_degree(monkeypatch, mesh, 1) <= 1.35


# and one element in no patch, its Neumann facet not its first slot
PATCH_MESHES = dict(ORDER_MESHES, one_triangle=lambda: Mesh(
    [[0, 0], [1, 0], [0, 1]], [[0, 1, 2]],
    {(0, 1): DIRICHLET, (1, 2): NEUMANN, (0, 2): DIRICHLET}))


class TestPatchCondensation:
    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("name", sorted(PATCH_MESHES))
    def test_solve_matches_full_system(self, name, p, tau):
        # the meshes include two regions and mixed Dirichlet/Neumann facets
        ws = Workspace(PATCH_MESHES[name](), p)
        _, datas = _block_form_case(False)
        for sol, want in zip(solve(ws, datas, tau), _full_solve(ws, datas, tau)):
            assert np.abs(sol.uhat.ravel() - want).max() <= 1e-12 * np.abs(want).max()

    def test_fully_condensed_mesh_skips_the_factorization(self, monkeypatch):
        # one criss-cross square: its four elements form one patch, which
        # eliminates every free facet
        from hdgbounds import hdg
        calls = []
        monkeypatch.setattr(hdg.spla, "splu", lambda *a, **k: calls.append(a))
        mesh = Mesh([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]],
                    [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]],
                    {(0, 1): DIRICHLET, (1, 2): DIRICHLET, (2, 3): DIRICHLET,
                     (0, 3): DIRICHLET})
        ws = Workspace(mesh, 2)
        data = [ProblemData(f=EX1_F, g_D=lambda x, y: x * y)]
        assert assemble_condensed(ws, data, 1.0).A.shape == (0, 0)
        got, want = solve(ws, data)[0].uhat.ravel(), _full_solve(ws, data, 1.0)[0]
        assert not calls and np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_surviving_share_on_crisscross(self):
        # level 3, p=2: 1440 of the 4512 free dofs are left to factorize
        # (every criss-cross square one patch of four elements)
        mesh = unit_square_crisscross(3)
        cs = assemble_condensed(Workspace(mesh, 2), [ProblemData(f=EX1_F)], 1.0)
        assert 3 * np.count_nonzero(mesh.facet_tag != DIRICHLET) == 4512
        assert cs.A.shape == (1440, 1440)

    def test_zero_pivot_in_a_patch_fails_the_skeleton_solve(self, monkeypatch):
        from hdgbounds import hdg
        from hdgbounds.workspace import ZeroPivotError
        spd_solve = hdg.spd_solve

        def singular_patches(K, B):
            # p=1: the element blocks are 3 x 3, a pair's shared facet 2 x 2
            if K.shape[1] == 2:
                raise ZeroPivotError(np.array([0]))
            return spd_solve(K, B)

        monkeypatch.setattr(hdg, "spd_solve", singular_patches)
        with pytest.raises(RuntimeError, match="skeleton solve failed"):
            solve(Workspace(unit_square_crisscross(0), 1), [ProblemData(f=EX1_F)])


class TestAdjoint:
    def test_zero_functional_zero_solution(self):
        mesh = unit_square_crisscross(0)
        sol = solve(Workspace(mesh, 1), [OutputFunctional().adjoint_data()])[0]
        assert np.abs(sol.u).max() == 0.0

    def test_self_adjoint_matches_primal(self):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=ONE)
        out = OutputFunctional(f_O=ONE)
        su = solve(Workspace(mesh, 2), [data])[0]
        sz = solve(Workspace(mesh, 2), [out.adjoint_data()])[0]
        assert np.abs(su.u - sz.u).max() < 1e-12
        assert np.abs(su.q - sz.q).max() < 1e-12

    @pytest.mark.parametrize("tau", [0.1, 10.0])
    def test_shared_solve_matches_separate_solves(self, tau):
        # one factorization for two right-hand sides, with free (Neumann)
        # and fixed (Dirichlet) facets and the -g_N_O sign of the adjoint
        mesh = mixed_square(1)
        data = ProblemData(f=EX1_F, g_D=lambda x, y: x * y, g_N=ONE)
        out = OutputFunctional(f_O=ONE, g_N_O=lambda x, y: 1.0 + y)
        adata = out.adjoint_data()
        shared = solve(Workspace(mesh, 2), [data, adata], tau)
        for sol, dat in zip(shared, (data, adata)):
            ref = solve(Workspace(mesh, 2), [dat], tau=tau)[0]
            for name in ("u", "q", "uhat", "qhat_n"):
                a, b = getattr(sol, name), getattr(ref, name)
                assert np.abs(a - b).max() <= 1e-14 * (1.0 + np.abs(b).max())

    def test_neumann_sign_flip(self):
        # adjoint data must carry g_N <- -g_N_O
        out = OutputFunctional(g_N_O=ONE)
        adata = out.adjoint_data()
        assert np.all(adata.g_N(np.zeros(3), np.zeros(3)) == -1.0)


class TestConvergenceAndOutputs:
    def test_l2_convergence_order(self):
        data = ProblemData(f=EX1_F)
        for p in (1, 2):
            errs, nels = [], []
            for lvl in range(3):
                mesh = unit_square_crisscross(lvl)
                ws = Workspace(mesh, p)
                sol = solve(ws, [data])[0]
                diff = ws.eval_modal(sol.u) - EX1_U(ws.qphys[:, :, 0],
                                                    ws.qphys[:, :, 1])
                errs.append(math.sqrt(ws.integrate_elementwise(diff ** 2).sum()))
                nels.append(mesh.n_elements)
            order = -2 * math.log(errs[-1] / errs[-2]) / math.log(nels[-1] / nels[-2])
            assert abs(order - (p + 1)) < 0.3

    def test_raw_output_zero_functional(self):
        mesh = unit_square_crisscross(0)
        ws = Workspace(mesh, 1)
        sol = solve(ws, [ProblemData(f=EX1_F)])[0]
        assert raw_output(ws, sol, OutputFunctional()) == 0.0

    @pytest.mark.parametrize("p,level,ref", [(1, 0, 1.90e-03), (2, 1, 1.10e-06)])
    def test_published_output_errors(self, p, level, ref):
        mesh = unit_square_crisscross(level)
        ws = Workspace(mesh, p)
        sol = solve(ws, [ProblemData(f=EX1_F)])[0]
        sh = raw_output(ws, sol, OutputFunctional(f_O=ONE))
        err = abs(4 / np.pi ** 2 - sh)
        assert abs(err - ref) < 0.01 * ref

    def test_boundary_flux_output(self):
        # s2-type output: weighted boundary flux; exact value pi^2/4
        mesh = unit_square_crisscross(2)
        gdo = lambda x, y: np.where(np.abs(x - 1.0) < 1e-12,
                                    0.5 * np.pi * np.sin(np.pi * y), 0.0)
        ws = Workspace(mesh, 2)
        sol = solve(ws, [ProblemData(f=EX1_F)])[0]
        sh = raw_output(ws, sol, OutputFunctional(g_D_O=gdo))
        assert abs(sh - np.pi ** 2 / 4) < 1e-5

    def test_piecewise_diffusivity_interface(self):
        # nu = 1 for x < 1/2, nu = 2 for x > 1/2; u piecewise linear with
        # continuous flux q = (-1, 0): exactly representable, so the whole
        # pipeline collapses onto the exact output
        base = unit_square_crisscross(0)
        cent = base.vertices[base.elements].mean(axis=1)
        region = (cent[:, 0] > 0.5).astype(int)
        mesh = Mesh(base.vertices, base.elements, base.boundary_tag_dict(),
                    region=region, nu={0: 1.0, 1: 2.0})

        def u(x, y):
            x = np.asarray(x, dtype=float)
            return np.where(x <= 0.5, x, 0.5 + (x - 0.5) / 2.0)

        data = ProblemData(f=zero, g_D=u)
        ws = Workspace(mesh, 1)
        sol = solve(ws, [data])[0]
        assert np.abs(ws.eval_modal(sol.u)
                      - u(ws.qphys[:, :, 0], ws.qphys[:, :, 1])).max() < 1e-10
        assert np.abs(ws.eval_modal(sol.q[:, 0]) + 1.0).max() < 1e-10

        from hdgbounds.adapt import run_pipeline
        res = run_pipeline(mesh, data, OutputFunctional(f_O=ONE), p=1)
        s_exact = 0.4375  # integral of the piecewise-linear solution
        assert res.kappa_degenerate
        assert abs(res.s_tilde - s_exact) < 1e-10
        assert res.half_gap < 1e-12

    @pytest.mark.parametrize("p", [1, 2])
    def test_neumann_output_term(self, p):
        # u = x + 1 with left-edge Neumann (g_N = 1): the output is the
        # Neumann term alone, <y, u>_GN = integral of y over x=0 = 1/2
        mesh = mixed_square()
        data = ProblemData(f=zero, g_D=lambda x, y: x + 1.0, g_N=ONE)
        ws = Workspace(mesh, p)
        sol = solve(ws, [data])[0]
        sh = raw_output(ws, sol, OutputFunctional(g_N_O=lambda x, y: y))
        assert abs(sh - 0.5) < 1e-13
