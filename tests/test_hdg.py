"""HDG solver: manufactured solutions, local structure, published values."""

import math

import numpy as np
import pytest

from hdgbounds import (OutputFunctional, ProblemData, Workspace, raw_output,
                       solve, solve_adjoint, solve_primal,
                       unit_square_crisscross, zero)
from hdgbounds.hdg import (assemble_condensed, conservation_residual,
                           local_residuals)
from hdgbounds.mesh import Mesh

EX1_F = lambda x, y: 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
EX1_U = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
ONE = lambda x, y: np.ones_like(np.asarray(x, dtype=float))


def mixed_square(level=0):
    """Unit square with the left edge Neumann, rest Dirichlet."""
    m = unit_square_crisscross(level)
    tags = {}
    for i in np.nonzero(m.facet_tag != 0)[0]:
        a, b = m.facets[i]
        va, vb = m.vertices[a], m.vertices[b]
        on_left = va[0] < 1e-12 and vb[0] < 1e-12
        tags[(int(a), int(b))] = "N" if on_left else "D"
    return Mesh(m.vertices, m.elements, tags)


class TestManufactured:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_linear_solution_reproduced(self, p):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=zero, g_D=lambda x, y: x)
        sol = solve_primal(mesh, data, p=p, tau=1.0)
        ws = sol.ws
        assert np.abs(ws.eval_modal(sol.u) - ws.qphys[:, :, 0]).max() < 1e-10
        assert np.abs(ws.eval_modal(sol.q[:, 0]) + 1.0).max() < 1e-10
        assert np.abs(ws.eval_modal(sol.q[:, 1])).max() < 1e-10

    def test_zero_data_gives_zero(self):
        mesh = unit_square_crisscross(0)
        sol = solve_primal(mesh, ProblemData(f=zero), p=1)
        assert np.abs(sol.u).max() == 0.0
        assert np.abs(sol.q).max() == 0.0
        assert np.abs(sol.uhat).max() == 0.0

    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
    def test_mixed_neumann_linear(self, tau):
        # u = x, q = (-1, 0); on x=0 the outward normal is (-1,0): g_N = 1
        mesh = mixed_square()
        data = ProblemData(f=zero, g_D=lambda x, y: x, g_N=ONE)
        sol = solve_primal(mesh, data, p=1, tau=tau)
        ws = sol.ws
        assert np.abs(ws.eval_modal(sol.u) - ws.qphys[:, :, 0]).max() < 1e-10


class TestLocalStructure:
    def test_local_equations_hold(self):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=EX1_F)
        sol = solve_primal(mesh, data, p=2)
        r1, r2 = local_residuals(sol, data)
        assert r1 < 1e-10 and r2 < 1e-10

    def test_local_conservation(self):
        mesh = unit_square_crisscross(1)
        data = ProblemData(f=EX1_F)
        sol = solve_primal(mesh, data, p=1)
        assert conservation_residual(sol, data) < 1e-10

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
        sol = solve_primal(mesh, ProblemData(f=zero, g_D=gd), p=1)
        ws = sol.ws
        dfac = np.nonzero(mesh.facet_tag == 1)[0]
        mom = ws.facet_data_moments(gd, dfac)
        assert np.abs(sol.uhat[dfac] - mom).max() < 1e-12

    def test_degenerate_tau_rejected(self):
        mesh = unit_square_crisscross(0)
        with pytest.raises(ValueError):
            solve_primal(mesh, ProblemData(f=zero), p=1, tau=0.0)


class TestAdjoint:
    def test_zero_functional_zero_solution(self):
        mesh = unit_square_crisscross(0)
        sol = solve_adjoint(mesh, OutputFunctional(), p=1)
        assert np.abs(sol.u).max() == 0.0

    def test_self_adjoint_matches_primal(self):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=ONE)
        out = OutputFunctional(f_O=ONE)
        su = solve_primal(mesh, data, p=2)
        sz = solve_adjoint(mesh, out, p=2)
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
            ref = solve_primal(mesh, dat, p=2, tau=tau)
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
                sol = solve_primal(mesh, data, p=p)
                ws = sol.ws
                diff = ws.eval_modal(sol.u) - EX1_U(ws.qphys[:, :, 0],
                                                    ws.qphys[:, :, 1])
                errs.append(math.sqrt(ws.integrate_elementwise(diff ** 2).sum()))
                nels.append(mesh.n_elements)
            order = -2 * math.log(errs[-1] / errs[-2]) / math.log(nels[-1] / nels[-2])
            assert abs(order - (p + 1)) < 0.3

    def test_raw_output_zero_functional(self):
        mesh = unit_square_crisscross(0)
        sol = solve_primal(mesh, ProblemData(f=EX1_F), p=1)
        assert raw_output(sol, OutputFunctional()) == 0.0

    @pytest.mark.parametrize("p,level,ref", [(1, 0, 1.90e-03), (2, 1, 1.10e-06)])
    def test_published_output_errors(self, p, level, ref):
        mesh = unit_square_crisscross(level)
        sol = solve_primal(mesh, ProblemData(f=EX1_F), p=p)
        sh = raw_output(sol, OutputFunctional(f_O=ONE))
        err = abs(4 / np.pi ** 2 - sh)
        assert abs(err - ref) < 0.01 * ref

    def test_boundary_flux_output(self):
        # s2-type output: weighted boundary flux; exact value pi^2/4
        mesh = unit_square_crisscross(2)
        gdo = lambda x, y: np.where(np.abs(x - 1.0) < 1e-12,
                                    0.5 * np.pi * np.sin(np.pi * y), 0.0)
        sol = solve_primal(mesh, ProblemData(f=EX1_F), p=2)
        sh = raw_output(sol, OutputFunctional(g_D_O=gdo))
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
        sol = solve_primal(mesh, data, p=1)
        ws = sol.ws
        assert np.abs(ws.eval_modal(sol.u)
                      - u(ws.qphys[:, :, 0], ws.qphys[:, :, 1])).max() < 1e-10
        assert np.abs(ws.eval_modal(sol.q[:, 0]) + 1.0).max() < 1e-10

        from hdgbounds.adapt import run_pipeline
        res = run_pipeline(mesh, data, OutputFunctional(f_O=ONE), p=1)
        s_exact = 0.4375  # integral of the piecewise-linear solution
        assert res.kappa_degenerate
        assert abs(res.s_tilde - s_exact) < 1e-10
        assert res.half_gap < 1e-12

    def test_neumann_output_term(self):
        # u = x with left-edge Neumann; <g_N_O, u>_GN with g_N_O = 1 is
        # the integral of x over x=0, which is 0; use g_N_O = y instead:
        # integral of u=x over x=0 weighted by y is 0 as well, so take
        # f_O = 1: s_h = mean of u = 1/2
        mesh = mixed_square()
        data = ProblemData(f=zero, g_D=lambda x, y: x, g_N=ONE)
        sol = solve_primal(mesh, data, p=1)
        sh = raw_output(sol, OutputFunctional(f_O=ONE))
        assert abs(sh - 0.5) < 1e-10
