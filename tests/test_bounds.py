"""Certification core: constants, kappa, eta terms, guaranteed bounds."""

import numpy as np
import pytest

from conftest import build_pair
from hdgbounds import (OutputFunctional, ProblemData, Workspace, bounds as bd,
                       compute_bounds, compute_eta, compute_kappa,
                       lshape_initial, poincare_constants, exact_equilibration_bounds,
                       unit_square_crisscross, zero)
from hdgbounds.mesh import Mesh
from hdgbounds.reconstruct import ContinuousPotential, EquilibratedFlux

EX1_F = lambda x, y: 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
ONE = lambda x, y: np.ones_like(np.asarray(x, dtype=float))


class TestPoincareConstants:
    def test_c1_definition(self):
        # h_K = pi gives C1 = 1: scale the unit right triangle by pi/sqrt(2)
        s = np.pi / np.sqrt(2.0)
        mesh = Mesh(np.array([[0, 0], [s, 0], [0, s]]), np.array([[0, 1, 2]]),
                    {(0, 1): "D", (1, 2): "D", (0, 2): "D"})
        c1, _ = poincare_constants(mesh)
        assert abs(c1[0] - 1.0) < 1e-14

    def test_unit_right_triangle_values(self):
        mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    np.array([[0, 1, 2]]),
                    {(0, 1): "D", (1, 2): "D", (0, 2): "D"})
        c1, c2 = poincare_constants(mesh)
        assert abs(c1[0] - np.sqrt(2) / np.pi) < 1e-14
        # hypotenuse is local edge 1 (v1 -> v2); opposite vertex (0,0)
        expect = np.sqrt(4 / np.pi + 4 * np.sqrt(2) / np.pi ** 2)
        assert abs(c2[0, 1] - expect) < 1e-12

    def test_c1_scales_linearly(self):
        m1 = unit_square_crisscross(0)
        m2 = Mesh(2.0 * m1.vertices, m1.elements, m1.boundary_tag_dict())
        c1a, _ = poincare_constants(m1)
        c1b, _ = poincare_constants(m2)
        assert np.abs(c1b - 2.0 * c1a).max() < 1e-14


def synthetic_pair(mesh, ws, flux_const, pot_values=None):
    coeffs = np.zeros((mesh.n_elements, 2, ws.nm))
    # constant fields: first modal function is sqrt(2/det)
    coeffs[:, 0, 0] = flux_const[0] / np.sqrt(2.0 / ws.det)
    coeffs[:, 1, 0] = flux_const[1] / np.sqrt(2.0 / ws.det)
    flux = EquilibratedFlux(mesh=mesh, p=ws.p, coeffs=coeffs)
    n_glob, node_map, _ = ws.global_nodes()
    values = np.zeros(n_glob) if pot_values is None else pot_values
    pot = ContinuousPotential(mesh=mesh, degree=ws.m, values=values,
                              node_map=node_map)
    return flux, pot


class TestKappa:
    def test_equal_residuals_give_one(self):
        mesh = unit_square_crisscross(0)
        ws = Workspace(mesh, 1)
        pair = synthetic_pair(mesh, ws, (1.0, 0.0))
        kappa, degenerate = compute_kappa(pair, pair, ws)
        assert abs(kappa - 1.0) < 1e-13 and not degenerate

    def test_ratio_two(self):
        mesh = unit_square_crisscross(0)
        ws = Workspace(mesh, 1)
        p1 = synthetic_pair(mesh, ws, (1.0, 0.0))
        p2 = synthetic_pair(mesh, ws, (0.0, 2.0))
        kappa, degenerate = compute_kappa(p1, p2, ws)
        assert abs(kappa - 2.0) < 1e-13 and not degenerate

    def test_degenerate_flag(self):
        mesh = unit_square_crisscross(0)
        ws = Workspace(mesh, 1)
        p0 = synthetic_pair(mesh, ws, (0.0, 0.0))
        p2 = synthetic_pair(mesh, ws, (0.0, 2.0))
        kappa, degenerate = compute_kappa(p0, p2, ws)
        assert kappa == 1.0 and degenerate


class TestEta:
    def test_polynomial_data_no_oscillation(self):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=ONE)
        out = OutputFunctional(f_O=ONE)
        _, _, pp, ap, ws = build_pair(mesh, data, out, p=1)
        eta = compute_eta(pp, ap, data, out, ws, kappa=1.0)
        assert np.abs(eta.osc_div_minus).max() < 1e-13
        assert np.abs(eta.osc_div_plus).max() < 1e-13
        assert np.abs(eta.osc_neu_minus).max() == 0.0

    def test_exact_reconstructions_zero_eta(self):
        # manufactured linear solution: reconstructions are exact
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=zero, g_D=lambda x, y: x)
        out = OutputFunctional(g_D_O=lambda x, y: 2 * x - y)
        _, _, pp, ap, ws = build_pair(mesh, data, out, p=1)
        eta = compute_eta(pp, ap, data, out, ws, kappa=1.0)
        assert np.abs(eta.minus).max() < 1e-9
        assert np.abs(eta.plus).max() < 1e-9

    def test_zero_order_mode_matches_projected_for_hdg_fluxes(self):
        # div q~ = P f and the Neumann trace is the projection, so both
        # estimator modes coincide for these reconstructions
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=EX1_F)
        out = OutputFunctional(f_O=ONE)
        _, _, pp, ap, ws = build_pair(mesh, data, out, p=1)
        kappa, _ = compute_kappa(pp, ap, ws)
        e1 = compute_eta(pp, ap, data, out, ws, kappa, mode="projected")
        e2 = compute_eta(pp, ap, data, out, ws, kappa, mode="zero-order")
        assert np.abs(e1.minus - e2.minus).max() < 1e-10
        assert np.abs(e1.plus - e2.plus).max() < 1e-10

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            compute_eta(None, None, None, None, None, 1.0, mode="bogus")


class TestComputeBounds:
    def test_example1_golden_row(self):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=EX1_F)
        out = OutputFunctional(f_O=ONE)
        _, _, pp, ap, ws = build_pair(mesh, data, out, p=2, optimize=True)
        r = compute_bounds(pp, ap, data, out, ws)
        assert abs(r.s_tilde - 0.405275669432) < 1e-6
        assert abs(r.half_gap - 1.26e-4) < 0.1 * 1.26e-4
        assert r.contains(4 / np.pi ** 2)

    def test_example2_golden_initial(self):
        mesh = lshape_initial()
        data = ProblemData(f=ONE)
        out = OutputFunctional(f_O=ONE)
        _, _, pp, ap, ws = build_pair(mesh, data, out, p=3, optimize=True)
        r = compute_bounds(pp, ap, data, out, ws)
        assert abs(r.s_minus - 0.2120143) < 1e-5
        assert abs(r.s_plus - 0.2153474) < 1e-5
        assert r.contains(0.2140758036140825)

    def test_gap_decomposition(self):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=EX1_F)
        out = OutputFunctional(f_O=ONE)
        _, _, pp, ap, ws = build_pair(mesh, data, out, p=1)
        r = compute_bounds(pp, ap, data, out, ws)
        gap = r.s_plus - r.s_minus
        assert abs(r.gap_elements.sum() - gap) < 1e-12 * gap
        assert r.s_minus <= r.s_tilde <= r.s_plus
        assert r.half_gap >= 0

    def test_exact_reconstructions_collapse(self):
        # manufactured linear primal and adjoint: both residuals vanish and
        # the interval collapses onto the exact output
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=zero, g_D=lambda x, y: x)
        out = OutputFunctional(g_D_O=lambda x, y: y)
        _, _, pp, ap, ws = build_pair(mesh, data, out, p=1)
        r = compute_bounds(pp, ap, data, out, ws)
        assert r.kappa_degenerate
        assert r.half_gap == 0.0
        # s = <g_D_O, q.n> for u = x on the unit square: q = (-1, 0);
        # contributions only from x=0 (n=(-1,0): q.n=1) and x=1 (q.n=-1):
        # integral of y*(1) on x=0 plus y*(-1) on x=1 = 0
        assert abs(r.s_tilde - 0.0) < 1e-12

    def test_invalid_kappa_rejected(self):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=EX1_F)
        out = OutputFunctional(f_O=ONE)
        _, _, pp, ap, ws = build_pair(mesh, data, out, p=1)
        with pytest.raises(ValueError):
            compute_bounds(pp, ap, data, out, ws, kappa=-1.0)

    def test_csv_row_shape(self):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=EX1_F)
        out = OutputFunctional(f_O=ONE)
        _, _, pp, ap, ws = build_pair(mesh, data, out, p=1)
        r = compute_bounds(pp, ap, data, out, ws, s_h=0.5)
        n_edge_dofs = mesh.n_facets * 2
        row = r.csv_row(mesh.n_elements, n_edge_dofs, exact_s=4 / np.pi ** 2)
        cells = row.split(",")
        assert cells[0] == "16" and cells[1] == "56"
        assert len(cells) == len(bd.CSV_HEADER.split(",")) == 9
        cells = r.csv_row(mesh.n_elements, n_edge_dofs).split(",")
        assert len(cells) == 9 and cells[-1] == ""


class TestExactEquilibrationBounds:
    def test_agreement_with_projected_bounds(self):
        # polynomial data: both routes are algebraically identical at the
        # optimal kappa
        data = ProblemData(f=ONE)
        out = OutputFunctional(f_O=ONE)
        mesh = lshape_initial()
        for _ in range(2):
            _, _, pp, ap, ws = build_pair(mesh, data, out, p=2)
            r1 = exact_equilibration_bounds(pp, ap, data, out, ws)
            r2 = compute_bounds(pp, ap, data, out, ws)
            scale = abs(r2.s_plus) + abs(r2.s_minus)
            assert abs(r1.s_minus - r2.s_minus) < 1e-12 * scale
            assert abs(r1.s_plus - r2.s_plus) < 1e-12 * scale
            from hdgbounds.mesh import refine_bisection
            mesh = refine_bisection(mesh, range(mesh.n_elements))

    def test_refuses_non_polynomial_data(self):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=EX1_F)
        out = OutputFunctional(f_O=ONE)
        _, _, pp, ap, ws = build_pair(mesh, data, out, p=1)
        with pytest.raises(ValueError, match="oscillation"):
            exact_equilibration_bounds(pp, ap, data, out, ws)

    def test_exact_reconstructions_zero_half_gap(self):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=zero, g_D=lambda x, y: x)
        out = OutputFunctional(g_D_O=lambda x, y: y)
        _, _, pp, ap, ws = build_pair(mesh, data, out, p=1)
        r = exact_equilibration_bounds(pp, ap, data, out, ws)
        assert r.half_gap < 1e-12

    def test_self_adjoint_lower_bound_formula(self):
        # independent quadrature evaluation of the exact-equilibration lower bound for
        # the self-adjoint case
        mesh = lshape_initial()
        data = ProblemData(f=ONE)
        out = OutputFunctional(f_O=ONE)
        _, _, pp, ap, ws = build_pair(mesh, data, out, p=1)
        r = exact_equilibration_bounds(pp, ap, data, out, ws)
        flux, pot = pp
        qv = flux.eval_values(ws)
        gu = pot.eval_grads(ws)
        uv = pot.eval_values(ws)
        lO = np.sum(ws.integrate_elementwise(uv))       # f_O = 1, g^O_D = 0
        a = qv + gu
        cross = 0.5 * np.sum(ws.integrate_elementwise(
            np.sum(a * (qv - gu), axis=2)))
        norm2 = np.sum(ws.integrate_elementwise(np.sum(a * a, axis=2)))
        expect = lO + cross - 0.5 * norm2
        assert abs(r.s_minus - expect) < 1e-12 * (1 + abs(expect))


class TestGlobalProperties:
    def test_homogeneity(self):
        mesh = unit_square_crisscross(1)
        data = ProblemData(f=EX1_F)
        out1 = OutputFunctional(f_O=ONE)
        c = 7.0
        out7 = OutputFunctional(f_O=lambda x, y: c * ONE(x, y))
        _, _, pp1, ap1, ws1 = build_pair(mesh, data, out1, p=2)
        _, _, pp7, ap7, ws7 = build_pair(mesh, data, out7, p=2)
        r1 = compute_bounds(pp1, ap1, data, out1, ws1)
        r7 = compute_bounds(pp7, ap7, data, out7, ws7)
        for x1, x7 in ((r1.s_minus, r7.s_minus), (r1.s_plus, r7.s_plus),
                       (r1.s_tilde, r7.s_tilde)):
            assert abs(x7 - c * x1) < 1e-12 * (1 + abs(c * x1))

    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
    def test_containment_tau_robust(self, tau):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=EX1_F)
        out = OutputFunctional(f_O=ONE)
        _, _, pp, ap, ws = build_pair(mesh, data, out, p=1, tau=tau)
        r = compute_bounds(pp, ap, data, out, ws)
        assert r.contains(4 / np.pi ** 2)
