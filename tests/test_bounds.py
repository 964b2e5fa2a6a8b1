"""Certification core: constants, kappa, eta terms, guaranteed bounds."""

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from conftest import build_pair, mixed_square, perturbed_crisscross
from hdgbounds import (OutputFunctional, ProblemData, Workspace, bounds as bd,
                       builtin, compute_bounds, compute_eta, compute_kappa,
                       evaluate, lshape_initial, poincare_constants,
                       exact_equilibration_bounds, run_pipeline,
                       unit_square_crisscross, zero)
from hdgbounds.mesh import Mesh, refine_bisection
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


def records(pp, ap, data, out, ws):
    """The evaluated primal and adjoint records of two pairs."""
    return evaluate(*pp, data, ws), evaluate(*ap, out.adjoint_data(), ws)


class TestKappa:
    def test_equal_residuals_give_one(self):
        mesh = unit_square_crisscross(0)
        ws = Workspace(mesh, 1)
        pair = synthetic_pair(mesh, ws, (1.0, 0.0))
        rec = evaluate(*pair, ProblemData(f=zero), ws)
        kappa, degenerate = compute_kappa(rec, rec, ws)
        assert abs(kappa - 1.0) < 1e-13 and not degenerate

    def test_ratio_two(self):
        mesh = unit_square_crisscross(0)
        ws = Workspace(mesh, 1)
        p1 = synthetic_pair(mesh, ws, (1.0, 0.0))
        p2 = synthetic_pair(mesh, ws, (0.0, 2.0))
        kappa, degenerate = compute_kappa(
            *records(p1, p2, ProblemData(f=zero), OutputFunctional(), ws), ws)
        assert abs(kappa - 2.0) < 1e-13 and not degenerate

    def test_degenerate_flag(self):
        mesh = unit_square_crisscross(0)
        ws = Workspace(mesh, 1)
        p0 = synthetic_pair(mesh, ws, (0.0, 0.0))
        p2 = synthetic_pair(mesh, ws, (0.0, 2.0))
        kappa, degenerate = compute_kappa(
            *records(p0, p2, ProblemData(f=zero), OutputFunctional(), ws), ws)
        assert kappa == 1.0 and degenerate
        # an exact adjoint pair stands for the limit kappa -> 0
        kappa, degenerate = compute_kappa(
            *records(p2, p0, ProblemData(f=zero), OutputFunctional(), ws), ws)
        assert kappa == 0.0 and degenerate

    def test_exact_adjoint_with_oscillating_data_raises(self):
        # xi~ = y and zeta~ = (0, -1) leave no adjoint residual, and they
        # meet the P^0 certificates of g_D_O = y and f_O = x - 1/3, whose
        # mean on the triangle is zero, while f_O oscillates: no kappa is
        # optimal, and the bounds refuse instead of dividing by zero
        mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    np.array([[0, 1, 2]]), {(0, 1): "D", (1, 2): "D", (0, 2): "D"})
        data = ProblemData(f=ONE)
        out = OutputFunctional(f_O=lambda x, y: x - 1.0 / 3.0,
                               g_D_O=lambda x, y: y)
        _, _, pp, _, ws = build_pair(mesh, data, out, p=0)
        ap = synthetic_pair(mesh, ws, (0.0, -1.0), ws.global_nodes()[2][:, 1])
        with pytest.raises(RuntimeError, match="adjoint data oscillate in: f_O"):
            compute_bounds(pp, ap, data, out, ws)


class TestEta:
    def test_polynomial_data_no_oscillation(self):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=ONE)
        out = OutputFunctional(f_O=ONE)
        _, _, pp, ap, ws = build_pair(mesh, data, out, p=1)
        eta = compute_eta(*records(pp, ap, data, out, ws), ws, kappa=1.0)
        assert np.abs(eta.osc_div_minus).max() < 1e-13
        assert np.abs(eta.osc_div_plus).max() < 1e-13
        assert np.abs(eta.osc_neu_minus).max() == 0.0

    def test_exact_reconstructions_zero_eta(self):
        # manufactured linear solution: reconstructions are exact
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=zero, g_D=lambda x, y: x)
        out = OutputFunctional(g_D_O=lambda x, y: 2 * x - y)
        _, _, pp, ap, ws = build_pair(mesh, data, out, p=1)
        eta = compute_eta(*records(pp, ap, data, out, ws), ws, kappa=1.0)
        assert np.abs(eta.minus).max() < 1e-9
        assert np.abs(eta.plus).max() < 1e-9

    def test_zero_order_mode_matches_projected_for_hdg_fluxes(self):
        # div q~ = P f and the Neumann trace is the projection, so both
        # estimator modes coincide for these reconstructions
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=EX1_F)
        out = OutputFunctional(f_O=ONE)
        _, _, pp, ap, ws = build_pair(mesh, data, out, p=1)
        prec, arec = records(pp, ap, data, out, ws)
        kappa, _ = compute_kappa(prec, arec, ws)
        e1 = compute_eta(prec, arec, ws, kappa, mode="projected")
        e2 = compute_eta(prec, arec, ws, kappa, mode="zero-order")
        assert np.abs(e1.minus - e2.minus).max() < 1e-10
        assert np.abs(e1.plus - e2.plus).max() < 1e-10

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            compute_eta(None, None, None, 1.0, mode="bogus")


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


# u = (1 + x - 2x^2) sin(pi y) on mixed_square: zero on the Dirichlet
# edges, g_N = sin(pi y) on x = 0; output f_O = 1, g_D_O = x, g_N_O = 1
MIXED_S = 29.0 / (3.0 * np.pi) + 2.0 * np.pi / 3.0


def _mixed_case(cp, co, L):
    """mixed_square(1) scaled by L, primal data times cp, output data times
    co, and the data rescaled so that s = cp co MIXED_S (tau goes as 1/L)."""
    base = mixed_square(1)
    mesh = Mesh(L * base.vertices, base.elements, base.boundary_tag_dict())
    bump = lambda x: 1.0 + x - 2.0 * x ** 2
    data = ProblemData(
        f=lambda x, y: cp / L ** 2 * (4.0 + np.pi ** 2 * bump(x / L))
        * np.sin(np.pi * y / L),
        g_N=lambda x, y: cp / L * np.sin(np.pi * y / L))
    out = OutputFunctional(f_O=lambda x, y: co / L ** 2 * ONE(x, y),
                           g_D_O=lambda x, y: co * x / L,
                           g_N_O=lambda x, y: co / L * ONE(x, y))
    return mesh, data, out


class TestGlobalProperties:
    @pytest.mark.parametrize("scaled,c", [
        *[("primal", c) for c in (1e-12, 1e-6, 1e6, 1e12)],
        *[("output", c) for c in (1e-12, 1e-6, 1e6, 1e12)],
        ("output", 0.0),   # zero output functional: exactly [0, 0]
        ("length", 1e-3), ("length", 1e3)])
    def test_homogeneity(self, scaled, c):
        # s is linear in the primal data and in the output data, and a
        # domain scaled by L with the data and tau rescaled to match is the
        # same problem: the certificates and the bounds must follow exactly
        cp, co, L = (c if scaled == name else 1.0
                     for name in ("primal", "output", "length"))
        r1 = run_pipeline(*_mixed_case(1.0, 1.0, 1.0), p=2)
        rs = run_pipeline(*_mixed_case(cp, co, L), p=2, tau=1.0 / L)
        k = cp * co
        assert rs.contains(k * MIXED_S)
        for xc, x1 in ((rs.s_minus, r1.s_minus), (rs.s_plus, r1.s_plus),
                       (rs.s_tilde, r1.s_tilde)):
            assert abs(xc - k * x1) <= 1e-12 * abs(k * x1)
        if k == 0:
            assert (rs.s_minus, rs.s_plus) == (0.0, 0.0) and rs.kappa_degenerate

    def test_constant_potential_passes_gate(self):
        # u = 1 and q = 0: q~ is round-off of the potential, which the flux
        # certificates must read against nu |u~| / h_K, not |q~| alone
        data = ProblemData(f=zero, g_D=lambda x, y: 1.0 + 0.0 * x)
        res = run_pipeline(unit_square_crisscross(1), data,
                           OutputFunctional(f_O=ONE), p=2)
        assert res.contains(1.0, 1e-12)

    def test_band_output_with_neumann_facets(self):
        # the adjoint potential carries a band correction at x = 1 and the
        # Neumann facets at x = 0 touch no band element; for the mixed
        # case's u, s = <(pi/2) sin(pi y), q.n>_{x=1} = 3 pi / 4
        mesh, data, _ = _mixed_case(1.0, 1.0, 1.0)
        res = run_pipeline(mesh, data, builtin("example1_s2").out, p=2)
        assert res.contains(3 * np.pi / 4)

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(amp=st.floats(0.0, 0.08), seed=st.integers(0, 2 ** 16),
           p=st.integers(1, 3), tau=st.floats(0.1, 10.0),
           optimize=st.booleans(), k=st.integers(-12, 12))
    def test_containment_property(self, amp, seed, p, tau, optimize, k):
        # example1_s1 with its source times c: s = c 4/pi^2 on any mesh of
        # the unit square; run_pipeline raises if a certificate fails
        prob = builtin("example1_s1")
        c = 10.0 ** k
        data = ProblemData(f=lambda x, y: c * prob.data.f(x, y))
        res = run_pipeline(perturbed_crisscross(amp, seed), data, prob.out,
                           p, tau, optimize=optimize)
        assert res.contains(c * prob.exact_s)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(amp=st.floats(0.0, 0.04), seed=st.integers(0, 2 ** 16),
           p=st.integers(1, 3), tau=st.floats(0.1, 10.0),
           optimize=st.booleans())
    def test_containment_property_neumann(self, amp, seed, p, tau, optimize):
        # the mixed Dirichlet/Neumann case with the interior vertices of
        # mixed_square(1) (pitch 1/4) moved: the Neumann trace, the Neumann
        # oscillation and <g_N_O, u~> all enter the bounds
        mesh, data, out = _mixed_case(1.0, 1.0, 1.0)
        res = run_pipeline(perturbed_crisscross(amp, seed, base=mesh), data,
                           out, p, tau, optimize=optimize)
        assert res.contains(MIXED_S)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(rounds=st.integers(1, 5), seed=st.integers(0, 2 ** 16),
           p=st.integers(1, 3), tau=st.floats(0.1, 10.0),
           optimize=st.booleans())
    def test_containment_property_lshape(self, rounds, seed, p, tau, optimize):
        # example2_s1 (re-entrant corner) on L-shapes bisected at a random
        # number of random elements per round
        prob = builtin("example2_s1")
        rng = np.random.default_rng(seed)
        mesh = lshape_initial()
        for _ in range(rounds):
            ne = mesh.n_elements
            mesh = refine_bisection(mesh, rng.choice(ne, rng.integers(1, ne + 1),
                                                     replace=False))
        res = run_pipeline(mesh, prob.data, prob.out, p, tau,
                           optimize=optimize)
        assert res.contains(prob.exact_s)

    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
    def test_containment_tau_robust(self, tau):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=EX1_F)
        out = OutputFunctional(f_O=ONE)
        _, _, pp, ap, ws = build_pair(mesh, data, out, p=1, tau=tau)
        r = compute_bounds(pp, ap, data, out, ws)
        assert r.contains(4 / np.pi ** 2)
