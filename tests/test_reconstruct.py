"""Flux equilibration, potential post-processing, band extension, and the
local optimization."""

import math

import numpy as np
import pytest

from hdgbounds import (DirichletBand, NonFiniteDataError, ProblemData,
                       Workspace, flux_residuals, lshape_initial,
                       make_continuous, postprocess_potential,
                       potential_residuals, reconstruct_flux, solve_primal,
                       unit_square_crisscross, zero)
from hdgbounds.bounds import _energy_sq, _residual_field
from hdgbounds.reconstruct import (ContinuousPotential, EquilibratedFlux,
                                   enforce_dirichlet_band, local_optimize)

EX1_F = lambda x, y: 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
EX1_U = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)


def base_pair(mesh, data, p, quad_degree=None):
    sol = solve_primal(mesh, data, p=p, quad_degree=quad_degree)
    ws = sol.ws
    flux = reconstruct_flux(sol, data)
    pot = make_continuous(postprocess_potential(sol, flux), data.g_D, ws)
    return sol, flux, pot, ws


class TestFluxReconstruction:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_manufactured_constant_flux(self, p):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=zero, g_D=lambda x, y: x)
        _, flux, _, ws = base_pair(mesh, data, p)
        vals = flux.eval_values(ws)
        assert np.abs(vals - np.array([-1.0, 0.0])).max() < 1e-10

    def test_zero_data_zero_flux(self):
        mesh = unit_square_crisscross(0)
        _, flux, _, _ = base_pair(mesh, ProblemData(f=zero), 1)
        assert np.abs(flux.coeffs).max() < 1e-14

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("p", [1, 2])
    def test_equilibration_certificates(self, p, level):
        mesh = unit_square_crisscross(level)
        data = ProblemData(f=EX1_F)
        _, flux, pot, ws = base_pair(mesh, data, p)
        res = flux_residuals(flux, data, ws)
        assert res["divergence"] <= 1e-10
        assert res["normal_jump"] <= 1e-10
        assert res["neumann"] <= 1e-10


class TestPotential:
    @pytest.mark.parametrize("p", [1, 2])
    def test_manufactured_linear(self, p):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=zero, g_D=lambda x, y: x)
        _, _, pot, ws = base_pair(mesh, data, p)
        assert np.abs(pot.eval_values(ws) - ws.qphys[:, :, 0]).max() < 1e-10

    def test_zero_solution(self):
        mesh = unit_square_crisscross(0)
        _, _, pot, _ = base_pair(mesh, ProblemData(f=zero), 1)
        assert np.abs(pot.values).max() < 1e-14

    def test_superconvergence_order(self):
        data = ProblemData(f=EX1_F)
        errs, nels = [], []
        for lvl in range(3):
            mesh = unit_square_crisscross(lvl)
            sol, flux, _, ws = base_pair(mesh, data, 1)
            ustar = postprocess_potential(sol, flux)
            vals = (ustar @ ws.phi_m) / ws.sqrt_det[:, None]
            diff = vals - EX1_U(ws.qphys[:, :, 0], ws.qphys[:, :, 1])
            errs.append(math.sqrt(ws.integrate_elementwise(diff ** 2).sum()))
            nels.append(mesh.n_elements)
        order = -2 * math.log(errs[-1] / errs[-2]) / math.log(nels[-1] / nels[-2])
        assert abs(order - 3.0) < 0.3  # p + 2 for p = 1

    def test_averaging_is_arithmetic_mean(self):
        # two-element patch: element potentials valued 1 and 3 at the shared
        # edge midpoint average to 2 there
        mesh = lshape_initial()
        ws = Workspace(mesh, 1)
        n_glob, node_map, coords = ws.global_nodes()
        ustar = np.zeros((mesh.n_elements, ws.nm))
        # constant-mode coefficient c with value c*sqrt(2/det): set element 0
        # to 1 and element 1 to 3
        ustar[0, 0] = 1.0 / np.sqrt(2.0 / ws.det[0])
        ustar[1, 0] = 3.0 / np.sqrt(2.0 / ws.det[1])
        pot = make_continuous(ustar, zero, ws)
        shared = np.intersect1d(node_map[0], node_map[1])
        interior = np.setdiff1d(shared, ws.dirichlet_nodes())
        assert len(interior) > 0
        assert np.abs(pot.values[interior] - 2.0).max() < 1e-13

    def test_already_continuous_unchanged(self):
        # feed make_continuous an elementwise representation of a globally
        # continuous polynomial: averaging equal values changes nothing
        mesh = unit_square_crisscross(0)
        ws = Workspace(mesh, 1)
        gd = lambda x, y: x * y
        fvals = gd(ws.qphys[:, :, 0], ws.qphys[:, :, 1])
        ustar = ws.moments_m(fvals)  # exact: xy lies in P^2 elementwise
        pot = make_continuous(ustar, gd, ws)
        _, _, coords = ws.global_nodes()
        assert np.abs(pot.values - coords[:, 0] * coords[:, 1]).max() < 1e-12

    def test_dirichlet_zero_nodes(self):
        mesh = unit_square_crisscross(0)
        _, _, pot, ws = base_pair(mesh, ProblemData(f=EX1_F), 1)
        dn = ws.dirichlet_nodes()
        assert np.abs(pot.values[dn]).max() == 0.0

    def test_continuity_and_trace_residuals(self):
        mesh = unit_square_crisscross(1)
        data = ProblemData(f=EX1_F)
        _, _, pot, ws = base_pair(mesh, data, 2)
        res = potential_residuals(pot, data.g_D, ws)
        assert res["dirichlet_trace"] <= 1e-10
        assert res["continuity"] <= 1e-10

    def test_audit_detects_corrupted_potential(self):
        # the certificate audit is only trustworthy if it actually fires
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=EX1_F)
        _, _, pot, ws = base_pair(mesh, data, 1)
        broken = pot.values.copy()
        broken[ws.dirichlet_nodes()[3]] += 0.01
        from hdgbounds.reconstruct import ContinuousPotential
        bad = ContinuousPotential(mesh=mesh, degree=pot.degree, values=broken,
                                  node_map=pot.node_map)
        res = potential_residuals(bad, data.g_D, ws)
        assert res["dirichlet_trace"] > 1e-4

    def test_debug_dump(self, tmp_path):
        from hdgbounds.reconstruct import dump_fields
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=EX1_F)
        _, flux, pot, ws = base_pair(mesh, data, 1)
        path = tmp_path / "fields.csv"
        dump_fields(flux, pot, ws, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "element,x,y,flux_x,flux_y,potential"
        assert len(lines) - 1 == mesh.n_elements * ws.nq
        cols = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(cols[:, 0],
                              np.repeat(np.arange(mesh.n_elements), ws.nq))
        for got, want in ((cols[:, 1:3], ws.qphys.reshape(-1, 2)),
                          (cols[:, 3:5], flux.eval_values(ws).reshape(-1, 2)),
                          (cols[:, 5], pot.eval_values(ws).ravel())):
            assert np.abs(got - want).max() <= 1e-11 * (1.0 + np.abs(want).max())

    def test_audit_detects_corrupted_flux(self):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=EX1_F)
        _, flux, _, ws = base_pair(mesh, data, 1)
        bad = EquilibratedFlux(mesh=mesh, p=1,
                               coeffs=flux.coeffs + 1e-3)
        res = flux_residuals(bad, data, ws)
        assert max(res["divergence"], res["normal_jump"]) > 1e-6


class TestBandExtension:
    def band(self):
        return DirichletBand(axis=0, value=1.0,
                             profile=lambda s: 0.5 * np.pi * np.sin(np.pi * s),
                             profile_deriv=lambda s: 0.5 * np.pi ** 2
                             * np.cos(np.pi * s))

    def gdo(self):
        return lambda x, y: np.where(np.abs(x - 1.0) < 1e-12,
                                     0.5 * np.pi * np.sin(np.pi * y), 0.0)

    def test_polynomial_extension_has_zero_correction(self):
        # quadratic profile: the blended extension has degree 3 = p+1 for
        # p = 2, so the nodal interpolant reproduces it exactly
        mesh = unit_square_crisscross(0)
        gd = lambda x, y: np.where(np.abs(x - 1.0) < 1e-12, y * (1 - y), 0.0)
        band = DirichletBand(axis=0, value=1.0,
                             profile=lambda s: s * (1 - s),
                             profile_deriv=lambda s: 1 - 2 * s)
        data = ProblemData(f=zero, g_D=gd, band=band)
        sol, flux, pot, ws = base_pair(mesh, data, 2)
        pot = enforce_dirichlet_band(pot, gd, band, ws)
        c = pot.correction
        pts = ws.qphys[c.elems]
        corr = ws.eval_data(c.ghat, pts) - np.einsum("ek,qk->eq", c.nodal, ws.lag_vals)
        assert np.abs(corr).max() < 1e-12

    def test_trace_exact_at_random_points(self, rng):
        mesh = unit_square_crisscross(1)
        gdo = self.gdo()
        data = ProblemData(f=zero, g_D=gdo, band=self.band())
        sol, flux, pot, ws = base_pair(mesh, data, 2)
        pot = enforce_dirichlet_band(pot, gdo, self.band(), ws)
        ys = rng.uniform(0, 1, size=20)
        # evaluate the potential on the boundary x=1 through facet traces
        res = potential_residuals(pot, gdo, ws)
        assert res["dirichlet_trace"] < 1e-12
        assert res["continuity"] < 1e-12

    def test_correction_magnitude_decreases_with_p(self):
        mesh0 = unit_square_crisscross(0)
        gdo = self.gdo()
        maxima = []
        for p in (1, 2, 3):
            data = ProblemData(f=zero, g_D=gdo, band=self.band())
            sol, flux, pot, ws = base_pair(mesh0, data, p)
            pot = enforce_dirichlet_band(pot, gdo, self.band(), ws)
            c = pot.correction
            pts = ws.qphys[c.elems]
            corr = ws.eval_data(c.ghat, pts) - np.einsum("ek,qk->eq", c.nodal, ws.lag_vals)
            maxima.append(np.abs(corr).max())
        assert maxima[0] > maxima[1] > maxima[2]

    def test_nonfinite_profile_derivative_reported(self):
        # the band gradient is data too: a NaN derivative is named, not
        # passed on to the energy norms
        mesh = unit_square_crisscross(0)
        gdo = self.gdo()
        band = DirichletBand(axis=0, value=1.0, profile=self.band().profile,
                             profile_deriv=lambda s: np.nan * s)
        data = ProblemData(f=zero, g_D=gdo, band=band)
        sol, flux, pot, ws = base_pair(mesh, data, 1)
        pot = enforce_dirichlet_band(pot, gdo, band, ws)
        with pytest.raises(NonFiniteDataError, match="non-finite"):
            pot.eval_grads(ws)

    def test_band_line_is_maximal_mesh_line(self):
        for lvl in (0, 1):
            mesh = unit_square_crisscross(lvl)
            ws = Workspace(mesh, 1)
            pot = ContinuousPotential(mesh=mesh, degree=2,
                                      values=np.zeros(ws.global_nodes()[0]),
                                      node_map=ws.global_nodes()[1])
            out = enforce_dirichlet_band(pot, self.gdo(), self.band(), ws)
            expected = 1.0 - 1.0 / 2 ** (lvl + 1)
            assert abs(out.correction.x_band - expected) < 1e-14

    def test_non_axis_aligned_portion_rejected(self):
        mesh = unit_square_crisscross(0)
        ws = Workspace(mesh, 1)
        pot = ContinuousPotential(mesh=mesh, degree=2,
                                  values=np.zeros(ws.global_nodes()[0]),
                                  node_map=ws.global_nodes()[1])
        bad = DirichletBand(axis=2, value=1.0, profile=lambda s: s,
                            profile_deriv=lambda s: 1.0)
        with pytest.raises(ValueError, match="axis"):
            enforce_dirichlet_band(pot, zero, bad, ws)


class TestLocalOptimize:
    def test_exact_pair_unchanged(self):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=zero, g_D=lambda x, y: x)
        sol, flux, pot, ws = base_pair(mesh, data, 2)
        f2, p2 = local_optimize(flux, pot, data, ws)
        a = _residual_field((f2, p2), ws)
        assert np.sqrt(_energy_sq(ws, a).sum()) < 1e-10

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_objective_never_increases_and_certificates_hold(self, p):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=EX1_F)
        sol, flux, pot, ws = base_pair(mesh, data, p)
        before = _energy_sq(ws, _residual_field((flux, pot), ws)).sum()
        f2, p2 = local_optimize(flux, pot, data, ws)
        after = _energy_sq(ws, _residual_field((f2, p2), ws)).sum()
        assert after <= before + 1e-12
        res = flux_residuals(f2, data, ws)
        pres = potential_residuals(p2, data.g_D, ws)
        assert max(res.values()) <= 1e-10
        assert max(pres.values()) <= 1e-10

    def test_recovers_from_feasible_perturbation(self, rng):
        # perturb the flux by curl(bubble * random): divergence-free with
        # zero normal trace, so still feasible; optimization must return the
        # objective to (at most) the unperturbed optimum
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=EX1_F)
        p = 2
        sol, flux, pot, ws = base_pair(mesh, data, p)
        fo, po = local_optimize(flux, pot, data, ws)
        obj_opt = _energy_sq(ws, _residual_field((fo, po), ws)).sum()

        # curl of the cubic bubble b = l1 l2 l3 on each element (reference
        # barycentrics), scaled randomly per element
        lam = np.stack([1 - ws.qref[:, 0] - ws.qref[:, 1],
                        ws.qref[:, 0], ws.qref[:, 1]])
        # gradient of bubble in reference coordinates
        db_r = lam[1] * lam[2] * (-1) + lam[0] * lam[2] - 0 + 0  # d/dr
        grad_b = np.stack([
            -lam[1] * lam[2] + lam[0] * lam[2],
            -lam[1] * lam[2] + lam[0] * lam[1]], axis=1)
        scale = rng.standard_normal(mesh.n_elements) * 0.3
        # physical curl: rotate the physical gradient of the bubble
        pert = np.zeros((mesh.n_elements, ws.nq, 2))
        gphys = np.einsum("ecd,qd->eqc", ws.jac_inv_t, grad_b)
        pert[:, :, 0] = gphys[:, :, 1] * scale[:, None]
        pert[:, :, 1] = -gphys[:, :, 0] * scale[:, None]
        # project the perturbation onto the modal flux representation
        add = np.einsum("eqc,jq->ecj", pert * ws.qw[None, :, None],
                        ws.phi_m) * ws.sqrt_det[:, None, None]
        flux_pert = EquilibratedFlux(mesh=mesh, p=p, coeffs=flux.coeffs + add)
        res = flux_residuals(flux_pert, data, ws)
        assert max(res.values()) < 1e-9  # still equilibrated
        obj_pert = _energy_sq(ws, _residual_field((flux_pert, pot), ws)).sum()
        f3, p3 = local_optimize(flux_pert, pot, data, ws)
        obj_back = _energy_sq(ws, _residual_field((f3, p3), ws)).sum()
        assert obj_back <= obj_pert
        assert obj_back <= obj_opt + 1e-12

    def test_band_corrections_preserved(self):
        mesh = unit_square_crisscross(0)
        gdo = lambda x, y: np.where(np.abs(x - 1.0) < 1e-12,
                                    0.5 * np.pi * np.sin(np.pi * y), 0.0)
        band = DirichletBand(axis=0, value=1.0,
                             profile=lambda s: 0.5 * np.pi * np.sin(np.pi * s),
                             profile_deriv=lambda s: 0.5 * np.pi ** 2
                             * np.cos(np.pi * s))
        data = ProblemData(f=zero, g_D=gdo, band=band)
        sol, flux, pot, ws = base_pair(mesh, data, 2)
        pot = enforce_dirichlet_band(pot, gdo, band, ws)
        f2, p2 = local_optimize(flux, pot, data, ws)
        res = potential_residuals(p2, gdo, ws)
        assert res["dirichlet_trace"] < 1e-10
        assert res["continuity"] < 1e-10
