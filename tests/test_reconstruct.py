"""Flux equilibration, potential post-processing, band extension, and the
local optimization."""

import math
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (bisected_lshape, build_pair, mixed_square,
                      perturbed_crisscross)
from hdgbounds import femcore as fc
from hdgbounds import (DirichletBand, NonFiniteDataError, OutputFunctional,
                       ProblemData, Workspace, builtin, flux_residuals,
                       lshape_initial, make_continuous, postprocess_potential,
                       potential_residuals, reconstruct_flux, solve,
                       unit_square_crisscross, zero)
from hdgbounds.bounds import _residual_sq, compute_bounds
from hdgbounds.mesh import Mesh, refine_bisection
from hdgbounds.reconstruct import (ContinuousPotential, EquilibratedFlux,
                                   certified_pairs, _metrics, _normal_matrix,
                                   enforce_dirichlet_band, evaluate,
                                   local_optimize)

EX1_F = lambda x, y: 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
EX1_U = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)


def base_pair(mesh, data, p, quad_degree=None):
    ws = Workspace(mesh, p, quad_degree)
    sol = solve(ws, [data])[0]
    flux = reconstruct_flux(ws, sol)
    (pot,) = make_continuous(ws, postprocess_potential(ws, [sol], [flux]), [data.g_D])
    return sol, flux, pot, ws


def _rt_tails(ws, pts_phys):
    """The p+1 non-gradient RT generators at given points: (ne, p+1, npts, 2).

    Tail k is  s * (x - c) * h_k((x - c)/h_K)  with h_k the homogeneous
    degree-p monomials and s a per-element normalization.
    """
    p = ws.p
    centroid = ws.mesh.vertices[ws.mesh.elements].mean(axis=1)
    diam = np.linalg.norm(ws.jac, axis=1).max(axis=1)  # edge-length scale per element
    d = (pts_phys - centroid[:, None, :]) / diam[:, None, None]
    ts = (np.sqrt(2.0 / ws.det) / diam)[:, None]
    out = np.empty((ws.mesh.n_elements, p + 1, pts_phys.shape[1], 2))
    for k in range(p + 1):
        h = d[:, :, 0] ** (p - k) * d[:, :, 1] ** k
        out[:, k] = (pts_phys - centroid[:, None, :]) * (ts * h)[:, :, None]
    return out


def _reconstruct_flux_loop(ws, sol):
    """reconstruct_flux as one (N, N) solve per element, in the physical
    tails of _rt_tails: the reference for the Piola-mapped reconstruction."""
    mesh, p = ws.mesh, ws.p
    ne, np_, F1 = mesh.n_elements, ws.np_, p + 1
    n_int = 2 * fc.n_modes(p - 1) if p >= 1 else 0
    N = (p + 1) * (p + 3)
    assert N == 2 * np_ + (p + 1) and N == 3 * F1 + n_int

    A = np.zeros((ne, N, N))
    rhs = np.zeros((ne, N))

    tails_vol = _rt_tails(ws, ws.qphys)                       # (ne, p+1, nq, 2)

    # facet rows: scalar-part columns then tail columns
    scale = np.sqrt(ws.elen) / ws.sqrt_det[:, None]
    for ell in range(3):
        rows = slice(ell * F1, (ell + 1) * F1)
        f = ws.ef[:, ell]
        n_can = mesh.facet_normals[f]                          # canonical normal
        T = ws.T_p[ell, ws.eo[:, ell]]                         # (ne, F1, np_)
        blk = np.einsum("ec,emv->emcv", n_can, T) * scale[:, ell, None, None, None]
        A[:, rows, :2 * np_] = blk.reshape(ne, F1, 2 * np_)
        pts = ws.ephys[f]                                      # (ne, nqe, 2)
        tails_e = _rt_tails(ws, pts)                           # (ne, p+1, nqe, 2)
        tn = np.einsum("ektc,ec->ekt", tails_e, n_can)
        A[:, rows, 2 * np_:] = np.einsum(
            "ekt,mt,t->emk", tn, ws.psi_p, ws.ew) * np.sqrt(ws.facet_len[f])[:, None, None]
        rhs[:, rows] = sol.qhat_n[f]

    if n_int:
        nint1 = n_int // 2
        idx = np.arange(nint1)
        for c in (0, 1):
            r0 = 3 * F1 + c * nint1
            # scalar columns are orthonormal: identity against the degree p-1 prefix
            A[:, r0 + idx, c * np_ + idx] = 1.0
            A[:, r0:r0 + nint1, 2 * np_:] = np.einsum(
                "ekq,jq,q->ejk", tails_vol[:, :, :, c], ws.phi_p[:nint1], ws.qw
            ) * ws.sqrt_det[:, None, None]
            rhs[:, r0:r0 + nint1] = sol.q[:, c, :nint1]

    try:
        alpha = np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"singular local RT system (degenerate element?): {exc}")

    # convert to componentwise modal degree p+1 coefficients
    coeffs = np.zeros((ne, 2, ws.nm))
    coeffs[:, 0, :np_] = alpha[:, :np_]
    coeffs[:, 1, :np_] = alpha[:, np_:2 * np_]
    tail_alpha = alpha[:, 2 * np_:]
    for c in (0, 1):
        proj = np.einsum("ekq,jq,q->ekj", tails_vol[:, :, :, c], ws.phi_m, ws.qw) \
            * ws.sqrt_det[:, None, None]
        coeffs[:, c] += np.einsum("ek,ekj->ej", tail_alpha, proj)
    return EquilibratedFlux(coeffs)


class TestFluxReconstruction:
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    @pytest.mark.parametrize("mesh_name", ["crisscross1", "perturbed", "lshape",
                                           "mixed"])
    def test_reference_factorization_matches_element_loop(self, mesh_name, p):
        meshes = {"crisscross1": lambda: unit_square_crisscross(1),
                  "perturbed": perturbed_crisscross, "lshape": lshape_initial,
                  "mixed": lambda: mixed_square(1)}
        data = ProblemData(f=EX1_F, g_D=lambda x, y: np.exp(x) * y,
                           g_N=lambda x, y: np.cos(3 * y) + x)
        ws = Workspace(meshes[mesh_name](), p)
        sol = solve(ws, [data])[0]
        got = reconstruct_flux(ws, sol).coeffs
        ref = _reconstruct_flux_loop(ws, sol).coeffs
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

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
        res = flux_residuals(ws, evaluate(ws, flux, pot, data))
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
            (ustar,) = postprocess_potential(ws, [sol], [flux])
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
        node_map = ws.node_map
        ustar = np.zeros((mesh.n_elements, ws.nm))
        # constant-mode coefficient c with value c*sqrt(2/det): set element 0
        # to 1 and element 1 to 3
        ustar[0, 0] = 1.0 / np.sqrt(2.0 / ws.det[0])
        ustar[1, 0] = 3.0 / np.sqrt(2.0 / ws.det[1])
        (pot,) = make_continuous(ws, [ustar], [zero])
        shared = np.intersect1d(node_map[0], node_map[1])
        interior = np.setdiff1d(shared, ws.dirichlet_nodes)
        assert len(interior) > 0
        assert np.abs(pot.values[interior] - 2.0).max() < 1e-13

    def test_already_continuous_unchanged(self):
        # feed make_continuous an elementwise representation of a globally
        # continuous polynomial: averaging equal values changes nothing
        mesh = unit_square_crisscross(0)
        ws = Workspace(mesh, 1)
        gd = lambda x, y: x * y
        fvals = gd(ws.qphys[:, :, 0], ws.qphys[:, :, 1])
        # degree-(p+1) moments, exact: xy lies in P^2 elementwise
        ustar = (fvals * ws.qw) @ ws.phi_m.T * ws.sqrt_det[:, None]
        (pot,) = make_continuous(ws, [ustar], [gd])
        coords = ws.node_coords
        assert np.abs(pot.values - coords[:, 0] * coords[:, 1]).max() < 1e-12

    def test_dirichlet_zero_nodes(self):
        mesh = unit_square_crisscross(0)
        _, _, pot, ws = base_pair(mesh, ProblemData(f=EX1_F), 1)
        dn = ws.dirichlet_nodes
        assert np.abs(pot.values[dn]).max() == 0.0

    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("make_mesh", [
        lshape_initial,
        lambda: perturbed_crisscross(base=unit_square_crisscross(1)),
        lambda: mixed_square(1)], ids=["lshape", "perturbed", "mixed"])
    def test_dirichlet_nodes_are_the_nodes_on_dirichlet_facets(self, make_mesh, p):
        # by geometry: the global nodes within round-off of a Dirichlet
        # facet, so that a corner node of a Neumann facet counts only where
        # a Dirichlet facet meets it
        mesh = make_mesh()
        ws = Workspace(mesh, p)
        coords = ws.node_coords
        a, b = (mesh.vertices[mesh.facets[mesh.dirichlet_facets, i]] for i in (0, 1))
        d = coords[:, None] - a
        t = np.clip(np.einsum("nfc,fc->nf", d, b - a)
                    / np.einsum("fc,fc->f", b - a, b - a), 0.0, 1.0)
        dist = np.linalg.norm(d - t[:, :, None] * (b - a), axis=2)
        want = np.flatnonzero(dist.min(axis=1) <= 1e-12)
        assert np.array_equal(ws.dirichlet_nodes, want)
        if len(mesh.neumann_facets):
            on_neumann = np.unique(mesh.facets[mesh.neumann_facets])
            assert not np.isin(on_neumann, want).all()

    def test_continuity_and_trace_residuals(self):
        mesh = unit_square_crisscross(1)
        data = ProblemData(f=EX1_F)
        _, flux, pot, ws = base_pair(mesh, data, 2)
        res = potential_residuals(ws, evaluate(ws, flux, pot, data))
        assert res["dirichlet_trace"] <= 1e-10
        assert res["continuity"] <= 1e-10

    def test_audit_detects_corrupted_potential(self):
        # the certificate audit is only trustworthy if it actually fires
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=EX1_F)
        _, flux, pot, ws = base_pair(mesh, data, 1)
        broken = pot.values.copy()
        broken[ws.dirichlet_nodes[3]] += 0.01
        from hdgbounds.reconstruct import ContinuousPotential
        bad = ContinuousPotential(values=broken)
        res = potential_residuals(ws, evaluate(ws, flux, bad, data))
        assert res["dirichlet_trace"] > 1e-4

    def test_audit_detects_corrupted_flux(self):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=EX1_F)
        _, flux, pot, ws = base_pair(mesh, data, 1)
        bad = EquilibratedFlux(flux.coeffs + 1e-3)
        res = flux_residuals(ws, evaluate(ws, bad, pot, data))
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
        pot = enforce_dirichlet_band(ws, pot, band)
        c = pot.correction
        pts = ws.qphys[c.elems]
        interp = ws.eval_data(c.ghat, ws.node_coords[ws.node_map[c.elems]])
        corr = ws.eval_data(c.ghat, pts) - np.einsum("ek,qk->eq", interp, ws.lag_vals)
        assert np.abs(corr).max() < 1e-12

    def test_trace_exact_at_random_points(self, rng):
        mesh = unit_square_crisscross(1)
        gdo = self.gdo()
        data = ProblemData(f=zero, g_D=gdo, band=self.band())
        sol, flux, pot, ws = base_pair(mesh, data, 2)
        pot = enforce_dirichlet_band(ws, pot, self.band())
        ys = rng.uniform(0, 1, size=20)
        # evaluate the potential on the boundary x=1 through facet traces
        res = potential_residuals(ws, evaluate(ws, flux, pot, data))
        assert res["dirichlet_trace"] < 1e-12
        assert res["continuity"] < 1e-12

    def test_correction_magnitude_decreases_with_p(self):
        mesh0 = unit_square_crisscross(0)
        gdo = self.gdo()
        maxima = []
        for p in (1, 2, 3):
            data = ProblemData(f=zero, g_D=gdo, band=self.band())
            sol, flux, pot, ws = base_pair(mesh0, data, p)
            pot = enforce_dirichlet_band(ws, pot, self.band())
            c = pot.correction
            pts = ws.qphys[c.elems]
            interp = ws.eval_data(c.ghat, ws.node_coords[ws.node_map[c.elems]])
            corr = ws.eval_data(c.ghat, pts) - np.einsum("ek,qk->eq", interp, ws.lag_vals)
            maxima.append(np.abs(corr).max())
        assert maxima[0] > maxima[1] > maxima[2]

    def test_nonfinite_profile_derivative_reported(self):
        # the band gradient is data too: a NaN derivative is named where the
        # extension is built, not passed on to the energy norms
        mesh = unit_square_crisscross(0)
        gdo = self.gdo()
        band = DirichletBand(axis=0, value=1.0, profile=self.band().profile,
                             profile_deriv=lambda s: np.nan * s)
        data = ProblemData(f=zero, g_D=gdo, band=band)
        sol, flux, pot, ws = base_pair(mesh, data, 1)
        with pytest.raises(NonFiniteDataError, match="non-finite"):
            enforce_dirichlet_band(ws, pot, band)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_eval_grads_matches_einsum_formula(self, p):
        # the batched products against the einsum form they replace, with
        # the band correction of example1_s2's adjoint pair
        prob = builtin("example1_s2")
        _, _, _, (_, pot), ws = build_pair(perturbed_crisscross(), prob.data,
                                           prob.out, p)
        c = pot.correction
        assert c is not None and len(c.elems)

        ref = np.einsum("eqd,ecd->eqc", np.einsum(
            "ek,kqd->eqd", pot.nodal(ws), ws.lag_grads), ws.jac_inv_t)
        ref[c.elems] += c.grad
        got = pot.eval_grads(ws)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("p", range(5))
    def test_band_gradient_is_projection_plus_orthogonal_remainder(self, p):
        # example1_s2's adjoint pair: grad_coeffs holds the projection of
        # the whole gradient onto [P^{p+1}]^2 on the band elements, and the
        # record's remainder has no moment against that space
        prob = builtin("example1_s2")
        _, _, _, (flux, pot), ws = build_pair(perturbed_crisscross(), prob.data,
                                              prob.out, p)
        c = pot.correction
        e = c.elems
        assert len(e)
        rec = evaluate(ws, flux, pot, prob.out.adjoint_data())
        assert np.array_equal(rec.band, e)

        def ref_moments(v):  # against the reference P^{p+1} basis
            return np.einsum("eqc,mq,q->ecm", v, ws.phi_m, ws.qw)

        assert (np.abs(ref_moments(rec.band_rem)).max()
                <= 1e-13 * np.abs(c.grad).max())
        proj = ref_moments(pot.eval_grads(ws)[e]) * ws.sqrt_det[e, None, None]
        got = pot.grad_coeffs(ws)[e]
        assert np.abs(got - proj).max() <= 1e-13 * np.abs(proj).max()

    def test_band_line_is_maximal_mesh_line(self):
        for lvl in (0, 1):
            mesh = unit_square_crisscross(lvl)
            ws = Workspace(mesh, 1)
            pot = ContinuousPotential(values=np.zeros(len(ws.node_coords)))
            out = enforce_dirichlet_band(ws, pot, self.band())
            expected = 1.0 - 1.0 / 2 ** (lvl + 1)
            assert abs(out.correction.x_band - expected) < 1e-14

    def test_second_band_enforcement_rejected(self):
        # the nodal values hold only the polynomial part after the first
        # call, so a second one would subtract the extension twice
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=zero, g_D=self.gdo(), band=self.band())
        _, _, pot, ws = base_pair(mesh, data, 1)
        pot = enforce_dirichlet_band(ws, pot, self.band())
        with pytest.raises(ValueError, match="already carries"):
            enforce_dirichlet_band(ws, pot, self.band())

    def test_non_axis_aligned_portion_rejected(self):
        mesh = unit_square_crisscross(0)
        ws = Workspace(mesh, 1)
        pot = ContinuousPotential(values=np.zeros(len(ws.node_coords)))
        # an oblique portion, then the line x = 0.5 through the interior
        for axis, value, match in ((2, 1.0, "axis"),
                                   (0, 0.5, "must lie on the boundary")):
            bad = DirichletBand(axis=axis, value=value, profile=lambda s: s,
                                profile_deriv=lambda s: 1.0)
            with pytest.raises(ValueError, match=match):
                enforce_dirichlet_band(ws, pot, bad)

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("axis, value", [(0, 0.0), (0, 1.0), (1, 0.0),
                                             (1, 1.0)])
    def test_band_on_every_side(self, axis, value, p, optimize):
        # example1_s2's boundary-flux weight moved to each side of the
        # square; by symmetry s = pi^2/4 on every one, and the sides at
        # coordinate 0 have their band on the larger-coordinate side
        band = replace(self.band(), axis=axis, value=value)

        def g_D_O(x, y):
            a, t = (x, y) if axis == 0 else (y, x)
            return np.where(np.abs(a - value) < 1e-12, band.profile(t), 0.0)
        out = OutputFunctional(g_D_O=g_D_O, band=band)
        data, adata = ProblemData(f=EX1_F), out.adjoint_data()
        for level in (0, 1, 2):
            _, _, pair_u, pair_z, ws = build_pair(
                unit_square_crisscross(level), data, out, p, optimize=optimize)
            res = potential_residuals(ws, evaluate(ws, *pair_z, adata))
            assert res["dirichlet_trace"] < 1e-12
            assert compute_bounds(ws, pair_u, pair_z, data, adata).contains(
                np.pi ** 2 / 4)


def _loop_constraint_matrix(ws, e):
    """Constraints of the local optimization on element e, assembled
    directly on the element: divergence rows, then the flux and potential
    trace rows of the three facets, then the element-mean row."""
    mesh, p, nm, np_ = ws.mesh, ws.p, ws.nm, ws.np_
    F2 = p + 2
    ncon = np_ + 3 * F2 + 3 * F2 + 1
    C = np.zeros((ncon, 3 * nm))
    # divergence rows
    for c in (0, 1):
        C[:np_, c * nm:(c + 1) * nm] = np.einsum(
            "r,rai->ia", ws.jac_inv_t[e, c], ws.S_mp)
    # facet rows
    row = np_
    for ell in range(3):
        f = ws.ef[e, ell]
        o = ws.eo[e, ell]
        n_can = mesh.facet_normals[f]
        sc = np.sqrt(ws.facet_len[f]) / ws.sqrt_det[e]
        T = ws.T_mm[ell, o]                               # (F2, nm)
        for c in (0, 1):
            C[row:row + F2, c * nm:(c + 1) * nm] = sc * n_can[c] * T
        # potential trace rows
        C[row + 3 * F2:row + 3 * F2 + F2, 2 * nm:] = sc * T
        row += F2
    # element-mean row (constant mode coefficient)
    C[-1, 2 * nm] = 1.0
    return C


def _local_optimize_loop(ws, flux, pot):
    """Element-by-element reference for local_optimize: one SVD nullspace
    of the element's own constraint matrix and one lstsq per element."""
    mesh, p, nm = ws.mesh, ws.p, ws.nm
    ne = mesh.n_elements
    nu = ws.nu

    nodal = pot.nodal(ws)
    pot_modal = np.einsum("jk,ek->ej", ws.lattice.vandermonde_inv,
                          nodal) * ws.sqrt_det[:, None]

    # objective rows: sqrt(w detJ / nu) * [q*_c + nu (grad u*)_c] at quad pts
    new_flux = flux.coeffs.copy()
    new_values = pot.values.copy()
    sqw = np.sqrt(ws.wdet / nu[:, None])                      # (ne, nq)

    corr_elems = set()
    if pot.correction is not None:
        corr_elems = set(pot.correction.elems.tolist())

    for e in range(ne):
        phi = ws.phi_m / ws.sqrt_det[e]                       # (nm, nq)
        gphi = np.einsum("cd,jqd->jqc", ws.jac_inv_t[e],
                         ws.dphi_m) / ws.sqrt_det[e]          # (nm, nq, 2)
        nq = ws.nq
        Aobj = np.zeros((2 * nq, 3 * nm))
        for c in (0, 1):
            Aobj[c * nq:(c + 1) * nq, c * nm:(c + 1) * nm] = (phi * sqw[e]).T
            Aobj[c * nq:(c + 1) * nq, 2 * nm:] = (gphi[:, :, c] * sqw[e]).T * nu[e]
        bobj = np.zeros(2 * nq)
        if e in corr_elems:
            # the extension's gradient enters the objective as fixed data
            corr = pot.correction
            g = corr.grad[np.searchsorted(corr.elems, e)]     # (nq, 2)
            for c in (0, 1):
                bobj[c * nq:(c + 1) * nq] = -nu[e] * g[:, c] * sqw[e]

        C = _loop_constraint_matrix(ws, e)
        z0 = np.concatenate([flux.coeffs[e, 0], flux.coeffs[e, 1], pot_modal[e]])
        # nullspace method; C is rank-deficient but consistent by construction
        _, S, Vt = np.linalg.svd(C, full_matrices=True)
        rank = int(np.sum(S > S[0] * 1e-11))
        Nsp = Vt[rank:].T
        if Nsp.shape[1] == 0:
            continue
        r0 = bobj - Aobj @ z0
        xi, *_ = np.linalg.lstsq(Aobj @ Nsp, r0, rcond=None)
        z = z0 + Nsp @ xi
        new_flux[e, 0] = z[:nm]
        new_flux[e, 1] = z[nm:2 * nm]
        # boundary traces are constrained, so only interior node values move
        new_nodal = ws.vand_m @ z[2 * nm:] / ws.sqrt_det[e]
        slots = ws.lattice.interior_slots
        new_values[ws.node_map[e, slots]] = new_nodal[slots]

    new_pot = ContinuousPotential(values=new_values, correction=pot.correction)
    return EquilibratedFlux(new_flux), new_pot


def _mapped_nullspace(ws, e):
    """The reference nullspace carried to element e by q = J y."""
    nm = ws.nm
    N = ws.opt_nullspace
    Ny = N[:2 * nm].reshape(2, nm, -1)
    Nq = np.einsum("cr,rak->cak", ws.jac[e], Ny).reshape(2 * nm, -1)
    return np.vstack([Nq, N[2 * nm:]])


def _local_optimize_qr(ws, flux, pot):
    """local_optimize as one batched least-squares problem: the objective
    rows B (ne, 2 nq, k) along the mapped directions at the quadrature
    points, factored by a batched QR."""
    nm, nq, ne = ws.nm, ws.nq, ws.mesh.n_elements
    N = ws.opt_nullspace
    k = N.shape[1]
    Nq, Nu = N[:2 * nm], N[2 * nm:]
    qdir = np.einsum("aq,rak->rqk", ws.phi_m, Nq.reshape(2, nm, k)).reshape(2, nq * k)
    gdir = np.einsum("aqd,ak->dqk", ws.dphi_m, Nu).reshape(2, nq * k)
    sqw = np.sqrt(ws.wdet / ws.nu[:, None])                      # (ne, nq)
    B = (ws.jac @ qdir + ws.nu[:, None, None] * (ws.jac_inv_t @ gdir)
         ).reshape(ne, 2, nq, k) * (sqw / ws.sqrt_det[:, None])[:, None, :, None]
    resid = sqw[:, :, None] * (flux.eval_values(ws)
                               + ws.nu[:, None, None] * pot.eval_grads(ws))
    Q, R = np.linalg.qr(B.reshape(ne, 2 * nq, k))
    rhs = np.einsum("ecqk,eqc->ek", Q.reshape(ne, 2, nq, k), resid)
    xi = -np.linalg.solve(R, rhs[:, :, None])[:, :, 0]

    coeffs = flux.coeffs + ws.jac @ (xi @ Nq.T).reshape(ne, 2, nm)
    slots = ws.lattice.interior_slots
    values = pot.values.copy()
    values[ws.node_map[:, slots]] = pot.nodal(ws)[:, slots] + (
        xi @ (ws.vand_m[slots] @ Nu).T) / ws.sqrt_det[:, None]
    return replace(flux, coeffs=coeffs), replace(pot, values=values)


@pytest.fixture(scope="module")
def graded_lshape():
    return bisected_lshape()


def _two_material(mesh):
    """mesh with nu = 1 left of x = 1/2 and nu = 3 right of it."""
    region = (mesh.vertices[mesh.elements].mean(axis=1)[:, 0] > 0.5).astype(int)
    return Mesh(mesh.vertices, mesh.elements, mesh.boundary_tag_dict(),
                region=region, nu={0: 1.0, 1: 3.0})


OPT_MESHES = {"crisscross1": lambda: unit_square_crisscross(1),
              "perturbed": perturbed_crisscross,
              "perturbed_two_nu": lambda: _two_material(perturbed_crisscross()),
              "lshape": lshape_initial}


class TestLocalOptimize:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("mesh_name", list(OPT_MESHES))
    def test_batched_matches_element_loop(self, mesh_name, p):
        # example1_s2: the primal pair has no band correction, the adjoint
        # pair carries the band extension on x = 1
        prob = builtin("example1_s2")
        _, _, primal, adjoint, ws = build_pair(OPT_MESHES[mesh_name](),
                                               prob.data, prob.out, p)
        assert primal[1].correction is None
        assert adjoint[1].correction is not None
        for flux, pot in (primal, adjoint):
            [(got_f, got_p)] = local_optimize(ws, [(flux, pot)])
            ref_f, ref_p = _local_optimize_loop(ws, flux, pot)
            for got, ref in ((got_f.coeffs, ref_f.coeffs),
                             (got_p.values, ref_p.values)):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
            assert got_p.correction is pot.correction

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    @pytest.mark.parametrize("graded", [False, True])
    def test_pairs_are_optimized_independently(self, graded_lshape, graded, p):
        # one solve with a right-hand-side column per pair gives each pair
        # bitwise what a solve of that pair alone gives; the adjoint pair of
        # example1_s2's output carries the band extension on x = 1
        ex2, out = builtin("example2_s1"), builtin("example1_s2").out
        mesh, data = ((graded_lshape, ex2.data) if graded else
                      (unit_square_crisscross(2), builtin("example1_s2").data))
        _, _, primal, adjoint, ws = build_pair(mesh, data, out, p)
        assert adjoint[1].correction is not None
        both = local_optimize(ws, [primal, adjoint])
        for (got_f, got_p), pair in zip(both, (primal, adjoint), strict=True):
            [(want_f, want_p)] = local_optimize(ws, [pair])
            assert np.array_equal(got_f.coeffs, want_f.coeffs)
            assert np.array_equal(got_p.values, want_p.values)
            assert got_p.correction is pair[1].correction

    @pytest.mark.parametrize("mesh_name", ["perturbed_two_nu", "graded"])
    def test_p0_returns_both_pairs_unchanged(self, graded_lshape, mesh_name):
        # at p = 0 the constraints leave no feasible direction (k = 0): the
        # general path solves (ne, 0, 0) systems, adds a zero step to every
        # flux coefficient and moves no nodal value (P1 has no interior
        # node); the adjoint pair carries the band extension on x = 1
        prob = builtin("example1_s2")
        mesh = graded_lshape if mesh_name == "graded" else OPT_MESHES[mesh_name]()
        _, _, primal, adjoint, ws = build_pair(mesh, prob.data, prob.out, 0)
        assert ws.opt_nullspace.shape[1] == 0
        assert adjoint[1].correction is not None
        both = local_optimize(ws, [primal, adjoint])
        for (got_f, got_p), (flux, pot) in zip(both, (primal, adjoint),
                                                strict=True):
            assert np.array_equal(got_f.coeffs, flux.coeffs)
            assert got_p.values.tobytes() == pot.values.tobytes()
            assert got_p.values is not pot.values
            assert got_p.correction is pot.correction

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("mesh_name", ["perturbed", "lshape"])
    def test_element_nullspace_is_mapped_reference(self, mesh_name, p):
        ws = Workspace(OPT_MESHES[mesh_name](), p)
        k = ws.opt_nullspace.shape[1]
        assert k > 0
        for e in range(ws.mesh.n_elements):
            _, S, Vt = np.linalg.svd(_loop_constraint_matrix(ws, e))
            rank = int(np.sum(S > S[0] * 1e-11))
            assert rank == 3 * ws.nm - k
            loop_proj = Vt[rank:].T @ Vt[rank:]
            Q, _ = np.linalg.qr(_mapped_nullspace(ws, e))
            assert np.abs(loop_proj - Q @ Q.T).max() <= 1e-12

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_batched_qr_on_graded_mesh(self, graded_lshape, p):
        # both example2_s1 pairs, and the adjoint pair of example1_s2's
        # output, whose band extension on x = 1 fits the L-shape as well
        ex2 = builtin("example2_s1")
        _, _, primal, adjoint, ws = build_pair(graded_lshape, ex2.data,
                                               ex2.out, p)
        band = build_pair(graded_lshape, ex2.data,
                          builtin("example1_s2").out, p)[3]
        assert band[1].correction is not None
        for flux, pot in (primal, adjoint, band):
            [(got_f, got_p)] = local_optimize(ws, [(flux, pot)])
            ref_f, ref_p = _local_optimize_qr(ws, flux, pot)
            for got, ref in ((got_f.coeffs, ref_f.coeffs),
                             (got_p.values, ref_p.values)):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_scaled_normal_matrix_well_conditioned(self, graded_lshape, p):
        # 2.5 at p = 3; with the unrotated basis it reaches 1.5e18
        ws = Workspace(graded_lshape, p)
        M = _normal_matrix(ws, *_metrics(ws))
        d = 1.0 / np.sqrt(np.einsum("ekk->ek", M))
        assert np.linalg.cond(M * d[:, :, None] * d[:, None, :]).max() <= 10.0

    def test_exact_pair_unchanged(self):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=zero, g_D=lambda x, y: x)
        sol, flux, pot, ws = base_pair(mesh, data, 2)
        [(f2, p2)] = local_optimize(ws, [(flux, pot)])
        assert np.sqrt(_residual_sq(ws, evaluate(ws, f2, p2, data))) < 1e-10

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_objective_never_increases_and_certificates_hold(self, p):
        mesh = unit_square_crisscross(0)
        data = ProblemData(f=EX1_F)
        sol, flux, pot, ws = base_pair(mesh, data, p)
        before = _residual_sq(ws, evaluate(ws, flux, pot, data))
        [(f2, p2)] = local_optimize(ws, [(flux, pot)])
        after = _residual_sq(ws, evaluate(ws, f2, p2, data))
        assert after <= before + 1e-12
        if p == 0:
            # no feasible direction: the pair is returned unchanged
            assert np.array_equal(f2.coeffs, flux.coeffs)
            assert np.array_equal(p2.values, pot.values)
        rec = evaluate(ws, f2, p2, data)
        res = flux_residuals(ws, rec)
        pres = potential_residuals(ws, rec)
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
        [(fo, po)] = local_optimize(ws, [(flux, pot)])
        obj_opt = _residual_sq(ws, evaluate(ws, fo, po, data))

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
        flux_pert = EquilibratedFlux(flux.coeffs + add)
        rec = evaluate(ws, flux_pert, pot, data)
        res = flux_residuals(ws, rec)
        assert max(res.values()) < 1e-9  # still equilibrated
        obj_pert = _residual_sq(ws, rec)
        [(f3, p3)] = local_optimize(ws, [(flux_pert, pot)])
        obj_back = _residual_sq(ws, evaluate(ws, f3, p3, data))
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
        pot = enforce_dirichlet_band(ws, pot, band)
        [(f2, p2)] = local_optimize(ws, [(flux, pot)])
        res = potential_residuals(ws, evaluate(ws, f2, p2, data))
        assert res["dirichlet_trace"] < 1e-10
        assert res["continuity"] < 1e-10


@pytest.mark.parametrize("p", [2, 3])
def test_pair_memory_below_the_bounds(p):
    # the pair stage runs on whole-mesh arrays, no larger than the two
    # records compute_bounds evaluates, audits and holds for kappa, eta and S;
    # at level 4 (4096 elements) numpy's traced peak of the one
    # certified_pairs call for both data was 4.6 MB at p=2 and 8.0 MB at
    # p=3, against 7.5 and 11.0 MB for the two records (7.65 and 14.5 MB
    # when the potential post-processing built the whole (ne, nm, nm)
    # stiffness at once, which exceeds the records since they hold their
    # polynomial fields as coefficients)
    import tracemalloc
    from hdgbounds.bounds import _audited_records
    from hdgbounds.reconstruct import certified_pairs
    prob = builtin("example1_s1")
    ws = Workspace(unit_square_crisscross(4), p)
    datas = [prob.data, prob.out.adjoint_data()]
    sols = solve(ws, datas)
    tracemalloc.start()
    try:
        pairs = certified_pairs(ws, sols, datas)
        peak = tracemalloc.get_traced_memory()[1]
        start = tracemalloc.get_traced_memory()[0]
        records = _audited_records(ws, *pairs, *datas)
        records_size = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(records) == 2
    assert peak <= records_size


@settings(derandomize=True, deadline=None, max_examples=30)
@given(case=st.sampled_from(["example1_s1", "example1_s2", "example2_s1"]),
       amp=st.floats(0.0, 0.06), seed=st.integers(0, 2 ** 16),
       p=st.integers(0, 3), optimize=st.booleans())
def test_batched_pairs_equal_single_datum_calls(case, amp, seed, p, optimize):
    # certified_pairs on both data gives each datum's pair of a one-datum
    # call bit for bit, and the audit that takes the interior jumps of both
    # pairs at once gives a one-pair audit's verdicts; example1_s2 carries a
    # band on its adjoint, example2_s1 lives on a bisected L-shape
    from hdgbounds.bounds import _CERTIFICATE_TOL, _audited_records
    prob = builtin(case)
    if case == "example2_s1":
        rng = np.random.default_rng(seed)
        mesh = lshape_initial()
        for _ in range(2):
            mesh = refine_bisection(mesh, np.flatnonzero(
                rng.random(mesh.n_elements) < 0.5))
    else:
        mesh = perturbed_crisscross(amp, seed, base=unit_square_crisscross(1))
    ws = Workspace(mesh, p)
    datas = [prob.data, prob.out.adjoint_data()]
    sols = solve(ws, datas)
    pairs = certified_pairs(ws, sols, datas, optimize)
    for sol, data, (flux, pot) in zip(sols, datas, pairs):
        ((flux1, pot1),) = certified_pairs(ws, [sol], [data], optimize)
        assert np.array_equal(flux.coeffs, flux1.coeffs)
        assert np.array_equal(pot.values, pot1.values)
        assert (pot.correction is None) == (pot1.correction is None)

    def verdicts(res):
        return {k: r <= _CERTIFICATE_TOL for k, r in res.items()}
    records = _audited_records(ws, *pairs, *datas)
    for rec, pair, data in zip(records, pairs, datas):
        alone = evaluate(ws, *pair, data)
        for residuals in (flux_residuals, potential_residuals):
            got, want = residuals(ws, rec), residuals(ws, alone)
            assert verdicts(got) == verdicts(want)
            assert all(abs(got[k] - want[k]) <= 1e-14 for k in want)


def test_one_potential_solve_and_one_interior_trace_per_side_and_field(
        monkeypatch):
    # over one run_pipeline the potential stage makes one spd_solve for the
    # primal and the adjoint datum, and the interior audits gather one trace
    # per side and field (flux, potential) for both pairs
    import hdgbounds.reconstruct as rc
    from hdgbounds import run_pipeline
    solves, traces = [], []
    spd_solve, facet_trace = rc.spd_solve, Workspace.facet_trace

    def counted_solve(K, B):
        solves.append(B.shape[-1])
        return spd_solve(K, B)

    def counted_trace(ws, vals, tab, facet_ids, side=0):
        interior = ws.mesh.interior_facets
        if len(facet_ids) == len(interior) and np.array_equal(facet_ids, interior):
            traces.append((tab is ws.lag_edge, side))
        return facet_trace(ws, vals, tab, facet_ids, side)

    monkeypatch.setattr(rc, "spd_solve", counted_solve)
    monkeypatch.setattr(Workspace, "facet_trace", counted_trace)
    prob = builtin("example1_s2")  # a band on the adjoint
    res = run_pipeline(unit_square_crisscross(1), prob.data, prob.out, 2)
    assert res.contains(prob.exact_s)
    assert solves == [2]
    assert sorted(traces) == [(False, 0), (False, 1), (True, 0), (True, 1)]


@pytest.mark.parametrize("optimize", [False, True])
def test_no_pipeline_object_holds_the_mesh_or_the_workspace(optimize):
    # every step takes the workspace first, so the solutions, the pairs with
    # the adjoint's band correction, the evaluated records and the bounds
    # hold numbers and the band extension only
    from hdgbounds.bounds import _audited_records
    prob = builtin("example1_s2")
    ws = Workspace(unit_square_crisscross(1), 2)
    datas = [prob.data, prob.out.adjoint_data()]
    sols = solve(ws, datas)
    pairs = certified_pairs(ws, sols, datas, optimize)
    records = _audited_records(ws, *pairs, *datas)
    res = compute_bounds(ws, *pairs, *datas)
    seen = set()

    def check(obj):
        assert not isinstance(obj, (Mesh, Workspace))
        if is_dataclass(obj):
            seen.add(type(obj).__name__)
            for f in fields(obj):
                check(getattr(obj, f.name))
    for obj in (*sols, *(x for pair in pairs for x in pair), *records, res):
        check(obj)
    assert seen == {"HDGSolution", "EquilibratedFlux", "ContinuousPotential",
                    "BandCorrection", "EvaluatedPair", "BoundsResult"}
    assert [f.name for f in fields(sols[0])] == ["u", "q", "uhat", "qhat_n"]
    assert [f.name for f in fields(pairs[0][0])] == ["coeffs"]


def test_node_tables_built_on_first_read():
    # the HDG solve reads no node of the continuous space: its numbering
    # and coordinates are built when the potential stage first reads them,
    # and the element-wise node coordinates are not kept
    prob = builtin("example1_s1")
    ws = Workspace(unit_square_crisscross(1), 2)
    datas = [prob.data, prob.out.adjoint_data()]
    sols = solve(ws, datas)
    assert not {"node_map", "node_coords", "node_phys"} & set(vars(ws))
    certified_pairs(ws, sols, datas)
    assert {"node_map", "node_coords", "dirichlet_nodes"} <= set(vars(ws))
    assert "node_phys" not in vars(ws)


def test_audit_reads_only_the_record(monkeypatch):
    # an evaluated record holds every number the certificate audit
    # compares, so the audit evaluates no data and takes no trace; the
    # adjoint pair of example1_s2 carries a band, mixed_square has Neumann
    # facets
    prob = builtin("example1_s2")
    datas = [prob.data, prob.out.adjoint_data()]
    _, _, *pairs, ws = build_pair(mixed_square(1), prob.data, prob.out, 2)

    def boom(*args, **kwargs):
        raise AssertionError("the audit read beyond the record")
    for pair, data in zip(pairs, datas):
        rec = evaluate(ws, *pair, data)
        want = flux_residuals(ws, rec), potential_residuals(ws, rec)
        with monkeypatch.context() as m:
            m.setattr(ws, "eval_data", boom)
            m.setattr(ws, "facet_trace", boom)
            assert (flux_residuals(ws, rec), potential_residuals(ws, rec)) == want
