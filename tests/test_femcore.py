"""Reference-element machinery (quadrature, bases) and the batched
projections, RT^p generators and energy norms built on it."""

import math

import numpy as np
import pytest

from hdgbounds import Workspace
from hdgbounds import femcore as fc
from hdgbounds import unit_square_crisscross
from hdgbounds.bounds import _energy_sq
from hdgbounds.mesh import Mesh
from hdgbounds.reconstruct import EquilibratedFlux, _rt_tails


def perturbed_crisscross(amp=0.06, seed=7):
    """unit_square_crisscross(0) with its interior vertices moved at random,
    so that its elements are no longer congruent."""
    base = unit_square_crisscross(0)
    v = base.vertices.copy()
    interior = np.all((v > 1e-12) & (v < 1.0 - 1e-12), axis=1)
    v[interior] += np.random.default_rng(seed).uniform(
        -amp, amp, size=(int(interior.sum()), 2))
    return Mesh(v, base.elements, base.boundary_tag_dict())


def both_meshes():
    return unit_square_crisscross(0), perturbed_crisscross()


def reference_triangle_mesh(verts):
    return Mesh(np.array(verts, dtype=float), np.array([[0, 1, 2]]),
                {(0, 1): "D", (1, 2): "D", (0, 2): "D"})


def monomial_integral(a, b):
    # exact integral of x^a y^b over the unit triangle
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", [1, 2, 4, 7, 10, 14])
def test_triangle_rule_exactness(degree):
    rule = fc.triangle_rule(degree)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 0.5) < 1e-14
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.sum(rule.weights * rule.points[:, 0] ** a
                         * rule.points[:, 1] ** b)
            exact = monomial_integral(a, b)
            assert abs(val - exact) <= 1e-13 * exact


@pytest.mark.parametrize("degree", [1, 3, 6, 11])
def test_segment_rule_exactness(degree):
    rule = fc.segment_rule(degree)
    assert np.all(rule.weights > 0)
    for a in range(degree + 1):
        val = np.sum(rule.weights * rule.points ** a)
        assert abs(val - 1.0 / (a + 1)) < 1e-14


@pytest.mark.parametrize("q", [0, 1, 2, 4, 5])
def test_modal_basis_orthonormal(q):
    rule = fc.triangle_rule(2 * q + 2)
    phi = fc.tri_basis(q, rule.points)
    gram = (phi * rule.weights) @ phi.T
    assert np.abs(gram - np.eye(fc.n_modes(q))).max() < 5e-15


def test_modal_gradients_match_finite_differences():
    pts = np.array([[0.2, 0.3], [0.05, 0.61], [0.44, 0.1]])
    g = fc.tri_basis_grad(4, pts)
    h = 1e-6
    gx = (fc.tri_basis(4, pts + [h, 0]) - fc.tri_basis(4, pts - [h, 0])) / (2 * h)
    gy = (fc.tri_basis(4, pts + [0, h]) - fc.tri_basis(4, pts - [0, h])) / (2 * h)
    assert np.abs(g[:, :, 0] - gx).max() < 1e-8
    assert np.abs(g[:, :, 1] - gy).max() < 1e-8


@pytest.mark.parametrize("q", [0, 2, 4])
def test_segment_basis_orthonormal(q):
    rule = fc.segment_rule(2 * q)
    psi = fc.seg_basis(q, rule.points)
    gram = (psi * rule.weights) @ psi.T
    assert np.abs(gram - np.eye(q + 1)).max() < 5e-15


class TestProjections:
    def setup_method(self):
        self.mesh = unit_square_crisscross(0)

    def test_constant_reproduced(self):
        ws = Workspace(self.mesh, 2)
        vals = ws.eval_modal(ws.project_p(lambda x, y: 3.5 + 0 * x))
        assert np.abs(vals - 3.5).max() < 1e-13

    def test_linear_onto_constant_reference_triangle(self):
        # reference triangle (0,0),(1,0),(0,1): mean of x is 1/3
        ws = Workspace(reference_triangle_mesh([[0, 0], [1, 0], [0, 1]]), 0)
        vals = ws.eval_modal(ws.project_p(lambda x, y: x))
        assert np.abs(vals - 1.0 / 3.0).max() < 1e-13

    def test_idempotent_on_polynomials(self):
        f = lambda x, y: 1.0 - 2.0 * x + 0.5 * y + 3 * x * y - y ** 2
        for mesh in both_meshes():
            ws = Workspace(mesh, 2)
            exact = f(ws.qphys[..., 0], ws.qphys[..., 1])
            assert np.abs(ws.eval_modal(ws.project_p(f)) - exact).max() < 1e-12
            assert np.abs(ws.eval_data(f) - ws.proj_p(ws.eval_data(f))).max() < 1e-12

    def test_orthogonality_against_random_polynomials(self, rng):
        # (f - Pf, w)_K = 0 for all w of degree <= q: on element 7 of the
        # unperturbed mesh, the default-rule projection the pipeline runs
        # against a degree-12 rule; on every element, in the projection's own
        # rule and against a finer one (the default degree-8 rule is itself
        # off by up to 1e-9 relative for this f on some elements, so that
        # check projects with degree 12)
        f = lambda x, y: np.sin(3 * x) * np.cosh(y)
        q = 2

        def check_orthogonal(ws, check, elems):
            fvals = check.eval_data(f)
            pvals = check.eval_modal(ws.project_p(f))
            nf = np.sqrt(check.integrate_elementwise(fvals ** 2))
            for _ in range(5):
                w = check.eval_modal(rng.standard_normal(
                    (ws.mesh.n_elements, ws.np_)))
                ip = check.integrate_elementwise((fvals - pvals) * w)
                nw = np.sqrt(check.integrate_elementwise(w ** 2))
                assert np.all((np.abs(ip) <= 1e-10 * nf * nw)[elems])

        mesh = self.mesh
        check_orthogonal(Workspace(mesh, q), Workspace(mesh, q, quad_degree=12),
                         [7])
        for mesh in both_meshes():
            every = np.arange(mesh.n_elements)
            check_orthogonal(Workspace(mesh, q), Workspace(mesh, q), every)
            check_orthogonal(Workspace(mesh, q, quad_degree=12),
                             Workspace(mesh, q, quad_degree=20), every)

    def test_edge_projection_constant_and_sine(self):
        g = lambda x, y: 2.25 + 0 * y
        t = np.array([0.3, 0.9])
        for mesh in both_meshes():
            ws = Workspace(mesh, 1)
            ids = np.arange(mesh.n_facets)
            assert np.abs(ws.facet_proj_p(ws.eval_data(g, ws.ephys), ids)
                          - 2.25).max() < 1e-13
            # off the quadrature points, through the facet basis
            c = ws.facet_data_moments(g, ids)
            vals = c @ fc.seg_basis(1, t) / np.sqrt(ws.facet_len)[:, None]
            assert np.abs(vals - 2.25).max() < 1e-13

    def test_edge_projection_sine_mean(self):
        # g = sin(pi y) on the edge x=1, y in [0,1]: its mean is 2/pi
        mesh = reference_triangle_mesh([[1, 0], [1, 1], [0, 0]])
        facet = [i for i, (a, b) in enumerate(mesh.facets)
                 if {a, b} == {0, 1}][0]
        ws = Workspace(mesh, 0, quad_degree=24)
        c = ws.facet_data_moments(lambda x, y: np.sin(np.pi * y), [facet])
        vals = c @ fc.seg_basis(0, np.array([0.5])) / np.sqrt(ws.facet_len[facet])
        assert abs(vals[0, 0] - 2.0 / np.pi) < 1e-12

    def test_edge_projection_idempotent(self):
        g = lambda x, y: 1.0 + 2.0 * y - y ** 2
        t = np.linspace(0.1, 0.9, 5)
        for mesh in both_meshes():
            ws = Workspace(mesh, 2)
            ids = np.arange(mesh.n_facets)
            gvals = ws.eval_data(g, ws.ephys)
            assert np.abs(ws.facet_proj_p(gvals, ids) - gvals).max() < 1e-12
            c = ws.facet_data_moments(g, ids)
            vals = c @ fc.seg_basis(2, t) / np.sqrt(ws.facet_len)[:, None]
            va = mesh.vertices[mesh.facets[:, 0]]
            vb = mesh.vertices[mesh.facets[:, 1]]
            pts = va[:, None, :] + t[None, :, None] * (vb - va)[:, None, :]
            assert np.abs(vals - g(pts[..., 0], pts[..., 1])).max() < 1e-12

    def test_nonfinite_data_reported(self):
        # NaN everywhere, and NaN only at the vertex (0, 0), which no
        # quadrature point hits but the Lagrange nodes do
        bad = lambda x, y: x / (x - x)
        vertex_nan = lambda x, y: (x + y) / (x + y)
        with np.errstate(divide="ignore", invalid="ignore"):
            for mesh in both_meshes():
                ws = Workspace(mesh, 1)
                with pytest.raises(ValueError, match="non-finite"):
                    ws.project_p(bad)
                with pytest.raises(ValueError, match="non-finite"):
                    ws.facet_data_moments(bad, np.arange(mesh.n_facets))
                ws.facet_data_moments(vertex_nan, np.arange(mesh.n_facets))
                with pytest.raises(ValueError, match=r"non-finite .*\(0\.0, 0\.0\)"):
                    ws.eval_data(vertex_nan, ws.node_phys)


def rt_generators(ws):
    """The RT^p generators reconstruct_flux solves for, as componentwise
    modal P^{p+1} coefficients (ne, N, 2, nm): the P^p modes times each unit
    vector, then the p+1 tails."""
    p, np_, nm = ws.p, ws.np_, ws.nm
    ne = ws.mesh.n_elements
    basis = np.zeros((ne, 2 * np_ + p + 1, 2, nm))
    idx = np.arange(np_)
    basis[:, idx, 0, idx] = 1.0          # P^p modes prefix the P^{p+1} modes
    basis[:, np_ + idx, 1, idx] = 1.0
    tails = _rt_tails(ws, ws.qphys)       # (ne, p+1, nq, 2)
    for k in range(p + 1):
        for c in (0, 1):
            basis[:, 2 * np_ + k, c] = ws.moments_m(tails[:, k, :, c])
    return basis


class TestRTSpace:
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_divergence_lies_in_Pp(self, p):
        # div maps RT^p into P^p, and onto it: the equilibration
        # div q~ = Pi_p f is solvable on every element
        ws = Workspace(perturbed_crisscross(), p)
        basis = rt_generators(ws)
        moments = []
        for j in range(basis.shape[1]):
            flux = EquilibratedFlux(mesh=ws.mesh, p=p, coeffs=basis[:, j])
            div = flux.eval_divergence(ws)
            scale = 1.0 + np.abs(div).max()
            assert np.abs(div - ws.proj_p(div)).max() < 1e-12 * scale
            moments.append(ws.moments_p(div))
        D = np.stack(moments, axis=2)      # (ne, np_, N)
        assert np.all(np.linalg.matrix_rank(D) == fc.n_modes(p))

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_normal_trace_lies_in_Pp_edge(self, p):
        ws = Workspace(perturbed_crisscross(), p)
        for ell in range(3):
            f = ws.ef[:, ell]
            tails = _rt_tails(ws, ws.ephys[f])           # (ne, p+1, nqe, 2)
            tn = np.einsum("ektc,ec->ekt", tails, ws.mesh.facet_normals[f])
            mom = np.einsum("ekt,mt,t->ekm", tn, ws.psi_m, ws.ew)
            assert np.abs(mom[:, :, p + 1]).max() < 1e-12 * (1 + np.abs(mom).max())

    def test_dimension(self):
        for p in range(4):
            ws = Workspace(perturbed_crisscross(), p)
            basis = rt_generators(ws)
            ne, N = basis.shape[:2]
            assert N == (p + 1) * (p + 3)
            rank = np.linalg.matrix_rank(basis.reshape(ne, N, -1))
            assert np.all(rank == N)


def energy(mesh, v):
    """Per-element energy norms of a callable vector field, (ne,)."""
    ws = Workspace(mesh, 2)
    return np.sqrt(_energy_sq(ws, v(ws.qphys[..., 0], ws.qphys[..., 1])))


UNIT_X = lambda x, y: np.stack([np.ones_like(x), np.zeros_like(x)], axis=-1)


class TestEnergyNorm:
    def test_zero_field(self):
        mesh = unit_square_crisscross(0)
        assert energy(mesh, lambda x, y: np.zeros(x.shape + (2,))).sum() == 0.0

    def test_unit_field_nu_one(self):
        per = energy(unit_square_crisscross(0), UNIT_X)
        assert abs(np.sqrt(np.sum(per ** 2)) - 1.0) < 1e-13

    def test_unit_field_nu_four(self):
        base = unit_square_crisscross(0)
        mesh = Mesh(base.vertices, base.elements, base.boundary_tag_dict(),
                    region=base.region, nu={0: 4.0})
        per = energy(mesh, UNIT_X)
        assert abs(np.sqrt(np.sum(per ** 2)) - 0.5) < 1e-13

    def test_per_element_restriction(self):
        mesh = unit_square_crisscross(0)
        per = energy(mesh, UNIT_X)
        assert len(per) == mesh.n_elements
        assert np.abs(per ** 2 - mesh.areas()).max() < 1e-15
        assert abs(np.sqrt(np.sum(per ** 2)) - 1.0) < 1e-13
