"""Reference-element machinery (quadrature, bases) and the batched
projections, RT^p generators and energy norms built on it."""

import math

import numpy as np
import pytest

from conftest import perturbed_crisscross
from hdgbounds import Workspace
from hdgbounds import femcore as fc
from hdgbounds import unit_square_crisscross
from hdgbounds.mesh import Mesh, lshape_initial, refine_bisection
from hdgbounds.bounds import _energy_sq
from hdgbounds.reconstruct import EquilibratedFlux
from hdgbounds.workspace import _BLOCK, spd_solve


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


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_lattice_inverse_vandermonde_maps_nodal_to_modal(m, rng):
    # V = tri_basis(m, nodes).T takes modal coefficients to the values at
    # the lattice nodes; vandermonde_inv takes them back
    lat = fc.lagrange_lattice(m)
    V = fc.tri_basis(m, lat.nodes).T
    c = rng.standard_normal((fc.n_modes(m), 4))
    assert len(lat.nodes) == fc.n_modes(m)
    assert np.abs(lat.vandermonde_inv @ (V @ c) - c).max() < 1e-12 * np.abs(c).max()


@pytest.mark.parametrize("q", [0, 2, 4])
def test_segment_basis_orthonormal(q):
    rule = fc.segment_rule(2 * q)
    psi = fc.seg_basis(q, rule.points)
    gram = (psi * rule.weights) @ psi.T
    assert np.abs(gram - np.eye(q + 1)).max() < 5e-15


def test_reference_tables_shared_and_read_only():
    # the tables that do not depend on the mesh are built once per
    # (p, quad_degree) and shared, read-only, by every Workspace of that pair
    a = Workspace(unit_square_crisscross(1), 2)
    b = Workspace(perturbed_crisscross(), 2, quad_degree=8)   # default 2p + 4
    ref = fc.reference_tables(2, 8)
    arrays = 0
    for name, val in ref.items():
        assert getattr(a, name) is val and getattr(b, name) is val
        if isinstance(val, np.ndarray):
            arrays += 1
            with pytest.raises(ValueError, match="read-only"):
                val[...] = val
    assert arrays > 20
    with pytest.raises(TypeError):
        ref["S"] = None
    with pytest.raises(ValueError, match="read-only"):
        a.lattice.vandermonde_inv[0, 0] = 0.0
    # another quadrature degree gives other tables, built anew; the
    # lattice does not depend on the quadrature and comes out the same
    c = Workspace(perturbed_crisscross(), 2, quad_degree=4)
    assert c.nq < a.nq and c.phi_p.shape != a.phi_p.shape
    assert c.S is not a.S and c.lattice is not a.lattice
    assert np.array_equal(c.lattice.vandermonde_inv, a.lattice.vandermonde_inv)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_optimization_nullspace_rotated(p):
    # the rotation keeps an orthonormal basis of the same space, and makes
    # the potential rows' columns mutually orthogonal
    t = fc.reference_tables(p, 2 * p + 4)
    N, nm = t["opt_nullspace"], t["nm"]
    _, S, Vt = np.linalg.svd(fc._reference_constraints(t))
    plain = Vt[int(np.sum(S > S[0] * 1e-11)):]
    assert np.abs(N.T @ N - np.eye(N.shape[1])).max() <= 1e-13
    assert np.abs(N @ N.T - plain.T @ plain).max() <= 1e-13
    gram = N[2 * nm:].T @ N[2 * nm:]
    assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-13


def _local_solve_shapes():
    """(n, r) of every element-local solve at p = 0..3: condensation's
    np x np with 3(p+1) trace and 2 data columns, the potential's
    (nm-1) x (nm-1) and the optimizer's k x k, one column each; k = 0 at
    p = 0, the empty system."""
    shapes = []
    for p in range(4):
        k = fc.reference_tables(p, 2 * p + 4)["opt_nullspace"].shape[1]
        shapes += [(fc.n_modes(p), 3 * (p + 1) + 2), (fc.n_modes(p + 1) - 1, 1),
                   (k, 1)]
    return shapes


def _spd_stack(rng, ne, n):
    """ne random SPD n x n matrices with eigenvalues in [1, 10]."""
    q = np.linalg.qr(rng.standard_normal((ne, n, n)))[0]
    return (q * rng.uniform(1.0, 10.0, (ne, 1, n))) @ q.swapaxes(1, 2)


class TestSpdSolve:
    # one element, fewer than one block, and three blocks, the last partial
    @pytest.mark.parametrize("ne", [1, 100, 2 * _BLOCK + 5])
    def test_matches_lapack_on_every_local_shape(self, ne, rng):
        for n, r in _local_solve_shapes():
            K, B = _spd_stack(rng, ne, n), rng.standard_normal((ne, n, r))
            X, ref = spd_solve(K, B), np.linalg.solve(K, B)
            assert X.shape == ref.shape
            assert (np.abs(X - ref).max(axis=(1, 2), initial=0.0)
                    <= 1e-13 * np.abs(ref).max(axis=(1, 2), initial=0.0)
                    ).all(), (n, r)

    def test_zero_pivot_names_the_element(self, rng):
        # all-ones is positive semidefinite: its second pivot is exactly zero
        bad = _BLOCK + 3
        K = _spd_stack(rng, _BLOCK + 10, 4)
        K[bad] = 1.0
        with pytest.raises(np.linalg.LinAlgError,
                           match=rf"zero pivot on element\(s\) \[{bad}\]"):
            spd_solve(K, rng.standard_normal((len(K), 4, 2)))

    def test_nan_propagates_without_raising(self, rng):
        # a NaN pivot is no zero pivot: it reaches the caller's checks
        K, B = _spd_stack(rng, 20, 6), rng.standard_normal((20, 6, 3))
        K[4, 0, 0] = np.nan
        B[11, 5, 2] = np.nan
        X = spd_solve(K, B)
        assert np.isnan(X[4]).all()
        assert np.isnan(X[11, :, 2]).all() and np.isfinite(X[11, :, :2]).all()
        rest = np.delete(X, [4, 11], axis=0)
        assert np.isfinite(rest).all()


class TestProjections:
    def setup_method(self):
        self.mesh = unit_square_crisscross(0)

    def test_constant_reproduced(self):
        ws = Workspace(self.mesh, 2)
        vals = ws.proj_p(ws.eval_data(lambda x, y: 3.5 + 0 * x))
        assert np.abs(vals - 3.5).max() < 1e-13

    def test_linear_onto_constant_reference_triangle(self):
        # reference triangle (0,0),(1,0),(0,1): mean of x is 1/3
        ws = Workspace(reference_triangle_mesh([[0, 0], [1, 0], [0, 1]]), 0)
        vals = ws.proj_p(ws.eval_data(lambda x, y: x))
        assert np.abs(vals - 1.0 / 3.0).max() < 1e-13

    def test_idempotent_on_polynomials(self):
        f = lambda x, y: 1.0 - 2.0 * x + 0.5 * y + 3 * x * y - y ** 2
        for mesh in both_meshes():
            ws = Workspace(mesh, 2)
            exact = f(ws.qphys[..., 0], ws.qphys[..., 1])
            assert np.abs(ws.proj_p(ws.eval_data(f)) - exact).max() < 1e-12

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
            pvals = check.eval_modal(ws.moments_p(ws.eval_data(f)))
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
                    ws.moments_p(ws.eval_data(bad))
                with pytest.raises(ValueError, match="non-finite"):
                    ws.facet_data_moments(bad, np.arange(mesh.n_facets))
                ws.facet_data_moments(vertex_nan, np.arange(mesh.n_facets))
                with pytest.raises(ValueError, match=r"non-finite .*\(0\.0, 0\.0\)"):
                    ws.eval_data(vertex_nan, ws.node_coords)


def _direct_trace(ws, vals, facet_ids, side, table):
    """Values at ws.ephys of the element polynomials vals (ne, ..., n) of
    each facet's element on ``side``: the points pulled back to the
    reference element, and the modal basis or the Lagrange basis of the
    lattice evaluated there."""
    e = ws.mesh.facet_elems[facet_ids, side]
    ref = ((ws.ephys[facet_ids] - ws.v0[e][:, None]) @ ws.jac_inv_t[e]).reshape(-1, 2)
    if table == "lag_edge":
        basis = (fc.tri_basis(ws.m, ref).T @ ws.lattice.vandermonde_inv).T
    else:
        basis = fc.tri_basis(ws.p if table == "etab_p" else ws.m, ref)
        basis = basis / np.repeat(ws.sqrt_det[e], ws.nqe)
    return np.einsum("f...i,fit->f...t", vals[e],
                     basis.reshape(len(basis), len(e), ws.nqe).swapaxes(0, 1))


class TestFacetTrace:
    MESHES = {"perturbed": perturbed_crisscross,
              "lshape_bisected": lambda: refine_bisection(
                  refine_bisection(lshape_initial(), [0, 3, 4]), [1, 5, 8])}

    @pytest.mark.parametrize("name", sorted(MESHES))
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_matches_direct_evaluation(self, name, p, rng):
        ws = Workspace(self.MESHES[name](), p)
        mesh = ws.mesh
        ne = mesh.n_elements
        cases = {"etab_p": rng.standard_normal((ne, ws.np_)),
                 "etab_m": rng.standard_normal((ne, 2, ws.nm)),
                 "lag_edge": rng.standard_normal((ne, ws.n_nodes))}
        for side, ids in ((0, np.arange(mesh.n_facets)),
                          (1, mesh.interior_facets)):
            e = mesh.facet_elems[ids, side]
            orient = ws.eo[e, mesh.facet_local_edge[ids, side]]
            assert set(orient.tolist()) == {0, 1}
            for table, vals in cases.items():
                got = ws.facet_trace(vals, getattr(ws, table), ids, side)
                if table != "lag_edge":
                    got = got / ws.sqrt_det[e].reshape((-1,) + (1,) * (got.ndim - 1))
                want = _direct_trace(ws, vals, ids, side, table)
                assert got.shape == want.shape
                assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def rt_generators(ws):
    """The RT^p generators reconstruct_flux solves for, as componentwise
    modal P^{p+1} coefficients (ne, N, 2, nm): the reference basis mapped
    to every element by q = J y / det J."""
    T = ws.rt_T
    return np.einsum("ecd,jdk->ejck", ws.jac, T) / ws.sqrt_det[:, None, None, None]


class TestRTSpace:
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_divergence_lies_in_Pp(self, p):
        # div maps RT^p into P^p, and onto it: the equilibration
        # div q~ = Pi_p f is solvable on every element
        ws = Workspace(perturbed_crisscross(), p)
        basis = rt_generators(ws)
        moments = []
        for j in range(basis.shape[1]):
            flux = EquilibratedFlux(basis[:, j])
            div = flux.eval_divergence(ws)
            scale = 1.0 + np.abs(div).max()
            assert np.abs(div - ws.proj_p(div)).max() < 1e-12 * scale
            moments.append(ws.moments_p(div))
        D = np.stack(moments, axis=2)      # (ne, np_, N)
        assert np.all(np.linalg.matrix_rank(D) == fc.n_modes(p))

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_normal_trace_lies_in_Pp_edge(self, p):
        ws = Workspace(perturbed_crisscross(), p)
        basis = rt_generators(ws)                       # (ne, N, 2, nm)
        for ell in range(3):
            vals = basis @ ws.etab_m[ell, 1] / ws.sqrt_det[:, None, None, None]
            tn = np.einsum("ejct,ec->ejt", vals, ws.enormal[:, ell])
            mom = np.einsum("ejt,mt,t->ejm", tn, ws.psi_m, ws.ew)
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
    """Per-element energy norms of a callable vector field of degree <= 3,
    (ne,): the sum of its squared modal coefficients, which must equal the
    quadrature of its squared values."""
    ws = Workspace(mesh, 2)
    vals = v(ws.qphys[..., 0], ws.qphys[..., 1])
    coeffs = np.einsum("eqc,aq,q->eca", vals, ws.phi_m, ws.qw
                       ) * ws.sqrt_det[:, None, None]
    modal = _energy_sq(ws, coeffs, np.empty(0, dtype=int), vals[:0])
    quad = np.einsum("eqc,eqc,eq->e", vals, vals, ws.wdet) / ws.nu
    assert np.abs(modal - quad).max() <= 1e-13 * quad.max()
    return np.sqrt(modal)


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
