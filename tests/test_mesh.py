"""Mesh construction, refinement mechanics, and the plain-text format."""

import numpy as np
import pytest

from hdgbounds import mesh as hm
from hdgbounds.bounds import poincare_constants


def test_crisscross_level0_counts():
    m = hm.unit_square_crisscross(0)
    assert m.n_elements == 16
    assert m.n_facets == 28
    # trace dof count at p=1 matches the published 56
    assert m.n_facets * 2 == 56
    assert abs(m.total_area() - 1.0) < 1e-14
    assert np.all(m.facet_tag[m.facet_elems[:, 1] < 0] == hm.DIRICHLET)


def test_crisscross_level1():
    m = hm.unit_square_crisscross(1)
    assert m.n_elements == 64
    assert abs(m.total_area() - 1.0) < 1e-14
    hm.check_conformity(m)


def test_crisscross_rejects_negative_level():
    with pytest.raises(ValueError):
        hm.unit_square_crisscross(-1)


def test_lshape_initial():
    m = hm.lshape_initial()
    assert m.n_elements == 6
    assert abs(m.total_area() - 3.0) < 1e-14
    assert any(np.all(v == [0.0, 0.0]) for v in m.vertices)
    hm.check_conformity(m)


class TestRedRefinement:
    def test_uniform_counts(self):
        m = hm.unit_square_crisscross(0)
        r = hm.refine_red(m, range(m.n_elements))
        assert r.n_elements == 64
        assert abs(r.total_area() - 1.0) < 1e-12
        hm.check_conformity(r)

    def test_empty_marks_identity(self):
        m = hm.unit_square_crisscross(0)
        assert hm.refine_red(m, []) is m

    def test_partial_marks_conforming(self):
        two = hm.Mesh(np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]]),
                      np.array([[0, 1, 2], [0, 2, 3]]),
                      {(0, 1): "D", (1, 2): "D", (2, 3): "D", (0, 3): "D"})
        r = hm.refine_red(two, [0])
        hm.check_conformity(r)
        assert abs(r.total_area() - two.total_area()) < 1e-14

    def test_bad_marks_rejected(self):
        m = hm.unit_square_crisscross(0)
        with pytest.raises(ValueError):
            hm.refine_red(m, [99])

    def test_boundary_tags_inherited(self):
        m = hm.unit_square_crisscross(0)
        r = hm.refine_red(m, range(m.n_elements))
        # every boundary facet midpoint lies on the unit-square boundary
        for i in np.nonzero(r.facet_tag != hm.INTERIOR)[0]:
            mid = r.vertices[r.facets[i]].mean(axis=0)
            assert min(mid[0], mid[1], 1 - mid[0], 1 - mid[1]) < 1e-12


class TestBisection:
    def test_uniform_doubles_lshape(self):
        m = hm.lshape_initial()
        r = hm.refine_bisection(m, range(m.n_elements))
        assert r.n_elements == 12
        assert abs(r.total_area() - 3.0) < 1e-12
        hm.check_conformity(r)

    def test_empty_marks_identity(self):
        m = hm.lshape_initial()
        assert hm.refine_bisection(m, []) is m

    def test_single_mark_conforming_area_preserved(self):
        m = hm.unit_square_crisscross(1)
        r = hm.refine_bisection(m, [20])
        hm.check_conformity(r)
        assert abs(r.total_area() - 1.0) < 1e-12
        assert r.n_elements > m.n_elements

    def test_repeated_uniform_keeps_doubling(self):
        m = hm.lshape_initial()
        for expected in (12, 24, 48, 96):
            m = hm.refine_bisection(m, range(m.n_elements))
            assert m.n_elements == expected
            hm.check_conformity(m)
        assert abs(m.total_area() - 3.0) < 1e-12

    def test_boundary_tags_inherited(self):
        m = hm.lshape_initial()
        r = hm.refine_bisection(m, range(m.n_elements))
        r = hm.refine_bisection(r, [0, 5, 7])
        for i in np.nonzero(r.facet_tag != hm.INTERIOR)[0]:
            mid = r.vertices[r.facets[i]].mean(axis=0)
            on_outer = (abs(abs(mid[0]) - 1) < 1e-12
                        or abs(abs(mid[1]) - 1) < 1e-12)
            on_notch = (abs(mid[0]) < 1e-12 and mid[1] <= 0) \
                or (abs(mid[1]) < 1e-12 and mid[0] >= 0)
            assert on_outer or on_notch

    def test_region_inheritance(self):
        verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]])
        m = hm.Mesh(verts, np.array([[0, 1, 2], [0, 2, 3]]),
                    {(0, 1): "D", (1, 2): "D", (2, 3): "D", (0, 3): "D"},
                    region=np.array([0, 1]), nu={0: 1.0, 1: 2.0})
        r = hm.refine_bisection(m, [0, 1])
        assert set(r.nu.items()) == {(0, 1.0), (1, 2.0)}
        # area of each region preserved
        for reg in (0, 1):
            a0 = m.areas()[m.region == reg].sum()
            a1 = r.areas()[r.region == reg].sum()
            assert abs(a0 - a1) < 1e-14


class TestInvariantsAndFormat:
    def test_normals_point_outward_on_boundary(self):
        m = hm.unit_square_crisscross(0)
        for i in np.nonzero(m.facet_tag != hm.INTERIOR)[0]:
            mid = m.vertices[m.facets[i]].mean(axis=0)
            out = mid + 1e-3 * m.facet_normals[i]
            assert not (0 < out[0] < 1 and 0 < out[1] < 1)

    def test_normals_lower_to_higher_element(self):
        m = hm.unit_square_crisscross(0)
        interior = np.nonzero(m.facet_tag == hm.INTERIOR)[0]
        cent = m.vertices[m.elements].mean(axis=1)
        for i in interior:
            e0, e1 = m.facet_elems[i]
            assert e0 < e1
            d = cent[e1] - cent[e0]
            assert np.dot(d, m.facet_normals[i]) > 0

    def test_untagged_boundary_rejected(self):
        verts = np.array([[0, 0], [1, 0], [0, 1.0]])
        with pytest.raises(ValueError, match="untagged"):
            hm.Mesh(verts, np.array([[0, 1, 2]]), {(0, 1): "D", (1, 2): "D"})

    def test_needs_dirichlet(self):
        verts = np.array([[0, 0], [1, 0], [0, 1.0]])
        with pytest.raises(ValueError, match="Dirichlet"):
            hm.Mesh(verts, np.array([[0, 1, 2]]),
                    {(0, 1): "N", (1, 2): "N", (0, 2): "N"})

    def test_negative_area_rejected(self):
        verts = np.array([[0, 0], [1, 0], [0, 1.0]])
        with pytest.raises(ValueError, match="area"):
            hm.Mesh(verts, np.array([[0, 2, 1]]),
                    {(0, 1): "D", (1, 2): "D", (0, 2): "D"})

    def test_roundtrip(self, tmp_path):
        m = hm.refine_bisection(hm.lshape_initial(), [0, 3])
        path = tmp_path / "mesh.txt"
        hm.write_mesh(m, path)
        r = hm.read_mesh(path)
        assert np.array_equal(m.vertices, r.vertices)
        assert np.array_equal(m.elements, r.elements)
        assert np.array_equal(m.facet_tag, r.facet_tag)
        assert np.array_equal(m.region, r.region)

    def test_geometry_quantities(self):
        m = hm.lshape_initial()
        c1, c2 = poincare_constants(m)
        # right isosceles unit triangles: diameter sqrt(2), so C1 = sqrt(2)/pi
        assert np.abs(c1 - np.sqrt(2) / np.pi).max() < 1e-14
        # C2^2 = |e|/(2|K|) (h/pi) (2 reach + 2h/pi) with |K| = 1/2, h = sqrt(2);
        # a leg (|e| = 1) reaches sqrt(2) from the opposite vertex, the
        # hypotenuse (|e| = sqrt(2)) reaches 1
        v = m.vertices[m.elements]
        edge = np.linalg.norm(v[:, [1, 2, 0]] - v, axis=2)
        leg = 4.0 / np.pi * (1.0 + 1.0 / np.pi)
        hyp = 4.0 / np.pi * (1.0 + np.sqrt(2) / np.pi)
        expect = np.where(edge > 1.2, hyp, leg)
        assert np.abs(c2 ** 2 - expect).max() < 1e-14
