"""Mesh construction, refinement mechanics, and the plain-text format."""

import numpy as np
import pytest

from conftest import mixed_square
from hdgbounds import Bulk, builtin, mark, mesh as hm, run_pipeline
from hdgbounds.bounds import poincare_constants


SQUARE_VERTS = np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]])
SQUARE_ELEMS = np.array([[0, 1, 2], [0, 2, 3]])
SQUARE_TAGS = {(0, 1): "D", (1, 2): "D", (2, 3): "D", (0, 3): "D"}


def assert_same_mesh(got, want):
    """Bitwise-equal vertices, elements, regions and boundary tags."""
    for attr in ("vertices", "elements", "region"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr
    assert got.boundary_tag_dict() == want.boundary_tag_dict()


def _perturbed(level, seed, amp=0.2):
    """unit_square_crisscross(level) with interior vertices moved at random
    by up to amp times the grid pitch."""
    base = hm.unit_square_crisscross(level)
    v = base.vertices.copy()
    interior = np.all((v > 1e-12) & (v < 1.0 - 1e-12), axis=1)
    h = 0.5 ** (level + 1)
    v[interior] += np.random.default_rng(seed).uniform(
        -amp * h, amp * h, size=(int(interior.sum()), 2))
    return hm.Mesh(v, base.elements, base.boundary_tag_dict())


FACET_MESHES = {
    "perturbed0": lambda: _perturbed(0, 3),
    "perturbed1": lambda: _perturbed(1, 4),
    "lshape_refined": lambda: hm.refine_red(
        hm.refine_bisection(hm.lshape_initial(), [0, 3, 4]), [2, 7]),
}


def _facets_unique_rows(vertices, elements, boundary_tags):
    """Facet arrays of a mesh built with np.unique over vertex-pair rows and
    a loop over the facets for the tags, as Mesh did before packing the
    pairs into integer keys."""
    ne = len(elements)
    local = np.stack([elements[:, [0, 1]], elements[:, [1, 2]],
                      elements[:, [2, 0]]], axis=1)
    facets, inverse = np.unique(np.sort(local.reshape(-1, 2), axis=1), axis=0,
                                return_inverse=True)
    nf = len(facets)
    facet_elems = np.full((nf, 2), -1, dtype=np.int64)
    for e in range(ne):
        for f in inverse.reshape(ne, 3)[e]:
            facet_elems[f, 0 if facet_elems[f, 0] < 0 else 1] = e
    tags = np.zeros(nf, dtype=np.int8)
    for i in range(nf):
        tags[i] = boundary_tags.get((int(facets[i, 0]), int(facets[i, 1])),
                                    hm.INTERIOR)
    va, vb = vertices[facets[:, 0]], vertices[facets[:, 1]]
    d = vb - va
    n = np.column_stack([d[:, 1], -d[:, 0]])
    n /= np.linalg.norm(n, axis=1)[:, None]
    cent = vertices[elements[facet_elems[:, 0]]].mean(axis=1)
    n[np.sum(n * (0.5 * (va + vb) - cent), axis=1) < 0] *= -1.0
    return {"facets": facets, "elem_facets": inverse.reshape(ne, 3),
            "elem_facet_orient": local[:, :, 0] < local[:, :, 1],
            "facet_elems": facet_elems, "facet_tag": tags,
            "facet_normals": n}


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


def _refine_bisection_loop(mesh, marks):
    """refine_bisection as it was before it set up from the mesh's arrays:
    per-element tuples and an edge map seeded from every element's edges.
    The split order, and with it the numbering, must not change."""
    marks = hm._validate_marks(mesh, marks)
    if not marks:
        return mesh

    verts = [tuple(v) for v in mesh.vertices]
    elems = [tuple(int(v) for v in e) for e in mesh.elements]
    regions = [int(r) for r in mesh.region]
    alive = [True] * len(elems)
    tags = mesh.boundary_tag_dict()

    edge_map: dict[tuple[int, int], set[int]] = {}

    def edge_key(a, b):
        return (a, b) if a < b else (b, a)

    for k, e in enumerate(elems):
        for i in range(3):
            edge_map.setdefault(edge_key(e[i], e[(i + 1) % 3]), set()).add(k)

    mid_cache: dict[tuple[int, int], int] = {}

    def midpoint(key):
        m = mid_cache.get(key)
        if m is None:
            a, b = key
            m = len(verts)
            verts.append(((verts[a][0] + verts[b][0]) / 2.0,
                          (verts[a][1] + verts[b][1]) / 2.0))
            mid_cache[key] = m
            if key in tags:
                t = tags.pop(key)
                tags[edge_key(a, m)] = t
                tags[edge_key(m, b)] = t
        return m

    def longest_edge(k):
        e = elems[k]
        best = None
        for i in range(3):
            key = edge_key(e[i], e[(i + 1) % 3])
            l2 = ((verts[key[0]][0] - verts[key[1]][0]) ** 2
                  + (verts[key[0]][1] - verts[key[1]][1]) ** 2)
            if best is None or l2 > best[0] or (l2 == best[0] and key < best[1]):
                best = (l2, key)
        return best[1]

    def neighbor_across(k, key):
        for j in edge_map[key]:
            if j != k and alive[j]:
                return j
        return None

    def split_element(k, key, m):
        # parent rotated so the split edge comes first, children stay CCW
        e = elems[k]
        for i in range(3):
            if edge_key(e[i], e[(i + 1) % 3]) == key:
                va, vb, vc = e[i], e[(i + 1) % 3], e[(i + 2) % 3]
                break
        alive[k] = False
        for ek in [edge_key(e[i], e[(i + 1) % 3]) for i in range(3)]:
            edge_map[ek].discard(k)
        for child in ((va, m, vc), (m, vb, vc)):
            cid = len(elems)
            elems.append(child)
            regions.append(regions[k])
            alive.append(True)
            for i in range(3):
                edge_map.setdefault(edge_key(child[i], child[(i + 1) % 3]), set()).add(cid)

    def bisect(k):
        stack = [k]
        while stack:
            t = stack[-1]
            if not alive[t]:
                stack.pop()
                continue
            key = longest_edge(t)
            n = neighbor_across(t, key)
            if n is not None and longest_edge(n) != key:
                stack.append(n)
                continue
            m = midpoint(key)
            split_element(t, key, m)
            if n is not None:
                split_element(n, key, m)
            stack.pop()

    for k in marks:
        if alive[k]:
            bisect(k)

    keep = [i for i, a in enumerate(alive) if a]
    return hm.Mesh(np.array(verts), np.array([elems[i] for i in keep]), tags,
                region=np.array([regions[i] for i in keep]), nu=mesh.nu)


def _refine_red_loop(mesh, marks):
    """refine_red as it was before its closure became a worklist: a
    `while changed` loop that rescans every element on every pass."""
    marks = hm._validate_marks(mesh, marks)
    if not marks:
        return mesh

    elements = [tuple(int(v) for v in e) for e in mesh.elements]
    red = np.zeros(mesh.n_elements, dtype=bool)
    red[marks] = True

    def edges_of(e):
        return [tuple(sorted((e[i], e[(i + 1) % 3]))) for i in range(3)]

    split = set()
    for k in np.nonzero(red)[0]:
        split.update(edges_of(elements[k]))
    changed = True
    while changed:
        changed = False
        for k, e in enumerate(elements):
            if red[k]:
                continue
            hits = sum(1 for ed in edges_of(e) if ed in split)
            if hits >= 2:
                red[k] = True
                split.update(edges_of(e))
                changed = True

    verts = [tuple(v) for v in mesh.vertices]
    mid = {}
    for a, b in sorted(split):
        mid[(a, b)] = len(verts)
        va, vb = mesh.vertices[a], mesh.vertices[b]
        verts.append(((va[0] + vb[0]) / 2.0, (va[1] + vb[1]) / 2.0))

    new_elems, new_region = [], []

    def emit(tri, r):
        new_elems.append(tri)
        new_region.append(r)

    for k, (v0, v1, v2) in enumerate(elements):
        r = int(mesh.region[k])
        if red[k]:
            m01 = mid[tuple(sorted((v0, v1)))]
            m12 = mid[tuple(sorted((v1, v2)))]
            m20 = mid[tuple(sorted((v2, v0)))]
            emit((v0, m01, m20), r)
            emit((m01, v1, m12), r)
            emit((m20, m12, v2), r)
            emit((m01, m12, m20), r)
        else:
            hung = [ell for ell in range(3)
                    if tuple(sorted(((v0, v1, v2)[ell], (v0, v1, v2)[(ell + 1) % 3]))) in split]
            if not hung:
                emit((v0, v1, v2), r)
            else:
                ell = hung[0]
                tri = (v0, v1, v2)
                va, vb, vc = tri[ell], tri[(ell + 1) % 3], tri[(ell + 2) % 3]
                m = mid[tuple(sorted((va, vb)))]
                emit((va, m, vc), r)
                emit((m, vb, vc), r)

    tags = {}
    for (a, b), t in mesh.boundary_tag_dict().items():
        if (a, b) in mid:
            m = mid[(a, b)]
            tags[tuple(sorted((a, m)))] = t
            tags[tuple(sorted((m, b)))] = t
        else:
            tags[(a, b)] = t
    return hm.Mesh(np.array(verts), np.array(new_elems), tags,
                region=np.array(new_region), nu=mesh.nu)


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

    @pytest.mark.parametrize("make_mesh", [
        lambda: _perturbed(0, 1), lambda: _perturbed(1, 2),
        lambda: _perturbed(2, 3), hm.lshape_initial,
    ], ids=["perturbed0", "perturbed1", "perturbed2", "lshape"])
    def test_matches_loop_on_random_marks(self, make_mesh):
        rng = np.random.default_rng(11)
        mesh = make_mesh()
        for frac in (0.05, 0.3, 0.1, 0.2, 0.1):
            marks = rng.choice(mesh.n_elements, size=1 + int(frac * mesh.n_elements),
                               replace=False)
            got = hm.refine_red(mesh, marks)
            assert_same_mesh(got, _refine_red_loop(mesh, marks))
            mesh = got

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

    @pytest.mark.parametrize("level,seed", [(0, 1), (0, 2), (1, 3), (1, 4)])
    def test_matches_loop_on_random_marks(self, level, seed):
        rng = np.random.default_rng(seed)
        mesh = _perturbed(level, seed)
        for _ in range(4):
            marks = rng.choice(mesh.n_elements, size=1 + mesh.n_elements // 5,
                               replace=False)
            got = hm.refine_bisection(mesh, marks)
            assert_same_mesh(got, _refine_bisection_loop(mesh, marks))
            mesh = got

    def test_matches_loop_on_lshape_bulk_sequence(self):
        prob = builtin("example2_s1")
        mesh = prob.initial_mesh()
        for _ in range(12):
            res = run_pipeline(mesh, prob.data, prob.out, p=1)
            marks = mark(res.gap_elements, Bulk(0.5))
            got = hm.refine_bisection(mesh, marks)
            assert_same_mesh(got, _refine_bisection_loop(mesh, marks))
            mesh = got
        assert mesh.n_elements > 100

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

    @pytest.mark.parametrize("tags,message", [
        ({(0, 1): "D", (1, 2): "D"}, r"boundary facet \(0, 2\) is untagged"),
        ({**SQUARE_TAGS, (0, 2): "D"},
         r"interior facet \(0, 2\) carries a boundary tag"),
        ({**SQUARE_TAGS, (1, 3): "D"},
         r"tags reference non-facet vertex pairs: \[\(1, 3\)\]"),
        # -1 * 4 + 5 and 1 * 4 + 7 pack to the keys of facets (0, 1) and (2, 3)
        ({**SQUARE_TAGS, (-1, 5): "N"},
         r"tags reference non-facet vertex pairs: \[\(-1, 5\)\]"),
        ({**SQUARE_TAGS, (7, 1): "N"},
         r"tags reference non-facet vertex pairs: \[\(1, 7\)\]"),
        # the first offending facet in facet order is reported, whichever
        # of the two errors it is
        ({(0, 3): "D", (1, 2): "D", (2, 3): "D", (0, 2): "D"},
         r"boundary facet \(0, 1\) is untagged"),
        ({(0, 1): "D", (0, 3): "D", (1, 2): "D", (0, 2): "D"},
         r"interior facet \(0, 2\) carries a boundary tag"),
    ], ids=["untagged", "interior", "non_facet", "negative_alias",
            "too_large_alias", "first_untagged", "first_interior"])
    def test_untagged_boundary_rejected(self, tags, message):
        verts = SQUARE_VERTS if len(tags) > 2 else SQUARE_VERTS[[0, 1, 3]]
        elems = SQUARE_ELEMS if len(tags) > 2 else np.array([[0, 1, 2]])
        with pytest.raises(ValueError, match=message):
            hm.Mesh(verts, elems, tags)

    def test_elements_reference_existing_vertices(self):
        for bad in (-1, 4):
            with pytest.raises(ValueError, match="nonexistent vertices"):
                hm.Mesh(SQUARE_VERTS, np.array([[0, 1, 2], [0, 2, bad]]),
                        SQUARE_TAGS)

    @pytest.mark.parametrize("name", ["perturbed0", "perturbed1", "lshape_refined"])
    def test_facets_match_unique_rows_build(self, name):
        src = FACET_MESHES[name]()
        tags = src.boundary_tag_dict()
        mesh = hm.Mesh(src.vertices, src.elements, tags)
        ref = _facets_unique_rows(src.vertices, src.elements, tags)
        for attr, want in ref.items():
            got = getattr(mesh, attr)
            assert got.dtype == want.dtype, attr
            assert np.array_equal(got, want), attr

    @pytest.mark.parametrize("name", [*FACET_MESHES, "mixed_square"])
    def test_facet_sides(self, name):
        m = mixed_square(1) if name == "mixed_square" else FACET_MESHES[name]()
        f, s = np.nonzero(m.facet_elems >= 0)
        e, ell = m.facet_elems[f, s], m.facet_local_edge[f, s]
        assert np.array_equal(m.elem_facets[e, ell], f)
        # each (element, local edge) pair is the side of exactly one facet
        assert np.array_equal(np.sort(3 * e + ell), np.arange(3 * m.n_elements))
        assert np.array_equal(m.facet_local_edge < 0, m.facet_elems < 0)
        e0, e1 = m.facet_elems.T
        assert np.all(e0 >= 0) and np.all((e1 < 0) | (e0 < e1))

    @pytest.mark.parametrize("name", [*FACET_MESHES, "mixed_square"])
    def test_facet_sets_partition_by_tag(self, name):
        m = mixed_square(1) if name == "mixed_square" else FACET_MESHES[name]()
        sets = (m.interior_facets, m.dirichlet_facets, m.neumann_facets)
        assert np.array_equal(np.sort(np.concatenate(sets)),
                              np.arange(m.n_facets))
        for ids, tag in zip(sets, (hm.INTERIOR, hm.DIRICHLET, hm.NEUMANN)):
            assert np.all(np.diff(ids) > 0) and np.all(m.facet_tag[ids] == tag)
        assert len(m.neumann_facets) == (4 if name == "mixed_square" else 0)
        for arr in (m.facet_local_edge, *sets):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    def test_region_without_diffusivity_rejected(self):
        # element_nu has no value for the elements of a region nu leaves out
        with pytest.raises(ValueError, match="region 1 has no diffusivity"):
            hm.Mesh(SQUARE_VERTS, SQUARE_ELEMS, SQUARE_TAGS, region=[0, 1],
                    nu={0: 1.0})
        m = hm.Mesh(SQUARE_VERTS, SQUARE_ELEMS, SQUARE_TAGS, region=[0, 1],
                    nu={0: 1.0, 1: 4.0, 2: 9.0})
        assert np.array_equal(m.element_nu(), [1.0, 4.0])

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
