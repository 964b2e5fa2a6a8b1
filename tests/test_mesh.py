"""Mesh construction, refinement mechanics, and the plain-text format."""

import numpy as np
import pytest

from conftest import mixed_square, perturbed_crisscross
from hdgbounds import Bulk, Workspace, builtin, mark, mesh as hm, run_pipeline
from hdgbounds.bounds import poincare_constants


SQUARE_VERTS = np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]])
SQUARE_ELEMS = np.array([[0, 1, 2], [0, 2, 3]])
SQUARE_TAGS = {(0, 1): "D", (1, 2): "D", (2, 3): "D", (0, 3): "D"}


def check_conformity(mesh):
    """Re-assert the structural mesh invariants; raises on violation.

    Construction already guarantees all of them; the refinement tests call
    this on their outputs as an independent audit.
    """
    if np.any(mesh.areas() <= 0):
        raise AssertionError("non-positive element area")
    interior = mesh.facet_tag == hm.INTERIOR
    if np.any(mesh.facet_elems[interior, 1] < 0):
        raise AssertionError("interior facet with a single adjacent element")
    if np.any(mesh.facet_elems[~interior, 1] >= 0):
        raise AssertionError("boundary-tagged facet with two adjacent elements")
    used = np.unique(mesh.elements)
    if len(used) != mesh.n_vertices:
        raise AssertionError("mesh contains vertices not used by any element")


def assert_same_mesh(got, want):
    """Bitwise-equal vertices, elements, regions and boundary tags."""
    for attr in ("vertices", "elements", "region"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr
    assert got.boundary_tag_dict() == want.boundary_tag_dict()


def _geometry(mesh):
    """A mesh as numbering-free data: its vertex coordinates, each triangle's
    vertex coordinates with its region, and each boundary facet's endpoint
    coordinates with its tag, every list sorted."""
    v = mesh.vertices.tolist()
    tris = [(*sorted(v[i] for i in e), r)
            for e, r in zip(mesh.elements.tolist(), mesh.region.tolist())]
    tags = [(*sorted((v[a], v[b])), t)
            for (a, b), t in mesh.boundary_tag_dict().items()]
    return sorted(v), sorted(tris), sorted(tags), mesh.nu


def assert_same_geometry(got, want):
    """The same triangles, regions and boundary tags, however numbered."""
    check_conformity(got)
    for name, a, b in zip(("vertices", "triangles", "tags", "nu"),
                          _geometry(got), _geometry(want)):
        assert a == b, name


def _isosceles_strip(n=4):
    """n upward and n - 1 downward triangles in a row, each with base 1 and
    apex height 1, so that its two other sides are exactly equally long;
    region 1 right of x = 2."""
    verts = [(float(i), 0.0) for i in range(n + 1)] + [(i + 0.5, 1.0) for i in range(n)]
    elems = ([(i, i + 1, n + 1 + i) for i in range(n)]
             + [(i + 1, n + 2 + i, n + 1 + i) for i in range(n - 1)])
    tags = {(0, n + 1): "D", (n, 2 * n): "N"}
    tags.update({(i, i + 1): "D" for i in range(n)})
    tags.update({(n + 1 + i, n + 2 + i): "N" for i in range(n - 1)})
    region = [int(verts[e[2]][0] > 2.0) for e in elems]
    return hm.Mesh(np.array(verts), np.array(elems), tags, region=region,
                   nu={0: 1.0, 1: 3.0})


def _renumbered(mesh, rng):
    """The same mesh with its vertices and elements numbered at random and
    each element's vertices rotated at random, and the new index of each
    element."""
    pv, pe = rng.permutation(mesh.n_vertices), rng.permutation(mesh.n_elements)
    verts = np.empty_like(mesh.vertices)
    verts[pv] = mesh.vertices
    turn = (rng.integers(0, 3, mesh.n_elements)[:, None] + np.arange(3)) % 3
    elems = np.empty_like(mesh.elements)
    elems[pe] = np.take_along_axis(pv[mesh.elements], turn, axis=1)
    region = np.empty_like(mesh.region)
    region[pe] = mesh.region
    tags = {(int(pv[a]), int(pv[b])): t
            for (a, b), t in mesh.boundary_tag_dict().items()}
    return hm.Mesh(verts, elems, tags, region=region, nu=mesh.nu), pe


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


def _crisscross_loop(levels):
    """unit_square_crisscross as it was before it was built from index
    arrays: a loop over the squares."""
    n = 2 ** (levels + 1)
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = [(x, y) for y in xs for x in xs]
    elems = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            b = a + 1
            c = b + n + 1
            d = a + n + 1
            m = len(verts)
            verts.append(((xs[i] + xs[i + 1]) / 2.0, (xs[j] + xs[j + 1]) / 2.0))
            elems += [(a, b, m), (b, c, m), (c, d, m), (d, a, m)]
    tags = {}
    for i in range(n):
        tags[(i, i + 1)] = "D"                                      # y = 0
        tags[(n * (n + 1) + i, n * (n + 1) + i + 1)] = "D"          # y = 1
        tags[(i * (n + 1), (i + 1) * (n + 1))] = "D"                # x = 0
        tags[((i + 1) * (n + 1) - 1, (i + 2) * (n + 1) - 1)] = "D"  # x = 1
    return hm.Mesh(np.array(verts), np.array(elems), tags)


def _mixed_refined(refine, rounds, seed):
    """mixed_square(0), with its Neumann side, refined at random marks."""
    rng = np.random.default_rng(seed)
    m = mixed_square(0)
    for _ in range(rounds):
        m = refine(m, rng.choice(m.n_elements, 1 + m.n_elements // 4,
                                 replace=False))
    return m


REFERENCE_MESHES = {
    **FACET_MESHES,
    **{f"crisscross{level}": (lambda level=level: hm.unit_square_crisscross(level))
       for level in range(6)},
    "mixed_bisection": lambda: _mixed_refined(hm.refine_bisection, 6, 12),
    "mixed_red": lambda: _mixed_refined(hm.refine_red, 3, 13),
}


def _facets_unique_rows(vertices, elements, boundary_tags):
    """Facet arrays of a mesh built with np.unique over vertex-pair rows, a
    loop over the facets for the tags, and normals flipped away from the
    centroid of side 0, as Mesh did before it packed the pairs into integer
    keys and read the normals' sign off elem_facet_orient."""
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
    check_conformity(m)


def test_crisscross_rejects_negative_level():
    with pytest.raises(ValueError):
        hm.unit_square_crisscross(-1)


def test_lshape_initial():
    m = hm.lshape_initial()
    assert m.n_elements == 6
    assert abs(m.total_area() - 3.0) < 1e-14
    assert any(np.all(v == [0.0, 0.0]) for v in m.vertices)
    check_conformity(m)


def _refine_bisection_recursive(mesh, marks):
    """refine_bisection as it was before it ran in closure rounds: Rivara's
    recursion over per-element lists, an edge map of sets and one split per
    element.  Its tie-break is geometric, as in the array code: of equally
    long edges, the one with the lexicographically smallest midpoint."""
    marks = hm._validate_marks(mesh, marks).tolist()
    if not marks:
        return mesh

    verts = mesh.vertices.tolist()
    elems = mesh.elements.tolist()
    regions = mesh.region.tolist()
    alive = [True] * len(elems)
    tags = mesh.boundary_tag_dict()

    # the alive elements on each edge, keyed by sorted vertex pair
    edge_map: dict[tuple[int, int], set[int]] = {
        (a, b): {e0} if e1 < 0 else {e0, e1}
        for (a, b), (e0, e1) in zip(mesh.facets.tolist(), mesh.facet_elems.tolist())}

    def edge_key(a, b):
        return (a, b) if a < b else (b, a)

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
            mid = ((verts[key[0]][0] + verts[key[1]][0]) / 2.0,
                   (verts[key[0]][1] + verts[key[1]][1]) / 2.0)
            if best is None or l2 > best[0] or (l2 == best[0] and mid < best[1]):
                best = (l2, mid, key)
        return best[2]

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
    if not len(marks):
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
        check_conformity(r)

    def test_empty_marks_identity(self):
        m = hm.unit_square_crisscross(0)
        assert hm.refine_red(m, []) is m

    def test_partial_marks_conforming(self):
        two = hm.Mesh(np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]]),
                      np.array([[0, 1, 2], [0, 2, 3]]),
                      {(0, 1): "D", (1, 2): "D", (2, 3): "D", (0, 3): "D"})
        r = hm.refine_red(two, [0])
        check_conformity(r)
        assert abs(r.total_area() - two.total_area()) < 1e-14

    def test_bad_marks_rejected(self):
        m = hm.unit_square_crisscross(0)
        with pytest.raises(ValueError):
            hm.refine_red(m, [99])

    @pytest.mark.parametrize("make_mesh", [
        lambda: _perturbed(0, 1), lambda: _perturbed(1, 2),
        lambda: _perturbed(2, 3), hm.lshape_initial, lambda: mixed_square(1),
    ], ids=["perturbed0", "perturbed1", "perturbed2", "lshape", "mixed"])
    def test_matches_loop_on_random_marks(self, make_mesh):
        # mixed_square's Neumann tags pass to the halves of its split facets
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


@pytest.mark.parametrize("refine", [hm.refine_red, hm.refine_bisection],
                         ids=["red", "bisection"])
class TestMarks:
    @pytest.mark.parametrize("marks", [[1.5], [0, np.nan], [True], ["1"]])
    def test_non_integer_marks_rejected(self, refine, marks):
        # int() would truncate 1.5 and refine element 1
        with pytest.raises(ValueError, match="integer-valued"):
            refine(hm.lshape_initial(), marks)

    @pytest.mark.parametrize("marks", [[6], [-1], [np.inf]])
    def test_marks_out_of_range_rejected(self, refine, marks):
        with pytest.raises(ValueError, match="nonexistent elements"):
            refine(hm.lshape_initial(), marks)

    def test_integer_valued_floats_accepted(self, refine):
        m = hm.lshape_initial()
        assert_same_mesh(refine(m, np.array([4.0, 1.0, 4.0])), refine(m, [1, 4]))


class TestBisection:
    def test_uniform_doubles_lshape(self):
        m = hm.lshape_initial()
        r = hm.refine_bisection(m, range(m.n_elements))
        assert r.n_elements == 12
        assert abs(r.total_area() - 3.0) < 1e-12
        check_conformity(r)

    def test_empty_marks_identity(self):
        m = hm.lshape_initial()
        assert hm.refine_bisection(m, []) is m

    def test_single_mark_conforming_area_preserved(self):
        m = hm.unit_square_crisscross(1)
        r = hm.refine_bisection(m, [20])
        check_conformity(r)
        assert abs(r.total_area() - 1.0) < 1e-12
        assert r.n_elements > m.n_elements

    def test_repeated_uniform_keeps_doubling(self):
        m = hm.lshape_initial()
        for expected in (12, 24, 48, 96):
            m = hm.refine_bisection(m, range(m.n_elements))
            assert m.n_elements == expected
            check_conformity(m)
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

    @pytest.mark.parametrize("make_mesh,seed", [
        (lambda: _perturbed(0, 1), 1), (lambda: _perturbed(0, 2), 2),
        (lambda: _perturbed(1, 3), 3), (lambda: _perturbed(1, 4), 4),
        (_isosceles_strip, 5), (_isosceles_strip, 6),
    ], ids=["perturbed0-1", "perturbed0-2", "perturbed1-3", "perturbed1-4",
            "isosceles-5", "isosceles-6"])
    def test_matches_recursive_on_random_marks(self, make_mesh, seed):
        rng = np.random.default_rng(seed)
        mesh = make_mesh()
        for _ in range(4):
            marks = rng.choice(mesh.n_elements, size=1 + mesh.n_elements // 5,
                               replace=False)
            got = hm.refine_bisection(mesh, marks)
            assert_same_geometry(got, _refine_bisection_recursive(mesh, marks))
            mesh = got

    @pytest.mark.parametrize("make_mesh", [hm.lshape_initial, _isosceles_strip],
                             ids=["lshape", "isosceles"])
    def test_matches_recursive_on_uniform_refinement(self, make_mesh):
        mesh = make_mesh()
        for _ in range(5):
            got = hm.refine_bisection(mesh, range(mesh.n_elements))
            assert_same_geometry(
                got, _refine_bisection_recursive(mesh, range(mesh.n_elements)))
            mesh = got

    def test_matches_recursive_on_lshape_bulk_sequence(self):
        prob = builtin("example2_s1")
        mesh = prob.initial_mesh()
        for _ in range(12):
            res = run_pipeline(mesh, prob.data, prob.out, p=1)
            marks = mark(res.gap_elements, Bulk(0.5))
            got = hm.refine_bisection(mesh, marks)
            assert_same_geometry(got, _refine_bisection_recursive(mesh, marks))
            mesh = got
        assert mesh.n_elements > 100

    def test_ties_go_to_the_smallest_midpoint(self):
        # both long sides are exactly sqrt(1.25) long; the right one has the
        # smaller vertex pair (0, 1), the left one the smaller midpoint
        verts = np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 0.0]])
        m = hm.Mesh(verts, np.array([[2, 0, 1]]),
                    {(0, 2): "D", (0, 1): "D", (1, 2): "D"})
        r = hm.refine_bisection(m, [0])
        assert r.n_elements == 2
        assert r.vertices[-1].tolist() == [0.25, 0.5]

    @pytest.mark.parametrize("make_mesh,seed", [
        (lambda: _perturbed(1, 7), 7), (_isosceles_strip, 8),
        (hm.lshape_initial, 9)], ids=["perturbed1", "isosceles", "lshape"])
    def test_invariant_under_renumbering(self, make_mesh, seed):
        rng = np.random.default_rng(seed)
        mesh = make_mesh()
        for _ in range(4):
            marks = rng.choice(mesh.n_elements, size=1 + mesh.n_elements // 4,
                               replace=False)
            other, new_index = _renumbered(mesh, rng)
            got = hm.refine_bisection(mesh, marks)
            assert_same_geometry(hm.refine_bisection(other, new_index[marks]), got)
            mesh = got

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
        # a tag must be D or N: 7 used to leave its facet in no facet set,
        # 2.5 to be truncated to Neumann, 0 to make the facet "interior"
        *[({**SQUARE_TAGS, (1, 2): bad},
           rf"boundary facet \(1, 2\) has tag {bad!r} \(expected 'D', 'N', 1 or 2\)")
          for bad in (7, 2.5, 0, "X")],
        # the same facet under both orders of its vertex pair
        ({**SQUARE_TAGS, (3, 2): "N"}, r"facet \(2, 3\) is tagged twice"),
        *[({**SQUARE_TAGS, key: "D"}, "boundary_tags must be keyed by vertex pairs")
          for key in ((0, 1, 2), 5)],
    ], ids=["untagged", "interior", "non_facet", "negative_alias",
            "too_large_alias", "first_untagged", "first_interior",
            "tag_7", "tag_2.5", "tag_0", "tag_X", "tagged_twice", "triple",
            "scalar"])
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

    def test_unused_vertex_rejected(self):
        # its Lagrange node would average over no element: 0 / 0
        verts = np.vstack([SQUARE_VERTS[:2], [[0.5, 0.5]], SQUARE_VERTS[2:]])
        with pytest.raises(ValueError, match="vertex 2 is used by no element"):
            hm.Mesh(verts, np.array([[0, 1, 3], [0, 3, 4]]),
                    {(0, 1): "D", (1, 3): "D", (3, 4): "D", (0, 4): "D"})

    @pytest.mark.parametrize("level", range(6))
    def test_crisscross_matches_loop_build(self, level):
        assert_same_mesh(hm.unit_square_crisscross(level), _crisscross_loop(level))

    @pytest.mark.parametrize("name", REFERENCE_MESHES)
    def test_facets_match_unique_rows_build(self, name, tmp_path):
        # bit for bit, as built and after a write_mesh / read_mesh round trip
        mesh = REFERENCE_MESHES[name]()
        hm.write_mesh(mesh, tmp_path / "mesh.txt")
        read = hm.read_mesh(tmp_path / "mesh.txt", nu=mesh.nu)
        assert_same_mesh(read, mesh)
        for m in (mesh, read):
            ref = _facets_unique_rows(m.vertices, m.elements,
                                      m.boundary_tag_dict())
            for attr, want in ref.items():
                got = getattr(m, attr)
                assert got.dtype == want.dtype and got.shape == want.shape, attr
                assert got.tobytes() == want.tobytes(), attr

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

    @pytest.mark.parametrize("nu", [0.0, -1.0, np.inf, np.nan])
    def test_diffusivity_positive_and_finite(self, nu):
        # an infinite nu used to pass here and fail in the skeleton solve
        with pytest.raises(ValueError, match="diffusivity must be positive "
                           "and finite"):
            hm.Mesh(SQUARE_VERTS, SQUARE_ELEMS, SQUARE_TAGS, nu={0: nu})

    def test_tag_codes_accepted(self):
        coded = {k: hm.DIRICHLET for k in SQUARE_TAGS} | {(0, 3): hm.NEUMANN}
        named = {**SQUARE_TAGS, (0, 3): "N"}
        assert (hm.Mesh(SQUARE_VERTS, SQUARE_ELEMS, coded).boundary_tag_dict()
                == hm.Mesh(SQUARE_VERTS, SQUARE_ELEMS, named).boundary_tag_dict())

    def test_region_without_diffusivity_rejected(self):
        # element_nu has no value for the elements of a region nu leaves out
        with pytest.raises(ValueError, match="region 1 has no diffusivity"):
            hm.Mesh(SQUARE_VERTS, SQUARE_ELEMS, SQUARE_TAGS, region=[0, 1],
                    nu={0: 1.0})
        m = hm.Mesh(SQUARE_VERTS, SQUARE_ELEMS, SQUARE_TAGS, region=[0, 1],
                    nu={0: 1.0, 1: 4.0, 2: 9.0})
        assert np.array_equal(m.element_nu(), [1.0, 4.0])

    @pytest.mark.parametrize("region", [[0], [0, 0, 0], [[0], [0]]])
    def test_region_of_wrong_shape_rejected(self, region):
        # one entry per element, or element_nu fails later inside Workspace
        with pytest.raises(ValueError, match=r"region must have one entry "
                           r"per element: shape \(\d+(, \d+)?,?\), expected \(2,\)"):
            hm.Mesh(SQUARE_VERTS, SQUARE_ELEMS, SQUARE_TAGS, region=region)

    def test_needs_dirichlet(self):
        verts = np.array([[0, 0], [1, 0], [0, 1.0]])
        with pytest.raises(ValueError, match="Dirichlet"):
            hm.Mesh(verts, np.array([[0, 1, 2]]),
                    {(0, 1): "N", (1, 2): "N", (0, 2): "N"})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_rejected(self, bad):
        # a NaN area would pass an `area <= 0` test
        verts = SQUARE_VERTS.copy()
        verts[2, 1] = bad
        with pytest.raises(ValueError, match="vertex 2 has a non-finite"):
            hm.Mesh(verts, SQUARE_ELEMS, SQUARE_TAGS)

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

    def test_write_matches_per_line_format(self, tmp_path):
        # one line per vertex, element and boundary facet, each written on
        # its own; coordinates as float repr, so they survive a round trip
        base = mixed_square(1)
        mesh = perturbed_crisscross(amp=0.03, seed=3, base=hm.Mesh(
            base.vertices / 3.0, base.elements, base.boundary_tag_dict(),
            region=np.arange(base.n_elements) % 3))
        ref = tmp_path / "ref.txt"
        btags = [(int(a), int(b), "DN"[int(t) - 1])
                 for (a, b), t in sorted(mesh.boundary_tag_dict().items())]
        with open(ref, "w") as fh:
            fh.write(f"{mesh.n_vertices} {mesh.n_elements} {len(btags)}\n")
            for x, y in mesh.vertices:
                fh.write(f"{float(x)!r} {float(y)!r}\n")
            for (v0, v1, v2), r in zip(mesh.elements, mesh.region):
                fh.write(f"{v0} {v1} {v2} {r}\n")
            for a, b, t in btags:
                fh.write(f"{a} {b} {t}\n")
        hm.write_mesh(mesh, tmp_path / "mesh.txt")
        assert "N" in ref.read_text() and "0.1" in ref.read_text()
        assert (tmp_path / "mesh.txt").read_bytes() == ref.read_bytes()

    def test_geometry_quantities(self):
        m = hm.lshape_initial()
        c1, c2 = poincare_constants(Workspace(m, 0))
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
