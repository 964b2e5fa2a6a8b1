"""Conforming triangular meshes, the built-in initial meshes, and the two
refinement mechanisms (red with green closure, recursive longest-edge
bisection).

A mesh is immutable after construction; refinement returns a new mesh.
Facets are derived from the element list.  Each facet is stored with its
vertex pair in increasing index order; that order defines the canonical
arclength parameterization used for all trace polynomials.  Side s of
facet f is element facet_elems[f, s] through its local edge
facet_local_edge[f, s] (-1 where there is none); side 0 is the
lower-indexed element, and the stored facet normal points out of it
(outward on the boundary).  interior_facets, dirichlet_facets and
neumann_facets list the facets of each tag.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "Mesh",
    "unit_square_crisscross",
    "lshape_initial",
    "refine_red",
    "refine_bisection",
    "check_conformity",
    "write_mesh",
    "read_mesh",
]

INTERIOR, DIRICHLET, NEUMANN = 0, 1, 2
_TAG_CHARS = {DIRICHLET: "D", NEUMANN: "N"}
_CHAR_TAGS = {"D": DIRICHLET, "N": NEUMANN}


class Mesh:
    """Conforming triangulation with tagged boundary facets and per-region
    diffusivity.

    Parameters
    ----------
    vertices : (nv, 2) float array
    elements : (ne, 3) int array, counter-clockwise vertex triples
    boundary_tags : dict mapping a sorted vertex pair (a, b) to 'D' or 'N'
    region : (ne,) int array, optional (defaults to region 0)
    nu : dict region id -> diffusivity, optional (defaults to 1.0)
    """

    def __init__(self, vertices, elements, boundary_tags, region=None, nu=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.elements = np.ascontiguousarray(elements, dtype=np.int64)
        if self.elements.ndim != 2 or self.elements.shape[1] != 3:
            raise ValueError("elements must be an (ne, 3) array")
        if self.elements.size and (self.elements.min() < 0
                                   or self.elements.max() >= len(self.vertices)):
            raise ValueError("elements reference nonexistent vertices")
        self.region = (np.zeros(len(self.elements), dtype=np.int64)
                       if region is None else np.ascontiguousarray(region, dtype=np.int64))
        if self.region.shape != (len(self.elements),):
            raise ValueError(f"region must have one entry per element: shape "
                             f"{self.region.shape}, expected ({len(self.elements)},)")
        self.nu = dict(nu) if nu else {int(r): 1.0 for r in np.unique(self.region)}
        for r, val in self.nu.items():
            if not val > 0:
                raise ValueError(f"diffusivity must be positive, got nu[{r}] = {val}")
        missing = sorted(set(np.unique(self.region).tolist()) - set(self.nu))
        if missing:
            raise ValueError(f"region {missing[0]} has no diffusivity in nu")

        v = self.vertices[self.elements]
        area2 = ((v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
                 - (v[:, 1, 1] - v[:, 0, 1]) * (v[:, 2, 0] - v[:, 0, 0]))
        if np.any(area2 <= 0):
            bad = int(np.argmin(area2))
            raise ValueError(f"element {bad} has non-positive signed area")
        self._area = area2 / 2.0

        self._build_facets(boundary_tags)
        for arr in (self.vertices, self.elements, self.region, self.facets,
                    self.facet_elems, self.facet_local_edge, self.facet_tag,
                    self.interior_facets, self.dirichlet_facets,
                    self.neumann_facets, self.elem_facets,
                    self.elem_facet_orient, self.facet_normals):
            arr.setflags(write=False)

    # -- construction -----------------------------------------------------

    def _build_facets(self, boundary_tags):
        ne, nv = len(self.elements), len(self.vertices)
        local = np.stack([self.elements[:, [0, 1]],
                          self.elements[:, [1, 2]],
                          self.elements[:, [2, 0]]], axis=1)  # (ne, 3, 2)
        pairs = np.sort(local.reshape(-1, 2), axis=1)
        # a sorted pair (a, b) packs into a * nv + b, which orders the pairs
        # lexicographically, as np.unique(pairs, axis=0) would
        keys, inverse = np.unique(pairs[:, 0] * nv + pairs[:, 1],
                                  return_inverse=True)
        facets = np.column_stack([keys // nv, keys % nv])
        nf = len(facets)
        self.facets = facets
        self.elem_facets = inverse.reshape(ne, 3)
        self.elem_facet_orient = (local[:, :, 0] < local[:, :, 1])

        count = np.bincount(inverse, minlength=nf)
        if count.max() > 2:
            raise ValueError("facet shared by more than two elements")
        # the stable sort keeps the (element, local edge) order: side 0 is
        # the lower-indexed element
        order = np.argsort(inverse, kind="stable")
        sorted_f = inverse[order]
        first = np.ones(len(sorted_f), dtype=bool)
        first[1:] = sorted_f[1:] != sorted_f[:-1]
        facet_elems = np.full((nf, 2), -1, dtype=np.int64)
        facet_local_edge = np.full((nf, 2), -1, dtype=np.int64)
        for side, sel in enumerate((first, ~first)):
            facet_elems[sorted_f[sel], side] = order[sel] // 3
            facet_local_edge[sorted_f[sel], side] = order[sel] % 3
        self.facet_elems = facet_elems
        self.facet_local_edge = facet_local_edge

        tag_map = {tuple(sorted(k)): _CHAR_TAGS[t] if isinstance(t, str) else int(t)
                   for k, t in boundary_tags.items()}
        tag_keys = np.array([_packed_key(k, nv) for k in tag_map], dtype=np.int64)
        pos = np.minimum(np.searchsorted(keys, tag_keys), nf - 1)
        found = (tag_keys >= 0) & (keys[pos] == tag_keys)
        tags = np.zeros(nf, dtype=np.int8)
        tags[pos[found]] = np.array(list(tag_map.values()), dtype=np.int8)[found]
        tagged = np.zeros(nf, dtype=bool)
        tagged[pos[found]] = True
        # the first facet, in facet order, whose tag disagrees with its side count
        bad = np.flatnonzero(tagged != (facet_elems[:, 1] < 0))
        if len(bad):
            key = (int(facets[bad[0], 0]), int(facets[bad[0], 1]))
            if tagged[bad[0]]:
                raise ValueError(f"interior facet {key} carries a boundary tag")
            raise ValueError(
                f"boundary facet {key} is untagged (non-conforming mesh or missing tag)")
        if not found.all():
            stray = sorted(k for k, hit in zip(tag_map, found) if not hit)
            raise ValueError(f"tags reference non-facet vertex pairs: {stray}")
        if not np.any(tags == DIRICHLET):
            raise ValueError("the Dirichlet boundary must be non-empty")
        self.facet_tag = tags
        self.interior_facets = np.flatnonzero(tags == INTERIOR)
        self.dirichlet_facets = np.flatnonzero(tags == DIRICHLET)
        self.neumann_facets = np.flatnonzero(tags == NEUMANN)

        # normals: out of the lower-indexed adjacent element
        va = self.vertices[facets[:, 0]]
        vb = self.vertices[facets[:, 1]]
        d = vb - va
        n = np.column_stack([d[:, 1], -d[:, 0]])
        n /= np.linalg.norm(n, axis=1)[:, None]
        cent = self.vertices[self.elements[facet_elems[:, 0]]].mean(axis=1)
        flip = np.sum(n * (0.5 * (va + vb) - cent), axis=1) < 0
        n[flip] *= -1.0
        self.facet_normals = n

    # -- queries -----------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def n_facets(self):
        return len(self.facets)

    def areas(self):
        return self._area

    def total_area(self):
        return float(self._area.sum())

    def element_nu(self):
        out = np.empty(self.n_elements)
        for r, val in self.nu.items():
            out[self.region == r] = val
        return out

    def boundary_tag_dict(self):
        """Boundary tags keyed by sorted vertex pair, for refiners."""
        b = self.facet_tag != INTERIOR
        return dict(zip(map(tuple, self.facets[b].tolist()),
                        self.facet_tag[b].tolist()))


def _packed_key(pair, nv: int) -> int:
    """a * nv + b for a sorted pair (a, b) of vertex indices in [0, nv), or
    -1: any other pair names no facet, and packing it could alias one."""
    if len(pair) == 2 and all(isinstance(v, numbers.Real) and 0 <= v < nv
                              and v == int(v) for v in pair):
        return int(pair[0]) * nv + int(pair[1])
    return -1


def check_conformity(mesh: Mesh) -> None:
    """Re-assert the structural mesh invariants; raises on violation.

    Construction already guarantees these; refinement tests call this on
    their outputs as an independent audit.
    """
    if np.any(mesh.areas() <= 0):
        raise AssertionError("non-positive element area")
    interior = mesh.facet_tag == INTERIOR
    if np.any(mesh.facet_elems[interior, 1] < 0):
        raise AssertionError("interior facet with a single adjacent element")
    if np.any(mesh.facet_elems[~interior, 1] >= 0):
        raise AssertionError("boundary-tagged facet with two adjacent elements")
    used = np.unique(mesh.elements)
    if len(used) != mesh.n_vertices:
        raise AssertionError("mesh contains vertices not used by any element")


# ---------------------------------------------------------------------------
# Built-in initial meshes
# ---------------------------------------------------------------------------

def unit_square_crisscross(levels: int = 0) -> Mesh:
    """Structured mesh of (0,1)^2: a 2^(levels+1) x 2^(levels+1) grid of
    squares, each split into 4 triangles by both diagonals.  Level 0 is the
    16-triangle, 28-edge mesh; each further level divides every triangle
    into four similar triangles (the grid pitch halves).  All boundary
    Dirichlet.
    """
    if levels < 0:
        raise ValueError("levels must be non-negative")
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
    return Mesh(np.array(verts), np.array(elems), tags)


def lshape_initial() -> Mesh:
    """L-shaped domain [-1,1]^2 minus (0,1)x(-1,0): three unit squares, each
    split by its diagonal along the (1,1) direction (all diagonals parallel;
    two of them meet the re-entrant corner (0,0)).  All boundary Dirichlet.
    """
    verts = np.array([
        [-1.0, -1.0], [0.0, -1.0],
        [-1.0, 0.0], [0.0, 0.0], [1.0, 0.0],
        [-1.0, 1.0], [0.0, 1.0], [1.0, 1.0],
    ])
    elems = np.array([
        [0, 1, 3], [0, 3, 2],      # lower-left square
        [2, 3, 6], [2, 6, 5],      # upper-left square
        [3, 4, 7], [3, 7, 6],      # upper-right square
    ])
    tags = {(0, 1): "D", (0, 2): "D", (1, 3): "D", (2, 5): "D",
            (5, 6): "D", (6, 7): "D", (4, 7): "D", (3, 4): "D"}
    return Mesh(verts, elems, tags)


# ---------------------------------------------------------------------------
# Red refinement with green closure
# ---------------------------------------------------------------------------

def _validate_marks(mesh, marks):
    marks = sorted(set(int(m) for m in marks))
    if marks and (marks[0] < 0 or marks[-1] >= mesh.n_elements):
        raise ValueError("mark set references nonexistent elements")
    return marks


def refine_red(mesh: Mesh, marks) -> Mesh:
    """Subdivide each marked triangle into 4 similar children; restore
    conformity with red propagation and green bisection on neighbors.

    An element with two or more split edges turns red too.  The closure
    grows wave by wave, testing only the neighbors of the elements that
    turned red in the last wave; its least fixed point does not depend on
    the order, so neither does the mesh.
    """
    marks = _validate_marks(mesh, marks)
    if not marks:
        return mesh

    ef, fe = mesh.elem_facets, mesh.facet_elems
    red = np.zeros(mesh.n_elements, dtype=bool)
    split = np.zeros(mesh.n_facets, dtype=bool)
    front = np.array(marks)
    while front.size:
        red[front] = True
        split[ef[front]] = True
        near = fe[ef[front]].ravel()
        near = np.unique(near[near >= 0])
        near = near[~red[near]]
        front = near[split[ef[near]].sum(axis=1) >= 2]

    # split facets get new vertices in facet (sorted vertex pair) order
    nv = mesh.n_vertices
    mid = np.full(mesh.n_facets, -1, dtype=np.int64)
    mid[split] = nv + np.arange(np.count_nonzero(split))
    a, b = mesh.facets[split].T
    verts = np.concatenate([mesh.vertices,
                            (mesh.vertices[a] + mesh.vertices[b]) / 2.0])

    # children in element order: 4 for red, 2 for green (one hung edge), 1 else
    el, m, hung = mesh.elements, mid[ef], split[ef]          # m[k, l]: edge (v_l, v_l+1)
    nchild = np.where(red, 4, np.where(hung.any(axis=1), 2, 1))
    first = np.cumsum(nchild) - nchild
    new_elems = np.empty((int(nchild.sum()), 3), dtype=np.int64)
    one = nchild == 1
    new_elems[first[one]] = el[one]
    (v0, v1, v2), (m01, m12, m20) = el[red].T, m[red].T
    for i, child in enumerate(((v0, m01, m20), (m01, v1, m12),
                               (m20, m12, v2), (m01, m12, m20))):
        new_elems[first[red] + i] = np.column_stack(child)
    green = np.flatnonzero(nchild == 2)
    ell = hung[green].argmax(axis=1)
    va, vb, vc = (el[green, (ell + i) % 3] for i in range(3))
    mg = m[green, ell]
    new_elems[first[green]] = np.column_stack([va, mg, vc])
    new_elems[first[green] + 1] = np.column_stack([mg, vb, vc])

    tags = {}
    bnd = np.flatnonzero(mesh.facet_tag != INTERIOR)
    for (a, b), t, mf in zip(mesh.facets[bnd].tolist(),
                             mesh.facet_tag[bnd].tolist(), mid[bnd].tolist()):
        if mf < 0:
            tags[(a, b)] = t
        else:
            tags[(a, mf)] = t
            tags[(b, mf)] = t
    return Mesh(verts, new_elems, tags, region=np.repeat(mesh.region, nchild),
                nu=mesh.nu)


# ---------------------------------------------------------------------------
# Recursive longest-edge bisection
# ---------------------------------------------------------------------------

def refine_bisection(mesh: Mesh, marks) -> Mesh:
    """Bisect each marked triangle at the midpoint of its longest edge,
    recursively bisecting neighbors until the mesh is conforming.

    Ties between equally long edges are broken toward the lexicographically
    smallest vertex-index pair, which makes runs deterministic.
    """
    marks = _validate_marks(mesh, marks)
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
    return Mesh(np.array(verts), np.array([elems[i] for i in keep]), tags,
                region=np.array([regions[i] for i in keep]), nu=mesh.nu)


# ---------------------------------------------------------------------------
# Plain-text mesh format
# ---------------------------------------------------------------------------

def write_mesh(mesh: Mesh, path) -> None:
    """Serialize: header `nv ne nf`, vertex lines `x y`, element lines
    `v0 v1 v2 region`, boundary-facet lines `v0 v1 tag`.  Interior facets
    are derived, never serialized."""
    btags = [(int(a), int(b), _TAG_CHARS[int(t)])
             for (a, b), t in sorted(mesh.boundary_tag_dict().items())]
    with open(path, "w") as fh:
        fh.write(f"{mesh.n_vertices} {mesh.n_elements} {len(btags)}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for (v0, v1, v2), r in zip(mesh.elements, mesh.region):
            fh.write(f"{v0} {v1} {v2} {r}\n")
        for a, b, t in btags:
            fh.write(f"{a} {b} {t}\n")


def read_mesh(path, nu=None) -> Mesh:
    """Read the plain-text format written by write_mesh."""
    with open(path) as fh:
        toks = fh.read().split()
    it = iter(toks)
    nv, ne, nf = int(next(it)), int(next(it)), int(next(it))
    verts = np.array([[float(next(it)), float(next(it))] for _ in range(nv)])
    elems, region = [], []
    for _ in range(ne):
        elems.append([int(next(it)), int(next(it)), int(next(it))])
        region.append(int(next(it)))
    tags = {}
    for _ in range(nf):
        a, b, t = int(next(it)), int(next(it)), next(it)
        if t not in _CHAR_TAGS:
            raise ValueError(f"unknown boundary tag {t!r} (expected D or N)")
        tags[tuple(sorted((a, b)))] = t
    return Mesh(verts, np.array(elems), tags, region=np.array(region), nu=nu)
