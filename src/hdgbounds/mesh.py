"""Conforming triangular meshes, the built-in initial meshes, and the two
refinement mechanisms (red with green closure, longest-edge bisection in
closure rounds over arrays, with equally long edges told apart by their
midpoints).

A mesh is immutable after construction; refinement returns a new mesh.
Facets are derived from the element list.  Each facet is stored with its
vertex pair in increasing index order; that order defines the canonical
arclength parameterization used for all trace polynomials.  Side s of
facet f is element facet_elems[f, s] through its local edge
facet_local_edge[f, s] (-1 where there is none); side 0 is the
lower-indexed element, and the stored facet normal points out of it
(outward on the boundary).  facet_len holds the facet lengths, and
interior_facets, dirichlet_facets and neumann_facets the facets of each tag.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Mesh",
    "unit_square_crisscross",
    "lshape_initial",
    "refine_red",
    "refine_bisection",
    "write_mesh",
    "read_mesh",
]

INTERIOR, DIRICHLET, NEUMANN = 0, 1, 2
_TAG_CHARS = {DIRICHLET: "D", NEUMANN: "N"}
# the accepted boundary_tags values and their codes
_TAG_CODES = {"D": DIRICHLET, "N": NEUMANN, DIRICHLET: DIRICHLET, NEUMANN: NEUMANN}
_KEY = 2 ** 31  # an edge (a, b) with a < b packs into a * _KEY + b


def _pack(a, b):
    """Packed keys of the edges (a, b), either way round; they sort as the
    sorted vertex pairs do."""
    return np.minimum(a, b) * _KEY + np.maximum(a, b)


def _tag_dict(keys, codes):
    """The boundary_tags mapping of packed edge keys and their tag codes."""
    a, b = np.divmod(keys, _KEY)
    return dict(zip(zip(a.tolist(), b.tolist()), codes.tolist()))


class Mesh:
    """Conforming triangulation with tagged boundary facets and per-region
    diffusivity.

    Parameters
    ----------
    vertices : (nv, 2) float array
    elements : (ne, 3) int array, counter-clockwise vertex triples
    boundary_tags : dict mapping a vertex pair (a, b) to 'D' or 'N' (or the
        codes DIRICHLET, NEUMANN); any other value raises ValueError
    region : (ne,) int array, optional (defaults to region 0)
    nu : dict region id -> diffusivity, optional (defaults to 1.0)
    """

    def __init__(self, vertices, elements, boundary_tags, region=None, nu=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        if not np.isfinite(self.vertices).all():
            bad = int(np.argmin(np.isfinite(self.vertices).all(axis=-1)))
            raise ValueError(f"vertex {bad} has a non-finite coordinate")
        self.elements = np.ascontiguousarray(elements, dtype=np.int64)
        if (self.elements.ndim != 2 or self.elements.shape[1] != 3
                or not self.elements.size):
            raise ValueError("elements must be a non-empty (ne, 3) array")
        if self.elements.min() < 0 or self.elements.max() >= len(self.vertices):
            raise ValueError("elements reference nonexistent vertices")
        used = np.bincount(self.elements.ravel(), minlength=len(self.vertices))
        if not used.all():
            raise ValueError(f"vertex {int(np.argmin(used))} is used by no element")
        self.region = (np.zeros(len(self.elements), dtype=np.int64)
                       if region is None else np.ascontiguousarray(region, dtype=np.int64))
        if self.region.shape != (len(self.elements),):
            raise ValueError(f"region must have one entry per element: shape "
                             f"{self.region.shape}, expected ({len(self.elements)},)")
        self.nu = dict(nu) if nu else {int(r): 1.0 for r in np.unique(self.region)}
        for r, val in self.nu.items():
            if not 0 < val < np.inf:
                raise ValueError(f"diffusivity must be positive and finite, "
                                 f"got nu[{r}] = {val}")
        missing = sorted(set(np.unique(self.region).tolist()) - set(self.nu))
        if missing:
            raise ValueError(f"region {missing[0]} has no diffusivity in nu")

        v = self.vertices[self.elements]
        area2 = ((v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
                 - (v[:, 1, 1] - v[:, 0, 1]) * (v[:, 2, 0] - v[:, 0, 0]))
        if not np.all(area2 > 0):
            bad = int(np.argmin(area2 > 0))
            raise ValueError(f"element {bad} has non-positive signed area")
        self._area = area2 / 2.0

        self._build_facets(boundary_tags)
        for arr in (self.vertices, self.elements, self.region, self.facets,
                    self.facet_elems, self.facet_local_edge, self.facet_tag,
                    self.interior_facets, self.dirichlet_facets,
                    self.neumann_facets, self.elem_facets,
                    self.elem_facet_orient, self.facet_normals, self.facet_len):
            arr.setflags(write=False)

    # -- construction -----------------------------------------------------

    def _build_facets(self, boundary_tags):
        ne, nv = len(self.elements), len(self.vertices)
        nxt = self.elements[:, [1, 2, 0]]  # local edge l is (v_l, v_l+1)
        keys, inverse = np.unique(_pack(self.elements, nxt).ravel(),
                                  return_inverse=True)
        facets = np.column_stack(np.divmod(keys, _KEY))
        nf = len(facets)
        self.facets = facets
        self.elem_facets = inverse.reshape(ne, 3)
        self.elem_facet_orient = self.elements < nxt

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

        pairs = list(boundary_tags)
        codes = np.array([_TAG_CODES.get(t, INTERIOR)
                          for t in boundary_tags.values()], dtype=np.int8)
        if not codes.all():
            k = pairs[int(np.argmin(codes))]
            raise ValueError(f"boundary facet {k} has tag {boundary_tags[k]!r} "
                             f"(expected 'D', 'N', {DIRICHLET} or {NEUMANN})")
        try:
            ab = np.sort(np.array(pairs, dtype=float).reshape(len(pairs), 2), axis=1)
        except (TypeError, ValueError):
            raise ValueError("boundary_tags must be keyed by vertex pairs") from None
        # a pair of other than vertex indices gets a key that aliases no facet
        valid = np.all((ab >= 0) & (ab < nv) & (ab == np.floor(ab)), axis=1)
        tag_keys = _pack(*np.where(valid[:, None], ab, -1).astype(np.int64).T)
        pos = np.minimum(np.searchsorted(keys, tag_keys), nf - 1)
        found = keys[pos] == tag_keys
        ntags = np.bincount(pos[found], minlength=nf)
        # the first facet, in facet order, with a wrong tag count: a boundary
        # facet needs one tag, an interior facet none
        bad = np.flatnonzero(ntags != (facet_elems[:, 1] < 0))
        if len(bad):
            key = (int(facets[bad[0], 0]), int(facets[bad[0], 1]))
            if ntags[bad[0]] > 1:
                raise ValueError(f"facet {key} is tagged twice")
            if ntags[bad[0]]:
                raise ValueError(f"interior facet {key} carries a boundary tag")
            raise ValueError(
                f"boundary facet {key} is untagged (non-conforming mesh or missing tag)")
        if not found.all():
            stray = sorted(tuple(sorted(k))
                           for k, hit in zip(pairs, found) if not hit)
            raise ValueError(f"tags reference non-facet vertex pairs: {stray}")
        tags = np.zeros(nf, dtype=np.int8)
        tags[pos[found]] = codes[found]
        if not np.any(tags == DIRICHLET):
            raise ValueError("the Dirichlet boundary must be non-empty")
        self.facet_tag = tags
        self.interior_facets = np.flatnonzero(tags == INTERIOR)
        self.dirichlet_facets = np.flatnonzero(tags == DIRICHLET)
        self.neumann_facets = np.flatnonzero(tags == NEUMANN)

        # normals out of side 0: (dy, -dx) points right of a -> b, out of an
        # element that runs from a to b counter-clockwise
        d = self.vertices[facets[:, 1]] - self.vertices[facets[:, 0]]
        self.facet_len = np.linalg.norm(d, axis=1)
        n = np.column_stack([d[:, 1], -d[:, 0]])
        n /= self.facet_len[:, None]
        n[~self.elem_facet_orient[facet_elems[:, 0], facet_local_edge[:, 0]]] *= -1.0
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
        return _tag_dict(_pack(*self.facets[b].T), self.facet_tag[b])


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
    cs = (xs[:-1] + xs[1:]) / 2.0
    # the grid row by row, then the centre of each square in the same order
    verts = np.concatenate([np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2),
                            np.stack(np.meshgrid(cs, cs), axis=-1).reshape(-1, 2)])
    sq = np.arange(n * n)
    a = sq + sq // n  # lower-left corner of each square
    # CCW corners a, b, c, d -> (a, b, m), (b, c, m), (c, d, m), (d, a, m)
    corner = np.column_stack([a, a + 1, a + n + 2, a + n + 1])
    centre = np.broadcast_to((n + 1) ** 2 + sq[:, None], corner.shape)
    elems = np.stack([corner, np.roll(corner, -1, axis=1), centre], axis=-1)
    i = np.arange(n)
    start = np.concatenate([i, n * (n + 1) + i, i * (n + 1), i * (n + 1) + n])
    step = np.repeat([1, 1, n + 1, n + 1], n)  # y = 0, y = 1, x = 0, x = 1
    tags = _tag_dict(_pack(start, start + step), np.full(4 * n, DIRICHLET))
    return Mesh(verts, elems.reshape(-1, 3), tags)


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

def _member(x, s):
    """Whether each entry of x (all >= 0) occurs in the sorted array s."""
    return np.append(s, -1)[np.searchsorted(s, x)] == x


def _split_tags(keys, codes, split, mid):
    """The tagged edges (packed keys, codes) after the edges with sorted
    keys ``split`` are bisected at the vertices ``mid``: a tagged edge
    (a, b) split at m passes its tag to (a, m) and (b, m)."""
    hit = _member(keys, split)
    a, b = np.divmod(keys[hit], _KEY)
    m = mid[np.searchsorted(split, keys[hit])]
    return (np.concatenate([keys[~hit], _pack(a, m), _pack(b, m)]),
            np.concatenate([codes[~hit], codes[hit], codes[hit]]))


def _validate_marks(mesh, marks):
    """The sorted distinct element indices of a mark set; a mark that is not
    integer-valued or names no element raises ValueError."""
    marks = np.unique(np.asarray(marks))
    if marks.dtype.kind not in "iuf" or np.any(marks != np.floor(marks)):
        raise ValueError("marks must be integer-valued element indices")
    if marks.size and (marks[0] < 0 or marks[-1] >= mesh.n_elements):
        raise ValueError("mark set references nonexistent elements")
    return marks.astype(np.int64)


def refine_red(mesh: Mesh, marks) -> Mesh:
    """Subdivide each marked triangle into 4 similar children; restore
    conformity with red propagation and green bisection on neighbors.

    An element with two or more split edges turns red too.  The closure
    grows wave by wave, testing only the neighbors of the elements that
    turned red in the last wave; its least fixed point does not depend on
    the order, so neither does the mesh.
    """
    front = _validate_marks(mesh, marks)
    if not front.size:
        return mesh

    ef, fe = mesh.elem_facets, mesh.facet_elems
    red = np.zeros(mesh.n_elements, dtype=bool)
    split = np.zeros(mesh.n_facets, dtype=bool)
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

    keys, bnd = _pack(*mesh.facets.T), mesh.facet_tag != INTERIOR
    tags = _split_tags(keys[bnd], mesh.facet_tag[bnd], keys[split], mid[split])
    return Mesh(verts, new_elems, _tag_dict(*tags),
                region=np.repeat(mesh.region, nchild), nu=mesh.nu)


# ---------------------------------------------------------------------------
# Longest-edge bisection in closure rounds
# ---------------------------------------------------------------------------

def _edge_keys(vertices, elements):
    """Packed keys of the local edges (v_l, v_l+1) of each element, and the
    local index of its longest edge.  Equally long edges go to the one whose
    midpoint is lexicographically smallest, so the choice is geometric."""
    a, b = elements, elements[:, [1, 2, 0]]
    keys = _pack(a, b)
    va, vb = vertices[a], vertices[b]
    d = va - vb
    l2 = d[..., 0] ** 2 + d[..., 1] ** 2
    m = (va + vb) / 2.0
    # among the longest edges those with the smallest midpoint x, then y
    x = np.where(l2 == l2.max(axis=1, keepdims=True), m[..., 0], np.inf)
    y = np.where(x == x.min(axis=1, keepdims=True), m[..., 1], np.inf)
    return keys, y.argmin(axis=1)


def refine_bisection(mesh: Mesh, marks) -> Mesh:
    """Bisect each marked triangle at the midpoint of its longest edge, and
    its neighbors until the mesh is conforming (Rivara, IJNME 20, 1984).

    The closure runs in rounds over arrays (Funken, Praetorius & Wissgott,
    CMAM 11, 2011).  A round marks the longest edge of each marked element,
    then the longest edge of every element with a marked edge, until nothing
    changes; it then bisects every element with a marked edge at its
    longest edge.  A child that inherits a marked edge whole starts the next
    round; the rounds stop when no element has a marked edge.  Ties between
    equally long edges go to the lexicographically smallest midpoint, so
    the refined mesh, as a set of triangles, does not depend on the input
    numbering.  A parent's first child takes its index; the second child
    and the midpoints are appended.
    """
    marks = _validate_marks(mesh, marks)
    if not marks.size:
        return mesh

    verts, elems, region = mesh.vertices, mesh.elements, mesh.region
    keys, longest = _edge_keys(verts, elems)
    bnd = mesh.facet_tag != INTERIOR
    tags = _pack(*mesh.facets[bnd].T), mesh.facet_tag[bnd]
    split = np.empty(0, dtype=np.int64)  # sorted keys of the bisected edges
    mid = np.empty(0, dtype=np.int64)    # and their midpoint vertices
    seed = marks
    while seed.size:
        edges, inv = np.unique(keys, return_inverse=True)
        inv = inv.reshape(keys.shape)
        lng = inv[np.arange(len(inv)), longest]
        old = _member(edges, split)  # bisected on one side only
        marked = old.copy()
        marked[lng[seed]] = True
        while True:
            has = marked[inv].any(axis=1)
            if marked[lng[has]].all():
                break
            marked[lng[has]] = True

        # midpoints of the newly marked edges
        new = edges[marked & ~old]
        a, b = np.divmod(new, _KEY)
        ids = len(verts) + np.arange(len(new))
        verts = np.concatenate([verts, (verts[a] + verts[b]) / 2.0])
        split, mid = np.concatenate([split, new]), np.concatenate([mid, ids])
        order = np.argsort(split)
        split, mid = split[order], mid[order]
        tags = _split_tags(*tags, new, ids)

        # parent (va, vb, vc), longest edge va-vb -> (va, m, vc), (m, vb, vc)
        par = np.flatnonzero(has)
        rot = (longest[par, None] + np.arange(3)) % 3
        va, vb, vc = np.take_along_axis(elems[par], rot, axis=1).T
        m = mid[np.searchsorted(split, keys[par, longest[par]])]
        kids = np.concatenate([par, len(elems) + np.arange(len(par))])
        elems = np.concatenate([elems, np.column_stack([m, vb, vc])])
        elems[par] = np.column_stack([va, m, vc])
        region = np.concatenate([region, region[par]])
        keys = np.concatenate([keys, keys[par]])
        longest = np.concatenate([longest, longest[par]])
        keys[kids], longest[kids] = _edge_keys(verts, elems[kids])
        seed = kids[_member(keys[kids], split).any(axis=1)]

    return Mesh(verts, elems, _tag_dict(*tags), region=region, nu=mesh.nu)


# ---------------------------------------------------------------------------
# Plain-text mesh format
# ---------------------------------------------------------------------------

def write_mesh(mesh: Mesh, path) -> None:
    """Serialize: header `nv ne nf`, vertex lines `x y`, element lines
    `v0 v1 v2 region`, boundary-facet lines `v0 v1 tag`.  Interior facets
    are derived, never serialized."""
    btags = sorted(mesh.boundary_tag_dict().items())
    elems = np.column_stack([mesh.elements, mesh.region]).tolist()
    lines = [f"{mesh.n_vertices} {mesh.n_elements} {len(btags)}",
             "\n".join(f"{x!r} {y!r}" for x, y in mesh.vertices.tolist()),
             "\n".join("%d %d %d %d" % tuple(row) for row in elems),
             "\n".join(f"{a} {b} {_TAG_CHARS[t]}" for (a, b), t in btags)]
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for line in lines if line))


def read_mesh(path, nu=None) -> Mesh:
    """Read the plain-text format written by write_mesh."""
    with open(path) as fh:
        toks = fh.read().split()
    nv, ne, nf = map(int, toks[:3]) if len(toks) >= 3 else (-1, -1, -1)
    if min(nv, ne, nf) < 0 or len(toks) != 3 + 2 * nv + 4 * ne + 3 * nf:
        raise ValueError(f"mesh file {path}: expected a header 'nv ne nf' and "
                         "then exactly 2 nv + 4 ne + 3 nf values")
    e0, f0 = 3 + 2 * nv, 3 + 2 * nv + 4 * ne
    verts = np.array(toks[3:e0], dtype=float).reshape(nv, 2)
    elems = np.array(toks[e0:f0], dtype=np.int64).reshape(ne, 4)
    ab = np.array(toks[f0::3] + toks[f0 + 1::3], dtype=np.int64).reshape(2, nf).T
    t = np.array(toks[f0 + 2::3], dtype=str)
    known = np.isin(t, list(_TAG_CHARS.values()))
    if not known.all():
        raise ValueError(f"unknown boundary tag {str(t[np.argmin(known)])!r} "
                         "(expected D or N)")
    first = np.unique(np.sort(ab, axis=1), axis=0, return_index=True)[1]
    if len(first) < nf:
        a, b = ab[np.setdiff1d(np.arange(nf), first)[0]].tolist()
        raise ValueError(f"boundary facet ({a}, {b}) is listed twice")
    tags = dict(zip(map(tuple, ab.tolist()), t.tolist()))
    return Mesh(verts, elems[:, :3], tags, region=elems[:, 3], nu=nu)
