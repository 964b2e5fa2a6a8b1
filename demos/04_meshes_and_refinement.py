"""Mesh construction, the two refinement mechanisms, and the text format.

Red refinement splits a marked triangle into four similar children and
restores conformity with green bisections on neighbors; longest-edge
bisection refines in closure rounds until the mesh is conforming.  Both keep
the total area bitwise-stable and inherit boundary tags, and every mesh they
return has passed the Mesh constructor's conformity checks.
"""

import tempfile
from pathlib import Path

import numpy as np

from hdgbounds import (lshape_initial, read_mesh, refine_bisection,
                       refine_red, unit_square_crisscross, write_mesh)

m = unit_square_crisscross(0)
print(f"criss-cross level 0: {m.n_elements} triangles, {m.n_facets} edges, "
      f"area {m.total_area()}")

r = refine_red(m, [0, 1, 2])
print(f"red refinement of 3 marked triangles -> {r.n_elements} elements "
      f"(green closure kept it conforming), area {r.total_area()}")

L = lshape_initial()
print(f"\nL-shape: {L.n_elements} triangles, area {L.total_area()}")
b = refine_bisection(L, [0])
print(f"bisecting element 0 propagates to {b.n_elements} elements")

u = L
for k in range(4):
    u = refine_bisection(u, range(u.n_elements))
print(f"four uniform bisection sweeps: {u.n_elements} elements "
      f"(exact doubling each sweep), area {u.total_area()}")

# plain-text round trip: header nv ne nf, vertices, elements, tagged facets
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "mesh.txt"
    write_mesh(b, path)
    again = read_mesh(path)
    assert np.array_equal(again.elements, b.elements)
    print("\nmesh file round trip preserved all", again.n_elements, "elements")
    head = path.read_text().splitlines()[:4]
print("file starts with:", *["  " + line.strip() for line in head], sep="\n")
