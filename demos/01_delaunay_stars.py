"""Delaunay subdivisions of lattices given by quadratic forms.

A positive definite symmetric matrix Q turns Z^d into a metric lattice; its
Delaunay cells are the convex hulls of lattice points on empty spheres.  The
whole subdivision is encoded by the star of the origin: the cells having 0
as a vertex.  A star is stored as its form and its class keys, the vertex
tuples of one normalized cell per translation class; its cells are the
certified cells of the form's Dirichlet-Voronoi cell.  This script walks
through the basic geometry in d = 2 and 3.
"""

from lcone.classify import seed_triangulation
from lcone.exact import SymMat, format_form
from lcone.delaunay import delaunay_star, is_triangulation, neighbor_triangulation
from lcone.lattice import closest_vectors
from lcone.scone import cone_facets, contains_pd, secondary_cone

# The square lattice: Delaunay cells are unit squares, so the subdivision is
# not a triangulation.
I2 = SymMat.identity(2)
star = delaunay_star(I2)
print("square lattice Z^2")
print("  cells at the origin:", len(star.cells))
print("  translation classes:", len(star.keys), "with keys", star.keys)
print("  triangulation?      ", is_triangulation(star))
print("  one cell:", star.cells[0].vertices)

# The hexagonal lattice: six triangles around the origin, two translation
# classes (up- and down-triangles).
A2 = SymMat([[2, 1], [1, 2]])
star = delaunay_star(A2)
print("\nhexagonal lattice (Gram [[2,1],[1,2]])")
print("  cells:", len(star.cells), " classes:", len(star.keys),
      " triangulation:", is_triangulation(star))
tri = next(c for c in star.cells if c.vertices == ((0, 0), (0, 1), (1, 0)))
print("  circumcenter of {0, e1, e2}:", tri.center, " squared radius:", tri.sqradius)

# Every cell is certified: the squared circumradius is the minimum of
# Q[c - v] over the whole lattice, attained exactly at the cell's vertices
# (the empty-sphere condition).  The star finds its cells this way: their
# centres are the vertices of the Dirichlet-Voronoi cell at 0, and one
# closest-vector call at a centre gives the cell.
cell = star.cells[0]
best, mins = closest_vectors(A2, cell.center)
print("  cell", cell.vertices, "with centre", cell.center)
print("  closest lattice points to the centre:", mins, "at squared distance", best)

# Crossing a wall: perturbing the form through a facet of its secondary cone
# flips the triangulation.  For the hexagonal form all three walls lead to
# mirror images of the same combinatorial type.  The flip works on the class
# keys alone.  Each class it adds gets the empty-sphere check the star's
# cells got: its integer circumcentre, and one closest-vector search there
# whose minimizers must be exactly the class.  The kept classes are
# certified by their positive regulators.  The flipped star's cells, when
# they are asked for, are read off the DV cell of its form, whose Delaunay
# star must have these keys.
cone = secondary_cone(star)
facet = next(f for f in cone_facets(cone) if contains_pd(f))
flipped = neighbor_triangulation(star, facet.central, cone.central)
print("\nafter crossing one wall:")
print("  new form:", format_form(flipped.form))
print("  new classes:", list(flipped.keys))
print("  cells read off its DV cell:", len(flipped.cells))

# The face-centered cubic lattice in d = 3 has a coarse subdivision made of
# tetrahedra and octahedra; it refines to a triangulation after a generic
# perturbation.  `seed_triangulation` makes that refinement and checks it:
# every wall of the new triangulation's secondary cone is >= 0 on FCC, so
# the closed cone holds FCC.
FCC = SymMat([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
star = delaunay_star(FCC)
print("\nfcc lattice (d=3): cells", len(star.cells), "classes", len(star.keys),
      "triangulation", is_triangulation(star))
sizes = sorted(set(len(c.vertices) for c in star.cells))
print("  cell vertex counts:", sizes, "(4 = tetrahedron, 6 = octahedron)")
fine = seed_triangulation(3, FCC)
print("  refined by a generic perturbation: cells", len(fine.cells),
      "classes", len(fine.keys), "triangulation", is_triangulation(fine))
