"""Secondary cones: the polyhedral geometry behind Delaunay subdivisions.

All forms sharing one Delaunay triangulation make up an open polyhedral cone
in the space of symmetric matrices, cut out by one linear inequality per
pair of adjacent simplices.  The inequality normals (regulators, or walls)
come from the affine dependency between a simplex and the extra vertex of
its neighbor.  Faces of the closed cone are the coarser subdivisions.
"""

from lcone.exact import SymMat
from lcone.delaunay import delaunay_star
from lcone.scone import cone_facets, contains_pd, fundamental_face, rank_profile, secondary_cone

# One wall condition, read off the hexagonal triangulation's adjacent pairs:
# the triangle {0, e1, e2} and the opposite vertex (1,1) of its neighbor give
# the wall [[0,1],[1,0]], i.e. the inequality 2 q12 >= 0.  The integer affine
# coordinates of (1,1) over (0, e2, e1) are (-1, 1, 1), with sum 1.
A2 = SymMat([[2, 1], [1, 2]])
star = delaunay_star(A2)
key, w, wall, coords = next(pair for pair in star.pairs.values()
                            if pair[:2] == (((0, 0), (0, 1), (1, 0)), (1, 1)))
print("regulator of {0,e1,e2} against (1,1):", wall.entries)
print("affine coordinates of (1,1):", coords)

cone = secondary_cone(star)
print("\nsecondary cone of the hexagonal triangulation")
print("  ambient dim:", cone.dim_ambient, " cone dim:", cone.dim)
print("  irredundant inequalities:", [n.entries for n in cone.inequalities])
print("  extreme rays:", [r.entries for r in cone.rays])
print("  central form (sum of rays):", cone.central.entries)
print("  rank profile of the rays:", rank_profile(cone))

# Face descent: each facet of the cone is the closure of a lower-dimensional
# secondary cone, as long as it still contains positive definite forms.
print("\nfacets of the cone:")
for facet in cone_facets(cone):
    tag = "secondary cone" if contains_pd(facet) else "boundary only"
    print("  dim", facet.dim, "rays", [r.entries for r in facet.rays], "->", tag)

# Zonotopal cones are generated by rank-1 forms only; their fundamental face
# (the smallest face holding all higher-rank rays) is zero.
print("\nfundamental face of the hexagonal cone:", fundamental_face(cone))

# A cone with a nontrivial fundamental face: the one-dimensional cone
# spanned by the D4 root form (rank 4).
D4 = SymMat([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])
from lcone.scone import cone_from_rays

ray_cone = cone_from_rays(4, [D4])
ff = fundamental_face(ray_cone)
print("D4 ray cone: dim", ray_cone.dim, " fundamental face dim:", ff.dim,
      " rank profile:", rank_profile(ray_cone))
