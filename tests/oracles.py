"""Reference implementations that the library no longer calls.

Each of these was once in `lcone` and has no caller in the pipeline, the
CLI or the demos, or was replaced there by a faster or leaner path.  They
stay here as independent routes for the tests: the closest vectors with
one ``Fraction`` per enumerated point, the DV halfspace of one vector over
the rationals, the face levels with every intersection scanned for
maximality, short vectors by enumeration around 0, the double description of a cone with equalities, polytopes from
halfspaces by one double description, polytopes from vertices with the
points that are not vertices dropped, the facets of a Delaunay cell read off
that polytope, canonical extreme rays, the normalized translate of a cell,
the cells of a triangulation solved from its class keys, the Delaunay star
by moving spheres, the Dirichlet-Voronoi polytope read off
the Delaunay star, the stabilizer order of a cone, the adjacent pairs of a
triangulation as a list, the regulator of one adjacent pair by an integer
`echelon` of its own and over rational matrices, the
circumcentre by one rational `solve`, the wall
crossing with every adjacent pair evaluated and its checks on the rational
form, facet cones and fundamental faces by one double description each, a
face with its normals held as symmetric matrices and its projection
summed coordinate by coordinate,
the equalities a face was stored with when they were threaded down the
descent, the LDL^T factorization in ``Fraction`` arithmetic, the
congruence U^T A U by matrix products, the automorphism
group with each generator's map solved on its own, the double
description seeded by the inverse over Q and with every (plus, minus)
pair tested by a scan of every other ray, the DV cell with its centres in
``Fraction`` arithmetic, the face lattice closed under intersection and graded by its
intersections with the facets, the merge through invariant buckets, the
merge by canonical forms with every form labeled through the shared cache,
colour refinement by full signatures, the canonical labeling that
encodes every leaf and searches below every leaf equivalent to the first
or the least one, the group order by Schreier-Sims with
sifting and by Schreier generators kept without sifting, the automorphism
count of a small graph over all permutations, the subordination scheme by a
scan of every pair of faces, the primitive expansion by a crossing of
every positive definite wall, the descent that builds and returns every
positive definite facet, the flag identity with every facet cone built,
and the facet orbits of a cone's stabilizer read off the images of its
facet cones' rays.
"""

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from math import gcd
from typing import Sequence

from lcone.classify import _candidate_key
from lcone.delaunay import (
    Cell,
    DelaunayStar,
    NotOnSingleFacet,
    _facet_pairs,
    _normalized,
    cell_facets,
    circumcenter,
    delaunay_star,
    neighbor_triangulation,
)
from lcone.equiv import (
    UnimodularMap,
    _form_canonical,
    _linear_map_from_vector_match,
    _orbit,
    automorphism_group,
    cone_equivalent,
)
from lcone.exact import (
    AffinelyDependent,
    Mat,
    NotPositiveDefinite,
    Rat,
    SingularMatrix,
    SymMat,
    ZeroPivotNotPD,
    _norm,
    clear_denominators,
    echelon,
    gcd_normalize,
    inverse,
    rank_of_rows,
    solve,
)
from lcone.lattice import (
    VectorSet,
    _coset_minima,
    _form_frame,
    _frame,
    _path,
    _walk,
    characteristic_set,
    closest_vectors,
    enumerate_close,
)
from lcone.polyhedral import (
    LatPolytope,
    NotPointed,
    _dd_cone,
    _dot,
    _hull_equalities,
    _intersection_closure,
    rays_to_hrep,
)
from lcone.scone import (
    ConeDesc,
    central_form,
    cone_facets,
    cone_from_dict,
    cone_from_rays,
    cone_to_dict,
    contains_pd,
    functional_to_sym,
    secondary_cone,
    star_wall_forms,
    sym_dim,
    sym_to_functional,
)


def closest_by_fractions(form: tuple, cen: Sequence[int], m: int) -> tuple:
    """`lattice._closest` with one ``Rat`` per enumerated point: each value
    of the walk is put over the frame's denominator as a ``Fraction`` and
    the minimum is taken over those."""
    frame = _frame(form, cen, m)
    g = frame[3]
    rounded = [(2 * x + m) // (2 * m) for x in cen]
    bound = Rat(min(_path(frame), _path(frame, rounded)), g)
    hits = [(v, Rat(x, g)) for v, x in _walk(frame, len(cen), bound)]
    best = min(val for _, val in hits)
    return best, tuple(v for v, val in hits if val == best)


def _dv_halfspace(q: SymMat, v) -> tuple:
    """The primitive integral row (a, b) of -2 Q v . x + Q[v] >= 0, x no
    farther from 0 than from v, by `SymMat.mul_vec`, `SymMat.quad` and
    `clear_denominators` over the rationals."""
    return clear_denominators(tuple(-2 * x for x in q.mul_vec(v)) + (q.quad(v),))


def face_levels_by_scan(p: LatPolytope) -> tuple[dict, tuple, dict]:
    """`polyhedral._face_levels` with every nonempty proper F & g a
    candidate: the candidates in order of decreasing size, each tested
    against the maxima already kept, on polygons too."""
    d = p.dim
    facets = sorted(set(p.facet_masks))
    by_dim: dict[int, list] = {k: [] for k in range(d + 1)}
    if d > 1:
        by_dim[0] = [1 << i for i in range(p.n_vertices)]
    if d:
        by_dim[d - 1] = facets
    by_dim[d] = [(1 << p.n_vertices) - 1]
    scheme: dict[int, dict[int, int]] = {}
    for k in range(d - 1, 1, -1):
        below = set()
        hist: dict[int, int] = {}
        for f in by_dim[k]:
            cands = {f & g for g in facets}
            cands.discard(0)
            cands.discard(f)
            kept = []
            for h in sorted(cands, key=int.bit_count, reverse=True):
                for m in kept:
                    if h & m == h:
                        break
                else:
                    kept.append(h)
            below.update(kept)
            hist[len(kept)] = hist.get(len(kept), 0) + 1
        by_dim[k - 1] = sorted(below)
        scheme[k] = dict(sorted(hist.items()))
    return by_dim, tuple(len(by_dim[k]) for k in range(d)), dict(sorted(scheme.items()))


def dd_cone_by_scan(ineqs: list[tuple], dim: int) -> list[tuple]:
    """`polyhedral._dd_cone` as it was before its pair loop was filtered:
    every (plus, minus) pair in an explicit loop, and the adjacency test a
    scan of every other ray for a mask that contains the pair's.

    Extreme rays of {y : a y >= 0 for a in ineqs} in R^dim.

    Requires the system to have rank ``dim`` (pointed cone).  The first
    ``dim`` independent inequalities, found by one `echelon` pass, seed the
    method with the columns of their inverse; all later arithmetic is over
    the integers.  Rays come back gcd-normalized and sorted.
    """
    if dim == 0:
        return []
    init = list(echelon(ineqs).independent) if ineqs else []
    if len(init) < dim:
        raise NotPointed("lineality space detected")
    a0 = Mat([ineqs[i] for i in init])
    inv = inverse(a0)
    rays = [clear_denominators(col) for col in zip(*inv.entries)]
    rest = [k for k in range(len(ineqs)) if k not in init]
    # Insertion heuristic: inequalities satisfied by many initial rays first.
    rest.sort(key=lambda k: (-sum(1 for r in rays if _dot(ineqs[k], r) >= 0), k))

    processed = list(init)
    masks = []
    for r in rays:
        m = 0
        for pos, k in enumerate(processed):
            if _dot(ineqs[k], r) == 0:
                m |= 1 << pos
        masks.append(m)

    for k in rest:
        a = ineqs[k]
        vals = [_dot(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            bit = 1 << len(processed)
            masks = [m | bit if v == 0 else m for m, v in zip(masks, vals)]
            processed.append(k)
            continue
        plus = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        new_rays = []
        new_masks = []
        need = dim - 2
        for ip in plus:
            mp = masks[ip]
            for im in minus:
                m = mp & masks[im]
                if m.bit_count() < need:
                    continue
                adjacent = True
                for io, mo in enumerate(masks):
                    if m & ~mo == 0 and io != ip and io != im:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                vp, vm = vals[ip], vals[im]
                comb = tuple(vp * y - vm * x for x, y in zip(rays[ip], rays[im]))
                new_rays.append(gcd_normalize(comb, orient=False))
                new_masks.append(m)
        bit = 1 << len(processed)
        keep_rays = [rays[i] for i in plus + zero]
        keep_masks = [masks[i] | (bit if i in zero else 0) for i in plus + zero]
        rays = keep_rays + new_rays
        masks = keep_masks + [m | bit for m in new_masks]
        processed.append(k)

    # Rays are already primitive integer vectors; sort for determinism.
    return sorted(set(rays))

def dv_halfspaces(q: SymMat) -> list:
    """The rows of the halfspaces the DV cell is cut from, shortest vector
    first: the input of its double description."""
    halfspaces = {(q.quad(w), _dv_halfspace(q, w))
                  for v in _coset_minima(_form_frame(q)) for w in (v, tuple(-x for x in v))}
    return [h for _, h in sorted(halfspaces)]


def dv_cell_by_fractions(q: SymMat) -> list:
    """`polyhedral._dv_cell` with its centres in ``Fraction`` arithmetic:
    each centre, its squared radius, its translates and the sort of the
    cells by centre are rational, and the double description is
    `dd_cone_by_scan`."""
    if not q.is_positive_definite():
        raise NotPositiveDefinite("form is not positive definite")
    d = q.d
    zero = (0,) * d
    rays = dd_cone_by_scan(dv_halfspaces(q), d + 1)
    if not all(r[-1] > 0 for r in rays):
        raise AssertionError("the DV cell is unbounded")
    cells = {}
    for r in rays:
        if r in cells:
            continue
        *y, t = r
        center = tuple(Rat(x, t) for x in y)
        sqradius = q.quad(center)
        best, mins = closest_vectors(q, center)
        if best != sqradius or zero not in mins:
            raise AssertionError("a DV vertex is not the centre of a cell at 0")
        for v in mins:
            ray = tuple(x - t * a for x, a in zip(y, v)) + (t,)
            if ray in cells:
                raise AssertionError("a DV vertex is the centre of two cells")
            cells[ray] = (tuple(sorted(tuple(a - b for a, b in zip(w, v)) for w in mins)),
                          tuple(c - a for c, a in zip(center, v)), sqradius)
    if len(cells) != len(rays):
        raise AssertionError(f"{len(cells)} cells but {len(rays)} DV vertices")
    return sorted(cells.values(), key=lambda cell: cell[1])


def face_lattice_by_closure(p: LatPolytope):
    """`polyhedral.face_lattice` as it was before it was built from the
    facets down: the facet masks closed under intersection, each face then
    graded one more than the largest dimension among its proper nonempty
    intersections with the facets."""
    d = p.dim
    full = (1 << p.n_vertices) - 1
    facet_sets = set(p.facet_masks)
    faces = _intersection_closure(facet_sets) - {0}
    by_dim = {k: [] for k in range(d + 1)}
    dim_of = {}
    for mask in sorted(faces, key=int.bit_count):
        k = 0
        for g in facet_sets:
            h = mask & g
            if h and h != mask and dim_of[h] >= k:
                k = dim_of[h] + 1
        dim_of[mask] = k
        by_dim[k].append(mask)
    by_dim[d] = [full]
    for k in by_dim:
        by_dim[k].sort()
    return by_dim, tuple(len(by_dim[k]) for k in range(d))


def short_vectors(q, n) -> VectorSet:
    """Exactly the nonzero integer vectors v with Q[v] <= n, in lex order."""
    if n <= 0:
        raise ValueError("norm bound must be positive")
    vecs = tuple(v for v, _ in enumerate_close(q, [0] * q.d, n) if any(v))
    return VectorSet(q.d, vecs, n)


def dual_description(dim: int, equalities, inequalities) -> list:
    """Extreme rays of the cone {x : a x = 0, b x >= 0} in R^dim, for the
    equalities a and inequalities b, as `rays_to_hrep` returns them.

    Equalities are quotiented out first; the remaining cone must be pointed,
    otherwise NotPointed is raised.  Rays are integral, primitive and sorted.
    """
    if equalities:
        basis = Mat(echelon(list(equalities)).nullspace())
        if not basis.rows:
            return []
        ineqs_y = [clear_denominators(basis.mul_vec(a)) for a in inequalities]
        rays_y = _dd_cone([a for a in ineqs_y if any(a)], basis.rows)
        return sorted(set(clear_denominators(basis.transpose().mul_vec(y)) for y in rays_y))
    ineqs = [clear_denominators(a) for a in inequalities]
    return _dd_cone([a for a in ineqs if any(a)], dim)


def extreme_rays(rays, dim: int) -> list:
    """Canonical extreme-ray set of the cone generated by arbitrary rays."""
    return dual_description(dim, *rays_to_hrep(rays, dim))


def polytope_from_halfspaces(halfspaces, dim: int) -> LatPolytope:
    """Vertex description of {x : a x + b >= 0} via the homogenization cone.

    The input may contain redundant halfspaces; only facet-supporting ones
    are retained.  The polytope must be bounded and full-dimensional.
    """
    hs = sorted(set(
        clear_denominators(tuple(a) + (b,))
        for a, b in ((tuple(h[0]), h[1]) for h in halfspaces)
    ))
    rays = _dd_cone(hs, dim + 1)
    if not rays:
        raise ValueError("empty or degenerate polytope")
    verts = []
    for r in rays:
        t = r[-1]
        if t <= 0:
            raise ValueError("halfspace system is unbounded")
        verts.append(tuple(Rat(x, t) for x in r[:-1]))
    verts = sorted(set(verts))
    # Facet-supporting halfspaces: incident vertices have affine rank dim-1.
    facets = []
    facet_masks = []
    for h in hs:
        a, b = h[:-1], h[-1]
        mask = 0
        inc = []
        for i, v in enumerate(verts):
            if _dot(a, v) + b == 0:
                mask |= 1 << i
                inc.append(v)
        if not inc:
            continue
        v0 = inc[0]
        if rank_of_rows([[x - y for x, y in zip(v, v0)] for v in inc[1:]] or [[0] * dim]) == dim - 1:
            facets.append((tuple(a), b))
            facet_masks.append(mask)
    return LatPolytope(dim, tuple(verts), tuple(facets), tuple(facet_masks))


def _vertex_masks(facet_masks: Sequence[int], n_vertices: int) -> tuple:
    """Per vertex, the bitmask of the facets through it, from the per-facet
    bitmasks over the vertices."""
    out = []
    for i in range(n_vertices):
        m = 0
        for j, fm in enumerate(facet_masks):
            if fm >> i & 1:
                m |= 1 << j
        out.append(m)
    return tuple(out)


def polytope_from_vertices(vertices: Sequence[Sequence], dim: int) -> LatPolytope:
    """Facet description of a full-dimensional polytope from its vertices.

    The facets are the irredundant inequalities of the homogenization cone
    that `rays_to_hrep` returns, (g[:-1], g[-1]) in its order.  An input
    point is kept as a vertex unless another input point lies on every facet
    through it, which drops the points that are not vertices.
    """
    points = sorted(set(tuple(v) for v in vertices))
    equalities, inequalities = rays_to_hrep([clear_denominators(p + (1,)) for p in points],
                                            dim + 1)
    if equalities:
        raise ValueError("polytope is not full-dimensional")
    facets = tuple((g[:-1], g[-1]) for g in inequalities)
    on = [[_dot(a, p) + b == 0 for p in points] for a, b in facets]
    point_masks = _vertex_masks([sum(1 << i for i, x in enumerate(row) if x) for row in on],
                                len(points))
    keep = [i for i, m in enumerate(point_masks)
            if not any(k != i and m & ~o == 0 for k, o in enumerate(point_masks))]
    facet_masks = tuple(sum(1 << n for n, i in enumerate(keep) if row[i]) for row in on)
    return LatPolytope(dim, tuple(tuple(Rat(x) for x in points[i]) for i in keep), facets,
                       facet_masks)


def cell_facets_by_polytope(cell: Cell, d: int) -> list:
    """`delaunay.cell_facets` read off `polytope_from_vertices` of the cell,
    whose vertex filter keeps only the points that are vertices."""
    poly = polytope_from_vertices(cell.vertices, d)
    vmap = {v: i for i, v in enumerate(poly.vertices)}
    out = []
    for mask in poly.facet_masks:
        fverts = tuple(sorted(v for v in cell.vertices if mask >> vmap[v] & 1))
        out.append(fverts)
    return sorted(out)


def translate(cell: Cell, t: Sequence[int]) -> Cell:
    """`cell` moved by the integer vector t: sorted vertices, centre + t."""
    return Cell(tuple(sorted(tuple(x + s for x, s in zip(v, t)) for v in cell.vertices)),
                tuple(c + s for c, s in zip(cell.center, t)),
                cell.sqradius)


def normalized(cell: Cell) -> tuple:
    """Translate the lexicographically smallest vertex to the origin.
    Returns (cell, shift) with cell = `cell` translated by shift."""
    base = min(cell.vertices)
    shift = tuple(-x for x in base)
    return translate(cell, shift), shift


def _star_cells(reps: Sequence[Cell]) -> tuple:
    """The cells of the star with the given class representatives: the
    translates `rep - v` over the vertices `v` of every representative, in
    sorted order, with pairwise distinct circumcenters."""
    by_key = {}
    for rep in reps:
        for v in rep.vertices:
            cell = translate(rep, tuple(-x for x in v))
            by_key[cell.vertices] = cell
    cells = tuple(by_key[k] for k in sorted(by_key))
    if len(set(c.center for c in cells)) != len(cells):
        raise AssertionError("duplicate circumcenters in the star")
    return cells


def cells_from_keys(q: SymMat, keys: Sequence[tuple]) -> tuple:
    """The cells of the triangulation with class keys `keys` at the form q,
    solved from the keys alone, as `DelaunayStar.cells` once did for a star
    built from keys: the simplex on each key with its `circumcenter`, and
    its translates to the origin.  No empty-sphere check; raises
    AffinelyDependent on a key that is not a simplex."""
    return _star_cells([Cell(k, *circumcenter(q, k)) for k in keys])


def dv_polytope_by_star(q: SymMat) -> LatPolytope:
    """`polyhedral.dv_polytope` read off the cells of `delaunay_star(q)`:
    the vertices are the circumcenters of the cells at 0, and a nonzero
    vertex v of those cells gives a facet exactly when the cells having 0
    and v as vertices share only 0 and v."""
    d = q.d
    zero = (0,) * d
    cells = sorted(delaunay_star(q).cells, key=lambda c: c.center)
    containing = {}              # v -> bitmask over cells having v as vertex
    common = {}                  # v -> vertices common to those cells
    for i, cell in enumerate(cells):
        vset = frozenset(cell.vertices)
        for v in cell.vertices:
            if v != zero:
                containing[v] = containing.get(v, 0) | 1 << i
                common[v] = common[v] & vset if v in common else vset
    facets = sorted((_dv_halfspace(q, v), v) for v in containing if len(common[v]) == 2)
    index = {v: j for j, (_, v) in enumerate(facets)}
    for cell in cells:
        if sum(1 for v in cell.vertices if v in index) < d:
            raise AssertionError(f"DV vertex {cell.center} lies on fewer than {d} facets")
    return LatPolytope(d, tuple(tuple(Rat(x) for x in c.center) for c in cells),
                       tuple((h[:-1], h[-1]) for h, _ in facets),
                       tuple(containing[v] for _, v in facets))


class NotAFacet(Exception):
    pass


def _require_pd(q: SymMat):
    if not q.is_positive_definite():
        raise NotPositiveDefinite("form is not positive definite")


def _sphere_value(q: SymMat, center, point):
    return q.quad([c - x for c, x in zip(center, point)])


def _parametric_contact(q: SymMat, base_vertex, center, sqradius, direction, probes=()):
    """First lattice contact when the sphere center moves along `direction`.

    The sphere through the current vertex set stays through it (direction is
    Q-orthogonal to its affine hull) and the first lattice points reached on
    the positive side of the motion are returned, together with the contact
    center and squared radius.  The current sphere must be empty.

    Each lattice point w on the positive side is reached at a parameter
    `reach(w)`, and every point reached sooner lies inside the sphere at that
    parameter.  So the sphere at the soonest reach among a basis step from
    `base_vertex` and `probes` is enumerated: probes near the contact keep
    it small, and they do not change the result.
    """
    hq = q.mul_vec(direction)
    hq0 = sum(a * b for a, b in zip(hq, base_vertex))
    qc = q.mul_vec(center)
    offset = q.quad(center) - sqradius

    def denom(w):
        return sum(a * b for a, b in zip(hq, w)) - hq0

    def reach(w):
        """Parameter at which the moving sphere reaches w (denom(w) > 0)."""
        excess = q.quad(w) - 2 * sum(a * b for a, b in zip(qc, w)) + offset
        return Rat(excess) / (2 * denom(w))

    step = next(k for k in range(q.d) if hq[k] != 0)
    probe = list(base_vertex)
    probe[step] += 1 if hq[step] > 0 else -1
    lam_probe = min(reach(w) for w in (tuple(probe), *probes) if denom(w) > 0)
    c_probe = tuple(c + lam_probe * h for c, h in zip(center, direction))
    r_probe = _sphere_value(q, c_probe, base_vertex)

    best_lam = None
    hits = []
    for w, _ in enumerate_close(q, c_probe, r_probe):
        if denom(w) <= 0:
            continue
        lam = reach(w)
        if best_lam is None or lam < best_lam:
            best_lam = lam
            hits = [w]
        elif lam == best_lam:
            hits.append(w)
    if best_lam is None or best_lam < 0:
        raise AssertionError("no lattice contact ahead of the moving sphere")
    new_center = tuple(c + best_lam * h for c, h in zip(center, direction))
    new_r2 = _sphere_value(q, new_center, base_vertex)
    return best_lam, new_center, new_r2, sorted(hits)


def initial_cell(q: SymMat) -> Cell:
    """Some Delaunay cell of Q with 0 as a vertex.

    Grows an empty sphere through an affinely independent vertex set one
    dimension at a time: among the two Q-orthogonal motions of the center,
    the first lattice contact with the smaller circumradius is taken; the
    sums of a vertex and a vector of the characteristic set are its probes.
    The final vertex set is saturated to the full closest-vector set, and
    the empty-sphere postcondition is verified.
    """
    _require_pd(q)
    d = q.d
    short = characteristic_set(q).vectors
    min_norm = min(q.quad(v) for v in short)
    v1 = min(v for v in short if q.quad(v) == min_norm)
    zero = tuple([0] * d)
    verts = [zero, v1]
    center = tuple(Rat(x, 2) for x in v1)
    r2 = Rat(q.quad(v1), 4)
    while len(verts) < d + 1:
        rows = [q.mul_vec([a - b for a, b in zip(w, verts[0])]) for w in verts[1:]]
        direction = echelon(rows).nullspace()[0]
        probes = {tuple(a + b for a, b in zip(w, v)) for w in verts for v in short}
        sides = []
        for h in (direction, tuple(-x for x in direction)):
            lam, c2, rr2, hits = _parametric_contact(q, verts[0], center, r2, h, probes)
            sides.append((rr2, hits[0], c2))
        sides.sort()
        rr2, w_new, c2 = sides[0]
        verts.append(w_new)
        center, r2 = c2, rr2
    best, mins = closest_vectors(q, center)
    if best != r2 or zero not in mins:
        raise AssertionError("initial cell failed the empty-sphere check")
    return Cell(tuple(sorted(mins)), center, r2)


def adjacent_cell(q: SymMat, cell: Cell, facet: Sequence[Sequence[int]]) -> Cell:
    """The unique Delaunay cell on the other side of a facet of `cell`.

    The center slides along the line of centers Q-orthogonal to the facet,
    away from the cell, until the first lattice points enter the sphere.
    """
    fverts = tuple(sorted(tuple(v) for v in facet))
    vset = set(cell.vertices)
    if not set(fverts) <= vset:
        raise NotAFacet("facet vertices are not vertices of the cell")
    f0 = fverts[0]
    rows = [q.mul_vec([a - b for a, b in zip(w, f0)]) for w in fverts[1:]]
    if not rows:
        rows = [[0] * q.d]
    # Q is nonsingular, so the rows have the rank of the vertex differences.
    directions = echelon(rows).nullspace()
    if len(directions) != 1:
        raise NotAFacet("facet does not span a hyperplane")
    h = directions[0]
    hq = q.mul_vec(h)
    hq0 = sum(a * b for a, b in zip(hq, f0))
    others = [v for v in cell.vertices if v not in set(fverts)]
    dens = [sum(a * b for a, b in zip(hq, v)) - hq0 for v in others]
    if any(x == 0 for x in dens):
        raise NotAFacet("a non-facet vertex lies on the facet hyperplane")
    if all(x > 0 for x in dens):
        h = tuple(-x for x in h)
    elif not all(x < 0 for x in dens):
        raise NotAFacet("cell vertices on both sides of the hyperplane")
    # The contact is often a reflection f + g - o of an opposite vertex o.
    probes = {tuple(a + b - c for a, b, c in zip(f, g, o))
              for f in fverts for g in fverts for o in others}
    _, new_center, new_r2, _ = _parametric_contact(q, f0, cell.center, cell.sqradius, h, probes)
    best, mins = closest_vectors(q, new_center)
    if best != new_r2 or not set(fverts) <= set(mins):
        raise AssertionError("adjacent cell failed the empty-sphere check")
    return Cell(tuple(sorted(mins)), new_center, new_r2)


def delaunay_star_by_search(q: SymMat) -> DelaunayStar:
    """`delaunay.delaunay_star` by moving spheres, one translation class at
    a time.

    A breadth-first search runs over normalized class representatives.  The
    facets of each class are filed under their `_normalized` form as soon
    as the class is found.  A facet is crossed with `adjacent_cell` only
    while its normalized form has one side: the other side is then a class
    not yet found, so the search makes one crossing per class after the
    first.  At the end every normalized facet must have exactly two sides.
    The star is handed the cells the search found: the translates `rep - v`
    over the vertices `v` of every representative, which inherit the
    representative's empty-sphere certificate, since translation preserves
    it.  Deterministic ordering.
    """
    _require_pd(q)
    d = q.d
    reps = {}
    sides = Counter()            # normalized facet -> number of class facets
    queue = deque()

    def found(rep):
        reps[rep.vertices] = rep
        facets = cell_facets(rep, d)
        sides.update(_normalized(facet) for facet in facets)
        queue.append((rep, facets))

    found(normalized(initial_cell(q))[0])
    while queue:
        rep, facets = queue.popleft()
        for facet in facets:
            if sides[_normalized(facet)] == 1:
                norm, _ = normalized(adjacent_cell(q, rep, facet))
                if norm.vertices in reps:
                    raise AssertionError("a facet crossing reached a known class")
                found(norm)
    if any(n != 2 for n in sides.values()):
        raise AssertionError("a facet of the star does not lie in exactly two cells")
    keys = tuple(sorted(reps))
    star = DelaunayStar(q, keys)
    star.__dict__["cells"] = _star_cells([reps[k] for k in keys])  # `cached_property`'s slot
    return star


def stabilizer_order(cone) -> int:
    """Order of the GL_d(Z) stabilizer of a secondary cone: the automorphism
    group of its central form (any U fixing the central form permutes the
    cone complex and fixes the cone containing the central form)."""
    return _form_canonical(cone.central)[3]


def pair_regulators(keys) -> list:
    """(class key, extra vertex, wall, coordinates) for every pair of
    adjacent simplices of a triangulation given by its class keys, every
    pair computed from scratch: the values of `delaunay._facet_pairs`."""
    return list(_facet_pairs(keys).values())


@dataclass(frozen=True)
class Regulator:
    """Integral normal of one local Delaunay wall condition, with gcd 1, or
    the zero form of a degenerate pair.

    `alphas` are the affine coordinates of the extra point w in the simplex
    V: w = sum a_v v with sum a_v = 1, one per point of V.
    """

    matrix: SymMat
    alphas: tuple

    @property
    def is_degenerate(self) -> bool:
        return not any(self.matrix.lower())


def _zero_form(d: int) -> SymMat:
    return SymMat.from_lower(d, [0] * (d * (d + 1) // 2))


def regulator_by_echelon(points, w) -> Regulator:
    """The wall of the simplex V and the extra point w by one integer
    `echelon` of its own, the per-pair kernel `delaunay` had before one
    `echelon` per class key served all its pairs.

    With w = sum a_v v, 1 = sum a_v, this is w w^T - sum a_v v v^T, cleared
    to integral entries with gcd 1.  One `echelon` of the integer rows
    [V | w; 1 | 1] leaves D [I | a] when [V; 1] is nonsingular, so the
    integer column D a, divided by its gcd, is the primitive positive
    multiple l of the a_v, and the a_v are its entries over D.  The form is
    summed over the integers: N = (sum l_v) w w^T - sum l_v v v^T, entry by
    entry of the lower triangle.  Raises AffinelyDependent."""
    pts = [tuple(p) for p in points]
    w = tuple(w)
    d = len(w)
    if len(pts) != d + 1:
        raise AffinelyDependent(f"need {d + 1} points, got {len(pts)}")
    rows = [[p[i] for p in pts] + [w[i]] for i in range(d)]
    rows.append([1] * (d + 2))
    ech = echelon(rows)
    if ech.pivots[:d + 1] != tuple(range(d + 1)):
        raise AffinelyDependent("affinely dependent point set")
    scale = ech.scale
    scaled = [row[d + 1] for row in ech.rows]            # D a, over the integers
    alphas = tuple(Rat(x, scale) if x % scale else x // scale for x in scaled)
    g = gcd(*scaled)
    terms = [(a // g, p) for a, p in zip(scaled, pts) if a]
    total = sum(a for a, _ in terms)
    lower = tuple(total * w[i] * w[j] - sum(a * p[i] * p[j] for a, p in terms)
                  for i in range(d) for j in range(i + 1))
    if not any(lower):
        return Regulator(_zero_form(d), alphas)
    return Regulator(SymMat.from_lower(d, gcd_normalize(lower, orient=False)), alphas)


def regulator_by_fractions(points, w) -> Regulator:
    """The wall of the simplex V and the extra point w over rational
    matrices: w w^T - sum a_v v v^T built from `SymMat`s, then scaled by a
    positive rational to a primitive integral matrix."""
    pts = [tuple(p) for p in points]
    w = tuple(w)
    d = len(w)
    if len(pts) != d + 1:
        raise AffinelyDependent(f"need {d + 1} points, got {len(pts)}")
    rows = [[p[i] for p in pts] for i in range(d)]
    rows.append([1] * (d + 1))
    try:
        alphas = tuple(solve(Mat(rows), list(w) + [1]))
    except SingularMatrix as exc:
        raise AffinelyDependent("affinely dependent point set") from exc
    n = SymMat.outer(w)
    for a, p in zip(alphas, pts):
        if a:
            n = n - SymMat.outer(p).scale(a)
    if all(x == 0 for x in n.lower()):
        return Regulator(_zero_form(d), alphas)
    return Regulator(SymMat.from_lower(d, clear_denominators(n.lower())), alphas)


def circumcenter_by_fractions(q: SymMat, points) -> tuple:
    """`delaunay.circumcenter` by one `solve` of the rational system
    2 (Q (p_i - p_0)) . c = Q[p_i] - Q[p_0], and the squared radius
    Q[c - p_0] in ``Fraction`` arithmetic."""
    pts = [tuple(p) for p in points]
    d = q.d
    if len(pts) != d + 1:
        raise AffinelyDependent(f"need {d + 1} points, got {len(pts)}")
    p0 = pts[0]
    rows = []
    rhs = []
    for p in pts[1:]:
        diff = [a - b for a, b in zip(p, p0)]
        rows.append([2 * x for x in q.mul_vec(diff)])
        rhs.append(q.quad(p) - q.quad(p0))
    try:
        center = solve(Mat(rows), rhs)
    except SingularMatrix as exc:
        raise AffinelyDependent("points are affinely dependent") from exc
    r2 = q.quad([c - x for c, x in zip(center, p0)])
    return center, r2


def neighbor_triangulation_by_fractions(star, wallpoint, center):
    """`delaunay.neighbor_triangulation` with every adjacent pair evaluated
    on the wallpoint and every check run on the rational form
    wallpoint + eps (wallpoint - center) itself."""
    if not wallpoint.is_positive_definite():
        raise NotPositiveDefinite("wallpoint is not positive definite")
    pairs = list(star.pairs.values())
    values = [wall.pair(wallpoint) for _, _, wall, _ in pairs]
    tight = [pair for pair, val in zip(pairs, values) if val == 0]
    walls = {wall.lower() for _, _, wall, _ in tight}
    if len(walls) != 1:
        raise NotOnSingleFacet(f"wallpoint is tight on {len(walls)} walls, need exactly 1")
    if any(val < 0 for val in values):
        raise NotOnSingleFacet("wallpoint is outside the closed cone")

    removed, added = set(), set()
    for key, w, _, coords in tight:
        circuit = key + (w,)
        for z, lam in zip(circuit, [-Rat(a, sum(coords)) for a in coords] + [1]):
            if lam != 0:
                simplex = _normalized([p for p in circuit if p != z])
                (removed if lam > 0 else added).add(simplex)
    old_keys = set(star.keys)
    if not removed <= old_keys:
        raise AssertionError("the flip removes a simplex that is not in the star")
    keys = tuple(sorted(old_keys - removed | added))

    new_pairs = _facet_pairs(keys, star.pairs)
    new_walls = {wall.lower(): wall for _, _, wall, _ in new_pairs.values()}.values()
    if any(n.pair(wallpoint) < 0 for n in new_walls):
        raise AssertionError("the flipped cone does not contain the wallpoint")
    eps = Rat(1)
    diff = wallpoint - center
    for _ in range(64):
        cand = wallpoint + diff.scale(eps)
        eps = eps / 2
        if cand.is_positive_definite() and all(n.pair(cand) > 0 for n in new_walls):
            break
    else:
        raise AssertionError("wall crossing did not converge")

    for key in sorted(added):
        sphere_center, sqradius = circumcenter_by_fractions(cand, key)
        best, mins = closest_vectors(cand, sphere_center)
        if best != sqradius or tuple(sorted(mins)) != key:
            raise AssertionError("flipped cell failed the empty-sphere check")
    flipped = DelaunayStar(cand, keys)
    flipped.__dict__["pairs"] = new_pairs   # the slot `cached_property` fills
    return flipped


def ldlt_by_fractions(q: SymMat) -> tuple[Mat, tuple]:
    """`exact.ldlt` by symmetric elimination in ``Fraction`` arithmetic, the
    loop it was before it was read off `echelon`: the same unit
    lower-triangular L and diagonal D with Q = L D L^T, and the same
    ZeroPivotNotPD at a zero pivot over a nonzero column."""
    d = q.d
    a = [[Rat(x) for x in row] for row in q.entries]
    lower = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    diag = []
    for k in range(d):
        pivot = a[k][k]
        diag.append(_norm(pivot))
        if pivot == 0:
            if any(a[i][k] != 0 for i in range(k + 1, d)):
                raise ZeroPivotNotPD(f"zero pivot at index {k}")
            continue
        for i in range(k + 1, d):
            f = a[i][k] / pivot
            lower[i][k] = _norm(f)
            if f:
                for j in range(k, d):
                    a[i][j] -= f * a[k][j]
    return Mat(lower), tuple(diag)


def congruence_by_products(q: SymMat, u: Mat) -> SymMat:
    """`SymMat.congruence` by two `Mat` products, (U^T A) U, each entry
    normalized after each product and the result checked to be symmetric
    by the `SymMat` constructor."""
    return SymMat((u.transpose() @ q.to_mat() @ u).entries)


def automorphism_group_by_solve(q: SymMat) -> tuple:
    """`equiv.automorphism_group` with each generator's map solved on its
    own: one `_linear_map_from_vector_match`, an `echelon` and a `solve`,
    per generator, checked to fix the form by `congruence_by_products`."""
    _, witness, gens, order = _form_canonical(q)
    can = tuple(sorted(witness))
    maps = []
    for g in gens:
        target = [can[g[k]] for k in range(len(can))]
        u = _linear_map_from_vector_match(target, can, q.d)
        if u is None or congruence_by_products(q, u) != q:
            raise AssertionError("graph automorphism did not extend to the form")
        maps.append(UnimodularMap(u))
    return maps, order


def accumulated_equalities(cone, face) -> tuple:
    """The equalities a face of a cone was once stored with, threaded down
    the descent: the cone's own, then each of its inequalities tight on the
    face (a facet's one normal, or every normal active on a fundamental
    face).  They cut out the face's linear hull, but which rows they are
    depends on the path to the face."""
    return cone.equalities + tuple(n for n in cone.inequalities
                                   if all(n.pair(r) == 0 for r in face.rays))


def cone_facets_by_rays(cone) -> list:
    """`scone.cone_facets` from the bare rays: each facet by one
    `rays_to_hrep` of its tight rays (`cone_from_rays`)."""
    if cone.dim <= 1:
        return []
    out = []
    for n in cone.inequalities:
        facet = cone_from_rays(cone.d, [r for r in cone.rays if n.pair(r) == 0])
        if facet.dim != cone.dim - 1:
            raise AssertionError("facet dimension mismatch")
        out.append(facet)
    return out


def fundamental_face_by_rays(cone):
    """`scone.fundamental_face` from the bare rays, by `cone_from_rays`."""
    high = [r for r in cone.rays if r.rank() > 1]
    if not high:
        return None
    active = tuple(n for n in cone.inequalities
                   if all(n.pair(r) == 0 for r in high))
    face_rays = [r for r in cone.rays
                 if all(n.pair(r) == 0 for n in active)]
    if not active:
        return cone
    return cone_from_rays(cone.d, face_rays)


def tight_masks_by_pairs(cone) -> list[int]:
    """For each inequality of a cone, the mask of the rays it vanishes on
    (bit i for cone.rays[i]), by the trace pairing of `SymMat`s."""
    return [sum(1 << i for i, r in enumerate(cone.rays) if n.pair(r) == 0)
            for n in cone.inequalities]


def project_into_hull_by_coordinates(equalities, normals) -> list[tuple]:
    """`polyhedral._project_into_hull` with each coordinate of D a - E^T X
    summed on its own, over every x_i."""
    if not equalities or not normals:
        return [tuple(a) for a in normals]
    k = len(equalities)
    ech = echelon([[_dot(e, f) for f in equalities] + [_dot(e, a) for a in normals]
                   for e in equalities])
    if ech.pivots != tuple(range(k)):
        raise AssertionError("hull equalities are linearly dependent")
    out = []
    for j, a in enumerate(normals):
        x = [row[k + j] for row in ech.rows]
        out.append(tuple(ech.scale * a[c] - sum(xi * e[c] for xi, e in zip(x, equalities) if xi)
                         for c in range(len(a))))
    return out


def face_by_symmats(cone, masks, t):
    """`scone._face` with the cone's inequalities held as `SymMat`s: each
    trace is converted by `sym_to_functional` in every face, the face's
    normals are built by `functional_to_sym`, and `ConeDesc.check_incidences`
    converts them back and checks every ray positive semidefinite again.
    `masks` are the tight masks of the cone's inequalities
    (`tight_masks_by_pairs`)."""
    d = cone.d
    rays = [r for i, r in enumerate(cone.rays) if t >> i & 1]
    vecs = [r.lower() for r in rays]
    ech = echelon(vecs)
    dim = len(ech.pivots)
    traces = {}
    for n, u in zip(cone.inequalities, masks):
        if t & ~u:
            traces.setdefault(t & u, n)
    ridges = [s for s in traces if (s or dim == 1)
              and not any(s != o and s & ~o == 0 for o in traces)]
    eqs = _hull_equalities(ech)
    normals = project_into_hull_by_coordinates(eqs, [sym_to_functional(traces[s]) for s in ridges])
    ineqs = sorted(set(gcd_normalize(a, orient=False) for a in normals))
    if dim > 1 and len(ineqs) < dim:
        raise AssertionError("a face has fewer facets than its dimension")
    face = ConeDesc(d, tuple(functional_to_sym(d, e) for e in eqs),
                    tuple(functional_to_sym(d, a) for a in ineqs),
                    tuple(rays), dim, central_form(rays))
    face.check_incidences(vecs)
    return face


def flag_check_by_faces(db) -> tuple:
    """`classify.flag_check` with every facet cone of each primitive class
    built (`cone_facets`) and tested by `contains_pd`."""
    db.require_complete()
    m = sym_dim(db.d)
    cones = sum((Rat(sum(contains_pd(f) for f in cone_facets(rec.cone)), rec.stab_order)
                 for rec in db.by_dim.get(m, [])), Rat(0))
    walls = sum((Rat(2, rec.stab_order) for rec in db.by_dim.get(m - 1, [])), Rat(0))
    return cones, walls


def expand_primitive_cone_by_crossing(payload: dict) -> dict:
    """`classify.expand_primitive_cone` with every PD facet crossed by
    `neighbor_triangulation`, none made by congruence."""
    cone = cone_from_dict(payload["cone"])
    star = DelaunayStar(cone.central, payload["keys"])
    star_wall_forms(star)
    out = []
    for facet in cone_facets(cone):
        if not contains_pd(facet):
            continue
        nb_star = neighbor_triangulation(star, facet.central, cone.central)
        out.append({"cone": cone_to_dict(secondary_cone(nb_star)), "keys": nb_star.keys})
    return {"cones": out}


def expand_descent_cone_all_facets(payload: dict) -> dict:
    """`classify.expand_descent_cone` with every facet built and every
    positive definite one returned, in `cone_facets` order."""
    facets = cone_facets(cone_from_dict(payload["cone"]))
    return {"cones": [cone_to_dict(f) for f in facets if contains_pd(f)]}


def facet_orbits_by_rays(cone) -> list:
    """The orbits of a cone's facets under the stabilizer of its central
    form, as sorted lists of indices in `cone_facets` order, ordered by
    their first index.  Each generator U of `automorphism_group` maps a
    facet cone's rays R to U^T R U, which must be the ray set of a facet
    cone; the orbits are closed under those maps."""
    facets = cone_facets(cone)
    index = {frozenset(r.lower() for r in f.rays): k for k, f in enumerate(facets)}
    perms = []
    for g in automorphism_group(cone.central)[0]:
        perm = [index.get(frozenset(r.congruence(g.matrix).lower() for r in f.rays))
                for f in facets]
        if None in perm:
            raise AssertionError("a stabilizer map does not permute the facets")
        perms.append(perm)
    orbit_of = {}
    for i in range(len(facets)):
        if i in orbit_of:
            continue
        orbit_of[i] = i
        todo = [i]
        for j in todo:
            for perm in perms:
                if perm[j] not in orbit_of:
                    orbit_of[perm[j]] = i
                    todo.append(perm[j])
    orbits = {}
    for j in sorted(orbit_of):
        orbits.setdefault(orbit_of[j], []).append(j)
    return [orbits[i] for i in sorted(orbits)]


def merge_by_buckets(existing, candidates, digest: str = "sha256") -> list:
    """`classify.merge_candidates` through invariant-key buckets: a candidate
    is compared with the classes of its bucket by canonical form, then
    merged through a verified witness."""
    buckets = {}
    for cone in existing:
        inv, _ = _candidate_key(cone, digest)
        buckets.setdefault(inv, []).append(cone)
    keyed = [(_candidate_key(c, digest), c) for c in candidates]
    keyed.sort(key=lambda kc: (kc[0][0], kc[0][1], kc[1].key()))
    accepted = []
    for (inv, _), cone in keyed:
        canon = _form_canonical(cone.central)[0]
        dup = False
        for other in buckets.get(inv, ()):
            if _form_canonical(other.central)[0] == canon:
                if cone_equivalent(other, cone) is None:
                    raise AssertionError("equal certificates without a witness")
                dup = True
                break
        if not dup:
            buckets.setdefault(inv, []).append(cone)
            accepted.append(cone)
    return accepted


def merge_by_forms(existing, candidates, digest: str = "sha256") -> list:
    """`classify.merge_candidates` keyed by canonical form, over a list of
    the classes so far: every form is labeled through `_form_canonical`,
    so how often it is labeled depends on that cache, and a candidate whose
    form is taken merges through `cone_equivalent` of the two cones."""
    classes = {_form_canonical(c.central)[0]: c for c in existing}
    accepted = []
    for cone in sorted(candidates, key=lambda c: (_candidate_key(c, digest), c.key())):
        canon = _form_canonical(cone.central)[0]
        other = classes.get(canon)
        if other is None:
            classes[canon] = cone
            accepted.append(cone)
        elif cone_equivalent(other, cone) is None:
            raise AssertionError("equal canonical forms without a witness")
    return accepted


def refine_by_signatures(graph, colors) -> list:
    """`equiv.ColoredGraph.refine` by full signatures: each round ranks every
    vertex's (colour, sorted (edge colour, neighbour colour) pairs) over the
    whole graph, until the number of colours stops growing."""
    adj = [[] for _ in range(graph.n)]
    for (a, b), c in graph.edges.items():
        adj[a].append((b, c))
        adj[b].append((a, c))
    while True:
        sigs = []
        for v in range(graph.n):
            nbr = sorted((c, colors[u]) for u, c in adj[v])
            sigs.append((colors[v], tuple(nbr)))
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def canonical_labeling_by_full_search(graph):
    """`equiv.canonical_labeling` without backjumping: every leaf is
    encoded, a leaf with the form of the first or of the least leaf records
    its map from that leaf, and the search goes on below its siblings.  The
    same refinement, child order and orbit pruning, so the same form,
    labeling and order; a map from a leaf of equal form that fails the check
    is dropped."""
    n = graph.n
    if n == 0:
        return (0, (), ()), (), [], 1
    ranking = {c: i for i, c in enumerate(sorted(set(graph.node_colors)))}
    start = [ranking[c] for c in graph.node_colors]

    first: list = []            # form, labeling of the first leaf
    best: list = []             # form, labeling of the least leaf so far
    path: list[int] = []        # the prefix of the first leaf
    gens: list[tuple] = []

    def record_automorphism(lab1, lab2):
        g = [0] * n
        for p in range(n):
            g[lab1[p]] = lab2[p]
        g = tuple(g)
        if any(g[i] != i for i in range(n)) and g not in gens:
            ok = all(graph.node_colors[i] == graph.node_colors[g[i]] for i in range(n))
            if ok:
                for (i, j), c in graph.edges.items():
                    a, b = g[i], g[j]
                    if graph.edges.get((a, b) if a < b else (b, a)) != c:
                        ok = False
                        break
            if ok:
                gens.append(g)

    prefix: list[int] = []

    def dfs(colors, split):
        colors = graph.refine(colors, split)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            lab = tuple(sorted(range(n), key=lambda v: colors[v]))
            form = graph.encode(lab)
            if not first:
                first[:] = best[:] = form, lab
                path.extend(prefix)
                return
            if form == first[0]:
                record_automorphism(first[1], lab)
            elif form == best[0]:
                record_automorphism(best[1], lab)
            elif form < best[0]:
                best[:] = form, lab
            return
        explored: list[int] = []
        for v in target:
            fixers = [g for g in gens if all(g[u] == u for u in prefix)]
            if _orbit(v, fixers).isdisjoint(explored):
                prefix.append(v)
                dfs(graph.individualize(colors, v), target)
                prefix.pop()
            explored.append(v)

    dfs(start, None)
    order = 1
    for i, v in enumerate(path):
        order *= len(_orbit(v, [g for g in gens if all(g[u] == u for u in path[:i])]))
    return best[0], best[1], gens, order


def _compose(p: tuple, q: tuple) -> tuple:
    """Permutation applying q first, then p."""
    return tuple(map(p.__getitem__, q))


def _inverse_perm(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def group_order(degree: int, generators: Sequence[tuple]) -> int:
    """The order of `equiv.canonical_labeling` from the generators alone.

    Schreier-Sims with sifting (Seress, *Permutation Group Algorithms*,
    2003, ch. 4): a chain of base points b_0, b_1, ..., each with generators
    fixing the earlier base points and a transversal of its orbit.  Every
    Schreier generator of a level is sifted through the levels below it;
    a nonidentity residue joins the generators of the levels from the next
    one down to where its sift stopped, adding a base point when it sifted
    through them all.  Once every Schreier generator sifts to the identity,
    each level's generators generate the stabilizer of its base point in the
    level above, and the order is the product of the orbit lengths.
    """
    identity = tuple(range(degree))
    base: list[int] = []
    gens: list[list[tuple]] = []     # per level: generators fixing base[:level]
    trans: list[dict] = []           # per level: orbit point p -> (t, t^-1), t sends the base point to p
    tested: list[set] = []           # per level: (p, generator index) sifted already

    def sift(g, i):
        while i < len(base):
            t = trans[i].get(g[base[i]])
            if t is None:
                break
            g = _compose(t[1], g)
            i += 1
        return g, i

    def add(g, first, last):
        for level in range(first, last + 1):
            if level == len(base):
                b = next(x for x in range(degree) if g[x] != x)
                base.append(b)
                gens.append([])
                trans.append({b: (identity, identity)})
                tested.append(set())
            gens[level].append(g)
            orbit = trans[level]
            points = list(orbit)
            for p in points:
                for s in gens[level]:
                    q = s[p]
                    if q not in orbit:
                        t = _compose(s, orbit[p][0])
                        orbit[q] = (t, _inverse_perm(t))
                        points.append(q)

    for g in generators:
        h, j = sift(tuple(g), 0)
        if h != identity:
            add(h, 0, j)
    i = len(base) - 1
    while i >= 0:
        orbit = trans[i]
        residue = None
        for p in list(orbit):
            for x, s in enumerate(gens[i]):
                if (p, x) in tested[i]:
                    continue
                tested[i].add((p, x))
                q = s[p]
                h, j = sift(_compose(orbit[q][1], _compose(s, orbit[p][0])), i + 1)
                if h != identity:
                    residue = h, j
                    break
            if residue is not None:
                break
        if residue is None:
            i -= 1
        else:
            add(residue[0], i + 1, residue[1])
            i = residue[1]
    order = 1
    for orbit in trans:
        order *= len(orbit)
    return order


def group_order_by_closure(degree: int, generators) -> int:
    """`group_order` by iterated orbit-stabilizer reduction: at each level
    every Schreier generator of the orbit of the smallest moved point is
    kept, with no sifting (Schreier's lemma)."""
    gens = [tuple(g) for g in generators]
    gens = [g for g in gens if any(g[i] != i for i in range(degree))]
    order = 1
    identity = tuple(range(degree))
    while gens:
        base = min(i for g in gens for i in range(degree) if g[i] != i)
        transversal = {base: identity}
        frontier = [base]
        while frontier:
            p = frontier.pop()
            for g in gens:
                q = g[p]
                if q not in transversal:
                    transversal[q] = _compose(g, transversal[p])
                    frontier.append(q)
        order *= len(transversal)
        sub = set()
        for p, t in transversal.items():
            for g in gens:
                u = transversal[g[p]]
                sg = _compose(_inverse_perm(u), _compose(g, t))
                if any(sg[i] != i for i in range(degree)):
                    sub.add(sg)
        gens = list(sub)
    return order


def automorphism_count(graph) -> int:
    """The number of automorphisms of a `ColoredGraph`, by testing every
    permutation of its vertices against the node colours and every pair's
    edge colour (None for a non-edge); for small graphs only."""
    n = graph.n
    colors = graph.node_colors
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    count = 0
    for g in itertools.permutations(range(n)):
        if all(colors[g[v]] == colors[v] for v in range(n)) and all(
                graph.edges.get((min(g[i], g[j]), max(g[i], g[j]))) == graph.edges.get((i, j))
                for i, j in pairs):
            count += 1
    return count


def scheme_by_scan(by_dim: dict, d: int) -> dict:
    """`polyhedral._scheme_of_lattice` by testing every (k-1)-face against
    every k-face for containment."""
    scheme = {}
    for k in range(2, d):
        hist = {}
        for high in by_dim[k]:
            n = sum(1 for low in by_dim[k - 1] if low & ~high == 0)
            hist[n] = hist.get(n, 0) + 1
        scheme[k] = dict(sorted(hist.items()))
    return scheme
