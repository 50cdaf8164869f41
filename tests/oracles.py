"""Reference implementations that the library no longer calls.

Each of these was once in `lcone` and has no caller in the pipeline, the
CLI or the demos, or was replaced there by a faster or leaner path.  They
stay here as independent routes for the tests: short vectors by enumeration
around 0, the double description of a cone with equalities, polytopes from
halfspaces by one double description, polytopes from vertices with the
points that are not vertices dropped, the facets of a Delaunay cell read off
that polytope, canonical extreme rays, the normalized translate of a cell,
the Delaunay star by moving spheres, the Dirichlet-Voronoi polytope read off
the Delaunay star, the stabilizer order of a cone, the adjacent pairs of a
triangulation as a list, the regulator over rational matrices, the wall
crossing with every adjacent pair evaluated and its checks on the rational
form, facet cones and fundamental faces by one double description each,
the equalities a face was stored with when they were threaded down the
descent, the merge through invariant buckets, the merge by canonical forms
with every form labeled through the shared cache, colour refinement by full
signatures, the group order by Schreier-Sims with sifting and by Schreier
generators kept without sifting, the automorphism count of a small graph
over all permutations, the subordination scheme by a scan of every pair of
faces, and the primitive expansion by a crossing of every positive definite
wall.
"""

import itertools
from collections import Counter, deque
from typing import Sequence

from lcone.classify import _candidate_key
from lcone.delaunay import (
    Cell,
    DelaunayStar,
    NotOnSingleFacet,
    Regulator,
    _facet_pairs,
    _normalized,
    _star_cells,
    cell_facets,
    circumcenter,
    delaunay_star,
    neighbor_triangulation,
)
from lcone.equiv import _form_canonical, cone_equivalent
from lcone.exact import (
    AffinelyDependent,
    Mat,
    NotPositiveDefinite,
    Rat,
    SingularMatrix,
    SymMat,
    clear_denominators,
    echelon,
    rank_of_rows,
    solve,
)
from lcone.lattice import VectorSet, characteristic_set, closest_vectors, enumerate_close
from lcone.polyhedral import (
    LatPolytope,
    _dd_cone,
    _dot,
    _dv_halfspace,
    rays_to_hrep,
)
from lcone.scone import (
    cone_facets,
    cone_from_dict,
    cone_from_rays,
    cone_to_dict,
    contains_pd,
    secondary_cone,
    star_wall_forms,
)


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


def normalized(cell: Cell) -> tuple:
    """Translate the lexicographically smallest vertex to the origin.
    Returns (cell, shift) with cell = `cell` translated by shift."""
    base = min(cell.vertices)
    shift = tuple(-x for x in base)
    return cell.translate(shift), shift


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
    """(class key, extra vertex, regulator) for every pair of adjacent
    simplices of a triangulation given by its class keys, every regulator
    computed from scratch: the values of `delaunay._facet_pairs`."""
    return list(_facet_pairs(keys).values())


def regulator_by_fractions(points, w) -> Regulator:
    """`delaunay.regulator` over rational matrices: w w^T - sum a_v v v^T built
    from `SymMat`s, then scaled by a positive rational to a primitive
    integral matrix."""
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
        return Regulator(SymMat.zero(d), alphas)
    return Regulator(SymMat.from_lower(d, clear_denominators(n.lower())), alphas)


def neighbor_triangulation_by_fractions(star, wallpoint, center):
    """`delaunay.neighbor_triangulation` with every adjacent pair evaluated
    on the wallpoint and every check run on the rational form
    wallpoint + eps (wallpoint - center) itself."""
    if not wallpoint.is_positive_definite():
        raise NotPositiveDefinite("wallpoint is not positive definite")
    pairs = list(star.pairs.values())
    values = [reg.matrix.pair(wallpoint) for _, _, reg in pairs]
    tight = [pair for pair, val in zip(pairs, values) if val == 0]
    walls = {reg.matrix.lower() for _, _, reg in tight}
    if len(walls) != 1:
        raise NotOnSingleFacet(f"wallpoint is tight on {len(walls)} walls, need exactly 1")
    if any(val < 0 for val in values):
        raise NotOnSingleFacet("wallpoint is outside the closed cone")

    removed, added = set(), set()
    for key, w, reg in tight:
        circuit = key + (w,)
        for z, lam in zip(circuit, [-a for a in reg.alphas] + [1]):
            if lam != 0:
                simplex = _normalized([p for p in circuit if p != z])
                (removed if lam > 0 else added).add(simplex)
    old_keys = set(star.keys)
    if not removed <= old_keys:
        raise AssertionError("the flip removes a simplex that is not in the star")
    keys = tuple(sorted(old_keys - removed | added))

    new_pairs = _facet_pairs(keys, star.pairs)
    new_walls = {reg.matrix.lower(): reg.matrix
                 for _, _, reg in new_pairs.values()}.values()
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
        sphere_center, sqradius = circumcenter(cand, key)
        best, mins = closest_vectors(cand, sphere_center)
        if best != sqradius or tuple(sorted(mins)) != key:
            raise AssertionError("flipped cell failed the empty-sphere check")
    flipped = DelaunayStar(cand, keys)
    flipped.__dict__["pairs"] = new_pairs   # the slot `cached_property` fills
    return flipped


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
