"""Exact polyhedral computations: the double description method, halfspace
descriptions of cones given by rays, Dirichlet-Voronoi polytopes, face
lattices, subordination schemes and volumes.

`_dd_cone` is the one double description (DD), over the integers from its
set-up on, which one integer `echelon` seeds: the extreme rays of a pointed
cone given by its inequalities.  `rays_to_hrep` runs it on the polar side:
a cone given by rays is described inside its linear hull in the hull's
pivot coordinates, which one `exact.echelon` pass over the rays provides
together with the hull's equalities; no Gram system is solved per ray.
Polytopes are treated through their homogenization cones.

The Dirichlet-Voronoi (DV) cell at 0 is computed once, by `_dv_cell`: one
double description (`_dd_cone`) of the halfspaces of the coset minima of
Z^d / 2Z^d, each an integer row read off one integer Gram matrix c Q
(`_dv_row`), gives its vertices, and one closest-vector search per
translation class gives the Delaunay cell of each vertex with its
empty-sphere certificate; all these searches share one frame of the form
(`lattice._form_frame`); each centre is held as its DD ray over the
integers until the cells are returned.  Both the DV polytope (`dv_polytope`)
and the Delaunay star (`delaunay.delaunay_star`) are read off those
certified cells, by Voronoi's duality.  A DV polytope has one path from the
cells at 0 (`_dv_from_cells`), which the enrichment of a classification
also takes: there the cells are read off the triangulation of a primitive
ancestor (`delaunay.dv_polytope_by_coarsening`), and no DV cell is built
below the seed.  A face lattice is built from the
facets down, without arithmetic: the faces of each level are the maximal
intersections of the faces above with the facets, found among those with
enough vertices (on a polygon, by bit count alone), and the same pass
counts the subordination scheme (`_face_levels`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from operator import mul, sub
from typing import Sequence

from .exact import (
    Mat,
    NotPositiveDefinite,
    Rat,
    SymMat,
    _norm,
    _over_common,
    det,
    echelon,
    gcd_normalize,
    rank_of_rows,
)
from .lattice import _closest, _coset_minima, _form_frame


class NotPointed(Exception):
    """The cone contains a line: it has a nontrivial lineality space."""


def _dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def _at_most_two_contain(m: int, masks: Sequence[int]) -> bool:
    """Whether at most two of the bitmasks `masks` contain m; the scan stops
    at the third."""
    found = 0
    for mo in masks:
        if mo & m == m:
            found += 1
            if found == 3:
                return False
    return True


def _dd_cone(ineqs: list[tuple], dim: int) -> list[tuple]:
    """Extreme rays of {y : a y >= 0 for a in ineqs} in R^dim.

    Requires the system to have rank ``dim`` (pointed cone).  The first
    ``dim`` independent inequalities A0, found by one `echelon` pass, seed
    the method with the columns of their inverse: one more `echelon`, of
    [A0 | I], leaves D [I | A0^-1] with D > 0, and ray j is column j of the
    right block, made primitive.  As A0 times it is a positive multiple of
    e_j, it is tight on every initial inequality but the j-th, which is its
    mask.  All arithmetic is over the integers.  Each bitmask records the
    processed inequalities tight at a ray.  A ray of positive and one of
    negative value on the inequality added are adjacent exactly when their
    common mask m has at least dim - 2 bits and no third ray's mask
    contains it (the combinatorial test of Fukuda & Prodon, 1996): the
    minus rays of each plus ray are filtered on the bit count first, and
    the scan for masks containing m stops at the third.  Rays come back
    gcd-normalized and sorted.
    """
    if dim == 0:
        return []
    init = list(echelon(ineqs).independent) if ineqs else []
    if len(init) < dim:
        raise NotPointed("lineality space detected")
    ech = echelon([list(ineqs[i]) + [int(i == k) for k in init] for i in init])
    if ech.pivots != tuple(range(dim)):
        raise AssertionError("the initial inequalities are linearly dependent")
    rays = [gcd_normalize([row[dim + j] for row in ech.rows], orient=False) for j in range(dim)]
    rest = [k for k in range(len(ineqs)) if k not in init]
    # Insertion heuristic: inequalities satisfied by many initial rays first.
    rest.sort(key=lambda k: (-sum(1 for r in rays if _dot(ineqs[k], r) >= 0), k))

    processed = list(init)
    masks = [((1 << dim) - 1) ^ (1 << j) for j in range(dim)]

    need = dim - 2
    for k in rest:
        a = ineqs[k]
        vals = [sum(map(mul, a, r)) for r in rays]
        bit = 1 << len(processed)
        processed.append(k)
        if all(v >= 0 for v in vals):
            masks = [m | bit if v == 0 else m for m, v in zip(masks, vals)]
            continue
        plus = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        minus = [(i, masks[i]) for i, v in enumerate(vals) if v < 0]
        new_rays = []
        new_masks = []
        for ip in plus:
            mp, vp, rp = masks[ip], vals[ip], rays[ip]
            for im, m in [(im, m) for im, mm in minus if (m := mp & mm).bit_count() >= need]:
                if _at_most_two_contain(m, masks):
                    vm = vals[im]
                    comb = [vp * y - vm * x for x, y in zip(rp, rays[im])]
                    g = gcd(*comb)
                    new_rays.append(tuple(x // g for x in comb))
                    new_masks.append(m | bit)
        rays = [rays[i] for i in plus] + [rays[i] for i in zero] + new_rays
        masks = [masks[i] for i in plus] + [masks[i] | bit for i in zero] + new_masks

    # Rays are already primitive integer vectors; sort for determinism.
    return sorted(set(rays))


def _project_into_hull(equalities: Sequence[Sequence[int]],
                       normals: Sequence[Sequence[int]]) -> list[tuple]:
    """Orthogonal projections of integer functionals a onto the hull
    {x : E x = 0} of integer equalities E of full row rank, over the
    integers: D a - E^T X, where one `echelon` of [E E^T | E a ...] leaves
    D [I | (E E^T)^-1 E a ...].  Each result is a positive multiple of
    a - E^T (E E^T)^-1 E a, the unique functional in the hull that agrees
    with a on it, so it does not depend on the basis E of the equalities.
    Each result is formed column-wise: D a, less x_i e_i for each nonzero
    x_i of X."""
    if not equalities or not normals:
        return [tuple(a) for a in normals]
    k = len(equalities)
    ech = echelon([[_dot(e, f) for f in equalities] + [_dot(e, a) for a in normals]
                   for e in equalities])
    if ech.pivots != tuple(range(k)):
        raise AssertionError("hull equalities are linearly dependent")
    out = []
    for j, a in enumerate(normals):
        v = [ech.scale * c for c in a]
        for row, e in zip(ech.rows, equalities):
            xi = row[k + j]
            if xi:
                v = [c - xi * f for c, f in zip(v, e)]
        out.append(tuple(v))
    return out


def _hull_equalities(ech) -> tuple:
    """Canonical hull equalities of the rows `ech` reduced: its null space, oriented."""
    return tuple(gcd_normalize(e) for e in ech.nullspace())


def rays_to_hrep(rays: Sequence[Sequence[int]], dim: int) -> tuple[tuple, tuple]:
    """Irredundant halfspace description of the cone generated by integer
    rays, as the pair (equalities, inequalities): a x = 0 and a x >= 0.

    One `echelon` pass over the rays gives the equalities that cut out their
    linear hull and its pivot columns I.  Restriction to the coordinates I is
    injective on the hull, so the rays r_I are the inequalities of the polar
    cone there, and the double description method turns them into the facet
    normals g.  Each g is lifted to the unique functional in the hull that
    agrees with x -> g . x_I on it: g placed at I and projected orthogonally
    into the hull over the integers (`_project_into_hull`).  Normals are
    gcd-normalized, nonnegative on the rays and sorted.  Raises NotPointed
    when the rays generate a cone that contains a line.
    """
    rays = [tuple(r) for r in rays]
    if not rays:
        eqs = tuple(tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim))
        return eqs, ()
    ech = echelon(rays)
    equalities = _hull_equalities(ech)
    pivots = ech.pivots
    s = len(pivots)
    normals = _dd_cone([tuple(r[i] for i in pivots) for r in rays], s)
    # A pointed cone that spans its hull has a full-dimensional polar there.
    if s and rank_of_rows(normals) < s:
        raise NotPointed("ray set generates a non-pointed cone")
    lifted = []
    for g in normals:
        a = [0] * dim
        for i, x in zip(pivots, g):
            a[i] = x
        lifted.append(a)
    ineqs = [gcd_normalize(a, orient=False) for a in _project_into_hull(equalities, lifted)]
    return equalities, tuple(sorted(set(ineqs)))


@dataclass(frozen=True)
class LatPolytope:
    """Bounded full-dimensional polytope with exact rational vertex
    coordinates, irredundant facets (a, b) meaning a x + b >= 0, and exact
    vertex-facet incidences stored as one bitmask over the vertices per
    facet."""

    dim: int
    vertices: tuple
    facets: tuple
    facet_masks: tuple = field(repr=False)    # per facet: bitmask over vertices

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_facets(self) -> int:
        return len(self.facets)


def _integer_gram(q: SymMat) -> list[tuple]:
    """c Q as integer rows, c the least common denominator of Q's entries."""
    ints, _ = _over_common([x for row in q.entries for x in row])
    return [tuple(ints[i * q.d:(i + 1) * q.d]) for i in range(q.d)]


def _dv_row(gram: Sequence[tuple], v) -> tuple[int, tuple]:
    """G[v] and the primitive integer row (a, b) of -2 Q v . x + Q[v] >= 0,
    x no farther from 0 than from v, given G = c Q (`_integer_gram`): the
    row (-2 G v, G[v]) over its gcd, a positive multiple of the rational
    one.  The row of -v is the same with a negated."""
    gv = [sum(map(mul, row, v)) for row in gram]
    n = sum(map(mul, gv, v))
    g = gcd(2 * gcd(*gv), n)
    return n, tuple(-2 * x // g for x in gv) + (n // g,)


def _dv_cell(q: SymMat) -> list[tuple]:
    """The DV cell at 0 of a positive definite form, with the Delaunay cell
    of each of its vertices, certified.

    The DV cell is {x : -2 Q v . x + Q[v] >= 0} over the vectors v of
    `lattice._coset_minima` and their negatives, each row read off one
    integer Gram matrix G = c Q (`_dv_row`), the row of -v off that of v.
    Its vertices, from one double description with the halfspaces
    shortest first (by G[v], the order of Q[v]), are the
    circumcenters of the Delaunay cells at 0.  Each is held as its DD ray
    (y, t), the centre y / t: the ray is primitive, so t is the centre's
    least common denominator.  The cell of a vertex is the set of
    minimizers of Q[y / t - v], from one closest-vector search around y
    over t, which is also its empty-sphere certificate: 0 must be among
    them, at the value Q[y] / t^2.  The coset minima and these searches
    share one form frame (`lattice._form_frame`).  The other cells of its
    translation class are its translates by -v over its vertices v, the
    rays (y - t v, t), and need no call.  Checks: the DV cell is bounded,
    each DV vertex is the centre of exactly one cell found, and every
    translate's centre is a DV vertex.  The cells are sorted by
    y (T / t), T the least common multiple of the t, which is the order of
    their centres.  Returns one (vertices, center, sqradius) per DV vertex,
    the vertices sorted, the centre's coordinates as ``Fraction``s, in
    order of the centres.
    """
    if not q.is_positive_definite():
        raise NotPositiveDefinite("form is not positive definite")
    d = q.d
    zero = (0,) * d
    form = _form_frame(q)
    gram = _integer_gram(q)
    halfspaces = set()
    for v in _coset_minima(form):
        n, row = _dv_row(gram, v)
        halfspaces.update(((n, row), (n, tuple(-x for x in row[:-1]) + row[-1:])))
    rays = _dd_cone([h for _, h in sorted(halfspaces)], d + 1)
    if any(r[-1] <= 0 for r in rays):
        raise AssertionError("the DV cell is unbounded")
    cells = {}                   # ray of a cell's centre -> (vertices, sqradius)
    for r in rays:
        if r in cells:
            continue
        *y, t = r
        sqradius = _norm(Rat(q.quad(y), t * t))
        best, mins = _closest(form, y, t)
        if best != sqradius or zero not in mins:
            raise AssertionError("a DV vertex is not the centre of a cell at 0")
        for v in mins:
            # The centre c - v is the ray (y - t v, t), primitive as (y, t) is.
            ray = tuple(x - t * a for x, a in zip(y, v)) + (t,)
            if ray in cells:
                raise AssertionError("a DV vertex is the centre of two cells")
            cells[ray] = tuple(sorted(tuple(map(sub, w, v)) for w in mins)), sqradius
    # Every DV vertex is the centre of a cell found, so any further cell is
    # a translate whose centre is not a DV vertex.
    if len(cells) != len(rays):
        raise AssertionError(f"{len(cells)} cells but {len(rays)} DV vertices: "
                             "the centre of a translated cell is not a DV vertex")
    return [(vertices, centre, sqradius)
            for centre, (vertices, sqradius) in _in_centre_order(cells)]


def _in_centre_order(cells: dict) -> list[tuple]:
    """(centre, value) for each item of `cells`, which is keyed by the
    primitive integer ray (y, t), t > 0, of a centre y / t, in the order of
    the centres: by y (T / t), T the least common multiple of the t.  The
    centre's coordinates are ``Fraction``s."""
    big = lcm(*(r[-1] for r in cells))
    order = sorted(cells, key=lambda r: tuple(x * (big // r[-1]) for x in r[:-1]))
    frac = {key: Rat(*key) for key in {(x, r[-1]) for r in cells for x in r[:-1]}}
    return [(tuple(frac[x, r[-1]] for x in r[:-1]), cells[r]) for r in order]


def dv_polytope(q: SymMat) -> LatPolytope:
    """Dirichlet-Voronoi polytope of a positive definite form, exactly, read
    off the certified Delaunay cells of its vertices (`_dv_cell`) by
    Voronoi's duality (`_dv_from_cells`)."""
    return _dv_from_cells(q, [(vertices, centre) for vertices, centre, _ in _dv_cell(q)])


def _dv_from_cells(q: SymMat, cells: Sequence[tuple]) -> LatPolytope:
    """The DV polytope of a positive definite form, given (vertices, centre)
    for every Delaunay cell at 0, in the order of the centres.

    The vertices are the circumcenters of the Delaunay cells at 0.  Every
    nonzero vertex v of those cells gives the halfspace -2 Q v . x + Q[v] >= 0
    (x is no farther from 0 than from v), and a center lies on its boundary
    exactly when v is a vertex of the center's cell: the cell's sphere is
    empty and passes through 0; its integer row is read off one Gram matrix
    G = c Q (`_dv_row`).  The halfspace supports a facet exactly when
    [0, v] is a Delaunay edge, that is, when the cells having 0 and v as
    vertices have no other common vertex.  Their intersection is the
    smallest face of the subdivision containing 0 and v, and the DV face it
    is dual to is a facet exactly when that face is an edge; this screens
    out non-edges such as the diagonals of square cells.  Vertices and the
    integral facet rows (a, b) are each in sorted order, and the incidences
    are one bitmask over the vertices per facet.  Raises AssertionError
    unless every vertex lies on at least d facets.
    """
    d = q.d
    zero = (0,) * d
    containing = {}              # v -> bitmask over cells having v as vertex
    common = {}                  # v -> vertices common to those cells
    for i, (vertices, _) in enumerate(cells):
        vset = frozenset(vertices)
        for v in vertices:
            if v != zero:
                containing[v] = containing.get(v, 0) | 1 << i
                common[v] = common[v] & vset if v in common else vset
    gram = _integer_gram(q)
    facets = sorted((_dv_row(gram, v)[1], v) for v in containing if len(common[v]) == 2)
    index = {v: j for j, (_, v) in enumerate(facets)}
    for vertices, center in cells:
        if sum(1 for v in vertices if v in index) < d:
            raise AssertionError(f"DV vertex {center} lies on fewer than {d} facets")
    return LatPolytope(d, tuple(center for _, center in cells),
                       tuple((h[:-1], h[-1]) for h, _ in facets),
                       tuple(containing[v] for _, v in facets))


def incidence_graph(p: LatPolytope):
    """Vertex-facet incidence graph as (n_nodes, node_colors, edges dict).

    Vertices come first, then facets; the two sides carry distinct colors.
    The edges of each facet are read off the set bits of its mask, lowest
    first.  Suitable for canonical labeling in the equivalence module.
    """
    nv, nf = p.n_vertices, p.n_facets
    node_colors = [0] * nv + [1] * nf
    edges = {}
    for j, fm in enumerate(p.facet_masks):
        while fm:
            low = fm & -fm
            edges[(low.bit_length() - 1, nv + j)] = 1
            fm ^= low
    return nv + nf, node_colors, edges


def _intersection_closure(masks) -> set:
    """The bitmasks `masks` together with all intersections of two or more
    of them (the empty mask 0 included, when it arises)."""
    masks = set(masks)
    closed = set(masks)
    frontier = masks
    while frontier:
        frontier = {f & g for f in frontier for g in masks} - closed
        closed |= frontier
    return closed


def _face_levels(p: LatPolytope) -> tuple[dict, tuple, dict]:
    """Faces by dimension, f-vector and subordination scheme of a polytope,
    in one pass from the facets down (Kaibel & Pfetsch, 2002).

    The (k-1)-faces of a k-face F are the inclusion-maximal sets among the
    nonempty proper F & g over the facets g: each F & g is a proper face of
    F, and each facet G of F is one of them, for a facet g that contains G
    but not F.  A (k-1)-face has at least k vertices, so the candidates
    with fewer bits, never maximal, are dropped first.  On a polygon that
    leaves exactly its edges, the F & g with two bits: every vertex of a
    polygon lies on an edge, so no scan is needed.  Above, the candidates
    are taken in order of decreasing size and each is tested only against
    the maxima already kept.  The number of maxima is F's number of
    subfaces, which the scheme counts; it is read into the histogram of F's
    level at once.  The vertices are the singletons, so the edges are the
    last level built.  No arithmetic is needed.
    """
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
            cands = {h for g in facets if (h := f & g).bit_count() >= k}
            cands.discard(f)
            if k == 2:
                kept = cands
            else:
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


def face_lattice(p: LatPolytope):
    """All faces as vertex index sets grouped by dimension, plus f-vector.

    The levels are built from the facets down (`_face_levels`): the
    (k-1)-faces of each k-face are the maximal sets among its proper
    nonempty intersections with the facets.  The full polytope is included,
    the empty face is not; each level is sorted.
    """
    by_dim, f_vector, _ = _face_levels(p)
    return by_dim, f_vector


def subordination_scheme(p: LatPolytope) -> dict[int, dict[int, int]]:
    """Face-incidence histograms between consecutive levels of the face
    lattice: for each k in 2..d-1, the map sending n to the number of k-faces
    incident to exactly n of the (k-1)-faces (for k = 2, the polygon census
    of the 2-faces).  Empty for d <= 2.  The counts are those of the pass
    that builds the face lattice (`_face_levels`).

    Counting subordinate faces (downward) rather than containing faces is
    what gives the invariant its separating power: on simple polytopes every
    (k-1)-face lies in the same number of k-faces, so the upward histograms
    carry no information beyond the f-vector.
    """
    return _face_levels(p)[2]


def serialize_subordination(scheme: dict[int, dict[int, int]]) -> str:
    parts = []
    for k in sorted(scheme):
        inner = ",".join(f"{n}:{c}" for n, c in sorted(scheme[k].items()))
        parts.append(f"{k}=[{inner}]")
    return ";".join(parts)


def _triangulate_face(mask: int, by_dim, dim_of: dict[int, int], p: LatPolytope, memo: dict):
    """Fan triangulation of a face, as tuples of vertex indices."""
    if mask in memo:
        return memo[mask]
    k = dim_of[mask]
    idxs = [i for i in range(p.n_vertices) if mask >> i & 1]
    if k == 0:
        memo[mask] = [tuple(idxs)]
        return memo[mask]
    apex = idxs[0]
    simplices = []
    for sub in by_dim[k - 1]:
        if sub & ~mask == 0 and not (sub >> apex & 1):
            for s in _triangulate_face(sub, by_dim, dim_of, p, memo):
                simplices.append((apex,) + s)
    memo[mask] = simplices
    return simplices


def polytope_volume(p: LatPolytope):
    """Exact volume via fan triangulation from the first vertex."""
    d = p.dim
    by_dim, _ = face_lattice(p)
    dim_of = {}
    for k, masks in by_dim.items():
        for m in masks:
            dim_of[m] = k
    memo: dict[int, list] = {}
    full = (1 << p.n_vertices) - 1
    total = Rat(0)
    fact = 1
    for i in range(2, d + 1):
        fact *= i
    for simplex in _triangulate_face(full, by_dim, dim_of, p, memo):
        v0 = p.vertices[simplex[0]]
        rows = [[x - y for x, y in zip(p.vertices[i], v0)] for i in simplex[1:]]
        dv = det(Mat(rows))
        total += abs(Rat(dv))
    return total / fact


__all__ = [
    "LatPolytope",
    "NotPointed",
    "dv_polytope",
    "face_lattice",
    "incidence_graph",
    "polytope_volume",
    "rays_to_hrep",
    "serialize_subordination",
    "subordination_scheme",
]
