"""Delaunay subdivisions of Z^d with respect to a positive definite form.

The subdivision is represented by its star at the origin: all full
dimensional Delaunay cells having 0 as a vertex.  A star is stored as its
form and its class keys, the vertex tuples of one normalized representative
per translation class (smallest vertex 0).  The star is read off the
Dirichlet-Voronoi cell at 0, whose vertices are the circumcenters of the
cells at 0 (Voronoi's duality): `polyhedral._dv_cell` gives every cell at 0
with its empty-sphere certificate, and the star adds the check that the
cells tile face to face.  That is the one source of a star's cells: a star
built from keys reads them off the DV cell of its form, and the keys must
match.

No adjacency is stored.  Every facet of a face-to-face tiling lies in
exactly two cells, so the class facets that are translates of each other,
that is, that have the same `_normalized` form, come in pairs: the two
sides of a normalized facet are two adjacent cells up to translation.  For
a triangulation, each pair (V, w), a simplex and the extra vertex of its
neighbour, spans a circuit whose wall (its regulator) is one condition of
the secondary cone.  One kernel serves every wall (`_pair_coordinates`):
one integer `echelon` per class key V gives the integer affine coordinates
l of the extra points of its pairs, with sum_v l_v = D > 0.  The wall is
D w w^T - sum_v l_v v v^T (`_facet_pairs`); its value at a form F is
D F[w] - sum_v l_v F[v] (`_wall_values`).

Crossing a wall of a triangulation's secondary cone is a bistellar flip of
the circuits that the wall cuts out, read off the signs of their
coordinates (`neighbor_triangulation`).  It works on the keys alone and
builds no cell: every class the flip adds is certified by the same
empty-sphere check, and every class it keeps by the positive walls of its
facets.  A triangulation's star keeps its adjacent pairs
(`DelaunayStar.pairs`), and the flipped star inherits those the flip left
alone.  Each distinct wall is evaluated once on the wallpoint, and the
checks on the new form run on its primitive integer multiple, which has
the same signs, circumcenters and closest vectors.  A circumcentre is one
integer `echelon` too, read as a primitive integer ray (`_center_ray`).

A form Q in the closed secondary cone of a triangulation T has as its
Delaunay subdivision the coarsening of T across the walls that vanish on
Q.  So the DV polytope of any face form of a certified triangulation's
cone is read off T (`dv_polytope_by_coarsening`): the walls are evaluated
by the same kernel, with no wall matrix, and only the merged cells are
solved, with no lattice search and no double description.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import add, mul, sub
from typing import Optional, Sequence

from .exact import (
    AffinelyDependent,
    NotPositiveDefinite,
    Rat,
    SymMat,
    _norm,
    _over_common,
    clear_denominators,
    echelon,
    gcd_normalize,
)
from .lattice import closest_vectors
from .polyhedral import LatPolytope, _dot, _dv_cell, _dv_from_cells, _in_centre_order, rays_to_hrep


class NotATriangulation(Exception):
    pass


class NotOnSingleFacet(Exception):
    pass


@dataclass(frozen=True)
class Cell:
    """Full-dimensional Delaunay cell: lattice vertices on an empty sphere."""

    vertices: tuple          # sorted tuple of integer vectors
    center: tuple            # exact rational circumcenter
    sqradius: object         # exact squared circumradius


@dataclass(frozen=True)
class DelaunayStar:
    """Star of the origin in the Delaunay subdivision of a form.

    A star is its form and its class keys: the sorted vertex tuples of its
    translation class representatives, each normalized (smallest vertex 0).
    The keys determine the subdivision; adjacent classes are found by
    pairing normalized facets (see the module docstring).

    Two views are derived on first use and cached.  Neither is a field, so
    equality, hashing and `repr` see only the form and the keys.
    - `cells`: every cell with 0 as a vertex, sorted, as certified by
      `_dv_cell`.  `delaunay_star` hands them over; a star built from keys
      takes those of `delaunay_star(form)`, whose keys must be its own.
    - `pairs`: a triangulation's adjacent simplex pairs, normalized facet ->
      (class key, extra vertex, wall, integer affine coordinates), as
      `_facet_pairs` computes them.  A star made by
      `neighbor_triangulation` is given them by the flip."""

    form: SymMat
    keys: tuple                  # sorted normalized class representatives

    @property
    def dim(self) -> int:
        return self.form.d

    @cached_property
    def cells(self) -> tuple:
        """All cells with 0 as a vertex, sorted: those of the form's
        Delaunay star.  Raises ValueError unless its keys are these."""
        star = delaunay_star(self.form)
        if star.keys != self.keys:
            raise ValueError("the keys are not the Delaunay subdivision of the form")
        return star.cells

    @cached_property
    def pairs(self) -> dict:
        """normalized facet -> (class key, extra vertex, wall, coordinates)."""
        return _facet_pairs(self.keys)


def circumcenter(q: SymMat, points: Sequence[Sequence[int]]) -> tuple[tuple, object]:
    """Exact center and squared radius of the sphere through d+1 affinely
    independent lattice points, in the metric of Q.

    The centre is that of the primitive integer multiple c Q of Q, the ray
    (y, t) of `_center_ray`: y / t, its coordinates ints where integral and
    ``Fraction``s otherwise.  The squared radius is Q[y - t p_0] / t^2,
    that is (c Q)[y - t p_0] / (c t^2), an int where integral.  Raises
    AffinelyDependent."""
    pts = [tuple(p) for p in points]
    ints, den = _over_common(q.lower())
    g = gcd(*ints) or 1          # c = den / g
    form = SymMat.from_lower(q.d, [x // g for x in ints])
    y, t = _center_ray(form, pts)
    center = tuple(x // t if x % t == 0 else Rat(x, t) for x in y)
    sq = form.quad([b - t * a for a, b in zip(pts[0], y)])
    return center, _norm(Rat(sq * g, t * t * den))


def _center_ray(q: SymMat, points: Sequence[tuple]) -> tuple[tuple, int]:
    """The circumcentre y / t of d+1 affinely independent lattice points in
    the metric of an integral form Q, as a primitive integer ray (y, t),
    t > 0.

    The centre c is the solution of 2 (Q (p_i - p_0)) . c = Q[p_i] - Q[p_0]
    for i = 1..d.  One `echelon` of the integer rows
    [2 Q (p_i - p_0) | Q[p_i] - Q[p_0]] leaves D [I | c], and (D c, D)
    divided by its gcd is the ray.  Raises AffinelyDependent."""
    d = q.d
    if len(points) != d + 1:
        raise AffinelyDependent(f"need {d + 1} points, got {len(points)}")
    p0 = points[0]
    n0 = q.quad(p0)
    rows = []
    for p in points[1:]:
        rows.append([2 * x for x in q.mul_vec([a - b for a, b in zip(p, p0)])] + [q.quad(p) - n0])
    ech = echelon(rows)
    if ech.pivots[:d] != tuple(range(d)):
        raise AffinelyDependent("points are affinely dependent")
    ray = [row[d] for row in ech.rows] + [ech.scale]
    g = gcd(*ray)
    return tuple(x // g for x in ray[:-1]), ray[-1] // g


def _translated(vertices: tuple) -> tuple:
    """A sorted tuple of vertex tuples translated so that its first,
    smallest vertex is 0; a translation keeps the order, so nothing is
    sorted.  A tuple whose first vertex is 0, as every facet through 0 of a
    class key, is returned as it is."""
    base = vertices[0]
    if not any(base):
        return vertices
    return tuple([tuple(map(sub, v, base)) for v in vertices])


def _normalized(vertices) -> tuple:
    """Sorted vertex tuple translated so that its smallest vertex is 0."""
    return _translated(tuple(sorted(vertices)))


def cell_facets(cell: Cell, d: int) -> list[tuple]:
    """Vertex sets of the (d-1)-faces of a cell, each sorted, in sorted order.

    Simplices get the combinatorial shortcut (drop one vertex at a time).
    Every lattice point of a Delaunay cell lies on its empty sphere, so every
    point is a vertex, and a general cell's facets are the sets of vertices
    tight on the inequalities of its homogenization cone (`rays_to_hrep` of
    the points (v, 1)).  Raises ValueError unless the cell is
    full-dimensional.
    """
    if len(cell.vertices) == d + 1:
        return [cell.vertices[:i] + cell.vertices[i + 1:]
                for i in range(d + 1)]
    points = [v + (1,) for v in cell.vertices]
    equalities, inequalities = rays_to_hrep(points, d + 1)
    if equalities:
        raise ValueError("cell is not full-dimensional")
    return sorted(tuple(v for v, p in zip(cell.vertices, points) if _dot(g, p) == 0)
                  for g in inequalities)


def delaunay_star(q: SymMat) -> DelaunayStar:
    """Star of the origin, read off the Dirichlet-Voronoi (DV) cell at 0.

    `polyhedral._dv_cell` gives the cell of every DV vertex, certified by an
    empty-sphere check, one `closest_vectors` call per translation class.
    The normalized representative of a class (smallest vertex 0) is one of
    these cells, the one whose smallest vertex is 0.  The star checks
    that every normalized class facet has exactly two sides, so that the
    cells tile face to face, and is handed the certified cells.
    Deterministic ordering.
    """
    d = q.d
    cells = tuple(sorted((Cell(*cell) for cell in _dv_cell(q)), key=lambda c: c.vertices))
    reps = [cell for cell in cells if not any(cell.vertices[0])]
    sides = Counter(_normalized(facet) for rep in reps for facet in cell_facets(rep, d))
    if any(n != 2 for n in sides.values()):
        raise AssertionError("a facet of the star does not lie in exactly two cells")
    star = DelaunayStar(q, tuple(rep.vertices for rep in reps))
    star.__dict__["cells"] = cells      # `cached_property`'s slot
    return star


def _class_facets(keys: Sequence[tuple]) -> dict:
    """The two sides of every facet of a triangulation given by its class
    keys, keyed by the normalized facet: [(class key, facet, vertex off
    it)] for the first side in key order, then the second.

    Every facet lies in exactly two simplices, so the class facets with the
    same normalized form come in pairs.  If the facet F of `key` and the
    facet G of `nkey` pair up, the neighbour of `key` across F is
    `nkey + (F[0] - G[0])`.  A key is sorted, so each of its facets is,
    and is normalized by translating it by its first vertex
    (`_translated`).  Raises NotATriangulation unless every key has d + 1
    points, and AssertionError unless every facet has exactly two sides."""
    sides = {}                   # normalized facet -> [(key, facet, vertex off it)]
    for key in keys:
        if len(key) != len(key[0]) + 1:
            raise NotATriangulation("star contains a non-simplex cell")
        if list(key) != sorted(key):
            raise ValueError("a class key is not sorted")
        for i, v in enumerate(key):
            facet = key[:i] + key[i + 1:]
            sides.setdefault(_translated(facet), []).append((key, facet, v))
    for pair in sides.values():
        if len(pair) != 2:
            raise AssertionError(f"a facet of the triangulation lies in {len(pair)} cells")
    return sides


def _pair_coordinates(keys: Sequence[tuple], carried: Optional[dict] = None) -> dict:
    """The wall kernel: every pair of adjacent simplices of a triangulation
    given by its class keys, normalized facet -> (class key V, extra vertex
    w, neighbour key, offset, l).

    Each pair is taken from the first side V of its facet (`_class_facets`);
    the neighbour across it is `nkey + offset`, and w is its vertex off the
    facet, translated by the offset.  One integer `echelon` of
    [V | w_1 ... w_m; 1 ... 1] per key V, over the w of its pairs, leaves
    D [I | l_1 ... l_m] with D = |det [V; 1]| > 0: l are the integer affine
    coordinates of w, w = sum_v (l_v / D) v and sum_v l_v = D.

    A pair with the class key and extra vertex of the pair of its facet in
    `carried` (as `_facet_pairs` returns them) gets l = None, and a key
    whose pairs are all carried gets no `echelon`.  Raises
    NotATriangulation unless every key is a simplex."""
    d = len(keys[0][0])
    sides, taken = {}, {}        # taken: key -> facets of the pairs to solve
    for norm, ((key, facet, _), (nkey, nfacet, nv)) in _class_facets(keys).items():
        shift = tuple(map(sub, facet[0], nfacet[0]))
        w = tuple(map(add, nv, shift))
        sides[norm] = key, w, nkey, shift
        old = carried.get(norm) if carried else None
        if old is None or old[:2] != (key, w):
            taken.setdefault(key, []).append(norm)
    coords = {}
    for key, norms in taken.items():
        ws = [sides[norm][1] for norm in norms]
        ech = echelon([[p[i] for p in key] + [w[i] for w in ws] for i in range(d)]
                      + [[1] * (d + 1 + len(ws))])
        if ech.pivots[:d + 1] != tuple(range(d + 1)):
            raise NotATriangulation("a class key is not a simplex")
        for j, norm in enumerate(norms, d + 1):
            coords[norm] = tuple(row[j] for row in ech.rows)
    return {norm: side + (coords.get(norm),) for norm, side in sides.items()}


def _facet_pairs(keys: Sequence[tuple], carried: Optional[dict] = None) -> dict:
    """(class key V, extra vertex w, wall, l) for every pair of adjacent
    simplices of a triangulation given by its class keys (the normalized
    class representatives' vertex tuples, as `DelaunayStar.keys`), keyed by
    their normalized facet.  A star keeps them as `DelaunayStar.pairs`.

    l are the integer affine coordinates of w over V (`_pair_coordinates`),
    sum_v l_v = D > 0, and the wall is the form D w w^T - sum_v l_v v v^T
    with gcd 1, the regulator of the circuit: it is positive on the forms
    whose Delaunay triangulation this is.  Pairs whose wall is zero are
    left out.

    `carried` holds the pairs of another triangulation keyed the same way,
    as a bistellar flip leaves them.  A pair with the class key and extra
    vertex of the carried pair of its facet spans the same circuit, so it
    is copied, not computed.  With sorted keys on both sides that holds
    exactly for the facets whose two sides are classes the flip kept."""
    d = len(keys[0][0])
    out = {}
    for norm, (key, w, _, _, coords) in _pair_coordinates(keys, carried).items():
        if coords is None:
            out[norm] = carried[norm]
            continue
        terms = [(a, p) for a, p in zip(coords, key) if a]
        scale = sum(coords)
        lower = [scale * w[i] * w[j] - sum(a * p[i] * p[j] for a, p in terms)
                 for i in range(d) for j in range(i + 1)]
        if any(lower):
            out[norm] = key, w, SymMat.from_lower(d, gcd_normalize(lower, orient=False)), coords
    return out


def _wall_values(keys: Sequence[tuple], forms: Sequence[SymMat]) -> dict:
    """The wall of every pair of adjacent simplices of a triangulation,
    given by its class keys, evaluated on integral forms, without a wall
    matrix: normalized facet -> (class key, neighbour key, offset, values).

    The pairs and their integer affine coordinates l are those of
    `_pair_coordinates`, each pair (V, w) taken from its first side V,
    whose neighbour across the facet is `nkey + offset`.  Its value at F is
    D F[w] - sum_v l_v F[v], D = sum_v l_v > 0, a positive multiple of the
    pairing of F with its wall in `_facet_pairs`.  Raises NotATriangulation
    unless every key is a simplex."""
    pairs = _pair_coordinates(keys)
    points = {p for key in keys for p in key} | {w for _, w, _, _, _ in pairs.values()}
    norms = {p: [f.quad(p) for f in forms] for p in points}
    on_key = {key: list(zip(*(norms[v] for v in key))) for key in keys}   # per form, F[v] over the key
    out = {}
    for norm, (key, w, nkey, shift, coords) in pairs.items():
        scale = sum(coords)
        out[norm] = key, nkey, shift, tuple(scale * fw - sum(map(mul, coords, fv))
                                            for fw, fv in zip(norms[w], on_key[key]))
    return out


def dv_polytope_by_coarsening(q: SymMat, keys: Sequence[tuple], anchor: SymMat) -> LatPolytope:
    """The DV polytope of a positive definite form Q, read off a Delaunay
    triangulation T whose closed secondary cone holds Q: equal to
    `polyhedral.dv_polytope(q)` field for field, with no lattice search and
    no double description.

    T is given by its class keys, and `anchor` must be a form whose Delaunay
    triangulation it is.  That is checked as `scone.star_wall_forms` checks
    a star: every wall of T must be positive on the anchor, and a locally
    Delaunay triangulation is Delaunay.  Every wall must be >= 0 on Q.  The
    Delaunay subdivision of Q is then the coarsening of T that merges the
    adjacent simplices whose wall vanishes on Q: its cells are the domains
    of linearity of the convex lifting of T by Q (De Loera, Rambau & Santos,
    Triangulations, 2010; Schürmann, Computational Geometry of Positive
    Definite Quadratic Forms, 2009).

    The walls of the pairs of T are evaluated on the anchor and on Q by one
    integer `echelon` per class key, with no wall matrix (`_wall_values`),
    each as a positive multiple of the pairing with its wall.  The
    merged classes are found by a search over (class key, offset) across
    the pairs whose wall is 0 on Q.  Each gets one integer circumcentre
    (y, t), solved from its first simplex, which holds 0 (`_center_ray` on
    the primitive integer multiple of Q), and every other point p of the
    class must have Q[t p - y] = Q[y].  The cells at 0 are the translates of
    each merged cell by -v over its points v, with the centre rays
    (y - t v, t), and the DV polytope is read off them as `dv_polytope`
    reads it (`polyhedral._dv_from_cells`).

    Raises NotPositiveDefinite unless Q is positive definite,
    NotATriangulation unless every key is a simplex, ValueError unless every
    wall is > 0 on the anchor and >= 0 on Q, and AssertionError unless the
    facets pair up (`_class_facets`) and every merged class lies on one
    sphere.
    """
    if not q.is_positive_definite():
        raise NotPositiveDefinite("form is not positive definite")
    d = q.d
    form = SymMat.from_lower(d, clear_denominators(q.lower()))
    anchor = SymMat.from_lower(d, clear_denominators(anchor.lower()))
    merges = {key: [] for key in keys}   # key -> [(neighbour key, offset)] across walls 0 on Q
    for key, nkey, shift, (on_anchor, on_form) in _wall_values(keys, (anchor, form)).values():
        if on_anchor <= 0:
            raise ValueError("the keys are not the Delaunay triangulation of the anchor")
        if on_form < 0:
            raise ValueError("the form is outside the closed secondary cone of the keys")
        if not on_form:
            merges[key].append((nkey, shift))
            merges[nkey].append((key, tuple(-x for x in shift)))
    zero = (0,) * d
    cells = {}                   # centre ray (y, t) of a cell at 0 -> its vertices
    done = set()
    for key in keys:
        if key in done:
            continue
        found = {(key, zero)}
        stack = [(key, zero)]
        while stack:
            k, s = stack.pop()
            for nkey, shift in merges[k]:
                node = (nkey, tuple(map(add, s, shift)))
                if node not in found:
                    found.add(node)
                    stack.append(node)
        done.update(k for k, _ in found)
        merged = {tuple(map(add, v, s)) for k, s in found for v in k}
        y, t = _center_ray(form, key)
        sq = form.quad(y)
        for p in merged.difference(key):
            if form.quad([t * a - b for a, b in zip(p, y)]) != sq:
                raise AssertionError("a merged cell does not lie on one sphere")
        for v in merged:
            ray = tuple(b - t * a for a, b in zip(v, y)) + (t,)
            cells[ray] = tuple(sorted(tuple(map(sub, p, v)) for p in merged))
    return _dv_from_cells(q, [(vertices, centre) for centre, vertices in _in_centre_order(cells)])


def is_triangulation(star: DelaunayStar) -> bool:
    """True iff every Delaunay cell is a simplex."""
    return all(len(key) == star.dim + 1 for key in star.keys)


def neighbor_triangulation(star: DelaunayStar, wallpoint: SymMat, center: SymMat) -> DelaunayStar:
    """Cross the wall of the secondary cone through `wallpoint` by a
    bistellar flip of the tight circuits.

    `wallpoint` must be positive definite and lie in the relative interior of
    exactly one facet of the closure of the secondary cone of `star`;
    `center` must be interior.  Every pair of adjacent simplices whose
    wall vanishes on the wallpoint gives a circuit Z = rep + {w} with
    affine dependency lambda_w = D, lambda_v = -l_v, its integer
    coordinates; only their signs are read.  The flip replaces
    the simplices Z - {z} with lambda_z > 0, which must be classes of the
    star, by those with lambda_z < 0.  The returned star is evaluated at
    wallpoint + eps (wallpoint - center), eps halving until that form lies
    in the open secondary cone of the new triangulation, so it is the
    Delaunay star of that form: every class the flip adds is certified by an
    exact empty-sphere check there, and the kept classes by the positive
    walls of their facets (a locally Delaunay triangulation is
    Delaunay).  The flip works on the class keys: it solves a circumcenter
    only for the classes it adds and builds no cell.  Each distinct wall
    is evaluated once on the wallpoint, and the definiteness, wall and
    empty-sphere checks run on the primitive integer multiple of the new
    form: a positive multiple has the same signs and circumcenters, and it
    scales both sides of the sphere comparison by the same factor.

    The tight circuits are read off `star.pairs`, which the star computes
    once however many walls are crossed from it.  The returned star carries
    its own pairs: a facet whose two sides are classes the flip kept has
    the same pair as before, and it is copied; only the keys with a pair
    that touches an added class are solved.
    """
    if not wallpoint.is_positive_definite():
        raise NotPositiveDefinite("wallpoint is not positive definite")
    values = {}                  # wall -> its value on the wallpoint
    for _, _, wall, _ in star.pairs.values():
        if wall not in values:
            values[wall] = wall.pair(wallpoint)
    walls = [n for n, val in values.items() if val == 0]
    if len(walls) != 1:
        raise NotOnSingleFacet(f"wallpoint is tight on {len(walls)} walls, need exactly 1")
    if any(val < 0 for val in values.values()):
        raise NotOnSingleFacet("wallpoint is outside the closed cone")
    tight = [pair for pair in star.pairs.values() if pair[2] == walls[0]]

    removed, added = set(), set()
    for key, w, _, coords in tight:
        circuit = key + (w,)
        for z, lam in zip(circuit, [-a for a in coords] + [1]):
            if lam != 0:
                simplex = _normalized([p for p in circuit if p != z])
                (removed if lam > 0 else added).add(simplex)
    old_keys = set(star.keys)
    if not removed <= old_keys:
        raise AssertionError("the flip removes a simplex that is not in the star")
    keys = tuple(sorted(old_keys - removed | added))

    new_pairs = _facet_pairs(keys, star.pairs)
    new_walls = {wall for _, _, wall, _ in new_pairs.values()}
    if any(n.pair(wallpoint) < 0 for n in new_walls):
        raise AssertionError("the flipped cone does not contain the wallpoint")
    eps = Rat(1)
    diff = wallpoint - center
    for _ in range(64):
        cand = wallpoint + diff.scale(eps)
        eps = eps / 2
        scaled = SymMat.from_lower(cand.d, clear_denominators(cand.lower()))
        if scaled.is_positive_definite() and all(n.pair(scaled) > 0 for n in new_walls):
            break
    else:
        raise AssertionError("wall crossing did not converge")

    for key in sorted(added):
        sphere_center, sqradius = circumcenter(scaled, key)
        best, mins = closest_vectors(scaled, sphere_center)
        if best != sqradius or tuple(sorted(mins)) != key:
            raise AssertionError("flipped cell failed the empty-sphere check")
    flipped = DelaunayStar(cand, keys)
    flipped.__dict__["pairs"] = new_pairs   # the slot `cached_property` fills
    return flipped
