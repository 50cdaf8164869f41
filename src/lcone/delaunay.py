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
a triangulation, each pair spans a circuit whose regulator is one wall
condition of the secondary cone (`regulator`, `_facet_pairs`).

Crossing a wall of a triangulation's secondary cone is a bistellar flip of
the circuits that the wall's regulator cuts out (`neighbor_triangulation`).
It works on the keys alone and builds no cell: every class the flip adds is
certified by the same empty-sphere check, and every class it keeps by the
positive regulators of its facets.  A triangulation's star keeps the
regulators of its adjacent pairs (`DelaunayStar.pairs`), and the flipped
star inherits those of the pairs the flip left alone.

The crossing's exact work is over the integers and once per distinct
object: a regulator is read off one integer `echelon`, each distinct wall
is evaluated once on the wallpoint (many adjacent pairs share a wall), and
the checks on the new form run on its primitive integer multiple, which
has the same signs, circumcenters and closest vectors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import sub
from typing import Optional, Sequence

from .exact import (
    AffinelyDependent,
    Mat,
    NotPositiveDefinite,
    Rat,
    SingularMatrix,
    SymMat,
    clear_denominators,
    echelon,
    gcd_normalize,
    solve,
)
from .lattice import closest_vectors
from .polyhedral import _dot, _dv_cell, rays_to_hrep


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
      (class key, extra vertex, Regulator), as `_facet_pairs` computes
      them.  A star made by `neighbor_triangulation` is given them by
      the flip."""

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
        """normalized facet -> (class key, extra vertex, Regulator)."""
        return _facet_pairs(self.keys)


def circumcenter(q: SymMat, points: Sequence[Sequence[int]]) -> tuple[tuple, object]:
    """Exact center and squared radius of the sphere through d+1 affinely
    independent lattice points, in the metric of Q."""
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


@dataclass(frozen=True)
class Regulator:
    """Integral normal of one local Delaunay wall condition.

    `alphas` are the affine coordinates of the extra point w in the simplex
    V: w = sum a_v v with sum a_v = 1, one per point of V.
    """

    matrix: SymMat
    alphas: tuple

    @property
    def is_degenerate(self) -> bool:
        return all(x == 0 for x in self.matrix.lower())


def regulator(points: Sequence[Sequence[int]], w: Sequence[int]) -> Regulator:
    """Wall form of the affinely independent set V and the extra point w.

    With w = sum a_v v, 1 = sum a_v, this is w w^T - sum a_v v v^T, cleared
    to integral entries with gcd 1.  One `echelon` of the integer rows
    [V | w; 1 | 1] leaves D [I | a] when [V; 1] is nonsingular, so the
    integer column D a, divided by its gcd, is the primitive positive
    multiple l of the a_v, and the a_v are its entries over D.  The form is
    summed over the integers: N = (sum l_v) w w^T - sum l_v v v^T, entry by
    entry of the lower triangle.  The orientation (which side is positive)
    is preserved by the normalization.
    """
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
        return Regulator(SymMat.zero(d), alphas)
    return Regulator(SymMat.from_lower(d, gcd_normalize(lower, orient=False)), alphas)


def _facet_pairs(keys: Sequence[tuple], carried: Optional[dict] = None) -> dict:
    """(class key, extra vertex, regulator) for every pair of adjacent
    simplices of a triangulation given by its class keys (the normalized
    class representatives' vertex tuples, as `DelaunayStar.keys`), keyed by
    their normalized facet.  A star keeps them as `DelaunayStar.pairs`.

    Every facet lies in exactly two simplices, so the class facets with the
    same normalized form come in pairs.  If the facet F of `key` and the
    facet G of `nkey` pair up, the neighbour of `key` across F is
    `nkey + (F[0] - G[0])`, and its vertex off F is the translate of the
    vertex of `nkey` off G.  Each pair is taken from its first side only:
    from the other side it spans a translate of the same circuit and has
    the same regulator.  Degenerate regulators are left out.

    `carried` holds the pairs of another triangulation keyed the same way,
    as a bistellar flip leaves them.  A pair with the class key and extra
    vertex of the carried pair of its facet spans the same circuit, so its
    regulator is copied, not computed.  With sorted keys on both sides that
    holds exactly for the facets whose two sides are classes the flip kept.

    A key is sorted, so each of its facets is, and is normalized by
    translating it by its first vertex (`_translated`)."""
    sides = {}                   # normalized facet -> [(key, facet, vertex off it)]
    for key in keys:
        if len(key) != len(key[0]) + 1:
            raise NotATriangulation("star contains a non-simplex cell")
        if list(key) != sorted(key):
            raise ValueError("a class key is not sorted")
        for i, v in enumerate(key):
            facet = key[:i] + key[i + 1:]
            sides.setdefault(_translated(facet), []).append((key, facet, v))
    out = {}
    for norm, pair in sides.items():
        if len(pair) != 2:
            raise AssertionError(f"a facet of the triangulation lies in {len(pair)} cells")
        (key, facet, _), (_, nfacet, nv) = pair
        extra = tuple(x + a - b for x, a, b in zip(nv, facet[0], nfacet[0]))
        old = carried.get(norm) if carried else None
        if old is not None and old[:2] == (key, extra):
            out[norm] = old
            continue
        reg = regulator(key, extra)
        if not reg.is_degenerate:
            out[norm] = (key, extra, reg)
    return out


def is_triangulation(star: DelaunayStar) -> bool:
    """True iff every Delaunay cell is a simplex."""
    return all(len(key) == star.dim + 1 for key in star.keys)


def neighbor_triangulation(star: DelaunayStar, wallpoint: SymMat, center: SymMat) -> DelaunayStar:
    """Cross the wall of the secondary cone through `wallpoint` by a
    bistellar flip of the tight circuits.

    `wallpoint` must be positive definite and lie in the relative interior of
    exactly one facet of the closure of the secondary cone of `star`;
    `center` must be interior.  Every pair of adjacent simplices whose
    regulator vanishes on the wallpoint gives a circuit Z = rep + {w} with
    affine dependency lambda_w = 1, lambda_v = -alpha_v.  The flip replaces
    the simplices Z - {z} with lambda_z > 0, which must be classes of the
    star, by those with lambda_z < 0.  The returned star is evaluated at
    wallpoint + eps (wallpoint - center), eps halving until that form lies
    in the open secondary cone of the new triangulation, so it is the
    Delaunay star of that form: every class the flip adds is certified by an
    exact empty-sphere check there, and the kept classes by the positive
    regulators of their facets (a locally Delaunay triangulation is
    Delaunay).  The flip works on the class keys: it solves a circumcenter
    only for the classes it adds and builds no cell.  Each distinct wall
    is evaluated once on the wallpoint, and the definiteness, wall and
    empty-sphere checks run on the primitive integer multiple of the new
    form: a positive multiple has the same signs and circumcenters, and it
    scales both sides of the sphere comparison by the same factor.

    The tight circuits are read off `star.pairs`, which the star computes
    once however many walls are crossed from it.  The returned star carries
    its own pairs: a facet whose two sides are classes the flip kept has
    the same pair as before, and its regulator is copied; only the pairs
    that touch an added class are computed.
    """
    if not wallpoint.is_positive_definite():
        raise NotPositiveDefinite("wallpoint is not positive definite")
    values = {}                  # wall matrix -> its value on the wallpoint
    for _, _, reg in star.pairs.values():
        if reg.matrix not in values:
            values[reg.matrix] = reg.matrix.pair(wallpoint)
    walls = [n for n, val in values.items() if val == 0]
    if len(walls) != 1:
        raise NotOnSingleFacet(f"wallpoint is tight on {len(walls)} walls, need exactly 1")
    if any(val < 0 for val in values.values()):
        raise NotOnSingleFacet("wallpoint is outside the closed cone")
    tight = [pair for pair in star.pairs.values() if pair[2].matrix == walls[0]]

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
    new_walls = {reg.matrix for _, _, reg in new_pairs.values()}
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
