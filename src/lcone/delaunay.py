"""Delaunay subdivisions of Z^d with respect to a positive definite form.

The subdivision is represented by its star at the origin: all full
dimensional Delaunay cells having 0 as a vertex.  A star is stored as its
form and its class keys, the vertex tuples of one normalized representative
per translation class (smallest vertex 0); its cells are derived from them.
The star is read off the Dirichlet-Voronoi cell at 0, whose vertices are the
circumcenters of the cells at 0 (Voronoi's duality): its facet vectors are
shortest vectors of the classes of Z^d / 2Z^d, one double description gives
its vertices, and one closest-vector call per translation class gives the
cell and its empty-sphere certificate.  The other cells of the star are
translates of a representative and inherit its certificate.

No adjacency is stored.  Every facet of a face-to-face tiling lies in
exactly two cells, so the class facets that are translates of each other,
that is, that have the same `_normalized` form, come in pairs: the two
sides of a normalized facet are two adjacent cells up to translation.

Crossing a wall of a triangulation's secondary cone is a bistellar flip of
the circuits that the wall's regulator cuts out (`neighbor_triangulation`).
It works on the keys alone and builds no cell: every class the flip adds is
certified by the same empty-sphere check, and every class it keeps by the
positive regulators of its facets.  A triangulation's star keeps the
regulators of its adjacent pairs (`DelaunayStar.pairs`), and the flipped
star inherits those of the pairs the flip left alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Sequence

from .exact import (
    AffinelyDependent,
    Mat,
    NotPositiveDefinite,
    Rat,
    SingularMatrix,
    SymMat,
    solve,
)
from .lattice import closest_vectors
from .polyhedral import _dd_cone, _dv_halfspace, polytope_from_vertices


class NotOnSingleFacet(Exception):
    pass


@dataclass(frozen=True)
class Cell:
    """Full-dimensional Delaunay cell: lattice vertices on an empty sphere."""

    vertices: tuple          # sorted tuple of integer vectors
    center: tuple            # exact rational circumcenter
    sqradius: object         # exact squared circumradius

    def translate(self, t: Sequence[int]) -> "Cell":
        return Cell(
            tuple(sorted(tuple(x + s for x, s in zip(v, t)) for v in self.vertices)),
            tuple(c + s for c, s in zip(self.center, t)),
            self.sqradius,
        )

    def normalized(self) -> tuple["Cell", tuple]:
        """Translate the lexicographically smallest vertex to the origin.
        Returns (cell, shift) with cell = self translated by shift."""
        base = min(self.vertices)
        shift = tuple(-x for x in base)
        return self.translate(shift), shift


@dataclass(frozen=True)
class DelaunayStar:
    """Star of the origin in the Delaunay subdivision of a form.

    A star is its form and its class keys: the sorted vertex tuples of its
    translation class representatives, each normalized (smallest vertex 0).
    The keys determine the subdivision; adjacent classes are found by
    pairing normalized facets (see the module docstring).

    Two views are derived on first use and cached.  Neither is a field, so
    equality, hashing and `repr` see only the form and the keys.
    - `cells`: every cell with 0 as a vertex, sorted.  `delaunay_star`
      hands over the certified cells it found; any other star takes
      the simplex on each key with its circumcenter.
    - `pairs`: a triangulation's adjacent simplex pairs, normalized facet ->
      (class key, extra vertex, Regulator), as `scone._facet_pairs`
      computes them.  A star made by `neighbor_triangulation` is given them by
      the flip."""

    form: SymMat
    keys: tuple                  # sorted normalized class representatives

    @property
    def dim(self) -> int:
        return self.form.d

    @cached_property
    def cells(self) -> tuple:
        """All cells with 0 as a vertex, sorted."""
        return _star_cells([Cell(k, *circumcenter(self.form, k)) for k in self.keys])

    @cached_property
    def pairs(self) -> dict:
        """normalized facet -> (class key, extra vertex, Regulator)."""
        from .scone import _facet_pairs

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


def _require_pd(q: SymMat):
    if not q.is_positive_definite():
        raise NotPositiveDefinite("form is not positive definite")


def _normalized(vertices) -> tuple:
    """Sorted vertex tuple translated so that its smallest vertex is 0."""
    base = min(vertices)
    return tuple(sorted(tuple(x - b for x, b in zip(v, base)) for v in vertices))


def cell_facets(cell: Cell, d: int) -> list[tuple]:
    """Vertex sets of the (d-1)-faces of a cell, each sorted, in sorted order.

    Simplices get the combinatorial shortcut (drop one vertex at a time);
    general cells go through the polyhedral conversion.
    """
    if len(cell.vertices) == d + 1:
        return [cell.vertices[:i] + cell.vertices[i + 1:]
                for i in range(d + 1)]
    poly = polytope_from_vertices(cell.vertices, d)
    vmap = {v: i for i, v in enumerate(poly.vertices)}
    out = []
    for mask in poly.facet_masks:
        fverts = tuple(sorted(v for v in cell.vertices if mask >> vmap[v] & 1))
        out.append(fverts)
    return sorted(out)


def _coset_minima(q: SymMat) -> list[tuple]:
    """The shortest vectors of every nonzero class of Z^d / 2Z^d.

    The vectors of the class of c in {0, 1}^d are c + 2w, and
    Q[c + 2w] = 4 Q[w + c/2], so one `closest_vectors` call at -c/2 gives
    them all.  By Voronoi's theorem these include every facet vector of the
    Dirichlet-Voronoi cell; the others give halfspaces that are redundant.
    """
    out = []
    for c in product((0, 1), repeat=q.d):
        if any(c):
            _, mins = closest_vectors(q, [Rat(-x, 2) for x in c])
            out.extend(tuple(x + 2 * y for x, y in zip(c, w)) for w in mins)
    return out


def delaunay_star(q: SymMat) -> DelaunayStar:
    """Star of the origin, read off the Dirichlet-Voronoi (DV) cell at 0.

    The DV cell is {x : -2 Q v . x + Q[v] >= 0} over the vectors v of
    `_coset_minima` and their negatives.  Its vertices, from one double
    description with the halfspaces shortest first, are the circumcenters of
    the cells at 0.  The cell of a vertex c is the set of minimizers of
    Q[c - v], from one `closest_vectors` call, which is also its empty-sphere
    certificate: 0 must be among them.  The other cells of its translation
    class are its translates by -v over its vertices v, centred at c - v,
    which are DV vertices too and need no call.  Checks: every normalized
    class facet has exactly two sides, the centres are pairwise distinct,
    and there are as many cells as DV vertices.  The star is handed the
    certified cells.  Deterministic ordering.
    """
    _require_pd(q)
    d = q.d
    zero = (0,) * d
    halfspaces = {(q.quad(w), _dv_halfspace(q, w))
                  for v in _coset_minima(q) for w in (v, tuple(-x for x in v))}
    rays = _dd_cone([h for _, h in sorted(halfspaces)], d + 1)
    if any(r[-1] <= 0 for r in rays):
        raise AssertionError("the DV cell is unbounded")
    reps = {}
    covered = set()              # rays of the centres of the cells found
    for r in rays:
        if r in covered:
            continue
        *y, t = r
        center = tuple(Rat(x, t) for x in y)
        sqradius = q.quad(center)
        best, mins = closest_vectors(q, center)
        if best != sqradius or zero not in mins:
            raise AssertionError("a DV vertex is not the centre of a cell at 0")
        # The centre c - v of a translate is the ray (y - t v, t), primitive
        # as (y, t) is.
        covered.update(tuple(x - t * a for x, a in zip(y, v)) + (t,) for v in mins)
        rep, _ = Cell(mins, center, sqradius).normalized()
        reps[rep.vertices] = rep
    sides = Counter(_normalized(facet) for rep in reps.values() for facet in cell_facets(rep, d))
    if any(n != 2 for n in sides.values()):
        raise AssertionError("a facet of the star does not lie in exactly two cells")
    keys = tuple(sorted(reps))
    cells = _star_cells([reps[k] for k in keys])
    if len(cells) != len(rays):
        raise AssertionError(f"the star has {len(cells)} cells but the DV cell {len(rays)} vertices")
    star = DelaunayStar(q, keys)
    star.__dict__["cells"] = cells      # `cached_property`'s slot
    return star


def _star_cells(reps: Sequence[Cell]) -> tuple:
    """The cells of the star with the given class representatives: the
    translates `rep - v` over the vertices `v` of every representative, in
    sorted order, with pairwise distinct circumcenters."""
    by_key = {}
    for rep in reps:
        for v in rep.vertices:
            cell = rep.translate(tuple(-x for x in v))
            by_key[cell.vertices] = cell
    cells = tuple(by_key[k] for k in sorted(by_key))
    if len(set(c.center for c in cells)) != len(cells):
        raise AssertionError("duplicate circumcenters in the star")
    return cells


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
    only for the classes it adds and builds no cell.

    The tight circuits are read off `star.pairs`, which the star computes
    once however many walls are crossed from it.  The returned star carries
    its own pairs: a facet whose two sides are classes the flip kept has
    the same pair as before, and its regulator is copied; only the pairs
    that touch an added class are computed.
    """
    from .scone import _facet_pairs

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
