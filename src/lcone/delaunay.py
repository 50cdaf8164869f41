"""Delaunay subdivisions of Z^d with respect to a positive definite form.

The subdivision is represented by its star at the origin: all full
dimensional Delaunay cells having 0 as a vertex.  A star is stored as its
form and its class keys, the vertex tuples of one normalized representative
per translation class (smallest vertex 0); its cells are derived from them.
The star is found one translation class at a time.  Every class
representative is verified against the empty-sphere condition, so the
algorithms used to find cells only need to terminate, not to be trusted;
the other cells of the star are translates of a representative and inherit
its certificate.

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

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .exact import (
    AffinelyDependent,
    Mat,
    NotPositiveDefinite,
    Rat,
    SingularMatrix,
    SymMat,
    nullspace,
    solve,
)
from .lattice import characteristic_set, closest_vectors, enumerate_close


class NotAFacet(Exception):
    pass


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
      hands over the certified cells its search found; any other star takes
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
        direction = nullspace(rows)[0]
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
    from .polyhedral import polytope_from_vertices

    poly = polytope_from_vertices(cell.vertices, d)
    vmap = {v: i for i, v in enumerate(poly.vertices)}
    out = []
    for mask in poly.facet_masks:
        fverts = tuple(sorted(v for v in cell.vertices if mask >> vmap[v] & 1))
        out.append(fverts)
    return sorted(out)


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
    directions = nullspace(rows)
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


def delaunay_star(q: SymMat) -> DelaunayStar:
    """Star of the origin, found one translation class at a time.

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

    found(initial_cell(q).normalized()[0])
    while queue:
        rep, facets = queue.popleft()
        for facet in facets:
            if sides[_normalized(facet)] == 1:
                norm, _ = adjacent_cell(q, rep, facet).normalized()
                if norm.vertices in reps:
                    raise AssertionError("a facet crossing reached a known class")
                found(norm)
    if any(n != 2 for n in sides.values()):
        raise AssertionError("a facet of the star does not lie in exactly two cells")
    keys = tuple(sorted(reps))
    star = DelaunayStar(q, keys)
    star.__dict__["cells"] = _star_cells([reps[k] for k in keys])  # `cached_property`'s slot
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
