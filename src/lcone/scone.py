"""Secondary cones of Delaunay triangulations.

A triangulation's secondary cone is cut out, inside the space of symmetric
matrices, by one linear inequality per pair of adjacent simplices; the
inequality normals are the classical regulators, the walls that the
triangulation's star computes once per adjacent pair, one integer
`echelon` per class key (`DelaunayStar.pairs`).  Cones are stored with
irredundant inequalities, gcd-normalized integral extreme rays, the
canonical hull equalities of the rays, and the central form (the sum of
the rays): all functions of the rays.

Faces are read off the incidences of rays and facets, not rebuilt from
their rays: in a pointed cone every facet of a face lies in a facet of the
cone that does not contain the face, so the facet normals of a face are
those of the cone, projected into the face's linear hull (`_face`).  A
double description runs once per secondary cone and once per
`cone_from_rays`, never per facet.  The faces of a cone work on integer
functionals: its inequalities are converted by `sym_to_functional` and its
rays checked positive semidefinite once per cone (`_incidences`), and each
face is checked on the functionals it holds before its normals become
symmetric matrices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Optional, Sequence

from .delaunay import DelaunayStar
from .exact import SymMat, clear_denominators, echelon, gcd_normalize
from .polyhedral import _dd_cone, _hull_equalities, _project_into_hull, rays_to_hrep


class EmptyRaySet(Exception):
    pass


class NonPSDRay(Exception):
    pass


def sym_dim(d: int) -> int:
    return d * (d + 1) // 2


def sym_to_functional(n: SymMat) -> tuple:
    """Lower-triangular coordinates of the linear functional <N, .>: the
    off-diagonal entries pick up a factor 2 from the trace pairing."""
    out = []
    for i in range(n.d):
        for j in range(i + 1):
            out.append(n.entry(i, j) if i == j else 2 * n.entry(i, j))
    return tuple(out)


def functional_to_sym(d: int, a: Sequence) -> SymMat:
    """Inverse of sym_to_functional up to positive scaling; result integral:
    the diagonal doubled, then divided by the gcd (`gcd_normalize`, which
    raises on the zero vector)."""
    entries = list(a)
    for i in range(d):
        entries[i * (i + 3) // 2] *= 2
    return SymMat.from_lower(d, gcd_normalize(entries, orient=False))


def star_wall_forms(star: DelaunayStar) -> list[SymMat]:
    """Deduplicated wall matrices over all adjacent simplex pairs of a
    triangulation, one per wall class, each positive on the generating form
    (`_star_walls`)."""
    return _star_walls(star)[0]


def _star_walls(star: DelaunayStar) -> tuple[list[SymMat], list[tuple]]:
    """The distinct walls of a star, sorted by `lower()`, and their integer
    functionals (`sym_to_functional`), each checked positive on the
    generating form: <N, Q> is the functional paired with Q's `lower()`,
    here the primitive integer multiple of it.  The pairs are the star's
    own (`DelaunayStar.pairs`), so the walls a flip copied are checked on
    the new form like the computed ones.  Many pairs share a wall (360
    pairs and 15 walls on the d = 5 seed star), so the pairs are
    deduplicated first and each distinct wall is converted and checked
    once."""
    by_key = {wall.lower(): wall for _, _, wall, _ in star.pairs.values()}
    walls = [by_key[k] for k in sorted(by_key)]
    functionals = [sym_to_functional(n) for n in walls]
    form = clear_denominators(star.form.lower())
    if any(sum(map(mul, a, form)) <= 0 for a in functionals):
        raise AssertionError("regulator is not positive on its own form")
    return walls, functionals


def central_form(rays: Sequence[SymMat]) -> SymMat:
    """Sum of the (gcd-normalized) generating rays, entry by entry."""
    rays = list(rays)
    if not rays:
        raise EmptyRaySet("no rays")
    return SymMat([[sum(col) for col in zip(*rows)] for rows in zip(*(r.entries for r in rays))])


@dataclass(frozen=True)
class ConeDesc:
    """Polyhedral cone in symmetric-matrix space.

    equalities: canonical hull equalities of the rays (`polyhedral._hull_equalities`)
    inequalities: irredundant facet normals within the hull, <N, Q> >= 0
    rays: gcd-normalized integral extreme rays, sorted
    central: sum of the rays
    """

    d: int
    equalities: tuple
    inequalities: tuple
    rays: tuple
    dim: int
    central: SymMat

    @property
    def dim_ambient(self) -> int:
        return sym_dim(self.d)

    def key(self) -> tuple:
        return tuple(r.lower() for r in self.rays)

    def validate(self):
        """Check the invariants; explicit raises, so they survive python -O.
        One `echelon` of the rays gives their rank and hull equalities."""
        vecs = [r.lower() for r in self.rays]
        self.check_incidences(vecs)
        ech = echelon(vecs)
        if len(ech.pivots) != self.dim:
            raise AssertionError("rank of the rays does not match the dimension")
        if self.equalities != tuple(functional_to_sym(self.d, e) for e in _hull_equalities(ech)):
            raise AssertionError("equalities are not the canonical ones of the rays' hull")
        if central_form(self.rays) != self.central:
            raise AssertionError("central form is not the sum of the rays")

    def check_incidences(self, vecs: Sequence[tuple]):
        """The checks of `validate` on each ray, given their `lower()`: it is
        positive semidefinite, zero on the equalities and nonnegative on the
        inequalities, paired as integer functionals, <N, R> =
        sym_to_functional(N) . R.lower() (`_check_signs`)."""
        _check_psd(self.rays)
        _check_signs(vecs, [sym_to_functional(e) for e in self.equalities],
                     [sym_to_functional(n) for n in self.inequalities])


def _check_psd(rays: Sequence[SymMat]):
    """Raises NonPSDRay unless every ray is positive semidefinite."""
    for r in rays:
        if not r.is_positive_semidefinite():
            raise NonPSDRay(f"ray {r} is not positive semidefinite")


def _check_signs(vecs: Sequence[tuple], eqs: Sequence[tuple], ineqs: Sequence[tuple]):
    """Each ray x, given by its `lower()`, is zero on the integer functionals
    eqs and nonnegative on ineqs; explicit raises."""
    for x in vecs:
        if any(sum(map(mul, e, x)) for e in eqs):
            raise AssertionError(f"ray {x} violates an equality")
        if any(sum(map(mul, a, x)) < 0 for a in ineqs):
            raise AssertionError(f"ray {x} violates an inequality")


def cone_from_rays(d: int, rays: Sequence[SymMat]) -> ConeDesc:
    """Assemble a ConeDesc from extreme rays: inequalities are recomputed
    irredundantly within the linear hull, and the equalities are the
    canonical hull equalities of the rays."""
    m = sym_dim(d)
    rays = sorted(rays, key=lambda r: r.lower())
    if not rays:
        raise EmptyRaySet("cone has no rays")
    eqs, normals = rays_to_hrep([r.lower() for r in rays], m)
    cone = ConeDesc(d, tuple(functional_to_sym(d, e) for e in eqs),
                    tuple(functional_to_sym(d, a) for a in normals),
                    tuple(rays), m - len(eqs), central_form(rays))
    cone.validate()
    return cone


def secondary_cone(star: DelaunayStar) -> ConeDesc:
    """Secondary cone of a Delaunay triangulation.

    Collects the wall forms from the star's pairs (computed once per star,
    or carried by the flip that made it), converts to extreme rays by double
    description, and keeps exactly the facet-supporting inequalities: those
    whose set of tight rays is maximal among the walls' and nonempty.  A
    star with a non-simplex cell raises `delaunay.NotATriangulation`.

    The checks of `ConeDesc.validate` run on the functionals it holds
    (`_star_walls`): every ray is positive semidefinite and nonnegative on
    the kept walls (`_check_psd`, `_check_signs`), and one `echelon` of the
    rays gives rank m, so the hull has no equalities.  The rays come
    sorted from the double description, and the central form is their sum.
    """
    d = star.dim
    m = sym_dim(d)
    walls, functionals = _star_walls(star)
    vecs = _dd_cone(functionals, m)
    rays = tuple(SymMat.from_lower(d, v) for v in vecs)
    # The cone is full-dimensional and pointed, and the walls are distinct
    # normalized forms: a wall supports a facet exactly when its tight rays
    # are nonempty and strictly contained in no other wall's tight rays.
    tight = _tight_masks(functionals, vecs)
    keep = [i for i, t in enumerate(tight)
            if t and not any(t != u and t & ~u == 0 for u in tight)]
    _check_psd(rays)
    _check_signs(vecs, (), [functionals[i] for i in keep])
    if len(echelon(vecs).pivots) != m:
        raise AssertionError("secondary cone of a triangulation must be full-dimensional")
    return ConeDesc(d, (), tuple(walls[i] for i in keep), rays, m, central_form(rays))


def _tight_masks(functionals: Sequence[tuple], vecs: Sequence[tuple]) -> list[int]:
    """For each integer functional a, the mask of the rays x it vanishes on,
    a . x = 0 (bit i for vecs[i]), the rays given by their `lower()`."""
    return [sum(1 << i for i, x in enumerate(vecs) if not sum(map(mul, a, x))) for a in functionals]


def _incidences(cone: ConeDesc) -> tuple[list[tuple], list[tuple], list[int]]:
    """The cone's inequalities as integer functionals (`sym_to_functional`),
    its rays' `lower()` and the tight mask of each inequality (`_tight_masks`),
    what every face of the cone is read off (`_face`).  Every ray is then
    checked positive semidefinite, once: a face's rays are rays of the cone."""
    ineqs = [sym_to_functional(n) for n in cone.inequalities]
    vecs = [r.lower() for r in cone.rays]
    masks = _tight_masks(ineqs, vecs)
    _check_psd(cone.rays)
    return ineqs, vecs, masks


def _face(cone: ConeDesc, ineqs: Sequence[tuple], vecs: Sequence[tuple],
          masks: Sequence[int], t: int, central: Optional[SymMat] = None) -> ConeDesc:
    """The face of a cone whose rays are the bits of mask t, given the
    cone's `_incidences`: its inequalities as integer functionals, its rays'
    `lower()` and the tight masks.  A caller that has summed the face's
    rays passes that `central_form` on, and it is not summed again.

    One `echelon` of the face's rays gives its dimension and the canonical
    equalities of their linear hull, which the face stores.  The facets of
    the face are the maximal sets among t & u over the masks u that do not
    contain t; the empty set counts only when the face is a ray, whose one
    facet is the apex.  The functional a of any inequality giving such a set
    is that facet's normal once projected into the hull
    (`polyhedral._project_into_hull`): a facet normal is unique up to
    positive scale modulo the hull.  The normals are then normalized and
    sorted as `rays_to_hrep` sorts them, so the face equals the
    `cone_from_rays` of its rays field for field.

    The face checks each of its rays zero on its equalities and nonnegative
    on its inequalities, on the functionals it holds: the stored normal
    `functional_to_sym(d, a)` pairs with a ray as (2 / g) a does, g > 0.
    Its rays are the cone's, checked positive semidefinite by
    `_incidences`; the rank of its rays is the pivot count of the `echelon`
    above, its equalities are read off the same `echelon`, and its central
    form is `central_form` of the same rays, here or in the caller.  So it
    runs every check of `ConeDesc.validate`."""
    d = cone.d
    on = [i for i in range(len(vecs)) if t >> i & 1]
    rays = [cone.rays[i] for i in on]
    face_vecs = [vecs[i] for i in on]
    ech = echelon(face_vecs)
    dim = len(ech.pivots)
    traces: dict[int, tuple] = {}
    for a, u in zip(ineqs, masks):
        if t & ~u:
            traces.setdefault(t & u, a)
    ridges = [s for s in traces if (s or dim == 1)
              and not any(s != o and s & ~o == 0 for o in traces)]
    eqs = _hull_equalities(ech)
    normals = _project_into_hull(eqs, [traces[s] for s in ridges])
    face_ineqs = sorted(set(gcd_normalize(a, orient=False) for a in normals))
    if dim > 1 and len(face_ineqs) < dim:
        raise AssertionError("a face has fewer facets than its dimension")
    _check_signs(face_vecs, eqs, face_ineqs)
    return ConeDesc(d, tuple(functional_to_sym(d, e) for e in eqs),
                    tuple(functional_to_sym(d, a) for a in face_ineqs),
                    tuple(rays), dim, central_form(rays) if central is None else central)


def cone_facets(cone: ConeDesc) -> list[ConeDesc]:
    """Facet cones of a cone, one per irredundant inequality, in their order.

    Each facet keeps the subset of rays tight on the inequality and the
    canonical equalities of their hull.  Its own inequalities are read off
    the cone's ray-facet incidences (`_incidences`, `_face`), with no double
    description; the cone's inequalities are converted to functionals and
    its rays checked positive semidefinite once for all facets.  Cones of
    dimension 1 have no facets other than the origin and return an empty
    list.  Raises NonPSDRay on a ray that is not positive semidefinite.
    """
    inc = _incidences(cone)
    if cone.dim <= 1:
        return []
    out = [_face(cone, *inc, t) for t in inc[2]]
    if any(facet.dim != cone.dim - 1 for facet in out):
        raise AssertionError("facet dimension mismatch")
    return out


def contains_pd(cone: ConeDesc) -> bool:
    """Whether the relative interior of the cone meets the positive definite
    forms: with positive semidefinite rays this holds iff the central form is
    positive definite."""
    _check_psd(cone.rays)
    return cone.central.is_positive_definite()


def fundamental_face(cone: ConeDesc) -> Optional[ConeDesc]:
    """Smallest face containing all rays of rank > 1, or None when every ray
    has rank 1 (the zonotopal case).  The face lies on every inequality
    tight on those rays, and is read off the incidences like a facet, with
    the canonical equalities of its rays' hull (`_incidences`, `_face`).
    Raises NonPSDRay on a ray that is not positive semidefinite."""
    ineqs, vecs, masks = _incidences(cone)
    high = sum(1 << i for i, r in enumerate(cone.rays) if _ray_rank(r) > 1)
    if not high:
        return None
    full = t = (1 << len(cone.rays)) - 1
    for u in masks:
        if high & ~u == 0:
            t &= u
    return cone if t == full else _face(cone, ineqs, vecs, masks, t)


@lru_cache(maxsize=65536)
def _ray_rank(r: SymMat) -> int:
    return r.rank()


def rank_profile(cone: ConeDesc) -> dict[int, int]:
    """Histogram of matrix ranks over the generating rays."""
    return dict(sorted(Counter(map(_ray_rank, cone.rays)).items()))


def cone_to_dict(cone: ConeDesc) -> dict:
    return {
        "d": cone.d,
        "dim": cone.dim,
        "rays": [list(r.lower()) for r in cone.rays],
        "central": list(cone.central.lower()),
        "ineqs": [list(n.lower()) for n in cone.inequalities],
        "eqs": [list(e.lower()) for e in cone.equalities],
    }


def cone_from_dict(data: dict) -> ConeDesc:
    d = data["d"]
    rays = tuple(SymMat.from_lower(d, v) for v in data["rays"])
    ineqs = tuple(SymMat.from_lower(d, v) for v in data["ineqs"])
    eqs = tuple(SymMat.from_lower(d, v) for v in data.get("eqs", []))
    central = SymMat.from_lower(d, data["central"])
    return ConeDesc(d, eqs, ineqs, rays, data["dim"], central)
