"""Reference implementations that the library no longer calls.

Each of these was once in `lcone` and has no caller in the pipeline, the
CLI or the demos, or was replaced there by a faster or leaner path.  They
stay here as independent routes for the tests: short vectors by enumeration
around 0, polytopes from halfspaces by one double description, canonical
extreme rays, the stabilizer order of a cone, the adjacent pairs of a
triangulation as a list, the regulator over rational matrices, and the merge
through invariant buckets.
"""

from lcone.classify import _candidate_key
from lcone.equiv import _form_canonical, cone_equivalent
from lcone.exact import (
    AffinelyDependent,
    Mat,
    Rat,
    SingularMatrix,
    SymMat,
    clear_denominators,
    rank_of_rows,
    solve,
)
from lcone.lattice import VectorSet, enumerate_close
from lcone.polyhedral import (
    LatPolytope,
    _dd_cone,
    _dot,
    _integer_rows,
    _vertex_masks,
    dual_description,
    rays_to_hrep,
)
from lcone.scone import Regulator, _facet_pairs


def short_vectors(q, n) -> VectorSet:
    """Exactly the nonzero integer vectors v with Q[v] <= n, in lex order."""
    if n <= 0:
        raise ValueError("norm bound must be positive")
    vecs = tuple(v for v, _ in enumerate_close(q, [0] * q.d, n) if any(v))
    return VectorSet(q.d, vecs, n)


def extreme_rays(rays, dim: int) -> list:
    """Canonical extreme-ray set of the cone generated by arbitrary rays."""
    return dual_description(rays_to_hrep(rays, dim))


def polytope_from_halfspaces(halfspaces, dim: int) -> LatPolytope:
    """Vertex description of {x : a x + b >= 0} via the homogenization cone.

    The input may contain redundant halfspaces; only facet-supporting ones
    are retained.  The polytope must be bounded and full-dimensional.
    """
    hs = sorted(set(
        clear_denominators(tuple(a) + (b,))
        for a, b in ((tuple(h[0]), h[1]) for h in halfspaces)
    ))
    rays = _dd_cone(_integer_rows(hs), dim + 1)
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
    return LatPolytope(dim, tuple(verts), tuple(facets),
                       _vertex_masks(facet_masks, len(verts)), tuple(facet_masks))


def stabilizer_order(cone, algorithm: str = "sha256") -> int:
    """Order of the GL_d(Z) stabilizer of a secondary cone: the automorphism
    group of its central form (any U fixing the central form permutes the
    cone complex and fixes the cone containing the central form)."""
    _, _, _, _, order = _form_canonical(cone.central, algorithm)
    return order


def pair_regulators(keys) -> list:
    """(class key, extra vertex, regulator) for every pair of adjacent
    simplices of a triangulation given by its class keys, every regulator
    computed from scratch: the values of `scone._facet_pairs`."""
    return list(_facet_pairs(keys).values())


def regulator_by_fractions(points, w) -> Regulator:
    """`scone.regulator` over rational matrices: w w^T - sum a_v v v^T built
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
        _, canon, _, _, _ = _form_canonical(cone.central, digest)
        dup = False
        for other in buckets.get(inv, ()):
            _, canon_o, _, _, _ = _form_canonical(other.central, digest)
            if canon_o == canon:
                if cone_equivalent(other, cone) is None:
                    raise AssertionError("equal certificates without a witness")
                dup = True
                break
        if not dup:
            buckets.setdefault(inv, []).append(cone)
            accepted.append(cone)
    return accepted
