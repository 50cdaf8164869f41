"""Reference implementations that the library no longer calls.

Each of these was once public in `lcone` and has no caller in the pipeline,
the CLI or the demos.  They stay here as independent routes for the tests:
short vectors by enumeration around 0, polytopes from halfspaces by one
double description, canonical extreme rays, and the stabilizer order of a
cone.
"""

from lcone.equiv import _form_canonical
from lcone.exact import Rat, clear_denominators, rank_of_rows
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
