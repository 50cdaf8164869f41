"""Enumeration of all secondary cones up to GL_d(Z).

The pipeline follows the classical two-stage scheme: first all
full-dimensional cones (primitive types) are found by crossing walls between
neighboring triangulations, starting from the seed's (a coarse seed is
refined by one checked generic perturbation); then faces are descended
dimension by dimension.
Each level is deduplicated by the certificate hash of the canonical form of
each cone's central form, labeled once per distinct form, and a candidate
merges into a class only through a verified witness.
Verification operations (mass formula, flag identity, pairwise combinatorial
distinctness, censuses and the contraction refinement) run on the finished
database.

The `prim` and `desc` tasks return one cone per orbit of the parent's
facets under the stabilizer of its central form (the adjacency
decomposition method of Bremner, Dutour Sikirić and Schürmann, 2009).  A
stabilizer element U maps the cone onto itself, the wall F onto the wall
U.F and the neighbour across F onto the neighbour across U.F.  So one wall
per orbit is crossed, and the orbit's member with the least ray set,
neighbour or facet, is the one returned: a merge orders its candidates by
(invariants, certificate hash, ray set), orbit members share the first
two, and so each class keeps the least ray set of all its candidates.
Each member left out is the image of the one returned under some U, a
witness checked to fix the form.

Every class has a primitive ancestor: a primitive class is its own, and a
face inherits its parent's, since a face of a face is a face of the same
primitive cone in the same coordinates.  The `enrich` task is given the
ancestor's class keys and central form, and reads the class's DV polytope
off that certified triangulation (`delaunay.dv_polytope_by_coarsening`):
only the seed's DV cell is computed by lattice search.  The ancestor map
is rebuilt from the `prim` and `desc` outputs, so a resume needs nothing
more in the checkpoint.

Heavy geometric steps are pure functions of their input cone, so they can be
distributed over worker processes and their results checkpointed on disk; a
killed run replays each checkpointed result once and produces a
byte-identical database.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

from . import __version__
from .delaunay import (
    DelaunayStar,
    _normalized,
    delaunay_star,
    dv_polytope_by_coarsening,
    is_triangulation,
    neighbor_triangulation,
)
from .equiv import (
    ColoredGraph,
    _form_canonical,
    automorphism_group,
    canonical_labeling,
    check_digest,
    cone_equivalent,
    digest_of,
)
from .exact import Mat, NotPositiveDefinite, Rat, SymMat, inverse
from .polyhedral import (
    LatPolytope,
    _face_levels,
    _intersection_closure,
    dv_polytope,
    incidence_graph,
    serialize_subordination,
)
from .scone import (
    ConeDesc,
    NonPSDRay,
    _face,
    _incidences,
    _ray_rank,
    central_form,
    cone_from_dict,
    cone_from_rays,
    cone_to_dict,
    rank_profile,
    secondary_cone,
    star_wall_forms,
    sym_dim,
)


class DimensionUnsupported(Exception):
    pass


class IncompleteDatabase(Exception):
    pass


class IncompatibleCheckpoint(Exception):
    pass


def principal_form(d: int) -> SymMat:
    """Default traversal seed: the first-kind principal form (d+1) I - J.

    All its Selling parameters are positive, so it lies interior to a
    full-dimensional secondary cone in every dimension and its Delaunay
    subdivision is a triangulation.
    """
    return SymMat([[d if i == j else -1 for j in range(d)] for i in range(d)])


def seed_triangulation(d: int, seed: Optional[SymMat] = None):
    """Star of the traversal seed, refining a coarse user seed if needed.

    A seed Q whose star is a triangulation is returned as it is.  Otherwise
    Q is perturbed by one fixed generic form R, whose lower entries are
    k/(100+k) for k = 1, ..., d(d+1)/2, as Q + eps R for eps = 1, 1/2, ...
    A small enough generic perturbation lies in an open cone of the
    secondary fan whose closure holds Q, so its triangulation refines
    Del(Q).  That is checked, not assumed: the first candidate that is
    positive definite, whose star is a triangulation and whose walls are
    all >= 0 on Q is returned.  Raises ValueError if 64 steps find none, or
    if the seed has another dimension.
    """
    if seed is not None and seed.d != d:
        raise ValueError(f"seed form has dimension {seed.d}, not {d}")
    q = seed if seed is not None else principal_form(d)
    star = delaunay_star(q)
    if is_triangulation(star):
        return star
    generic = SymMat.from_lower(d, [Rat(k, 100 + k) for k in range(1, d * (d + 1) // 2 + 1)])
    eps = Rat(1)
    for _ in range(64):
        cand = q + generic.scale(eps)
        eps = eps / 2
        if not cand.is_positive_definite():
            continue
        star = delaunay_star(cand)
        if is_triangulation(star) and all(n.pair(q) >= 0 for n in star_wall_forms(star)):
            return star
    raise ValueError("seed form could not be refined to a Delaunay triangulation")


# ---------------------------------------------------------------------------
# Class records


@dataclass(frozen=True)
class ClassRecord:
    """One GL_d(Z)-class of secondary cones with its invariants."""

    cone: ConeDesc
    cert_hash: str
    witness: tuple
    stab_order: int
    det: int
    can_size: int
    ranks: tuple            # sorted (rank, count) pairs
    dv_hash: str
    dv_facets: int
    dv_vertices: int
    f_vector: tuple
    subordination: str
    zonotopal: bool

    @property
    def dim(self) -> int:
        return self.cone.dim

    def invariant_key(self) -> tuple:
        return (self.det, self.cone.dim, len(self.cone.rays), self.ranks, self.can_size)

    def to_dict(self) -> dict:
        data = cone_to_dict(self.cone)
        data.update({
            "stab_order": self.stab_order,
            "hash": self.cert_hash,
            "cert": [list(v) for v in self.witness],
            "det": self.det,
            "can_size": self.can_size,
            "rank_profile": [list(rc) for rc in self.ranks],
            "dv_hash": self.dv_hash,
            "dv_facets": self.dv_facets,
            "dv_vertices": self.dv_vertices,
            "f_vector": list(self.f_vector),
            "subordination": self.subordination,
            "zonotopal": self.zonotopal,
        })
        return data

    @staticmethod
    def from_dict(data: dict) -> "ClassRecord":
        return ClassRecord(
            cone=cone_from_dict(data),
            cert_hash=data["hash"],
            witness=tuple(tuple(v) for v in data["cert"]),
            stab_order=data["stab_order"],
            det=data["det"],
            can_size=data["can_size"],
            ranks=tuple(tuple(rc) for rc in data["rank_profile"]),
            dv_hash=data["dv_hash"],
            dv_facets=data["dv_facets"],
            dv_vertices=data["dv_vertices"],
            f_vector=tuple(data["f_vector"]),
            subordination=data["subordination"],
            zonotopal=data["zonotopal"],
        )


@dataclass
class ClassDB:
    """Classification database: one record per class, grouped by cone dim."""

    d: int
    by_dim: dict = field(default_factory=dict)
    complete: bool = False

    def records(self):
        for k in sorted(self.by_dim, reverse=True):
            yield from self.by_dim[k]

    def total(self) -> int:
        return sum(len(v) for v in self.by_dim.values())

    def require_complete(self):
        if not self.complete:
            raise IncompleteDatabase("classification database is not complete")


def _record_sort_key(rec: ClassRecord):
    return (rec.invariant_key(), rec.cert_hash, rec.cone.key())


ALLOWED_RAY_RANKS = {1, 4}


def _check_ray_ranks(cone: ConeDesc):
    allowed = ALLOWED_RAY_RANKS | {cone.d}
    for r in cone.rays:
        k = _ray_rank(r)
        if k not in allowed:
            raise AssertionError(f"ray of rank {k} violates the rank restriction {allowed}")


def _dv_form(poly: LatPolytope) -> tuple:
    """Canonical form of the vertex-facet incidence graph of a polytope; the
    DV hash is its digest."""
    n, colors, edges = incidence_graph(poly)
    return canonical_labeling(ColoredGraph(n, colors, edges))[0]


def _dv_summary(poly: LatPolytope, digest: str) -> tuple[str, tuple, str]:
    """DV hash, f-vector and serialized subordination scheme of a polytope,
    the last two from one pass over its face lattice, whose faces are
    dropped before the labeling."""
    f_vector, scheme = _face_levels(poly)[1:]
    return digest_of(_dv_form(poly), digest), f_vector, serialize_subordination(scheme)


def enrich_cone(cone: ConeDesc, keys: tuple, anchor: SymMat,
                digest: str = "sha256") -> ClassRecord:
    """All per-class invariants of a cone: certificate of the central form,
    stabilizer order, DV polytope data of the central form, censuses.  The
    cone is zonotopal when its rank profile holds rank 1 only.

    The cone must be a face of the secondary cone of a triangulation, given
    by its class keys and a form `anchor` it is the Delaunay triangulation
    of: the DV polytope is read off that triangulation
    (`dv_polytope_by_coarsening`), with no lattice search."""
    _check_ray_ranks(cone)
    (central_det, _, _, ranks, can_size), cert_hash = _candidate_key(cone, digest)
    _, witness, _, stab = _form_canonical(cone.central)
    poly = dv_polytope_by_coarsening(cone.central, keys, anchor)
    dv_hash, fv, sub = _dv_summary(poly, digest)
    return ClassRecord(
        cone=cone,
        cert_hash=cert_hash,
        witness=witness,
        stab_order=stab,
        det=central_det,
        can_size=can_size,
        ranks=ranks,
        dv_hash=dv_hash,
        dv_facets=poly.n_facets,
        dv_vertices=poly.n_vertices,
        f_vector=fv,
        subordination=sub,
        zonotopal=all(k == 1 for k, _ in ranks),
    )


def _invariants(cone: ConeDesc, can_size: int) -> tuple:
    """The invariants a merge orders its candidates by, ahead of the
    certificate hash: determinant, dimension, ray count and rank profile of
    the cone, and the size of the characteristic set of its central form."""
    ranks = tuple(sorted(rank_profile(cone).items()))
    return int(cone.central.det()), cone.dim, len(cone.rays), ranks, can_size


@lru_cache(maxsize=16384)
def _candidate_key(cone: ConeDesc, digest: str) -> tuple:
    form, witness, _, _ = _form_canonical(cone.central)
    return _invariants(cone, len(witness)), digest_of(form, digest)


def merge_candidates(classes: dict, candidates: Sequence[ConeDesc],
                     digest: str = "sha256") -> list:
    """Deduplicate candidate cones against the classes so far and each other.

    `classes` maps the certificate hash of each class's central form to the
    class and the canonical witness of that form; the merge adds the
    classes it accepts, so a caller that keeps it labels no class twice.
    A cone is a function of its rays, so repeated ray sets are dropped
    first.  Each distinct central form is then labeled once
    (`_form_canonical`), and the merge holds its hash and witness; the
    number of labelings does not depend on any cache.  Candidates are
    taken in the order of their invariants, certificate hash and ray set.
    The `prim` and `desc` tasks hand over one candidate per orbit of their
    parent's stabilizer, the least ray set of the orbit, so the least ray
    set of a class is among the candidates, and the accepted cones are
    those of a merge of every orbit member.
    A candidate whose hash is taken merges only through the witness map of
    the two witnesses, verified on the forms and the ray sets
    (`cone_equivalent`): two cones are equivalent exactly when their
    central forms are, so equal hashes without a witness raise, and no two
    classes merge unverified.  Returns the newly accepted cones in order.
    """
    distinct: dict = {}
    for cone in candidates:
        distinct.setdefault(cone.key(), cone)
    labels: dict = {}            # central form -> (certificate hash, witness)
    for cone in distinct.values():
        if cone.central not in labels:
            form, witness, _, _ = _form_canonical(cone.central)
            labels[cone.central] = digest_of(form, digest), witness

    def order(cone):
        cert_hash, witness = labels[cone.central]
        return _invariants(cone, len(witness)), cert_hash, cone.key()

    accepted: list[ConeDesc] = []
    for cone in sorted(distinct.values(), key=order):
        cert_hash, witness = labels[cone.central]
        other = classes.get(cert_hash)
        if other is None:
            classes[cert_hash] = cone, witness
            accepted.append(cone)
        elif cone_equivalent(other[0], cone, (other[1], witness)) is None:
            raise AssertionError("equal canonical forms without a witness")
    return accepted


# ---------------------------------------------------------------------------
# Pure expansion tasks (worker friendly)


def expand_primitive_cone(payload: dict) -> dict:
    """The neighbouring full-dimensional secondary cones of a
    full-dimensional cone, given with the class keys of its triangulation:
    one per orbit of PD facets under the stabilizer of the central form,
    each with its class keys.

    The keys may come back from a checkpoint, so they are certified first:
    the wall of every adjacent pair, one integer `echelon` per class key
    (`DelaunayStar.pairs`), must be positive on the central form
    (`star_wall_forms`), and a locally Delaunay triangulation is the
    Delaunay triangulation.

    An orbit is PD when the central form of its first facet, the sum of its
    tight rays, is; that wall is crossed (`neighbor_triangulation`).  The
    neighbours across the other facets of the orbit are images: if U^T Q U
    fixes the central form and maps the crossed facet onto the facet F,
    then the Delaunay subdivision of U^T Q U is U^{-1} times that of Q, so
    the neighbour across F is the crossed neighbour mapped by U.  Of these,
    the one with the least sorted ray set is returned, made by congruence
    (`_congruent_neighbour`) unless it is the crossed one.  Its rays,
    inequalities and keys are unique once normalized and sorted, so they
    equal those of a crossing of F."""
    cone = cone_from_dict(payload["cone"])
    star = DelaunayStar(cone.central, payload["keys"])
    star_wall_forms(star)
    (_, _, masks), orbits = _facet_orbits(cone)
    out = []
    for orbit in orbits:
        wall = central_form([cone.rays[k] for k in _bits(masks[orbit[0][0]])])
        if not wall.is_positive_definite():
            continue
        nb_star = neighbor_triangulation(star, wall, cone.central)
        nb, keys = secondary_cone(nb_star), nb_star.keys
        images = [nb.key()] + [tuple(sorted(r.congruence(u).lower() for r in nb.rays))
                               for _, u in orbit[1:]]
        least = min(range(len(orbit)), key=images.__getitem__)
        if least:
            nb, keys = _congruent_neighbour(nb, keys, orbit[least][1])
        out.append({"cone": cone_to_dict(nb), "keys": keys})
    return {"cones": out}


def _facet_orbits(cone: ConeDesc) -> tuple[tuple, list[list[tuple[int, Mat]]]]:
    """The cone's `_incidences`, whose tight masks are those of its facets
    in `cone_facets` order, and the orbits of the facets under the
    stabilizer of the central form.

    Each orbit is a list of (index j, U), its first member the orbit's
    first facet in that order, with U = 1, and U a stabilizer element that
    maps the first member's rays onto facet j's, R -> U^T R U.  The
    generators are `automorphism_group`'s verified maps; each must permute
    the sorted rays, so it maps the facets' masks among themselves.  U is
    the product of generators along a breadth-first search, and each
    product is checked to fix the form.  Every check is an explicit raise,
    and a ray that is not positive semidefinite raises NonPSDRay."""
    inc = _incidences(cone)
    masks = inc[2]
    index = {r.lower(): k for k, r in enumerate(cone.rays)}
    gens = []
    for g in automorphism_group(cone.central)[0]:
        perm = [index.get(r.congruence(g.matrix).lower()) for r in cone.rays]
        if None in perm:
            raise AssertionError("a stabilizer map does not permute the rays")
        gens.append((g.matrix, perm))
    facet = {t: j for j, t in enumerate(masks)}
    seen: set = set()
    orbits = []
    for i in range(len(masks)):
        if i in seen:
            continue
        seen.add(i)
        orbit = [(i, Mat.identity(cone.d))]
        for j, u in orbit:
            bits = _bits(masks[j])
            for g, perm in gens:
                k = facet.get(sum(1 << perm[b] for b in bits))
                if k is None:
                    raise AssertionError("a stabilizer map does not map a facet onto a facet")
                if k not in seen:
                    v = u @ g
                    if cone.central.congruence(v) != cone.central:
                        raise AssertionError("a product of stabilizer maps moves the form")
                    seen.add(k)
                    orbit.append((k, v))
        orbits.append(orbit)
    return inc, orbits


def _bits(mask: int) -> list[int]:
    """The indices of the bits set in the mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _congruent_neighbour(nb: ConeDesc, keys: tuple, u: Mat) -> tuple:
    """The image of a full-dimensional cone with the class keys of its
    triangulation under Q -> U^T Q U: rays and central form map so, facet
    normals N -> U^{-1} N U^{-T}, and each key's vertices x -> U^{-1} x,
    normalized; all sorted as `secondary_cone` and the flip sort them.  The
    keys share few vertices (720 entries, 32 distinct, on a d = 5 cone), so
    each distinct vertex is mapped once."""
    u_inv = inverse(u)
    v = u_inv.transpose()
    rays = sorted((r.congruence(u) for r in nb.rays), key=SymMat.lower)
    ineqs = sorted((n.congruence(v) for n in nb.inequalities), key=SymMat.lower)
    image = ConeDesc(nb.d, (), tuple(ineqs), tuple(rays), nb.dim, central_form(rays))
    image.validate()
    vertex = {x: u_inv.mul_vec(x) for x in {x for key in keys for x in key}}
    keys = tuple(sorted(_normalized([vertex[x] for x in key]) for key in keys))
    return image, keys


def _keys_of(data) -> tuple:
    """Class keys as tuples, from their JSON lists (a replayed output) or
    as they are."""
    return tuple(tuple(tuple(v) for v in key) for key in data)


def expand_descent_cone(payload: dict) -> dict:
    """The facets of a cone that still meet the positive definite forms, one
    per orbit of facets under the stabilizer of the central form
    (`_facet_orbits`): the member with the least ray set, whose index list
    is least because the rays are sorted.

    A facet meets them iff its central form, the sum of its rays, is
    positive definite, given that its rays are positive semidefinite
    (`contains_pd`); the rays are those of the cone, checked once by
    `_incidences`.  So an orbit is tested on its least member's rays, and
    only the members that pass are built (`_face`), from the cone's
    inequalities converted to functionals once and with the central form
    they were tested on."""
    cone = cone_from_dict(payload["cone"])
    if cone.dim <= 1:
        return {"cones": []}
    inc, orbits = _facet_orbits(cone)
    out = []
    for orbit in orbits:
        t = min((inc[2][j] for j, _ in orbit), key=_bits)
        central = central_form([cone.rays[k] for k in _bits(t)])
        if not central.is_positive_definite():
            continue
        facet = _face(cone, *inc, t, central)
        if facet.dim != cone.dim - 1:
            raise AssertionError("facet dimension mismatch")
        out.append(cone_to_dict(facet))
    return {"cones": out}


def enrich_cone_task(payload: dict) -> dict:
    """The record of a cone, given with the class keys and the central form
    of a primitive ancestor (`enrich_cone`)."""
    cone = cone_from_dict(payload["cone"])
    anchor = SymMat.from_lower(cone.d, payload["anchor"])
    rec = enrich_cone(cone, payload["keys"], anchor, payload["digest"])
    return {"record": rec.to_dict()}


_TASKS = {
    "prim": expand_primitive_cone,
    "desc": expand_descent_cone,
    "enrich": enrich_cone_task,
}


def _run_task(item):
    i, kind, key, payload = item
    return i, key, _TASKS[kind](payload)


def _pool(workers: int, tasks: int):
    """A pool of `workers` processes for `tasks` tasks, or a null context
    when one process does; on exit the pool is terminated."""
    if workers == 1 or tasks < 2:
        return contextlib.nullcontext()
    fork = "fork" in multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if fork else None).Pool(workers)


class DiskCache:
    """Append-only JSONL checkpoint of completed pure computations.

    Every entry is written as one line ending in a newline.  The file is
    read line by line.  A final line without its newline is the torn tail
    of a killed write: it is cut off before the file is reopened for
    append.  Any other line that does not parse raises
    `IncompatibleCheckpoint`.  A run asks for each task once, so the
    entries are held as their raw lines (`pending`), and `get` decodes an
    entry and drops it; `put` only appends to the file.
    """

    def __init__(self, path: Optional[str]):
        self.path = path
        self.pending: dict[str, bytes] = {}
        if path and os.path.exists(path):
            with open(path, "rb+") as fh:
                complete = 0
                for lineno, line in enumerate(fh, 1):
                    if not line.endswith(b"\n"):
                        fh.truncate(complete)
                        break
                    complete += len(line)
                    if not line.strip():
                        continue
                    try:
                        entry = json.loads(line)
                        key, _ = entry["key"], entry["out"]
                    except (ValueError, KeyError, TypeError) as exc:
                        raise IncompatibleCheckpoint(
                            f"{path}: line {lineno} is not a cache entry") from exc
                    self.pending[key] = line
        self._fh = open(path, "a") if path else None

    def get(self, key: str):
        line = self.pending.pop(key, None)
        return None if line is None else json.loads(line)["out"]

    def put(self, key: str, out: dict):
        if self._fh:
            self._fh.write(json.dumps({"key": key, "out": out}, sort_keys=True,
                                      separators=(",", ":")) + "\n")
            self._fh.flush()

    def close(self):
        if self._fh:
            self._fh.close()
            self._fh = None


def _cone_cache_key(kind: str, data: dict, digest: str) -> str:
    """Cache key of a task on a cone, given as its `cone_to_dict`.  Its tag
    names the output's format where the task kind alone does not: an
    `enrich` record holds hashes made with the digest, and a `prim` output
    holds each neighbour's class keys.  Older `prim:` entries lack the keys,
    so they are recomputed, not replayed."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    tag = {"enrich": f"enrich/{digest}", "prim": "prim/keys"}.get(kind, kind)
    return f"{tag}:{hashlib.sha256(blob.encode()).hexdigest()}"


def _decode_once(outs: list[dict], ancestors: Sequence) -> tuple[list[ConeDesc], dict]:
    """The cones of `desc` task outputs, in order, with each distinct ray set
    decoded once: a cone is a function of its rays, so a repeated ray set
    is the cone decoded at its first occurrence, and the merge drops it.
    `ancestors` holds the ancestor of each output's parent, and each ray
    set, which is its cone's key, is mapped to that of its first parent: a
    face of a face is a face of the same primitive cone, in the same
    coordinates."""
    decoded: dict = {}
    inherited: dict = {}
    cones = []
    for out, ancestor in zip(outs, ancestors):
        for c in out["cones"]:
            rays = tuple(map(tuple, c["rays"]))
            if rays not in decoded:
                decoded[rays] = cone_from_dict(c)
                inherited[rays] = ancestor
            cones.append(decoded[rays])
    return cones, inherited


class Classifier:
    """Stateful driver for a (possibly resumable, parallel) classification."""

    def __init__(self, d: int, workers: int = 1, digest: str = "sha256",
                 cache: Optional[DiskCache] = None, seed: Optional[SymMat] = None,
                 abort_after: Optional[int] = None, verbose: bool = False):
        if not 1 <= d <= 5:
            raise DimensionUnsupported(f"dimension {d} is not supported (need 1..5)")
        self.d = d
        if workers < 1:
            raise ValueError(f"worker count must be at least 1, got {workers}")
        self.workers = workers
        self.digest = digest
        self.cache = cache or DiskCache(None)
        self.seed = seed
        self.abort_after = abort_after
        self.verbose = verbose
        self._completed = 0
        # cone key -> (class keys, central form) of a primitive ancestor, whose
        # triangulation is the Delaunay triangulation of that form
        self._ancestors: dict = {}

    def _log(self, msg: str):
        if self.verbose:
            print(f"[{time.strftime('%H:%M:%S')}] {msg}", file=sys.stderr, flush=True)

    def _tick(self):
        self._completed += 1
        if self.abort_after is not None and self._completed >= self.abort_after:
            raise KeyboardInterrupt("aborted for checkpoint testing")

    def _map(self, kind: str, cones: Sequence[ConeDesc]) -> list[dict]:
        """Outputs of one task kind on distinct cones, in their order.  Each
        is replayed from the checkpoint or computed and appended to it."""
        outs, items = [], []
        for i, cone in enumerate(cones):
            data = cone_to_dict(cone)
            key = _cone_cache_key(kind, data, self.digest)
            outs.append(self.cache.get(key))
            if outs[i] is None:
                payload = {"cone": data, "digest": self.digest}
                if kind != "desc":
                    keys, anchor = self._ancestors[cone.key()]
                    payload["keys"] = keys
                    if kind == "enrich":
                        payload["anchor"] = anchor.lower()
                items.append((i, kind, key, payload))
        with _pool(self.workers, len(items)) as pool:
            for i, key, out in (pool.imap_unordered if pool else map)(_run_task, items):
                self.cache.put(key, out)
                outs[i] = out
                self._tick()
        return outs

    def enrich(self, cones: Sequence[ConeDesc]) -> list[ClassRecord]:
        """The enriched records of classes, in database order."""
        recs = [ClassRecord.from_dict(o["record"]) for o in self._map("enrich", cones)]
        return sorted(recs, key=_record_sort_key)

    def primitive_cones(self) -> list[ConeDesc]:
        """All full-dimensional cones up to equivalence, by wall crossing.

        Only the seed's triangulation is found by lattice search.  Every
        cone carries the class keys of its triangulation into its `prim`
        task, which returns each neighbour with the keys of its flip.  Each
        class is its own primitive ancestor."""
        star = seed_triangulation(self.d, self.seed)
        first = secondary_cone(star)
        self._ancestors = {first.key(): (star.keys, first.central)}
        table: dict = {}         # the class table, kept across the waves
        classes = merge_candidates(table, [first], self.digest)
        frontier = list(classes)
        wave = 0
        while frontier:
            wave += 1
            self._log(f"primitive wave {wave}: expanding {len(frontier)} cones "
                      f"({len(classes)} classes so far)")
            outs = self._map("prim", frontier)
            candidates, keys = [], {}
            for out in outs:
                for nb in out["cones"]:
                    cone = cone_from_dict(nb["cone"])
                    candidates.append(cone)
                    keys[cone.key()] = _keys_of(nb["keys"])
            new = merge_candidates(table, candidates, self.digest)
            for cone in new:
                self._ancestors[cone.key()] = keys[cone.key()], cone.central
            classes.extend(new)
            frontier = new
        self._log(f"primitive enumeration done: {len(classes)} classes")
        return classes

    def classify(self) -> ClassDB:
        m = sym_dim(self.d)
        level = self.primitive_cones()
        cones_by_dim: dict[int, list[ConeDesc]] = {m: level}
        for k in range(m, 1, -1):
            self._log(f"descending from dimension {k}: {len(cones_by_dim[k])} classes")
            # The task outputs are not kept through the merge: at d = 5 they
            # are about a quarter of what a level holds.
            parents = [self._ancestors[cone.key()] for cone in cones_by_dim[k]]
            candidates, inherited = _decode_once(self._map("desc", cones_by_dim[k]), parents)
            accepted = merge_candidates({}, candidates, self.digest)
            if not accepted:
                break
            for cone in accepted:
                self._ancestors[cone.key()] = inherited[cone.key()]
            cones_by_dim[k - 1] = accepted
        db = ClassDB(self.d)
        for k, cones in cones_by_dim.items():
            self._log(f"enriching dimension {k}: {len(cones)} classes")
            db.by_dim[k] = self.enrich(cones)
        db.complete = True
        return db


def enumerate_primitive(d: int, workers: int = 1, digest: str = "sha256",
                        seed: Optional[SymMat] = None) -> list[ClassRecord]:
    """Full-dimensional secondary cones up to GL_d(Z), as enriched records."""
    clf = Classifier(d, workers=workers, digest=digest, seed=seed)
    return clf.enrich(clf.primitive_cones())


def classify_all(d: int, workers: int = 1, digest: str = "sha256",
                 seed: Optional[SymMat] = None) -> ClassDB:
    """Classify every secondary cone of Z^d forms up to GL_d(Z)."""
    return Classifier(d, workers=workers, digest=digest, seed=seed).classify()


# ---------------------------------------------------------------------------
# Verification operations on a complete database


@dataclass(frozen=True)
class MassReport:
    total: object
    by_dim: dict

    def __str__(self):
        parts = [f"dim {k}: {v}" for k, v in sorted(self.by_dim.items())]
        return f"mass {self.total} (" + ", ".join(parts) + ")"


def mass_check(db: ClassDB) -> MassReport:
    """Euler-Poincare mass: sum over classes of (-1)^dim / |stabilizer|."""
    db.require_complete()
    by_dim = {}
    total = Rat(0)
    for k, recs in sorted(db.by_dim.items()):
        part = Rat(0)
        for rec in recs:
            part += Rat((-1) ** k, rec.stab_order)
        by_dim[k] = part
        total += part
    return MassReport(total, by_dim)


def flag_check(db: ClassDB) -> tuple:
    """Both sides of the flag identity of the primitive layer,
    (sum over primitive classes C of p(C) / |Aut C|,
     2 sum over codimension-1 classes F of 1 / |Aut F|),
    where p(C) counts the PD facets of C and |Aut| is `stab_order`.  Both
    count the flags (primitive cone, PD wall) up to GL_d(Z), the right side
    because every PD wall lies in exactly two primitive cones, so they are
    equal on a complete database.  A facet is PD iff the sum of its tight
    rays is, the rays being checked positive semidefinite once per cone
    (`_incidences`), as `expand_primitive_cone` tests it; no face is built."""
    db.require_complete()
    m = sym_dim(db.d)
    cones = sum((Rat(_pd_facets(rec.cone), rec.stab_order) for rec in db.by_dim.get(m, [])), Rat(0))
    walls = sum((Rat(2, rec.stab_order) for rec in db.by_dim.get(m - 1, [])), Rat(0))
    return cones, walls


def _pd_facets(cone: ConeDesc) -> int:
    """The number of facets of a cone whose tight rays sum to a positive
    definite form."""
    return sum(central_form([cone.rays[k] for k in _bits(t)]).is_positive_definite()
               for t in _incidences(cone)[2])


def distinctness_check(db: ClassDB):
    """Pairwise distinctness of the DV incidence-graph hashes.

    On a hash collision the colliding pair is recompared on full canonical
    forms to decide isomorphism; the report lists any coincidences.
    """
    db.require_complete()
    groups: dict[str, list[ClassRecord]] = {}
    for rec in db.records():
        groups.setdefault(rec.dv_hash, []).append(rec)
    report = []
    for h, recs in groups.items():
        if len(recs) < 2:
            continue
        forms = [_dv_form(dv_polytope(rec.cone.central)) for rec in recs]
        for i in range(len(recs)):
            for j in range(i + 1, len(recs)):
                report.append({
                    "hash": h,
                    "isomorphic": forms[i] == forms[j],
                    "pair": (recs[i].cert_hash, recs[j].cert_hash),
                })
    return len(report) == 0, report


def subordination_collision_scan(db: ClassDB) -> list:
    """Groups of classes sharing a subordination scheme while being
    combinatorially distinct (distinct DV hashes)."""
    db.require_complete()
    groups: dict[str, list[ClassRecord]] = {}
    for rec in db.records():
        groups.setdefault(rec.subordination, []).append(rec)
    out = []
    for scheme, recs in sorted(groups.items()):
        if len(recs) >= 2 and len(set(r.dv_hash for r in recs)) >= 2:
            out.append({
                "subordination": scheme,
                "classes": [r.cert_hash for r in recs],
                "dims": sorted(r.cone.dim for r in recs),
            })
    return out


def zonotopal_census(db: ClassDB):
    """Classes whose secondary cone is generated by rank-1 forms only.
    For each, the number of rays must equal the cone dimension."""
    db.require_complete()
    zono = [rec for rec in db.records() if rec.zonotopal]
    for rec in zono:
        if len(rec.cone.rays) != rec.cone.dim:
            raise AssertionError("zonotopal cone with ray count != dimension")
    return len(zono), zono


def totally_zone_contracted_census(db: ClassDB):
    """Classes all of whose rays have rank greater than one."""
    db.require_complete()
    tzc = [rec for rec in db.records()
           if all(k > 1 for k, _ in rec.ranks)]
    return len(tzc), tzc


def dimension_table(db: ClassDB) -> dict[int, int]:
    db.require_complete()
    return {k: len(v) for k, v in sorted(db.by_dim.items())}


# ---------------------------------------------------------------------------
# Contraction refinement


def _faces_within(cone: ConeDesc, allowed: int, facet_masks: list[int]) -> list[int]:
    """Faces of the cone whose ray set lies inside the `allowed` mask.

    Candidates come from closing the facet traces (facet mask intersected
    with `allowed`) under intersection; each candidate is then verified to
    be a genuine face: it must equal the intersection of all facets
    containing it.  The cone itself qualifies when all its rays are allowed.
    """
    full = (1 << len(cone.rays)) - 1
    cands = _intersection_closure(fm & allowed for fm in facet_masks)
    faces = []
    if allowed == full:
        faces.append(full)
    for t in cands:
        hull = full
        for fm in facet_masks:
            if t & ~fm == 0:
                hull &= fm
        if hull == t:
            faces.append(t)
    return sorted(set(faces))


def contraction_refine(db: ClassDB, digest: str = "sha256"):
    """Refine the secondary cones into contraction cones and count classes.

    Every cone decomposes into pieces S + R1 where R1 is spanned by its
    rank-1 rays and S runs over the faces spanned by rays of higher rank,
    keeping only pieces that do not lie inside a facet of the cone.  Pieces
    are deduplicated across the database by central-form certificates.
    Returns (total, per-dimension table).
    """
    db.require_complete()
    pieces: list[ConeDesc] = []
    for rec in db.records():
        cone = rec.cone
        nr = len(cone.rays)
        rank1_mask = 0
        high_mask = 0
        for i, r in enumerate(cone.rays):
            if _ray_rank(r) == 1:
                rank1_mask |= 1 << i
            else:
                high_mask |= 1 << i
        facet_masks = _incidences(cone)[2]
        for smask in _faces_within(cone, high_mask, facet_masks):
            piece_mask = smask | rank1_mask
            if piece_mask == 0:
                continue
            if any(piece_mask & ~fm == 0 for fm in facet_masks):
                continue
            gens = [cone.rays[i] for i in range(nr) if piece_mask >> i & 1]
            pieces.append(cone_from_rays(cone.d, gens))
    kept = merge_candidates({}, pieces, digest)
    table: dict[int, int] = {}
    for p in kept:
        table[p.dim] = table.get(p.dim, 0) + 1
    return len(kept), dict(sorted(table.items()))


# ---------------------------------------------------------------------------
# Persistence


def _record_json(rec: ClassRecord) -> str:
    return json.dumps(rec.to_dict(), sort_keys=True, separators=(",", ":"))


def _write_atomic(path: str, text: str):
    """Write through a temporary file in the same directory and `os.replace`,
    so the path holds the old content or the new one, never a part."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_manifest(out_dir: str, manifest: dict):
    _write_atomic(os.path.join(out_dir, "manifest.json"),
                  json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def write_db(db: ClassDB, out_dir: str, extras: Optional[dict] = None):
    """Write one `dim_<k>.jsonl` per cone dimension, then `manifest.json`
    with the record counts; each file is replaced atomically, the manifest
    last, so a complete manifest always describes the files beside it."""
    os.makedirs(out_dir, exist_ok=True)
    counts = {}
    for k in sorted(db.by_dim, reverse=True):
        recs = sorted(db.by_dim[k], key=_record_sort_key)
        _write_atomic(os.path.join(out_dir, f"dim_{k}.jsonl"),
                      "".join(_record_json(rec) + "\n" for rec in recs))
        counts[str(k)] = len(recs)
    manifest = {
        "d": db.d,
        "version": __version__,
        "status": "complete" if db.complete else "running",
        "counts": counts,
        "total": db.total(),
    }
    if extras:
        manifest.update(extras)
    _write_manifest(out_dir, manifest)


def read_manifest(out_dir: str) -> dict:
    """The manifest of a database.  Raises IncompleteDatabase when it is
    missing or does not parse."""
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(path):
        raise IncompleteDatabase(f"no manifest in {out_dir}")
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise IncompleteDatabase(f"{path} is not a manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise IncompleteDatabase(f"{path} is not a manifest: not a JSON object")
    return manifest


def load_db(out_dir: str) -> ClassDB:
    """Read a database written by `write_db`.  Raises IncompleteDatabase when
    the manifest is missing, does not parse or has no integer dimension `d`,
    when a `dim_<k>.jsonl` has no integer k or holds a line that is not a
    valid class record (`ConeDesc.validate`), or when the record counts
    differ from the manifest's."""
    manifest = read_manifest(out_dir)
    if not isinstance(manifest.get("d"), int):
        raise IncompleteDatabase(
            f"{os.path.join(out_dir, 'manifest.json')} is not a manifest: no integer d")
    db = ClassDB(manifest["d"])
    db.complete = manifest.get("status") == "complete"
    for name in sorted(os.listdir(out_dir)):
        if not (name.startswith("dim_") and name.endswith(".jsonl")):
            continue
        path = os.path.join(out_dir, name)
        try:
            k = int(name[4:-6])
        except ValueError:
            raise IncompleteDatabase(f"{path}: not a dim_<k>.jsonl record file") from None
        recs = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    recs.append(ClassRecord.from_dict(json.loads(line)))
                    recs[-1].cone.validate()
                except (ValueError, KeyError, TypeError, AssertionError, NonPSDRay) as exc:
                    raise IncompleteDatabase(
                        f"{path}: line {lineno} is not a class record: {exc}") from exc
        db.by_dim[k] = recs
    counts = {str(k): len(recs) for k, recs in db.by_dim.items()}
    if counts != manifest.get("counts", {}):
        raise IncompleteDatabase(
            f"record counts {counts} in {out_dir} do not match the manifest")
    return db


def run_classification(d: int, out_dir: str, workers: int = 1,
                       resume: bool = False, digest: str = "sha256",
                       seed: Optional[SymMat] = None,
                       abort_after: Optional[int] = None,
                       verbose: bool = False) -> ClassDB:
    """End-to-end classification with on-disk checkpointing.

    Without `resume`, any previous state in `out_dir` is discarded.  With
    `resume`, the checkpoint must match the dimension, the software version
    and, while the run is unfinished, the digest; completed heavy
    computations are replayed from the cache, so an interrupted run
    continues where it stopped and yields a byte-identical database.  A
    worker count below 1, an unsupported digest or a seed form of another
    dimension raises ValueError, and a seed form that is not positive
    definite NotPositiveDefinite, before `out_dir` is touched.
    """
    check_digest(digest)
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    if seed is not None and seed.d != d:
        raise ValueError(f"seed form has dimension {seed.d}, not {d}")
    if seed is not None and not seed.is_positive_definite():
        raise NotPositiveDefinite("seed form is not positive definite")
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.json")
    frontier_path = os.path.join(out_dir, "frontier.jsonl")
    if resume:
        if os.path.exists(manifest_path):
            manifest = read_manifest(out_dir)
            if manifest.get("d") != d or manifest.get("version") != __version__:
                raise IncompatibleCheckpoint(
                    "checkpoint dimension or version does not match")
            if manifest.get("status") == "running" and manifest.get("digest") != digest:
                raise IncompatibleCheckpoint(
                    f"checkpoint digest {manifest.get('digest')} does not match {digest}")
    else:
        for name in list(os.listdir(out_dir)):
            if name == "frontier.jsonl" or name == "manifest.json" or (
                    name.startswith("dim_") and name.endswith(".jsonl")):
                os.remove(os.path.join(out_dir, name))
    write_marker = not os.path.exists(manifest_path)
    if write_marker or not resume:
        _write_manifest(out_dir, {"d": d, "version": __version__, "status": "running",
                                  "digest": digest})
    cache = DiskCache(frontier_path)
    try:
        clf = Classifier(d, workers=workers, digest=digest, cache=cache,
                         seed=seed, abort_after=abort_after, verbose=verbose)
        db = clf.classify()
    finally:
        cache.close()
    mass = mass_check(db)
    distinct, _ = distinctness_check(db)
    zono_count, _ = zonotopal_census(db)
    tzc_count, _ = totally_zone_contracted_census(db)
    primitive = len(db.by_dim.get(sym_dim(d), []))
    extras = {
        "mass": str(mass.total),
        "mass_by_dim": {str(k): str(v) for k, v in mass.by_dim.items()},
        "distinct": distinct,
        "primitive": primitive,
        "zonotopal": zono_count,
        "totally_zone_contracted": tzc_count,
    }
    write_db(db, out_dir, extras)
    os.remove(frontier_path)
    return db
