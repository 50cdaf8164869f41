"""The three seeded workloads, the d = 3 checkpoint probe, and their checks.

Every workload is a closed loop: one caller, and the next item starts when
the previous one returns. A workload runs in laps of a fixed list of items,
so the median over whole laps does not depend on how many laps fit in a run.
The seed changes the coordinate signs of the inputs (on d = 3 a signed
permutation) and their order, not their difficulty: permuting the
coordinates of a d = 4 form reorders the LDL^T enumeration and moved single
items between 1.8 s and 86 s, which no run of a few items can average.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time
from statistics import median

from lcone import classify, equiv, exact, lattice, scone
from lcone.classify import Classifier, principal_form, run_classification, seed_triangulation
from lcone.delaunay import is_triangulation, neighbor_triangulation
from lcone.equiv import ColoredGraph, canonical_labeling, digest_of, form_certificate
from lcone.exact import Mat, SymMat
from lcone.polyhedral import (
    dv_polytope,
    face_lattice,
    incidence_graph,
    serialize_subordination,
    subordination_scheme,
)
from lcone.scone import cone_facets, contains_pd, secondary_cone, sym_dim

# The process-wide caches a fresh `lcone` process starts with empty. Bound
# here, before any tracing wraps the public ones.
CACHES = {
    "exact.ldlt": exact.ldlt,
    "lattice.characteristic_set": lattice.characteristic_set,
    "equiv.form_canonical": equiv._form_canonical,
    "scone.ray_rank": scone._ray_rank,
    "classify.candidate_key": classify._candidate_key,
}

WALK_SEED = 0        # facet choices of the d = 4 walk, in the unsigned frame
WALK_CROSSINGS = 3   # crossings per lap; each lap restarts the walk
SKEW_SEED = 0        # elementary operations that skew the d = 4 forms
SKEW_OPS = 2         # elementary operations per form
# Rank-one terms left out of principal_form(4) for the face forms: the terms
# are numbered as in `principal_terms`.
FACE_GAPS = ((0,), (0, 5), (0, 1))
FRESH = 2            # fresh d = 3 runs per probe, for the phase times
RESUMES = 7          # resumes per probe, for resume_ref and phase.verify_ref
TWO_WORKER_RUNS = 2  # fresh d = 3 runs with two workers, for classify_j2_ref


def sign_matrix(signs) -> Mat:
    n = len(signs)
    return Mat([[signs[i] if i == j else 0 for j in range(n)] for i in range(n)])


def signed_permutation(d: int, rng: random.Random) -> Mat:
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    return Mat([[signs[j] if perm[j] == i else 0 for j in range(d)] for i in range(d)])


def d3_form(seed: int) -> SymMat:
    return principal_form(3).congruence(signed_permutation(3, random.Random(seed)))


def read_db(out_dir: str) -> dict:
    """The database files of a classification output directory, as bytes."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json" or name.startswith("dim_"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = fh.read()
    return out


def d3_matches(db, out_dir: str, refs: dict) -> bool:
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    return (sorted(r.cert_hash for r in db.records()) == refs["cert_hashes"]
            and sorted([r.dv_hash, list(r.f_vector)] for r in db.records()) == refs["dv"]
            and manifest["total"] == refs["total"]
            and manifest["mass"] == refs["mass"]
            and manifest["distinct"] == refs["distinct"])


class ClassifyD3:
    """One item is a fresh d = 3 classification with one worker."""

    name = "classify-d3"

    def __init__(self, seed: int, refs: dict, work: str):
        self.form = d3_form(seed)
        self.refs = refs["d3"]
        self.work = work

    def lap(self, run):
        out = os.path.join(self.work, "fresh")
        db = run.item(run_classification, 3, out, workers=1, seed=self.form)
        run.check(d3_matches(db, out, self.refs))
        shutil.rmtree(out)


class WallcrossD4:
    """One item crosses one positive definite wall of the current d = 4
    cone; the new cone becomes the current one.

    A lap walks WALK_CROSSINGS crossings from a seeded sign image of
    principal_form(4). The facet is chosen in the unsigned frame, so every
    seed walks a sign image of the same path.
    """

    name = "wallcross-d4"

    def __init__(self, seed: int, refs: dict, work: str):
        rng = random.Random(seed)
        self.signs = sign_matrix([rng.choice((1, -1)) for _ in range(4)])
        star = seed_triangulation(4, principal_form(4).congruence(self.signs))
        self.start = star, secondary_cone(star)
        walk = random.Random(WALK_SEED)
        self.choices = [walk.random() for _ in range(WALK_CROSSINGS)]
        self.primitive = set(refs["d4"]["primitive_cert_hashes"])

    def unsigned(self, facet):
        return facet.central.congruence(self.signs).lower()

    def cross(self, star, cone, choice: float):
        walls = sorted((f for f in cone_facets(cone) if contains_pd(f)), key=self.unsigned)
        wall = walls[int(choice * len(walls))].central
        nb_star = neighbor_triangulation(star, wall, cone.central)
        return nb_star, secondary_cone(nb_star), wall

    def valid(self, cone, nb_star, nb_cone, wall) -> bool:
        return (nb_cone.dim == sym_dim(4) and is_triangulation(nb_star)
                and all(n.pair(wall) >= 0 for n in cone.inequalities)
                and all(n.pair(wall) >= 0 for n in nb_cone.inequalities)
                and form_certificate(nb_cone.central).hash in self.primitive)

    def lap(self, run):
        star, cone = self.start
        for choice in self.choices:
            nb_star, nb_cone, wall = run.item(self.cross, star, cone, choice)
            run.check(self.valid(cone, nb_star, nb_cone, wall))
            star, cone = nb_star, nb_cone


def principal_terms(d: int) -> list:
    """The rank-one forms v v^T that sum to principal_form(d): v = e_i - e_j
    for i < j, then v = e_i."""
    unit = [[1 if k == i else 0 for k in range(d)] for i in range(d)]
    vecs = [[a - b for a, b in zip(unit[i], unit[j])]
            for i in range(d) for j in range(i + 1, d)] + unit
    return [SymMat.outer(v) for v in vecs]


def face_form(gaps) -> SymMat:
    terms = [t for i, t in enumerate(principal_terms(4)) if i not in gaps]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def skew(q: SymMat, rng: random.Random) -> SymMat:
    for _ in range(SKEW_OPS):
        i, j = rng.sample(range(q.d), 2)
        u = [[1 if a == b else 0 for b in range(q.d)] for a in range(q.d)]
        u[i][j] = rng.choice((1, -1))
        q = q.congruence(Mat(u))
    return q


def dvcell(q: SymMat):
    """What `lcone dvcell` computes, plus the form's certificate."""
    poly = dv_polytope(q)
    _, f_vector = face_lattice(poly)
    scheme = serialize_subordination(subordination_scheme(poly))
    n, colors, edges = incidence_graph(poly)
    form, _, _, _ = canonical_labeling(ColoredGraph(n, colors, edges))
    return digest_of(form), list(f_vector), scheme, form_certificate(q)


class DvcellD4Skewed:
    """One item is the DV cell of one skewed d = 4 form.

    A lap holds the central forms of the two primitive types other than
    the principal one (whose star wallcross-d4 builds) and the face forms of
    FACE_GAPS, each skewed by SKEW_OPS fixed elementary operations, then
    given seeded coordinate signs, in seeded order.
    """

    name = "dvcell-d4-skewed"

    def __init__(self, seed: int, refs: dict, work: str):
        bases = [SymMat.from_lower(4, c) for c in refs["d4"]["primitive_central"]]
        bases += [face_form(g) for g in FACE_GAPS]
        skew_rng = random.Random(SKEW_SEED)
        skewed = [skew(q, skew_rng) for q in bases]
        skewed = [s for q, s in zip(bases, skewed) if q != principal_form(4)]
        rng = random.Random(seed)
        self.forms = [q.congruence(sign_matrix([rng.choice((1, -1)) for _ in range(4)]))
                      for q in skewed]
        rng.shuffle(self.forms)
        self.dv = {(h, tuple(f)) for h, f in refs["d4"]["dv"]}

    def lap(self, run):
        for q in self.forms:
            dv_hash, f_vector, _, _ = run.item(dvcell, q)
            run.check((dv_hash, tuple(f_vector)) in self.dv)


WORKLOADS = {w.name: w for w in (ClassifyD3, WallcrossD4, DvcellD4Skewed)}


class PhaseClock:
    """Times the phases of the classifications run inside it by wrapping
    Classifier.primitive_cones, Classifier._map (by task kind) and
    Classifier.classify; the class is restored on exit."""

    def __init__(self):
        self.primitive = self.enrich = self.classify = 0.0
        self.classify_end = None

    def __enter__(self):
        self._saved = {k: getattr(Classifier, k) for k in ("primitive_cones", "_map", "classify")}
        prim, mapper, whole = (self._saved[k] for k in ("primitive_cones", "_map", "classify"))
        clock = self

        def primitive_cones(clf):
            t0 = time.perf_counter()
            try:
                return prim(clf)
            finally:
                clock.primitive += time.perf_counter() - t0

        def _map(clf, kind, cones):
            t0 = time.perf_counter()
            try:
                return mapper(clf, kind, cones)
            finally:
                if kind == "enrich":
                    clock.enrich += time.perf_counter() - t0

        def classify_(clf):
            t0 = time.perf_counter()
            try:
                return whole(clf)
            finally:
                clock.classify_end = time.perf_counter()
                clock.classify += clock.classify_end - t0

        Classifier.primitive_cones = primitive_cones
        Classifier._map = _map
        Classifier.classify = classify_
        return self

    def __exit__(self, *exc):
        for k, v in self._saved.items():
            setattr(Classifier, k, v)
        return False

    @property
    def descent(self) -> float:
        return self.classify - self.primitive - self.enrich


def checkpoint_probe(run, seed: int, refs: dict, work: str) -> dict:
    """Phase, resume and two-worker times of the d = 3 classification.

    FRESH fresh runs stop after their last task (refs["tasks"]), which leaves
    a complete checkpoint and gives the primitive, descent and enrichment
    times. RESUMES resumes of copies of that checkpoint give resume_ref and
    the verification time after `classify` returns; TWO_WORKER_RUNS fresh
    runs with two workers give classify_j2_ref. Times are in units of the
    runner's reference loop, and each metric is the median of its runs.
    The resumed and two-worker databases must be byte-identical and match
    the references.
    """
    refs = refs["d3"]
    form = d3_form(seed)
    phases = []
    for k in range(FRESH):
        base = os.path.join(work, f"checkpoint{k}")
        with PhaseClock() as clock:
            try:
                run.call(run_classification, 3, base, seed=form, abort_after=refs["tasks"])
                stopped = False
            except KeyboardInterrupt:
                stopped = True
        phases.append((clock, run.ref))
        with open(os.path.join(base, "frontier.jsonl")) as fh:
            run.check(stopped and sum(1 for _ in fh) == refs["tasks"])

    def resume(out):
        db = run_classification(3, out, resume=True, seed=form)
        return db, time.perf_counter()

    resumes, verifies = [], []
    for k in range(RESUMES):
        out = os.path.join(work, f"resume{k}")
        shutil.copytree(base, out)
        with PhaseClock() as clock:
            (db, end), seconds = run.call(resume, out)
        resumes.append(seconds / run.ref)
        verifies.append((end - clock.classify_end) / run.ref)
        run.check(d3_matches(db, out, refs))
    resumed = read_db(out)
    two_workers = []
    for k in range(TWO_WORKER_RUNS):
        out = os.path.join(work, f"j2-{k}")
        db, seconds = run.call(run_classification, 3, out, workers=2, seed=form)
        two_workers.append(seconds / run.ref)
        run.check(d3_matches(db, out, refs) and read_db(out) == resumed)
    return {
        "resume_ref": median(resumes),
        "classify_j2_ref": median(two_workers),
        "phase.primitive_ref": median(p.primitive / ref for p, ref in phases),
        "phase.descent_ref": median(p.descent / ref for p, ref in phases),
        "phase.enrich_ref": median(p.enrich / ref for p, ref in phases),
        "phase.verify_ref": median(verifies),
    }
