"""Acceptance suite: every criterion runs at its stated tolerance (exact
arithmetic, so every tolerance is zero) and prints one PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import hashlib
import itertools
import json
import os
import random
import time
from pathlib import Path

import pytest

from lcone.classify import (
    ClassDB,
    Classifier,
    classify_all,
    dimension_table,
    flag_check,
    mass_check,
    principal_form,
    run_classification,
    seed_triangulation,
)
from lcone.delaunay import delaunay_star, is_triangulation
from lcone.equiv import automorphism_group, form_certificate, form_equivalence
from lcone.exact import Mat, Rat, SingularMatrix, SymMat, det, solve
from lcone.polyhedral import dv_polytope, polytope_volume
from lcone.scone import cone_facets, cone_from_rays, fundamental_face

from oracles import (
    automorphism_group_by_solve,
    delaunay_star_by_search,
    dv_polytope_by_star,
    flag_check_by_faces,
)
from test_classify import assert_refined_seed
from test_delaunay import assert_same_star
from test_polyhedral import assert_dv_integers_match_oracles, assert_dv_summary_matches_oracles
from test_scone import (
    assert_equalities_span_accumulated,
    assert_faces_match_rays_oracle,
    assert_faces_match_symmat_oracle,
    assert_same_cone,
)

A2 = SymMat([[2, 1], [1, 2]])


@pytest.fixture(scope="module")
def db3(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("acc") / "db3")
    t0 = time.time()
    db = run_classification(3, out, workers=1)
    db._elapsed = time.time() - t0
    db._out = out
    return db


@pytest.fixture(scope="module")
def db4(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("acc") / "db4")
    t0 = time.time()
    db = run_classification(4, out, workers=min(4, os.cpu_count() or 1))
    db._elapsed = time.time() - t0
    db._out = out
    return db


# ---------------------------------------------------------------------------
# Criterion 1: d = 2


def test_criterion_1_d2(tmp_path):
    t0 = time.time()
    db = run_classification(2, str(tmp_path / "db2"))
    elapsed = time.time() - t0
    assert db.total() == 2
    assert len(db.by_dim[3]) == 1
    prim = db.by_dim[3][0]
    u = form_equivalence(prim.cone.central, A2)
    assert u is not None, "primitive central form must be equivalent to the hexagonal form"
    mapped = set(r.congruence(u.matrix).lower() for r in prim.cone.rays)
    assert mapped == {(1, 0, 0), (0, 0, 1), (1, 1, 1)}
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: d=2 gives 2 classes (1 primitive), "
          f"hexagonal rays and central form verified, {elapsed:.2f}s < 5s")


# ---------------------------------------------------------------------------
# Criterion 2: d = 3 with the brute-force DV oracle


def _oracle_dv_f_vector(q, box=3):
    """Independent Dirichlet-Voronoi combinatorics by exhaustive box scans:
    facet vectors by the midpoint test, vertices by solving all d-subsets,
    faces by closing vertex-facet incidence sets under intersection.

    The midpoint test runs in integers: 4 Q[v/2 - w] = Q[v - 2w], so the
    lattice points closest to v/2 are those minimizing Q[v - 2w]."""
    d = q.d
    zero = tuple([0] * d)
    inner = list(itertools.product(range(-box - 1, box + 2), repeat=d))
    relevant = []
    for v in itertools.product(range(-box, box + 1), repeat=d):
        if not any(v):
            continue
        vals = [q.quad([a - 2 * b for a, b in zip(v, w)]) for w in inner]
        best = min(vals)
        argmins = [w for w, val in zip(inner, vals) if val == best]
        if sorted(argmins) == sorted([zero, v]):
            relevant.append(v)
    assert all(max(abs(x) for x in v) < box for v in relevant), "oracle box too small"
    halfspaces = [(q.mul_vec(v), Rat(q.quad(v), 2)) for v in relevant]
    verts = set()
    for sub in itertools.combinations(range(len(halfspaces)), d):
        rows = [halfspaces[i][0] for i in sub]
        rhs = [halfspaces[i][1] for i in sub]
        try:
            x = solve(Mat(rows), rhs)
        except SingularMatrix:
            continue
        if all(sum(a * b for a, b in zip(av, x)) <= bv for av, bv in halfspaces):
            verts.add(tuple(x))
    verts = sorted(verts)
    incidence = []
    for av, bv in halfspaces:
        mask = 0
        for i, x in enumerate(verts):
            if sum(a * b for a, b in zip(av, x)) == bv:
                mask |= 1 << i
        incidence.append(mask)
    facets = set(m for m in incidence if bin(m).count("1") >= d)
    faces = set(facets)
    frontier = set(facets)
    while frontier:
        new = set()
        for f in frontier:
            for g in facets:
                h = f & g
                if h and h not in faces:
                    new.add(h)
        faces |= new
        frontier = new
    from lcone.exact import rank_of_rows

    counts = [0] * d
    for mask in faces:
        vs = [verts[i] for i in range(len(verts)) if mask >> i & 1]
        if len(vs) == 1:
            counts[0] += 1
            continue
        v0 = vs[0]
        r = rank_of_rows([[x - y for x, y in zip(v, v0)] for v in vs[1:]])
        counts[r] += 1
    return tuple(counts)


def test_criterion_2_d3(db3):
    assert db3.total() == 5
    assert len(db3.by_dim[6]) == 1
    hashes = set(r.dv_hash for r in db3.records())
    assert len(hashes) == 5
    prim = db3.by_dim[6][0]
    assert prim.dv_facets == 14 and prim.dv_vertices == 24
    for rec in db3.records():
        oracle_fv = _oracle_dv_f_vector(rec.cone.central)
        assert rec.f_vector == oracle_fv, \
            f"f-vector {rec.f_vector} does not match oracle {oracle_fv}"
    assert db3._elapsed < 60.0
    print(f"\nPASS criterion 2: d=3 gives 5 classes (1 primitive), 5 distinct "
          f"DV hashes, f-vectors match the brute-force oracle, "
          f"{db3._elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# Criterion 3: d = 4


def test_star_matches_search_oracle_on_d4_database(db4):
    # Every central form of the d = 4 database, primitive or not.
    for rec in db4.records():
        q = rec.cone.central
        assert_same_star(delaunay_star(q), delaunay_star_by_search(q))


def test_faces_match_rays_oracle_on_databases(db3, db4):
    # Every cone of the d = 3 and d = 4 databases, and its facets and its
    # fundamental face, read off the incidences, equal those rebuilt from
    # their rays, equalities included.
    facets = 0
    for db in (db3, db4):
        for rec in db.records():
            assert_same_cone(rec.cone, cone_from_rays(rec.cone.d, rec.cone.rays))
            facets += len(assert_faces_match_rays_oracle(rec.cone))
    assert facets == 349


def test_faces_match_symmat_oracle_on_databases(db3, db4):
    # Every facet and fundamental face of every cone of the d = 3 and d = 4
    # databases, read off the cone's integer functionals, equals the face
    # built with its inequalities held as symmetric matrices.
    facets = sum(len(assert_faces_match_symmat_oracle(rec.cone))
                 for db in (db3, db4) for rec in db.records())
    assert facets == 349


def test_flag_check_matches_faces_oracle(db3, db4):
    # `flag_check` counts the PD facets of each primitive cone from its
    # tight masks; the oracle builds every facet cone and asks `contains_pd`.
    for db in (db3, db4):
        assert flag_check(db) == flag_check_by_faces(db)


def test_equalities_span_accumulated_on_databases(db3, db4):
    # The canonical hull equalities of every facet and fundamental face
    # span the space of those the descent once threaded down to it.
    faces = sum(assert_equalities_span_accumulated(rec.cone)
                for db in (db3, db4) for rec in db.records())
    assert faces == 384         # 349 facets and 35 fundamental faces


def test_faces_pass_full_validate_on_databases(db3, db4):
    # `_face` skips the two checks of `ConeDesc.validate` its construction
    # proves (the rank of the rays and the central form); the full one
    # still holds on every facet and fundamental face of every cone.
    faces = 0
    for db in (db3, db4):
        for rec in db.records():
            ff = fundamental_face(rec.cone)
            for face in cone_facets(rec.cone) + ([] if ff is None else [ff]):
                face.validate()
                faces += 1
    assert faces == 384         # 349 facets and 35 fundamental faces


def test_dv_matches_star_oracle_on_databases(db3, db4):
    # Every central form of the d = 3 and d = 4 databases: the DV polytope,
    # masks included, equals the one read off the form's Delaunay star.
    forms = [rec.cone.central for db in (db3, db4) for rec in db.records()]
    assert len(forms) == 57
    for q in forms:
        assert dv_polytope(q) == dv_polytope_by_star(q)


def test_dv_summary_matches_oracles_on_databases(db3, db4):
    # Every central form of the d = 3 and d = 4 databases: the DV cell and
    # its double description equal the `Fraction` and scan oracles, and the
    # face lattice and subordination scheme of its DV polytope the closure,
    # rank and scan oracles.
    forms = [rec.cone.central for db in (db3, db4) for rec in db.records()]
    assert len(forms) == 57
    for q in forms:
        assert_dv_summary_matches_oracles(q)


def test_dv_integers_match_oracles_on_databases(db3, db4):
    # Every central form of the d = 3 and d = 4 databases: the DV halfspace
    # rows read off one integer Gram matrix equal the rational rows, the
    # face levels the scan oracle's, and the incidence graph the loop's.
    forms = [rec.cone.central for db in (db3, db4) for rec in db.records()]
    assert len(forms) == 57
    for q in forms:
        assert_dv_integers_match_oracles(q)


def test_seed_refines_database_forms(db3, db4):
    # Every central form of the d = 3 and d = 4 databases seeds a
    # triangulation that refines its Delaunay subdivision: a primitive one
    # as it is, a coarse one by the checked generic perturbation.
    forms = [rec.cone.central for db in (db3, db4) for rec in db.records()]
    assert len(forms) == 57
    for q in forms:
        assert_refined_seed(q)


def test_automorphism_group_matches_solve_oracle_on_databases(db3, db4):
    # Every central form of the d = 3 and d = 4 databases, and
    # principal_form(5): the maps read off one inverse per form are the
    # oracle's, solved per generator, in its order, with its group order.
    forms = [rec.cone.central for db in (db3, db4) for rec in db.records()]
    assert len(forms) == 57
    for q in forms + [principal_form(5)]:
        maps, order = automorphism_group(q)
        want, want_order = automorphism_group_by_solve(q)
        assert [m.matrix for m in maps] == [m.matrix for m in want]
        assert order == want_order


def test_criterion_3_d4(db4):
    assert db4.total() == 52
    assert len(db4.by_dim[10]) == 3
    assert max(db4.by_dim) == 10
    hashes = set(r.dv_hash for r in db4.records())
    assert len(hashes) == 52
    schemes = set(r.subordination for r in db4.records())
    assert len(schemes) == 52
    assert db4._elapsed < 1800.0
    print(f"\nPASS criterion 3: d=4 gives 52 classes (3 primitive, max cone "
          f"dim 10), 52 distinct DV hashes and 52 distinct subordination "
          f"schemes, {db4._elapsed:.1f}s (target 30min)")


# ---------------------------------------------------------------------------
# Criterion 4: mass formula


def test_criterion_4_mass(db3, db4):
    m3 = mass_check(db3)
    m4 = mass_check(db4)
    assert m3.total == 0
    assert m4.total == 0
    print(f"\nPASS criterion 4: mass formula is exactly 0 for d=3 "
          f"({len(m3.by_dim)} dimension groups) and d=4 "
          f"({len(m4.by_dim)} dimension groups)")


def test_flag_identity_on_databases(db3, db4):
    # Flags (primitive cone, PD wall) counted from both ends.  Without one
    # wall class the sides differ.
    for db, want in ((db3, Rat(1, 8)), (db4, Rat(43, 72))):
        assert flag_check(db) == (want, want)
        m = max(db.by_dim)
        by_dim = dict(db.by_dim)
        by_dim[m - 1] = by_dim[m - 1][1:]
        cones, walls = flag_check(ClassDB(db.d, by_dim, complete=True))
        assert cones == want and walls < want
    print("\nPASS flag identity: 1/8 at d=3 and 43/72 at d=4 on both sides")


# ---------------------------------------------------------------------------
# Byte identity: the sha256 of every database file for d = 2, 3 and 4

DATABASE_SHA256 = {
    2: {
        "dim_2.jsonl": "331ad051c5c032d71eafde9c7a52ccd86b690acd4c4fde96b81a9eb7664f353a",
        "dim_3.jsonl": "1f436f0c44028e457621a4f38282e773a098ce3b73a16f77dbb0fcb13d7a4951",
        "manifest.json": "2b664cf526c2dd6323d3fb96ed2665edaeecd82039b2516e792bc552bd81803b",
    },
    3: {
        "dim_3.jsonl": "37ba977d7ffcefe0aac2b9e26e3ae7c5be1a2d681159c34720228841f2647af4",
        "dim_4.jsonl": "be09470b4f0f5c77f5b07ba58f00d5c3c2b3ecab46610cf224210747104814b5",
        "dim_5.jsonl": "050cd1e0a3c4c3318e32997866ebfe985826508ae28702e852be651eaca4ffa5",
        "dim_6.jsonl": "6f2829f2a9b43ac0889630219bda8e69bcbb30f7ecc0f3e5039f1eb7294df961",
        "manifest.json": "50635d904179055e4b1efbc0b5f3abf20cee06dbaacdc7b2d035ac9edf977a9d",
    },
    4: {
        "dim_1.jsonl": "d7e4235beb5bc613fbd72e8de3ed5dd1f76665e6150e5c2a935ddb5131b83494",
        "dim_2.jsonl": "d67243e61e79e225337feb02d9f1eabfceb7c2c5bd225e335b65bfb2326b894d",
        "dim_3.jsonl": "6e22d87d8ffc81428342327adf4976968489cb71b5ae3e8d2ee89951dbf11d4f",
        "dim_4.jsonl": "58ef71127635b5fe96605ff33953a421d4ebfbcc5cb0f9a50e4ebe0f79119d50",
        "dim_5.jsonl": "39ed1f2518d56b4d00d8758971ce9a4e1c41a1ff365ec3ba6f62640727950d36",
        "dim_6.jsonl": "56f9a288126c9e9c230e736e8fb652ed9d3c2ef4a4db15fd8947bb0e673bf181",
        "dim_7.jsonl": "710a44ea2f9188c382295ae9cd194137a555e48c908575f4af66b9a94fcdfc44",
        "dim_8.jsonl": "81749d55fc5d910e1381ecf4093b5e315672ede4e5c4d22c0e018b8b1d74b7e6",
        "dim_9.jsonl": "8d6b5568010e19dddf15bc92c470b34805d566ff594b254b0c6c38b39f801b1f",
        "dim_10.jsonl": "60d0f3f47534a3db26bbdcab0c83f8ecedfa9010aa090868f1dd25c1ea27854b",
        "manifest.json": "e8aa6928bb4e91d7a06af8aac3e3ae0e55dbe166efc5758b4449ebf92c1fd3ba",
    },
}


def _database_sha256(out):
    return {name: hashlib.sha256(Path(out, name).read_bytes()).hexdigest()
            for name in os.listdir(out) if name == "manifest.json" or name.startswith("dim_")}


# The same files with the path-free fields only: every record without its
# `eqs` and the manifest without its `version`.  They pin the counts, rays,
# inequalities, hashes, stabilizer orders and mass apart from how the
# equalities of a face are chosen.
DATABASE_SHA256_WITHOUT_EQS = {
    2: {
        "dim_2.jsonl": "52d76646d7d0008b5eeec6ffee53f0c092274982205c46382e3cc9c82617415b",
        "dim_3.jsonl": "651760e972f71a06cdd714e7758b00514b241b372e2a4c6a073d1bb5208406b7",
        "manifest.json": "e8b24eadfe486a093dd727f0c9c74c65819dd2587c90568e88489d2cd16e9f69",
    },
    3: {
        "dim_3.jsonl": "688871b39f5ed4e6c1a427d0899c587c94e9680d3c94dba20ef449f19a7e6c2a",
        "dim_4.jsonl": "20588ba81d4b3175a8cf467acb901c5f0c6b653c02b94abf553b7534d075110b",
        "dim_5.jsonl": "ca80151138d7badc736c7480e4209cf0dfd708df0944b943bb9050f44bce49be",
        "dim_6.jsonl": "5bf3746fdd92dfc4f5d4e4d939b875e7b5fd7438cb8bc5490d80b2a610b9da35",
        "manifest.json": "3f353af760587fa3bcdc3344e31e68cdef84b9f06031bcb429fb1bb583f0e065",
    },
    4: {
        "dim_1.jsonl": "0f62fc9162c9ffd7e381ec1e1d6f0ca812394e199fd9eed8fd5c957d72f200a1",
        "dim_2.jsonl": "38bd5ea996cae053f45b409b4197a7b97603e21ce53dbbe26a27ab017f23362a",
        "dim_3.jsonl": "958b7fda7d81ebc5c64a41bbb92f895870ee7796147a13d0a171fb7897074173",
        "dim_4.jsonl": "1b07a4973d1132c19b4845cf289850277866baa87f332da4122c1a6a02472c1e",
        "dim_5.jsonl": "b43d5532c001d79f5405edd83e49532d9439a135514f625dc4e968d3515ed81a",
        "dim_6.jsonl": "7b077d5293c05a23ef16320b6e71fb8b9da2aafe844f7ac1c07a1a7ab08994de",
        "dim_7.jsonl": "5278e288205274511782134ccb591b76af0accdfdd752b12a68cbfd32ae14cdf",
        "dim_8.jsonl": "782d208fb7b3b73f81215904cfce9cf2461c18a29c013f9799d87c2885d99b4b",
        "dim_9.jsonl": "b17dbcca058f21aa8dfb1c5a6682dce787fd175236b3f6e7b22ea4104b045d5d",
        "dim_10.jsonl": "1684798fe4876d1bb7cce7f375066f73492d6c1e7e190aba139fdb0ed304cae4",
        "manifest.json": "983a5c737bcfe574cd62fdcd770adfebc6bbeb8bc05ac591554db996aa099ad7",
    },
}


def _database_sha256_without_eqs(out):
    digests = {}
    for name in os.listdir(out):
        if name == "manifest.json":
            data = json.loads(Path(out, name).read_text())
            data.pop("version")
            text = json.dumps(data, sort_keys=True)
        elif name.startswith("dim_"):
            recs = [json.loads(line) for line in Path(out, name).read_text().splitlines()]
            for rec in recs:
                rec.pop("eqs")
            text = "".join(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
                           for rec in recs)
        else:
            continue
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_databases_identical_without_eqs(tmp_path, db3, db4):
    run_classification(2, str(tmp_path / "db2"))
    for d, out in ((2, str(tmp_path / "db2")), (3, db3._out), (4, db4._out)):
        assert _database_sha256_without_eqs(out) == DATABASE_SHA256_WITHOUT_EQS[d], \
            f"d={d} database changed outside its equalities"


def test_databases_byte_identical(tmp_path, db3, db4):
    run_classification(2, str(tmp_path / "db2"))
    for d, out in ((2, str(tmp_path / "db2")), (3, db3._out), (4, db4._out)):
        assert _database_sha256(out) == DATABASE_SHA256[d], f"d={d} database changed"
    print("\nPASS byte identity: the d=2, 3 and 4 dim_*.jsonl and manifest.json "
          "match their pinned sha256")


# ---------------------------------------------------------------------------
# Criterion 5: property suites


def _random_unimodular(rng, d, entries=3):
    while True:
        u = Mat([[rng.randint(-entries, entries) for _ in range(d)] for _ in range(d)])
        if det(u) in (1, -1):
            return u


def test_criterion_5a_membership():
    # interior points of a secondary cone reproduce the triangulation
    from lcone.scone import secondary_cone

    rng = random.Random(12)
    for d, trials in ((2, 20), (3, 6)):
        star = seed_triangulation(d)
        cone = secondary_cone(star)
        for n in cone.inequalities:
            assert n.pair(star.form) > 0
        for _ in range(trials):
            q = SymMat.from_lower(d, [0] * (d * (d + 1) // 2))
            for r in cone.rays:
                q = q + r.scale(rng.randint(1, 9))
            assert delaunay_star(q).keys == star.keys
    print("\nPASS criterion 5a: interior-point membership reproduces the triangulation")


def test_criterion_5b_equivariance():
    rng = random.Random(23)
    from lcone.exact import inverse

    for q in (A2, principal_form(3)):
        d = q.d
        for _ in range(5):
            u = _random_unimodular(rng, d, 2)
            ui = inverse(u)
            s1 = delaunay_star(q)
            s2 = delaunay_star(q.congruence(u))
            mapped = set(
                tuple(sorted(tuple(int(x) for x in ui.mul_vec(v)) for v in c.vertices))
                for c in s1.cells)
            assert mapped == set(c.vertices for c in s2.cells)
    print("\nPASS criterion 5b: unimodular equivariance of Delaunay stars")


def test_criterion_5c_refinement():
    from lcone.scone import cone_facets, contains_pd, secondary_cone

    for d in (2, 3):
        star = seed_triangulation(d)
        cone = secondary_cone(star)
        for facet in cone_facets(cone):
            if not contains_pd(facet):
                continue
            coarse = delaunay_star(facet.central)
            assert len(coarse.cells) < len(star.cells)
            for cell in star.cells:
                assert any(set(cell.vertices) <= set(c2.vertices)
                           for c2 in coarse.cells)
    print("\nPASS criterion 5c: facet points coarsen and are refined by the triangulation")


def test_criterion_5d_dv_properties():
    forms = [SymMat([[1]]), SymMat.identity(2), A2, principal_form(3),
             SymMat([[2, 1, 1], [1, 2, 1], [1, 1, 2]]), principal_form(4)]
    for q in forms:
        poly = dv_polytope(q)
        assert polytope_volume(poly) == 1
        star = delaunay_star(q)
        assert poly.n_vertices == len(star.cells)
    print("\nPASS criterion 5d: DV volume is exactly 1 and vertex count equals "
          "Delaunay star cell count")


def test_criterion_5e_certificates():
    rng = random.Random(77)
    for q in (A2, principal_form(3)):
        c0 = form_certificate(q)
        for _ in range(100):
            u = _random_unimodular(rng, q.d, 3)
            assert form_certificate(q.congruence(u)).hash == c0.hash
    print("\nPASS criterion 5e: certificate invariance under random unimodular maps")


def test_criterion_5f_witness_soundness():
    rng = random.Random(41)
    for q in (A2, principal_form(3), SymMat([[2, 0, 1], [0, 3, 1], [1, 1, 4]])):
        u0 = _random_unimodular(rng, q.d, 2)
        q2 = q.congruence(u0)
        u = form_equivalence(q, q2)
        assert u is not None
        assert q.congruence(u.matrix) == q2
        assert det(u.matrix) in (1, -1)
    print("\nPASS criterion 5f: every witness satisfies U^T Q U = Q' with |det U| = 1")


def test_criterion_5g_structure(db4, db3):
    for db in (db3, db4):
        d = db.d
        for rec in db.records():
            assert rec.stab_order % 2 == 0
            for k, _ in rec.ranks:
                assert k in {1, 4, d}
            cone = rec.cone
            ff = fundamental_face(cone)
            fdim = 0 if ff is None else ff.dim
            ff_rays = set() if ff is None else set(r.lower() for r in ff.rays)
            loose = [r for r in cone.rays
                     if r.rank() == 1 and r.lower() not in ff_rays]
            assert cone.dim == fdim + len(loose)
    print("\nPASS criterion 5g: stabilizer orders even, rank profiles in {1,4,d}, "
          "pyramid dimension formula on all d=3 and d=4 classes")


# ---------------------------------------------------------------------------
# Criterion 6: extended d = 5 support (structural; the full run is opt-in)


def test_criterion_6_extended_support():
    clf = Classifier(5)   # d=5 is accepted
    with pytest.raises(Exception):
        Classifier(6)
    star = seed_triangulation(5)
    assert is_triangulation(star)
    assert len(star.cells) == 720
    if os.environ.get("LCONE_EXTENDED"):
        db = classify_all(5, workers=os.cpu_count() or 1)
        assert db.total() == 110244
        assert len(db.by_dim[15]) == 222
        assert dimension_table(db)[1] == 7
    print("\nPASS criterion 6: d=5 supported (720-cell seed triangulation); "
          "full run opt-in via LCONE_EXTENDED=1")
