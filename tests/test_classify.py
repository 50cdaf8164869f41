import functools
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcone.classify
from lcone.classify import (
    ClassDB,
    _faces_within,
    Classifier,
    DimensionUnsupported,
    DiskCache,
    IncompatibleCheckpoint,
    IncompleteDatabase,
    _facet_orbits,
    classify_all,
    contraction_refine,
    dimension_table,
    distinctness_check,
    enumerate_primitive,
    expand_descent_cone,
    expand_primitive_cone,
    load_db,
    mass_check,
    principal_form,
    run_classification,
    seed_triangulation,
    subordination_collision_scan,
    write_db,
    zonotopal_census,
)
from lcone.delaunay import delaunay_star, is_triangulation
from lcone.equiv import form_equivalence
from lcone.exact import Mat, NotPositiveDefinite, Rat, SymMat
from lcone.scone import (
    _ray_rank,
    cone_facets,
    cone_from_dict,
    cone_to_dict,
    contains_pd,
    fundamental_face,
    secondary_cone,
    star_wall_forms,
    sym_to_functional,
)
from oracles import (
    expand_descent_cone_all_facets,
    expand_primitive_cone_by_crossing,
    face_by_symmats,
    facet_orbits_by_rays,
    merge_by_buckets,
    merge_by_forms,
    tight_masks_by_pairs,
)
from test_scone import assert_same_cone


A2 = SymMat([[2, 1], [1, 2]])


def assert_refined_seed(q):
    """`seed_triangulation` of the form q is a triangulation whose walls are
    all >= 0 on q, so that its closed secondary cone holds q, and each of
    its cells lies in a cell of Del(q)."""
    star = seed_triangulation(q.d, q)
    assert is_triangulation(star)
    assert all(n.pair(q) >= 0 for n in star_wall_forms(star))
    coarse = [set(c.vertices) for c in delaunay_star(q).cells]
    assert all(any(set(c.vertices) <= c2 for c2 in coarse) for c in star.cells)


class TestSeeds:
    def test_principal_form_is_generic(self):
        for d in (1, 2, 3, 4):
            star = seed_triangulation(d)
            assert is_triangulation(star)

    def test_coarse_seed_is_refined(self):
        # the identity form has cubical cells; seeding still must produce a
        # triangulation that refines them (by the checked generic perturbation)
        for d in (2, 3, 4):
            assert_refined_seed(SymMat.identity(d))

    def test_d5_wall_seed_is_refined(self):
        cone = secondary_cone(seed_triangulation(5))
        wall = next(f for f in cone_facets(cone) if contains_pd(f))
        assert not is_triangulation(delaunay_star(wall.central))
        assert_refined_seed(wall.central)

    def test_seed_of_other_dimension_raises(self, tmp_path):
        with pytest.raises(ValueError, match="seed form has dimension 2, not 3"):
            seed_triangulation(3, A2)
        out = tmp_path / "db"
        with pytest.raises(ValueError, match="seed form has dimension 2, not 3"):
            run_classification(3, str(out), seed=A2)
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_1_raises_before_writing(self, tmp_path, workers):
        out = tmp_path / "db"
        match = f"worker count must be at least 1, got {workers}"
        with pytest.raises(ValueError, match=match):
            run_classification(3, str(out), workers=workers)
        assert not out.exists()
        with pytest.raises(ValueError, match=match):
            Classifier(3, workers=workers)

    def test_indefinite_seed_leaves_database_untouched(self, tmp_path):
        out = tmp_path / "db"
        run_classification(2, str(out))
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        for resume in (False, True):
            with pytest.raises(NotPositiveDefinite, match="seed form is not positive definite"):
                run_classification(2, str(out), seed=SymMat([[1, 2], [2, 1]]), resume=resume)
            assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    def test_principal_form_values(self):
        assert principal_form(2) == SymMat([[2, -1], [-1, 2]])
        assert principal_form(1) == SymMat([[1]])

    def test_dimension_guard(self):
        with pytest.raises(DimensionUnsupported):
            Classifier(6)
        with pytest.raises(DimensionUnsupported):
            Classifier(0)
        # d = 5 is structurally supported (extended run)
        Classifier(5)


class TestPrimitive:
    def test_d1(self):
        recs = enumerate_primitive(1)
        assert len(recs) == 1
        assert recs[0].stab_order == 2

    def test_d2(self):
        recs = enumerate_primitive(2)
        assert len(recs) == 1
        rec = recs[0]
        assert form_equivalence(rec.cone.central, A2) is not None
        want = {(1, 0, 0), (0, 0, 1), (1, 1, 1)}
        got = set(r.lower() for r in rec.cone.rays)
        # the stored representative is some unimodular image of the
        # hexagonal cone; ray sets match after mapping
        u = form_equivalence(rec.cone.central, A2)
        mapped = set(r.congruence(u.matrix).lower() for r in rec.cone.rays)
        assert mapped == want
        assert rec.stab_order == 12

    def test_d3(self):
        recs = enumerate_primitive(3)
        assert len(recs) == 1
        assert recs[0].stab_order == 48


class TestClassifyAll:
    def test_d1(self):
        db = classify_all(1)
        assert db.total() == 1
        assert dimension_table(db) == {1: 1}

    def test_d2(self):
        db = classify_all(2)
        assert db.total() == 2
        assert dimension_table(db) == {2: 1, 3: 1}
        assert mass_check(db).total == Rat(1, 24)
        ok, _ = distinctness_check(db)
        assert ok
        n, _ = zonotopal_census(db)
        assert n == 2
        total, table = contraction_refine(db)
        assert total == 2 and table == {2: 1, 3: 1}

    def test_d3(self):
        db = classify_all(3)
        assert db.total() == 5
        assert len(db.by_dim[6]) == 1
        assert mass_check(db).total == 0
        ok, _ = distinctness_check(db)
        assert ok
        assert subordination_collision_scan(db) == []
        n, zono = zonotopal_census(db)
        assert n == 5
        for rec in zono:
            assert len(rec.cone.rays) == rec.cone.dim
        total, _ = contraction_refine(db)
        assert total == 5
        # the five f-vectors of the classical space fillers
        fvs = sorted(r.f_vector for r in db.records())
        assert fvs == sorted([(24, 36, 14), (18, 28, 12), (12, 18, 8),
                              (14, 24, 12), (8, 12, 6)])

    def test_incomplete_guard(self):
        db = ClassDB(3)
        with pytest.raises(IncompleteDatabase):
            mass_check(db)

    def test_membership_of_interior_points(self):
        # random interior points of each classified cone reproduce its
        # Delaunay translation classes
        import random

        from lcone.delaunay import delaunay_star

        rng = random.Random(5)
        db = classify_all(2)
        for rec in db.records():
            cone = rec.cone
            star0 = delaunay_star(cone.central)
            for _ in range(5):
                q = SymMat.from_lower(2, [0, 0, 0])
                for r in cone.rays:
                    q = q + r.scale(rng.randint(1, 7))
                star = delaunay_star(q)
                assert star.keys == star0.keys

    def test_pyramid_formula(self):
        for d in (2, 3):
            db = classify_all(d)
            for rec in db.records():
                cone = rec.cone
                ff = fundamental_face(cone)
                fdim = 0 if ff is None else ff.dim
                ff_rays = set() if ff is None else set(r.lower() for r in ff.rays)
                loose = [r for r in cone.rays
                         if r.rank() == 1 and r.lower() not in ff_rays]
                assert cone.dim == fdim + len(loose)

    def test_rank_restriction(self):
        for d in (2, 3):
            db = classify_all(d)
            for rec in db.records():
                for k, _ in rec.ranks:
                    assert k in {1, 4, d}

    def test_stab_orders_even(self):
        db = classify_all(3)
        for rec in db.records():
            assert rec.stab_order % 2 == 0

    def test_descent_completeness(self):
        # every PD facet of every classified cone is equivalent to some
        # record one dimension down
        from lcone.equiv import cone_equivalent
        from lcone.scone import cone_facets, contains_pd

        for d in (2, 3):
            db = classify_all(d)
            for rec in db.records():
                k = rec.cone.dim
                for facet in cone_facets(rec.cone):
                    if not contains_pd(facet):
                        continue
                    lower = db.by_dim.get(k - 1, [])
                    assert any(cone_equivalent(facet, other.cone) is not None
                               for other in lower)

    def test_seed_independence(self):
        # classifying from a different generic seed yields the same classes
        def class_data(db):
            return sorted((r.cone.dim, r.cert_hash, r.stab_order, r.dv_hash,
                           r.subordination, r.det, r.can_size, r.ranks)
                          for r in db.records())

        base = classify_all(3)
        # a unimodular image of the principal form, and an unrelated generic
        # form found by perturbing the fcc seed
        seeds = [
            SymMat([[3, 1, -1], [1, 3, 1], [-1, 1, 3]]),
            SymMat([[2, 0, 1], [0, 3, 1], [1, 1, 4]]),
        ]
        for seed in seeds:
            other = classify_all(3, seed=seed)
            assert class_data(other) == class_data(base)

    def test_no_duplicates_exhaustive(self):
        from lcone.equiv import cone_equivalent

        for d in (2, 3):
            db = classify_all(d)
            recs = list(db.records())
            for i in range(len(recs)):
                for j in range(i + 1, len(recs)):
                    if recs[i].invariant_key() != recs[j].invariant_key():
                        continue
                    assert cone_equivalent(recs[i].cone, recs[j].cone) is None


class TestPersistence:
    def test_write_load_roundtrip(self, tmp_path):
        out = str(tmp_path / "db2")
        db = run_classification(2, out)
        db2 = load_db(out)
        assert db2.complete
        assert dimension_table(db2) == dimension_table(db)
        for k in db.by_dim:
            a = [r.to_dict() for r in db.by_dim[k]]
            b = [r.to_dict() for r in db2.by_dim[k]]
            assert a == b
        manifest = json.loads((tmp_path / "db2" / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["d"] == 2
        assert manifest["mass"] == "1/24"
        assert not (tmp_path / "db2" / "frontier.jsonl").exists()

    def test_write_is_atomic_and_counted(self, tmp_path):
        out = tmp_path / "db3"
        db = run_classification(3, str(out))
        names = sorted(os.listdir(out))
        assert not [n for n in names if n.endswith(".tmp")]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"] == {str(k): len(v) for k, v in db.by_dim.items()}
        # Writing the loaded database again gives the same bytes.
        extras = {k: v for k, v in manifest.items()
                  if k not in ("d", "version", "status", "counts", "total")}
        again = tmp_path / "again"
        write_db(load_db(str(out)), str(again), extras)
        assert sorted(os.listdir(again)) == names
        for name in names:
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_missing_record_is_refused(self, tmp_path):
        out = tmp_path / "db3"
        run_classification(3, str(out))
        name = next(n for n in sorted(os.listdir(out))
                    if n.startswith("dim_") and len((out / n).read_text().splitlines()) > 1)
        lines = (out / name).read_text().splitlines(keepends=True)
        (out / name).write_text("".join(lines[1:]))
        with pytest.raises(IncompleteDatabase, match="do not match the manifest"):
            load_db(str(out))

    def test_resume_after_abort_is_byte_identical(self, tmp_path):
        ref = str(tmp_path / "ref")
        run_classification(3, ref)

        out = str(tmp_path / "resumed")
        with pytest.raises(KeyboardInterrupt):
            run_classification(3, out, abort_after=4)
        assert os.path.exists(os.path.join(out, "frontier.jsonl"))
        run_classification(3, out, resume=True)

        for name in sorted(os.listdir(ref)):
            if name.startswith("dim_") or name == "manifest.json":
                a = open(os.path.join(ref, name), "rb").read()
                b = open(os.path.join(out, name), "rb").read()
                assert a == b, f"{name} differs after resume"

    def test_resume_after_torn_tail_is_byte_identical(self, tmp_path):
        ref = str(tmp_path / "ref")
        run_classification(3, ref)

        out = str(tmp_path / "torn")
        with pytest.raises(KeyboardInterrupt):
            run_classification(3, out, abort_after=4)
        frontier = os.path.join(out, "frontier.jsonl")
        with open(frontier, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        # a kill in the middle of the last write leaves half a line
        with open(frontier, "wb") as fh:
            fh.write(b"".join(lines[:-1]) + lines[-1][:len(lines[-1]) // 2])
        run_classification(3, out, resume=True)

        for name in sorted(os.listdir(ref)):
            if name.startswith("dim_") or name == "manifest.json":
                a = open(os.path.join(ref, name), "rb").read()
                b = open(os.path.join(out, name), "rb").read()
                assert a == b, f"{name} differs after resume"

    def test_torn_tail_is_cut_before_append(self, tmp_path):
        path = str(tmp_path / "frontier.jsonl")
        cache = DiskCache(path)
        cache.put("a", {"x": 1})
        cache.close()
        with open(path, "a") as fh:
            fh.write('{"key":"b","out":{"x":2}}')
        cache = DiskCache(path)
        cache.put("c", {"x": 3})
        cache.close()
        cache = DiskCache(path)
        assert [cache.get(key) for key in "abc"] == [{"x": 1}, None, {"x": 3}]
        assert cache.pending == {}

    def test_cache_entry_is_handed_out_once(self, tmp_path):
        path = str(tmp_path / "frontier.jsonl")
        cache = DiskCache(path)
        cache.put("a", {"x": [1, 2]})
        cache.put("b", {"x": 3})
        assert cache.pending == {} and cache.get("a") is None
        cache.close()
        cache = DiskCache(path)
        assert sorted(cache.pending) == ["a", "b"]
        assert all(isinstance(line, bytes) for line in cache.pending.values())
        assert cache.get("a") == {"x": [1, 2]}
        assert cache.get("a") is None and sorted(cache.pending) == ["b"]
        cache.close()
        memory = DiskCache(None)
        memory.put("a", {"x": 1})
        assert memory.get("a") is None and memory.pending == {}

    def test_resume_replays_every_entry_once(self, tmp_path, clean_d3, monkeypatch):
        # Each task key is asked for at most once per run, and a resumed run
        # replays every entry of its checkpoint.
        out = str(tmp_path / "db")
        with pytest.raises(KeyboardInterrupt):
            run_classification(3, out, abort_after=D3_TASKS - 2)
        asked, left = [], []
        get, close = DiskCache.get, DiskCache.close
        monkeypatch.setattr(DiskCache, "get",
                            lambda cache, key: asked.append(key) or get(cache, key))
        monkeypatch.setattr(DiskCache, "close",
                            lambda cache: left.append(dict(cache.pending)) or close(cache))
        run_classification(3, out, resume=True)
        assert len(asked) == len(set(asked)) == D3_TASKS
        assert left == [{}]
        assert _db_bytes(out) == clean_d3

    def test_corrupt_middle_line_is_incompatible(self, tmp_path):
        path = tmp_path / "frontier.jsonl"
        path.write_text('{"key":"a","out":{}}\n{broken\n{"key":"c","out":{}}\n')
        with pytest.raises(IncompatibleCheckpoint, match="line 2"):
            DiskCache(str(path))

    def test_resume_with_other_digest_is_incompatible(self, tmp_path):
        out = tmp_path / "db"
        with pytest.raises(KeyboardInterrupt):
            run_classification(3, str(out), digest="md5", abort_after=10)
        with pytest.raises(IncompatibleCheckpoint, match="digest md5 does not match sha256"):
            run_classification(3, str(out), resume=True)
        run_classification(3, str(out), digest="md5", resume=True)
        records = [json.loads(line) for name in os.listdir(out) if name.startswith("dim_")
                   for line in (out / name).read_text().splitlines()]
        lengths = {len(rec[key]) for rec in records for key in ("hash", "dv_hash")}
        assert lengths == {32}

    def test_resume_without_recorded_digest_is_incompatible(self, tmp_path):
        out = tmp_path / "db"
        with pytest.raises(KeyboardInterrupt):
            run_classification(2, str(out), abort_after=2)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest == {"d": 2, "digest": "sha256", "status": "running",
                            "version": manifest["version"]}
        del manifest["digest"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(IncompatibleCheckpoint, match="digest None"):
            run_classification(2, str(out), resume=True)

    def test_resume_from_older_version_is_incompatible(self, tmp_path):
        # Before 0.2.0 a face held the equalities threaded down the descent,
        # under the same cache key: replaying such a checkpoint would mix
        # the two formats in one database, so it is refused.
        out = tmp_path / "db"
        with pytest.raises(KeyboardInterrupt):
            run_classification(3, str(out), abort_after=4)
        manifest = json.loads((out / "manifest.json").read_text())
        (out / "manifest.json").write_text(json.dumps(dict(manifest, version="0.1.0")))
        with pytest.raises(IncompatibleCheckpoint, match="version does not match"):
            run_classification(3, str(out), resume=True)

    def test_resume_dimension_mismatch(self, tmp_path):
        out = str(tmp_path / "db")
        run_classification(2, out)
        with pytest.raises(IncompatibleCheckpoint):
            run_classification(3, out, resume=True)

    def test_unknown_digest_leaves_database_untouched(self, tmp_path):
        out = tmp_path / "db"
        run_classification(2, str(out))
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        for digest in ("nosuch", "shake_128"):
            for resume in (False, True):
                with pytest.raises(ValueError, match=f"unsupported hash algorithm '{digest}'"):
                    run_classification(2, str(out), digest=digest, resume=resume)
                assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    def test_worker_count_invariance(self, tmp_path, clean_d3):
        # d = 3 is the least dimension with maps of more than one task, so
        # the only one where the pool runs.
        out = str(tmp_path / "j2")
        run_classification(3, out, workers=2)
        assert _db_bytes(out) == clean_d3

    def test_map_keeps_cone_order(self, tmp_path, monkeypatch):
        # A pool that hands back its results last first, and one output
        # replayed among the computed ones.
        class Reversed:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, fn, items):
                return reversed([fn(item) for item in items])

        monkeypatch.setattr(lcone.classify, "_pool", lambda workers, tasks: Reversed())
        facets = [f for f in cone_facets(secondary_cone(seed_triangulation(3))) if contains_pd(f)]
        want = [expand_descent_cone({"cone": cone_to_dict(f)}) for f in facets]
        path = str(tmp_path / "frontier.jsonl")
        for part in (facets[1:2], facets):
            cache = DiskCache(path)
            outs = Classifier(3, workers=2, cache=cache)._map("desc", part)
            cache.close()
        assert len(facets) > 2 and outs == want and cache.pending == {}


D3_TASKS = 11   # prim, desc and enrich tasks of a d = 3 classification


def _db_bytes(out_dir):
    return {name: open(os.path.join(out_dir, name), "rb").read()
            for name in sorted(os.listdir(out_dir))
            if name.startswith("dim_") or name == "manifest.json"}


@pytest.fixture(scope="module")
def clean_d3(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("clean") / "d3")
    run_classification(3, out)
    return _db_bytes(out)


class TestFaultInjection:
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_kills_at_any_task_and_byte_resume_identically(self, clean_d3, data):
        # Up to two kills: the first run and then its resume stop at a drawn
        # task boundary, and each leaves a drawn proper prefix of its last
        # checkpoint line, as a kill during that write would.
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "db")
            frontier = os.path.join(out, "frontier.jsonl")
            for kill in range(2):
                abort = data.draw(st.integers(1, D3_TASKS), label="abort")
                try:
                    run_classification(3, out, resume=kill > 0, abort_after=abort)
                    break
                except KeyboardInterrupt:
                    pass
                with open(frontier, "rb") as fh:
                    lines = fh.read().splitlines(keepends=True)
                assert kill > 0 or len(lines) == abort
                cut = data.draw(st.integers(0, len(lines[-1]) - 1), label="cut")
                with open(frontier, "wb") as fh:
                    fh.write(b"".join(lines[:-1]) + lines[-1][:cut])
            else:
                run_classification(3, out, resume=True)
            assert _db_bytes(out) == clean_d3


def test_old_prim_entry_is_not_replayed(tmp_path, clean_d3, monkeypatch):
    # Before `prim` outputs held class keys, their cache keys were
    # "prim:<sha256 of the cone>".  Such an entry, here for the seed cone and
    # holding its facets as if they were its neighbours, is the whole
    # checkpoint of an unfinished run.
    out = tmp_path / "db"
    with pytest.raises(KeyboardInterrupt):
        run_classification(3, str(out), abort_after=1)
    seed = secondary_cone(seed_triangulation(3))
    blob = json.dumps(cone_to_dict(seed), sort_keys=True, separators=(",", ":"))
    old = {"key": "prim:" + hashlib.sha256(blob.encode()).hexdigest(),
           "out": {"cones": [cone_to_dict(f) for f in cone_facets(seed)]}}
    (out / "frontier.jsonl").write_text(json.dumps(old) + "\n")
    hits = []
    get = DiskCache.get

    def recording(cache, key):
        entry = get(cache, key)
        if entry is not None:
            hits.append(key)
        return entry

    monkeypatch.setattr(DiskCache, "get", recording)
    run_classification(3, str(out), resume=True)
    assert hits == []
    assert _db_bytes(str(out)) == clean_d3


def _record_merges(monkeypatch) -> list:
    """Every merge `merge_candidates` makes from now on, as (the class
    table before it, its candidates, digest, the cones it accepted)."""
    merges = []
    merge = lcone.classify.merge_candidates

    def recording(classes, candidates, digest="sha256"):
        before = dict(classes)
        accepted = merge(classes, candidates, digest)
        merges.append((before, list(candidates), digest, list(accepted)))
        return accepted

    monkeypatch.setattr(lcone.classify, "merge_candidates", recording)
    return merges


@pytest.mark.parametrize("d", [3, 4])
def test_merge_matches_bucket_oracle(d, monkeypatch):
    # Every merge of the classification: the same cones, in the same order,
    # with the same canonical hull equalities of their rays, as the merge
    # through invariant buckets and the merge by canonical forms that
    # labels through the shared cache.
    merges = _record_merges(monkeypatch)
    classify_all(d)
    assert len(merges) > 2
    for before, candidates, digest, accepted in merges:
        existing = [cone for cone, _ in before.values()]
        for oracle in (merge_by_buckets, merge_by_forms):
            want = oracle(existing, candidates, digest)
            assert [cone_to_dict(c) for c in accepted] == [cone_to_dict(c) for c in want]


@pytest.mark.parametrize("d, repeats", [(3, 0), (4, 35)])
def test_merge_does_not_depend_on_candidate_order(d, repeats, monkeypatch):
    # Every merge of the classification, over its candidates reversed: the
    # same cones.  A ray set reached from several parents (`repeats` times
    # beyond the first, over all merges) is one and the same cone, so
    # whichever repeat comes first is the record.
    merge = lcone.classify.merge_candidates
    merges = _record_merges(monkeypatch)
    classify_all(d)
    seen = 0
    for before, candidates, digest, accepted in merges:
        assert merge(dict(before), candidates[::-1], digest) == accepted
        seen += len(candidates) - len({c.key() for c in candidates})
    assert seen == repeats


@pytest.mark.parametrize("d, repeats", [(3, 0), (4, 35)])
def test_repeated_ray_sets_make_no_witness_check(d, repeats, monkeypatch):
    # A merge drops repeated ray sets before it labels anything, so it
    # checks a witness only for a distinct ray set whose class is taken.
    checks = []
    equivalent = lcone.classify.cone_equivalent
    monkeypatch.setattr(lcone.classify, "cone_equivalent",
                        lambda *args: checks.append(args) or equivalent(*args))
    merge = lcone.classify.merge_candidates
    counts = []

    def counting(classes, candidates, digest="sha256"):
        before = len(checks)
        accepted = merge(classes, candidates, digest)
        distinct = len({c.key() for c in candidates})
        counts.append((len(checks) - before, distinct - len(accepted), len(candidates) - distinct))
        return accepted

    monkeypatch.setattr(lcone.classify, "merge_candidates", counting)
    classify_all(d)
    assert all(made == taken for made, taken, _ in counts)
    assert sum(made for made, _, _ in counts) > 0
    assert sum(seen for _, _, seen in counts) == repeats


def test_descent_decodes_each_distinct_ray_set_once(monkeypatch):
    # The descent decodes the first cone of each distinct ray set among a
    # level's `desc` outputs and hands a repeat to the merge as that cone:
    # 35 of the d = 4 outputs repeat a ray set.
    levels = []
    mapper = Classifier._map

    def mapping(self, kind, cones):
        outs = mapper(self, kind, cones)
        if kind == "desc":
            levels.append([c for out in outs for c in out["cones"]])
        return outs

    decode = lcone.classify.cone_from_dict
    calls = []      # keeps every decoded dict alive, so no id is reused
    monkeypatch.setattr(Classifier, "_map", mapping)
    monkeypatch.setattr(lcone.classify, "cone_from_dict",
                        lambda data: calls.append(data) or decode(data))
    db = classify_all(4)
    outputs = {id(c) for level in levels for c in level}
    distinct = sum(len({json.dumps(c["rays"]) for c in level}) for level in levels)
    assert sum(id(data) in outputs for data in calls) == distinct
    assert sum(map(len, levels)) - distinct == 35
    assert db.total() == 52


def test_merge_labels_each_distinct_form_once(monkeypatch):
    # The largest d = 4 descent merge, with `_form_canonical` cached in
    # fewer entries than there are candidates: one labeling per distinct
    # central form, however small the cache.  The merge through the shared
    # cache labels more.
    merge = lcone.classify.merge_candidates
    merges = _record_merges(monkeypatch)
    classify_all(4)
    before, candidates, digest, accepted = max(merges[1:], key=lambda m: (m[0] == {}, len(m[1])))
    assert before == {} and len(candidates) > 8
    forms = {c.central for c in candidates}
    assert len({c.key() for c in candidates}) < len(candidates) and len(forms) < len(candidates)
    labeling = lcone.equiv.canonical_labeling
    calls = []
    monkeypatch.setattr(lcone.equiv, "canonical_labeling",
                        lambda graph: calls.append(graph) or labeling(graph))
    small = functools.lru_cache(maxsize=8)(lcone.equiv._form_canonical.__wrapped__)
    for module in (lcone.equiv, lcone.classify):
        monkeypatch.setattr(module, "_form_canonical", small)
    lcone.classify._candidate_key.cache_clear()
    assert merge({}, candidates, digest) == accepted
    assert len(calls) == len(forms)
    calls.clear()
    small.cache_clear()
    assert merge_by_forms([], candidates, digest) == accepted
    assert len(calls) > len(forms)


def test_equal_forms_without_witness_raise_under_optimize():
    # `assert False` passes only if -O stripped asserts.  The seed cone
    # given twice is one candidate, and a class is not accepted twice.  Its
    # image under a shear has other rays and the same canonical form; with
    # no witness the merge must raise, against a candidate or a class.
    script = (
        "import lcone.classify as clf\n"
        "from lcone.exact import Mat\n"
        "from lcone.scone import secondary_cone\n"
        "assert False, 'asserts are on'\n"
        "cone = secondary_cone(clf.seed_triangulation(3))\n"
        "table = {}\n"
        "print(len(clf.merge_candidates({}, [cone, cone])),\n"
        "      len(clf.merge_candidates(table, [cone])), len(clf.merge_candidates(table, [cone])))\n"
        "clf.cone_equivalent = lambda *args: None\n"
        "shear = Mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])\n"
        "other = secondary_cone(clf.seed_triangulation(3, clf.principal_form(3).congruence(shear)))\n"
        "for existing, candidates in (({}, [cone, other]), (table, [other])):\n"
        "    try:\n"
        "        clf.merge_candidates(existing, candidates)\n"
        "    except AssertionError as exc:\n"
        "        print('raised:', exc)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    raised = "raised: equal canonical forms without a witness"
    assert proc.stdout.splitlines() == ["1 1 0", raised, raised]


def test_enrich_cone_builds_one_face_lattice(monkeypatch):
    # One pass builds the face lattice and counts the subordination scheme.
    import lcone.polyhedral
    from lcone.classify import enrich_cone
    from lcone.polyhedral import _face_levels, dv_polytope, face_lattice, \
        serialize_subordination, subordination_scheme
    from lcone.scone import secondary_cone

    star = seed_triangulation(3)
    cone = secondary_cone(star)
    poly = dv_polytope(cone.central)
    calls = []

    def counting(p):
        calls.append(p)
        return _face_levels(p)

    for module in (lcone.polyhedral, lcone.classify):
        monkeypatch.setattr(module, "_face_levels", counting)
    rec = enrich_cone(cone, star.keys, cone.central)
    assert calls == [poly]
    assert rec.f_vector == face_lattice(poly)[1]
    assert rec.subordination == serialize_subordination(subordination_scheme(poly))


def test_d4_run_builds_one_star(tmp_path, monkeypatch):
    # The seed triangulation is the only Delaunay star of a d = 4 run: the
    # primitive phase carries the class keys, and the enrichment reads each
    # DV polytope off `polyhedral._dv_cell`.
    import lcone.delaunay

    calls = []
    for module in (lcone.delaunay, lcone.classify):
        star_of = getattr(module, "delaunay_star")
        monkeypatch.setattr(module, "delaunay_star",
                            lambda q, star_of=star_of: calls.append(q) or star_of(q))
    db = run_classification(4, str(tmp_path / "db4"))
    assert db.total() == 52
    assert len(calls) == 1


def test_d4_enrichment_runs_no_lattice_search(monkeypatch):
    # Every DV polytope of the enrichment of a d = 4 run is read off the
    # triangulation of the class's primitive ancestor: no DV cell, closest
    # vector search, coset minima or double description.
    import lcone.delaunay
    import lcone.lattice
    import lcone.polyhedral
    import lcone.scone

    calls, enriching = [], []
    for module, name in [(lcone.polyhedral, "_dv_cell"), (lcone.delaunay, "_dv_cell"),
                         (lcone.lattice, "_closest"), (lcone.polyhedral, "_closest"),
                         (lcone.lattice, "_coset_minima"), (lcone.polyhedral, "_coset_minima"),
                         (lcone.polyhedral, "_dd_cone"), (lcone.scone, "_dd_cone"),
                         (lcone.classify, "dv_polytope_by_coarsening")]:
        def counted(*args, _real=getattr(module, name), _name=name):
            if enriching:
                calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    enrich = Classifier.enrich

    def flagged(self, cones):
        enriching.append(True)
        try:
            return enrich(self, cones)
        finally:
            enriching.pop()

    monkeypatch.setattr(Classifier, "enrich", flagged)
    db = Classifier(4).classify()
    assert db.total() == 52
    assert calls == ["dv_polytope_by_coarsening"] * 52


D4_TASKS = 106   # 3 prim, 51 desc and 52 enrich tasks of a d = 4 classification


def test_resume_inside_the_enrichment_carries_the_ancestor(tmp_path, monkeypatch):
    # A d = 4 run killed after 20 of its 52 enrich tasks resumes to the
    # pinned bytes.  The resume rebuilds the ancestor map from the replayed
    # prim and desc outputs, and each enrich task it runs is handed the
    # class keys and central form of a primitive class.
    from test_acceptance import DATABASE_SHA256, _database_sha256

    out = str(tmp_path / "db4")
    with pytest.raises(KeyboardInterrupt):
        run_classification(4, out, abort_after=D4_TASKS - 52 + 20)
    payloads = []
    task = lcone.classify._TASKS["enrich"]
    monkeypatch.setitem(lcone.classify._TASKS, "enrich",
                        lambda payload: payloads.append(payload) or task(payload))
    db = run_classification(4, out, resume=True)
    assert _database_sha256(out) == DATABASE_SHA256[4]
    primitive = {rec.cone.central.lower(): rec for rec in db.by_dim[10]}
    assert len(payloads) == 32
    for payload in payloads:
        assert tuple(payload["anchor"]) in primitive
        assert payload["keys"] and all(len(key) == 5 for key in payload["keys"])


def test_enrich_cone_ranks_each_ray_once(monkeypatch):
    from lcone.classify import _candidate_key, enrich_cone
    from lcone.scone import _ray_rank, secondary_cone

    star = seed_triangulation(3)
    cone = secondary_cone(star)
    want = enrich_cone(cone, star.keys, cone.central).to_dict()
    _ray_rank.cache_clear()
    _candidate_key.cache_clear()
    calls = []
    rank = SymMat.rank
    monkeypatch.setattr(SymMat, "rank", lambda self: calls.append(self) or rank(self))
    assert enrich_cone(cone, star.keys, cone.central).to_dict() == want
    assert sorted(calls, key=SymMat.lower) == sorted(cone.rays, key=SymMat.lower)


class _CountingCache(DiskCache):
    """A DiskCache that records the task kind of every hit and every put."""

    def __init__(self, path):
        super().__init__(path)
        self.hits, self.puts = [], []

    def get(self, key):
        out = super().get(key)
        if out is not None:
            self.hits.append(key.split(":")[0])
        return out

    def put(self, key, out):
        self.puts.append(key.split(":")[0])
        super().put(key, out)


def test_enrich_cache_key_names_the_digest(tmp_path):
    path = str(tmp_path / "frontier.jsonl")
    runs = {}
    for digest in ("md5", "sha256", "md5"):
        cache = _CountingCache(path)
        db = Classifier(3, digest=digest, cache=cache).classify()
        cache.close()
        runs.setdefault(digest, []).append((cache, db))
    (md5, _), (again, _) = runs["md5"]
    (sha, db), = runs["sha256"]
    n = db.total()
    assert len(md5.puts) == D3_TASKS and md5.hits == []
    assert sha.puts == ["enrich/sha256"] * n
    assert sorted(set(sha.hits)) == ["desc", "prim/keys"] and len(sha.hits) == D3_TASKS - n
    assert again.puts == [] and len(again.hits) == D3_TASKS
    assert [r.to_dict() for r in db.records()] == \
        [r.to_dict() for r in classify_all(3).records()]


def test_form_labelings_do_not_depend_on_digest(monkeypatch):
    # The canonical data of a form is cached by the form alone, so a run
    # under another digest labels each form as often as under sha256.
    from lcone.classify import _candidate_key
    from lcone.equiv import _form_canonical

    labeling = lcone.equiv.canonical_labeling
    calls = []
    monkeypatch.setattr(lcone.equiv, "canonical_labeling",
                        lambda graph: calls.append(graph) or labeling(graph))
    counts = {}
    for digest in ("sha256", "md5"):
        _form_canonical.cache_clear()
        _candidate_key.cache_clear()
        calls.clear()
        classify_all(3, digest=digest)
        counts[digest] = len(calls)
    assert counts["md5"] == counts["sha256"] > 0


def faces_within_by_loop(cone, allowed, facet_masks):
    """The reference for `_faces_within`: its own intersection-closure loop,
    from before it shared `face_lattice`'s."""
    full = (1 << len(cone.rays)) - 1
    base = sorted(set(fm & allowed for fm in facet_masks))
    cands = set(base)
    frontier = set(base)
    while frontier:
        new = set()
        for f in frontier:
            for g in base:
                h = f & g
                if h not in cands:
                    new.add(h)
        cands |= new
        frontier = new
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


@pytest.mark.parametrize("d", [3, 4])
def test_faces_within_matches_loop(d):
    # Every cone of the database, with the mask of its rays of rank > 1
    # (what `contraction_refine` passes), all rays and seeded random masks.
    rng = random.Random(d)
    for rec in classify_all(d).records():
        cone = rec.cone
        facet_masks = tight_masks_by_pairs(cone)
        n = len(cone.rays)
        high = sum(1 << i for i, r in enumerate(cone.rays) if _ray_rank(r) > 1)
        for allowed in [high, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(4)]:
            assert _faces_within(cone, allowed, facet_masks) == \
                faces_within_by_loop(cone, allowed, facet_masks)


# ---------------------------------------------------------------------------
# One candidate per stabilizer orbit


def _json(out) -> str:
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def _least_per_orbit(payload: dict, oracle_out: dict) -> dict:
    """The outputs of an all-facet oracle on a cone, one per PD facet in
    `cone_facets` order, cut to one per orbit of facets (by the images of
    the facets' rays): the least ray set of each, in the orbits' order."""
    cone = cone_from_dict(payload["cone"])
    pd = [j for j, f in enumerate(cone_facets(cone)) if contains_pd(f)]
    by_facet = dict(zip(pd, oracle_out["cones"]))
    assert len(by_facet) == len(oracle_out["cones"])
    want = []
    for orbit in facet_orbits_by_rays(cone):
        members = [by_facet[j] for j in orbit if j in by_facet]
        assert len(members) in (0, len(orbit))
        if members:
            want.append(min(members, key=lambda c: c.get("cone", c)["rays"]))
    return {"cones": want}


class _CountingCrossings:
    """`neighbor_triangulation` as `expand_primitive_cone` calls it, counted."""

    def __init__(self, monkeypatch):
        self.calls = 0
        cross = lcone.classify.neighbor_triangulation

        def counting(*args):
            self.calls += 1
            return cross(*args)

        monkeypatch.setattr(lcone.classify, "neighbor_triangulation", counting)


@pytest.mark.parametrize("d, crossings", [(3, 1), (4, 6)])
def test_prim_outputs_match_crossing_oracle(d, crossings, monkeypatch):
    # Every `prim` task of the primitive run, and the wall crossings it
    # made: one per stabilizer orbit of PD walls (6 walls in 1 orbit at
    # d = 3, 30 in 6 at d = 4).  Each task returns, per orbit, the
    # crossing oracle's neighbour with the least ray set.
    tasks = []
    expand = lcone.classify.expand_primitive_cone

    def recording(payload):
        out = expand(payload)
        tasks.append((payload, out))
        return out

    monkeypatch.setitem(lcone.classify._TASKS, "prim", recording)
    counter = _CountingCrossings(monkeypatch)
    Classifier(d).primitive_cones()
    assert counter.calls == crossings
    assert len(tasks) == {3: 1, 4: 3}[d]
    for payload, out in tasks:
        assert _json(out) == _json(_least_per_orbit(payload, expand_primitive_cone_by_crossing(payload)))
    assert sum(len(out["cones"]) for _, out in tasks) == crossings


def test_d5_prim_outputs_match_crossing_oracle(monkeypatch):
    # The d = 5 seed cone (15 PD walls in one orbit, stabilizer 1440) and
    # the one neighbour it returns.
    star = seed_triangulation(5)
    seed = {"cone": cone_to_dict(secondary_cone(star)), "keys": star.keys}
    counter = _CountingCrossings(monkeypatch)
    out = expand_primitive_cone(seed)
    assert counter.calls == 1 and len(out["cones"]) == 1
    assert _json(out) == _json(_least_per_orbit(seed, expand_primitive_cone_by_crossing(seed)))
    first = out["cones"][0]
    assert _json(expand_primitive_cone(first)) == \
        _json(_least_per_orbit(first, expand_primitive_cone_by_crossing(first)))


@pytest.mark.parametrize("d, walls", [(3, 6), (4, 10), (5, 15)])
def test_pd_facet_orbits_map_representatives(d, walls):
    # `_facet_orbits` partitions the facets as the images of their rays do.  The
    # seed cone's PD walls form one orbit; each member's map fixes the
    # central form and sends the first member's rays onto its own.
    cone = secondary_cone(seed_triangulation(d))
    facets = cone_facets(cone)
    (_, _, masks), orbits = _facet_orbits(cone)
    assert masks == tight_masks_by_pairs(cone)
    assert [sorted(j for j, _ in orbit) for orbit in orbits] == facet_orbits_by_rays(cone)
    pd = [j for j, f in enumerate(facets) if contains_pd(f)]
    assert len(pd) == walls
    assert [sorted(j for j, _ in orbit) for orbit in orbits if orbit[0][0] in pd] == [pd]
    for orbit in orbits:
        i, one = orbit[0]
        assert one == Mat.identity(d) and i == min(j for j, _ in orbit)
        for j, u in orbit:
            assert cone.central.congruence(u) == cone.central
            assert {r.congruence(u).lower() for r in facets[i].rays} == \
                {r.lower() for r in facets[j].rays}


@pytest.mark.parametrize("d", [3, 4])
def test_tasks_match_all_facet_oracles(d, monkeypatch):
    # Every `prim` and `desc` task of the classification returns one cone
    # per PD orbit of its cone's facets, the oracle's least ray set of that
    # orbit; a `desc` task builds one face per PD orbit and a `prim` task none;
    # and every merge accepts the same cones from the oracles' outputs.
    merge = lcone.classify.merge_candidates
    merges = _record_merges(monkeypatch)
    faces = []
    face = lcone.classify._face
    monkeypatch.setattr(lcone.classify, "_face", lambda *args: faces.append(args) or face(*args))
    tasks = []

    def recording(kind, run):
        def task(payload):
            built = len(faces)
            out = run(payload)
            tasks.append((kind, payload, out, len(faces) - built))
            return out
        return task

    for kind in ("prim", "desc"):
        monkeypatch.setitem(lcone.classify._TASKS, kind, recording(kind, lcone.classify._TASKS[kind]))
    maps = []
    mapper = Classifier._map

    def mapping(self, kind, cones):
        first = len(tasks)
        outs = mapper(self, kind, cones)
        if kind != "enrich":
            maps.append(tasks[first:])
        return outs

    monkeypatch.setattr(Classifier, "_map", mapping)
    classify_all(d)
    oracles = {"prim": expand_primitive_cone_by_crossing, "desc": expand_descent_cone_all_facets}
    for kind, payload, out, built in tasks:
        want = oracles[kind](payload)
        assert _json(out) == _json(_least_per_orbit(payload, want))
        orbits = facet_orbits_by_rays(cone_from_dict(payload["cone"]))
        assert built == (len(out["cones"]) if kind == "desc" else 0) <= len(orbits)
    assert len(merges) == len(maps) + 1
    for (before, candidates, digest, accepted), group in zip(merges[1:], maps):
        assert len(candidates) == sum(len(out["cones"]) for _, _, out, _ in group)
        full = [cone_from_dict(c.get("cone", c)) for kind, payload, _, _ in group
                for c in oracles[kind](payload)["cones"]]
        assert len(full) >= len(candidates)
        assert [cone_to_dict(c) for c in merge(dict(before), full, digest)] == \
            [cone_to_dict(c) for c in accepted]


@pytest.mark.parametrize("d, faces", [(3, 5), (4, 125)])
def test_run_builds_faces_of_pd_orbits_only(d, faces, monkeypatch):
    # The descent builds one face per PD orbit, the `desc` candidates, and
    # none for the orbits whose central form is not PD (16 at d = 4).
    calls = []
    face = lcone.classify._face
    monkeypatch.setattr(lcone.classify, "_face", lambda *args: calls.append(args) or face(*args))
    classify_all(d)
    assert len(calls) == faces


def test_desc_faces_match_symmat_oracle(monkeypatch):
    # Every face the `desc` tasks of a d = 4 run build is read off its
    # parent's `_incidences`, which are the parent's inequalities as
    # functionals, its rays' `lower()` and their tight masks; it holds the
    # central form its orbit was tested on, not a second sum of its rays;
    # and it equals the face built with the inequalities held as symmetric
    # matrices.
    built = []
    face = lcone.classify._face
    monkeypatch.setattr(lcone.classify, "_face",
                        lambda *args: built.append((args, face(*args))) or built[-1][1])
    classify_all(4)
    assert len(built) == 125
    for (cone, ineqs, vecs, masks, t, central), got in built:
        assert ineqs == [sym_to_functional(n) for n in cone.inequalities]
        assert vecs == [r.lower() for r in cone.rays]
        assert masks == tight_masks_by_pairs(cone)
        assert got.central is central
        assert_same_cone(got, face_by_symmats(cone, masks, t))


@pytest.mark.parametrize("d, labelings", [(3, 12), (4, 148)])
def test_run_labelings(d, labelings, monkeypatch):
    # One labeling per distinct central form a merge sees and one DV
    # labeling per class (5 at d = 3, 52 at d = 4), from cold caches.
    calls = []
    for module in (lcone.equiv, lcone.classify):
        labeling = module.canonical_labeling
        monkeypatch.setattr(module, "canonical_labeling",
                            lambda graph, labeling=labeling: calls.append(graph) or labeling(graph))
    lcone.equiv._form_canonical.cache_clear()
    lcone.classify._candidate_key.cache_clear()
    classify_all(d)
    assert len(calls) == labelings


def test_all_facet_checkpoint_resumes_identically(tmp_path, clean_d3, monkeypatch):
    # A checkpoint whose `prim` and `desc` entries hold every PD neighbour
    # and every PD facet, as the all-facet oracles write them: the resume
    # replays all 6 and merges more candidates into the same records.
    out = tmp_path / "db"
    with monkeypatch.context() as patch:
        patch.setitem(lcone.classify._TASKS, "prim", expand_primitive_cone_by_crossing)
        patch.setitem(lcone.classify._TASKS, "desc", expand_descent_cone_all_facets)
        with pytest.raises(KeyboardInterrupt):
            run_classification(3, str(out), abort_after=D3_TASKS - 5)
    entries = [json.loads(line) for line in (out / "frontier.jsonl").read_text().splitlines()]
    assert [len(e["out"]["cones"]) for e in entries if e["key"].startswith("prim")] == [6]
    hits = []
    get = DiskCache.get

    def recording(cache, key):
        entry = get(cache, key)
        if entry is not None:
            hits.append(key)
        return entry

    monkeypatch.setattr(DiskCache, "get", recording)
    run_classification(3, str(out), resume=True)
    assert len(hits) == D3_TASKS - 5
    assert _db_bytes(str(out)) == clean_d3


def test_facet_orbits_raise_under_optimize():
    # `assert False` passes only if -O stripped asserts.  A shear does not
    # fix the seed's central form, so it cannot permute the cone's rays.
    script = (
        "import lcone.classify as clf\n"
        "from lcone.equiv import UnimodularMap\n"
        "from lcone.exact import Mat\n"
        "from lcone.scone import secondary_cone\n"
        "assert False, 'asserts are on'\n"
        "cone = secondary_cone(clf.seed_triangulation(3))\n"
        "print(len(clf._facet_orbits(cone)[1]))\n"
        "shear = Mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])\n"
        "clf.automorphism_group = lambda q: ([UnimodularMap(shear)], 1)\n"
        "try:\n"
        "    clf._facet_orbits(cone)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1", "raised: a stabilizer map does not permute the rays"]
