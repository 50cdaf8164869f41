import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import lcone.classify
import lcone.delaunay
import lcone.polyhedral
import lcone.scone
from lcone.classify import Classifier, principal_form, seed_triangulation
from lcone.delaunay import (
    DelaunayStar,
    NotATriangulation,
    _normalized,
    delaunay_star,
    neighbor_triangulation,
)
from lcone.exact import AffinelyDependent, Rat, SymMat, ZeroInput, _norm, rank_of_rows
from lcone.scone import (
    ConeDesc,
    EmptyRaySet,
    NonPSDRay,
    central_form,
    cone_facets,
    cone_from_dict,
    cone_from_rays,
    cone_to_dict,
    contains_pd,
    fundamental_face,
    rank_profile,
    secondary_cone,
    star_wall_forms,
    functional_to_sym,
    sym_dim,
    sym_to_functional,
)
from oracles import (
    accumulated_equalities,
    cone_facets_by_rays,
    face_by_symmats,
    fundamental_face_by_rays,
    pair_regulators,
    regulator_by_echelon,
    regulator_by_fractions,
    tight_masks_by_pairs,
)
from test_delaunay import _raised_under_optimize, _typed, crossings, star_by_cells

A2 = SymMat([[2, 1], [1, 2]])


def _regulators(points, w):
    """The per-pair oracle and the rational one, checked to agree."""
    reg = regulator_by_echelon(points, w)
    assert reg == regulator_by_fractions(points, w)
    return reg


class TestRegulator:
    def test_hexagonal_wall(self):
        reg = _regulators([(0, 0), (1, 0), (0, 1)], (1, 1))
        assert reg.matrix == SymMat([[0, 1], [1, 0]])
        star = delaunay_star(A2)
        assert star.pairs[((0, 0), (1, -1))] == (((0, 0), (0, 1), (1, 0)), (1, 1),
                                                 reg.matrix, (-1, 1, 1))

    def test_other_side(self):
        reg = _regulators([(0, 0), (1, 0), (0, 1)], (1, -1))
        assert reg.matrix == SymMat([[0, -1], [-1, 2]])

    def test_degenerate(self):
        reg = _regulators([(0, 0), (1, 0), (0, 1)], (1, 0))
        assert reg.is_degenerate

    @pytest.mark.parametrize("walk", [
        lambda: _walk(seed_triangulation(3), 3),
        lambda: _walk(seed_triangulation(4), 1),
        lambda: [seed_triangulation(5)],
    ], ids=["d3", "d4", "d5"])
    def test_matches_rational_oracle(self, walk):
        # Every adjacent pair of the stars: its wall is the rational
        # regulator's matrix, and its integer coordinates over their sum are
        # the alphas, value and type.  The same circuit with the first
        # vertex of the simplex as the extra point (degenerate or affinely
        # dependent when that vertex is off the circuit) runs the per-pair
        # oracle against the rational one.
        def outcome(fn, points, w):
            try:
                reg = fn(points, w)
            except AffinelyDependent as exc:
                return str(exc)
            return (reg, [type(x) for x in reg.matrix.lower() + reg.alphas])

        seen = Counter()
        for star in walk():
            for key, w, wall, coords in star.pairs.values():
                want = regulator_by_fractions(key, w)
                alphas = tuple(_norm(Rat(x, sum(coords))) for x in coords)
                assert _typed(wall.lower() + alphas) == _typed(want.matrix.lower() + want.alphas)
                points, extra = key[1:] + (w,), key[0]
                want = outcome(regulator_by_fractions, points, extra)
                assert outcome(regulator_by_echelon, points, extra) == want
                seen[type(want) is str or want[0].is_degenerate] += 1
        assert seen[False] > 0 and seen[True] > 0

    def test_gcd_normalized(self):
        reg = _regulators([(0, 0), (2, 0), (0, 2)], (2, 2))
        g = 0
        from math import gcd

        for x in reg.matrix.lower():
            g = gcd(g, x)
        assert g == 1


class TestSecondaryCone:
    def test_d1(self):
        star = delaunay_star(SymMat([[1]]))
        cone = secondary_cone(star)
        assert [r.lower() for r in cone.rays] == [(1,)]
        assert cone.central == SymMat([[1]])
        assert cone.dim == 1

    def test_a2(self):
        star = delaunay_star(A2)
        cone = secondary_cone(star)
        assert set(r.lower() for r in cone.rays) == {(1, 0, 0), (0, 0, 1), (1, 1, 1)}
        assert cone.central == A2
        assert len(cone.inequalities) == 3
        assert cone.dim == 3
        # inequalities are the three classical wall conditions, up to scaling
        vals = sorted(sym_to_functional(n) for n in cone.inequalities)
        assert vals == sorted([(0, 2, 0), (2, -2, 0), (0, -2, 2)])

    def test_rejects_coarse(self):
        star = delaunay_star(SymMat.identity(2))
        with pytest.raises(NotATriangulation):
            secondary_cone(star)

    def test_membership(self):
        # any strictly positive combination of rays has the same star classes
        star = delaunay_star(A2)
        cone = secondary_cone(star)
        rng = random.Random(4)
        for n in cone.inequalities:
            assert n.pair(A2) > 0
        for _ in range(20):
            q = SymMat.from_lower(2, [0, 0, 0])
            for r in cone.rays:
                q = q + r.scale(rng.randint(1, 9))
            star2 = delaunay_star(q)
            assert star2.keys == star.keys

    def test_facet_point_coarsens(self):
        # PD points on a facet have strictly coarser subdivisions refined by T
        star = delaunay_star(A2)
        cone = secondary_cone(star)
        for facet in cone_facets(cone):
            if not contains_pd(facet):
                continue
            coarse = delaunay_star(facet.central)
            assert len(coarse.cells) < len(star.cells)
            for cell in star.cells:
                assert any(set(cell.vertices) <= set(c2.vertices) for c2 in coarse.cells)


def facet_walls_by_rank(star, cone):
    """The reference for the facets `secondary_cone` keeps: the walls whose
    tight rays have rank m - 1, in the order of `star_wall_forms`."""
    m = sym_dim(star.dim)
    keep = []
    for n in star_wall_forms(star):
        on = [r.lower() for r in cone.rays if n.pair(r) == 0]
        if on and rank_of_rows(on) == m - 1:
            keep.append(n)
    return tuple(keep)


def _walk(star, crossings):
    """The stars of a walk that crosses the first positive definite wall of
    each cone in turn."""
    stars = [star]
    for _ in range(crossings):
        cone = secondary_cone(star)
        wall = next(f for f in cone_facets(cone) if contains_pd(f))
        star = neighbor_triangulation(star, wall.central, cone.central)
        stars.append(star)
    return stars


def _d3_crossings():
    """The stars on both sides of the first 40 crossings from the d = 3 seed."""
    return [nb for star, wallpoint, center in crossings(seed_triangulation(3), 40)
            for nb in (star, neighbor_triangulation(star, wallpoint, center))]


def pair_regulators_by_adjacency(keys, adjacency):
    """The reference for `pair_regulators`: walk a stored adjacency (per
    class, (facet, neighbour class, shift) as `star_by_cells` returns it)
    and take each pair from one side, skipping the other side's entry."""
    out = []
    done = set()
    for pos, (key, entries) in enumerate(zip(keys, adjacency)):
        if len(key) != len(key[0]) + 1:
            raise NotATriangulation("star contains a non-simplex cell")
        for facet, nclass, shift in entries:
            if (pos, facet) in done:
                continue
            done.add((nclass, tuple(tuple(x - s for x, s in zip(v, shift)) for v in facet)))
            on_facet = set(facet)
            extra = [w for w in (tuple(x + s for x, s in zip(v, shift)) for v in keys[nclass])
                     if w not in on_facet]
            if len(extra) != 1:
                raise NotATriangulation("adjacent cell is not a simplex")
            reg = regulator_by_echelon(key, extra[0])
            if not reg.is_degenerate:
                out.append((key, extra[0], reg.matrix))
    return out


def _circuits(pairs):
    """The pairs as a multiset of (normalized circuit, wall matrix)."""
    return Counter((_normalized(key + (w,)), wall.lower()) for key, w, wall, *_ in pairs)


class TestPairRegulators:
    def _check(self, star):
        _, keys, adjacency = star_by_cells(star.form)
        assert keys == star.keys
        assert _circuits(pair_regulators(keys)) == \
            _circuits(pair_regulators_by_adjacency(keys, adjacency))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_adjacency_oracle(self, d):
        self._check(delaunay_star(principal_form(d)))

    @pytest.mark.parametrize("walk", [
        lambda: _walk(seed_triangulation(3), 3),
        lambda: _walk(seed_triangulation(4), 3),
        _d3_crossings,
    ], ids=["d3-walk", "d4-walk", "d3-crossings"])
    def test_matches_adjacency_oracle_on_walks(self, walk):
        triangulations = {star.keys: star for star in walk()}
        for star in triangulations.values():
            self._check(star)

    def test_one_pair_per_facet_pair(self):
        # principal_form(4): 24 classes of 5 facets each, 60 facet pairs.
        keys = delaunay_star(principal_form(4)).keys
        assert len(keys) == 24 and len(pair_regulators(keys)) == 60

    def test_missing_class_raises(self):
        keys = delaunay_star(principal_form(3)).keys
        for i in range(len(keys)):
            with pytest.raises(AssertionError, match="lies in 1 cells"):
                pair_regulators(keys[:i] + keys[i + 1:])

    def test_non_simplex_raises(self):
        with pytest.raises(NotATriangulation):
            pair_regulators(delaunay_star(SymMat.identity(2)).keys)

    def test_unsorted_key_raises(self):
        # A facet is normalized by its first vertex, which needs sorted keys.
        keys = delaunay_star(principal_form(3)).keys
        with pytest.raises(ValueError, match="not sorted"):
            pair_regulators(keys[:1] + (tuple(reversed(keys[1])),) + keys[2:])


def _counting_echelons(monkeypatch):
    """Record, for every `echelon` that `lcone.delaunay._facet_pairs` runs,
    the pairs (class key, extra vertex) it solves: its rows are
    [V | w_1 ... w_m; 1 ... 1]."""
    calls, inside = [], []
    echelon, facet_pairs = lcone.delaunay.echelon, lcone.delaunay._facet_pairs

    def counting(rows):
        if inside:
            d = len(rows) - 1
            points = list(zip(*rows[:d]))
            calls.append([(tuple(points[:d + 1]), w) for w in points[d + 1:]])
        return echelon(rows)

    def flagged(*args):
        inside.append(True)
        try:
            return facet_pairs(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(lcone.delaunay, "echelon", counting)
    monkeypatch.setattr(lcone.delaunay, "_facet_pairs", flagged)
    return calls


class TestCarriedPairs:
    @pytest.mark.parametrize("walk", [
        lambda: _walk(seed_triangulation(4), 3),
        _d3_crossings,
        lambda: _walk(seed_triangulation(5), 1),
    ], ids=["d4-walk", "d3-crossings", "d5-crossing"])
    def test_match_pairs_from_scratch(self, walk):
        # All but the first star of each walk carry the pairs their flip gave them.
        for star in walk():
            assert _circuits(star.pairs.values()) == _circuits(pair_regulators(star.keys))
            for norm, (key, *_) in star.pairs.items():
                assert norm in {_normalized(key[:i] + key[i + 1:]) for i in range(len(key))}

    def test_crossing_computes_only_added_pairs(self, monkeypatch):
        # From scratch, the star's 60 pairs take one `echelon` per class
        # key, 24; a crossing solves only the keys of the pairs it adds.
        star = seed_triangulation(4)
        cone = secondary_cone(star)
        own = {(key, w) for key, w, _, _ in star.pairs.values()}
        assert len(own) == 60
        walls = [f for f in cone_facets(cone) if contains_pd(f)]
        assert len(walls) == 10
        calls = _counting_echelons(monkeypatch)
        for facet in walls:
            del calls[:]
            nb = neighbor_triangulation(star, facet.central, cone.central)
            crossing = len(calls)
            secondary_cone(nb)
            assert len(calls) == crossing, "secondary_cone recomputed carried pairs"
            computed = [pair for solved in calls for pair in solved]
            assert len({key for key, _ in computed}) == crossing, "a key was solved twice"
            assert 0 < crossing <= len(computed) <= 42
            assert own.isdisjoint(computed), "a crossing recomputed a pair of its star"
            copied = [p for p in nb.pairs.values() if (p[0], p[1]) in own]
            assert len(copied) + len(computed) == len(nb.pairs)
            bare = DelaunayStar(nb.form, nb.keys)
            assert nb == bare and hash(nb) == hash(bare) and repr(nb) == repr(bare)

    def test_copied_regulator_checks_survive_optimize(self):
        # `assert False` passes only if -O stripped asserts. A copied
        # regulator that is negative on the new form must still be caught:
        # by the flip's containment check, and by `star_wall_forms`.
        script = (
            "import lcone.delaunay as D\n"
            "import lcone.scone as sc\n"
            "from lcone.classify import seed_triangulation\n"
            "from lcone.delaunay import neighbor_triangulation\n"
            "assert False, 'asserts are on'\n"
            "def negated(entry):\n"
            "    key, w, wall, coords = entry\n"
            "    return key, w, wall.scale(-1), coords\n"
            "star = seed_triangulation(4)\n"
            "cone = sc.secondary_cone(star)\n"
            "wall = next(f for f in sc.cone_facets(cone) if sc.contains_pd(f))\n"
            "facet_pairs = D._facet_pairs\n"
            "def corrupting(keys, carried=None):\n"
            "    out = facet_pairs(keys, carried)\n"
            "    norm = next(n for n in out if carried and out[n] is carried.get(n))\n"
            "    out[norm] = negated(out[norm])\n"
            "    return out\n"
            "D._facet_pairs = corrupting\n"
            "try:\n"
            "    neighbor_triangulation(star, wall.central, cone.central)\n"
            "except AssertionError as exc:\n"
            "    print('flip raised:', exc)\n"
            "D._facet_pairs = facet_pairs\n"
            "nb = neighbor_triangulation(star, wall.central, cone.central)\n"
            "norm = next(n for n in nb.pairs if nb.pairs[n] is star.pairs.get(n))\n"
            "nb.pairs[norm] = negated(nb.pairs[norm])\n"
            "try:\n"
            "    sc.secondary_cone(nb)\n"
            "except AssertionError as exc:\n"
            "    print('cone raised:', exc)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "flip raised: the flipped cone does not contain the wallpoint",
            "cone raised: regulator is not positive on its own form"]


def _recording_prim(monkeypatch):
    """Record the (payload, output) of every `prim` task run in-process."""
    tasks = []
    original = lcone.classify._TASKS["prim"]

    def recording(payload):
        out = original(payload)
        tasks.append((payload, out))
        return out

    monkeypatch.setitem(lcone.classify._TASKS, "prim", recording)
    return tasks


class TestCarriedKeys:
    @pytest.mark.parametrize("d", [3, 4])
    def test_match_searched_keys(self, monkeypatch, d):
        # Each `prim` task's keys and those it returns for every neighbour
        # are the class keys of the Delaunay star of the cone's central form.
        tasks = _recording_prim(monkeypatch)
        Classifier(d).primitive_cones()
        assert len(tasks) == {3: 1, 4: 3}[d]
        for payload, out in tasks:
            for data, keys in [(payload["cone"], payload["keys"])] + \
                    [(nb["cone"], nb["keys"]) for nb in out["cones"]]:
                assert keys == delaunay_star(cone_from_dict(data).central).keys

    def test_match_searched_keys_d5(self):
        star = seed_triangulation(5)
        cone = secondary_cone(star)
        assert star.keys == delaunay_star(cone.central).keys
        walls = [f for f in cone_facets(cone) if contains_pd(f)]
        for facet in walls[:3]:
            nb = neighbor_triangulation(star, facet.central, cone.central)
            assert nb.keys == delaunay_star(secondary_cone(nb).central).keys

    def test_d4_primitive_phase_searches_once(self, monkeypatch):
        # The parent of this design searched 4 stars and solved 720
        # circumcenters (24 per crossing, 30 crossings).  Now only the seed
        # is searched, and a crossing solves the circumcenter of each class
        # it adds and builds no cell.  One wall is crossed per stabilizer
        # orbit, 6 of the 30 (282 circumcenters when all 30 were crossed).
        searches, solved, built, crossings = [], [], [], []
        star_of = lcone.classify.delaunay_star
        monkeypatch.setattr(lcone.classify, "delaunay_star",
                            lambda q: searches.append(q) or star_of(q))
        circumcenter = lcone.delaunay.circumcenter
        monkeypatch.setattr(lcone.delaunay, "circumcenter",
                            lambda q, points: solved.append(tuple(points)) or
                            circumcenter(q, points))
        cell = lcone.delaunay.Cell
        monkeypatch.setattr(lcone.delaunay, "Cell",
                            lambda *args: built.append(args) or cell(*args))
        cross = lcone.classify.neighbor_triangulation

        def counted(star, wallpoint, center):
            first_solved, first_built = len(solved), len(built)
            nb = cross(star, wallpoint, center)
            crossings.append((sorted(set(nb.keys) - set(star.keys)),
                              solved[first_solved:], len(built) - first_built))
            return nb

        monkeypatch.setattr(lcone.classify, "neighbor_triangulation", counted)
        Classifier(4).primitive_cones()
        assert len(searches) == 1 and len(crossings) == 6
        for added, calls, cells in crossings:
            assert added and calls == added and cells == 0
        assert len(solved) == sum(len(added) for added, _, _ in crossings) == 54

    def test_neighbour_keys_raise_under_optimize(self):
        # `assert False` passes only if -O stripped asserts.  A `prim`
        # payload whose keys are those of a neighbouring triangulation has
        # a regulator that is negative on the cone's central form.
        script = (
            "from lcone.classify import expand_primitive_cone, seed_triangulation\n"
            "from lcone.delaunay import neighbor_triangulation\n"
            "from lcone.scone import cone_facets, cone_to_dict, contains_pd, secondary_cone\n"
            "assert False, 'asserts are on'\n"
            "star = seed_triangulation(3)\n"
            "cone = secondary_cone(star)\n"
            "wall = next(f for f in cone_facets(cone) if contains_pd(f))\n"
            "nb = neighbor_triangulation(star, wall.central, cone.central)\n"
            "payload = {'cone': cone_to_dict(cone), 'digest': 'sha256'}\n"
            "print(len(expand_primitive_cone(dict(payload, keys=star.keys))['cones']))\n"
            "try:\n"
            "    expand_primitive_cone(dict(payload, keys=nb.keys))\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "1", "raised: regulator is not positive on its own form"]


# The sha256 of `cone_to_dict` of the d = 5 seed cone and of the cone across
# its first positive definite wall.  These run the largest eliminations in
# the code (15 columns), so a change in the exact kernel shows here first.
D5_CONE_SHA256 = (
    "573ff55daf21a0274357ce74c0a4595b44ac74a5a3127d1377b3d3e05207214b",
    "890ac91e8a653d2e9edf2e8a733660eda70f94abb98d174dc89b5dcc3d987dab",
)


def test_d5_cones_byte_identical():
    digests = tuple(
        hashlib.sha256(json.dumps(cone_to_dict(secondary_cone(star)), sort_keys=True,
                                  separators=(",", ":")).encode()).hexdigest()
        for star in _walk(seed_triangulation(5), 1))
    assert digests == D5_CONE_SHA256


def assert_same_cone(got, want):
    """Two cones (or None) agree field for field."""
    assert (got is None) == (want is None)
    if got is not None:
        for f in dataclasses.fields(ConeDesc):
            assert getattr(got, f.name) == getattr(want, f.name), f.name


def assert_faces_match_rays_oracle(cone):
    """`cone_facets` and `fundamental_face` of a cone equal their oracles,
    which rebuild every face from its rays; returns the facets."""
    facets = cone_facets(cone)
    want = cone_facets_by_rays(cone)
    assert len(facets) == len(want)
    for got, ref in zip(facets, want):
        assert_same_cone(got, ref)
    assert_same_cone(fundamental_face(cone), fundamental_face_by_rays(cone))
    return facets


def assert_equalities_span_accumulated(cone):
    """On every facet and the fundamental face of a cone, the canonical hull
    equalities span the same space as those threaded down from the cone
    (`accumulated_equalities`): each set has the rank of both stacked, the
    codimension of the face.  Returns the number of faces checked."""
    ff = fundamental_face(cone)
    faces = cone_facets(cone) + ([] if ff is None else [ff])
    for face in faces:
        new = [sym_to_functional(e) for e in face.equalities]
        old = [sym_to_functional(e) for e in accumulated_equalities(cone, face)]
        ranks = {len(new), rank_of_rows(new), rank_of_rows(old), rank_of_rows(new + old)}
        assert ranks == {face.dim_ambient - face.dim}
    return len(faces)


class TestFacetsByIncidence:
    def test_equalities_span_accumulated_d5(self):
        # The d = 5 seed cone's 15 facets and their 210 facets; every ray of
        # the seed cone has rank 1, so it has no fundamental face.
        cone = secondary_cone(seed_triangulation(5))
        facets = cone_facets(cone)
        assert assert_equalities_span_accumulated(cone) == len(facets) == 15
        assert sum(assert_equalities_span_accumulated(f) for f in facets) == 210

    def test_match_rays_oracle_d5(self):
        # The d = 5 seed cone, the cones across its first 3 positive
        # definite walls, and all their facets, one level further down.
        star = seed_triangulation(5)
        cone = secondary_cone(star)
        walls = [f for f in cone_facets(cone) if contains_pd(f)]
        cones = [cone] + [secondary_cone(neighbor_triangulation(star, f.central, cone.central))
                          for f in walls[:3]]
        facets = [f for c in cones for f in assert_faces_match_rays_oracle(c)]
        assert len(facets) == 60
        for facet in facets:
            assert_faces_match_rays_oracle(facet)

    def test_run_no_double_description(self, monkeypatch):
        # Every facet of the d = 4 seed cone and of its facets is read off
        # the incidences: no `rays_to_hrep` and no `_dd_cone` call.
        calls = []

        def counted(module, name):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a: calls.append(name) or fn(*a))

        counted(lcone.scone, "rays_to_hrep")
        counted(lcone.polyhedral, "rays_to_hrep")
        counted(lcone.polyhedral, "_dd_cone")
        cone = secondary_cone(seed_triangulation(4))
        calls.clear()
        facets = cone_facets(cone)
        second = [g for f in facets for g in cone_facets(f)]
        assert len(facets) == 10 and len(second) == 90
        assert calls == []

    def test_face_runs_one_echelon_of_its_rays(self, monkeypatch):
        # Each facet's dimension and hull equalities are read off one
        # `echelon` of its rays, and nothing ranks rows again: no module of
        # the library calls `rank_of_rows` while the facets are made.
        cone = secondary_cone(seed_triangulation(4))
        echelons, ranks = [], []
        echelon = lcone.scone.echelon
        monkeypatch.setattr(lcone.scone, "echelon", lambda r: echelons.append(r) or echelon(r))
        for name, module in list(sys.modules.items()):
            if name.startswith("lcone.") and hasattr(module, "rank_of_rows"):
                monkeypatch.setattr(module, "rank_of_rows",
                                    lambda r, fn=module.rank_of_rows: ranks.append(r) or fn(r))
        facets = cone_facets(cone)
        assert len(facets) == 10
        assert echelons == [[r.lower() for r in f.rays] for f in facets]
        assert ranks == []

    def test_dropped_inequality_raises_under_optimize(self):
        # The d = 4 seed cone is simplicial: with one inequality dropped,
        # each facet next to it has one facet fewer than its dimension.
        out = _raised_under_optimize(
            "import dataclasses\n"
            "from lcone.classify import seed_triangulation\n"
            "from lcone.scone import cone_facets, secondary_cone\n"
            "cone = secondary_cone(seed_triangulation(4))\n"
            "cone = dataclasses.replace(cone, inequalities=cone.inequalities[1:])\n",
            "cone_facets(cone)")
        assert out.startswith("raised: a face has fewer facets than its dimension")


def assert_faces_match_symmat_oracle(cone):
    """`cone_facets` and `fundamental_face` of a cone equal the faces the
    oracle builds with the cone's inequalities held as `SymMat`s
    (`face_by_symmats`) from the same masks; returns the facets."""
    masks = tight_masks_by_pairs(cone)
    facets = cone_facets(cone)
    assert len(facets) == (len(masks) if cone.dim > 1 else 0)
    for got, t in zip(facets, masks):
        assert_same_cone(got, face_by_symmats(cone, masks, t))
    ff = fundamental_face(cone)
    if ff is not None and ff is not cone:
        t = sum(1 << i for i, r in enumerate(cone.rays) if r in ff.rays)
        assert_same_cone(ff, face_by_symmats(cone, masks, t))
    return facets


class TestFacesInFunctionals:
    def test_match_symmat_oracle_d5(self):
        # The cones of `test_match_rays_oracle_d5`: the d = 5 seed cone, the
        # cones across its first 3 positive definite walls, all their
        # facets, and the facets of those.
        star = seed_triangulation(5)
        cone = secondary_cone(star)
        walls = [f for f in cone_facets(cone) if contains_pd(f)]
        cones = [cone] + [secondary_cone(neighbor_triangulation(star, f.central, cone.central))
                          for f in walls[:3]]
        facets = [f for c in cones for f in assert_faces_match_symmat_oracle(c)]
        assert len(facets) == 60
        for facet in facets:
            assert_faces_match_symmat_oracle(facet)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_round_trip_is_a_positive_multiple(self, d):
        # The face checks its rays on the functionals a it holds, and stores
        # the normal functional_to_sym(d, a): the two must pair with every
        # form with the same sign, which holds iff the round trip is c a
        # with c > 0.
        rng = random.Random(d)
        for _ in range(200):
            a = [rng.randint(-6, 6) * rng.choice((1, 1, 0)) for _ in range(sym_dim(d))]
            if not any(a):
                continue
            b = sym_to_functional(functional_to_sym(d, a))
            k = next(i for i, x in enumerate(a) if x)
            assert b[k] * a[k] > 0
            assert all(x * a[k] == b[k] * y for x, y in zip(b, a))
        with pytest.raises(ZeroInput):
            functional_to_sym(d, [0] * sym_dim(d))

    @pytest.mark.parametrize("call", [
        "cone_facets(bad)", "fundamental_face(bad)",
        "expand_descent_cone({'cone': cone_to_dict(bad)})",
    ])
    def test_non_psd_ray_raises(self, call):
        # A face's rays are checked positive semidefinite once, on the
        # parent: a parent with one ray that is not PSD raises, also under
        # python -O.
        setup = ("import dataclasses\n"
                 "from lcone.classify import expand_descent_cone, seed_triangulation\n"
                 "from lcone.scone import NonPSDRay, cone_facets, cone_to_dict, "
                 "fundamental_face, secondary_cone\n"
                 "cone = secondary_cone(seed_triangulation(3))\n"
                 "bad = dataclasses.replace(cone, rays=(cone.rays[0].scale(-1),) + cone.rays[1:])\n")
        namespace = {}
        exec(setup, namespace)
        with pytest.raises(NonPSDRay):
            eval(call, namespace)
        assert _raised_under_optimize(setup, call, "NonPSDRay").startswith("raised: ray ")


class TestSecondaryConeChecks:
    @pytest.mark.parametrize("walk", [
        lambda: [delaunay_star(A2)],
        lambda: _walk(seed_triangulation(3), 3),
        lambda: _walk(seed_triangulation(4), 3),
        lambda: _walk(seed_triangulation(5), 1),
    ], ids=["a2", "d3-walk", "d4-walk", "d5-walk"])
    def test_cones_pass_validate_without_calling_it(self, walk, monkeypatch):
        # `secondary_cone` runs the checks of `validate` on the functionals
        # it holds, and calls no `validate`; each cone it returns passes
        # `validate` and equals the `cone_from_rays` of its rays.
        stars = walk()
        calls = []
        monkeypatch.setattr(ConeDesc, "validate", lambda self: calls.append(self))
        cones = [secondary_cone(star) for star in stars]
        assert calls == []
        monkeypatch.undo()
        for cone in cones:
            cone.validate()
            assert_same_cone(cone, cone_from_rays(cone.d, cone.rays))

    @pytest.mark.parametrize("change, error, raised", [
        ("dd(ineqs, dim) + [(-1, 0, 0, 0, 0, 0)]", "sc.NonPSDRay",
         "raised: ray SymMat([[-1, 0, 0], [0, 0, 0], [0, 0, 0]]) is not positive semidefinite"),
        ("dd(ineqs, dim)[:1]", "AssertionError",
         "raised: secondary cone of a triangulation must be full-dimensional"),
    ], ids=["non-psd-ray", "rank"])
    def test_checks_survive_optimize(self, change, error, raised):
        out = _raised_under_optimize(
            "import lcone.scone as sc\n"
            "from lcone.classify import seed_triangulation\n"
            "star = seed_triangulation(3)\n"
            "dd = sc._dd_cone\n"
            f"sc._dd_cone = lambda ineqs, dim: {change}\n",
            "sc.secondary_cone(star)", error)
        assert out.strip() == raised


class TestFacetWalls:
    @pytest.mark.parametrize("stars", [
        lambda: [delaunay_star(A2)],
        lambda: _walk(seed_triangulation(3), 3),
        lambda: _walk(seed_triangulation(4), 3),
    ], ids=["a2", "d3-walk", "d4-walk"])
    def test_matches_rank_oracle(self, stars):
        for star in stars():
            cone = secondary_cone(star)
            assert cone.inequalities == facet_walls_by_rank(star, cone)

    def test_d4_walk_has_redundant_walls(self):
        # After the first crossing 9 of the 19 walls support no facet.
        star = _walk(seed_triangulation(4), 1)[-1]
        assert len(secondary_cone(star).inequalities) == 10
        assert len(star_wall_forms(star)) == 19

    def test_d5_seed_pairs_each_wall_once(self, monkeypatch):
        # 360 adjacent pairs but 15 distinct walls: each converted to its
        # functional, and checked on the form, once.
        star = seed_triangulation(5)
        assert len(star.pairs) == 360
        calls = []
        convert = lcone.scone.sym_to_functional
        monkeypatch.setattr(lcone.scone, "sym_to_functional",
                            lambda n: calls.append(n) or convert(n))
        walls = star_wall_forms(star)
        assert len(walls) == 15 and sorted(calls, key=SymMat.lower) == walls


class TestConeOps:
    def setup_method(self):
        self.cone = secondary_cone(delaunay_star(A2))

    def test_central_form(self):
        assert central_form(self.cone.rays) == A2
        single = self.cone.rays[0]
        assert central_form([single]) == single
        with pytest.raises(EmptyRaySet):
            central_form([])

    def test_facets(self):
        facets = cone_facets(self.cone)
        assert len(facets) == 3
        for f in facets:
            assert f.dim == 2
            assert len(f.rays) == 2
            assert len(f.equalities) == 1
        # d=1 cones have no facets
        d1 = secondary_cone(delaunay_star(SymMat([[1]])))
        assert cone_facets(d1) == []

    def test_contains_pd(self):
        assert contains_pd(self.cone)
        facets = cone_facets(self.cone)
        assert all(contains_pd(f) for f in facets)
        ray_cone = cone_from_rays(2, [self.cone.rays[0]])
        assert not contains_pd(ray_cone)

    def test_fundamental_face_zonotopal(self):
        assert fundamental_face(self.cone) is None

    def test_fundamental_face_nontrivial(self):
        d4 = SymMat([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])
        assert d4.rank() == 4 and d4.is_positive_definite()
        cone = cone_from_rays(4, [d4])
        ff = fundamental_face(cone)
        assert ff is not None and ff.dim == 1 and ff.rays == cone.rays

    def test_rank_profile(self):
        assert rank_profile(self.cone) == {1: 3}

    def test_pyramid_dimension(self):
        # dim C = dim F(C) + number of rank-1 rays outside F(C)
        for cone in (self.cone,):
            ff = fundamental_face(cone)
            fdim = 0 if ff is None else ff.dim
            ff_rays = set() if ff is None else set(r.lower() for r in ff.rays)
            loose = [r for r in cone.rays
                     if r.rank() == 1 and r.lower() not in ff_rays]
            assert cone.dim == fdim + len(loose)

    def test_validate_rejects_wrong_incidences(self):
        # `check_incidences`, the checks of `validate` on each ray: a ray off
        # an equality or on the wrong side of an inequality, or a ray that is
        # not PSD.
        cone = self.cone
        ray = cone.rays[0]
        for bad, match in [
            (dataclasses.replace(cone, equalities=(cone.inequalities[0],)), "violates an equality"),
            (dataclasses.replace(cone, inequalities=(cone.inequalities[0].scale(-1),)),
             "violates an inequality"),
        ]:
            with pytest.raises(AssertionError, match=match):
                bad.validate()
        not_psd = dataclasses.replace(cone, rays=(ray.scale(-1),) + cone.rays[1:])
        with pytest.raises(NonPSDRay):
            not_psd.check_incidences([r.lower() for r in not_psd.rays])

    def test_validate_survives_optimize(self):
        # `assert False` passes only if -O stripped asserts; validate must
        # still reject a central form that is not the sum of the rays.
        script = (
            "from lcone.scone import cone_from_dict\n"
            "assert False, 'asserts are on'\n"
            "cone = cone_from_dict({'d': 1, 'dim': 1, 'rays': [[1]], 'central': [2],\n"
            "                       'ineqs': [], 'eqs': []})\n"
            "try:\n"
            "    cone.validate()\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: central form is not the sum of the rays")
