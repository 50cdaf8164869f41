import itertools
import os
import random
import subprocess
import sys
from collections import deque

import pytest

import lcone.classify
import lcone.delaunay
import lcone.lattice
import lcone.polyhedral

from lcone.delaunay import (
    Cell,
    DelaunayStar,
    NotATriangulation,
    NotOnSingleFacet,
    _facet_pairs,
    _normalized,
    _translated,
    _wall_values,
    cell_facets,
    circumcenter,
    delaunay_star,
    dv_polytope_by_coarsening,
    is_triangulation,
    neighbor_triangulation,
)
from lcone.classify import Classifier, principal_form, seed_triangulation
from lcone.exact import AffinelyDependent, Mat, NotPositiveDefinite, Rat, SymMat, _norm, det, inverse
from lcone.lattice import closest_vectors
from lcone.polyhedral import dv_polytope
from lcone.scone import cone_facets, contains_pd, secondary_cone, star_wall_forms

import oracles
from oracles import (
    NotAFacet,
    adjacent_cell,
    cells_from_keys,
    circumcenter_by_fractions,
    delaunay_star_by_search,
    initial_cell,
    neighbor_triangulation_by_fractions,
    normalized,
    regulator_by_fractions,
)

A2 = SymMat([[2, 1], [1, 2]])
I2 = SymMat.identity(2)


class TestCircumcenter:
    def test_right_triangle(self):
        c, r2 = circumcenter(I2, [(0, 0), (1, 0), (0, 1)])
        assert c == (Rat(1, 2), Rat(1, 2)) and r2 == Rat(1, 2)

    def test_a2(self):
        c, r2 = circumcenter(A2, [(0, 0), (1, 0), (0, 1)])
        assert c == (Rat(1, 3), Rat(1, 3)) and r2 == Rat(2, 3)

    def test_dependent(self):
        with pytest.raises(AffinelyDependent):
            circumcenter(I2, [(0, 0), (1, 0), (2, 0)])

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_fraction_oracle(self, d):
        # Seeded integral and rational forms and seeded point sets, a fifth
        # of them affinely dependent by construction: the integer centre equals the `solve`
        # one, value for value and type for type, or both raise.
        rng = random.Random(3000 + d)
        checked = dependent = 0
        while checked < 40:
            rows = [[0] * d for _ in range(d)]
            for i in range(d):
                rows[i][i] = Rat(rng.randint(2 * d, 3 * d), rng.choice((1, 1, 2, 3)))
                for j in range(i):
                    rows[i][j] = rows[j][i] = Rat(rng.randint(-2, 2), rng.choice((1, 1, 2)))
            q = SymMat(rows)
            if not q.is_positive_definite():
                continue
            pts = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d + 1)]
            if rng.random() < 0.2:
                pts[-1] = tuple(2 * b - a for a, b in zip(pts[0], pts[1]))
            try:
                want = circumcenter_by_fractions(q, pts)
            except AffinelyDependent:
                with pytest.raises(AffinelyDependent):
                    circumcenter(q, pts)
                dependent += 1
                continue
            assert _typed(circumcenter(q, pts)) == _typed(want)
            checked += 1
        assert dependent > 0


class TestInitialCell:
    def test_square(self):
        cell = initial_cell(I2)
        assert len(cell.vertices) == 4
        assert (0, 0) in cell.vertices
        assert cell.sqradius == Rat(1, 2)

    def test_a2_triangle(self):
        cell = initial_cell(A2)
        assert len(cell.vertices) == 3
        assert (0, 0) in cell.vertices

    def test_cube(self):
        cell = initial_cell(SymMat.identity(3))
        assert len(cell.vertices) == 8

    def test_not_pd(self):
        with pytest.raises(NotPositiveDefinite):
            initial_cell(SymMat([[1, 2], [2, 1]]))

    def test_empty_sphere_postcondition(self):
        rng = random.Random(2)
        for _ in range(6):
            d = rng.choice([2, 3])
            rows = [[0] * d for _ in range(d)]
            for i in range(d):
                rows[i][i] = rng.randint(2, 5)
                for j in range(i):
                    rows[i][j] = rows[j][i] = rng.randint(-1, 1)
            q = SymMat(rows)
            if not q.is_positive_definite():
                continue
            cell = initial_cell(q)
            best, mins = closest_vectors(q, cell.center)
            assert best == cell.sqradius
            assert set(mins) == set(cell.vertices)


class TestAdjacentCell:
    def test_a2_flip_side(self):
        cell = Cell(((0, 0), (0, 1), (1, 0)), (Rat(1, 3), Rat(1, 3)), Rat(2, 3))
        nb = adjacent_cell(A2, cell, [(1, 0), (0, 1)])
        assert nb.vertices == ((0, 1), (1, 0), (1, 1))
        assert nb.center == (Rat(2, 3), Rat(2, 3))

    def test_square_translate(self):
        cell = initial_cell(I2)
        facets = cell_facets(cell, 2)
        for facet in facets:
            nb = adjacent_cell(I2, cell, facet)
            assert len(nb.vertices) == 4

    def test_diagonal_not_facet(self):
        cell = Cell(((0, 0), (0, 1), (1, 0), (1, 1)), (Rat(1, 2), Rat(1, 2)), Rat(1, 2))
        with pytest.raises(NotAFacet):
            adjacent_cell(I2, cell, [(0, 0), (1, 1)])


class TestDelaunayStar:
    @pytest.mark.parametrize("q,cells,classes,tri", [
        (I2, 4, 1, False),
        (A2, 6, 2, True),
        (SymMat([[1, 0], [0, 2]]), 4, 1, False),
        (SymMat([[1]]), 2, 1, True),
        (SymMat.identity(3), 8, 1, False),
    ])
    def test_counts(self, q, cells, classes, tri):
        star = delaunay_star(q)
        assert len(star.cells) == cells
        assert len(star.keys) == classes
        assert is_triangulation(star) == tri

    def test_every_cell_contains_origin(self):
        star = delaunay_star(A2)
        zero = (0, 0)
        for cell in star.cells:
            assert zero in cell.vertices

    def test_equivariance(self):
        # star of U^T Q U equals U^{-1} star(Q), as vertex sets
        rng = random.Random(9)
        forms = [A2, SymMat.identity(3), SymMat([[2, 0, 1], [0, 3, 1], [1, 1, 4]])]
        for q in forms:
            d = q.d
            while True:
                u = Mat([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
                if det(u) in (1, -1):
                    break
            q2 = q.congruence(u)
            star1 = delaunay_star(q)
            star2 = delaunay_star(q2)
            ui = inverse(u)
            mapped = set()
            for cell in star1.cells:
                vs = tuple(sorted(tuple(int(x) for x in ui.mul_vec(v)) for v in cell.vertices))
                mapped.add(vs)
            assert mapped == set(c.vertices for c in star2.cells)

    def test_tiling_volume(self):
        # translation class volumes add up to one fundamental domain
        from lcone.polyhedral import polytope_volume

        for q in (A2, I2, SymMat.identity(3), SymMat([[2, 1, 1], [1, 2, 1], [1, 1, 2]])):
            star = delaunay_star(q)
            total = Rat(0)
            for key in star.keys:
                poly = oracles.polytope_from_vertices(key, q.d)
                total += polytope_volume(poly)
            assert total == 1

    def test_refinement_of_sum(self):
        # cells of Del(Q + Q') are contained in cells of Del(Q) and Del(Q')
        from lcone.classify import principal_form, seed_triangulation
        from lcone.scone import secondary_cone

        q = principal_form(2)
        star = delaunay_star(q)
        cone = secondary_cone(star)
        qa = cone.rays[0] + cone.rays[1]      # boundary form (coarser)
        qb = cone.central                     # interior form
        if not qa.is_positive_definite():
            qa = qa + cone.rays[2]
        qsum = qa + qb
        fine = delaunay_star(qsum)
        for coarse_form in (qa, qb):
            coarse = delaunay_star(coarse_form)
            for cell in fine.cells:
                hit = any(set(cell.vertices) <= set(c2.vertices) for c2 in coarse.cells)
                assert hit


def star_by_cells(q):
    """Reference star: breadth-first search over every cell through 0, and
    one more `adjacent_cell` call per class facet for the adjacency."""
    d = q.d
    zero = tuple([0] * d)
    first = initial_cell(q)
    seen = {first.vertices: first}
    queue = deque([first])
    while queue:
        cell = queue.popleft()
        for facet in cell_facets(cell, d):
            if zero not in facet:
                continue
            nb = adjacent_cell(q, cell, facet)
            if nb.vertices not in seen:
                seen[nb.vertices] = nb
                queue.append(nb)
    cells = tuple(seen[k] for k in sorted(seen))
    class_keys = tuple(sorted(set(normalized(cell)[0].vertices for cell in cells)))
    class_pos = {k: i for i, k in enumerate(class_keys)}
    adjacency = []
    for k in class_keys:
        rep = seen[k]
        entries = []
        for facet in cell_facets(rep, d):
            nnorm, shift = normalized(adjacent_cell(q, rep, facet))
            entries.append((facet, class_pos[nnorm.vertices], tuple(-s for s in shift)))
        adjacency.append(tuple(entries))
    return cells, class_keys, tuple(adjacency)


def _random_forms(seed, count):
    rng = random.Random(seed)
    forms = []
    while len(forms) < count:
        d = rng.choice([2, 3])
        rows = [[0] * d for _ in range(d)]
        for i in range(d):
            rows[i][i] = rng.randint(2, 6)
            for j in range(i):
                rows[i][j] = rows[j][i] = rng.randint(-2, 2)
        q = SymMat(rows)
        if q.is_positive_definite():
            forms.append(q)
    return forms


# principal_form(4) minus the rank-one term of e_0 - e_1: a face form whose
# star has non-simplex cells.
FACE4 = principal_form(4) - SymMat.outer((1, -1, 0, 0))
# principal_form(4) without two of its rank-one terms, in a skewed basis:
# some standard basis vectors are long, so a basis step is a poor probe.
SKEWED4 = SymMat([[3, 2, -2, -1], [2, 13, -8, -4], [-2, -8, 6, 3], [-1, -4, 3, 3]])


def _count_calls(monkeypatch, name):
    """Patch `oracles.<name>` to record its calls; returns the list."""
    calls = []
    original = getattr(oracles, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(oracles, name, counted)
    return calls


def _typed(x):
    """x with every number paired with its type, so that `==` sees types."""
    if isinstance(x, tuple):
        return tuple(_typed(y) for y in x)
    return type(x), x


def assert_same_star(star, other):
    """Equal stars, cell for cell, value for value and type for type."""
    assert star == other
    assert [_typed((c.vertices, c.center, c.sqradius)) for c in star.cells] == \
        [_typed((c.vertices, c.center, c.sqradius)) for c in other.cells]


# A triangulation whose DV cell has centres with a zero coordinate: the
# cells solved from its keys hold some as int 0, the DV cell as Fraction(0).
ZERO_CENTRE3 = SymMat([[6, -3, -6], [-3, 4, 5], [-6, 5, 10]])
FCC = SymMat([[2, 1, 1], [1, 2, 1], [1, 1, 2]])


class TestKeyBuiltCells:
    @pytest.mark.parametrize("q", [SymMat.identity(3), FCC, FACE4, ZERO_CENTRE3],
                             ids=["identity3", "fcc", "face4", "zero-centre3"])
    def test_cells_are_the_dv_stars(self, q):
        star = delaunay_star(q)
        built = DelaunayStar(q, star.keys)
        assert "cells" not in built.__dict__
        assert [_typed((c.vertices, c.center, c.sqradius)) for c in built.cells] == \
            [_typed((c.vertices, c.center, c.sqradius)) for c in star.cells]

    @pytest.mark.parametrize("d,limit", [(3, 40), (4, 12)], ids=["d3", "d4"])
    def test_flipped_cells_match_key_oracle(self, d, limit):
        walk = crossings(seed_triangulation(d), limit)
        assert len(walk) == limit
        for star, wallpoint, center in walk:
            nb = neighbor_triangulation(star, wallpoint, center)
            assert nb.cells == cells_from_keys(nb.form, nb.keys)

    def test_keys_of_another_star_raise(self):
        star = seed_triangulation(3)
        cone, walls = pd_walls(star)
        nb = neighbor_triangulation(star, walls[0].central, cone.central)
        with pytest.raises(ValueError, match="not the Delaunay subdivision of the form"):
            DelaunayStar(star.form, nb.keys).cells

    def test_keys_of_another_star_raise_under_optimize(self):
        out = _raised_under_optimize(
            "from lcone.scone import cone_facets, contains_pd, secondary_cone\n"
            "star = D.delaunay_star(principal_form(3))\n"
            "cone = secondary_cone(star)\n"
            "wall = next(f for f in cone_facets(cone) if contains_pd(f))\n"
            "nb = D.neighbor_triangulation(star, wall.central, cone.central)\n",
            "D.DelaunayStar(star.form, nb.keys).cells",
            error="ValueError")
        assert out.startswith("raised: the keys are not the Delaunay subdivision of the form")


class TestStarByClasses:
    @pytest.mark.parametrize("q", [principal_form(2), principal_form(3), principal_form(4),
                                   SymMat.identity(3), FACE4] + _random_forms(7, 4))
    def test_matches_cell_search(self, q):
        star = delaunay_star(q)
        assert (star.cells, star.keys) == star_by_cells(q)[:2]

    @pytest.mark.parametrize("q", [FACE4, SKEWED4, SymMat([[Rat(5, 2), 1], [1, Rat(7, 3)]])]
                             + _random_forms(7, 4) + _random_forms(11, 3))
    def test_matches_search_oracle(self, q):
        assert_same_star(delaunay_star(q), delaunay_star_by_search(q))

    def test_face_form_has_non_simplex_cells(self):
        assert not is_triangulation(delaunay_star(FACE4))

    def test_crosses_each_class_facet_pair_once(self, monkeypatch):
        # The search oracle: each crossing finds a new class; every other
        # pair of class facets is matched by translation. principal_form(4)
        # has 24 classes and 60 pairs of class facets.
        calls = _count_calls(monkeypatch, "adjacent_cell")
        star = delaunay_star_by_search(principal_form(4))
        assert len(star.keys) == 24
        assert len(calls) == len(star.keys) - 1

    @pytest.mark.parametrize("q", [principal_form(3), FACE4, SKEWED4] + _random_forms(11, 3))
    def test_probes_do_not_change_the_star(self, monkeypatch, q):
        # The search oracle's contact probes are a heuristic: without them
        # it finds the same star.
        crossings = _count_calls(monkeypatch, "adjacent_cell")
        star = delaunay_star_by_search(q)
        assert len(crossings) == len(star.keys) - 1
        original = oracles._parametric_contact

        def basis_step_only(q, base_vertex, center, sqradius, direction, probes=()):
            return original(q, base_vertex, center, sqradius, direction)

        monkeypatch.setattr(oracles, "_parametric_contact", basis_step_only)
        assert delaunay_star_by_search(q) == star == delaunay_star(q)

    def test_work_does_not_depend_on_coordinate_signs(self, monkeypatch):
        # Lattice points walked for the star of each sign image of SKEWED4.
        # With the moving-sphere search, a basis step as the only contact
        # probe and the check bounded by coordinate-wise rounding, they
        # ranged from 3.9k to 13.7k.
        points = []
        original = lcone.lattice._walk

        def counted(*args):
            hits = original(*args)
            points[-1] += len(hits)
            return hits

        monkeypatch.setattr(lcone.lattice, "_walk", counted)
        for signs in itertools.product((1, -1), repeat=3):
            flip = Mat([[s if i == j else 0 for j in range(4)]
                        for i, s in enumerate((1,) + signs)])
            lcone.lattice.characteristic_set.cache_clear()
            points.append(0)
            delaunay_star(SKEWED4.congruence(flip))
        assert max(points) <= 1.2 * min(points), points

    @pytest.mark.parametrize("change", ["facets[:-1]", "facets + facets[:1]"],
                             ids=["dropped", "doubled"])
    def test_facet_pairing_checks_survive_optimize(self, change):
        # A normalized facet whose class facet is dropped has one side; one
        # listed twice has three.
        out = _raised_under_optimize(
            "orig = D.cell_facets\n"
            "def patched(cell, d):\n"
            "    facets = orig(cell, d)\n"
            f"    return {change}\n"
            "D.cell_facets = patched\n",
            "D.delaunay_star(principal_form(3))")
        assert out.startswith("raised: a facet of the star does not lie in exactly two cells")

    def test_empty_sphere_check_survives_optimize(self):
        # The empty-sphere check must reject a wrong minimum from the
        # closest-vector search of the DV cell (`lattice._closest`).
        out = _raised_under_optimize(
            "orig = P._closest\n"
            "def wrong(form, c, m):\n"
            "    best, mins = orig(form, c, m)\n"
            "    return best + 1, mins\n"
            "P._closest = wrong\n",
            "D.delaunay_star(SymMat([[2, 1], [1, 2]]))")
        assert out.startswith("raised: a DV vertex is not the centre of a cell at 0")

    def test_cell_without_origin_raises_under_optimize(self):
        # `lattice._closest` leaves 0 out of every minimizer set of a cell; the
        # coset minima, from `lattice`'s binding, keep their halfspaces.
        out = _raised_under_optimize(
            "orig = P._closest\n"
            "def without_origin(form, c, m):\n"
            "    best, mins = orig(form, c, m)\n"
            "    return best, tuple(v for v in mins if any(v))\n"
            "P._closest = without_origin\n",
            "D.delaunay_star(principal_form(3))")
        assert out.startswith("raised: a DV vertex is not the centre of a cell at 0")

    def test_dropped_coset_raises_under_optimize(self):
        # Without the vectors of one class of Z^3 / 2Z^3, which are facet
        # vectors of a generic form, the double description makes a cell
        # that is too large, and some of its vertices are not circumcenters.
        out = _raised_under_optimize(
            "orig = P._coset_minima\n"
            "def dropped(form):\n"
            "    vectors = orig(form)\n"
            "    return [v for v in vectors if [x % 2 for x in v] != [0, 0, 1]]\n"
            "P._coset_minima = dropped\n",
            "D.delaunay_star(principal_form(3))")
        assert out.startswith("raised: a DV vertex is not the centre of a cell at 0")


def _raised_under_optimize(setup: str, call: str, error: str = "AssertionError") -> str:
    """Run `setup`, then `call`, under `python -O` in a new process, with
    `lcone.delaunay` as D, `lcone.polyhedral` as P, `principal_form` and
    `SymMat` imported.  Returns the output: "raised: <message>" if `call`
    raised the exception named `error`.  The script's `assert False` passes
    only if -O stripped the asserts."""
    script = ("import lcone.delaunay as D\n"
              "import lcone.polyhedral as P\n"
              "from lcone.classify import principal_form\n"
              "from lcone.exact import SymMat\n"
              "assert False, 'asserts are on'\n"
              f"{setup}"
              f"try:\n    {call}\n"
              f"except {error} as exc:\n    print('raised:', exc)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def neighbor_by_eps(star, wallpoint, center):
    """Reference wall crossing: the Delaunay star at wallpoint + eps
    (wallpoint - center), eps halving until it is a triangulation whose
    closed secondary cone contains the wallpoint."""
    eps = Rat(1)
    diff = wallpoint - center
    for _ in range(64):
        cand = wallpoint + diff.scale(eps)
        eps = eps / 2
        if not cand.is_positive_definite():
            continue
        nb = delaunay_star(cand)
        if is_triangulation(nb) and all(n.pair(wallpoint) >= 0 for n in star_wall_forms(nb)):
            return nb
    raise AssertionError("wall crossing did not converge")


def pd_walls(star):
    """The secondary cone of a triangulation and its walls that meet the
    positive definite forms."""
    cone = secondary_cone(star)
    return cone, [f for f in cone_facets(cone) if contains_pd(f)]


def crossings(star, limit):
    """(star, wallpoint, center) for the first `limit` crossings of a
    breadth-first walk over the secondary fan from `star`."""
    out = []
    queue = deque([star])
    while queue and len(out) < limit:
        star = queue.popleft()
        cone, walls = pd_walls(star)
        for facet in walls[:limit - len(out)]:
            out.append((star, facet.central, cone.central))
            queue.append(neighbor_triangulation(star, facet.central, cone.central))
    return out


class TestNeighborTriangulation:
    def test_d2_mirror(self):
        star = delaunay_star(A2)
        cone, walls = pd_walls(star)
        assert len(walls) == 3
        for facet in walls:
            nb = neighbor_triangulation(star, facet.central, cone.central)
            assert is_triangulation(nb)
            assert nb.keys != star.keys
            searched = neighbor_by_eps(star, facet.central, cone.central)
            assert nb == searched and nb.cells == searched.cells

    def test_d3_matches_eps_route(self):
        walk = crossings(seed_triangulation(3), 40)
        assert len(walk) == 40
        for star, wallpoint, center in walk:
            nb = neighbor_triangulation(star, wallpoint, center)
            searched = neighbor_by_eps(star, wallpoint, center)
            assert nb == searched and nb.cells == searched.cells

    @pytest.mark.parametrize("signs", [(1, 1, 1, 1), (1, -1, 1, -1)])
    def test_d4_matches_eps_route(self, signs):
        flip = Mat([[s if i == j else 0 for j in range(4)] for i, s in enumerate(signs)])
        star = seed_triangulation(4, principal_form(4).congruence(flip))
        cone, walls = pd_walls(star)
        for facet in walls[:3]:
            nb = neighbor_triangulation(star, facet.central, cone.central)
            searched = neighbor_by_eps(star, facet.central, cone.central)
            assert nb == searched and nb.cells == searched.cells

    def test_d4_builds_no_star(self, monkeypatch):
        star = seed_triangulation(4)
        cone, walls = pd_walls(star)
        calls = []
        for module, name in ((lcone.delaunay, "delaunay_star"),
                             (lcone.polyhedral, "_coset_minima")):
            original = getattr(module, name)

            def counted(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(module, name, counted)
        nb = neighbor_triangulation(star, walls[0].central, cone.central)
        assert is_triangulation(nb) and nb.keys != star.keys
        assert calls == []

    def test_empty_sphere_check_survives_optimize(self):
        # As for the star: a wrong minimum from closest_vectors must be
        # caught under -O when a class is added by the flip.
        out = _raised_under_optimize(
            "from lcone.scone import cone_facets, secondary_cone\n"
            "star = D.delaunay_star(SymMat([[2, 1], [1, 2]]))\n"
            "cone = secondary_cone(star)\n"
            "orig = D.closest_vectors\n"
            "def wrong(q, c):\n"
            "    best, mins = orig(q, c)\n"
            "    return best + 1, mins\n"
            "D.closest_vectors = wrong\n",
            "D.neighbor_triangulation(star, cone_facets(cone)[0].central, cone.central)")
        assert out.startswith("raised: flipped cell failed the empty-sphere check")

    def test_wallpoint_must_be_on_wall(self):
        star = delaunay_star(A2)
        cone = secondary_cone(star)
        with pytest.raises(NotOnSingleFacet, match="tight on 0 walls"):
            neighbor_triangulation(star, cone.central, cone.central)

    def test_wallpoint_outside_closed_cone(self):
        # On the hyperplane of one wall, but past the facet's boundary: the
        # ray's coefficient is negative, so another wall is negative on it.
        star = seed_triangulation(3)
        cone = secondary_cone(star)
        facet = cone_facets(cone)[0]
        wallpoint = facet.central - facet.rays[0].scale(Rat(11, 10))
        assert wallpoint.is_positive_definite()
        with pytest.raises(NotOnSingleFacet, match="outside the closed cone"):
            neighbor_triangulation(star, wallpoint, cone.central)

    def test_wallpoint_not_pd(self):
        star = delaunay_star(A2)
        cone = secondary_cone(star)
        with pytest.raises(NotPositiveDefinite):
            neighbor_triangulation(star, cone.rays[0], cone.central)


@pytest.fixture(scope="module", params=[3, 4, 5], ids=["d3-run", "d4-run", "d5-seed"])
def run_crossings(request):
    """(star, wallpoint, center, flipped star) for every crossing of the
    d = 3 and d = 4 primitive runs, and for the d = 5 seed's first crossing."""
    d = request.param
    if d == 5:
        star = seed_triangulation(5)
        cone, walls = pd_walls(star)
        return [(star, walls[0].central, cone.central,
                 neighbor_triangulation(star, walls[0].central, cone.central))]
    out = []
    cross = lcone.classify.neighbor_triangulation

    def recording(star, wallpoint, center):
        nb = cross(star, wallpoint, center)
        out.append((star, wallpoint, center, nb))
        return nb

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lcone.classify, "neighbor_triangulation", recording)
        Classifier(d).primitive_cones()
    assert len(out) == {3: 1, 4: 6}[d]
    return out


class TestIntegerFlip:
    def test_matches_fraction_oracle(self, run_crossings):
        # The flip's checks run on an integer multiple of the form, and each
        # distinct wall is evaluated once on the wallpoint; the oracle runs
        # them on the rational form and evaluates every adjacent pair.
        for star, wallpoint, center, nb in run_crossings:
            ref = neighbor_triangulation_by_fractions(star, wallpoint, center)
            assert not nb.form.is_integral()     # so the checks ran on a multiple
            assert nb.keys == ref.keys
            assert _typed(nb.form.lower()) == _typed(ref.form.lower())
            assert nb.pairs == ref.pairs

    def test_translated_facets_match_normalized(self, run_crossings):
        # `_facet_pairs` normalizes a facet of a sorted key by translating
        # it by its first vertex; on every facet of every key of both sides
        # of every crossing that is `_normalized`, which sorts.
        facets = 0
        for star, _, _, nb in run_crossings:
            for side in (star, nb):
                for key in side.keys:
                    for i in range(len(key)):
                        facet = key[:i] + key[i + 1:]
                        assert _translated(facet) == _normalized(facet)
                        facets += 1
        assert facets == {3: 2 * 24, 4: 6 * 2 * 120, 5: 2 * 720}[star.dim]

    def test_regulators_match_fraction_oracle(self, run_crossings):
        # Every adjacent pair on both sides of every crossing: the integer
        # wall equals the rational regulator's matrix, and the integer
        # coordinates over their sum are its alphas, value and type.
        # A triangulation of Z^d has d! simplex classes of d + 1 facets each.
        for star, _, _, nb in run_crossings:
            for side in (star, nb):
                assert len(side.pairs) == {3: 12, 4: 60, 5: 360}[side.dim]
                for key, w, wall, coords in side.pairs.values():
                    want = regulator_by_fractions(key, w)
                    alphas = tuple(_norm(Rat(x, sum(coords))) for x in coords)
                    assert _typed(wall.lower() + alphas) == \
                        _typed(want.matrix.lower() + want.alphas)


@pytest.fixture(scope="module")
def ancestor_runs():
    """(database, ancestor map) of the d = 3 and d = 4 classifications."""
    runs = []
    for d in (3, 4):
        clf = Classifier(d)
        runs.append((clf.classify(), clf._ancestors))
    return runs


def d5_seed_faces():
    """The d = 5 seed star and cone, and 10 faces of the cone below it: 4
    PD facets, 3 PD facets of the first and 3 PD facets of the first of
    these (dimensions 14, 13 and 12)."""
    star = seed_triangulation(5)
    cone = secondary_cone(star)
    faces, parent = [], cone
    for _ in range(3):
        level = [f for f in cone_facets(parent) if contains_pd(f)]
        faces += level[:4 if parent is cone else 3]
        parent = level[0]
    return star, cone, faces


class TestCoarsening:
    def test_matches_dv_polytope_on_databases(self, ancestor_runs):
        # Every record of the d = 3 and d = 4 runs, with the primitive
        # ancestor the run assigned it: the DV polytope read off the
        # ancestor's triangulation is `dv_polytope`'s, field for field and
        # type for type.
        merged = 0
        for db, ancestors in ancestor_runs:
            for rec in db.records():
                keys, anchor = ancestors[rec.cone.key()]
                poly = dv_polytope_by_coarsening(rec.cone.central, keys, anchor)
                want = dv_polytope(rec.cone.central)
                assert poly == want
                assert _typed(poly.vertices) == _typed(want.vertices)
                merged += rec.cone.central != anchor
        assert merged == 57 - 1 - 3

    def test_matches_dv_polytope_on_d5_seed_faces(self):
        star, cone, faces = d5_seed_faces()
        assert [f.dim for f in faces] == [14] * 4 + [13] * 3 + [12] * 3
        for q in [cone.central] + [f.central for f in faces]:
            assert dv_polytope_by_coarsening(q, star.keys, cone.central) == dv_polytope(q)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_pair_values_match_regulators(self, d):
        # Every adjacent pair of the seed triangulation, at the seed's own
        # form, its cone's central form and the central forms of its PD
        # facets: the value has the sign of the regulator's pairing, and is
        # 0 where it is.
        star = seed_triangulation(d)
        cone = secondary_cone(star)
        forms = [star.form, cone.central] + [f.central for f in cone_facets(cone) if contains_pd(f)]
        values = _wall_values(star.keys, forms)
        pairs = _facet_pairs(star.keys)
        assert sorted(values) == sorted(pairs)
        zeros = 0
        for norm, (key, w, wall, _) in pairs.items():
            got_key, nkey, shift, got = values[norm]
            assert got_key == key and nkey in star.keys
            want = [wall.pair(f) for f in forms]
            assert [(v > 0) - (v < 0) for v in got] == [(v > 0) - (v < 0) for v in want]
            zeros += got.count(0)
        assert zeros > 0

    def test_keys_of_another_class_raise(self):
        # The keys of the d = 3 seed, with the central form of the cone
        # across one of its walls as the anchor: the crossed wall is
        # negative there.
        star, cone, nb = self._crossing()
        with pytest.raises(ValueError, match="not the Delaunay triangulation of the anchor"):
            dv_polytope_by_coarsening(nb.central, star.keys, nb.central)

    def test_form_outside_the_closed_cone_raises(self):
        star, cone, nb = self._crossing()
        with pytest.raises(ValueError, match="outside the closed secondary cone"):
            dv_polytope_by_coarsening(nb.central, star.keys, cone.central)

    def test_non_simplex_key_raises(self):
        keys = delaunay_star(FACE4).keys
        assert not is_triangulation(DelaunayStar(FACE4, keys))
        with pytest.raises(NotATriangulation):
            dv_polytope_by_coarsening(FACE4, keys, FACE4)

    def test_flat_key_raises(self):
        # Two flat triangles on a line whose edges pair up: the facets
        # match, but neither key has affine coordinates.
        keys = (((0, 0), (1, 0), (3, 0)), ((0, 0), (2, 0), (3, 0)))
        with pytest.raises(NotATriangulation, match="not a simplex"):
            _facet_pairs(keys)
        with pytest.raises(NotATriangulation, match="not a simplex"):
            _wall_values(keys, [I2])

    def test_merged_cell_off_its_sphere_raises(self, monkeypatch):
        # A positive wall read as 0 on the form merges two simplices whose
        # points are not on one sphere.
        star = seed_triangulation(3)
        cone = secondary_cone(star)
        values = lcone.delaunay._wall_values

        def one_zero(keys, forms):
            out = values(keys, forms)
            norm = min(out)
            key, nkey, shift, (on_anchor, _) = out[norm]
            out[norm] = key, nkey, shift, (on_anchor, 0)
            return out

        monkeypatch.setattr(lcone.delaunay, "_wall_values", one_zero)
        with pytest.raises(AssertionError, match="does not lie on one sphere"):
            dv_polytope_by_coarsening(cone.central, star.keys, cone.central)

    @staticmethod
    def _crossing():
        star = seed_triangulation(3)
        cone = secondary_cone(star)
        wall = next(f for f in cone_facets(cone) if contains_pd(f))
        nb = secondary_cone(neighbor_triangulation(star, wall.central, cone.central))
        return star, cone, nb
