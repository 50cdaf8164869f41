import itertools
import random
from collections import Counter

import pytest

import lcone.delaunay
import lcone.lattice
import lcone.polyhedral
import lcone.scone
from lcone.classify import classify_all, principal_form, seed_triangulation
from lcone.delaunay import neighbor_triangulation
from lcone.exact import Mat, Rat, SymMat, clear_denominators, echelon, gcd_normalize, \
    rank_of_rows, solve
from lcone.polyhedral import (
    NotPointed,
    dv_polytope,
    face_lattice,
    incidence_graph,
    polytope_volume,
    rays_to_hrep,
    serialize_subordination,
    subordination_scheme,
)
from lcone.lattice import _coset_minima, _form_frame
from lcone.polyhedral import _dd_cone, _dv_cell, _dv_row, _face_levels, _integer_gram
from lcone.scone import cone_facets, cone_from_rays, contains_pd, secondary_cone
from oracles import (
    _dv_halfspace,
    cell_facets_by_polytope,
    dd_cone_by_scan,
    dual_description,
    dv_cell_by_fractions,
    dv_halfspaces,
    dv_polytope_by_star,
    extreme_rays,
    face_lattice_by_closure,
    face_levels_by_scan,
    polytope_from_halfspaces,
    polytope_from_vertices,
    scheme_by_scan,
    short_vectors,
)
from test_delaunay import _raised_under_optimize

FCC = SymMat([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
D4 = SymMat([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])
# Two d = 4 primitive central forms and three face forms of principal_form(4),
# each skewed by two elementary operations (lower triangles).
SKEWED_D4 = [SymMat.from_lower(4, lo) for lo in (
    (5, -4, 10, -2, -2, 6, 0, 7, -7, 14),
    (6, 0, 10, -2, 0, 6, -5, -5, 5, 10),
    (3, 0, 3, -4, -1, 9, -1, 2, -1, 5),
    (3, 2, 13, -2, -8, 6, -1, -4, 3, 3),
    (2, 0, 3, 1, -3, 12, -1, -1, -4, 4),
)]


def _random_forms(count, seed):
    """Seeded positive definite forms of dimension 1 to 3: A^T A + I."""
    rng = random.Random(seed)
    forms = []
    while len(forms) < count:
        d = rng.randint(1, 3)
        a = Mat([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
        forms.append(SymMat((a.transpose() @ a).entries) + SymMat.identity(d))
    return forms


DV_FORMS = ([principal_form(d) for d in (2, 3, 4)]
            + [SymMat.identity(d) for d in (1, 2, 3, 4)]
            + [FCC, SymMat([[2, 1], [1, 2]]), D4] + _random_forms(8, 5) + SKEWED_D4)


def dv_polytope_by_halfspaces(q):
    """The reference for `dv_polytope`: every nonzero v with Q[v] <= 4 mu (mu
    the largest squared circumradius of the Delaunay cells) gives a
    halfspace, and a double description run over all of them keeps the
    facets; the vertices must be the circumcenters of the star."""
    from lcone.delaunay import delaunay_star

    star = delaunay_star(q)
    mu = max(cell.sqradius for cell in star.cells)
    halfspaces = [(tuple(-2 * x for x in q.mul_vec(v)), q.quad(v))
                  for v in short_vectors(q, 4 * mu).vectors]
    poly = polytope_from_halfspaces(halfspaces, q.d)
    assert list(poly.vertices) == sorted(set(tuple(c.center) for c in star.cells))
    return poly


def face_lattice_by_rank(p):
    """The reference for `face_lattice`: the same closure under
    intersection, each face graded by the affine rank of its vertices."""
    d = p.dim
    faces = set(p.facet_masks)
    frontier = set(faces)
    while frontier:
        new = {f & g for f in frontier for g in p.facet_masks} - faces - {0}
        faces |= new
        frontier = new
    by_dim = {k: [] for k in range(d + 1)}
    for mask in faces:
        vs = [v for i, v in enumerate(p.vertices) if mask >> i & 1]
        by_dim[rank_of_rows([[x - y for x, y in zip(v, vs[0])] for v in vs[1:]])].append(mask)
    by_dim[d] = [(1 << p.n_vertices) - 1]
    for k in by_dim:
        by_dim[k].sort()
    return by_dim, tuple(len(by_dim[k]) for k in range(d))


def _typed(value):
    """A value with the type of each of its parts, to compare type for type."""
    if isinstance(value, (tuple, list)):
        return type(value), tuple(map(_typed, value))
    return type(value), value


def assert_dv_summary_matches_oracles(q, lattice=True):
    """On the form q, the double description of the DV cell equals the scan
    oracle's, and its cells equal the `Fraction` oracle's value for value
    and type for type.  With `lattice`, the face lattice of the DV polytope
    equals the closure and rank oracles, and its subordination scheme the
    scan of the lattice."""
    halfspaces = dv_halfspaces(q)
    assert _dd_cone(halfspaces, q.d + 1) == dd_cone_by_scan(halfspaces, q.d + 1)
    assert _typed(_dv_cell(q)) == _typed(dv_cell_by_fractions(q))
    if lattice:
        p = dv_polytope(q)
        by_closure = face_lattice_by_closure(p)
        assert face_lattice(p) == by_closure == face_lattice_by_rank(p)
        assert subordination_scheme(p) == scheme_by_scan(by_closure[0], p.dim)


def assert_dv_integers_match_oracles(q):
    """On the form q, every DV halfspace row read off the integer Gram
    matrix, for each coset minimum and its negative, equals the rational
    row, and its G[v] is c Q[v] for the one c of the form; the double
    description of the DV cell gets them in the oracle's order; the DV
    polytope's facet rows are the rational rows of its facet vectors; its
    face levels equal the scan oracle's; and its incidence graph is the
    one of the loop over every vertex of every facet, in the same order."""
    gram = _integer_gram(q)
    scales = set()
    for v in _coset_minima(_form_frame(q)):
        for w in (v, tuple(-x for x in v)):
            n, row = _dv_row(gram, w)
            assert row == _dv_halfspace(q, w)
            scales.add(Rat(n) / q.quad(w))
    assert len(scales) == 1
    inputs = []
    dd = lcone.polyhedral._dd_cone
    lcone.polyhedral._dd_cone = lambda ineqs, dim: inputs.append(ineqs) or dd(ineqs, dim)
    try:
        p = dv_polytope(q)
    finally:
        lcone.polyhedral._dd_cone = dd
    assert inputs == [dv_halfspaces(q)]
    assert p.facets == dv_polytope_by_star(q).facets
    assert _face_levels(p) == face_levels_by_scan(p)
    nv = p.n_vertices
    assert list(incidence_graph(p)[2].items()) == [
        ((i, nv + j), 1) for j, fm in enumerate(p.facet_masks) for i in range(nv) if fm >> i & 1]


class TestIntegerDV:
    @pytest.mark.parametrize("q", SKEWED_D4 + [principal_form(5), D4.scale(Rat(2, 3)),
                                               FCC + SymMat.identity(3).scale(Rat(1, 5))],
                             ids=[f"skewed4-{k}" for k in range(5)] + ["principal5", "d4-third",
                                                                         "fcc-fifth"])
    def test_matches_oracles(self, q):
        # The skewed d = 4 forms in their sign images too, as the dvcell
        # workload gives them; two forms with denominators, so c > 1.
        for signs in itertools.product((1, -1) if q.d == 4 else (1,), repeat=q.d - 1):
            flip = Mat([[s if i == j else 0 for j in range(q.d)]
                        for i, s in enumerate((1,) + signs)])
            assert_dv_integers_match_oracles(q.congruence(flip))

    def test_dd_matches_scan_oracle_on_cells_and_walks(self, monkeypatch):
        # Every double description of the DV cells of principal_form(2..5)
        # and seeded forms of dimension 1 to 3, and of the secondary cones
        # of walks from the d = 3, 4 and 5 seeds, seeded by one integer
        # `echelon`, equals the one seeded by the inverse over Q.
        calls = []
        dd = lcone.polyhedral._dd_cone
        for module in (lcone.polyhedral, lcone.scone):
            monkeypatch.setattr(module, "_dd_cone",
                                lambda ineqs, dim: calls.append((ineqs, dim)) or dd(ineqs, dim))
        for q in [principal_form(d) for d in (2, 3, 4, 5)] + _random_forms(6, 11):
            _dv_cell(q)
        for d, crossings in ((3, 3), (4, 3), (5, 1)):
            star = seed_triangulation(d)
            for _ in range(crossings):
                cone = secondary_cone(star)
                wall = next(f for f in cone_facets(cone) if contains_pd(f))
                star = neighbor_triangulation(star, wall.central, cone.central)
            secondary_cone(star)
        assert len(calls) >= 10 + 10
        for ineqs, dim in calls:
            assert dd(ineqs, dim) == dd_cone_by_scan(list(ineqs), dim)


class TestSummaryOracles:
    def test_matches_oracles_on_principal_form_5(self):
        # 720 DV vertices and 4,682 proper faces; the other DV forms of these
        # tests are checked in `TestDVFromStar::test_matches_halfspace_oracle`.
        assert_dv_summary_matches_oracles(principal_form(5))

    def test_matches_oracles_on_d5_seed_walls(self):
        # The central forms of the 15 PD walls of the d = 5 seed cone are
        # not generic: their double descriptions meet many degenerate rays.
        cone = secondary_cone(seed_triangulation(5))
        walls = [f.central for f in cone_facets(cone) if contains_pd(f)]
        assert len(walls) == 15
        for q in walls:
            assert_dv_summary_matches_oracles(q, lattice=False)

    def test_dd_scans_only_pairs_past_rank_filter(self, monkeypatch):
        # On a skewed d = 4 form with non-simplex Delaunay cells, the
        # combinatorial test of the DV cell's double description runs on
        # the 189 pairs whose common mask has at least dim - 2 = 3 bits, and
        # 165 of them are adjacent.  Without the filter the rays would be
        # the same, as the combinatorial test alone is exact, but more
        # pairs would be scanned.
        tested = []
        real = lcone.polyhedral._at_most_two_contain
        monkeypatch.setattr(lcone.polyhedral, "_at_most_two_contain",
                            lambda m, masks: tested.append((m, real(m, masks))) or tested[-1][1])
        q = SKEWED_D4[2]
        halfspaces = dv_halfspaces(q)
        assert _dd_cone(halfspaces, 5) == dd_cone_by_scan(halfspaces, 5)
        assert min(m.bit_count() for m, _ in tested) >= 3
        assert (len(tested), sum(kept for _, kept in tested)) == (189, 165)

    def test_dd_matches_scan_oracle_on_runs(self, monkeypatch):
        # Every distinct double description of the d = 3 and d = 4 runs (the
        # 8 secondary cones of their primitive phases and the DV cell of each
        # seed), of `dv_polytope` on the central forms of their 57 records,
        # the enrichment reading these off the triangulations instead, and of
        # `cone_from_rays` on the same records, 53 of them not
        # full-dimensional.
        dd = lcone.polyhedral._dd_cone
        calls = {}

        def recording(module):
            def run(ineqs, dim):
                rays = dd(ineqs, dim)
                calls[module, tuple(map(tuple, ineqs)), dim] = rays
                return rays
            return run

        for module in (lcone.polyhedral, lcone.scone):
            monkeypatch.setattr(module, "_dd_cone", recording(module.__name__))
        for db in (classify_all(3), classify_all(4)):
            for rec in db.records():
                dv_polytope(rec.cone.central)
                cone_from_rays(db.d, rec.cone.rays)
        assert Counter(module for module, _, _ in calls) == {"lcone.polyhedral": 114,
                                                             "lcone.scone": 8}
        for (_, ineqs, dim), rays in calls.items():
            assert rays == dd_cone_by_scan(list(ineqs), dim)


class TestDualDescription:
    def test_orthant(self):
        rays = dual_description(2, (), ((1, 0), (0, 1)))
        assert rays == [(0, 1), (1, 0)]

    def test_secondary_cone_system(self):
        # q12 >= 0, q11 - q12 >= 0, q22 - q12 >= 0 in (q11, q12, q22) coords
        rays = dual_description(3, (), ((0, 1, 0), (1, -1, 0), (0, -1, 1)))
        assert set(rays) == {(1, 0, 0), (0, 0, 1), (1, 1, 1)}

    def test_forced_equality(self):
        rays = dual_description(2, (), ((1, 1), (-1, -1), (1, 0)))
        assert rays == [(1, -1)]

    def test_lineality_raises(self):
        with pytest.raises(NotPointed):
            dual_description(2, (), ((1, 0),))

    def test_non_pointed_rays_raise(self):
        with pytest.raises(NotPointed):
            rays_to_hrep([(1, 0), (-1, 0)], 2)

    def test_equalities_quotient(self):
        rays = dual_description(3, ((0, 0, 1),), ((1, 0, 0), (0, 1, 0)))
        assert set(rays) == {(1, 0, 0), (0, 1, 0)}

    def test_round_trip_random(self):
        rng = random.Random(21)
        done = 0
        while done < 50:
            dim = rng.randint(2, 8)
            nrays = rng.randint(dim, dim + 4)
            rays = []
            for _ in range(nrays):
                rays.append(tuple(rng.randint(0, 4) for _ in range(dim)))
            rays = [r for r in rays if any(r)]
            if not rays:
                continue
            # nonnegative vectors generate a pointed cone
            canon = extreme_rays(rays, dim)
            h = rays_to_hrep(canon, dim)
            back = dual_description(dim, *h)
            assert back == canon
            done += 1


def rays_to_hrep_by_gram(rays, dim):
    """The reference for `rays_to_hrep`: coordinates in a span basis B of
    the rays by one solve of B^T B y = B^T r per ray, and each facet normal
    g lifted to B (B^T B)^-1 g."""
    rays = [tuple(r) for r in rays]
    if not rays:
        eqs = tuple(tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim))
        return eqs, ()
    equalities = tuple(gcd_normalize(e) for e in echelon(rays).nullspace())
    acc = []
    for r in rays:
        if rank_of_rows(acc + [list(r)]) > len(acc):
            acc.append(list(r))
    s = len(acc)
    bmat = Mat(acc).transpose()
    btb = bmat.transpose() @ bmat
    ycoords = [clear_denominators(solve(btb, bmat.transpose().mul_vec(r))) for r in rays]
    normals_y = _dd_cone(ycoords, s)
    if s and rank_of_rows(normals_y) < s:
        raise NotPointed("ray set generates a non-pointed cone")
    ineqs = [gcd_normalize(clear_denominators(bmat.mul_vec(solve(btb, g))), orient=False)
             for g in normals_y]
    return equalities, tuple(sorted(set(ineqs)))


def _facet_inputs(star):
    """The (rays, dim) of each facet of a secondary cone, as `cone_from_rays`
    passes them to `rays_to_hrep`: the lower coordinates of the rays tight
    on each inequality."""
    cone = secondary_cone(star)
    return [([r.lower() for r in cone.rays if n.pair(r) == 0], cone.dim_ambient)
            for n in cone.inequalities]


def _sign_image(q, signs):
    flip = Mat([[s if i == j else 0 for j in range(q.d)] for i, s in enumerate(signs)])
    return q.congruence(flip)


class TestRaysToHrep:
    @pytest.mark.parametrize("star", [
        lambda: seed_triangulation(3),
        lambda: seed_triangulation(4),
        lambda: seed_triangulation(4, _sign_image(principal_form(4), (1, -1, 1, -1))),
    ], ids=["seed3", "seed4", "seed4-signs"])
    def test_matches_gram_on_cone_facets(self, star):
        rng = random.Random(4)
        for rays, dim in _facet_inputs(star()):
            h = rays_to_hrep(rays, dim)
            assert len(h[0]) == 1
            assert h == rays_to_hrep_by_gram(rays, dim)
            shuffled = rays[:]
            rng.shuffle(shuffled)
            assert rays_to_hrep(shuffled, dim) == h

    def test_matches_gram_on_random_lower_dimensional_cones(self):
        rng = random.Random(17)
        done = 0
        while done < 40:
            k = rng.randint(1, 3)
            s = rng.randint(1, 6)
            dim = s + k
            # An injective image of a cone in the nonnegative orthant is pointed.
            embed = Mat([[rng.randint(-3, 3) for _ in range(s)] for _ in range(dim)])
            if rank_of_rows(embed.entries) < s:
                continue
            rays = [embed.mul_vec([rng.randint(0, 3) for _ in range(s)])
                    for _ in range(rng.randint(s, s + 5))]
            rays = [r for r in rays if any(r)]
            if rank_of_rows(rays) < s:
                continue
            h = rays_to_hrep(rays, dim)
            assert len(h[0]) == k
            assert h == rays_to_hrep_by_gram(rays, dim)
            rng.shuffle(rays)
            assert rays_to_hrep(rays, dim) == h
            done += 1


class TestPolytopes:
    def test_square_from_halfspaces(self):
        hs = [((1, 0), Rat(1, 2)), ((-1, 0), Rat(1, 2)),
              ((0, 1), Rat(1, 2)), ((0, -1), Rat(1, 2))]
        p = polytope_from_halfspaces(hs, 2)
        assert p.n_vertices == 4 and p.n_facets == 4
        assert polytope_volume(p) == 1

    def test_vertices_round_trip(self):
        cube = list(itertools.product((0, 1), repeat=3))
        p = polytope_from_vertices(cube, 3)
        assert p.n_vertices == 8 and p.n_facets == 6
        assert polytope_volume(p) == 1

    def test_simplex_volume(self):
        p = polytope_from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        assert polytope_volume(p) == Rat(1, 6)


class TestDV:
    def test_square(self):
        p = dv_polytope(SymMat.identity(2))
        assert p.n_facets == 4 and p.n_vertices == 4
        assert set(p.vertices) == {(Rat(1, 2), Rat(1, 2)), (Rat(1, 2), Rat(-1, 2)),
                                   (Rat(-1, 2), Rat(1, 2)), (Rat(-1, 2), Rat(-1, 2))}

    def test_hexagon(self):
        p = dv_polytope(SymMat([[2, 1], [1, 2]]))
        assert p.n_facets == 6 and p.n_vertices == 6
        _, fv = face_lattice(p)
        assert fv == (6, 6)

    def test_rhombic_dodecahedron(self):
        p = dv_polytope(FCC)
        assert p.n_facets == 12 and p.n_vertices == 14
        _, fv = face_lattice(p)
        assert fv == (14, 24, 12)

    def test_centrally_symmetric(self):
        for q in (SymMat.identity(2), FCC, SymMat([[2, 1], [1, 2]])):
            p = dv_polytope(q)
            vs = set(p.vertices)
            assert vs == {tuple(-x for x in v) for v in vs}

    def test_volume_one(self):
        for q in (SymMat.identity(2), SymMat([[2, 1], [1, 2]]), FCC,
                  SymMat.identity(3), SymMat([[1]]),
                  SymMat([[4, -1, -1, -1], [-1, 4, -1, -1],
                          [-1, -1, 4, -1], [-1, -1, -1, 4]])):
            assert polytope_volume(dv_polytope(q)) == 1

    def test_vertex_count_equals_star_cells(self):
        from lcone.delaunay import delaunay_star

        for q in (SymMat.identity(3), FCC, SymMat([[2, 1], [1, 2]])):
            p = dv_polytope(q)
            star = delaunay_star(q)
            assert p.n_vertices == len(star.cells)

    def test_facets_are_voronoi_relevant(self):
        # facet count is twice the number of +- classes; cube has 6, hexagon 6
        assert dv_polytope(SymMat.identity(3)).n_facets == 6

    def test_d4_root_lattice_24_cell(self):
        # the DV polytope of the D4 root lattice is the 24-cell
        d4 = SymMat([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])
        p = dv_polytope(d4)
        assert p.n_facets == 24 and p.n_vertices == 24
        _, fv = face_lattice(p)
        assert fv == (24, 96, 96, 24)
        # octahedral facets only: every 2-face is a triangle
        assert subordination_scheme(p)[2] == {3: 96}


class TestFaceLatticeAndSchemes:
    def test_cube_f_vector(self):
        p = dv_polytope(SymMat.identity(3))
        _, fv = face_lattice(p)
        assert fv == (8, 12, 6)

    def test_hexagon_empty_scheme(self):
        p = dv_polytope(SymMat([[2, 1], [1, 2]]))
        assert subordination_scheme(p) == {}

    def test_cube_scheme(self):
        # six quadrilateral 2-faces
        p = dv_polytope(SymMat.identity(3))
        assert subordination_scheme(p) == {2: {4: 6}}

    def test_polygon_census(self):
        # rhombic dodecahedron: 12 quadrilaterals; truncated octahedron:
        # 6 squares and 8 hexagons
        assert subordination_scheme(dv_polytope(FCC)) == {2: {4: 12}}
        from lcone.classify import principal_form

        p = dv_polytope(principal_form(3))
        assert subordination_scheme(p) == {2: {4: 6, 6: 8}}

    def test_counts_sum_to_face_numbers(self):
        for q in (FCC, SymMat([[2, 0, 0], [0, 3, 0], [0, 0, 5]])):
            p = dv_polytope(q)
            scheme = subordination_scheme(p)
            _, fv = face_lattice(p)
            for k, hist in scheme.items():
                assert sum(hist.values()) == fv[k]

    @pytest.mark.parametrize("q", [SymMat.identity(2), SymMat.identity(3), SymMat.identity(4),
                                   FCC, principal_form(4)] + SKEWED_D4 + [principal_form(5)])
    def test_scheme_matches_scan_oracle(self, q):
        # The scheme is counted by the pass that builds the face lattice; the
        # oracle scans the faces of the lattice closed under intersection.
        p = dv_polytope(q)
        by_dim, _ = face_lattice_by_closure(p)
        assert subordination_scheme(p) == scheme_by_scan(by_dim, p.dim)

    def test_serialization(self):
        assert serialize_subordination({2: {4: 6}}) == "2=[4:6]"
        assert serialize_subordination({}) == ""

    def test_incidence_graph_counts(self):
        p = dv_polytope(SymMat.identity(2))
        n, colors, edges = incidence_graph(p)
        assert n == 8 and colors.count(0) == 4 and colors.count(1) == 4
        assert len(edges) == 8   # each square vertex on 2 facets

        p = dv_polytope(SymMat.identity(3))
        n, colors, edges = incidence_graph(p)
        assert n == 14 and len(edges) == 24


def polytope_from_vertices_by_halfspaces(vertices, dim):
    """The reference for `polytope_from_vertices`: the facets of the
    homogenization cone, then a second double description from them that
    recovers the vertices and keeps the halfspaces of affine rank dim - 1."""
    vset = sorted(set(tuple(v) for v in vertices))
    equalities, inequalities = rays_to_hrep([clear_denominators(v + (1,)) for v in vset],
                                            dim + 1)
    if equalities:
        raise ValueError("polytope is not full-dimensional")
    return polytope_from_halfspaces([(g[:-1], g[-1]) for g in inequalities], dim)


def _non_simplex_cells():
    from lcone.delaunay import delaunay_star

    return [c.vertices for q in SKEWED_D4 for c in delaunay_star(q).cells
            if len(c.vertices) > q.d + 1]


OCTAHEDRON_CAP = [v for v in itertools.product((-1, 0, 1), repeat=3)
                  if sum(map(abs, v)) == 1] + [(1, 1, 1)]


class TestPolytopeFromVertices:
    @pytest.mark.parametrize("points,dim", [
        (list(itertools.product((0, 1), repeat=3)), 3),
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
        (OCTAHEDRON_CAP, 3),
        (list(itertools.product((0, 1, 2), repeat=2)), 2),
        (list(itertools.product((0, 1, 2), repeat=3)), 3),
        ([(Rat(1, 2), 0), (0, Rat(1, 3)), (-1, -1), (0, 0)], 2),
    ], ids=["cube", "simplex", "octahedron-cap", "grid-3x3", "grid-3x3x3", "rational"])
    def test_matches_halfspace_oracle(self, points, dim):
        p = polytope_from_vertices(points, dim)
        want = polytope_from_vertices_by_halfspaces(points, dim)
        assert p == want                            # masks included
        assert repr(p.vertices) == repr(want.vertices)

    def test_matches_halfspace_oracle_on_d4_cells(self):
        cells = _non_simplex_cells()
        assert len(cells) == 126
        for vertices in cells:
            assert polytope_from_vertices(vertices, 4) == \
                polytope_from_vertices_by_halfspaces(vertices, 4)

    def test_non_vertices_are_dropped(self):
        p = polytope_from_vertices(list(itertools.product((0, 1, 2), repeat=2)), 2)
        assert p.vertices == ((0, 0), (0, 2), (2, 0), (2, 2))
        assert p.n_facets == 4

    def test_no_second_double_description(self, monkeypatch):
        calls = []

        def counting_dd(ineqs, dim):
            calls.append(dim)
            return _dd_cone(ineqs, dim)

        monkeypatch.setattr(lcone.polyhedral, "_dd_cone", counting_dd)
        polytope_from_vertices(OCTAHEDRON_CAP, 3)
        assert calls == [4]

    def test_lower_dimensional_raises(self):
        with pytest.raises(ValueError, match="not full-dimensional"):
            polytope_from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0)], 3)

    def test_cell_facets_match_on_non_simplex_cells(self):
        # `cell_facets` reads the facets straight off `rays_to_hrep`; the
        # polytope route first drops the points that are not vertices.
        from lcone.delaunay import cell_facets, delaunay_star

        forms = [SymMat.identity(d) for d in (2, 3, 4)] + [FCC] + SKEWED_D4
        cells = [(c, q.d) for q in forms for c in delaunay_star(q).cells
                 if len(c.vertices) > q.d + 1]
        assert len(cells) == 160
        for cell, d in cells:
            assert cell_facets(cell, d) == cell_facets_by_polytope(cell, d)


class TestDVFromStar:
    @pytest.mark.parametrize("q", DV_FORMS, ids=lambda q: str(q.lower()))
    def test_matches_halfspace_oracle(self, q):
        p = dv_polytope(q)
        assert p == dv_polytope_by_halfspaces(q)   # masks included
        assert p == dv_polytope_by_star(q)
        assert_dv_summary_matches_oracles(q)

    def test_skewed_forms_have_non_simplex_cells(self):
        from lcone.delaunay import delaunay_star, is_triangulation

        assert sum(not is_triangulation(delaunay_star(q)) for q in SKEWED_D4) == 3

    def test_matches_star_oracle_d5(self):
        # The principal form is the central form of the d = 5 seed cone; the
        # other form is the central form of the cone across its first PD wall.
        star = seed_triangulation(5)
        cone = secondary_cone(star)
        assert cone.central == principal_form(5)
        wall = next(f for f in cone_facets(cone) if contains_pd(f))
        nb = secondary_cone(neighbor_triangulation(star, wall.central, cone.central))
        for q in (cone.central, nb.central):
            assert dv_polytope(q) == dv_polytope_by_star(q)

    def test_one_star(self, monkeypatch):
        # The DV polytope builds no Delaunay star and no cell facets, runs no
        # `rays_to_hrep` of a cell, and makes the closest-vector searches of
        # one star: 15 for the coset minima of Z^4 / 2Z^4 and one per each
        # of the 18 translation classes, all on one form frame.
        calls = []

        def count(module, name):
            original = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args: calls.append(name) or original(*args))

        for module, name in ((lcone.delaunay, "delaunay_star"), (lcone.delaunay, "cell_facets"),
                             (lcone.delaunay, "rays_to_hrep"),
                             (lcone.lattice, "closest_vectors"),
                             (lcone.polyhedral, "_closest"), (lcone.lattice, "_closest"),
                             (lcone.polyhedral, "_form_frame"),
                             (lcone.lattice, "_form_frame")):
            count(module, name)
        dv_polytope(SKEWED_D4[2])
        assert calls == ["_form_frame"] + ["_closest"] * 33

    def test_one_form_frame_per_dv_cell(self, monkeypatch):
        # The part of the enumeration frame that depends on the form alone
        # is built once per DV cell: its 15 coset-minima searches and its
        # one search per translation class share it.
        q = principal_form(4)
        frames = []
        build = lcone.lattice._form_frame
        for module in (lcone.lattice, lcone.polyhedral):
            monkeypatch.setattr(module, "_form_frame",
                                lambda q: frames.append(q) or build(q))
        lcone.polyhedral._dv_cell(q)
        assert frames == [q]

    def test_vertex_on_too_few_facets_raises_under_O(self):
        # `assert False` passes only if -O stripped asserts.  The unit square
        # cell of Z^2 loses its vertex (1, 0), so [0, (1, 0)] is no longer an
        # edge and the center (1/2, -1/2) lies on one facet only.
        out = _raised_under_optimize(
            "real = P._dv_cell\n"
            "def corrupt(q):\n"
            "    return [(tuple(v for v in vs if v != (1, 0)) if (1, 1) in vs else vs, c, r)\n"
            "            for vs, c, r in real(q)]\n"
            "P._dv_cell = corrupt\n",
            "P.dv_polytope(SymMat.identity(2))")
        assert out.startswith("raised: DV vertex")
        assert out.rstrip().endswith("lies on fewer than 2 facets")

    @pytest.mark.parametrize("change, raised", [
        # One nonzero minimizer is dropped from every cell, so the cell of a
        # DV vertex is found as a translate of two cells.
        ("tuple(v for v in mins if v != max(v for v in mins if any(v)))",
         "a DV vertex is the centre of two cells"),
        # A far lattice point is added to every cell, so the translate by it
        # is centred off the DV cell.
        ("tuple(sorted(mins + ((5,) * len(c),)))",
         "30 cells but 24 DV vertices: the centre of a translated cell is not a DV vertex"),
    ], ids=["dropped", "added"])
    def test_cell_coverage_raises_under_O(self, change, raised):
        out = _raised_under_optimize(
            "real = P._closest\n"
            "def changed(form, c, m):\n"
            "    best, mins = real(form, c, m)\n"
            f"    return best, {change}\n"
            "P._closest = changed\n",
            "P.dv_polytope(principal_form(3))")
        assert out == f"raised: {raised}\n"


class TestFaceLatticeGrading:
    @pytest.mark.parametrize("p", [
        lambda: polytope_from_vertices(list(itertools.product((0, 1), repeat=3)), 3),
        lambda: dv_polytope(SymMat([[2, 1], [1, 2]])),
        lambda: dv_polytope(D4),
        lambda: polytope_from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
        lambda: polytope_from_vertices(OCTAHEDRON_CAP, 3),
    ], ids=["cube", "hexagon", "24-cell", "simplex", "octahedron-cap"])
    def test_matches_rank_oracle(self, p):
        poly = p()
        assert face_lattice(poly) == face_lattice_by_rank(poly)
