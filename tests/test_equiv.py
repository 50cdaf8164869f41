import itertools
import random

import pytest

import lcone.classify
import lcone.equiv
from lcone.classify import classify_all, principal_form
from lcone.delaunay import delaunay_star
from lcone.equiv import (
    ColoredGraph,
    UnimodularMap,
    _form_canonical,
    automorphism_group,
    canonical_labeling,
    cone_equivalent,
    form_certificate,
    form_equivalence,
)
from lcone.exact import Mat, SymMat, det
from lcone.polyhedral import dv_polytope, incidence_graph
from lcone.scone import cone_facets, secondary_cone
from test_delaunay import _raised_under_optimize
from test_polyhedral import SKEWED_D4
from oracles import (
    automorphism_count,
    canonical_labeling_by_full_search,
    group_order,
    group_order_by_closure,
    refine_by_signatures,
    short_vectors,
    stabilizer_order,
)

A2 = SymMat([[2, 1], [1, 2]])
I2 = SymMat.identity(2)


def random_unimodular(rng, d, entries=3):
    while True:
        u = Mat([[rng.randint(-entries, entries) for _ in range(d)] for _ in range(d)])
        if det(u) in (1, -1):
            return u


def backtrack_isometries(q1, q2):
    """Vector-backtracking isometry search, used as an independent oracle.

    Builds U column by column: column j ranges over lattice vectors of the
    right q1-norm, pruned by the pairwise inner products demanded by q2.
    Returns all U with U^T q1 U = q2.
    """
    d = q1.d
    cand = {}
    for j in range(d):
        want = q2.entry(j, j)
        cand[j] = [v for v in short_vectors(q1, want).vectors
                   if q1.quad(v) == want]
    out = []
    cols = []

    def place(j):
        if j == d:
            u = Mat(cols).transpose()
            if det(u) in (1, -1):
                out.append(u)
            return
        for v in cand[j]:
            if all(q1.bilin(cols[i], v) == q2.entry(i, j) for i in range(j)):
                cols.append(v)
                place(j + 1)
                cols.pop()

    place(0)
    return out


class TestGraphCanonicalization:
    def test_four_cycle(self):
        g = ColoredGraph(4, [0] * 4, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1})
        form, lab, gens, order = canonical_labeling(g)
        assert order == 8

    def test_relabel_invariance(self):
        rng = random.Random(13)
        base_edges = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2, (0, 2): 3}
        g = ColoredGraph(4, [0, 0, 1, 1], base_edges)
        form0, *_ = canonical_labeling(g)
        for _ in range(20):
            perm = list(range(4))
            rng.shuffle(perm)
            edges = {}
            for (i, j), c in base_edges.items():
                a, b = perm[i], perm[j]
                edges[(min(a, b), max(a, b))] = c
            colors = [0] * 4
            for v in range(4):
                colors[perm[v]] = [0, 0, 1, 1][v]
            form1, *_ = canonical_labeling(ColoredGraph(4, colors, edges))
            assert form1 == form0

    def test_bipartite_square_incidence(self):
        n, colors, edges = incidence_graph(dv_polytope(I2))
        form, lab, gens, order = canonical_labeling(ColoredGraph(n, colors, edges))
        assert order == 8   # dihedral group of the square

    def test_different_colorings_differ(self):
        ka = ColoredGraph(3, [0, 0, 1], {(0, 1): 1, (1, 2): 1, (0, 2): 1})
        kb = ColoredGraph(3, [0, 1, 1], {(0, 1): 1, (1, 2): 1, (0, 2): 1})
        assert canonical_labeling(ka)[0] != canonical_labeling(kb)[0]

    def test_group_order_helper(self):
        # symmetric group on 4 points from two generators
        s4 = [(1, 0, 2, 3), (1, 2, 3, 0)]
        assert group_order(4, s4) == 24


def _cycle(degree, points):
    """The permutation of range(degree) sending points[i] to points[i + 1]."""
    p = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        p[a] = b
    return tuple(p)


class TestAgainstOracles:
    @pytest.mark.parametrize("degree, generators, order", [
        (0, [], 1),
        (5, [], 1),
        (5, [tuple(range(5))], 1),
        (7, [_cycle(7, [0, 1, 2, 3, 4, 5, 6])], 7),
        (6, [_cycle(6, [0, 1, 2, 3, 4, 5]), (0, 5, 4, 3, 2, 1)], 12),
        (4, [(1, 0, 2, 3), (1, 2, 3, 0)], 24),
        (5, [_cycle(5, [0, 1]), _cycle(5, [0, 1, 2, 3, 4])], 120),
        (9, [_cycle(9, [0, 1]), _cycle(9, [0, 1, 2]), _cycle(9, [3, 4, 5, 6]),
             _cycle(9, [7, 8])], 6 * 4 * 2),
    ], ids=["degree-0", "trivial", "identity", "cyclic-7", "dihedral-12", "S4", "S5",
            "S3xC4xC2"])
    def test_group_order_known_groups(self, degree, generators, order):
        assert group_order(degree, generators) == order
        assert group_order_by_closure(degree, generators) == order

    def test_group_order_random_generators(self):
        rng = random.Random(23)
        for _ in range(300):
            degree = rng.randint(1, 9)
            gens = []
            for _ in range(rng.randint(0, 3)):
                points = rng.sample(range(degree), rng.randint(1, degree))
                images = points[:]
                rng.shuffle(images)
                g = list(range(degree))
                for a, b in zip(points, images):
                    g[a] = b
                gens.append(tuple(g))
            assert group_order(degree, gens) == group_order_by_closure(degree, gens)

    def test_refine_random_colorings(self):
        # Colours need not be 0, 1, ...; edge colours repeat.
        rng = random.Random(29)
        for _ in range(200):
            n = rng.randint(1, 12)
            edges = {(i, j): rng.choice((1, 2, 5))
                     for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
            graph = ColoredGraph(n, [0] * n, edges)
            colors = [rng.choice((3, 7, 40)) for _ in range(n)]
            assert graph.refine(colors) == refine_by_signatures(graph, colors)

    @staticmethod
    def _individualization_chain(rng, graph, colors):
        """Refine, then individualize a random vertex of a random cell and
        refine from that cell, down to a discrete colouring; every step must
        equal the oracle.  Returns the number of steps."""
        colors = graph.refine(colors)
        assert colors == refine_by_signatures(graph, colors)
        steps = 0
        while True:
            cells = {}
            for v, c in enumerate(colors):
                cells.setdefault(c, []).append(v)
            big = [cell for _, cell in sorted(cells.items()) if len(cell) > 1]
            if not big:
                return steps
            cell = rng.choice(big)
            start = graph.individualize(colors, rng.choice(cell))
            colors = graph.refine(start, cell)
            assert colors == refine_by_signatures(graph, start)
            steps += 1

    def test_refine_after_individualization_random(self, monkeypatch):
        # Random graphs with three edge colours and non-edges, and
        # circulant ones (the colour of {i, j} a function of j - i mod n)
        # under a random relabeling, whose symmetry leaves large cells to
        # individualize: random individualization chains, and the labeling
        # search with every refinement checked.  Restricting the first round
        # to the individualized vertex alone fails on the circulant graphs.
        rng = random.Random(31)
        graphs = []
        for _ in range(150):
            n = rng.randint(1, 12)
            edges = {(i, j): rng.choice((1, 2, 5))
                     for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5}
            graphs.append((ColoredGraph(n, [0] * n, edges),
                           [rng.choice((3, 7, 40)) for _ in range(n)]))
        for _ in range(150):
            n = rng.randint(2, 14)
            colour = {k: rng.choice((1, 2, 5, None)) for k in range(1, n)}
            perm = rng.sample(range(n), n)
            edges = {(perm[i], perm[j]): colour[min(j - i, n - j + i)]
                     for i in range(n) for j in range(i + 1, n)
                     if colour[min(j - i, n - j + i)] is not None}
            graphs.append((ColoredGraph(n, [0] * n, edges), [0] * n))
        steps = sum(self._individualization_chain(rng, graph, colors)
                    for graph, colors in graphs)
        assert steps > 300
        calls = self._checked_refine_calls(monkeypatch)
        for graph, colors in graphs:
            canonical_labeling(ColoredGraph(graph.n, colors, graph.edges))
        assert sum(1 for split in calls if split is not None) > 300

    def test_refine_on_principal_dv_graph(self, monkeypatch):
        # The vertex-facet incidence graph of the DV polytope of
        # principal_form(5), the permutohedron: 720 + 62 nodes.  Every
        # refinement of its labeling search equals the oracle.
        n, colors, edges = incidence_graph(dv_polytope(principal_form(5)))
        assert n == 782
        calls = self._checked_refine_calls(monkeypatch)
        canonical_labeling(ColoredGraph(n, colors, edges))
        assert len(calls) > 1 and all(split is not None for split in calls[1:])

    @staticmethod
    def _checked_refine_calls(monkeypatch) -> list:
        """Check every `ColoredGraph.refine` call from now on against the
        oracle; returns the list of their `split` arguments."""
        refine = ColoredGraph.refine
        calls = []

        def checked_refine(graph, colors, split=None):
            new = refine(graph, colors, split)
            assert new == refine_by_signatures(graph, colors)
            calls.append(split)
            return new

        monkeypatch.setattr(ColoredGraph, "refine", checked_refine)
        return calls

    @pytest.mark.parametrize("d", [3, 4])
    def test_refine_and_group_order_on_databases(self, d, monkeypatch):
        """Every refinement met while classifying, which enriches every
        database cone, equals the oracle colour for colour, those after an
        individualization (refined from the cell that split) included; so
        does the group order of every generator set the search finds.  The
        graphs are those of the central forms and the DV incidence graphs."""
        refined = self._checked_refine_calls(monkeypatch)

        searched = {"form": [], "dv": []}

        def recorded(kind):
            def search(graph):
                out = canonical_labeling(graph)
                searched[kind].append((graph, out[2], out[3]))
                return out
            return search

        monkeypatch.setattr(lcone.equiv, "canonical_labeling", recorded("form"))
        monkeypatch.setattr(lcone.classify, "canonical_labeling", recorded("dv"))
        _form_canonical.cache_clear()
        db = classify_all(d)
        assert len(searched["dv"]) == db.total() <= len(searched["form"])
        searches = len(searched["form"] + searched["dv"])
        assert sum(1 for split in refined if split is None) == searches
        assert len(refined) > 2 * searches
        for graph, gens, order in searched["form"] + searched["dv"]:
            assert order == group_order(graph.n, gens) == group_order_by_closure(graph.n, gens)

    def test_order_matches_brute_force_count(self):
        """The returned order equals a count of automorphisms over all
        permutations, which does not depend on the generators found."""
        rng = random.Random(37)
        nontrivial = 0
        for _ in range(500):
            n = rng.randint(1, 7)
            colors = [rng.choice((0, 0, 0, 4)) for _ in range(n)]
            edges = {}
            for i in range(n):
                for j in range(i + 1, n):
                    c = rng.choice((None, None, 1, 2))
                    if c is not None:
                        edges[(i, j)] = c
            graph = ColoredGraph(n, colors, edges)
            order = canonical_labeling(graph)[3]
            assert order == automorphism_count(graph)
            nontrivial += order > 1
        assert nontrivial > 100

    @pytest.mark.parametrize("edges, order", [
        ([(i, (i + 1) % 5) for i in range(5)]
         + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)], 120),
        ([(a, a ^ b) for a in range(8) for b in (1, 2, 4) if a < a ^ b], 48),
        ([(a, b) for a in range(3) for b in range(3, 6)], 72),
        ([(i, (i + 1) % 7) for i in range(7)], 14),
        ([(a, b) for a in range(9) for b in range(a + 1, 9)
          if a // 3 == b // 3 or a % 3 == b % 3], 72),
    ], ids=["petersen", "cube-3", "K33", "cycle-7", "rook-3x3"])
    def test_named_graph_orders(self, edges, order):
        n = 1 + max(max(e) for e in edges)
        graph = ColoredGraph(n, [0] * n, {e: 1 for e in edges})
        form, lab, gens, got = canonical_labeling(graph)
        assert got == order == group_order(n, gens)


def _labeled_graphs(monkeypatch, run) -> list:
    """The graphs `canonical_labeling` is called on, from `lcone.equiv` and
    `lcone.classify`, while `run()` runs from cold caches; every
    monkeypatch of the test is undone after."""
    graphs = []
    for module in (lcone.equiv, lcone.classify):
        labeling = module.canonical_labeling
        monkeypatch.setattr(module, "canonical_labeling",
                            lambda graph, labeling=labeling: graphs.append(graph) or labeling(graph))
    _form_canonical.cache_clear()
    lcone.classify._candidate_key.cache_clear()
    run()
    monkeypatch.undo()
    return graphs


def _random_graphs(count, seed) -> list:
    """Seeded coloured graphs of up to 16 vertices, each relabeled at
    random, a quarter of each kind: random edges in three colours; random
    3-regular graphs, which refinement leaves in one cell and whose leaves
    mostly differ in form; circulant graphs (the colour of {i, j} a
    function of j - i mod n); and copies of one small random graph.  The
    last two leave large cells to individualize, and the copies have
    product groups."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        kind = len(graphs) % 4
        if kind == 3:
            n = 2 * rng.randint(2, 8)
            colors = [0] * n
            while True:
                ends = [v for v in range(n) for _ in range(3)]
                rng.shuffle(ends)
                edges = {(min(a, b), max(a, b)): 1 for a, b in zip(ends[::2], ends[1::2])}
                if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
                    break
        elif kind == 0:
            n = rng.randint(1, 12)
            colors = [rng.choice((0, 0, 1)) for _ in range(n)]
            edges = {(i, j): rng.choice((1, 2, 5))
                     for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5}
        elif kind == 1:
            n = rng.randint(2, 16)
            colors = [0] * n
            colour = {k: rng.choice((1, 2, 5, None)) for k in range(1, n)}
            edges = {(i, j): colour[min(j - i, n - j + i)]
                     for i in range(n) for j in range(i + 1, n)
                     if colour[min(j - i, n - j + i)] is not None}
        else:
            m = rng.randint(1, 5)
            copies = rng.randint(2, 12 // m)
            n = m * copies
            part = {(i, j): rng.choice((1, 2)) for i in range(m) for j in range(i + 1, m)
                    if rng.random() < 0.6}
            colors = [k % m % 2 for k in range(n)]
            edges = {(c * m + i, c * m + j): e for c in range(copies) for (i, j), e in part.items()}
        perm = rng.sample(range(n), n)
        relabeled = [0] * n
        for v in range(n):
            relabeled[perm[v]] = colors[v]
        graphs.append(ColoredGraph(n, relabeled, {(perm[i], perm[j]): c
                                                  for (i, j), c in edges.items()}))
    return graphs


class TestBackjumping:
    """`canonical_labeling` against the search that encodes every leaf and
    searches below every automorphic one
    (`oracles.canonical_labeling_by_full_search`)."""

    @staticmethod
    def assert_matches_full_search(graphs, monkeypatch) -> tuple:
        """Form, labeling and order equal on every graph, and every
        generator set gives the order; returns the refines of both
        searches."""
        refines = []
        refine = ColoredGraph.refine
        monkeypatch.setattr(ColoredGraph, "refine", lambda graph, colors, split=None:
                            refines.append(split) or refine(graph, colors, split))
        counts = [0, 0]
        for graph in graphs:
            before = len(refines)
            form, lab, gens, order = canonical_labeling(graph)
            middle = len(refines)
            want = canonical_labeling_by_full_search(graph)
            counts[0] += middle - before
            counts[1] += len(refines) - middle
            assert (form, lab, order) == (want[0], want[1], want[3])
            assert group_order(graph.n, gens) == order
        return tuple(counts)

    @pytest.mark.parametrize("d, labelings", [(3, 12), (4, 148)])
    def test_matches_full_search_on_runs(self, d, labelings, monkeypatch):
        # Every central-form and DV graph a classification labels, with
        # fewer refines than the full search.
        graphs = _labeled_graphs(monkeypatch, lambda: classify_all(d))
        assert len(graphs) == labelings
        pruned, full = self.assert_matches_full_search(graphs, monkeypatch)
        assert pruned < full

    def test_matches_full_search_on_forms(self, monkeypatch):
        # The form and DV graphs of the five skewed d = 4 forms of the dvcell
        # workload and of principal_form(5), whose DV polytope is the
        # permutohedron (782 nodes).
        graphs = []
        for q in SKEWED_D4 + [principal_form(5)]:
            graphs += _labeled_graphs(monkeypatch, lambda: form_certificate(q))
            n, colors, edges = incidence_graph(dv_polytope(q))
            graphs.append(ColoredGraph(n, colors, edges))
        assert len(graphs) == 12 and graphs[-1].n == 782
        self.assert_matches_full_search(graphs, monkeypatch)

    def test_matches_full_search_on_random_graphs(self, monkeypatch):
        graphs = _random_graphs(2100, 41)
        assert sum(canonical_labeling(g)[3] > 1 for g in graphs) > 1000
        self.assert_matches_full_search(graphs, monkeypatch)

    def test_fewer_generators_on_principal_form_5(self, monkeypatch):
        # The jumps skip leaves whose maps the full search records, and the
        # fewer generators give the same group.
        graph, = _labeled_graphs(monkeypatch, lambda: _form_canonical(principal_form(5)))
        gens, order = canonical_labeling(graph)[2:]
        want = canonical_labeling_by_full_search(graph)[2]
        assert len(gens) < len(want) and group_order(graph.n, gens) == order == 1440

    def test_equal_forms_without_automorphism_raise(self, monkeypatch):
        # A leaf whose map from the first or least leaf is not an
        # automorphism must have another form; with every form made equal,
        # the Frucht graph (3-regular, no symmetry) raises.
        n = 12
        lcf = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)
        edges = {tuple(sorted((i, (i + k) % n))): 1 for i in range(n) for k in (1, lcf[i])}
        frucht = ColoredGraph(n, [0] * n, edges)
        assert canonical_labeling(frucht)[3] == 1
        monkeypatch.setattr(ColoredGraph, "encode", lambda graph, lab: ())
        with pytest.raises(AssertionError, match="equal leaf forms without an automorphism"):
            canonical_labeling(frucht)
        out = _raised_under_optimize(
            "import lcone.equiv as E\n"
            f"frucht = E.ColoredGraph({n}, [0] * {n}, {edges!r})\n"
            "E.ColoredGraph.encode = lambda graph, lab: ()\n",
            "E.canonical_labeling(frucht)")
        assert out.startswith("raised: equal leaf forms without an automorphism")


class TestCertificates:
    def test_invariance_under_unimodular(self):
        rng = random.Random(31)
        for q in (A2, I2, SymMat([[2, 0, 1], [0, 3, 1], [1, 1, 4]])):
            c0 = form_certificate(q)
            for _ in range(20):
                u = random_unimodular(rng, q.d)
                cu = form_certificate(q.congruence(u))
                assert cu.hash == c0.hash and cu.canon == c0.canon

    def test_mirror_forms_equal(self):
        assert form_certificate(A2).hash == form_certificate(SymMat([[2, -1], [-1, 2]])).hash

    def test_inequivalent_forms_differ(self):
        assert form_certificate(I2).hash != form_certificate(A2).hash

    def test_digest_algorithm(self):
        a = form_certificate(A2, algorithm="md5")
        b = form_certificate(A2, algorithm="sha256")
        assert a.hash != b.hash and len(a.hash) == 32


class TestFormEquivalence:
    def test_diag_swap(self):
        u = form_equivalence(SymMat([[1, 0], [0, 2]]), SymMat([[2, 0], [0, 1]]))
        assert u is not None

    def test_sign_flip(self):
        u = form_equivalence(A2, SymMat([[2, -1], [-1, 2]]))
        assert u is not None

    def test_not_equivalent(self):
        assert form_equivalence(I2, SymMat([[1, 0], [0, 2]])) is None
        assert form_equivalence(I2, A2) is None

    def test_witness_soundness(self):
        rng = random.Random(7)
        for q in (A2, SymMat.identity(3), SymMat([[2, 0, 1], [0, 3, 1], [1, 1, 4]])):
            u0 = random_unimodular(rng, q.d)
            q2 = q.congruence(u0)
            u = form_equivalence(q, q2)
            assert u is not None
            assert q.congruence(u.matrix) == q2
            assert det(u.matrix) in (1, -1)


class TestAutomorphisms:
    @pytest.mark.parametrize("q,order", [
        (I2, 8),
        (A2, 12),
        (SymMat([[1, 0], [0, 2]]), 4),
        (SymMat.identity(3), 48),
        (SymMat.identity(4), 384),
    ])
    def test_orders(self, q, order):
        _, got = automorphism_group(q)
        assert got == order

    def test_brute_force_d2(self):
        def brute(q):
            count = 0
            for ents in itertools.product(range(-2, 3), repeat=4):
                u = Mat([ents[:2], ents[2:]])
                if det(u) in (1, -1) and q.congruence(u) == q:
                    count += 1
            return count

        for q in (I2, A2, SymMat([[1, 0], [0, 2]]), SymMat([[2, 1], [1, 3]])):
            _, order = automorphism_group(q)
            assert order == brute(q)

    def test_generators_fix_form(self):
        maps, order = automorphism_group(A2)
        for m in maps:
            assert A2.congruence(m.matrix) == A2
        assert order % 2 == 0   # -identity always present

    def test_d4_form(self):
        d4 = SymMat([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])
        _, order = automorphism_group(d4)
        assert order == 1152

    @staticmethod
    def assert_generators_give_stabilizer_order(q, maps):
        # One map per permutation generator, and the permutations generate
        # a group of the order of the stabilizer of the cone q is central in.
        cone = secondary_cone(delaunay_star(q))
        _, witness, gens, _ = _form_canonical(q)
        assert cone.central == q and len(maps) == len(gens)
        assert group_order(len(witness), gens) == stabilizer_order(cone)

    def test_one_inverse_per_form(self, monkeypatch):
        # One `inverse` of the characteristic basis per form, however many
        # generators, and no `solve` per generator.
        calls = []
        inverse = lcone.equiv.inverse
        monkeypatch.setattr(lcone.equiv, "inverse", lambda a: calls.append(a) or inverse(a))
        monkeypatch.setattr(lcone.equiv, "solve", None)
        for q in (A2, principal_form(4), principal_form(5)):
            del calls[:]
            maps = automorphism_group(q)[0]
            assert len(calls) == 1
            self.assert_generators_give_stabilizer_order(q, maps)

    def test_no_determinant_per_generator(self, monkeypatch):
        # Each generator's map fixes a positive definite form, which forces
        # det U = +-1, so no determinant is computed for it.
        import lcone.exact
        calls = []
        for module in (lcone.equiv, lcone.exact):
            monkeypatch.setattr(module, "det", lambda a: calls.append(a) or det(a))
        q = principal_form(5)
        maps, _ = automorphism_group(q)
        assert calls == []
        self.assert_generators_give_stabilizer_order(q, maps)
        assert all(det(m.matrix) in (1, -1) for m in maps)

    @pytest.mark.parametrize("q, witness, gen, message", [
        (I2, ((1, 0), (2, 0)), (1, 0), "does not span"),
        (I2, ((1, 0), (1, 2), (2, 1)), (0, 2, 1), "integral map"),
        (I2, ((0, 1), (1, 0), (1, 1)), (0, 2, 1), "linear map"),
        (SymMat([[1, 0], [0, 2]]), ((0, 1), (1, 0), (1, 1)), (1, 0, 2), "fix the form"),
    ], ids=["no-span", "not-integral", "not-linear", "moves-form"])
    def test_extension_checks_raise(self, q, witness, gen, message, monkeypatch):
        # Each check on a generator's map is an explicit raise, so it runs
        # under python -O too; the witness and generator are made up.
        monkeypatch.setattr(lcone.equiv, "_form_canonical",
                            lambda q: ((), witness, (gen,), 2))
        with pytest.raises(AssertionError, match=message):
            automorphism_group(q)

    def test_backtracking_oracle_d3(self):
        # the canonical-labeling route against the direct isometry search
        fcc = SymMat([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        forms = [SymMat.identity(3), fcc,
                 SymMat([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]])]
        for q in forms:
            _, order = automorphism_group(q)
            assert order == len(backtrack_isometries(q, q))

    def test_backtracking_oracle_equivalence(self):
        rng = random.Random(19)
        fcc = SymMat([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        u0 = random_unimodular(rng, 3, 2)
        other = fcc.congruence(u0)
        sols = backtrack_isometries(fcc, other)
        assert sols, "oracle must find an isometry for equivalent forms"
        assert form_equivalence(fcc, other) is not None
        assert form_equivalence(fcc, SymMat.identity(3)) is None
        assert backtrack_isometries(fcc, SymMat.identity(3)) == []


class TestConeEquivalence:
    def test_flip_mirror_cones(self):
        mirror = SymMat([[2, -1], [-1, 2]])
        c1 = secondary_cone(delaunay_star(A2))
        c2 = secondary_cone(delaunay_star(mirror))
        u = cone_equivalent(c1, c2)
        assert u is not None

    def test_cone_vs_facet(self):
        cone = secondary_cone(delaunay_star(A2))
        facet = cone_facets(cone)[0]
        assert cone_equivalent(cone, facet) is None

    def test_transformed_cone(self):
        rng = random.Random(3)
        cone = secondary_cone(delaunay_star(A2))
        u = random_unimodular(rng, 2)
        star2 = delaunay_star(A2.congruence(u))
        cone2 = secondary_cone(star2)
        assert cone_equivalent(cone, cone2) is not None

    def test_stabilizer_orders(self):
        c1 = secondary_cone(delaunay_star(SymMat([[1]])))
        assert stabilizer_order(c1) == 2
        c2 = secondary_cone(delaunay_star(A2))
        assert stabilizer_order(c2) == 12
        facet = [f for f in cone_facets(c2)][0]
        from lcone.scone import contains_pd

        pd_facets = [f for f in cone_facets(c2) if contains_pd(f)]
        assert all(stabilizer_order(f) == 8 for f in pd_facets)

    def test_unimodular_map_validation(self):
        with pytest.raises(ValueError):
            UnimodularMap(Mat([[2, 0], [0, 1]]))
