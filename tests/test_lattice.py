import itertools
import random
from math import isqrt

import pytest

import lcone.lattice
from lcone.classify import principal_form, seed_triangulation
from lcone.exact import Mat, NotPositiveDefinite, Rat, SymMat, _over_common, \
    lattice_span_full, ldlt
from lcone.lattice import _closest, _form_frame, characteristic_set, closest_vectors, \
    enumerate_close
from lcone.scone import cone_facets, contains_pd, secondary_cone
from oracles import closest_by_fractions, short_vectors


A2 = SymMat([[2, 1], [1, 2]])


def _floor_sqrt_rat(x) -> int:
    x = Rat(x)
    return isqrt(x.numerator * x.denominator) // x.denominator


def _max_step(t, r2) -> int:
    """Largest integer x with (x - t)^2 <= r2 (t rational, r2 >= 0)."""
    x = Rat(t).__floor__() + _floor_sqrt_rat(r2) + 2
    while x - t > 0 and (x - t) ** 2 > r2:
        x -= 1
    return x


def _min_step(t, r2) -> int:
    """Smallest integer x with (t - x)^2 <= r2."""
    x = Rat(t).__floor__() - _floor_sqrt_rat(r2) - 2
    while t - x > 0 and (t - x) ** 2 > r2:
        x += 1
    return x


def enumerate_close_by_fractions(q, center, bound):
    """The rational Fincke-Pohst walk that `enumerate_close` replaced.

    Every target, budget and value is a ``Rat``, and each level's range
    steps in from floor-square-root estimates.  Kept as the test oracle.
    """
    lower, diag = ldlt(q)
    if any(x <= 0 for x in diag):
        raise NotPositiveDefinite("form is not positive definite")
    d = q.d
    if bound < 0:
        return []
    c = [Rat(x) for x in center]
    out = []
    x = [0] * d
    total = Rat(bound)

    def descend(i, rem):
        if i < 0:
            out.append((tuple(x), total - rem))
            return
        s = sum(lower.entries[j][i] * (x[j] - c[j]) for j in range(i + 1, d))
        t = c[i] - s
        r2 = rem / diag[i]
        for xi in range(_min_step(t, r2), _max_step(t, r2) + 1):
            used = diag[i] * (xi - t) ** 2
            if used <= rem:
                x[i] = xi
                descend(i - 1, rem - used)
        x[i] = 0

    descend(d - 1, total)
    out.sort()
    return out


def _random_pd(rng, d, off=2):
    while True:
        rows = [[0] * d for _ in range(d)]
        for i in range(d):
            rows[i][i] = rng.randint(2, 2 + 2 * off)
            for j in range(i):
                rows[i][j] = rows[j][i] = rng.randint(-off, off)
        q = SymMat(rows)
        if q.is_positive_definite():
            return q


def _skew(q, rng, ops=2):
    """q in a basis changed by `ops` seeded elementary operations."""
    for _ in range(ops):
        i, j = rng.sample(range(q.d), 2)
        u = [[int(a == b) for b in range(q.d)] for a in range(q.d)]
        u[i][j] = rng.choice((1, -1))
        q = q.congruence(Mat(u))
    return q


def _eps_forms(d, walls, steps=3):
    """wallpoint + eps (wallpoint - center), eps = 1, 1/2, ..., as the wall
    crossing tries them, for the first PD walls of the seed cone."""
    cone = secondary_cone(seed_triangulation(d))
    forms = []
    for facet in [f for f in cone_facets(cone) if contains_pd(f)][:walls]:
        diff = facet.central - cone.central
        for k in range(steps):
            cand = facet.central + diff.scale(Rat(1, 2 ** k))
            if cand.is_positive_definite():
                forms.append(cand)
    return forms


def _seeded_forms():
    """(id, form): seeded integral forms, d = 2..5, and skewed d = 4 forms."""
    rng = random.Random(2024)
    forms = [(f"d{d}-{k}", _random_pd(rng, d)) for d in (2, 3, 4, 5) for k in range(3)]
    face4 = principal_form(4) - SymMat.outer((1, -1, 0, 0))
    skewed4 = SymMat([[3, 2, -2, -1], [2, 13, -8, -4], [-2, -8, 6, 3], [-1, -4, 3, 3]])
    forms += [("skewed4", skewed4)]
    return forms + [(f"skewed4-{k}", _skew(q, rng))
                    for k, q in enumerate((principal_form(4), face4, skewed4))]


FORMS = _seeded_forms()


@pytest.fixture(scope="module")
def eps_forms():
    forms = _eps_forms(3, 2) + _eps_forms(4, 1)
    assert sum(any(Rat(x).denominator > 1 for x in q.lower()) for q in forms) >= 5
    return forms


def _centers(q, rng):
    d = q.d
    yield (0,) * d
    yield tuple(Rat(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6))) for _ in range(d))
    yield tuple(Rat(rng.randint(-10 ** 13, 10 ** 13), 10 ** 12 + 39) for _ in range(d))
    yield tuple(Rat(rng.randint(-40, 40), rng.choice((7, 97, 2 ** 31 - 1))) for _ in range(d))


def _same(q, c, bound):
    got = enumerate_close(q, c, bound)
    want = enumerate_close_by_fractions(q, c, bound)
    assert got == want
    assert [type(val) for _, val in got] == [type(val) for _, val in want]
    return got


class TestEnumerateCloseOracle:
    """The integer walk against the rational one, value types included."""

    @staticmethod
    def check_form(q):
        rng = random.Random(repr(q))
        for c in _centers(q, rng):
            rounded = [round(x) for x in c]
            attained = q.quad([a - b for a, b in zip(rounded, c)])
            for bound in (attained, attained - Rat(1, 10 ** 9),
                          q.entry(0, 0) + Rat(1, 3), q.entry(0, 0) + Rat(1, 10 ** 9 + 7)):
                _same(q, c, bound)
            assert (tuple(rounded), Rat(attained)) in _same(q, c, attained)

    @pytest.mark.parametrize("q", [q for _, q in FORMS], ids=[name for name, _ in FORMS])
    def test_matches_fractions(self, q):
        self.check_form(q)

    def test_matches_fractions_on_wall_crossing_forms(self, eps_forms):
        for q in eps_forms:
            self.check_form(q)

    def test_bounds_zero_and_negative(self):
        rng = random.Random(1)
        for d in (2, 3, 4, 5):
            q = _random_pd(rng, d)
            assert _same(q, (0,) * d, 0) == [((0,) * d, Rat(0))]
            assert _same(q, (Rat(1, 3),) * d, 0) == []
            assert _same(q, (0,) * d, -1) == []
            assert _same(q, (Rat(1, 2),) * d, Rat(-1, 7)) == []

    def test_bound_attained_exactly_on_a_face(self):
        # The deep hole of A2 at (1/3, 1/3) is at 2/3 from three points.
        hits = _same(A2, (Rat(1, 3), Rat(1, 3)), Rat(2, 3))
        assert [v for v, _ in hits] == [(0, 0), (0, 1), (1, 0)]
        assert _same(A2, (Rat(1, 3), Rat(1, 3)), Rat(2, 3) - Rat(1, 10 ** 20)) == []

    def test_closest_vectors_matches_fractions(self, eps_forms):
        rng = random.Random(3)
        for q in [q for _, q in FORMS] + eps_forms:
            for c in _centers(q, rng):
                wide = q.quad([round(x) - x for x in c])
                hits = enumerate_close_by_fractions(q, c, wide)
                least = min(val for _, val in hits)
                assert closest_vectors(q, c) == (least, tuple(v for v, val in hits if val == least))

    def test_closest_matches_fractions_oracle(self, eps_forms):
        # The minimum over the walk's integers, made one ``Rat``, against
        # one ``Rat`` per enumerated point, type for type, on seeded centres
        # and the centres of the DV cell's searches (the coset classes, -c/2).
        rng = random.Random(5)
        for q in [q for _, q in FORMS] + eps_forms + [principal_form(5)]:
            form = _form_frame(q)
            centres = list(_centers(q, rng)) + [
                tuple(Rat(-x, 2) for x in c) for c in itertools.product((0, 1), repeat=q.d)]
            for c in centres:
                got = _closest(form, *_over_common(c))
                assert got == closest_by_fractions(form, *_over_common(c))
                assert type(got[0]) is Rat

    def test_closest_vectors_bound_is_the_nearer_guess(self, monkeypatch, eps_forms):
        # The ball is bounded by the closer of c rounded coordinate-wise and
        # Babai's nearest-plane point, both rounding half up.
        def nearest_plane(q, c):
            lower = ldlt(q)[0].entries
            near = [0] * q.d
            for i in reversed(range(q.d)):
                t = c[i] - sum(lower[j][i] * (near[j] - c[j]) for j in range(i + 1, q.d))
                near[i] = (Rat(t) + Rat(1, 2)).__floor__()
            return near

        bounds = []
        real = lcone.lattice._walk
        monkeypatch.setattr(lcone.lattice, "_walk",
                            lambda frame, d, b: bounds.append(b) or real(frame, d, b))
        rng = random.Random(4)
        for q in [q for _, q in FORMS] + eps_forms:
            for c in _centers(q, rng):
                closest_vectors(q, c)
                guesses = (nearest_plane(q, c), [(Rat(x) + Rat(1, 2)).__floor__() for x in c])
                assert bounds.pop() == min(q.quad([a - b for a, b in zip(v, c)]) for v in guesses)


def brute_short(q, n, radius=6):
    d = q.d
    out = []
    for v in itertools.product(range(-radius, radius + 1), repeat=d):
        if any(v) and q.quad(v) <= n:
            out.append(v)
    return sorted(out)


class TestShortVectors:
    def test_identity(self):
        vs = short_vectors(SymMat.identity(2), 1)
        assert set(vs.vectors) == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_a2(self):
        vs = short_vectors(A2, 2)
        assert len(vs) == 6
        assert set(vs.vectors) == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}

    def test_aniso(self):
        vs = short_vectors(SymMat([[1, 0], [0, 5]]), 4)
        assert set(vs.vectors) == {(1, 0), (-1, 0), (2, 0), (-2, 0)}

    def test_not_pd(self):
        with pytest.raises(NotPositiveDefinite):
            short_vectors(SymMat([[1, 2], [2, 1]]), 1)

    @pytest.mark.parametrize("rows", [[[1, 2], [2, 1]], [[0, 1], [1, 0]], [[1, 1], [1, 1]]],
                             ids=["indefinite", "zero-pivot", "singular"])
    def test_not_pd_forms(self, rows):
        with pytest.raises(NotPositiveDefinite):
            short_vectors(SymMat(rows), 1)

    def test_kernel_fault_propagates(self, monkeypatch):
        # Only a zero pivot means "not positive definite"; any other failure
        # of the factorization is a fault and must surface as itself.
        def broken(q):
            raise TypeError("broken kernel")

        monkeypatch.setattr(lcone.lattice, "ldlt", broken)
        with pytest.raises(TypeError, match="broken kernel"):
            short_vectors(SymMat.identity(2), 2)

    def test_lex_order(self):
        vs = short_vectors(A2, 4)
        assert list(vs.vectors) == sorted(vs.vectors)

    def test_brute_force_agreement(self):
        rng = random.Random(11)
        for _ in range(10):
            d = rng.choice([2, 3])
            while True:
                rows = [[0] * d for _ in range(d)]
                for i in range(d):
                    rows[i][i] = rng.randint(1, 4)
                    for j in range(i):
                        rows[i][j] = rows[j][i] = rng.randint(-1, 1)
                q = SymMat(rows)
                if q.is_positive_definite():
                    break
            n = rng.randint(1, 5)
            assert list(short_vectors(q, n).vectors) == brute_short(q, n)

    def test_brute_force_agreement_d4(self):
        q = SymMat([[4, -1, -1, -1], [-1, 4, -1, -1],
                    [-1, -1, 4, -1], [-1, -1, -1, 4]])
        assert list(short_vectors(q, 6).vectors) == brute_short(q, 6, radius=3)
        fcc4 = SymMat([[2, 1, 1, 0], [1, 2, 1, 1], [1, 1, 2, 1], [0, 1, 1, 2]])
        assert list(short_vectors(fcc4, 4).vectors) == brute_short(fcc4, 4, radius=4)


class TestClosestVectors:
    def test_center_symmetric(self):
        best, mins = closest_vectors(SymMat.identity(2), (Rat(1, 2), Rat(1, 2)))
        assert best == Rat(1, 2)
        assert set(mins) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_lattice_point(self):
        best, mins = closest_vectors(SymMat.identity(2), (0, 0))
        assert best == 0 and mins == ((0, 0),)

    def test_a2_deep_hole(self):
        best, mins = closest_vectors(A2, (Rat(1, 3), Rat(1, 3)))
        assert best == Rat(2, 3)
        assert set(mins) == {(0, 0), (1, 0), (0, 1)}

    def test_translation_equivariance(self):
        rng = random.Random(5)
        for _ in range(10):
            c = (Rat(rng.randint(-3, 3), 7), Rat(rng.randint(-3, 3), 5))
            w = (rng.randint(-2, 2), rng.randint(-2, 2))
            b1, m1 = closest_vectors(A2, c)
            b2, m2 = closest_vectors(A2, (c[0] + w[0], c[1] + w[1]))
            assert b1 == b2
            assert set(m2) == {(v[0] + w[0], v[1] + w[1]) for v in m1}


    def test_skewed_form_matches_rounded_bound(self):
        # On a skewed form the ball through c rounded coordinate-wise is
        # wide; enumerating it gives the same minimum and minimizers.
        q = SymMat([[3, 2, -2, -1], [2, 13, -8, -4], [-2, -8, 6, 3], [-1, -4, 3, 3]])
        rng = random.Random(7)
        for _ in range(20):
            c = tuple(Rat(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(4))
            wide = q.quad([round(x) - x for x in c])
            hits = enumerate_close(q, c, wide)
            least = min(val for _, val in hits)
            assert closest_vectors(q, c) == (least, tuple(v for v, val in hits if val == least))


class TestCharacteristicSet:
    def test_identity3(self):
        cs = characteristic_set(SymMat.identity(3))
        assert len(cs) == 6 and cs.norm_bound == 1

    def test_a2(self):
        cs = characteristic_set(A2)
        assert len(cs) == 6 and cs.norm_bound == 2

    def test_aniso(self):
        cs = characteristic_set(SymMat([[1, 0], [0, 5]]))
        assert set(cs.vectors) == {(1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (0, -1)}
        assert cs.norm_bound == 5

    def test_always_spans(self):
        rng = random.Random(3)
        for _ in range(8):
            rows = [[rng.randint(1, 5) if i == j else 0 for j in range(3)] for i in range(3)]
            for i in range(3):
                for j in range(i):
                    rows[i][j] = rows[j][i] = rng.randint(-1, 1)
            q = SymMat(rows)
            if not q.is_positive_definite():
                continue
            cs = characteristic_set(q)
            assert lattice_span_full(cs.vectors, 3)

    def test_unimodular_equivariance(self):
        from lcone.exact import Mat

        rng = random.Random(17)
        count = 0
        while count < 6:
            u = Mat([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
            from lcone.exact import det

            if det(u) not in (1, -1):
                continue
            count += 1
            q2 = A2.congruence(u)
            cs1 = characteristic_set(A2)
            cs2 = characteristic_set(q2)
            from lcone.exact import inverse

            ui = inverse(u)
            mapped = {tuple(int(x) for x in ui.mul_vec(v)) for v in cs1.vectors}
            assert mapped == set(cs2.vectors)
