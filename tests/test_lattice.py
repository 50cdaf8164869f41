import itertools
import random

import pytest

import lcone.lattice
from lcone.exact import NotPositiveDefinite, Rat, SymMat, lattice_span_full
from lcone.lattice import characteristic_set, closest_vectors, enumerate_close, short_vectors


A2 = SymMat([[2, 1], [1, 2]])


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
