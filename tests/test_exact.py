import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcone.exact import (
    Mat,
    Rat,
    SingularMatrix,
    SymMat,
    ZeroInput,
    ZeroPivotNotPD,
    clear_denominators,
    det,
    echelon,
    format_form,
    gcd_normalize,
    inverse,
    lattice_span_full,
    ldlt,
    nullspace,
    parse_form,
    rank,
    rank_of_rows,
    solve,
)


def sym(rows):
    return SymMat(rows)


class TestLdlt:
    def test_identity(self):
        lower, diag = ldlt(SymMat.identity(2))
        assert lower == Mat.identity(2)
        assert diag == (1, 1)

    def test_a2(self):
        q = sym([[2, 1], [1, 2]])
        lower, diag = ldlt(q)
        assert lower.entries == ((1, 0), (Rat(1, 2), 1))
        assert diag == (2, Rat(3, 2))

    def test_indefinite(self):
        q = sym([[1, 2], [2, 1]])
        _, diag = ldlt(q)
        assert diag == (1, -3)
        assert not q.is_positive_definite()

    def test_zero_pivot(self):
        with pytest.raises(ZeroPivotNotPD):
            ldlt(sym([[0, 1], [1, 0]]))

    def test_reconstruction(self):
        for rows in [
            [[2, 1, 0], [1, 3, 1], [0, 1, 4]],
            [[5, 2], [2, 1]],
            [[Rat(1, 2), Rat(1, 3)], [Rat(1, 3), Rat(1, 2)]],
        ]:
            q = sym(rows)
            lower, diag = ldlt(q)
            d = q.d
            dm = Mat([[diag[i] if i == j else 0 for j in range(d)] for i in range(d)])
            assert (lower @ dm @ lower.transpose()).entries == q.to_mat().entries


class TestSolve:
    def test_identity(self):
        assert solve(Mat.identity(3), (1, 2, 3)) == (1, 2, 3)

    def test_a2(self):
        assert solve(Mat([[2, 1], [1, 2]]), (1, 1)) == (Rat(1, 3), Rat(1, 3))

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            solve(Mat([[1, 1], [1, 1]]), (1, 2))

    @given(st.lists(st.integers(-5, 5), min_size=9, max_size=9),
           st.lists(st.integers(-4, 4), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, entries, x):
        a = Mat([entries[0:3], entries[3:6], entries[6:9]])
        if det(a) == 0:
            return
        b = a.mul_vec(x)
        assert solve(a, b) == tuple(x)


def _random_matrix(rng, n, rational):
    def entry():
        x = rng.randint(-6, 6)
        return Rat(x, rng.randint(1, 5)) if rational else x
    return Mat([[entry() for _ in range(n)] for _ in range(n)])


def inverse_by_columns(a):
    """One `solve` per column of the identity: the reference for `inverse`."""
    n = a.rows
    return Mat.from_cols([solve(a, [1 if i == j else 0 for i in range(n)]) for j in range(n)])


class TestInverse:
    @pytest.mark.parametrize("rational", [False, True])
    def test_matches_column_solves(self, rational):
        rng = random.Random(7 + rational)
        done = 0
        while done < 40:
            a = _random_matrix(rng, rng.randint(1, 7), rational)
            if det(a) == 0:
                continue
            inv = inverse(a)
            assert inv == inverse_by_columns(a)
            assert a @ inv == Mat.identity(a.rows)
            done += 1

    def test_block_solve_matches_vector_solves(self):
        rng = random.Random(3)
        a = _random_matrix(rng, 5, True)
        b = Mat([[rng.randint(-4, 4) for _ in range(3)] for _ in range(5)])
        x = solve(a, b)
        assert x == Mat.from_cols([solve(a, b.col(j)) for j in range(3)])

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            inverse(Mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))
        with pytest.raises(SingularMatrix):
            inverse(Mat([[Rat(1, 2), 1], [1, 2]]))


def nullspace_by_columns(rows):
    """Column-by-column Gauss-Jordan null space: the reference for `nullspace`."""
    cols = len(rows[0])
    m = [[Rat(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Rat(0)] * cols
        v[fc] = Rat(1)
        for prow, pcol in enumerate(pivots):
            v[pcol] = -m[prow][fc]
        basis.append(clear_denominators(v))
    return basis


def independent_rows_by_rank(rows):
    """First linearly independent rows, one rank computation per row."""
    chosen, acc = [], []
    for idx, row in enumerate(rows):
        if rank_of_rows(acc + [row]) > len(acc):
            chosen.append(idx)
            acc.append(row)
    return chosen


class TestEchelon:
    def test_matches_references(self):
        rng = random.Random(11)
        for _ in range(200):
            cols = rng.randint(1, 8)
            rows = [[rng.choice((0, 0, 1, -1, 2, Rat(1, 3))) for _ in range(cols)]
                    for _ in range(rng.randint(1, 9))]
            if rng.random() < 0.5:  # add dependent rows
                rows.append([x + 2 * y for x, y in zip(rows[0], rows[-1])])
            ech = echelon(rows)
            assert ech.nullspace() == nullspace_by_columns(rows)
            assert list(ech.independent) == independent_rows_by_rank(rows)
            assert len(ech.pivots) == rank_of_rows(rows)
            assert all(row[p] == 1 for row, p in zip(ech.rows, ech.pivots))


class TestRankDet:
    def test_rank(self):
        assert rank(Mat.identity(4)) == 4
        assert rank(Mat([[1, 1], [1, 1]])) == 1
        assert rank(Mat([[0, 1], [1, 0]])) == 2

    def test_det(self):
        assert det(Mat([[0, 1], [1, 0]])) == -1
        assert det(Mat([[2, 1], [1, 2]])) == 3
        assert det(Mat([[1, 2], [2, 1]])) == -3
        assert det(Mat([[Rat(1, 2), 0], [0, Rat(1, 3)]])) == Rat(1, 6)


class TestGcdNormalize:
    def test_plain(self):
        assert gcd_normalize((2, 4, 6)) == (1, 2, 3)

    def test_sign_convention(self):
        assert gcd_normalize((-3, 0, 6)) == (1, 0, -2)

    def test_zero(self):
        with pytest.raises(ZeroInput):
            gcd_normalize((0, 0))

    def test_symmat(self):
        q = gcd_normalize(SymMat([[2, 4], [4, 6]]))
        assert q.entries == ((1, 2), (2, 3))

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, v):
        if not any(v):
            return
        once = gcd_normalize(tuple(v))
        assert gcd_normalize(once) == once


class TestLatticeSpan:
    def test_standard(self):
        assert lattice_span_full([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)

    def test_index_two(self):
        assert not lattice_span_full([(2, 0), (0, 1)], 2)

    def test_checkerboard(self):
        assert not lattice_span_full([(1, 1), (1, -1)], 2)

    def test_brute_force_agreement(self):
        # Exhaustive cross-check against direct membership of the standard
        # basis in the integer span, for tiny vector sets.
        import itertools

        def brute(vectors, d):
            # integer span contains e_i iff it has a solution; search small
            # coefficient boxes (enough for entries in {-2..2}, d <= 2)
            vecs = [v for v in vectors if any(v)]
            if not vecs:
                return False
            coeffs = range(-3, 4)
            span = set()
            for combo in itertools.product(coeffs, repeat=len(vecs)):
                pt = tuple(sum(c * v[i] for c, v in zip(combo, vecs)) for i in range(d))
                span.add(pt)
            return all(tuple(1 if i == j else 0 for i in range(d)) in span
                       for j in range(d))

        d = 2
        pool = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
        import random

        rng = random.Random(7)
        for _ in range(40):
            vectors = rng.sample(pool, rng.randint(1, 3))
            assert lattice_span_full(vectors, d) == brute(vectors, d)


class TestNullspace:
    def test_simple(self):
        basis = nullspace([[1, 1, 0]])
        assert len(basis) == 2
        for v in basis:
            assert v[0] + v[1] == 0 or (v[0] == 0 and v[1] == 0) or v[2] != 0
            assert sum(a * b for a, b in zip((1, 1, 0), v)) == 0

    def test_full_rank(self):
        assert nullspace([[1, 0], [0, 1]]) == []


class TestFormFormat:
    def test_roundtrip(self):
        q = SymMat([[2, 1], [1, 2]])
        assert parse_form(format_form(q)) == q

    def test_fractions(self):
        q = SymMat([[Rat(3, 2), 0], [0, 1]])
        text = format_form(q)
        assert "3/2" in text
        assert parse_form(text) == q

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_form("2 1 0")
