import os
import random
import subprocess
import sys

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
    _norm,
    _over_common,
    clear_denominators,
    det,
    echelon,
    format_form,
    gcd_normalize,
    inverse,
    lattice_span_full,
    ldlt,
    parse_form,
    rank,
    rank_of_rows,
    solve,
)
from oracles import congruence_by_products, ldlt_by_fractions


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
    return Mat([solve(a, [1 if i == j else 0 for i in range(n)]) for j in range(n)]).transpose()


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
        assert x == Mat([solve(a, col) for col in zip(*b.entries)]).transpose()

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            inverse(Mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))
        with pytest.raises(SingularMatrix):
            inverse(Mat([[Rat(1, 2), 1], [1, 2]]))


def _typed(x):
    """Entries with their types, so that 1 and Rat(1) differ."""
    if isinstance(x, tuple):
        return tuple(_typed(y) for y in x)
    return type(x).__name__, x


_ENTRIES = {
    "integer": st.integers(-6, 6),
    "rational": st.fractions(min_value=-6, max_value=6, max_denominator=5),
}


@st.composite
def _form_and_map(draw):
    """A symmetric form with integer or rational entries and a square U:
    unimodular (a signed permutation times shears), integer or rational."""
    d = draw(st.integers(1, 5))
    q = SymMat.from_lower(d, draw(st.lists(draw(st.sampled_from(list(_ENTRIES.values()))),
                                           min_size=d * (d + 1) // 2,
                                           max_size=d * (d + 1) // 2)))
    kind = draw(st.sampled_from(["unimodular", "integer", "rational"]))
    if kind == "unimodular":
        perm = draw(st.permutations(range(d)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
        rows = [[signs[i] if j == perm[i] else 0 for j in range(d)] for i in range(d)]
        for _ in range(draw(st.integers(0, 4)) if d > 1 else 0):
            i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
            c = draw(st.integers(-3, 3))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    else:
        entry = _ENTRIES[kind]
        rows = [draw(st.lists(entry, min_size=d, max_size=d)) for _ in range(d)]
    return q, Mat(rows)


class TestCongruence:
    @given(_form_and_map())
    @settings(max_examples=200, deadline=None)
    def test_matches_products_oracle(self, qu):
        # One pass, normalized once, against two `Mat` products: value for
        # value and type for type.
        q, u = qu
        got, want = q.congruence(u), congruence_by_products(q, u)
        assert got == want and hash(got) == hash(want)
        assert _typed(got.entries) == _typed(want.entries)

    def test_types(self):
        half = Mat([[Rat(1, 2), 0], [0, 2]])
        got = SymMat([[4, 1], [1, 2]]).congruence(half)
        assert _typed(got.entries) == (((("int", 1), ("int", 1)), (("int", 1), ("int", 8))))
        got = SymMat([[1, 0], [0, 1]]).congruence(half)
        assert _typed(got.entries[0]) == (("Fraction", Rat(1, 4)), ("int", 0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            SymMat.identity(2).congruence(Mat.identity(3))

    def test_from_lower_normalizes_once(self):
        q = SymMat.from_lower(2, [Rat(4, 2), Rat(1, 2), 3])
        assert _typed(q.entries) == ((("int", 2), ("Fraction", Rat(1, 2))),
                                     (("Fraction", Rat(1, 2)), ("int", 3)))
        assert q == SymMat([[2, Rat(1, 2)], [Rat(1, 2), 3]])
        assert hash(q) == hash(SymMat([[2, Rat(1, 2)], [Rat(1, 2), 3]]))


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


def _seeded_rows(seed, count=200):
    """Seeded row lists of 1 to 8 columns with integer, rational and zero
    entries, half of them with a dependent row appended."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        cols = rng.randint(1, 8)
        rows = [[rng.choice((0, 0, 1, -1, 2, Rat(1, 3))) for _ in range(cols)]
                for _ in range(rng.randint(1, 9))]
        if rng.random() < 0.5:  # add dependent rows
            rows.append([x + 2 * y for x, y in zip(rows[0], rows[-1])])
        out.append(rows)
    return out


class TestEchelon:
    def test_matches_references(self):
        for rows in _seeded_rows(11):
            ech = echelon(rows)
            assert ech.nullspace() == nullspace_by_columns(rows)
            assert list(ech.independent) == independent_rows_by_rank(rows)
            assert len(ech.pivots) == rank_by_elimination(Mat(rows))
            assert all(row[p] == ech.scale for row, p in zip(ech.rows, ech.pivots))

    def _row_sets(self):
        return _seeded_rows(12) + [[list(r) for r in a.entries] for a in _seeded_squares(13)]

    def test_matches_fractions(self):
        for rows in self._row_sets():
            ech = echelon(rows)
            want_rows, want_pivots, want_independent, want_null = echelon_by_fractions(rows)
            assert ech.pivots == want_pivots
            assert ech.independent == want_independent
            assert ech.nullspace() == want_null
            assert [[Rat(x, ech.scale) for x in row] for row in ech.rows] == want_rows

    def test_integer_rows_positive_scale(self):
        for rows in self._row_sets():
            ech = echelon(rows)
            assert ech.scale > 0
            assert all(type(x) is int for row in ech.rows for x in row)

    def test_integer_input_needs_no_fractions(self, monkeypatch):
        import lcone.exact

        def no_fractions(*args):
            raise AssertionError("Rat used on integer input")

        a = Mat([[2, 1, 0, 3], [1, 2, 1, 0], [0, 1, 2, 5], [4, 2, 0, 6]])
        monkeypatch.setattr(lcone.exact, "Rat", no_fractions)
        ech = echelon(a.entries)
        assert ech.pivots == (0, 1, 2) and ech.independent == (0, 1, 2)
        assert rank(a) == 3
        assert ech.nullspace() == [(-7, 8, -9, 2)]
        assert det(a) == 0
        assert det(Mat([[2, 1], [1, 2]])) == 3
        assert det(Mat([[0, 1], [1, 0]])) == -1


# The elimination loops that `echelon` and `ldlt` replaced, kept as references
# for `echelon`, `solve`, `rank`, `is_positive_semidefinite` and `det`.


def solve_by_gauss_jordan(a, b):
    """Gauss-Jordan over [A | B] with row swaps: the reference for `solve`."""
    n = a.rows
    block = isinstance(b, Mat)
    rhs = b.entries if block else [(x,) for x in b]
    m = [[Rat(x) for x in row + r] for row, r in zip(a.entries, rhs)]
    width = len(m[0]) if m else n
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise SingularMatrix("singular system")
        m[col], m[piv] = m[piv], m[col]
        prow = m[col]
        pv = prow[col]
        for r in range(n):
            row = m[r]
            if r != col and row[col] != 0:
                f = row[col] / pv
                for c in range(col, width):
                    if prow[c]:
                        row[c] -= f * prow[c]
    x = [[_norm(m[i][c] / m[i][i]) for c in range(n, width)] for i in range(n)]
    return Mat(x) if block else tuple(row[0] for row in x)


def rank_by_elimination(a):
    """Row echelon form by Gaussian elimination: the reference for `rank`."""
    m = [[Rat(x) for x in row] for row in a.entries]
    rows, cols = a.rows, a.cols
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][col]
        for i in range(r + 1, rows):
            if m[i][col] != 0:
                f = m[i][col] / pv
                for j in range(col, cols):
                    m[i][j] -= f * m[r][j]
        r += 1
        if r == rows:
            break
    return r


def psd_by_elimination(rows):
    """Symmetric elimination that stops at a negative pivot or at a zero
    pivot over a nonzero column: the reference for `is_positive_semidefinite`."""
    a = [[Rat(x) for x in row] for row in rows]
    n = len(a)
    for k in range(n):
        p = a[k][k]
        if p < 0:
            return False
        if p == 0:
            if any(a[i][k] != 0 for i in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = a[i][k] / p
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return True


def echelon_by_fractions(rows):
    """The rational `echelon` that the fraction-free pass replaced: each kept
    row is normalized to pivot 1.  Returns the reduced rows, their pivots,
    the independent row indices and the null-space basis."""
    cols = len(rows[0])
    kept = {}
    independent = []
    for idx, row in enumerate(rows):
        v = list(row)
        for pc, b in kept.items():
            f = v[pc]
            if f:
                v = [x - f * y if y else x for x, y in zip(v, b)]
        pc = next((j for j, x in enumerate(v) if x), None)
        if pc is None:
            continue
        p = Rat(v[pc])
        v = [x / p if x else 0 for x in v]
        for c, b in kept.items():
            f = b[pc]
            if f:
                kept[c] = [x - f * y if y else x for x, y in zip(b, v)]
        kept[pc] = v
        independent.append(idx)
        if len(kept) == cols:
            break
    pivots = tuple(sorted(kept))
    null = []
    for fc in (c for c in range(cols) if c not in kept):
        v = [0] * cols
        v[fc] = 1
        for pc in pivots:
            v[pc] = -kept[pc][fc]
        null.append(clear_denominators(v))
    return [kept[c] for c in pivots], pivots, tuple(independent), null


def det_by_bareiss(a):
    """Fraction-free Bareiss elimination with row swaps, on the rows scaled
    to primitive integer ones: the reference for `det`."""
    n = a.rows
    if n == 0:
        return 1
    m = []
    scale = Rat(1)
    for row in a.entries:
        ints = clear_denominators(row)
        j = next((j for j, x in enumerate(ints) if x), None)
        if j is None:
            return 0
        scale = scale * ints[j] / row[j]
        m.append(list(ints))
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (pkk * m[i][j] - mik * m[k][j]) // prev
            m[i][k] = 0
        prev = pkk
    return _norm(sign * m[n - 1][n - 1] / scale)


def det_by_elimination(a):
    """Product of the pivots of rational Gaussian elimination, with the sign
    of the row swaps: the reference for `det`."""
    n = a.rows
    m = [[Rat(x) for x in row] for row in a.entries]
    sign = 1
    result = Rat(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pv = m[col][col]
        result *= pv
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] / pv
                for j in range(col, n):
                    m[i][j] -= f * m[col][j]
    return _norm(sign * result)


def _seeded_squares(seed, count=160):
    """Seeded square matrices of order 1 to 8, integer and rational, each
    nonsingular, singular (a row combining two others) or with a zero row."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = rng.randint(1, 8)
        rows = [list(r) for r in _random_matrix(rng, n, k % 2 == 1).entries]
        kind = k % 3
        if kind == 1:
            i, j, l = (rng.randrange(n) for _ in range(3))
            rows[i] = [rng.choice((1, -2, Rat(1, 2))) * x + 3 * y
                       for x, y in zip(rows[j], rows[l])] if n > 1 else [0]
        elif kind == 2:
            rows[rng.randrange(n)] = [0] * n
        out.append(Mat(rows))
    return out


def _seeded_symmetric(seed, count=160):
    """Seeded symmetric matrices of order 1 to 8: Gram matrices B^T B with
    repeated or zero columns of B (PSD with zero pivots), and random
    symmetric ones (mostly indefinite), integer and rational."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = rng.randint(1, 8)
        rational = k % 2 == 1
        if k % 4 < 2:
            cols = [[rng.randint(-3, 3) for _ in range(rng.randint(1, n))]]
            for _ in range(n - 1):
                pick = rng.random()
                if pick < 0.25:
                    cols.append([0] * len(cols[0]))
                elif pick < 0.5:
                    cols.append(list(rng.choice(cols)))
                else:
                    cols.append([rng.randint(-3, 3) for _ in range(len(cols[0]))])
            b = Mat(cols).transpose()
            g = b.transpose() @ b
            scale = Rat(1, rng.randint(2, 5)) if rational else 1
            out.append(SymMat([[scale * x for x in row] for row in g.entries]))
        else:
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    x = rng.choice((0, 0, 1, -1, 2, 3))
                    if rational and x:
                        x = Rat(x, rng.randint(1, 4))
                    rows[i][j] = rows[j][i] = x
            out.append(SymMat(rows))
    return out


def _seeded_ldlt_forms(seed, count=600):
    """Seeded symmetric forms of order 0 to 6, integral or scaled by a
    rational: positive definite Gram matrices, singular PSD ones (a repeated
    column), rank one, indefinite, and indefinite with a zero first pivot.
    Every other rational one has an extra rational off-diagonal pair."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = rng.randint(0, 6)
        kind = k % 5
        if kind < 3:
            rows = n if kind == 0 else 1 if kind == 2 else rng.randint(1, n or 1)
            b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rows)]
            if kind == 0:
                for i, r in enumerate(b):
                    r[i] += 7          # diagonally dominant, so B is nonsingular
            elif kind == 1 and n > 1:
                i, j = rng.sample(range(n), 2)
                for r in b:
                    r[j] = r[i]
            g = [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
        else:
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    g[i][j] = g[j][i] = rng.choice((0, 0, 1, -1, 2, 3))
            if kind == 4 and n:
                g[0][0] = 0
        if k % 2:
            s = Rat(rng.randint(1, 5), rng.randint(2, 7))
            g = [[s * x for x in r] for r in g]
            if n > 1 and k % 4 == 1:
                i, j = rng.sample(range(n), 2)
                x = Rat(rng.randint(-5, 5), rng.randint(2, 9))
                g[i][j] += x
                g[j][i] += x
        out.append(SymMat(g))
    return out


def _same(x, y):
    """Equal values of equal types, so serialized results cannot differ."""
    return x == y and repr(x) == repr(y)


class TestFoldedKernels:
    def test_solve_matches_gauss_jordan(self):
        rng = random.Random(21)
        singular = 0
        for a in _seeded_squares(21):
            n = a.rows
            vec = [rng.choice((rng.randint(-5, 5), Rat(rng.randint(-5, 5), 3))) for _ in range(n)]
            width = rng.randint(1, 3)
            blk = Mat([[rng.randint(-4, 4) for _ in range(width)] for _ in range(n)])
            for b in (vec, blk, Mat.identity(n)):
                try:
                    want = solve_by_gauss_jordan(a, b)
                except SingularMatrix:
                    singular += 1
                    with pytest.raises(SingularMatrix):
                        solve(a, b)
                    continue
                assert _same(solve(a, b), want)
        assert 100 < singular < 300

    def test_inverse_matches_gauss_jordan(self):
        for a in _seeded_squares(22):
            try:
                want = solve_by_gauss_jordan(a, Mat.identity(a.rows))
            except SingularMatrix:
                with pytest.raises(SingularMatrix):
                    inverse(a)
                continue
            assert _same(inverse(a), want)

    def test_rank_matches_elimination(self):
        rng = random.Random(23)
        mats = _seeded_squares(23)
        for _ in range(120):   # non-square, with zero and repeated rows
            cols = rng.randint(1, 8)
            rows = [[rng.choice((0, 0, 1, -1, 2, Rat(1, 3))) for _ in range(cols)]
                    for _ in range(rng.randint(1, 8))]
            rows.append(list(rng.choice(rows)))
            rows.insert(rng.randrange(len(rows)), [0] * cols)
            mats.append(Mat(rows))
        for a in mats:
            assert rank(a) == rank_by_elimination(a)
            assert rank_of_rows([list(r) for r in a.entries]) == rank_by_elimination(a)
        assert rank_of_rows([]) == 0

    def test_det_matches_elimination(self):
        zero = 0
        for a in _seeded_squares(24):
            want = det_by_elimination(a)
            zero += want == 0
            assert _same(det(a), want)
            assert _same(det_by_bareiss(a), want)
        assert 50 < zero < 110

    def test_psd_matches_elimination(self):
        verdicts = {True: 0, False: 0}
        zero_pivots = raised = 0
        for q in _seeded_symmetric(25):
            want = psd_by_elimination(q.entries)
            verdicts[want] += 1
            assert q.is_positive_semidefinite() == want
            try:
                _, diag = ldlt(q)
            except ZeroPivotNotPD:
                assert not want          # a PSD form never raises
                raised += 1
                continue
            zero_pivots += want and 0 in diag
        assert min(verdicts.values()) > 40
        assert zero_pivots > 20 and raised > 5

    def test_ldlt_matches_fractions(self):
        seen = {"pd": 0, "zero": 0, "negative": 0, "raised": 0, "rational": 0}
        for q in _seeded_ldlt_forms(26):
            seen["rational"] += not q.is_integral()
            try:
                want = ldlt_by_fractions(q)
            except ZeroPivotNotPD as exc:
                with pytest.raises(ZeroPivotNotPD, match=str(exc)):
                    ldlt(q)
                seen["raised"] += 1
                continue
            lower, diag = ldlt(q)
            assert _same(lower, want[0])
            assert len(diag) == len(want[1]) and all(map(_same, diag, want[1]))
            seen["pd"] += all(x > 0 for x in diag)
            seen["zero"] += 0 in diag
            seen["negative"] += any(x < 0 for x in diag)
        assert min(seen.values()) > 40, seen
        assert ldlt(SymMat([])) == (Mat([]), ())

    def test_singular_raises_under_O(self):
        # `assert False` passes only if -O stripped asserts.
        script = (
            "from lcone.exact import Mat, SingularMatrix, inverse, solve\n"
            "assert False, 'asserts are on'\n"
            "a = Mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])\n"
            "for f in (lambda: solve(a, (1, 2, 3)), lambda: inverse(a)):\n"
            "    try:\n"
            "        print('returned', f())\n"
            "    except SingularMatrix:\n"
            "        print('raised')\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["raised", "raised"]


class TestKernelFailurePropagates:
    """Callers turn only `SingularMatrix` into their own failure; any other
    error inside the kernel propagates."""

    @staticmethod
    def _broken(*args):
        raise TypeError("broken kernel")

    def test_circumcenter(self, monkeypatch):
        import lcone.delaunay
        from lcone.exact import AffinelyDependent

        pts = [(0, 0), (1, 0), (0, 1)]
        with pytest.raises(AffinelyDependent):
            lcone.delaunay.circumcenter(SymMat.identity(2), [(0, 0), (1, 0), (2, 0)])
        monkeypatch.setattr(lcone.delaunay, "echelon", self._broken)
        with pytest.raises(TypeError, match="broken kernel"):
            lcone.delaunay.circumcenter(SymMat.identity(2), pts)

    def test_regulator(self, monkeypatch):
        # The walls of a triangulation's adjacent pairs, one `echelon` per
        # class key: a flat key is the kernel's own failure.
        import lcone.delaunay
        from lcone.delaunay import NotATriangulation, delaunay_star

        with pytest.raises(NotATriangulation):
            lcone.delaunay._facet_pairs((((0, 0), (1, 0), (3, 0)), ((0, 0), (2, 0), (3, 0))))
        keys = delaunay_star(sym([[2, 1], [1, 2]])).keys
        monkeypatch.setattr(lcone.delaunay, "echelon", self._broken)
        with pytest.raises(TypeError, match="broken kernel"):
            lcone.delaunay._facet_pairs(keys)

    def test_ldlt(self, monkeypatch):
        import lcone.exact

        with pytest.raises(ZeroPivotNotPD):
            ldlt(sym([[0, 1], [1, 0]]))
        ldlt.cache_clear()
        monkeypatch.setattr(lcone.exact, "echelon", self._broken)
        for q in (sym([[0, 1], [1, 0]]), sym([[2, 1], [1, 2]])):
            with pytest.raises(TypeError, match="broken kernel"):
                ldlt(q)

    def test_linear_map_from_vector_match(self, monkeypatch):
        import lcone.equiv

        match = lcone.equiv._linear_map_from_vector_match
        assert match([(1, 0), (2, 0)], [(1, 0), (2, 0)], 2) is None   # no span
        assert match([(0, 1), (1, 0)], [(1, 0), (0, 1)], 2) == Mat([[0, 1], [1, 0]])
        monkeypatch.setattr(lcone.equiv, "solve", self._broken)
        with pytest.raises(TypeError, match="broken kernel"):
            match([(0, 1), (1, 0)], [(1, 0), (0, 1)], 2)


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


class TestOverCommon:
    @staticmethod
    def _least_common_denominator(values):
        return next(m for m in range(1, 10 ** 6) if all((x * m) % 1 == 0 for x in values))

    def test_matches_lcm_definition(self):
        rng = random.Random(27)
        cases = [[], [0], [0, 0], [3, -4], [Rat(-1, 2)], [Rat(1, 6), Rat(-3, 4), 0, 5]]
        for _ in range(200):
            cases.append([rng.choice((0, rng.randint(-9, 9),
                                      Rat(rng.randint(-9, 9), rng.randint(1, 12))))
                          for _ in range(rng.randint(0, 6))])
        for values in cases:
            ints, den = _over_common(values)
            assert den == self._least_common_denominator(values)
            assert all(type(x) is int for x in ints)
            assert [Rat(x, den) for x in ints] == list(values)
        assert _over_common([]) == ([], 1)
        assert _over_common([Rat(1, 6), Rat(-3, 4), 0, 5]) == ([2, -9, 0, 60], 12)


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
        basis = echelon([[1, 1, 0]]).nullspace()
        assert len(basis) == 2
        for v in basis:
            assert v[0] + v[1] == 0 or (v[0] == 0 and v[1] == 0) or v[2] != 0
            assert sum(a * b for a, b in zip((1, 1, 0), v)) == 0

    def test_full_rank(self):
        assert echelon([[1, 0], [0, 1]]).nullspace() == []


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
