"""Exact rational and integer linear algebra.

Everything in this package runs over the rationals with arbitrary-precision
integers; there is no floating point anywhere.  Dimensions are tiny (at most
15 ambient coordinates), so matrices are stored densely.

``Rat`` is the rational scalar type, ``fractions.Fraction``.

There is one elimination over the rationals, `echelon`: a Gauss-Jordan
pass, fraction-free over the integers.  `solve`, `inverse`, `rank`,
`rank_of_rows` and `det` read it, its result gives the null space
(`Echelon.nullspace`), and `ldlt`, the symmetric factorization behind
both definiteness tests and lattice enumeration (`lcone.lattice`), is read
off the rows it records.  `hermite_diagonal`, over the integers, computes
the index of a lattice, which is another problem.  `_over_common` puts
rationals over their least common denominator.
"""

from __future__ import annotations

from fractions import Fraction as Rat
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence


class ExactError(Exception):
    """Base class for exact-arithmetic failures."""


class ZeroPivotNotPD(ExactError):
    """LDL^T hit a zero pivot on a block where definiteness is undecided."""


class SingularMatrix(ExactError):
    pass


class ZeroInput(ExactError):
    pass


class NotPositiveDefinite(ExactError):
    pass


class AffinelyDependent(ExactError):
    pass


def _norm(x):
    """Collapse integral rationals to int so integer fast paths stay integer."""
    if isinstance(x, int):
        return x
    if x.denominator == 1:
        return int(x)
    return x


class Mat:
    """Dense matrix with exact rational entries (immutable)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(tuple(_norm(x) for x in row) for row in entries)
        self.entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        if any(len(r) != self.cols for r in rows):
            raise ValueError("ragged matrix")

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def col(self, j: int):
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Mat":
        return Mat(list(zip(*self.entries)))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.entries))
        return Mat(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.entries]
        )

    def mul_vec(self, v: Sequence):
        return tuple(sum(map(mul, row, v)) for row in self.entries)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Mat({[list(r) for r in self.entries]})"

    def is_integral(self) -> bool:
        return all(isinstance(x, int) for row in self.entries for x in row)


class SymMat:
    """Symmetric matrix over the rationals, used for Gram matrices and
    quadratic forms as well as for normals and rays in symmetric-matrix space.
    """

    __slots__ = ("d", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(tuple(_norm(x) for x in row) for row in entries)
        d = len(rows)
        for i in range(d):
            if len(rows[i]) != d:
                raise ValueError("not square")
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("not symmetric")
        self.d = d
        self.entries = rows

    @classmethod
    def _symmetric(cls, rows: tuple) -> "SymMat":
        """A SymMat of rows that are symmetric by construction, as tuples of
        normalized entries (`_norm`): the results of exact operations.  No
        check runs."""
        m = object.__new__(cls)
        m.d = len(rows)
        m.entries = rows
        return m

    @staticmethod
    def identity(d: int) -> "SymMat":
        return SymMat([[1 if i == j else 0 for j in range(d)] for i in range(d)])

    @staticmethod
    def zero(d: int) -> "SymMat":
        return SymMat([[0] * d for _ in range(d)])

    @staticmethod
    def from_lower(d: int, lower: Sequence) -> "SymMat":
        """Build from the d(d+1)/2 lower-triangular entries, row-major.
        Each entry is normalized once (`_norm`) and mirrored, so the
        result is symmetric by construction and is not checked again."""
        if len(lower) != d * (d + 1) // 2:
            raise ValueError("wrong number of entries")
        rows = [[0] * d for _ in range(d)]
        k = 0
        for i in range(d):
            row = rows[i]
            for j in range(i + 1):
                x = lower[k]
                row[j] = rows[j][i] = x if type(x) is int else _norm(x)
                k += 1
        return SymMat._symmetric(tuple(map(tuple, rows)))

    @staticmethod
    def outer(v: Sequence[int]) -> "SymMat":
        """Rank-one form v v^T."""
        return SymMat([[a * b for b in v] for a in v])

    def lower(self) -> tuple:
        """Lower-triangular entries, row-major: (a11, a21, a22, a31, ...)."""
        return tuple([x for i, row in enumerate(self.entries) for x in row[:i + 1]])

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def quad(self, v: Sequence):
        """Evaluate the quadratic form v^T A v."""
        e = self.entries
        total = 0
        for i, vi in enumerate(v):
            if not vi:
                continue
            row = e[i]
            s = 0
            for j in range(i):
                vj = v[j]
                if vj:
                    s += row[j] * vj
            total += vi * (vi * row[i] + 2 * s)
        return _norm(total)

    def bilin(self, u: Sequence, v: Sequence):
        """Evaluate u^T A v."""
        return _norm(sum(ui * sum(a * b for a, b in zip(row, v))
                         for ui, row in zip(u, self.entries) if ui))

    def mul_vec(self, v: Sequence):
        return tuple(_norm(sum(a * b for a, b in zip(row, v))) for row in self.entries)

    def pair(self, other: "SymMat"):
        """Trace inner product <A, B> = Trace(AB)."""
        a, b = self.entries, other.entries
        d = self.d
        total = 0
        for i in range(d):
            total += a[i][i] * b[i][i]
            for j in range(i):
                total += 2 * a[i][j] * b[i][j]
        return _norm(total)

    def __add__(self, other: "SymMat") -> "SymMat":
        return SymMat([[x + y for x, y in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "SymMat") -> "SymMat":
        return SymMat([[x - y for x, y in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)])

    def scale(self, c) -> "SymMat":
        return SymMat([[c * x for x in row] for row in self.entries])

    def is_integral(self) -> bool:
        return all(isinstance(x, int) for row in self.entries for x in row)

    def to_mat(self) -> Mat:
        return Mat(self.entries)

    def congruence(self, u: Mat) -> "SymMat":
        """U^T A U for a square matrix U, in one pass.

        The columns of A U come first; entry (i, j) of the result, for
        j <= i, is column i of U dotted with column j of A U, and it is
        mirrored to (j, i).  Only these final entries are normalized
        (`_norm`): integral ones are ints, the others stay `Fraction`s.
        The result is symmetric by construction, so it is not checked."""
        d = self.d
        if u.rows != d or u.cols != d:
            raise ValueError("shape mismatch")
        ucols = tuple(zip(*u.entries))
        aucols = [[sum(map(mul, row, col)) for row in self.entries] for col in ucols]
        rows = [[0] * d for _ in range(d)]
        for i, ui in enumerate(ucols):
            row = rows[i]
            for j in range(i + 1):
                x = sum(map(mul, ui, aucols[j]))
                row[j] = rows[j][i] = x if type(x) is int else _norm(x)
        return SymMat._symmetric(tuple(map(tuple, rows)))

    def rank(self) -> int:
        return rank(self.to_mat())

    def det(self):
        return det(self.to_mat())

    def is_positive_definite(self) -> bool:
        try:
            _, diag = ldlt(self)
        except ZeroPivotNotPD:
            return False
        return all(x > 0 for x in diag)

    def is_positive_semidefinite(self) -> bool:
        """Read off `ldlt`, like `is_positive_definite`: a PSD form never
        meets a zero pivot with a nonzero column below it, and otherwise Q
        is congruent to D."""
        try:
            _, diag = ldlt(self)
        except ZeroPivotNotPD:
            return False
        return all(x >= 0 for x in diag)

    def __eq__(self, other):
        return isinstance(other, SymMat) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"SymMat({[list(r) for r in self.entries]})"


@lru_cache(maxsize=4096)
def ldlt(q: SymMat) -> tuple[Mat, tuple]:
    """Exact LDL^T factorization of a symmetric matrix.

    Returns a unit lower-triangular L and the diagonal D with Q = L D L^T.
    Q is positive definite iff every entry of D is positive.  Raises
    ZeroPivotNotPD when a zero pivot appears while the remaining block is
    nonzero there, which means the factorization (without pivoting) does not
    exist; such a form is never positive definite.  Results are cached
    (SymMat is immutable), since enumeration revisits the same form often.

    The factors are read off one `echelon` of c Q, c the least common
    denominator of Q's entries: one factor for the whole form keeps the
    factorization, c Q = L (c D) L^T.  When row k arrives, the kept rows
    are the earlier rows with a nonzero pivot, and `echelon` records
    w = scale S_k, with the scale before it and S_k row k of the Schur
    complement of their block (its entries are minors, Bareiss 1968).  So
    D_k = w[k] / (scale c) and, S being symmetric, L_ik = w[i] / w[k] below
    the diagonal.  A row in the span of the earlier ones has S_k = 0: D_k
    is 0 and column k of L is zero.  Any other w is zero left of k, so
    w[k] = 0 is a zero pivot over a nonzero column.
    """
    d = q.d
    if not d:
        return Mat([]), ()
    flat, c = _over_common([x for row in q.entries for x in row])
    lower = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    diag = []
    for k, step in enumerate(echelon([flat[i:i + d] for i in range(0, d * d, d)]).reduced):
        if step is None:
            diag.append(0)
            continue
        w, scale = step
        p = w[k]
        if not p:
            raise ZeroPivotNotPD(f"zero pivot at index {k}")
        diag.append(_norm(Rat(p, scale * c)))
        for i in range(k + 1, d):
            if w[i]:
                lower[i][k] = Rat(w[i], p)
    return Mat(lower), tuple(diag)


def solve(a: Mat, b):
    """Solve A x = b exactly for square nonsingular A.

    ``b`` is one right-hand side (a vector; returns the tuple x) or a block
    of them (a Mat with A.rows rows; returns the Mat X with A X = B).  The
    whole block is reduced by one `echelon` pass over the rows [A | B]: A is
    nonsingular exactly when the first n pivots are the columns of A, and X
    is then the B part of the first n integer rows divided by their common
    scale.  Raises SingularMatrix when A is singular.
    """
    n = a.rows
    if a.cols != n:
        raise ValueError("matrix not square")
    block = isinstance(b, Mat)
    rhs = b.entries if block else [(x,) for x in b]
    if len(rhs) != n:
        raise ValueError("shape mismatch")
    if n == 0:
        return Mat([]) if block else ()
    ech = echelon([row + tuple(r) for row, r in zip(a.entries, rhs)])
    if ech.pivots[:n] != tuple(range(n)):
        raise SingularMatrix("singular system")
    x = [[_norm(Rat(y, ech.scale)) for y in row[n:]] for row in ech.rows[:n]]
    return Mat(x) if block else tuple(row[0] for row in x)


def inverse(a: Mat) -> Mat:
    """Exact inverse of a square nonsingular matrix: `solve` with the
    identity block, one `echelon` pass.  Raises SingularMatrix."""
    return solve(a, Mat.identity(a.rows))


def rank(a: Mat) -> int:
    """Exact rank over the rationals: the pivot count of one `echelon` pass."""
    return rank_of_rows(a.entries)


def rank_of_rows(rows: Sequence[Sequence]) -> int:
    """Exact rank of the matrix with the given rows (0 without rows), by
    `echelon`."""
    return len(echelon(rows).pivots) if rows else 0


def det(a: Mat):
    """Exact determinant, read off one `echelon` pass: the determinant of
    its pivot block when every column is a pivot, else 0."""
    n = a.rows
    if a.cols != n:
        raise ValueError("matrix not square")
    if n == 0:
        return 1
    ech = echelon(a.entries)
    return ech.det if len(ech.pivots) == n else 0


class Echelon(NamedTuple):
    """Fraction-free reduced row echelon form of a matrix, see `echelon`."""

    rows: tuple         # nonzero integer rows, `scale` times the reduced rows
    pivots: tuple       # their pivot columns, increasing
    independent: tuple  # indices of the input rows that raised the rank
    cols: int
    scale: int          # the common denominator D > 0: each row has D at its pivot
    det: object         # int or Rat: determinant of the independent input rows at the pivots
    reduced: tuple      # per input row: (w, D) as w arrived, D the scale before it; or None

    def nullspace(self) -> list[tuple]:
        """Basis of the right null space: one integer vector per free
        column (gcd-normalized, positive at that column), in column order."""
        pivots = set(self.pivots)
        basis = []
        for fc in range(self.cols):
            if fc in pivots:
                continue
            v = [0] * self.cols
            v[fc] = self.scale
            for row, pc in zip(self.rows, self.pivots):
                v[pc] = -row[fc]
            basis.append(clear_denominators(v))
        return basis


def echelon(rows: Sequence[Sequence]) -> Echelon:
    """One fraction-free Gauss-Jordan pass over the rows, taken one at a time.

    Every kept row is D times its reduced row, with one common positive
    integer D, so all arithmetic is over the integers.  A row holding a
    fraction is first scaled to integers (`clear_denominators`).  A new row
    v is reduced to w = D v - sum v[c] R_c over the kept rows R_c; if w is
    nonzero, its sign is fixed so that its pivot p is positive, each kept
    row becomes (p R_c - R_c[j] w) / D, exactly (its entries are minors,
    Bareiss 1968), and p is the new D.  The result holds the rows with
    their pivot columns, D, the determinant of the pivot block, the
    indices of the first linearly independent rows in input order, and,
    for each input row, w as it arrived (before its sign is fixed) with
    the D it was reduced under, or None for a row in the span of the
    earlier ones (`reduced`, which `ldlt` reads).
    """
    if not rows:
        raise ValueError("need the ambient dimension; pass at least one row")
    cols = len(rows[0])
    kept: dict[int, list] = {}
    independent = []
    scale = 1
    sign = 1         # the determinant of the integer pivot block is sign * scale
    row_scale = 1    # product of the factors that made independent rows integral
    reduced = [None] * len(rows)
    for idx, row in enumerate(rows):
        v = row
        if not all(isinstance(x, int) for x in row):
            v = clear_denominators(row)
        w = [scale * x for x in v]
        for c, r in kept.items():
            f = v[c]
            if f:
                w = [x - f * y if y else x for x, y in zip(w, r)]
        j = next((j for j, x in enumerate(w) if x), None)
        if j is None:
            continue
        if v is not row:
            k = next(k for k, x in enumerate(v) if x)
            row_scale *= Rat(v[k]) / row[k]
        reduced[idx] = (tuple(w), scale)
        p = w[j]
        if p < 0:
            w = [-x for x in w]
            p = -p
            sign = -sign
        if sum(c > j for c in kept) % 2:
            sign = -sign
        for c, r in kept.items():
            f = r[j]
            kept[c] = [(p * x - f * y) // scale for x, y in zip(r, w)]
        kept[j] = w
        scale = p
        independent.append(idx)
        if len(kept) == cols:
            break
    pivots = tuple(sorted(kept))
    block_det = sign * scale if row_scale == 1 else _norm(sign * scale / row_scale)
    return Echelon(tuple(tuple(kept[c]) for c in pivots), pivots, tuple(independent),
                   cols, scale, block_det, tuple(reduced))


def _over_common(values: Sequence) -> tuple[list, int]:
    """Rationals (ints or ``Fraction``s) as integer numerators over their
    least common denominator: (ints, den) with values[i] = ints[i] / den,
    and den = 1 for no values."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def clear_denominators(v: Sequence) -> tuple:
    """Scale a rational vector to a primitive integer vector (gcd 1),
    preserving orientation."""
    ints, _ = _over_common(v)
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def gcd_normalize(obj, *, orient: bool = True):
    """Divide an integer vector or integral SymMat by the gcd of its entries.

    With ``orient=True`` (the convention for rays) the sign is fixed so the
    first nonzero entry is positive.  Raises ZeroInput on the zero vector.
    """
    if isinstance(obj, SymMat):
        lo = gcd_normalize(obj.lower(), orient=orient)
        return SymMat.from_lower(obj.d, lo)
    vec = tuple(obj)
    if not all(isinstance(x, int) for x in vec):
        raise ValueError("gcd_normalize expects integer entries")
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g == 0:
        raise ZeroInput("zero vector")
    vec = tuple(x // g for x in vec)
    if orient:
        lead = next(x for x in vec if x != 0)
        if lead < 0:
            vec = tuple(-x for x in vec)
    return vec


def hermite_diagonal(vectors: Sequence[Sequence[int]], d: int) -> list[int]:
    """Diagonal of the row-style Hermite normal form of the integer span.

    Returns a list of length ``d``; zeros mark missing rank.  The product of
    the nonzero entries is the index of the span inside its saturation.
    """
    work = [list(v) for v in vectors]
    diag = [0] * d
    row = 0
    for col in range(d):
        while True:
            nz = [i for i in range(row, len(work)) if work[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(work[i][col]))
            work[row], work[i0] = work[i0], work[row]
            p = work[row][col]
            done = True
            for i in range(row + 1, len(work)):
                if work[i][col] != 0:
                    f = work[i][col] // p
                    work[i] = [a - f * b for a, b in zip(work[i], work[row])]
                    if work[i][col] != 0:
                        done = False
            if done:
                break
        if row < len(work) and work[row][col] != 0:
            diag[col] = abs(work[row][col])
            row += 1
    return diag


def lattice_span_full(vectors: Sequence[Sequence[int]], d: int) -> bool:
    """True iff the integer span of the vectors is all of Z^d."""
    if not vectors:
        return d == 0
    diag = hermite_diagonal(vectors, d)
    prod = 1
    for x in diag:
        if x == 0:
            return False
        prod *= x
    return prod == 1


def parse_form(text: str) -> SymMat:
    """Parse the matrix text format: the dimension followed by the
    d(d+1)/2 lower-triangular entries as ``num`` or ``num/den`` tokens."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty form description")
    d = int(tokens[0])
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    need = d * (d + 1) // 2
    if len(tokens) != 1 + need:
        raise ValueError(f"expected {need} entries for dimension {d}, got {len(tokens) - 1}")
    entries = []
    for tok in tokens[1:]:
        if "/" in tok:
            num, den = tok.split("/", 1)
            if int(den) == 0:
                raise ValueError(f"zero denominator in {tok!r}")
            entries.append(Rat(int(num), int(den)))
        else:
            entries.append(int(tok))
    return SymMat.from_lower(d, entries)


def format_form(q: SymMat) -> str:
    parts = [str(q.d)]
    for x in q.lower():
        if isinstance(x, int):
            parts.append(str(x))
        else:
            parts.append(f"{x.numerator}/{x.denominator}")
    return " ".join(parts)
