"""Lattice point enumeration against a positive definite quadratic form.

Closest vectors and the characteristic vector set are both computed
exactly.  One walk is behind both: `enumerate_close` (`closest_vectors`
runs its `_walk` on the frame it reads its guesses off) goes down
the coordinate tree of the LDL^T factorization (Fincke & Pohst 1985) over
the integers: with the factorization and the centre over common
denominators, each level's interval is read off one integer square root
and holds exactly the coordinates that fit, so the sets are complete.
The walk yields each value Q[v - c] as the integer g Q[v - c] over the
frame's one denominator g, and builds no ``Fraction``: `enumerate_close`
builds its ``Rat`` values at its boundary, and `_closest` takes the minimum
over the integers and builds one.
The shortest vectors of the classes of Z^d / 2Z^d, from which the
Dirichlet-Voronoi cell is cut (`_coset_minima`), are closest vectors too.
The part of the frame that depends on the form alone (`_form_frame`) is
built once by a caller that searches around many centres.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import isqrt
from typing import Sequence

from .exact import (
    NotPositiveDefinite,
    Rat,
    SymMat,
    ZeroPivotNotPD,
    _over_common,
    lattice_span_full,
    ldlt,
)


@dataclass(frozen=True)
class VectorSet:
    """Nonzero integer vectors v with Q[v] <= norm_bound, without duplicates."""

    dim: int
    vectors: tuple
    norm_bound: object

    def __len__(self):
        return len(self.vectors)


def _form_frame(q: SymMat) -> tuple:
    """The part of a frame that depends on Q alone: Q = L D L^T with each
    column of L over a common denominator, as (levels, g).

    Level i is (terms, ell, w): column i of L below the diagonal is the
    pairs (j, a) in terms over ell.  The D_i / ell^2 are the w over their
    least common denominator g (`_over_common`).
    Raises NotPositiveDefinite unless Q is positive definite.
    """
    try:
        lower, diag = ldlt(q)
    except ZeroPivotNotPD as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    if any(x <= 0 for x in diag):
        raise NotPositiveDefinite("form is not positive definite")
    levels = []
    for i, di in enumerate(diag):
        below = [j for j in range(i + 1, q.d) if lower.entries[j][i]]
        nums, ell = _over_common([lower.entries[j][i] for j in below])
        levels.append((tuple(zip(below, nums)), ell, Rat(di, ell * ell)))
    ws, g = _over_common([w for _, _, w in levels])
    return [(terms, ell, w) for (terms, ell, _), w in zip(levels, ws)], g


def _frame(form: tuple, cen: Sequence[int], m: int) -> tuple:
    """A form frame (`_form_frame`) and a centre cen / m, with cen integers
    and m the least common denominator of the centre: (m, cen, levels, g).

    Level i is (ell cen_i, terms, den, w) with den = m ell.  With
    y_j = m x_j - cen_j, level i's target t_i = c_i - sum_j L_ji (x_j - c_j)
    is (ell cen_i - sum_j a y_j) / den.  As D_i / ell^2 = w / g, level i's
    term D_i (x_i - t_i)^2 is w (den x_i - T)^2 over m^2 g, so values of Q
    are integers over m^2 g, and w does not depend on m.
    """
    levels, g = form
    return m, cen, [(ell * cen[i], terms, m * ell, w)
                    for i, (terms, ell, w) in enumerate(levels)], m * m * g


def enumerate_close(q: SymMat, center: Sequence, bound) -> list[tuple[tuple, object]]:
    """All integer vectors v with Q[v - center] <= bound, with their values.

    Exact Fincke-Pohst enumeration (Fincke & Pohst 1985) on the LDL^T
    factorization of Q, over the integers.  With the coordinates above
    level i fixed, Q[v - center] collects D_i (x_i - t_i)^2 at level i.
    The centre and each column of L are put over common denominators once
    (`_form_frame`, `_over_common`, `_frame`), so t_i is an integer T over
    den and the term is w (den x_i - T)^2 over one g for all levels.  Every
    g Q[v - center] is then an integer, so Q[v - center] <= bound exactly
    when it is at most floor(g bound), the budget; the budget left, rem,
    stays an integer.
    The square is an integer too, so the term fits exactly when
    |den x_i - T| <= isqrt(rem // w) = r: the range
    ceil((T - r) / den) .. floor((T + r) / den) holds every x_i that fits
    and nothing else, and the set is complete.  Returns pairs
    (v, Q[v - center]) in lexicographic order of v; each value is a ``Rat``
    (a ``Fraction`` even when integral), built here from the walk's integer.
    """
    frame = _frame(_form_frame(q), *_over_common(center))
    return [(v, Rat(x, frame[3])) for v, x in _walk(frame, q.d, bound)]


def _walk(frame: tuple, d: int, bound) -> list[tuple[tuple, int]]:
    """The walk of `enumerate_close` on a frame made by `_frame`, over the
    integers: the pairs (v, g Q[v - center]) with Q[v - center] <= bound,
    each value an integer over the frame's one denominator g.  It builds
    no ``Rat``."""
    m, cen, levels, g = frame
    if bound < 0:
        return []
    total = bound.numerator * g // bound.denominator
    if not d:
        return [((), 0)]
    x = [0] * d
    y = [0] * d    # y_j = m * x_j - cen_j, for the levels above
    out = []

    def descend(i: int, rem: int):
        base, terms, den, w = levels[i]
        t = base
        for j, a in terms:
            t -= a * y[j]
        r = isqrt(rem // w)
        lo = -((r - t) // den)
        hi = (t + r) // den
        e = den * lo - t
        if i:
            yi = m * lo - cen[i]
            for xi in range(lo, hi + 1):
                x[i] = xi
                y[i] = yi
                descend(i - 1, rem - w * e * e)
                e += den
                yi += m
        else:
            for xi in range(lo, hi + 1):
                x[0] = xi
                out.append((tuple(x), total - rem + w * e * e))
                e += den

    descend(d - 1, total)
    out.sort()
    return out


def _path(frame: tuple, v=None) -> int:
    """g Q[v - center]; v is by default Babai's nearest-plane point, each
    x_i being t_i rounded half up, level by level down."""
    m, cen, levels, _ = frame
    y = [0] * len(cen)
    used = 0
    for i in reversed(range(len(cen))):
        base, terms, den, w = levels[i]
        t = base - sum(a * y[j] for j, a in terms)
        xi = (2 * t + den) // (2 * den) if v is None else v[i]
        e = den * xi - t
        used += w * e * e
        y[i] = m * xi - cen[i]
    return used


def closest_vectors(q: SymMat, c: Sequence) -> tuple[object, tuple]:
    """Minimum of Q[c - v] over v in Z^d together with all minimizers.

    The enumeration ball is bounded by the closer of two lattice points: c
    rounded coordinate-wise, and c rounded one coordinate at a time down the
    LDL^T factorization as `enumerate_close` descends (Babai's nearest
    plane), which stays close on skewed forms.  Both are read off the
    walk's integer data, rounding half up, and the walk runs on the same
    frame.
    """
    return _closest(_form_frame(q), *_over_common(c))


def _closest(form: tuple, cen: Sequence[int], m: int) -> tuple[object, tuple]:
    """`closest_vectors` on the form frame of Q (`_form_frame`), which a
    caller with many centres builds once, around the centre cen / m given
    over the integers.  With m the centre's least common denominator, as
    `_over_common` gives it, the frame is the one of the rational centre.
    The walk's values are integers over the frame's denominator g, so the
    minimum is taken over them and one ``Rat`` is built, for it."""
    frame = _frame(form, cen, m)
    g = frame[3]
    rounded = [(2 * x + m) // (2 * m) for x in cen]
    hits = _walk(frame, len(cen), Rat(min(_path(frame), _path(frame, rounded)), g))
    best = min(val for _, val in hits)
    return Rat(best, g), tuple(v for v, val in hits if val == best)


def _coset_minima(form: tuple) -> list[tuple]:
    """The shortest vectors of every nonzero class of Z^d / 2Z^d, on the
    form frame of Q (`_form_frame`).

    The vectors of the class of c in {0, 1}^d are c + 2w, and
    Q[c + 2w] = 4 Q[w + c/2], so one `closest_vectors` call at -c/2 gives
    them all.  By Voronoi's theorem these include every facet vector of the
    Dirichlet-Voronoi cell; the others give halfspaces that are redundant.
    """
    out = []
    for c in product((0, 1), repeat=len(form[0])):
        if any(c):
            _, mins = _closest(form, [-x for x in c], 2)
            out.extend(tuple(x + 2 * y for x, y in zip(c, w)) for w in mins)
    return out


@lru_cache(maxsize=4096)
def characteristic_set(q: SymMat) -> VectorSet:
    """Smallest ball of lattice vectors around 0 that spans Z^d as a lattice.

    The norm threshold walks the attained values of Q on nonzero vectors in
    increasing order, so rational-entried forms work as well as integral
    ones.  The result is deterministic and lexicographically ordered.
    """
    d = q.d
    n = min(q.entry(i, i) for i in range(d))
    while True:
        hits = [(v, val) for v, val in enumerate_close(q, [0] * d, n) if any(v)]
        norms = sorted(set(val for _, val in hits))
        for t in norms:
            sub = [v for v, val in hits if val <= t]
            if lattice_span_full(sub, d):
                return VectorSet(d, tuple(sub), t)
        n = n * 2
