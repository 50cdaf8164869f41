"""Lattice point enumeration against a positive definite quadratic form.

Short vectors, closest vectors and the characteristic vector set are all
computed exactly: the enumeration walks the coordinate tree of the LDL^T
factorization and all interval bounds are determined by exact integer square
roots, so the returned sets are provably complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .exact import (
    NotPositiveDefinite,
    Rat,
    SymMat,
    ZeroPivotNotPD,
    floor_sqrt_rat,
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


def _ldlt_pd(q: SymMat):
    try:
        lower, diag = ldlt(q)
    except ZeroPivotNotPD as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    if any(x <= 0 for x in diag):
        raise NotPositiveDefinite("form is not positive definite")
    return lower, diag


def _max_step(t, r2) -> int:
    """Largest integer x with (x - t)^2 <= r2 (t rational, r2 >= 0)."""
    base = floor_sqrt_rat(r2)
    tn = t.numerator if not isinstance(t, int) else t
    td = t.denominator if not isinstance(t, int) else 1
    x = tn // td + base + 2
    while True:
        diff = x - t
        if diff <= 0 or diff * diff <= r2:
            return x
        x -= 1


def _min_step(t, r2) -> int:
    """Smallest integer x with (t - x)^2 <= r2."""
    base = floor_sqrt_rat(r2)
    tn = t.numerator if not isinstance(t, int) else t
    td = t.denominator if not isinstance(t, int) else 1
    x = tn // td - base - 2
    while True:
        diff = t - x
        if diff <= 0 or diff * diff <= r2:
            return x
        x += 1


def enumerate_close(q: SymMat, center: Sequence, bound) -> list[tuple[tuple, object]]:
    """All integer vectors v with Q[v - center] <= bound, with their values.

    Exact Fincke-Pohst style enumeration on the LDL^T factorization of Q.
    Returns pairs (v, Q[v - center]) in lexicographic order of v; the value
    is accumulated exactly along the recursion.
    """
    lower, diag = _ldlt_pd(q)
    d = q.d
    if bound < 0:
        return []
    lo_rows = lower.entries
    c = [Rat(x) for x in center]
    out = []
    x = [0] * d
    total = Rat(bound)

    # Work from the last coordinate down: Q[y] = sum_i D_i (y_i + s_i)^2
    # with s_i = sum_{j>i} L_ji y_j and y = x - center.
    def descend(i: int, rem):
        if i < 0:
            out.append((tuple(x), total - rem))
            return
        s = 0
        for j in range(i + 1, d):
            lj = lo_rows[j][i]
            if lj:
                s += lj * (x[j] - c[j])
        # D_i (x_i - c_i + s)^2 <= rem
        t = c[i] - s
        di = diag[i]
        r2 = rem / di
        lo = _min_step(t, r2)
        hi = _max_step(t, r2)
        for xi in range(lo, hi + 1):
            delta = xi - t
            used = di * delta * delta
            if used <= rem:
                x[i] = xi
                descend(i - 1, rem - used)
        x[i] = 0

    descend(d - 1, total)
    out.sort()
    return out


def short_vectors(q: SymMat, n) -> VectorSet:
    """Exactly the nonzero integer vectors v with Q[v] <= n, in lex order."""
    if n <= 0:
        raise ValueError("norm bound must be positive")
    hits = enumerate_close(q, [0] * q.d, n)
    vecs = tuple(v for v, _ in hits if any(v))
    return VectorSet(q.d, vecs, n)


def closest_vectors(q: SymMat, c: Sequence) -> tuple[object, tuple]:
    """Minimum of Q[c - v] over v in Z^d together with all minimizers.

    The enumeration ball is bounded by the closer of two lattice points: c
    rounded coordinate-wise, and c rounded one coordinate at a time down the
    LDL^T factorization as `enumerate_close` descends (Babai's nearest
    plane), which stays close on skewed forms.
    """
    lower, _ = _ldlt_pd(q)
    d = q.d
    near = [0] * d
    for i in reversed(range(d)):
        s = sum(lower.entries[j][i] * (near[j] - c[j]) for j in range(i + 1, d))
        near[i] = _round_rat(Rat(c[i]) - s)
    bound = min(q.quad([a - b for a, b in zip(guess, c)])
                for guess in (near, [_round_rat(x) for x in c]))
    hits = enumerate_close(q, c, bound)
    best = min(val for _, val in hits)
    argmins = tuple(v for v, val in hits if val == best)
    return best, argmins


def _round_rat(x) -> int:
    if isinstance(x, int):
        return x
    num, den = x.numerator, x.denominator
    q, r = divmod(num, den)
    return q + (1 if 2 * r >= den else 0)


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
