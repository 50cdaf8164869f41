"""GL_d(Z) equivalence of forms and cones via canonical graph labeling.

A positive definite integral form is represented by the complete
edge-colored graph on its characteristic vector set (node color: the norm,
edge color: the pairwise inner product).  Canonical labelings of such graphs
give certificates whose equality decides equivalence; the labelings also
carry the automorphism group, which transfers to the matrix group fixing the
form because the characteristic set spans the lattice.

The canonical labeling is an individualization-refinement search with
automorphism orbit pruning; discovered automorphisms generate the full
group, whose exact order comes from a Schreier-Sims computation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .exact import Mat, NotPositiveDefinite, SymMat, det, echelon, solve
from .lattice import characteristic_set
from .scone import ConeDesc


# ---------------------------------------------------------------------------
# Permutation groups


def _compose(p: tuple, q: tuple) -> tuple:
    """Permutation applying q first, then p."""
    return tuple(p[x] for x in q)


def _inverse_perm(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def group_order(degree: int, generators: Sequence[tuple]) -> int:
    """Exact order of the permutation group generated by the generators,
    by iterated orbit-stabilizer reduction (Schreier's lemma)."""
    gens = [tuple(g) for g in generators]
    gens = [g for g in gens if any(g[i] != i for i in range(degree))]
    order = 1
    identity = tuple(range(degree))
    while gens:
        base = min(i for g in gens for i in range(degree) if g[i] != i)
        transversal = {base: identity}
        frontier = [base]
        while frontier:
            p = frontier.pop()
            for g in gens:
                q = g[p]
                if q not in transversal:
                    transversal[q] = _compose(g, transversal[p])
                    frontier.append(q)
        order *= len(transversal)
        sub = set()
        for p, t in transversal.items():
            for g in gens:
                u = transversal[g[p]]
                sg = _compose(_inverse_perm(u), _compose(g, t))
                if any(sg[i] != i for i in range(degree)):
                    sub.add(sg)
        gens = list(sub)
    return order


# ---------------------------------------------------------------------------
# Canonical labeling of colored graphs


class ColoredGraph:
    """Finite graph with integer node colors and integer edge colors.

    Edges are given as a dict {(i, j): color} with i < j; missing pairs are
    non-edges.  For complete graphs every pair carries a color.
    """

    def __init__(self, n: int, node_colors: Sequence[int], edges: dict):
        self.n = n
        self.node_colors = list(node_colors)
        self.edges = {}
        self.adj = [[] for _ in range(n)]
        for (i, j), c in edges.items():
            if i == j:
                raise ValueError("loops are not supported")
            a, b = (i, j) if i < j else (j, i)
            self.edges[(a, b)] = c
            self.adj[a].append((b, c))
            self.adj[b].append((a, c))

    def refine(self, colors: list[int]) -> list[int]:
        """Stable (equitable) refinement of a coloring, order-invariant."""
        n = self.n
        while True:
            sigs = []
            for v in range(n):
                nbr = sorted((c, colors[u]) for u, c in self.adj[v])
                sigs.append((colors[v], tuple(nbr)))
            ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
            new = [ranking[s] for s in sigs]
            if len(set(new)) == len(set(colors)):
                return new
            colors = new

    def individualize(self, colors: list[int], v: int) -> list[int]:
        raw = [c * 2 for c in colors]
        raw[v] += 1
        ranking = {c: i for i, c in enumerate(sorted(set(raw)))}
        return [ranking[c] for c in raw]

    def encode(self, lab: Sequence[int]) -> tuple:
        """Canonical-form tuple of the graph relabeled so that node lab[p]
        gets position p."""
        pos = [0] * self.n
        for p, v in enumerate(lab):
            pos[v] = p
        nodes = tuple(self.node_colors[v] for v in lab)
        edge_list = []
        for (i, j), c in self.edges.items():
            a, b = pos[i], pos[j]
            if a > b:
                a, b = b, a
            edge_list.append((a, b, c))
        return (self.n, nodes, tuple(sorted(edge_list)))


def canonical_labeling(graph: ColoredGraph):
    """Canonical form of a colored graph with its automorphism group.

    Returns (form, labeling, generators, order) where `form` is a canonical
    tuple equal for two graphs iff they are isomorphic (as colored graphs),
    `labeling` realizes it, and the permutation generators generate the full
    automorphism group whose exact order is returned.
    """
    n = graph.n
    if n == 0:
        return (0, (), ()), (), [], 1
    ranking = {c: i for i, c in enumerate(sorted(set(graph.node_colors)))}
    start = [ranking[c] for c in graph.node_colors]

    best: list = [None, None]   # form, labeling
    gens: list[tuple] = []

    def record_automorphism(lab1, lab2):
        g = [0] * n
        for p in range(n):
            g[lab1[p]] = lab2[p]
        g = tuple(g)
        if any(g[i] != i for i in range(n)) and g not in gens:
            # direct verification, cheap insurance
            ok = all(graph.node_colors[i] == graph.node_colors[g[i]] for i in range(n))
            if ok:
                for (i, j), c in graph.edges.items():
                    a, b = g[i], g[j]
                    if graph.edges.get((a, b) if a < b else (b, a)) != c:
                        ok = False
                        break
            if ok:
                gens.append(g)

    prefix: list[int] = []

    def dfs(colors):
        colors = graph.refine(colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            lab = tuple(sorted(range(n), key=lambda v: colors[v]))
            form = graph.encode(lab)
            if best[0] is None or form < best[0]:
                best[0], best[1] = form, lab
            elif form == best[0]:
                record_automorphism(best[1], lab)
            return
        explored: list[int] = []
        for v in target:
            # orbit pruning under automorphisms fixing the current prefix
            fixers = [g for g in gens if all(g[u] == u for u in prefix)]
            if fixers and explored:
                orbit = {v}
                frontier = [v]
                hit = False
                while frontier and not hit:
                    x = frontier.pop()
                    for g in fixers:
                        y = g[x]
                        if y in explored:
                            hit = True
                            break
                        if y not in orbit:
                            orbit.add(y)
                            frontier.append(y)
                if hit:
                    explored.append(v)
                    continue
            prefix.append(v)
            dfs(graph.individualize(colors, v))
            prefix.pop()
            explored.append(v)

    dfs(start)
    order = group_order(n, gens)
    return best[0], best[1], gens, order


def check_digest(algorithm: str) -> str:
    """Return the name if it is a hashlib algorithm with a fixed-length hex
    digest, as `digest_of` needs; raise ValueError otherwise."""
    try:
        hashlib.new(algorithm).hexdigest()
    except (ValueError, TypeError):
        raise ValueError(f"unsupported hash algorithm {algorithm!r}") from None
    return algorithm


def digest_of(form: tuple, algorithm: str = "sha256") -> str:
    h = hashlib.new(algorithm)
    h.update(repr(form).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Form certificates and equivalence


@dataclass(frozen=True)
class CanonicalCertificate:
    """Equivalence certificate of a PD integral form: digest of the
    canonically labeled characteristic-set Gram graph, plus the characteristic
    vectors in canonical order (the witness data)."""

    hash: str
    witness: tuple
    canon: tuple


@dataclass(frozen=True)
class UnimodularMap:
    """Integer matrix with determinant +-1 acting on Z^d."""

    matrix: Mat

    def __post_init__(self):
        if not self.matrix.is_integral() or det(self.matrix) not in (1, -1):
            raise ValueError("not a unimodular matrix")


def _require_integral_pd(q: SymMat):
    if not q.is_integral():
        raise ValueError("certificates require an integral form")
    if not q.is_positive_definite():
        raise NotPositiveDefinite("form is not positive definite")


@lru_cache(maxsize=4096)
def _form_canonical(q: SymMat, algorithm: str = "sha256"):
    """Canonical data of a PD integral form: (hash, canon form, canonical
    vector order, graph automorphism generators, group order)."""
    _require_integral_pd(q)
    can = characteristic_set(q).vectors
    n = len(can)
    node_colors = [q.quad(v) for v in can]
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            edges[(i, j)] = q.bilin(can[i], can[j])
    graph = ColoredGraph(n, node_colors, edges)
    form, lab, gens, order = canonical_labeling(graph)
    witness = tuple(can[v] for v in lab)
    return digest_of(form, algorithm), form, witness, tuple(gens), order


def form_certificate(q: SymMat, algorithm: str = "sha256") -> CanonicalCertificate:
    h, form, witness, _, _ = _form_canonical(q, algorithm)
    return CanonicalCertificate(h, witness, form)


def _linear_map_from_vector_match(target: Sequence, source: Sequence, d: int) -> Optional[Mat]:
    """Integer matrix U with U source[k] = target[k] for all k, if it exists.

    U is solved on the first d linearly independent source vectors, by one
    `solve`, and checked on all of them; None unless the sources span Q^d.
    """
    basis = echelon(source).independent
    if len(basis) < d:
        return None
    # U S = T on the basis columns, transposed: S^T U^T = T^T.
    ut = solve(Mat([source[k] for k in basis]), Mat([target[k] for k in basis]))
    u = ut.transpose()
    if not u.is_integral():
        return None
    for s, t in zip(source, target):
        if u.mul_vec(s) != tuple(t):
            return None
    return u


def form_equivalence(q1: SymMat, q2: SymMat,
                     algorithm: str = "sha256") -> Optional[UnimodularMap]:
    """Explicit U with U^T Q1 U = Q2, or None when the forms are not
    GL_d(Z)-equivalent.  The witness is verified before being returned."""
    h1, form1, wit1, _, _ = _form_canonical(q1, algorithm)
    h2, form2, wit2, _, _ = _form_canonical(q2, algorithm)
    if form1 != form2:
        return None
    u = _linear_map_from_vector_match(wit1, wit2, q1.d)
    if u is None:
        raise AssertionError("canonical match failed to produce a linear map")
    if q1.congruence(u) != q2:
        raise AssertionError("reconstructed witness does not map the forms")
    return UnimodularMap(u)


def automorphism_group(q: SymMat, algorithm: str = "sha256") -> tuple[list[UnimodularMap], int]:
    """Generators and exact order of {U in GL_d(Z) : U^T Q U = Q}.

    The graph automorphisms of the characteristic-set Gram graph extend
    uniquely to linear maps because the characteristic set spans; each
    extension is verified before being returned.
    """
    _, _, witness, gens, order = _form_canonical(q, algorithm)
    can = tuple(sorted(witness))     # generators permute the lex-ordered set
    maps = []
    for g in gens:
        target = [can[g[k]] for k in range(len(can))]
        u = _linear_map_from_vector_match(target, can, q.d)
        if u is None or q.congruence(u) != q:
            raise AssertionError("graph automorphism did not extend to the form")
        maps.append(UnimodularMap(u))
    return maps, order


def cone_equivalent(c1: ConeDesc, c2: ConeDesc, *,
                    algorithm: str = "sha256") -> Optional[UnimodularMap]:
    """GL_d(Z) equivalence of secondary cones through their central forms.

    On success the witness U (with U^T central1 U = central2) is checked to
    map the ray set of c1 onto that of c2.
    """
    u = form_equivalence(c1.central, c2.central, algorithm)
    if u is None:
        return None
    mapped = set(r.congruence(u.matrix).lower() for r in c1.rays)
    if mapped != set(r.lower() for r in c2.rays):
        raise AssertionError("central-form witness does not map the ray sets")
    return u
