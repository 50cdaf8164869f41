"""GL_d(Z) equivalence of forms and cones via canonical graph labeling.

A positive definite integral form is represented by the complete
edge-colored graph on its characteristic vector set (node color: the norm,
edge color: the pairwise inner product).  Canonical labelings of such graphs
give certificates whose equality decides equivalence; the labelings also
carry the automorphism group, which transfers to the matrix group fixing the
form because the characteristic set spans the lattice.

The canonical labeling is an individualization-refinement search with
automorphism orbit pruning; discovered automorphisms generate the full
group.  Their exact order comes from a stabilizer chain: Schreier-Sims
with sifting, where every Schreier generator is sifted through the chain
below its level and only a nonidentity residue extends it.
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
    return tuple(map(p.__getitem__, q))


def _inverse_perm(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def group_order(degree: int, generators: Sequence[tuple]) -> int:
    """Exact order of the permutation group generated by the generators.

    Schreier-Sims with sifting (Seress, *Permutation Group Algorithms*,
    2003, ch. 4): a chain of base points b_0, b_1, ..., each with generators
    fixing the earlier base points and a transversal of its orbit.  Every
    Schreier generator of a level is sifted through the levels below it;
    a nonidentity residue joins the generators of the levels from the next
    one down to where its sift stopped, adding a base point when it sifted
    through them all.  Once every Schreier generator sifts to the identity,
    each level's generators generate the stabilizer of its base point in the
    level above, and the order is the product of the orbit lengths.
    """
    identity = tuple(range(degree))
    base: list[int] = []
    gens: list[list[tuple]] = []     # per level: generators fixing base[:level]
    trans: list[dict] = []           # per level: orbit point p -> (t, t^-1), t sends the base point to p
    tested: list[set] = []           # per level: (p, generator index) sifted already

    def sift(g, i):
        while i < len(base):
            t = trans[i].get(g[base[i]])
            if t is None:
                break
            g = _compose(t[1], g)
            i += 1
        return g, i

    def add(g, first, last):
        for level in range(first, last + 1):
            if level == len(base):
                b = next(x for x in range(degree) if g[x] != x)
                base.append(b)
                gens.append([])
                trans.append({b: (identity, identity)})
                tested.append(set())
            gens[level].append(g)
            orbit = trans[level]
            points = list(orbit)
            for p in points:
                for s in gens[level]:
                    q = s[p]
                    if q not in orbit:
                        t = _compose(s, orbit[p][0])
                        orbit[q] = (t, _inverse_perm(t))
                        points.append(q)

    for g in generators:
        h, j = sift(tuple(g), 0)
        if h != identity:
            add(h, 0, j)
    i = len(base) - 1
    while i >= 0:
        orbit = trans[i]
        residue = None
        for p in list(orbit):
            for x, s in enumerate(gens[i]):
                if (p, x) in tested[i]:
                    continue
                tested[i].add((p, x))
                q = s[p]
                h, j = sift(_compose(orbit[q][1], _compose(s, orbit[p][0])), i + 1)
                if h != identity:
                    residue = h, j
                    break
            if residue is not None:
                break
        if residue is None:
            i -= 1
        else:
            add(residue[0], i + 1, residue[1])
            i = residue[1]
    order = 1
    for orbit in trans:
        order *= len(orbit)
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
        for (i, j), c in edges.items():
            if i == j:
                raise ValueError("loops are not supported")
            self.edges[(i, j) if i < j else (j, i)] = c
        # Neighbour u of v over an edge of colour c, as (u, rank(c) * n): a
        # vertex of colour k < n then contributes rank(c) * n + k, and these
        # ints order like the pairs (c, k).
        rank = {c: i for i, c in enumerate(sorted(set(self.edges.values())))}
        self._adj = [[] for _ in range(n)]
        for (a, b), c in self.edges.items():
            self._adj[a].append((b, rank[c] * n))
            self._adj[b].append((a, rank[c] * n))

    def refine(self, colors: list[int]) -> list[int]:
        """Stable (equitable) refinement of a coloring, order-invariant.

        Each round gives every vertex the rank of its signature: its colour,
        then the sorted (edge colour, colour) pairs of its neighbours.  The
        rounds stop when the number of colours stops growing, and the
        result is numbered 0, 1, ... in the order of the last signatures.
        The colour leads the signature, so a signature's rank is the number
        of signatures in earlier cells plus its rank within its own cell,
        and each cell is ranked alone.  A cell of one vertex cannot split,
        and after the first round neither can a cell with no neighbour in a
        cell that split in the round before: its neighbours' colours were
        renumbered in order, so its signatures stay equal.
        """
        n = self.n
        adj = self._adj
        by_color: dict = {}
        for v, c in enumerate(colors):
            by_color.setdefault(c, []).append(v)
        cells = [by_color[c] for c in sorted(by_color)]
        colors = [0] * n
        split = None                 # the vertices of the cells that split last round
        while True:
            for k, cell in enumerate(cells):
                for v in cell:
                    colors[v] = k
            active = None if split is None else {colors[u] for v in split for u, _ in adj[v]}
            new_cells = []
            split = []
            for k, cell in enumerate(cells):
                if len(cell) == 1 or (active is not None and k not in active):
                    new_cells.append(cell)
                    continue
                parts: dict = {}
                for v in cell:
                    sig = tuple(sorted([b + colors[u] for u, b in adj[v]]))
                    parts.setdefault(sig, []).append(v)
                if len(parts) == 1:
                    new_cells.append(cell)
                else:
                    new_cells.extend(parts[sig] for sig in sorted(parts))
                    split.extend(cell)
            if not split:
                return colors
            cells = new_cells

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
    form, lab, gens = _canonical_search(graph)
    return form, lab, gens, group_order(graph.n, gens)


def _canonical_search(graph: ColoredGraph):
    """The (form, labeling, generators) of `canonical_labeling`, without the
    group order."""
    n = graph.n
    if n == 0:
        return (0, (), ()), (), []
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
    return best[0], best[1], gens


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
