"""GL_d(Z) equivalence of forms and cones via canonical graph labeling.

A positive definite integral form is represented by the complete
edge-colored graph on its characteristic vector set (node color: the norm,
edge color: the pairwise inner product).  Canonical labelings of such graphs
give certificates whose equality decides equivalence; the labelings also
carry the automorphism group, which transfers to the matrix group fixing the
form because the characteristic set spans the lattice.

The canonical labeling is an individualization-refinement search with
automorphism orbit pruning and backjumping; discovered automorphisms
generate the full group.  Its exact order is read off the search's first
path, as the product of the orbit lengths of the stabilizer chain along
that path (McKay, "Practical graph isomorphism", 1981).

A leaf is checked as a map from the first leaf and from the least one so
far before it is encoded, and one whose map is an automorphism is not
encoded: the search records the map and jumps back to where the leaf's
path left the other leaf's path, since the rest of that subtree is the
image of one explored already (McKay & Piperno, "Practical graph
isomorphism, II", 2014).  So the first leaf of the least form is still
met, and a jump never leaves the subtree of a node on the first path, so
each stabilizer's orbit along that path is still found whole: the form,
the labeling and the order are those of the search without jumps
(`tests/oracles.py::canonical_labeling_by_full_search`), with fewer
generators (`canonical_labeling`).

After an individualization the search refines from the cell that split,
and each round ranks a cell by its vertices' neighbours in the cells that
split in the round before, not by all of them.  This gives the colours of
full signatures in the same order: between rounds the colours are
renumbered in order, and the vertices of a cell had equal signatures in
the colouring before, so the pairs from the cells that did not split are
the same across the cell and do not change which of two sorted tuples is
smaller (`ColoredGraph.refine`).  The labels, certificates and witnesses
are therefore those of full signatures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Optional, Sequence

from .exact import Mat, NotPositiveDefinite, SymMat, _over_common, det, echelon, inverse, solve
from .lattice import characteristic_set
from .scone import ConeDesc


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

    def refine(self, colors: list[int], split: Optional[Sequence[int]] = None) -> list[int]:
        """Stable (equitable) refinement of a coloring, order-invariant.

        Each round ranks the vertices of every cell by their signatures:
        the sorted (edge colour, colour) pairs of their neighbours.  The
        rounds stop when no cell splits, and the result is numbered 0, 1,
        ... in the order of the cells, each cell's parts in the order of
        their signatures.  With `split` None the first round takes every
        neighbour; otherwise `colors` must come from an equitable colouring
        by splitting the cells whose vertices `split` lists, as
        individualizing a vertex of a cell does.

        A round takes only the neighbours in the cells that split in the
        round before (in the first one, those `split` names), read off one
        pass over their adjacency, and a cell none of whose vertices has
        such a neighbour is not ranked.  The colours of the other cells
        were renumbered in order, and the vertices of a cell had equal
        signatures before, so each vertex of a cell has the same pairs from
        them, and as many pairs from the split cells.  Adding the same pairs
        to two sorted tuples of equal length keeps their order: the first
        value whose counts differ, and the direction, stay the same.  So the
        restricted signatures rank each cell as the full ones would.  The
        restriction is to the whole split cell, both parts: restricted to
        one part the counts may differ and the order can turn round.
        """
        n = self.n
        adj = self._adj
        by_color: dict = {}
        for v, c in enumerate(colors):
            by_color.setdefault(c, []).append(v)
        cells = [by_color[c] for c in sorted(by_color)]
        colors = [0] * n
        if split is None:
            split = range(n)
        first = 0                # the cells before this one kept their colours
        while True:
            for k in range(first, len(cells)):
                for v in cells[k]:
                    colors[v] = k
            values: list = [None] * n    # per vertex, its pairs from the split cells
            for u in split:
                cu = colors[u]
                for w, b in adj[u]:
                    if values[w] is None:
                        values[w] = [b + cu]
                    else:
                        values[w].append(b + cu)
            active = {colors[w] for w in range(n) if values[w] is not None}
            new_cells = []
            split = []
            first = None
            for k, cell in enumerate(cells):
                if len(cell) == 1 or k not in active:
                    new_cells.append(cell)
                    continue
                parts: dict = {}
                for v in cell:
                    pairs = values[v]
                    if pairs is None:
                        sig = ()
                    else:
                        pairs.sort()
                        sig = tuple(pairs)
                    if sig in parts:
                        parts[sig].append(v)
                    else:
                        parts[sig] = [v]
                if len(parts) == 1:
                    new_cells.append(cell)
                else:
                    if first is None:
                        first = len(new_cells)
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


def _orbit(v: int, gens: Sequence[tuple]) -> set:
    """The orbit of v under the group generated by the permutations."""
    orbit = {v}
    frontier = [v]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def canonical_labeling(graph: ColoredGraph):
    """Canonical form of a colored graph with its automorphism group.

    Returns (form, labeling, generators, order) where `form` is a canonical
    tuple equal for two graphs iff they are isomorphic (as colored graphs),
    `labeling` realizes it, and the permutation generators generate the full
    automorphism group whose exact order is returned.

    The search individualizes each vertex of the first non-singleton cell
    in turn and refines from that cell, depth first.  `form` is the least
    leaf form and `labeling` the first leaf with it; a child is pruned when
    automorphisms fixing its prefix map it onto an explored sibling, which
    never prunes that leaf.  An individualized vertex keeps its position in
    every leaf below its node.

    A leaf after the first is checked as a map from the first leaf, then
    from the least one so far: the map is an automorphism exactly when the
    two leaves have one form, so a leaf is encoded only when neither map is
    one, and a leaf encoded to either form raises.  If the map g from a
    leaf with sequence S (the first or the least) is an automorphism, and
    the leaf's own sequence first differs from S at index k, then g fixes
    S[:k] and maps S[k] onto the leaf's k-th vertex, so it maps the subtree
    of S[:k + 1], explored before, onto that of the leaf's first k + 1
    vertices.  Every form in the rest of that subtree was met already, so
    the search records g and goes back to the node at depth k, the common
    ancestor (McKay 1981; McKay & Piperno 2014): `dfs` returns the depth to
    go back to, and a frame deeper than it returns at once.  Orbit pruning
    and the jumps skip only subtrees that an automorphism maps from a
    subtree earlier in depth-first order, so they never skip the first leaf
    of the least form in that order, which gives `form` and `labeling` as
    the search without jumps does.

    Let P_i be the first i vertices individualized on the way to the first
    leaf and v_i the next one.  The subtree of P_i is explored before the
    siblings of P_i and of its ancestors, so every leaf met before the
    search leaves it lies in it, and no jump from inside it lands above
    P_i.  Every child w of P_i that an automorphism fixing P_i maps v_i
    onto is pruned, or its subtree, the image of that of v_i, holds a leaf
    with the first leaf's form.  The search leaves the subtree of w from
    the first leaf it meets with the form of the first or the least leaf,
    whose map sends v_i onto w, or an earlier child of P_i, in the orbit
    already, onto w.  So w joins the orbit of v_i under the generators
    fixing P_i, and the order is the product over i of those orbit lengths
    (McKay 1981).
    """
    n = graph.n
    if n == 0:
        return (0, (), ()), (), [], 1
    ranking = {c: i for i, c in enumerate(sorted(set(graph.node_colors)))}
    start = [ranking[c] for c in graph.node_colors]
    node_colors = graph.node_colors
    edges = graph.edges

    first: list = []            # form, labeling, prefix of the first leaf
    best: list = []             # form, labeling, prefix of the least leaf so far
    gens: list[tuple] = []

    def automorphism(lab1, lab2) -> Optional[tuple]:
        """The map sending lab1[p] to lab2[p], if it is an automorphism."""
        g = [0] * n
        for p in range(n):
            g[lab1[p]] = lab2[p]
        if any(node_colors[i] != node_colors[g[i]] for i in range(n)):
            return None
        for (i, j), c in edges.items():
            a, b = g[i], g[j]
            if edges.get((a, b) if a < b else (b, a)) != c:
                return None
        return tuple(g)

    prefix: list[int] = []

    def dfs(colors, split) -> int:
        depth = len(prefix)
        colors = graph.refine(colors, split)
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
            if not first:
                first[:] = best[:] = graph.encode(lab), lab, prefix[:]
                return depth
            seq = first[2]
            g = automorphism(first[1], lab)
            if g is None and best[1] is not first[1]:
                seq = best[2]
                g = automorphism(best[1], lab)
            if g is not None:
                if g not in gens:
                    gens.append(g)
                return next(k for k, (u, v) in enumerate(zip(seq, prefix)) if u != v)
            form = graph.encode(lab)
            if form == first[0] or form == best[0]:
                raise AssertionError("equal leaf forms without an automorphism")
            if form < best[0]:
                best[:] = form, lab, prefix[:]
            return depth
        explored: list[int] = []
        for v in target:
            # orbit pruning under automorphisms fixing the current prefix
            fixers = [g for g in gens if all(g[u] == u for u in prefix)]
            if _orbit(v, fixers).isdisjoint(explored):
                prefix.append(v)
                back = dfs(graph.individualize(colors, v), target)
                prefix.pop()
                if back < depth:
                    return back
            explored.append(v)
        return depth

    dfs(start, None)
    path = first[2]
    order = 1
    for i, v in enumerate(path):
        order *= len(_orbit(v, [g for g in gens if all(g[u] == u for u in path[:i])]))
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

    @classmethod
    def _automorphism(cls, matrix: Mat) -> "UnimodularMap":
        """The map of an integral U checked by the caller to satisfy
        U^T Q U = Q for a positive definite Q.  Then det(U)^2 det Q = det Q
        with det Q > 0, so det U = +-1, and no determinant is computed."""
        u = object.__new__(cls)
        object.__setattr__(u, "matrix", matrix)
        return u


def _require_integral_pd(q: SymMat):
    if not q.is_integral():
        raise ValueError("certificates require an integral form")
    if not q.is_positive_definite():
        raise NotPositiveDefinite("form is not positive definite")


@lru_cache(maxsize=4096)
def _form_canonical(q: SymMat):
    """Canonical data of a PD integral form: (canon form, canonical vector
    order, graph automorphism generators, group order)."""
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
    return form, witness, tuple(gens), order


def form_certificate(q: SymMat, algorithm: str = "sha256") -> CanonicalCertificate:
    form, witness, _, _ = _form_canonical(q)
    return CanonicalCertificate(digest_of(form, algorithm), witness, form)


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


def _witness_map(q1: SymMat, wit1: Sequence, q2: SymMat,
                 wit2: Sequence) -> Optional[UnimodularMap]:
    """The U with U wit2[k] = wit1[k] for all k, given witnesses of one
    canonical form, checked to satisfy U^T Q1 U = Q2; None if there is none."""
    u = _linear_map_from_vector_match(wit1, wit2, q1.d)
    if u is None or q1.congruence(u) != q2:
        return None
    return UnimodularMap(u)


def form_equivalence(q1: SymMat, q2: SymMat) -> Optional[UnimodularMap]:
    """Explicit U with U^T Q1 U = Q2, or None when the forms are not
    GL_d(Z)-equivalent.  The witness is verified before being returned."""
    form1, wit1, _, _ = _form_canonical(q1)
    form2, wit2, _, _ = _form_canonical(q2)
    if form1 != form2:
        return None
    u = _witness_map(q1, wit1, q2, wit2)
    if u is None:
        raise AssertionError("equal canonical forms did not give a witness map")
    return u


def automorphism_group(q: SymMat) -> tuple[list[UnimodularMap], int]:
    """Generators and exact order of {U in GL_d(Z) : U^T Q U = Q}.

    The graph automorphisms of the characteristic-set Gram graph extend
    uniquely to linear maps because the characteristic set spans.  One
    `echelon` of the sorted set picks a basis, its first d linearly
    independent vectors, and one `inverse` of the matrix S with these rows
    is taken per form: a generator g with U s = g(s) then has
    U^T = S^{-1} T, T the rows g(s) over the basis, which is read in
    integers from S^{-1} over its common denominator.  Each extension is
    checked, by explicit raises: U is integral, maps every characteristic
    vector s onto g(s) and fixes Q.  Q is positive definite, so a U that
    fixes it has det U = +-1, and the maps are built without a determinant
    (`UnimodularMap._automorphism`).
    """
    _, witness, gens, order = _form_canonical(q)
    can = tuple(sorted(witness))     # generators permute the lex-ordered set
    d = q.d
    basis = echelon(can).independent
    if len(basis) < d:
        raise AssertionError("the characteristic set does not span")
    inv = inverse(Mat([can[k] for k in basis])).entries
    flat, den = _over_common([x for row in inv for x in row])
    num = [flat[i:i + d] for i in range(0, d * d, d)]
    maps = []
    for g in gens:
        tcols = list(zip(*(can[g[k]] for k in basis)))
        rows = []
        for col in tcols:           # row i of U is column i of S^{-1} T
            row = []
            for n in num:
                x, rem = divmod(sum(map(mul, n, col)), den)
                if rem:
                    raise AssertionError("graph automorphism does not extend to an integral map")
                row.append(x)
            rows.append(row)
        u = Mat(rows)
        if any(u.mul_vec(s) != can[g[k]] for k, s in enumerate(can)):
            raise AssertionError("graph automorphism does not extend to a linear map")
        if q.congruence(u) != q:
            raise AssertionError("graph automorphism does not fix the form")
        maps.append(UnimodularMap._automorphism(u))
    return maps, order


def cone_equivalent(c1: ConeDesc, c2: ConeDesc,
                    witnesses: Optional[tuple] = None) -> Optional[UnimodularMap]:
    """GL_d(Z) equivalence of secondary cones through their central forms.

    `witnesses`, if given, are the canonical witnesses of the two central
    forms, which must have one canonical form; the map is then built from
    them, and neither form is labeled.  On success the witness U (with
    U^T central1 U = central2) is checked to map the ray set of c1 onto
    that of c2.
    """
    if witnesses is None:
        u = form_equivalence(c1.central, c2.central)
    else:
        u = _witness_map(c1.central, witnesses[0], c2.central, witnesses[1])
    if u is None:
        return None
    mapped = set(r.congruence(u.matrix).lower() for r in c1.rays)
    if mapped != set(r.lower() for r in c2.rays):
        raise AssertionError("central-form witness does not map the ray sets")
    return u
