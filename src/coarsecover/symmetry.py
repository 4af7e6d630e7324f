"""Finite groups of graph automorphisms with word metrics and families.

Group elements are vertex permutations stored as tuples (images indexed by
vertex).  The word metric comes from breadth-first search on the Cayley
graph of the symmetrized generating set, so it is left invariant.

A model is made one way: close_group closes its generators, and
subdivided_group lifts such a model to a subdivision.  So a model's
generators generate its elements by construction, and every walk along
the generators (an orbit, a saturation, a composition along the model's
walk) reaches the whole group; in a finite group an inverse is a
positive power.

A model numbers its elements: an element's number is its position in the
ascending tuple of elements, so the identity, the least permutation, is
number 0.  The number is the one name an element has outside the model,
whose elements and generators are the permutations themselves, read only
to move a point.  Products are read from a table of rows, row b mapping
the number of a to that of a*b; the rows of the generators and their
inverses come with the model, and every other row is composed from them
along one walk from the identity on first read.  Closures, orbits,
conjugates and balls are index arithmetic on that table, and no product
builds a permutation.  A subgroup is the frozenset of its numbers, the
trivial one {0}, and a transversal element, a word length or the g of a
pair (g, x) is a number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import CapExceeded, Graph, canon_edge


def identity_perm(n):
    return tuple(range(n))


def compose(p, q):
    """p after q: (p*q)(x) = p(q(x))."""
    return tuple(p[x] for x in q)


def invert(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def is_automorphism(g: Graph, perm) -> bool:
    if len(perm) != g.vertex_count or set(perm) != set(range(g.vertex_count)):
        return False
    for (u, v) in g.edges:
        if canon_edge(perm[u], perm[v]) not in g.edges:
            return False
    return all(perm[v] in g.cone_vertices for v in g.cone_vertices)


class NotAutomorphism(ValueError):
    pass


class _Products(dict):
    """b -> the row of right products by b: row[a] is the number of a*b.

    via maps each element but the identity to (c, s) with b = c*s and s a
    generator, in the order the walk from the identity along the
    generators reached them.  So a*b = (a*c)*s, and row b is row s read
    along row c: a row is made on first read from its parent's, the
    parents first.
    """

    __slots__ = ("via",)

    def __missing__(self, b):
        via = self.via
        path = [b]
        while via[path[-1]][0] not in self:
            path.append(via[path[-1]][0])
        for c in reversed(path):
            a, s = via[c]
            self[c] = list(map(self[s].__getitem__, self[a]))
        return self[b]


@dataclass(frozen=True)
class GroupModel:
    """A finite group of graph automorphisms with a word metric, its
    elements numbered by their position in elements, which ascend.  Made
    by close_group, or lifted by subdivided_group, never by hand."""

    graph: Graph
    elements: tuple
    generators: tuple
    # the numbers of the generators, in their order
    generator_numbers: tuple
    # number -> its word length
    word_length: tuple = field(compare=False)
    # number -> the number of its inverse
    inverse: tuple = field(compare=False, repr=False)
    # b -> the row of right products by b, see _Products; one memo that
    # every use of the model, and of its lift, shares
    products: dict = field(compare=False, repr=False)

    def __len__(self):
        return len(self.elements)

    def ball(self, alpha):
        """The numbers of the elements within word distance alpha of the
        identity, ascending."""
        return tuple(h for h, n in enumerate(self.word_length) if n <= alpha)


def close_group(g: Graph, generator_perms, cap=20000) -> GroupModel:
    """The group the generators generate, closed under composition and
    inverse, with BFS word lengths; no generators give the trivial group.
    The search makes every product a*s, s a generator, so it numbers the
    generators' rows as well, and the walk from the identity along the
    generators alone reaches every element."""
    e = identity_perm(g.vertex_count)
    gens = []
    for p in generator_perms:
        p = tuple(p)
        if not is_automorphism(g, p):
            raise NotAutomorphism("generator %r is not an automorphism" % (p,))
        if p != e and p not in gens:
            gens.append(p)
    sym = list(gens)
    for p in gens:
        ip = invert(p)
        if ip not in sym:
            sym.append(ip)
    word = {e: 0}
    right = {}  # a -> [a*s for the generators s]
    frontier = [e]
    while frontier:
        nxt = []
        for a in frontier:
            steps = [compose(a, s) for s in sym]
            right[a] = steps[:len(gens)]
            for b in steps:
                if b not in word:
                    if len(word) >= cap:
                        raise CapExceeded("group closure exceeds cap %d" % cap)
                    word[b] = word[a] + 1
                    nxt.append(b)
        frontier = nxt
    elements = tuple(sorted(word))
    rank = {p: i for i, p in enumerate(elements)}
    inverse = tuple(rank[invert(p)] for p in elements)
    rows = [(rank[s], [rank[right[a][k]] for a in elements])
            for k, s in enumerate(gens)]
    products = _Products({0: range(len(elements))})
    products.via = via = {}
    order = [0]
    for a in order:  # the walk grows while it is read
        for s, row in rows:
            b = row[a]
            if b and b not in via:
                via[b] = a, s
                order.append(b)
    for s, row in rows:
        products[s], products[inverse[s]] = row, invert(row)
    return GroupModel(g, elements, tuple(gens), tuple(s for s, _ in rows),
                      tuple(map(word.__getitem__, elements)), inverse,
                      products)


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def act_edge(perm, e):
    return canon_edge(perm[e[0]], perm[e[1]])


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------


def subgroup_generated(G: GroupModel, seed) -> frozenset:
    """The subgroup the numbers in seed generate: the products of seed,
    walked from the identity, since in a finite group an inverse is a
    positive power."""
    seed = set(seed)
    if len(seed) == len(G):
        return frozenset(seed)  # the whole group
    rows = [G.products[s] for s in seed if s]
    out = {0}
    order = [0]
    for a in order:  # the walk grows while it is read
        for row in rows:
            b = row[a]
            if b not in out:
                out.add(b)
                order.append(b)
    return frozenset(out)


def is_subgroup(G: GroupModel, subset) -> bool:
    """Whether the numbers in subset hold the identity and every product
    of two of them, which in a finite group makes a subgroup."""
    H = frozenset(subset)
    if 0 not in H or not H.issubset(range(len(G))):
        return False
    products = G.products
    return len(H) == len(G) or all(products[b][a] in H for b in H for a in H)


def conjugate(G: GroupModel, g, H) -> frozenset:
    """The conjugate subgroup g H g^-1, g a number: g h is row h read at
    g, and (g h) g^-1 row g^-1 read at g h."""
    back, products = G.products[G.inverse[g]], G.products
    return frozenset(back[products[h][g]] for h in H)


def sifted_generators(G: GroupModel, H):
    """A generating set of the subgroup H: each number of sorted(H) not
    yet generated by those kept before it.  The span starts at the
    identity, which is never kept."""
    gens, span = [], {0}
    for a in sorted(H):
        if a not in span:
            gens.append(a)
            span = subgroup_generated(G, gens)
    return gens


# ---------------------------------------------------------------------------
# Families of subgroups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupFamily:
    """A family of subgroups, queried by membership only; a subgroup, a
    listed member and a seed are frozensets of element numbers.

    kinds:
      trivial-only      just the trivial subgroup
      all-subgroups     every subgroup (the finite-model stand-in for the
                        virtually cyclic and peripheral families, where every
                        subgroup of a finite group qualifies)
      explicit-list     exactly the listed subgroups (the list should be
                        closed under conjugation and under passing to
                        subgroups)
      stabilizer-closed subgroups subconjugate to one of the seed subgroups
    """

    kind: str
    members: tuple = ()
    seeds: tuple = ()

    def contains(self, subgroup, G: GroupModel) -> bool:
        H = frozenset(subgroup)
        if self.kind == "trivial-only":
            return H == TRIVIAL
        if self.kind == "all-subgroups":
            return is_subgroup(G, H)
        if self.kind == "explicit-list":
            return H in self.members
        if self.kind == "stabilizer-closed":
            return H == TRIVIAL or any(H <= conjugate(G, g, S)
                                       for S in self.seeds
                                       for g in range(len(G)))
        raise ValueError("unknown family kind %r" % (self.kind,))


TRIVIAL = frozenset([0])
TRIVIAL_ONLY = SubgroupFamily("trivial-only")
ALL_SUBGROUPS = SubgroupFamily("all-subgroups")


def set_orbit(U, G: GroupModel, translate):
    """The orbit of the set U, walked along the generators of G.

    translate(k, S) applies the group element numbered k to a set S; U
    and its translates are hashable (frozensets, or the Slices of cover
    members).  Returns (orbit, stab): orbit maps each translate W of U, in
    breadth-first order from U, to the number of a transversal element t_W
    with t_W.U = W (t_U is the identity, 0), and stab is the setwise
    stabilizer of U.

    G.generators generate G (see the module docstring), so the walk
    reaches every translate.  By Schreier's lemma the elements
    t_{sW}^-1 s t_W, over orbit sets W and generators s, generate the
    stabilizer.  Cost: |orbit| * |generators| translates.  The walk runs
    on numbers: s t = (t^-1 s^-1)^-1 reads the row of s^-1, which comes
    with the model, and t_{sW}^-1 (s t) the row of the transversal t_{sW}.
    """
    inverse, products = G.inverse, G.products
    steps = [(s, products[inverse[s]]) for s in G.generator_numbers]
    orbit = {U: 0}
    queue = [U]
    schreier = set()
    for W in queue:
        t_inv = inverse[orbit[W]]
        for s, back in steps:
            sW, st = translate(s, W), inverse[back[t_inv]]
            if sW in orbit:
                schreier.add(inverse[products[orbit[sW]][inverse[st]]])
            else:
                orbit[sW] = st
                queue.append(sW)
    return orbit, subgroup_generated(G, schreier)


def is_F_subset(U, G: GroupModel, family: SubgroupFamily, act):
    """Check the equivariant-subset condition with a stabilizer witness.

    U is an F-subset when its setwise stabilizer F0 lies in the family and
    every other translate of U is disjoint from U; act(k, x) applies the
    group element numbered k to a point x of U.  Returns (ok, witness)
    where witness is F0 on success.

    set_orbit gives F0 and the orbit; the translates p.U with p outside F0
    are exactly the orbit sets other than U, so disjointness is one test
    per orbit set.
    """
    U = frozenset(U)
    if not U:
        return True, TRIVIAL
    orbit, stab = set_orbit(
        U, G, lambda k, S: frozenset(act(k, x) for x in S))
    if any(W & U for W in orbit if W != U) or not family.contains(stab, G):
        return False, None
    return True, stab


# ---------------------------------------------------------------------------
# Induced action on a barycentric subdivision
# ---------------------------------------------------------------------------


def subdivision_perm(perm, subdivision):
    """Extend a vertex permutation of the original graph to the subdivision."""
    n = subdivision.original.vertex_count
    total = subdivision.graph.vertex_count
    out = list(range(total))
    for v in range(n):
        out[v] = perm[v]
    for e, m in subdivision.midpoint_of_edge.items():
        out[m] = subdivision.midpoint_of_edge[act_edge(perm, e)]
    return tuple(out)


def subdivided_group(G: GroupModel, subdivision) -> GroupModel:
    """The same abstract group acting on the subdivided graph.

    G must act on the original graph of the subdivision.  A lift begins
    with the permutation it lifts, as the original vertices come first, so
    the lifts ascend as the elements do: every element keeps its number,
    and the lift shares G's word lengths, inverses and product table.
    """
    if G.graph != subdivision.original:
        raise ValueError("the group must act on the original graph of the "
                         "subdivision")
    lift = tuple(subdivision_perm(p, subdivision) for p in G.elements)
    gens = G.generator_numbers
    return GroupModel(subdivision.graph, lift, tuple(lift[s] for s in gens),
                      gens, G.word_length, G.inverse, G.products)
