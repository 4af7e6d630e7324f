"""Finite groups of graph automorphisms with word metrics and families.

Group elements are vertex permutations stored as tuples (images indexed by
vertex).  The word metric comes from breadth-first search on the Cayley
graph of the symmetrized generating set, so it is left invariant.
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


def conjugate(g, H):
    """The conjugate subgroup g H g^-1."""
    gi = invert(g)
    return frozenset(compose(compose(g, h), gi) for h in H)


def is_automorphism(g: Graph, perm) -> bool:
    if len(perm) != g.vertex_count or set(perm) != set(range(g.vertex_count)):
        return False
    for (u, v) in g.edges:
        if canon_edge(perm[u], perm[v]) not in g.edges:
            return False
    return all(perm[v] in g.cone_vertices for v in g.cone_vertices)


class NotAutomorphism(ValueError):
    pass


@dataclass(frozen=True)
class GroupModel:
    """A finite group of graph automorphisms with a word metric."""

    graph: Graph
    elements: tuple
    generators: tuple
    identity: tuple
    word_length: dict = field(compare=False)

    def __len__(self):
        return len(self.elements)

    def ball(self, alpha, center=None):
        """Elements within word distance alpha of center (default identity)."""
        if center is None:
            return tuple(h for h in self.elements if self.word_length[h] <= alpha)
        return tuple(compose(center, h) for h in self.elements
                     if self.word_length[h] <= alpha)

    def index_of(self, element):
        return self.elements.index(element)


def trivial_group(g: Graph) -> GroupModel:
    e = identity_perm(g.vertex_count)
    return GroupModel(g, (e,), (), e, {e: 0})


def close_group(g: Graph, generator_perms, cap=20000) -> GroupModel:
    """Close generators under composition and inverse; BFS word lengths."""
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
    frontier = [e]
    while frontier:
        nxt = []
        for a in frontier:
            for s in sym:
                b = compose(a, s)
                if b not in word:
                    if len(word) >= cap:
                        raise CapExceeded("group closure exceeds cap %d" % cap)
                    word[b] = word[a] + 1
                    nxt.append(b)
        frontier = nxt
    elements = tuple(sorted(word))
    return GroupModel(g, elements, tuple(gens), e, word)


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def act_edge(perm, e):
    return canon_edge(perm[e[0]], perm[e[1]])


def act_angle(perm, angle):
    u, apex, w = angle
    a, b = sorted((perm[u], perm[w]))
    return (a, perm[apex], b)


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------


def subgroup_generated(G: GroupModel, seed) -> frozenset:
    elems = {G.identity}
    frontier = [G.identity]
    seed = list(seed)
    for s in seed:
        if s not in G.word_length:
            raise ValueError("seed element not in group")
    if len(set(seed)) == len(G.elements):
        return frozenset(G.elements)
    gens = seed + [invert(s) for s in seed]
    while frontier:
        nxt = []
        for a in frontier:
            for s in gens:
                b = compose(a, s)
                if b not in elems:
                    elems.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(elems)


def is_subgroup(G: GroupModel, subset) -> bool:
    sub = frozenset(subset)
    if G.identity not in sub:
        return False
    if len(sub) == len(G.elements) and all(a in G.word_length for a in sub):
        return True  # the whole group
    for a in sub:
        if invert(a) not in sub:
            return False
        for b in sub:
            if compose(a, b) not in sub:
                return False
    return True


# ---------------------------------------------------------------------------
# Families of subgroups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupFamily:
    """A family of subgroups, queried by membership only.

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
            return H == frozenset([G.identity])
        if self.kind == "all-subgroups":
            return is_subgroup(G, H)
        if self.kind == "explicit-list":
            return H in set(self.members)
        if self.kind == "stabilizer-closed":
            if H == frozenset([G.identity]):
                return True
            for S in self.seeds:
                S = frozenset(S)
                for g in G.elements:
                    if H <= conjugate(g, S):
                        return True
            return False
        raise ValueError("unknown family kind %r" % (self.kind,))


TRIVIAL_ONLY = SubgroupFamily("trivial-only")
ALL_SUBGROUPS = SubgroupFamily("all-subgroups")


def set_orbit(U, G: GroupModel, translate):
    """The orbit of the set U, walked along the generators of G.

    translate(p, S) applies the group element p to a set S; U and its
    translates are hashable (frozensets, or the Slices of cover members).
    Returns (orbit, stab): orbit maps each translate W of U, in
    breadth-first order from U, to a transversal element t_W with
    t_W.U = W (t_U is the identity), and stab is the setwise stabilizer of
    U.

    G.generators must generate G; every element is then a product of
    generators (inverses are positive powers in a finite group), so the
    walk reaches every translate.  By Schreier's lemma the elements
    t_{sW}^-1 s t_W, over orbit sets W and generators s, generate the
    stabilizer.  Cost: |orbit| * |generators| translates.
    """
    orbit = {U: G.identity}
    queue = [U]
    schreier = set()
    for W in queue:
        t = orbit[W]
        for s in G.generators:
            sW, st = translate(s, W), compose(s, t)
            if sW in orbit:
                schreier.add(compose(invert(orbit[sW]), st))
            else:
                orbit[sW] = st
                queue.append(sW)
    return orbit, subgroup_generated(G, schreier)


def is_F_subset(U, G: GroupModel, family: SubgroupFamily, act):
    """Check the equivariant-subset condition with a stabilizer witness.

    U is an F-subset when its setwise stabilizer F0 lies in the family and
    every other translate of U is disjoint from U; act(p, x) applies the
    group element p to a point x of U.  Returns (ok, witness) where witness
    is F0 on success.

    set_orbit gives F0 and the orbit; the translates p.U with p outside F0
    are exactly the orbit sets other than U, so disjointness is one test
    per orbit set.  G.generators must generate G.
    """
    U = frozenset(U)
    if not U:
        return True, frozenset([G.identity])
    orbit, stab = set_orbit(
        U, G, lambda p, S: frozenset(act(p, x) for x in S))
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

    G must act on the original graph of the subdivision.
    """
    if G.graph != subdivision.original:
        raise ValueError("the group must act on the original graph of the "
                         "subdivision")
    lift = {p: subdivision_perm(p, subdivision) for p in G.elements}
    elements = tuple(sorted(lift.values()))
    word = {lift[p]: G.word_length[p] for p in G.elements}
    gens = tuple(lift[p] for p in G.generators)
    return GroupModel(subdivision.graph, elements, gens,
                      lift[G.identity], word)
