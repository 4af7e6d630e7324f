"""Deterministic instance generators shared by the tests and the CLI.

Everything is seeded; identical arguments give identical instances.
"""

from __future__ import annotations

import random

from .graphs import Graph, make_graph
from .symmetry import close_group


def path_graph(n) -> Graph:
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n) -> Graph:
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(legs) -> Graph:
    return make_graph(legs + 1, [(0, i) for i in range(1, legs + 1)])


def complete_graph(n) -> Graph:
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def hypercube3() -> Graph:
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            w = v ^ bit
            if v < w:
                edges.append((v, w))
    return make_graph(8, edges)


def random_tree(n, seed) -> Graph:
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return make_graph(n, edges)


def spider(legs, leg_len) -> Graph:
    """Star of paths: center 0, leg j occupies 1 + j*leg_len .. (j+1)*leg_len."""
    edges = []
    n = 1 + legs * leg_len
    for j in range(legs):
        base = 1 + j * leg_len
        edges.append((0, base))
        for i in range(leg_len - 1):
            edges.append((base + i, base + i + 1))
    return make_graph(n, edges)


def spider_rotation(legs, leg_len):
    """Generator rotating the legs of spider(legs, leg_len)."""
    n = 1 + legs * leg_len
    perm = [0] * n
    for j in range(legs):
        for i in range(leg_len):
            perm[1 + j * leg_len + i] = 1 + ((j + 1) % legs) * leg_len + i
    return tuple(perm)


def wedge_of_cycles(k, cycle_len) -> Graph:
    """k cycles glued at vertex 0; a cut vertex with crossing large angles."""
    edges = []
    n = 1 + k * (cycle_len - 1)
    for j in range(k):
        base = 1 + j * (cycle_len - 1)
        ring = [0] + [base + i for i in range(cycle_len - 1)]
        for i in range(cycle_len):
            edges.append((ring[i], ring[(i + 1) % cycle_len]))
    return make_graph(n, edges)


def theta_graph(l1, l2, l3) -> Graph:
    """Two junction vertices joined by three disjoint paths of given lengths."""
    assert min(l1, l2, l3) >= 1 and sorted((l1, l2, l3))[1] >= 2
    edges = []
    n = 2
    junction = [0, 1]
    for ln in (l1, l2, l3):
        prev = 0
        for i in range(ln - 1):
            edges.append((prev, n))
            prev = n
            n += 1
        edges.append((prev, 1))
    return make_graph(n, edges)


def cycle_with_tail(cycle_len, tail_len) -> Graph:
    edges = [(i, (i + 1) % cycle_len) for i in range(cycle_len)]
    prev = 0
    n = cycle_len
    for _ in range(tail_len):
        edges.append((prev, n))
        prev = n
        n += 1
    return make_graph(n, edges)


def triangle_caterpillar(spine_len, blooms) -> Graph:
    """A path with triangles glued along it; slim but with circuits."""
    edges = [(i, i + 1) for i in range(spine_len)]
    n = spine_len + 1
    for j in sorted(blooms):
        if j + 1 > spine_len:
            raise ValueError("bloom off the spine")
        edges.append((j, n))
        edges.append((j + 1, n))
        n += 1
    return make_graph(n, edges)


def barbell(cycle_len, bridge_len) -> Graph:
    """Two cycles joined by a path."""
    edges = [(i, (i + 1) % cycle_len) for i in range(cycle_len)]
    n = cycle_len
    prev = 0
    for _ in range(bridge_len):
        edges.append((prev, n))
        prev = n
        n += 1
    ring = [prev] + [n + i for i in range(cycle_len - 1)]
    for i in range(cycle_len):
        edges.append((ring[i], ring[(i + 1) % cycle_len]))
    return make_graph(n + cycle_len - 1, edges)


def grid_graph(rows, cols) -> Graph:
    """Euclidean-ish grid; fails one-dimensional doubling bounds."""
    def vid(r, c):
        return r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return make_graph(rows * cols, edges)


def cyclic_rotation(n):
    return tuple((i + 1) % n for i in range(n))


def cycle_reflection(n):
    return tuple((-i) % n for i in range(n))


def dihedral_group(n):
    g = cycle_graph(n)
    return close_group(g, [cyclic_rotation(n), cycle_reflection(n)])


def rotation_group(n):
    g = cycle_graph(n)
    return close_group(g, [cyclic_rotation(n)])


def battery_graphs():
    """Graphs exercising every lemma hypothesis, including planted large
    angles at cut vertices."""
    return [
        ("c6", cycle_graph(6)),
        ("c5", cycle_graph(5)),
        ("k4", complete_graph(4)),
        ("q3", hypercube3()),
        ("tree", random_tree(12, seed=7)),
        ("wedge", wedge_of_cycles(2, 6)),
        ("theta", theta_graph(2, 2, 3)),
        ("tail", cycle_with_tail(6, 3)),
        ("caterpillar", triangle_caterpillar(6, [1, 3])),
    ]


def rips_instances():
    """(name, graph, d, theta-fold) triples with valid contraction data."""
    return [
        ("tree", random_tree(16, seed=3), 4),
        ("path", path_graph(14), 5),
        ("c6", cycle_graph(6), 4),
        ("wedge", wedge_of_cycles(2, 6), 6),
        ("tail", cycle_with_tail(6, 4), 6),
        ("caterpillar", triangle_caterpillar(8, [2, 5]), 4),
        ("theta", theta_graph(2, 2, 2), 6),
    ]


def flow_graphs():
    """(name, graph, use-all-angles) for coarse flow corpora.

    Subdivided sizes stay at or below 200 vertices; the path instance sits
    just under the bound so fiber doubling is exercised far above the
    threshold radius.
    """
    return [
        ("path99", path_graph(99), True),
        ("tree80", random_tree(80, seed=11), True),
        ("caterpillar", triangle_caterpillar(60, [9, 23, 41]), True),
        ("c12", cycle_graph(12), False),
        ("wedge", wedge_of_cycles(2, 6), False),
        ("theta", theta_graph(3, 3, 4), False),
    ]


def pipeline_instances():
    """(name, graph, generators, theta0_mode, alpha, tau_max) end-to-end runs."""
    marked_spider = make_graph(spider(2, 4).vertex_count, spider(2, 4).edges,
                               cone_vertices=[0])
    marked_rot = make_graph(spider(3, 5).vertex_count, spider(3, 5).edges,
                            cone_vertices=[0])
    return [
        ("path12", path_graph(12), [], "all", 1, 4),
        ("tree16", random_tree(16, seed=3), [], "all", 1, 4),
        ("tree24", random_tree(24, seed=9), [], "all", 1, 4),
        ("caterpillar", triangle_caterpillar(10, [2, 6]), [], "all", 1, 4),
        ("spider-rot", spider(3, 5), [spider_rotation(3, 5)], "seed", 1, 4),
        ("spider4-rot", spider(4, 4), [spider_rotation(4, 4)], "seed", 1, 4),
        ("c12-r3", cycle_graph(12),
         [tuple((i + 3) % 12 for i in range(12))], "seed", 1, 6),
        ("wedge", wedge_of_cycles(2, 6), [], "all", 1, 4),
        ("marked-cone", marked_spider, [], "all", 1, 4),
        ("marked-cone-rot", marked_rot, [spider_rotation(3, 5)], "seed", 1, 4),
    ]
