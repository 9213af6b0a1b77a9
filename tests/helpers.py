"""Shared test utilities: seeded graph generators, exhaustive oracles, goldens.

The golden edge and cover listings below are frozen in rim-position space
(positions are 1-based and wrap modulo n*m) and mapped to vertex ids through
JahangirParams, so a listing like (4, 11) means the pair u4-u11.
"""

import random
from itertools import combinations

import pytest

from strongdim import (
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    InternalInconsistencyError,
    JahangirParams,
    SizeLimitError,
    StrongBasisResult,
    UNREACHABLE,
    all_pairs_distances,
    build_graph,
    build_jahangir,
    cycle_graph,
    is_connected,
    path_graph,
)
from strongdim.graphs import check_vertex, members
from strongdim.jahangir import _CASES, _nonconsecutive


def random_connected_graph(rng: random.Random, min_order=2, max_order=12) -> Graph:
    """Random tree plus a few extra edges; connected by construction."""
    order = rng.randint(min_order, max_order)
    edges = set()
    for v in range(1, order):
        edges.add((rng.randrange(v), v))
    for _ in range(rng.randint(0, order)):
        u, v = rng.randrange(order), rng.randrange(order)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(order, sorted(edges))


def large_random_graphs(count=10) -> list[Graph]:
    """Connected graphs of order 60-80, graph i drawn from ``random.Random(i)``.

    Too large for brute force, so their strong metric dimensions are pinned
    by a golden capture instead of an oracle.
    """
    return [random_connected_graph(random.Random(seed), 60, 80) for seed in range(count)]


def pinned_250_vertex_graph() -> Graph:
    """The 250-vertex graph the exact cover is timed on: 649 edges, optimum 207.

    perfbench's ``_random_connected`` recipe without its final relabelling,
    drawn from ``random.Random(7)``: vertex v > 0 hangs off a uniform earlier
    vertex, then random pairs are added until 400 new edges have landed.
    """
    rng = random.Random(7)
    order = 250
    edges = {(rng.randrange(v), v) for v in range(1, order)}
    target = len(edges) + 400
    while len(edges) < target:
        u, v = rng.sample(range(order), 2)
        edges.add((min(u, v), max(u, v)))
    return build_graph(order, sorted(edges))


def long_diameter_graphs():
    """Graphs whose diameter runs past the Hypothesis orders, as pytest params."""
    cases = [pytest.param(cycle_graph(n), id=f"C{n}") for n in range(3, 42)]
    cases += [pytest.param(path_graph(n), id=f"P{n}") for n in range(2, 41)]
    for n, m in ((12, 5), (15, 4), (2, 20), (25, 3)):
        cases.append(pytest.param(build_jahangir(JahangirParams(n, m))[0], id=f"J({n},{m})"))
    for seed in range(12):
        g = random_connected_graph(random.Random(seed), 20, 60)
        cases.append(pytest.param(g, id=f"random{seed}"))
    return cases


def random_graph(rng: random.Random, min_order=1, max_order=10) -> Graph:
    """Random graph of arbitrary density, possibly disconnected."""
    order = rng.randint(min_order, max_order)
    density = rng.random()
    edges = [
        (u, v)
        for u in range(order)
        for v in range(u + 1, order)
        if rng.random() < density
    ]
    return build_graph(order, edges)


def exhaustive_min_cover_size(g: Graph) -> int:
    """Smallest vertex cover size by checking all subsets, ascending."""
    edge_list = g.edges()
    for k in range(g.vertex_count + 1):
        for subset in combinations(range(g.vertex_count), k):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edge_list):
                return k
    raise AssertionError("unreachable: the full vertex set covers everything")


def enumerate_brute_force_sdim(g: Graph, size_cap: int = 16) -> StrongBasisResult:
    """Smallest strong resolving set by trying every subset: the oracle for ``brute_force_sdim``.

    The enumeration ``brute_force_sdim`` ran before its pruned search:
    subsets in increasing cardinality, lexicographic within a cardinality,
    first success returned, with the same size cap and the same errors.
    """
    if g.vertex_count > size_cap:
        raise SizeLimitError(
            f"graph has {g.vertex_count} vertices, brute force cap is {size_cap}"
        )
    if not is_connected(g):
        raise DisconnectedGraphError("strong metric dimension needs a connected graph")
    n = g.vertex_count
    d = all_pairs_distances(g).dist
    # one bitmask per vertex pair: which vertices strongly resolve it
    masks: list[int] = []
    for u in range(n):
        for v in range(u + 1, n):
            duv = d[u][v]
            mask = 0
            for w in range(n):
                if d[u][w] == duv + d[v][w] or d[v][w] == duv + d[u][w]:
                    mask |= 1 << w
            masks.append(mask)
    # checking scarcely-resolved pairs first makes rejection cheap
    masks.sort(key=lambda m: m.bit_count())
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            wmask = 0
            for w in combo:
                wmask |= 1 << w
            if all(wmask & mask for mask in masks):
                return StrongBasisResult(k, combo, "brute-force")
    raise InternalInconsistencyError("the full vertex set failed to strongly resolve the graph")


def bfs_is_strong_resolving_set(
    g: Graph, dm: DistanceMatrix | None, subset
) -> tuple[bool, tuple[int, int] | None]:
    """One BFS per chosen vertex: the oracle for ``is_strong_resolving_set``.

    The body ``is_strong_resolving_set`` ran before its multi-source walk
    over the distance balls, with the same errors, verdict and witness.

    For each chosen ``w`` one BFS from ``w`` gives the interval bitset
    I(w, v) of vertices on some shortest w-v path: when ``v`` is taken
    from its layer's frontier, I(w, v) is complete and is ORed into every
    neighbour in the next layer.  ``on_path[v]`` collects the intervals'
    union over the subset.  A pair {u, v} is resolved iff ``v`` is in
    ``on_path[u]`` or ``u`` is in ``on_path[v]``.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("strong resolution is defined for connected graphs")
    chosen = sorted(set(subset))
    for w in chosen:
        check_vertex(g.vertex_count, w)
    n = g.vertex_count
    adj = g.adjacency
    bit = [1 << v for v in range(n)]
    on_path = [0] * n
    for w in chosen:
        # interval[u] is complete when u is taken from the frontier: all its
        # predecessors sit in the previous layer and have pushed into it
        layer = [-1] * n
        interval = bit[:]
        layer[w] = 0
        frontier = [w]
        k = 0
        while frontier:
            k += 1
            nxt = []
            for u in frontier:
                iu = interval[u]
                on_path[u] |= iu
                for x in adj[u]:
                    lx = layer[x]
                    if lx < 0:
                        layer[x] = k
                        interval[x] |= iu
                        nxt.append(x)
                    elif lx == k:
                        interval[x] |= iu
            frontier = nxt
    full = (1 << n) - 1
    for u in range(n):
        # pairs (u, v), v > u, not resolved through on_path[u]; ascending v
        for v in members((full >> (u + 1) << (u + 1)) & ~on_path[u]):
            if not on_path[v] & bit[u]:
                return False, (u, v)
    return True, None


def balls_from_distances(dm: DistanceMatrix) -> list[list[int]]:
    """The radii :func:`strongdim.graphs.distance_balls` yields, read off a distance matrix.

    Bit ``y`` of ball r of ``x`` is set when ``dm.dist[x][y] <= r``, for
    r = 0 .. the largest finite entry (0 for the empty matrix).  Feeding it
    a matrix that misreports a distance gives the balls a graph with that
    distance would have.
    """
    rows = dm.dist
    top = max((d for row in rows for d in row if d != UNREACHABLE), default=0)
    return [
        [sum(1 << y for y, dxy in enumerate(row) if dxy <= r) for row in rows]
        for r in range(top + 1)
    ]


# The scalar extremal-distance scans ``jahangir`` ran on a dense distance
# matrix before it read distance balls, kept verbatim as the oracle for them.


def scalar_pairs_at(
    dm: DistanceMatrix, lab: JahangirParams, scope: str, target: int
) -> frozenset[tuple[int, int]]:
    """Pairs at distance ``target`` across the cycle pairs or segments of ``scope``."""
    m = lab.m
    if scope == "within":
        inner = [lab.inner_cycle_ids(k) for k in range(m)]
        rows = ((x, ids[i + 1 :]) for ids in inner for i, x in enumerate(ids))
    else:
        ks = [(k, (k + 1) % m) for k in range(m)] if scope == "consecutive" else _nonconsecutive(m)
        cycles = [lab.cycle_ids(k) for k in range(m)]
        rows = ((x, cycles[k2]) for k, k2 in ks for x in cycles[k])
    d = dm.dist
    found: set[tuple[int, int]] = set()
    for x, ys in rows:
        row = d[x]
        for y in ys:
            if x != y and row[y] == target:
                found.add((x, y) if x < y else (y, x))
    return frozenset(found)


def scalar_measure(
    dm: DistanceMatrix, lab: JahangirParams, case: str
) -> tuple[dict[str, frozenset[tuple[int, int]]], frozenset[tuple[int, int]]]:
    """The measured pairs of ``case`` and the pairs a diametrical path excluded from them."""
    tag, _, scope, offset, off_tag = _CASES[case]
    target = (lab.n // 2 if scope == "within" else lab.n) + offset
    measured = {tag: scalar_pairs_at(dm, lab, scope, target)}
    if off_tag is None:
        return measured, frozenset()
    # {x, y} lies on a diametrical path a .. x .. y .. b when the three legs
    # sum exactly; scanning ordered endpoint pairs covers both orientations
    d = dm.dist
    diam = max(max(r) for r in d)
    ends = [(a, b) for a, r in enumerate(d) for b, dab in enumerate(r) if dab == diam]
    near = scalar_pairs_at(dm, lab, scope, target - 1)
    on_path = frozenset(
        (x, y) for x, y in near if any(d[a][x] + d[x][y] + d[y][b] == d[a][b] for a, b in ends)
    )
    measured[off_tag] = near - on_path
    return measured, on_path


def id_pairs(lab: JahangirParams, listing) -> frozenset:
    """Map a golden listing of rim-position pairs to unordered id pairs."""
    return frozenset(lab.pair(i, j) for i, j in listing)


def id_set(lab: JahangirParams, positions) -> frozenset:
    return frozenset(lab.rim_id(i) for i in positions)


# J(6,5): the three predicted edge families and the optimal cover.
# The consecutive-cycle family as published contains one miscopied pair
# (u22-u19); the generating template and the computed MMD pairs both give
# u22-u29, which is what this golden freezes.
EVEN_65_ADJACENT = [
    (4, 11), (4, 27), (10, 3), (10, 17), (16, 9),
    (16, 23), (22, 15), (22, 29), (28, 21), (28, 5),
]
EVEN_65_DISTANT = [(4, 16), (4, 22), (10, 22), (10, 28), (16, 28)]
EVEN_65_WITHIN = [(2, 6), (8, 12), (14, 18), (20, 24), (26, 30)]
EVEN_65_COVER = [4, 10, 16, 22, 28, 2, 8, 14, 20, 26]

# J(5,5): families and cover, exactly as published.
ODD_55_ADJACENT = [
    (2, 8), (3, 22), (3, 9), (4, 23), (4, 10),
    (5, 24), (7, 13), (8, 14), (9, 15), (12, 18),
    (13, 19), (14, 20), (17, 23), (18, 24), (19, 25),
]
ODD_55_DISTANT = [
    (3, 13), (3, 14), (4, 13), (4, 14),
    (3, 18), (3, 19), (4, 18), (4, 19),
    (8, 18), (8, 19), (9, 18), (9, 19),
    (8, 23), (8, 24), (9, 23), (9, 24),
    (13, 23), (13, 24), (14, 23), (14, 24),
]
ODD_55_WITHIN = [(2, 5), (7, 10), (12, 15), (17, 20), (22, 25)]
ODD_55_COVER = [3, 4, 8, 9, 13, 14, 24, 2, 7, 12, 17, 25]

# m = 3 base cases: complete MMD pair lists.
MMD_23 = [(2, 5), (4, 1), (6, 3)]
MMD_33 = [(2, 6), (3, 8), (5, 9)]
MMD_43 = [(3, 8), (3, 10), (7, 2), (7, 12), (11, 4), (11, 6)]
