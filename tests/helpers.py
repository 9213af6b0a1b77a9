"""Shared test utilities: seeded graph generators, exhaustive oracles, goldens.

The golden edge and cover listings below are frozen in rim-position space
(positions are 1-based and wrap modulo n*m) and mapped to vertex ids through
JahangirParams, so a listing like (4, 11) means the pair u4-u11.
"""

import functools
import random
from collections.abc import Sequence
from itertools import combinations

import pytest

from strongdim import (
    DisconnectedGraphError,
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
from strongdim.graphs import check_vertex, graph_from_masks, members
from strongdim.jahangir import _CASES, _nonconsecutive
from strongdim.vertex_cover import EXACT_COVER_CAP


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


def random_tree(rng: random.Random, order: int) -> Graph:
    """Random recursive tree: vertex v > 0 hangs off a uniform earlier vertex."""
    return build_graph(order, [(rng.randrange(v), v) for v in range(1, order)])


def complete_bipartite_graph(r: int, s: int) -> Graph:
    """K_{r,s}: ids 0 .. r-1 on one side, r .. r+s-1 on the other."""
    return build_graph(r + s, [(u, v) for u in range(r) for v in range(r, r + s)])


def hypercube_graph(d: int) -> Graph:
    """Q_d: ids 0 .. 2^d - 1, adjacent when their bits differ in one place."""
    order = 1 << d
    return build_graph(order, [(u, u | 1 << i) for u in range(order) for i in range(d) if not u >> i & 1])


def grid_graph(r: int, s: int) -> Graph:
    """The grid P_r □ P_s: the vertex in row i, column j has id i*s + j."""
    edges = [(i * s + j, i * s + j + 1) for i in range(r) for j in range(s - 1)]
    edges += [(i * s + j, (i + 1) * s + j) for i in range(r - 1) for j in range(s)]
    return build_graph(r * s, edges)


def masks_of(g: Graph) -> list[int]:
    """Each vertex's neighbour bitset, summed from its ``adjacency`` tuple."""
    return [sum(1 << w for w in nbrs) for nbrs in g.adjacency]


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


def _canonical_code(rows: list[int]) -> tuple[int, ...]:
    """An isomorphism invariant that determines the graph whose neighbour bitsets are ``rows``.

    Colour refinement splits the vertices by degree, then by the sorted
    colours of their neighbours, until no class splits; the colours are
    ranks of sorted signatures, so isomorphic graphs get the same colour
    sequence.  Over every vertex order that lists the classes in colour
    order, position j gets the bitset of the earlier positions adjacent to
    it, and the code is the least such tuple, found depth first with each
    prefix above the best one so far cut.  The code spells out the edges of
    the ordered graph, so equal codes mean isomorphic graphs.
    """
    n = len(rows)
    nbrs = [list(members(row)) for row in rows]
    colour = [len(near) for near in nbrs]
    classes = len(set(colour))
    while True:
        signature = [(colour[v], tuple(sorted(colour[u] for u in nbrs[v]))) for v in range(n)]
        rank = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        colour = [rank[sig] for sig in signature]
        if len(rank) == classes:
            break
        classes = len(rank)
    slot = sorted(colour)
    best = None
    stack = [((), ())]
    while stack:
        order, code = stack.pop()
        j = len(order)
        if j == n:
            if best is None or code < best:
                best = code
            continue
        for v in range(n):
            if colour[v] == slot[j] and v not in order:
                row = rows[v]
                longer = code + (sum(1 << i for i, u in enumerate(order) if row >> u & 1),)
                if best is None or longer <= best[: j + 1]:
                    stack.append((order + (v,), longer))
    return best


@functools.cache
def connected_graphs_to_isomorphism(max_order: int) -> tuple[Graph, ...]:
    """One connected graph per isomorphism class, of order 1 .. ``max_order``, by ascending order.

    Every connected graph of order n >= 2 has a vertex whose removal leaves
    it connected (a leaf of a spanning tree), so joining a new vertex to
    each nonempty subset of each connected graph of order n - 1 reaches
    every class; :func:`_canonical_code` keeps one graph of each, labelled
    by its code.  The class counts are OEIS A001349: 1, 1, 2, 6, 21, 112
    and 853 for orders 1 .. 7.
    """
    graphs = [graph_from_masks(1, [0])]
    for n in range(2, max_order + 1):
        codes = {
            _canonical_code([row | (sub >> v & 1) << (n - 1) for v, row in enumerate(g.masks)] + [sub])
            for g in graphs
            if g.vertex_count == n - 1
            for sub in range(1, 1 << (n - 1))
        }
        for code in sorted(codes):
            rows = [0] * n
            for j, earlier in enumerate(code):
                rows[j] |= earlier
                for i in members(earlier):
                    rows[i] |= 1 << j
            graphs.append(graph_from_masks(n, rows))
    return tuple(graphs)


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
    d = all_pairs_distances(g)
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


def scratch_first_hitting_set(masks: list[int], k: int) -> tuple[tuple[int, ...] | None, int]:
    """Recursive take-then-skip search: the oracle for ``_first_hitting_set``.

    The body ``_first_hitting_set`` ran before its search became one loop
    over an explicit stack, with the same prunes, node count and result
    ``(basis | None, nodes)``.  It stays recursive, so it shares no control
    flow with the stack it judges.
    """
    chosen: list[int] = []
    nodes = 0

    def search(i: int, pending: list[int], budget: int) -> bool:
        nonlocal nodes
        nodes += 1
        packed = 0
        need = 0
        for mask in pending:
            reach = mask >> i
            if not reach:
                return False
            if not reach & packed:
                packed |= reach
                need += 1
                if need > budget:
                    return False
        if not pending:
            return True
        chosen.append(i)
        if search(i + 1, [mask for mask in pending if not mask >> i & 1], budget - 1):
            return True
        chosen.pop()
        return search(i + 1, pending, budget)

    found = search(0, masks, k)
    return (tuple(chosen) if found else None), nodes


def bfs_is_strong_resolving_set(
    g: Graph, dm: object, subset
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


def lowest_first_clique_partition(nbr: list[int], cand: int) -> list[int]:
    """Greedy partition of ``cand`` into cliques, lowest bit first, as masks.

    The partition ``_mis_search`` used while position i was bit i, kept as
    the oracle's own: the lowest unassigned vertex opens a clique, which
    then takes, lowest first, every unassigned vertex adjacent to all its
    members.
    """
    classes = []
    rest = cand
    while rest:
        low = rest & -rest
        rest ^= low
        clique = low
        near = nbr[low.bit_length() - 1] & rest
        while near:
            low = near & -near
            rest ^= low
            clique |= low
            near &= nbr[low.bit_length() - 1]
        classes.append(clique)
    return classes


def scratch_mis_search(g: Graph) -> tuple[list[int], int, int]:
    """Every node partitions its candidates afresh: the oracle for ``_mis_search``.

    The body ``_mis_search`` ran before its nodes reused their parent's
    cliques, with the same relabelling, root reductions, branching order,
    result ``(order, mask, nodes)`` and errors.  Position i is bit i of
    every mask, and the partition is :func:`lowest_first_clique_partition`,
    so the oracle shares no kernel with the search it judges.  It stays
    recursive, so it shares no control flow with the search's explicit
    stack either.
    """
    n = g.vertex_count
    if n > EXACT_COVER_CAP:
        raise SizeLimitError(f"graph has {n} vertices, exact cover cap is {EXACT_COVER_CAP}")
    order = sorted(range(n), key=lambda v: len(g.adjacency[v]))
    position = {v: i for i, v in enumerate(order)}
    nbr = [sum(1 << position[u] for u in g.adjacency[v]) for v in order]

    live = (1 << n) - 1
    forced = 0
    taken = True
    while taken:
        taken = False
        rest = live
        while rest:
            low = rest & -rest
            rest ^= low
            if not live & low:
                continue
            near = nbr[low.bit_length() - 1] & live
            if not near:
                forced |= low
                live ^= low
            elif not near & (near - 1):
                forced |= low
                live &= ~(low | near)
                taken = True

    best_set = 0
    best_size = 0
    nodes = 0

    def search(cand: int, size: int, chosen: int) -> None:
        nonlocal best_set, best_size, nodes
        nodes += 1
        if not cand:
            if size > best_size:
                best_set, best_size = chosen, size
            return
        classes = lowest_first_clique_partition(nbr, cand)
        for k in range(len(classes), best_size - size, -1):
            clique = classes[k - 1]
            while clique:
                if size + k <= best_size:
                    return
                v = clique.bit_length() - 1
                bit = 1 << v
                clique ^= bit
                cand ^= bit
                search(cand & ~nbr[v], size + 1, chosen | bit)

    search(live, 0, 0)
    return order, forced | best_set, nodes


def balls_from_distances(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The radii :func:`strongdim.graphs.distance_balls` yields, read off distance rows.

    Bit ``y`` of ball r of ``x`` is set when ``rows[x][y] <= r``, for
    r = 0 .. the largest finite entry (0 for no rows).  Feeding it rows
    that misreport a distance gives the balls a graph with that distance
    would have.
    """
    top = max((d for row in rows for d in row if d != UNREACHABLE), default=0)
    return [
        [sum(1 << y for y, dxy in enumerate(row) if dxy <= r) for row in rows]
        for r in range(top + 1)
    ]


# The scalar extremal-distance scans ``jahangir`` ran on a dense distance
# matrix before it read distance balls, kept verbatim as the oracle for them.


def scalar_pairs_at(
    d: tuple[tuple[int, ...], ...], lab: JahangirParams, scope: str, target: int
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
    found: set[tuple[int, int]] = set()
    for x, ys in rows:
        row = d[x]
        for y in ys:
            if x != y and row[y] == target:
                found.add((x, y) if x < y else (y, x))
    return frozenset(found)


def scalar_measure(
    d: tuple[tuple[int, ...], ...], lab: JahangirParams, case: str
) -> tuple[dict[str, frozenset[tuple[int, int]]], frozenset[tuple[int, int]]]:
    """The measured pairs of ``case`` and the pairs a diametrical path excluded from them."""
    tag, family, offset, off_tag = _CASES[case]
    scope = {"adjacent": "consecutive", "distant": "nonconsecutive", "within": "within"}[family]
    target = (lab.n // 2 if scope == "within" else lab.n) + offset
    measured = {tag: scalar_pairs_at(d, lab, scope, target)}
    if off_tag is None:
        return measured, frozenset()
    # {x, y} lies on a diametrical path a .. x .. y .. b when the three legs
    # sum exactly; scanning ordered endpoint pairs covers both orientations
    diam = max(max(r) for r in d)
    ends = [(a, b) for a, r in enumerate(d) for b, dab in enumerate(r) if dab == diam]
    near = scalar_pairs_at(d, lab, scope, target - 1)
    on_path = frozenset(
        (x, y) for x, y in near if any(d[a][x] + d[x][y] + d[y][b] == d[a][b] for a, b in ends)
    )
    measured[off_tag] = near - on_path
    return measured, on_path


def per_regime_cover_even(params: JahangirParams) -> frozenset[int]:
    """The even-regime cover builder that ``predicted_cover`` replaced, kept as its oracle.

    Per segment: the midpoint vertex plus the vertices at positions
    2 .. n/2 - 1.  Size m(n-2)/2.  Callers pass even-regime cells only.
    """
    n, m = params.n, params.m
    rim_id = params.rim_id
    half = n // 2
    chosen: set[int] = set()
    for k in range(m):
        chosen.add(rim_id(n * k + half + 1))
        for i in range(2, half):
            chosen.add(rim_id(n * k + i))
    return frozenset(chosen)


def per_regime_cover_odd(params: JahangirParams) -> frozenset[int]:
    """The odd-regime cover builder that ``predicted_cover`` replaced, kept as its oracle.

    With h = (n-1)/2: both near-midpoint vertices (positions h+1, h+2) of
    the first m-2 segments, the position h+2 vertex of the last segment,
    positions 2 .. h of every segment but the last, and positions
    h+3 .. n of the last segment.  Size m(n-1)/2 + m - 3.  Callers pass
    odd-regime cells only.
    """
    n, m = params.n, params.m
    rim_id = params.rim_id
    half = n // 2
    chosen: set[int] = set()
    for k in range(m - 2):
        chosen.add(rim_id(n * k + half + 1))
        chosen.add(rim_id(n * k + half + 2))
    chosen.add(rim_id(n * (m - 1) + half + 2))
    for k in range(m - 1):
        for i in range(2, half + 1):
            chosen.add(rim_id(n * k + i))
    for i in range(half + 3, n + 1):
        chosen.add(rim_id(n * (m - 1) + i))
    return frozenset(chosen)


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
