"""Strong resolution, mutually maximally distant pairs, and strong metric dimension.

A vertex ``w`` strongly resolves ``u`` and ``v`` when one of them lies on a
shortest path between the other and ``w``.  The strong metric dimension of a
connected graph is the size of a smallest set that strongly resolves every
vertex pair.  It equals the minimum vertex cover of the strong resolving
graph, whose edges are exactly the mutually maximally distant (MMD) pairs,
which is what :func:`cover_pipeline` and :func:`sdim_via_cover` exploit.

The two whole-graph scans work on Python integers used as vertex bitsets
(bit ``v`` stands for vertex ``v``) and read no distance matrix, so the
pipeline never builds the dense all-pairs one.  :func:`mmd_pairs` reads the
stream of :func:`~strongdim.graphs.distance_balls`, one radius per round,
and reads off each vertex's maximally distant vertices from its sphere and
its neighbours' balls: O(diam * (V + E)) big-integer operations with two
radii live at a time; it reads connectivity off the last radius instead of
running a BFS of its own.  :func:`is_strong_resolving_set` runs one BFS per
chosen vertex and pushes the interval bitsets of shortest paths forward
layer by layer: O(|S| * (V + E)) big-integer ORs instead of O(V^2 * |S|)
comparisons.  The two share no distance data, so the re-check judges the
cover independently of MMD detection.  :func:`strongly_resolves` and
:func:`is_maximally_distant` stay the scalar definitions both are tested
against; they, like :func:`brute_force_sdim`, read a
:class:`~strongdim.graphs.DistanceMatrix`.

:func:`brute_force_sdim` is the independent judge: it works from the
definition alone and shares no code with the scans above or the cover
search.  It keeps, per vertex pair, the bitset of its strong resolvers
(inclusion-minimal ones only) and looks for a smallest set meeting them all
by a depth-first search over vertex ids, taking each id before skipping it.
The search prunes a branch when some pending bitset has no id left at or
above the current one, or when a greedy packing of pairwise disjoint
pending bitsets needs more vertices than the size still allowed.  It visits
the sets of one size in lexicographic order, so it returns the same basis
as trying every subset in that order, usually after a small fraction of
the work, but it is still exponential in the worst case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import (
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    GraphError,
    SizeLimitError,
    all_pairs_distances,
    build_graph,
    check_vertex,
    distance_balls,
    is_connected,
    members,
)
from .vertex_cover import exact_min_vertex_cover


class InternalInconsistencyError(RuntimeError):
    """A structural identity the implementation relies on failed to hold."""


@dataclass(frozen=True)
class StrongBasisResult:
    """A minimum strong resolving set and the method that produced it."""

    size: int
    basis: tuple[int, ...]
    method: str  # "brute-force" or "vertex-cover-reduction"


def strongly_resolves(dm: DistanceMatrix, w: int, u: int, v: int) -> bool:
    """True when u is on a shortest w-v path or v is on a shortest w-u path."""
    check_vertex(dm.order, w)
    check_vertex(dm.order, u)
    check_vertex(dm.order, v)
    if u == v:
        raise GraphError(f"strongly_resolves needs two distinct vertices, got u = v = {u}")
    d = dm.dist
    duv = d[u][v]
    return d[u][w] == duv + d[v][w] or d[v][w] == duv + d[u][w]


def is_strong_resolving_set(
    g: Graph, dm: DistanceMatrix | None, subset: Iterable[int]
) -> tuple[bool, tuple[int, int] | None]:
    """Check whether ``subset`` strongly resolves every vertex pair.

    Returns ``(True, None)`` or ``(False, witness)`` with the first
    unresolved pair in sorted order.  Requires a connected graph.  ``dm``
    is not read (pass None): the distances come from a BFS of ``g`` per
    chosen vertex.  ``perfbench`` still passes it positionally; the
    parameter can go once it stops.

    For each chosen ``w`` one BFS from ``w`` gives the interval bitset
    I(w, v) of vertices on some shortest w-v path: when ``v`` is taken
    from its layer's frontier, I(w, v) is complete and is ORed into every
    neighbour in the next layer.  ``on_path[v]`` collects the intervals'
    union over the subset.  A pair {u, v} is resolved iff ``v`` is in
    ``on_path[u]`` or ``u`` is in ``on_path[v]``.  Cost:
    O(|subset| * (V + E)) big-integer ORs plus at most V^2 / 2 single-bit
    tests, against O(V^2 * |subset|) comparisons for the scalar definition.
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


def _minimal_resolver_masks(g: Graph) -> list[int]:
    """Inclusion-minimal resolver bitsets of the vertex pairs, by popcount.

    The resolver bitset of a pair {u, v} holds every ``w`` that strongly
    resolves it, tested with the scalar inequality of
    :func:`strongly_resolves`.  A set meets every bitset iff it meets every
    inclusion-minimal one, so duplicates and supersets are dropped.  Every
    bitset holds ``u`` and ``v`` themselves, so none is empty.
    """
    n = g.vertex_count
    d = all_pairs_distances(g).dist
    bits = [1 << w for w in range(n)]
    masks = set()
    for u in range(n):
        du = d[u]
        for v in range(u + 1, n):
            dv = d[v]
            duv = du[v]
            mask = 0
            for duw, dvw, bit in zip(du, dv, bits):
                if duw == duv + dvw or dvw == duv + duw:
                    mask |= bit
            masks.add(mask)
    minimal: list[int] = []
    # a proper subset has a smaller popcount, so it is kept before its supersets
    for mask in sorted(masks, key=lambda m: (m.bit_count(), m)):
        if all(kept & mask != kept for kept in minimal):
            minimal.append(mask)
    return minimal


def _first_hitting_set(masks: list[int], k: int) -> tuple[tuple[int, ...] | None, int]:
    """The lexicographically first k-set of vertex ids meeting every mask, and the nodes searched.

    Depth-first over vertex ids: at id ``i`` the search takes ``i`` first,
    then skips it, so k-sets are reached in :func:`itertools.combinations`
    order and the first hit is the lexicographically first one.  A node is
    pruned when a pending mask has no bit at or above ``i``, or when a greedy
    packing of pairwise disjoint pending masks, cut to ids at or above ``i``,
    needs more vertices than the ``budget`` left: each packed mask needs a
    vertex of its own.  Returns ``(None, nodes)`` when no k-set exists.
    Recursion is at most one level per vertex id.
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


def brute_force_sdim(g: Graph, size_cap: int = 16) -> StrongBasisResult:
    """Smallest strong resolving set by exhaustive search from the definition.

    Each vertex pair gets the bitset of vertices that strongly resolve it,
    and only the inclusion-minimal bitsets are kept
    (:func:`_minimal_resolver_masks`).  For k = 0, 1, ... a pruned
    depth-first search (:func:`_first_hitting_set`) looks for a k-set
    meeting all of them.  Within one k it reaches sets in lexicographic
    order and its prunes only cut branches that hold no k-set, so the
    result is the smallest size and the lexicographically first basis of
    that size, the set that trying every k-subset in order would return.
    Worst-case time is still exponential in the order.  Shares no code with
    :func:`is_strong_resolving_set`, :func:`mmd_pairs` or the cover search,
    so it can judge them.  Refuses graphs larger than ``size_cap``.
    """
    if g.vertex_count > size_cap:
        raise SizeLimitError(
            f"graph has {g.vertex_count} vertices, brute force cap is {size_cap}"
        )
    if not is_connected(g):
        raise DisconnectedGraphError("strong metric dimension needs a connected graph")
    masks = _minimal_resolver_masks(g)
    for k in range(g.vertex_count + 1):
        basis, _ = _first_hitting_set(masks, k)
        if basis is not None:
            return StrongBasisResult(k, basis, "brute-force")
    raise InternalInconsistencyError("the full vertex set failed to strongly resolve the graph")


def is_maximally_distant(g: Graph, dm: DistanceMatrix, u: int, v: int) -> bool:
    """True when no neighbor of ``u`` is farther from ``v`` than ``u`` is."""
    check_vertex(g.vertex_count, u)
    check_vertex(g.vertex_count, v)
    if u == v:
        raise GraphError(f"maximal distance needs two distinct vertices, got u = v = {u}")
    d = dm.dist
    duv = d[u][v]
    return all(d[w][v] <= duv for w in g.adjacency[u])


def mmd_pairs(g: Graph) -> frozenset[tuple[int, int]]:
    """All pairs that are maximally distant from each other, as (u, v) with u < v.

    Reads the balls of :func:`~strongdim.graphs.distance_balls` one radius
    at a time, keeping the previous radius as ``inner``.  At radius k, ``u``
    is maximally distant from every ``v`` at distance exactly k (the sphere
    ``ball[u] & ~inner[u]``) that lies within distance k of all neighbours
    of ``u``, so ``far[u]`` collects the sphere ANDed with the neighbours'
    balls.  (u, v) is MMD iff each lies in the other's ``far``.  Cost:
    O(diam * (V + E)) big-integer operations.  The last radius is the fixed
    point, where every ball is its vertex's component, so it also tells
    whether ``g`` is connected; no separate BFS runs.
    """
    n = g.vertex_count
    adj = g.adjacency
    far = [0] * n
    balls = distance_balls(g)
    inner = next(balls)
    for ball in balls:
        for u in range(n):
            sphere = ball[u] & ~inner[u]
            if not sphere:
                continue
            for w in adj[u]:
                sphere &= ball[w]
                if not sphere:
                    break
            else:
                far[u] |= sphere
        inner = ball
    if n > 1 and inner[0] != (1 << n) - 1:
        raise DisconnectedGraphError("MMD pairs are defined for connected graphs")
    found = {
        (u, v)
        for u in range(n)
        for v in members(far[u] >> (u + 1) << (u + 1))
        if far[v] >> u & 1
    }
    return frozenset(found)


def strong_resolving_graph(g: Graph, dm: DistanceMatrix | None = None) -> Graph:
    """Graph on the same vertices whose edges are the MMD pairs of ``g``.

    Labels carry over so derived output stays readable.  ``dm`` is not
    read: :func:`mmd_pairs` works from ``g`` alone.  ``perfbench`` still
    passes it positionally; the parameter can go once it stops.
    """
    return build_graph(g.vertex_count, sorted(mmd_pairs(g)), g.labels)


def cover_pipeline(g: Graph) -> tuple[Graph, StrongBasisResult]:
    """The strong resolving graph and a minimum strong resolving set read off its optimal cover.

    The basis is re-checked against the definition; a failure would mean
    the reduction itself is broken, so it raises
    :class:`InternalInconsistencyError` rather than returning quietly.
    Both the MMD detection and the re-check work from BFS over ``g``, so no
    all-pairs distance matrix is built.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("strong metric dimension needs a connected graph")
    srg = strong_resolving_graph(g)
    cover = exact_min_vertex_cover(srg)
    ok, witness = is_strong_resolving_set(g, None, cover.cover)
    if not ok:
        raise InternalInconsistencyError(
            f"optimal cover of the strong resolving graph left pair {witness} unresolved"
        )
    return srg, StrongBasisResult(cover.size, cover.cover, "vertex-cover-reduction")


def sdim_via_cover(g: Graph) -> StrongBasisResult:
    """Strong metric dimension as a minimum vertex cover of the strong resolving graph."""
    return cover_pipeline(g)[1]
