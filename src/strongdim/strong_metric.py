"""Strong resolution, mutually maximally distant pairs, and strong metric dimension.

A vertex ``w`` strongly resolves ``u`` and ``v`` when one of them lies on a
shortest path between the other and ``w``.  The strong metric dimension of a
connected graph is the size of a smallest set that strongly resolves every
vertex pair.  It equals the minimum vertex cover of the strong resolving
graph, whose edges are exactly the mutually maximally distant (MMD) pairs,
which is what :func:`cover_pipeline` and :func:`sdim_via_cover` exploit.

The two whole-graph scans work on Python integers used as vertex bitsets
(bit ``v`` stands for vertex ``v``).  :func:`is_strong_resolving_set` builds,
for each chosen vertex, the interval bitsets of shortest paths in one pass
over its BFS layers: O(|S| * (V + E)) big-integer ORs instead of
O(V^2 * |S|) comparisons.  :func:`mmd_pairs` builds, per vertex, the bitset
of vertices maximally distant from it and keeps the pairs found in both
directions: O(V * (V + E)) comparisons.
:func:`strongly_resolves` and :func:`is_maximally_distant` stay the scalar
definitions both are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .graphs import (
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    GraphError,
    SizeLimitError,
    all_pairs_distances,
    build_graph,
    check_vertex,
    is_connected,
)
from .vertex_cover import exact_min_vertex_cover


class InternalInconsistencyError(RuntimeError):
    """A structural identity the implementation relies on failed to hold."""


@dataclass(frozen=True)
class MmdPairSet:
    """All mutually maximally distant pairs of a graph, as (u, v) with u < v."""

    order: int
    pairs: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class StrongBasisResult:
    """A minimum strong resolving set and the method that produced it."""

    size: int
    basis: tuple[int, ...]
    method: str  # "brute-force" or "vertex-cover-reduction"


def _members(mask: int) -> Iterator[int]:
    """Vertices whose bits are set in ``mask``, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    g: Graph, dm: DistanceMatrix, subset: Iterable[int]
) -> tuple[bool, tuple[int, int] | None]:
    """Check whether ``subset`` strongly resolves every vertex pair.

    Returns ``(True, None)`` or ``(False, witness)`` with the first
    unresolved pair in sorted order.  Requires a connected graph.

    For each chosen ``w`` one forward pass over the BFS layers of ``w``
    gives the interval bitset I(w, v) of vertices on some shortest w-v
    path, and ``on_path[v]`` collects their union over the subset.  A pair
    {u, v} is resolved iff ``v`` is in ``on_path[u]`` or ``u`` is in
    ``on_path[v]``.  Cost: O(|subset| * (V + E)) big-integer ORs plus at
    most V^2 / 2 single-bit tests, against O(V^2 * |subset|) comparisons
    for the scalar definition.
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
        dw = dm.dist[w]
        interval = [0] * n
        for v in sorted(range(n), key=dw.__getitem__):
            dv = dw[v]
            acc = bit[v]
            for p in adj[v]:
                if dw[p] < dv:
                    acc |= interval[p]
            interval[v] = acc
            on_path[v] |= acc
    full = (1 << n) - 1
    for u in range(n):
        # pairs (u, v), v > u, not resolved through on_path[u]; ascending v
        for v in _members((full >> (u + 1) << (u + 1)) & ~on_path[u]):
            if not on_path[v] & bit[u]:
                return False, (u, v)
    return True, None


def brute_force_sdim(g: Graph, size_cap: int = 16) -> StrongBasisResult:
    """Smallest strong resolving set by exhaustive subset search.

    Subsets are enumerated in increasing cardinality and lexicographic
    order within each cardinality, and the first success is returned, so
    the basis is deterministic.  Refuses graphs larger than ``size_cap``.
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


def is_maximally_distant(g: Graph, dm: DistanceMatrix, u: int, v: int) -> bool:
    """True when no neighbor of ``u`` is farther from ``v`` than ``u`` is."""
    check_vertex(g.vertex_count, u)
    check_vertex(g.vertex_count, v)
    if u == v:
        raise GraphError(f"maximal distance needs two distinct vertices, got u = v = {u}")
    d = dm.dist
    duv = d[u][v]
    return all(d[w][v] <= duv for w in g.adjacency[u])


def mmd_pairs(g: Graph, dm: DistanceMatrix | None = None) -> MmdPairSet:
    """All pairs that are maximally distant from each other.

    ``far[v]`` is the bitset of vertices ``u`` with no neighbor farther
    from ``v`` than ``u`` is; (u, v) is MMD iff each lies in the other's
    set.  Cost: O(V * (V + E)) with one big-integer OR per hit.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("MMD pairs are defined for connected graphs")
    if dm is None:
        dm = all_pairs_distances(g)
    n = g.vertex_count
    adj = g.adjacency
    bit = [1 << v for v in range(n)]
    far = [0] * n
    for v in range(n):
        dv = dm.dist[v]
        mask = 0
        for u in range(n):
            du = dv[u]
            for w in adj[u]:
                if dv[w] > du:
                    break
            else:
                mask |= bit[u]
        far[v] = mask & ~bit[v]
    found = {
        (u, v)
        for u in range(n)
        for v in _members(far[u] >> (u + 1) << (u + 1))
        if far[v] & bit[u]
    }
    return MmdPairSet(n, frozenset(found))


def strong_resolving_graph(g: Graph, dm: DistanceMatrix | None = None) -> Graph:
    """Graph on the same vertices whose edges are the MMD pairs of ``g``.

    Labels carry over so derived output stays readable.
    """
    pairs = mmd_pairs(g, dm)
    return build_graph(g.vertex_count, sorted(pairs.pairs), g.labels)


def cover_pipeline(g: Graph, dm: DistanceMatrix | None = None) -> tuple[Graph, StrongBasisResult]:
    """The strong resolving graph and a minimum strong resolving set read off its optimal cover.

    The basis is re-checked against the definition; a failure would mean
    the reduction itself is broken, so it raises
    :class:`InternalInconsistencyError` rather than returning quietly.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("strong metric dimension needs a connected graph")
    if dm is None:
        dm = all_pairs_distances(g)
    srg = strong_resolving_graph(g, dm)
    cover = exact_min_vertex_cover(srg)
    ok, witness = is_strong_resolving_set(g, dm, cover.cover)
    if not ok:
        raise InternalInconsistencyError(
            f"optimal cover of the strong resolving graph left pair {witness} unresolved"
        )
    return srg, StrongBasisResult(cover.size, cover.cover, "vertex-cover-reduction")


def sdim_via_cover(g: Graph, dm: DistanceMatrix | None = None) -> StrongBasisResult:
    """Strong metric dimension as a minimum vertex cover of the strong resolving graph."""
    return cover_pipeline(g, dm)[1]
