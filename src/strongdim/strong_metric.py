"""Strong resolution, mutually maximally distant pairs, and strong metric dimension.

A vertex ``w`` strongly resolves ``u`` and ``v`` when one of them lies on a
shortest path between the other and ``w``.  The strong metric dimension of a
connected graph is the size of a smallest set that strongly resolves every
vertex pair.  It equals the minimum vertex cover of the strong resolving
graph, whose edges are exactly the mutually maximally distant (MMD) pairs.
The one pipeline function, ``_cover_pipeline``, and its public face
:func:`sdim_via_cover` exploit that.

The two whole-graph scans work on Python integers used as vertex bitsets
(bit ``v`` stands for vertex ``v``).  Both read the radii of
:func:`~strongdim.graphs.distance_balls`, not a distance matrix, and read
connectivity off the last radius.  :func:`strong_resolving_graph` walks
the radii upward, takes each vertex's MMD partners as one bitset row from
one :func:`~strongdim.graphs.transpose_rows`, and builds the graph from
those rows by :func:`~strongdim.graphs.graph_from_masks`, whose sorted
edges are the MMD pairs.  The graph keeps the rows as its ``masks`` view,
which the cover search reads, so on the ``sdim`` path the rows are never
decoded into neighbour tuples.  :func:`is_strong_resolving_set` walks the radii downward
once for all chosen vertices together.  Each public scan grows its own
radii from the graph; no caller hands radii in.  The pipeline grows them
once, reads connectivity off them, and hands the same list to the private
bodies of both scans (``_mmd_graph`` and ``_recheck``).  Sharing the list
loses the re-check no independence: the radii are a deterministic function
of the graph that both scans would otherwise recompute identically, and
:func:`~strongdim.graphs.distance_balls` is judged on its own, against BFS
rows and by brute force on small graphs.  The re-check shares no code with
the MMD scan, so it still judges the cover independently of MMD detection.
:func:`strongly_resolves` and :func:`is_maximally_distant` are the scalar
definitions both are tested against.

:func:`brute_force_sdim` is the independent judge: it works from the
definition alone, on the rows of
:func:`~strongdim.graphs.all_pairs_distances`, and shares no code with the
scans above or the cover search.  It looks for a smallest set meeting every
inclusion-minimal resolver bitset of the vertex pairs, by a pruned
depth-first search that is still exponential in the worst case.  The
bitsets test the two equalities of :func:`strongly_resolves` rearranged as
``d(u, w) - d(v, w) = +-d(u, v)``, for all ``w`` of a pair at once, on
distance rows packed a byte per vertex (:func:`_byte_resolver_masks`).
That is exact while every distance is below 128, so at any order up to
128, which covers every brute-force cap of the CLI and ``verify``.  A graph
with a distance of 128 or more, or a disconnected one, takes the per-``w``
loop of :func:`_loop_resolver_masks` instead, which is also the reference
the byte pass is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import xor
from typing import Iterable

from .graphs import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    SizeLimitError,
    UNREACHABLE,
    all_pairs_distances,
    check_vertex,
    distance_balls,
    graph_from_masks,
    is_connected,
    members,
    transpose_rows,
)
from .vertex_cover import check_cover_cap, exact_min_vertex_cover

DEFAULT_BRUTE_CAP = 16  # default of brute force's order cap: size_cap, brute_cap, --brute-cap


class InternalInconsistencyError(RuntimeError):
    """A structural identity the implementation relies on failed to hold."""


@dataclass(frozen=True)
class StrongBasisResult:
    """A minimum strong resolving set and the method that produced it."""

    size: int
    basis: tuple[int, ...]
    method: str  # "brute-force" or "vertex-cover-reduction"


def strongly_resolves(dist: tuple[tuple[int, ...], ...], w: int, u: int, v: int) -> bool:
    """True when u is on a shortest w-v path or v is on a shortest w-u path.

    ``dist`` holds the rows of :func:`~strongdim.graphs.all_pairs_distances`.
    Raises :class:`DisconnectedGraphError` when ``w``, ``u`` and ``v`` do not
    all lie in one component.
    """
    check_vertex(len(dist), w)
    check_vertex(len(dist), u)
    check_vertex(len(dist), v)
    if u == v:
        raise GraphError(f"strongly_resolves needs two distinct vertices, got u = v = {u}")
    duv, duw, dvw = dist[u][v], dist[u][w], dist[v][w]
    if UNREACHABLE in (duv, duw, dvw):
        raise DisconnectedGraphError("strong resolution is defined for connected graphs")
    return duw == duv + dvw or dvw == duv + duw


def is_strong_resolving_set(
    g: Graph, dm: object, subset: Iterable[int]
) -> tuple[bool, tuple[int, int] | None]:
    """Check whether ``subset`` strongly resolves every vertex pair.

    Returns ``(True, None)`` or ``(False, witness)`` with the first
    unresolved pair in sorted order.  Requires a connected graph; then
    each id is checked in the order given, and the first that is not a
    vertex raises :class:`GraphError`.  ``dm`` is not read (pass None): the distances come from the balls of ``g``.
    ``perfbench`` still passes it positionally; the parameter can go once
    it stops.

    ``hit[v]`` collects every ``u`` such that ``v`` lies on a shortest
    u-w path for some chosen ``w``; a pair {u, v} is resolved iff ``u`` is
    in ``hit[v]`` or ``v`` is in ``hit[u]``.  It is built for all chosen
    vertices at once (the multi-source traversal of Then et al., PVLDB
    8(4), 2014) by one downward walk over the radii k = D .. 0 of
    :func:`~strongdim.graphs.distance_balls`.  ``reach[v]`` at radius k
    holds the ``u`` at distance exactly k from ``v`` with ``v`` on a
    shortest path from ``u`` to the subset: for a chosen ``v`` its whole
    radius-k sphere, otherwise the sphere ANDed with the union of its
    neighbours' ``reach`` at radius k + 1, since the next vertex towards
    ``w`` is such a neighbour.  Only one radius of ``reach`` is live at a
    time, and only the unchosen vertices are walked: a chosen vertex's
    ``hit`` is the union of its spheres, every vertex.  Cost:
    O(diam * (V + E)) big-integer operations plus at most V^2 / 2
    single-bit tests, against O(V^2 * |subset|) comparisons for the scalar
    definition.  The radii are grown here.  The re-check shares
    no code with :func:`strong_resolving_graph` or the bit-matrix transpose
    it uses (:func:`~strongdim.graphs.transpose_rows`), so it judges the
    cover independently of MMD detection even when both read the same
    radii, as they do in the pipeline.  The last radius is the fixed point,
    so it also tells whether ``g`` is connected; no separate BFS runs.
    """
    return _recheck(g, list(distance_balls(g)), subset)


def _recheck(
    g: Graph, radii: list[list[int]], subset: Iterable[int]
) -> tuple[bool, tuple[int, int] | None]:
    """:func:`is_strong_resolving_set` on ``radii``, the list ``list(distance_balls(g))``.

    The list is read, never modified.
    """
    n = g.vertex_count
    full = (1 << n) - 1
    if n > 1 and radii[-1][0] != full:
        raise DisconnectedGraphError("strong resolution is defined for connected graphs")
    ids = list(subset)
    for w in ids:  # in the order given, before hashing: the first bad id is named
        check_vertex(n, w)
    chosen = set(ids)
    rest = [v for v in range(n) if v not in chosen]
    adj = g.adjacency
    hit = [0] * n
    reach = [0] * n  # radius k + 1; nothing lies beyond the last radius
    empty = [0] * n
    for k in range(len(radii) - 1, -1, -1):
        # a chosen vertex reaches its whole sphere; inner[v] is a subset of ball[v]
        spheres = list(map(xor, radii[k], radii[k - 1] if k else empty))
        for v in rest:
            if sphere := spheres[v]:
                via = 0
                for x in adj[v]:
                    via |= reach[x]
                spheres[v] = sphere = sphere & via
                hit[v] |= sphere
        reach = spheres
    for w in chosen:
        hit[w] = full
    for u in range(n):
        # pairs (u, v), v > u, not resolved through hit[u]; ascending v
        for v in members((full >> (u + 1) << (u + 1)) & ~hit[u]):
            if not hit[v] >> u & 1:
                return False, (u, v)
    return True, None


_BYTE_PASS_LIMIT = 128  # the byte pass is exact while every distance is below this


def _mark_tables() -> list[bytes]:
    """``bytes.translate`` tables by distance ``t``: bytes ``128 +- t`` to ``b"1"``, every other to ``b"0"``.

    Built once, at import, by two strided slice assignments.
    """
    marks = bytearray(b"0" * 256 * _BYTE_PASS_LIMIT)
    # table t is marks[256 t : 256 t + 256]; 128 + t sits at 128 + 257 t, 128 - t at 128 + 255 t
    marks[128::257] = marks[128::255] = b"1" * _BYTE_PASS_LIMIT
    return [bytes(marks[i : i + 256]) for i in range(0, len(marks), 256)]


_MARK_TABLES = _mark_tables()


def _minimal_resolver_masks(g: Graph) -> list[int]:
    """Inclusion-minimal resolver bitsets of the vertex pairs, by popcount, then value.

    The resolver bitset of a pair {u, v} holds every ``w`` that strongly
    resolves it.  When every distance is below :data:`_BYTE_PASS_LIMIT`,
    which holds at any order up to 128, the bitsets come from
    :func:`_byte_resolver_masks`; otherwise (a distance of 128 or more, or
    :data:`~strongdim.graphs.UNREACHABLE`) from the per-``w`` loop
    :func:`_loop_resolver_masks`, the two equalities of
    :func:`strongly_resolves` as written.  A set meets every bitset iff it
    meets every inclusion-minimal one, so duplicates and supersets are
    dropped.  Every bitset holds ``u`` and ``v`` themselves, so none is
    empty.
    """
    d = all_pairs_distances(g)
    if max(map(max, d), default=0) < _BYTE_PASS_LIMIT:
        masks = _byte_resolver_masks(d)
    else:
        masks = _loop_resolver_masks(d)
    minimal: list[int] = []
    # a stable sort by popcount of the value-sorted masks: (popcount, value)
    # order, and a proper subset has a smaller popcount, so it is kept
    # before its supersets
    for mask in sorted(sorted(masks), key=int.bit_count):
        for kept in minimal:
            if kept & mask == kept:
                break
        else:
            minimal.append(mask)
    return minimal


def _byte_resolver_masks(d: tuple[tuple[int, ...], ...]) -> set[int]:
    """The distinct resolver bitsets of the vertex pairs of the distance rows ``d``, a byte per vertex.

    Every distance must be below :data:`_BYTE_PASS_LIMIT`.  Row ``u`` is
    packed into one int with ``d(u, w)`` in byte ``w`` (byte 0 least
    significant), so byte ``w`` of ``packed[u] + 0x80...80 - packed[v]`` is
    ``128 + d(u, w) - d(v, w)``: each such byte lies in 1 .. 255, so no
    byte borrows from the next.  The two equalities of
    :func:`strongly_resolves`, rearranged as ``d(u, w) - d(v, w) = +-d(u, v)``,
    hold exactly at the bytes ``128 +- d(u, v)``.  One ``bytes.translate``
    with the table of ``d(u, v)`` in :data:`_MARK_TABLES` turns those bytes
    into ``b"1"`` and every other into ``b"0"``; written most significant
    byte first, vertex ``w`` lands at the ``w``-th digit from the right, so
    the text read in base 2 is the pair's bitset.
    """
    n = len(d)
    packed = [int.from_bytes(bytes(row), "little") for row in d]
    bias = int.from_bytes(b"\x80" * n, "little")
    masks = set()
    for u in range(n):
        high = packed[u] + bias
        du = d[u]
        for v in range(u + 1, n):
            masks.add(int((high - packed[v]).to_bytes(n, "big").translate(_MARK_TABLES[du[v]]), 2))
    return masks


def _loop_resolver_masks(d: tuple[tuple[int, ...], ...]) -> set[int]:
    """The distinct resolver bitsets of the vertex pairs of the distance rows ``d``, one ``w`` at a time.

    Tests the scalar equalities of :func:`strongly_resolves` for every
    pair and every ``w``: V^3 / 2 comparisons, exact at any distance,
    :data:`~strongdim.graphs.UNREACHABLE` included.
    """
    n = len(d)
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
    return masks


def _first_hitting_set(masks: list[int], k: int) -> tuple[tuple[int, ...] | None, int]:
    """The lexicographically first k-set of vertex ids meeting every mask, and the nodes searched.

    Depth-first over vertex ids: at id ``i`` the search takes ``i`` first,
    then skips it, so k-sets are reached in :func:`itertools.combinations`
    order and the first hit is the lexicographically first one.  A node is
    pruned when a pending mask has no bit at or above ``i``, or when a greedy
    packing of pairwise disjoint pending masks, cut to ids at or above ``i``,
    needs more vertices than the ``budget`` left: each packed mask needs a
    vertex of its own.  Returns ``(None, nodes)`` when no k-set exists.
    The search is one loop over an explicit stack of
    ``(i, pending, budget, chosen)`` nodes: a node that survives its prunes
    pushes its skip child, then its take child, so the take subtree is
    searched first.  Python's recursion limit does not bound the ids.
    """
    nodes = 0
    stack = [(0, masks, k, ())]
    while stack:
        i, pending, budget, chosen = stack.pop()
        nodes += 1
        packed = 0
        need = 0
        for mask in pending:
            reach = mask >> i
            if not reach:
                break
            if not reach & packed:
                packed |= reach
                need += 1
                if need > budget:
                    break
        else:
            if not pending:
                return chosen, nodes
            stack.append((i + 1, pending, budget, chosen))
            stack.append((i + 1, [mask for mask in pending if not mask >> i & 1], budget - 1, chosen + (i,)))
    return None, nodes


def check_brute_cap(order: int, cap: int) -> None:
    """Raise :class:`SizeLimitError` for an order above ``cap``: brute force's one refusal, also the CLI's."""
    if order > cap:
        raise SizeLimitError(f"graph has {order} vertices, brute force cap is {cap}")


def brute_force_sdim(g: Graph, size_cap: int = DEFAULT_BRUTE_CAP) -> StrongBasisResult:
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
    :func:`is_strong_resolving_set`, :func:`strong_resolving_graph` or the
    cover search, so it can judge them.  :func:`check_brute_cap` refuses
    graphs larger than ``size_cap``.
    """
    check_brute_cap(g.vertex_count, size_cap)
    if not is_connected(g):
        raise DisconnectedGraphError("strong metric dimension needs a connected graph")
    masks = _minimal_resolver_masks(g)
    for k in range(g.vertex_count + 1):
        basis, _ = _first_hitting_set(masks, k)
        if basis is not None:
            return StrongBasisResult(k, basis, "brute-force")
    raise InternalInconsistencyError("the full vertex set failed to strongly resolve the graph")


def is_maximally_distant(g: Graph, dist: tuple[tuple[int, ...], ...], u: int, v: int) -> bool:
    """True when no neighbor of ``u`` is farther from ``v`` than ``u`` is, by the rows ``dist``.

    Raises :class:`DisconnectedGraphError` when ``u`` and ``v`` lie in
    different components.
    """
    check_vertex(g.vertex_count, u)
    check_vertex(g.vertex_count, v)
    if u == v:
        raise GraphError(f"maximal distance needs two distinct vertices, got u = v = {u}")
    duv = dist[u][v]
    if duv == UNREACHABLE:  # u's neighbours share its component: their reads are finite when this one is
        raise DisconnectedGraphError("MMD pairs are defined for connected graphs")
    return all(dist[w][v] <= duv for w in g.adjacency[u])


def strong_resolving_graph(g: Graph, dm: object = None) -> Graph:
    """Graph on the same vertices whose edges are the mutually maximally distant pairs of ``g``.

    At radius k of :func:`~strongdim.graphs.distance_balls`, ``far[u]`` gains
    the vertices of the sphere ``ball[u] ^ inner[u]`` that lie within distance
    k of every neighbour of ``u``: those ``u`` is maximally distant from.  The
    MMD rows are ``far`` ANDed with its columns, :func:`~strongdim.graphs.transpose_rows`,
    and :func:`~strongdim.graphs.graph_from_masks` builds the graph from them.
    O(diam * (V + E)) big-integer operations plus one transpose.  The last
    radius, the fixed point, tells whether ``g`` is connected.  The balls
    are grown here, two radii live at a time.  ``dm`` is not read;
    ``perfbench`` still passes it positionally.
    """
    return _mmd_graph(g, distance_balls(g))


def _mmd_graph(g: Graph, balls: Iterable[list[int]]) -> Graph:
    """:func:`strong_resolving_graph` on ``balls``, the radii of ``distance_balls(g)`` in order.

    The radii are read, never modified.
    """
    n = g.vertex_count
    adj = g.adjacency
    far = [0] * n
    balls = iter(balls)
    inner = next(balls)
    for ball in balls:
        for u in range(n):
            sphere = ball[u] ^ inner[u]  # inner[u] is a subset of ball[u]
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
    mmd = [row & col for row, col in zip(far, transpose_rows(far))]
    return graph_from_masks(n, mmd)


def _cover_pipeline(g: Graph) -> tuple[list[list[int]], Graph, StrongBasisResult]:
    """The radii grown, the strong resolving graph and a minimum strong resolving set off its cover.

    The one pipeline function.  :func:`sdim_via_cover` is its public face;
    :func:`~strongdim.jahangir.verify_predictions` also reads the radii it
    returns first, ``list(distance_balls(g))``, for its extremal-distance
    scans, so a cell grows them once.  The basis is re-checked
    against the definition; a failure would mean the reduction itself is
    broken, so it raises :class:`InternalInconsistencyError` rather than
    returning quietly.  The MMD detection and the re-check both read the
    one radii list; no all-pairs distance matrix is built and no separate
    connectivity BFS runs, since the last radius tells whether ``g`` is
    connected.  A graph above the exact cover's order cap raises
    :class:`~strongdim.graphs.SizeLimitError` before any radius is grown.
    """
    n = g.vertex_count
    check_cover_cap(n)
    radii = list(distance_balls(g))
    if n > 1 and radii[-1][0] != (1 << n) - 1:
        raise DisconnectedGraphError("strong metric dimension needs a connected graph")
    srg = _mmd_graph(g, radii)
    cover = exact_min_vertex_cover(srg)
    ok, witness = _recheck(g, radii, cover.cover)
    if not ok:
        raise InternalInconsistencyError(
            f"optimal cover of the strong resolving graph left pair {witness} unresolved"
        )
    return radii, srg, StrongBasisResult(cover.size, cover.cover, "vertex-cover-reduction")


def sdim_via_cover(g: Graph) -> StrongBasisResult:
    """Strong metric dimension as a minimum vertex cover of the strong resolving graph.

    The basis of ``_cover_pipeline``, with its errors: ``SizeLimitError``
    above the exact cover's order cap, before any radius is grown,
    :class:`DisconnectedGraphError` on a disconnected graph, and
    :class:`InternalInconsistencyError` should the re-check reject the basis.
    """
    return _cover_pipeline(g)[2]
