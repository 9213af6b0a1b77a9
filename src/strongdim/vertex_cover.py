"""Exact and heuristic vertex covers.

The covers, the cover check and the matching bound all read the graph's
``masks`` view, Python integers used as vertex bitsets, so none of them
decodes a graph built from masks, such as the strong resolving graph,
into neighbour tuples.  The exact core is a maximum independent set
search in the style of Tomita and Kameda (2007) and San Segundo et al.'s
bit-parallel BBMC (2011): degree-0 and degree-1 reductions at the root
only, then a branch and bound whose nodes partition their candidates
greedily into cliques.  The clique numbers both bound a node and choose
the vertices it branches on.  The open path is an explicit stack of at
most α + 1 nodes, so Python's recursion limit does not bound it.  A node
reuses its parent's cliques up to the first one that lost a vertex and
appends the partition of the rest to them in place, which gives the
partition a fresh build would, so the search tree is the same.  Inside
the search, position p of the degree order is bit n - 1 - p, a
relabelling done by one :func:`~strongdim.graphs.transpose_rows`, so the
partition's lowest-position pick is one ``bit_length`` and the branch's
highest-position pick one ``x & -x``; the set found is bit-reversed once
at the end.  :func:`exact_min_vertex_cover` returns the complement of that
set, with ``nodes_explored`` counting the search nodes, the root as 1.
The relabelling and branching order are fixed, so the same input always
gives the same optimal cover, which keeps downstream results
reproducible.  :func:`matching_lower_bound` is a cheap bound kept for
callers that sanity-check a cover's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, SizeLimitError, check_vertex, members, transpose_rows

EXACT_COVER_CAP = 256  # largest order the exact cover search accepts


@dataclass(frozen=True)
class CoverResult:
    """A vertex cover together with how it was obtained."""

    cover: tuple[int, ...]
    size: int
    optimal: bool
    nodes_explored: int


def is_vertex_cover(g: Graph, subset: Iterable[int]) -> tuple[bool, tuple[int, int] | None]:
    """Check whether ``subset`` touches every edge.

    Returns ``(True, None)`` or ``(False, witness)`` where the witness is
    the first uncovered edge in sorted order.  The first id, in the order
    given, that is not a vertex raises :class:`GraphError`.  Reads the
    ``masks`` view, one AND per row: the first unchosen ``u`` with an
    unchosen neighbour opens the witness, and that neighbour's lowest is
    above ``u``, since a lower one would have been found at its own row.
    """
    ids = list(subset)
    for v in ids:  # in the order given, before any use: the first bad id is named
        check_vertex(g.vertex_count, v)
    free = ~sum({1 << v for v in ids})
    for u, mask in enumerate(g.masks):
        hit = mask & free
        if hit and free >> u & 1:
            return False, (u, (hit & -hit).bit_length() - 1)
    return True, None


def matching_lower_bound(g: Graph) -> int:
    """Size of a greedily built maximal matching, a lower bound on cover size.

    Vertices are scanned in increasing id order and each one is matched to
    its lowest-id unmatched neighbor, so the bound is deterministic.
    """
    matched = 0
    size = 0
    for u, mask in enumerate(g.masks):
        free = mask & ~matched
        if free and not matched >> u & 1:
            matched |= 1 << u | free & -free
            size += 1
    return size


def greedy_cover(g: Graph) -> CoverResult:
    """Repeatedly take a maximum-degree vertex (lowest id on ties).

    The result is only guaranteed optimal when it meets the matching lower
    bound; the ``optimal`` flag records that.
    """
    nbr = g.masks
    live = (1 << g.vertex_count) - 1
    cover: list[int] = []
    while live:
        # max keeps the first maximum: the lowest id on ties
        best = max(members(live), key=lambda v: (nbr[v] & live).bit_count())
        if not nbr[best] & live:
            break
        cover.append(best)
        live ^= 1 << best
    size = len(cover)
    return CoverResult(tuple(sorted(cover)), size, size == matching_lower_bound(g), 0)


def _clique_partition(nbr: list[int], bit: list[int], rest: int, classes: list[int]) -> list[int]:
    """Append a greedy partition of the vertices in ``rest`` into cliques, as masks, to ``classes``.

    The highest unassigned bit opens a clique, which then takes, highest
    first, every unassigned vertex adjacent to all its members; ``bit[v]``
    is ``1 << v``.  ``classes`` is returned, extended in place.  An
    independent set meets each clique at most once, so the vertices of the
    k-th clique can extend an independent set by at most k: this is the
    greedy colouring of the complement graph that bounds a maximum-clique
    search.

    Prefix rule: for ``child`` a subset of ``cand``, the cliques of ``cand``
    before the first one that meets ``cand & ~child`` are also the first
    cliques of ``child``, so the partition of ``child`` is that prefix
    followed by the partition of the rest of ``child``.  Each such clique
    opened at the highest vertex of a ``rest`` that differs from the child's
    only by removed vertices, and took the highest of its shrinking
    neighbourhood every time; no removed vertex was ever the highest pick,
    so the child makes the same picks.
    """
    while rest:
        v = rest.bit_length() - 1
        clique = bit[v]
        near = nbr[v] & rest
        while near:  # no vertex is its own neighbour, so a pick leaves near
            v = near.bit_length() - 1
            clique |= bit[v]
            near &= nbr[v]
        rest ^= clique
        classes.append(clique)
    return classes


def _mis_search(g: Graph) -> tuple[list[int], int, int]:
    """Maximum independent set as ``(order, mask, nodes)``, by colouring-bounded branch and bound.

    Bit ``i`` of ``mask`` stands for vertex ``order[i]``; ``nodes`` counts
    search nodes, the root included.  Vertices are ordered once by
    ascending degree (lowest id on ties), and inside the search position
    ``p`` of that order is bit ``n - 1 - p`` of every mask, so the lowest
    position is a mask's highest bit, one ``bit_length`` away, and the
    highest position its lowest bit, ``x & -x``.  The relabelling is one
    :func:`~strongdim.graphs.transpose_rows` of the graph's ``masks``
    view, so a mask-built graph is never decoded into neighbour tuples;
    the set found is bit-reversed once at the end into the ``order``
    layout.  At the root, isolated and
    degree-1 vertices join the set to a fixpoint, lowest position first
    (the neighbor of a degree-1 vertex leaves play); no reduction runs
    below the root.  Each search node partitions its candidates greedily
    into cliques, lowest position first (:func:`_clique_partition`): the
    root from scratch, every other node by keeping its parent's cliques up
    to the first one that lost a vertex (the branched vertex, one of its
    neighbours or an earlier-branched sibling) and appending the partition
    of the rest to that prefix.  By the prefix rule of
    :func:`_clique_partition` that is the partition a fresh build gives, so
    branching order, node count and result do not depend on the reuse.
    Each clique holds at most one vertex of an independent set, so a vertex
    in the k-th clique extends the current set by at most k.  Only vertices
    with k above the best size minus the current size are branched on,
    highest k first and highest position first within a clique, and the
    node stops once the current size plus k cannot beat the best set found.
    The search is one loop: branching a vertex pushes the node onto an
    explicit stack and enters the child in place, a child without
    candidates is counted and scored without being entered, and an
    exhausted node pops its parent.  Each level adds one vertex to the set,
    so the stack holds at most α + 1 nodes, α being the independence
    number, and Python's recursion limit does not bound it.

    Deterministic by construction: the relabelling and the branching order
    are fixed, and the best set is replaced only by a strictly larger one,
    so the same input always gives the same set and node count.  Graphs
    above :data:`EXACT_COVER_CAP` vertices raise :class:`SizeLimitError`.
    """
    n = g.vertex_count
    if n > EXACT_COVER_CAP:
        raise SizeLimitError(f"graph has {n} vertices, exact cover cap is {EXACT_COVER_CAP}")
    masks = g.masks
    order = sorted(range(n), key=lambda v: masks[v].bit_count())
    # relabelled rows P·M·Pᵀ, position p at bit n - 1 - p: rows in reversed
    # order, their columns, rows in reversed order again; taking columns
    # stands in for Pᵀ because M is symmetric
    reverse = order[::-1]
    columns = transpose_rows([masks[v] for v in reverse])
    nbr = [columns[v] for v in reverse]
    bit = [1 << v for v in range(n)]

    # Root reductions to a fixpoint, lowest position (highest bit) first: an
    # isolated vertex joins the set, and so does a degree-1 vertex, whose
    # neighbor then leaves play.
    live = (1 << n) - 1
    forced = 0
    taken = True
    while taken:
        taken = False
        rest = live
        while rest:
            v = rest.bit_length() - 1
            high = bit[v]
            rest ^= high
            if not live & high:
                continue  # removed earlier in this round
            near = nbr[v] & live
            if not near:
                forced |= high
                live ^= high
            elif not near & (near - 1):
                forced |= high
                live &= ~(high | near)
                taken = True

    best_set = best_size = 0
    nodes = 1
    # the open node lives in locals and its ancestors on the stack, root
    # first, as (cand, size, chosen, classes, k, clique): cand is what is
    # left of the node's candidates after the vertices it has branched, and
    # clique the unbranched rest of its k-th clique; the root enters through
    # the stack
    classes = _clique_partition(nbr, bit, live, [])
    stack = [(live, 0, 0, classes, len(classes), classes[-1] if classes else 0)]
    while stack:
        cand, size, chosen, classes, k, clique = stack.pop()
        # only a vertex in clique k > best - size can lead to a larger set;
        # the highest cliques go first, highest position (lowest bit) first
        # within one
        while size + k > best_size:
            vbit = clique & -clique
            clique ^= vbit
            cand ^= vbit
            child = cand & ~nbr[vbit.bit_length() - 1]
            if not clique:
                # at k = 0 this reads the last clique, never branched: the
                # subtree of vbit lifts best_size to size + 1 or more, so the
                # loop test fails
                k -= 1
                clique = classes[k - 1]
            nodes += 1
            if child:
                stack.append((cand, size, chosen, classes, k, clique))
                # the child keeps this node's cliques before the first one that
                # lost a vertex and appends the rest's partition to them; the
                # earlier-branched siblings sit in the branched vertex's clique
                # or later ones, so only it and its neighbours are looked for,
                # and it is lost itself, so i stops
                lost = (cand | vbit) & ~child
                rest = child
                i = 0
                while not classes[i] & lost:
                    rest ^= classes[i]
                    i += 1
                cand = child
                size += 1
                chosen |= vbit
                classes = _clique_partition(nbr, bit, rest, classes[:i])
                k = len(classes)
                clique = classes[-1]
            elif size >= best_size:  # a leaf, scored without being entered
                best_set, best_size = chosen | vbit, size + 1

    # back to bit p for position p: one reversal of the n-bit string
    return order, int(f"{forced | best_set:0{n}b}"[::-1], 2), nodes


def exact_min_vertex_cover(g: Graph) -> CoverResult:
    """Minimum vertex cover as the complement of a maximum independent set.

    The set comes from :func:`_mis_search`, so the result is optimal and
    deterministic.  ``nodes_explored`` counts the search nodes of that
    search, the root included: 1 means the root reductions solved the graph
    without branching.  Graphs above :data:`EXACT_COVER_CAP` vertices raise
    :class:`SizeLimitError`.
    """
    order, mask, nodes = _mis_search(g)
    cover = tuple(sorted(order[i] for i in range(g.vertex_count) if not mask >> i & 1))
    return CoverResult(cover, len(cover), True, nodes)
