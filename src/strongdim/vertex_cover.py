"""Exact and heuristic vertex covers, plus maximum independent sets.

Both covers work on Python integers used as vertex bitsets.  The exact
solver is a branch and reduce over one mask of the vertices still in play:
degree-0 and degree-1 reductions at every node, a greedy clique-cover
lower bound for pruning, and branching on a maximum-degree vertex.  Its
relabelling and branching rule are fixed, so it always returns the same
optimal cover for the same input, which keeps downstream results
reproducible.  :func:`matching_lower_bound` is a weaker, cheaper bound
kept for callers that sanity-check a cover's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, SizeLimitError, check_vertex


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
    the first uncovered edge in sorted order.
    """
    chosen = set(subset)
    for v in chosen:
        check_vertex(g.vertex_count, v)
    for u, v in g.edges():
        if u not in chosen and v not in chosen:
            return False, (u, v)
    return True, None


def matching_lower_bound(g: Graph) -> int:
    """Size of a greedily built maximal matching, a lower bound on cover size.

    Vertices are scanned in increasing id order and each one is matched to
    its lowest-id unmatched neighbor, so the bound is deterministic.
    """
    matched = [False] * g.vertex_count
    size = 0
    for u in range(g.vertex_count):
        if matched[u]:
            continue
        for v in sorted(g.adjacency[u]):
            if not matched[v]:
                matched[u] = matched[v] = True
                size += 1
                break
    return size


def greedy_cover(g: Graph) -> CoverResult:
    """Repeatedly take a maximum-degree vertex (lowest id on ties).

    The result is only guaranteed optimal when it meets the matching lower
    bound; the ``optimal`` flag records that.
    """
    nbr = [sum(1 << u for u in nbrs) for nbrs in g.adjacency]
    live = (1 << g.vertex_count) - 1
    cover: list[int] = []
    while True:
        best, best_deg = -1, 0
        rest = live
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            deg = (nbr[v] & live).bit_count()
            if deg > best_deg:
                best, best_deg = v, deg
            elif not deg:
                live ^= low
        if best < 0:
            break
        cover.append(best)
        live ^= 1 << best
    size = len(cover)
    return CoverResult(tuple(sorted(cover)), size, size == matching_lower_bound(g), 0)


def _clique_cover_bound(nbr: list[int], live: int) -> int:
    """Lower bound on the minimum cover of the subgraph induced by ``live``.

    ``live`` is partitioned greedily into cliques: the lowest unassigned
    vertex opens a clique, which then takes, lowest first, every unassigned
    vertex adjacent to all its members.  A cover needs all but one vertex
    of each clique, so the bound is |live| minus the number of cliques.
    """
    cliques = 0
    rest = live
    while rest:
        low = rest & -rest
        rest ^= low
        cliques += 1
        cand = nbr[low.bit_length() - 1] & rest
        while cand:
            low = cand & -cand
            rest ^= low
            cand &= nbr[low.bit_length() - 1]
    return live.bit_count() - cliques


def exact_min_vertex_cover(g: Graph, *, max_vertices: int = 256) -> CoverResult:
    """Minimum vertex cover by branch and reduce on vertex bitsets.

    Vertices are relabelled once by ascending degree (lowest id on ties),
    and position ``i`` of that order is bit ``i`` of every mask.  A search
    node is the mask of vertices still in play, so a branch copies nothing.
    Each node reduces to a fixpoint, dropping isolated vertices and putting
    the neighbor of a degree-1 vertex into the cover, then prunes when the
    vertices taken plus :func:`_clique_cover_bound` of the rest cannot beat
    the best cover found.  Otherwise it branches on the maximum-degree
    vertex (lowest position on ties): first "in the cover", then "excluded,
    so all its neighbors in".  Each level removes at least one vertex, so
    the recursion is at most ``vertex_count`` deep.

    Deterministic by construction: the relabelling and the branching rule
    are fixed, and the best cover is replaced only by a strictly smaller
    one, so the same input always gives the same cover and node count.
    """
    n = g.vertex_count
    if n > max_vertices:
        raise SizeLimitError(f"graph has {n} vertices, exact cover cap is {max_vertices}")
    order = sorted(range(n), key=lambda v: len(g.adjacency[v]))
    position = {v: i for i, v in enumerate(order)}
    nbr = [sum(1 << position[u] for u in g.adjacency[v]) for v in order]
    best_chosen = 0
    best_size = n + 1
    nodes_explored = 0

    def search(live: int, chosen: int) -> None:
        nonlocal best_chosen, best_size, nodes_explored
        nodes_explored += 1
        while True:
            # one round over the live vertices; the last round, which
            # takes nothing, also finds the branching vertex
            taken = False
            branch, branch_deg = 0, 0
            rest = live
            while rest:
                low = rest & -rest
                rest ^= low
                if not live & low:
                    continue  # removed earlier in this round
                near = nbr[low.bit_length() - 1] & live
                if not near:
                    live ^= low
                elif not near & (near - 1):
                    chosen |= near
                    live &= ~(low | near)
                    taken = True
                else:
                    deg = near.bit_count()
                    if deg > branch_deg:
                        branch, branch_deg = low, deg
            if not taken:
                break
        size = chosen.bit_count()
        if not live:
            if size < best_size:
                best_chosen, best_size = chosen, size
            return
        if size + _clique_cover_bound(nbr, live) >= best_size:
            return
        search(live ^ branch, chosen | branch)
        near = nbr[branch.bit_length() - 1] & live
        search(live & ~(branch | near), chosen | near)

    search((1 << n) - 1, 0)
    cover = tuple(sorted(order[i] for i in range(n) if best_chosen >> i & 1))
    return CoverResult(cover, best_size, True, nodes_explored)


def max_independent_set(g: Graph, *, max_vertices: int = 256) -> tuple[int, ...]:
    """Maximum independent set as the complement of an optimal cover."""
    result = exact_min_vertex_cover(g, max_vertices=max_vertices)
    in_cover = set(result.cover)
    independent = tuple(v for v in range(g.vertex_count) if v not in in_cover)
    for u in independent:
        for v in g.adjacency[u]:
            if v not in in_cover:
                raise RuntimeError(f"complement of cover is not independent at edge ({u}, {v})")
    return independent
