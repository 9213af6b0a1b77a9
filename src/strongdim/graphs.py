"""Undirected simple graphs with BFS distances and JSON/DOT serialization.

Vertices are the integers ``0 .. vertex_count - 1``.  Graphs are immutable,
and only :func:`build_graph` (from an edge list) and :func:`graph_from_masks`
(from neighbour bitsets, checked as one bit matrix) make them, enforcing the
invariants (sorted neighbor lists, symmetry, no self-loops, no parallel edges).
A :class:`Graph` is read as sorted neighbour tuples (``adjacency``) or as
neighbour bitsets (``masks``); it keeps the view it was built from and
derives the other once, when first read, so the strong resolving graph goes
from the MMD scan to the cover search as bitset rows and is never decoded.
Bit matrices have one public operation, :func:`transpose_rows`; the packed
layout it works in, one integer per matrix, stays private to this module.
A graph is its vertex count and edge set, nothing more.  Vertex names are
part of the document: :func:`parse` returns them beside the graph and
:func:`serialize` takes them as an argument, and one private check holds
the rule both apply to them.

Distances come in two shapes.  :func:`distance_balls` grows every vertex's
ball of radius r = 0, 1, ... together, as Python integers used as vertex
bitsets (bit ``v`` stands for vertex ``v``): O(diam * (V + E)) big-integer
ORs for all of them.  It is the one ball-growing loop of the program, and
a pipeline run or ``verify`` cell calls it once, inside the pipeline: MMD
detection, the strong-resolution re-check and ``verify``'s extremal-distance
scans read that one list of radii.  The public MMD scan and re-check, when
called on their own, and :func:`diameter` each grow their own.
:func:`all_pairs_distances`, one BFS row per vertex, is kept for brute
force and scalar checks.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterator, Mapping

# Sentinel for "no path".  Compares above any true distance; code must never
# do arithmetic with it, connectivity is checked explicitly instead.
UNREACHABLE = sys.maxsize


class GraphError(ValueError):
    """Invalid graph construction, document, or operation argument."""


class ParseError(GraphError):
    """Malformed or invariant-violating graph document."""


class DisconnectedGraphError(GraphError):
    """Raised by operations that require a connected graph."""


class SizeLimitError(GraphError):
    """Input exceeds the configured size cap of an exact algorithm."""


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Immutable undirected simple graph, read through two views of one edge set.

    ``adjacency[v]`` is the sorted tuple of neighbours of ``v``; ``masks[v]``
    is the same set as a bitset (bit ``u`` for neighbour ``u``).  A graph
    keeps the view its builder checked and derives the other on first read,
    so a mask-built graph is never decoded unless asked; ``Graph(...)``
    raises.  Equality and the hash both compare the vertex count and the
    edge set.  A graph has no vertex names: those belong to the document
    (:func:`parse`, :func:`serialize`).
    """

    vertex_count: int

    def __init__(self, *args: object, **kwargs: object) -> None:
        given = f"{len(args) + len(kwargs)} arguments given"
        raise TypeError(f"{type(self).__name__}() builds no graph ({given}): use build_graph or graph_from_masks")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:  # lists, not generators: see all_pairs_distances
        return tuple([tuple([*members(mask)]) for mask in self.masks])

    @cached_property
    def masks(self) -> tuple[int, ...]:
        bit = [1 << v for v in range(self.vertex_count)]
        return tuple([sum(map(bit.__getitem__, nbrs)) for nbrs in self.adjacency])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.vertex_count, self.masks) == (other.vertex_count, other.masks)

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.masks))

    def __reduce__(self) -> tuple:
        return graph_from_masks, (self.vertex_count, self.masks)  # through a builder, as Graph(...) raises

    def degree(self, v: int) -> int:
        check_vertex(self.vertex_count, v)
        return self.masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        check_vertex(self.vertex_count, u)
        check_vertex(self.vertex_count, v)
        return bool(self.masks[u] >> v & 1)

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.masks) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return [(u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v]


def check_vertex(order: int, v: int) -> None:
    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < order:
        raise GraphError(f"vertex id out of range for order {order}: {v!r}")


def build_graph(vertex_count: int, edge_list: list[tuple[int, int]]) -> Graph:
    """Construct a :class:`Graph`, validating every edge.

    Raises :class:`GraphError` for an out-of-range endpoint, a self-loop,
    or a duplicate edge (in either orientation), naming the offending pair.
    """
    _check_count(vertex_count)
    neighbor_sets: list[set[int]] = [set() for _ in range(vertex_count)]
    for u, v in edge_list:
        check_vertex(vertex_count, u)
        check_vertex(vertex_count, v)
        if u == v:
            raise GraphError(f"self-loop ({u}, {v})")
        if v in neighbor_sets[u]:
            raise GraphError(f"duplicate edge ({u}, {v})")
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    adjacency = tuple([tuple(sorted(s)) for s in neighbor_sets])  # a list: see all_pairs_distances
    return _graph(vertex_count, "adjacency", adjacency)


def _check_count(vertex_count: int) -> None:
    if not isinstance(vertex_count, int) or isinstance(vertex_count, bool) or vertex_count < 0:
        raise GraphError(f"vertex count must be a nonnegative integer, got {vertex_count!r}")


def graph_from_masks(vertex_count: int, masks: list[int]) -> Graph:
    """Construct a :class:`Graph` from each vertex's neighbour bitset ``masks[v]``.

    Every mask must be an ``int`` and not a ``bool``, as vertex ids must
    be.  The invariants are checked on the whole bit matrix: no bit at or above
    ``vertex_count``, an empty diagonal, and equality with its transpose,
    compared as one packed integer.  Raises :class:`GraphError` when one
    fails.  The graph keeps a copy of the checked rows as its ``masks``
    view; its ``adjacency`` tuples are decoded only if something reads them.
    """
    _check_count(vertex_count)
    masks = tuple(masks)
    if len(masks) != vertex_count:
        raise GraphError(f"expected {vertex_count!r} neighbour masks, got {len(masks)}")
    if bad := [mask for mask in masks if not isinstance(mask, int) or isinstance(mask, bool)]:
        raise GraphError(f"neighbour mask is not an integer: {bad[0]!r}")
    if any(mask < 0 or mask >> vertex_count for mask in masks):
        raise GraphError(f"neighbour mask has a bit outside vertex ids 0..{vertex_count - 1}")
    if any(mask >> v & 1 for v, mask in enumerate(masks)):
        raise GraphError("neighbour mask has a self-loop")
    packed, side = _pack_rows(masks)
    if packed != _transpose(packed, side):
        raise GraphError("neighbour masks are not symmetric")
    return _graph(vertex_count, "masks", masks)


def _graph(vertex_count: int, view: str, rows: tuple) -> Graph:
    """The graph whose ``view`` is the checked ``rows``."""
    g = object.__new__(Graph)
    # set one by one, as a frozen dataclass's __init__ does: filling __dict__
    # at once would give each graph its own key table, not the shared one
    object.__setattr__(g, "vertex_count", vertex_count)
    object.__setattr__(g, view, rows)
    return g


# ---------- distances ----------


def _bfs_row(g: Graph, source: int) -> tuple[int, ...]:
    adj = g.adjacency  # a property: read once, not per vertex
    dist = [UNREACHABLE] * g.vertex_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                queue.append(v)
    return tuple(dist)


def all_pairs_distances(g: Graph) -> tuple[tuple[int, ...], ...]:
    """BFS from every vertex as dense rows; O(V * (V + E)).

    ``rows[u][v]`` is the hop distance, or :data:`UNREACHABLE` when no path
    exists.
    """
    # from a list, not a generator: CPython builds a tuple from a generator
    # by resizing a guessed-size tuple, and each call then leaves one spare
    # order-sized tuple on the interpreter's free list, up to ~1.5 MB at order 16
    return tuple([_bfs_row(g, s) for s in range(g.vertex_count)])


def distance_balls(g: Graph) -> Iterator[list[int]]:
    """Every vertex's ball of radius r = 0, 1, ..., as bitsets, up to the fixed point.

    The list yielded at radius r holds, for each vertex ``v``, the bitset of
    vertices within distance r of ``v``; radius 0 holds ``v`` alone.  A round
    grows every ball by one, ``ball[v] | OR of ball[w] for w in N(v)``, and
    the generator stops before yielding a round in which no ball grew.  On
    a connected graph it therefore yields diam + 1 lists, the last one all
    full.  On a disconnected graph each ball stops at its component and the
    count is the largest component diameter + 1; the empty graph yields one
    empty list.  Each list is new, so a consumer may keep any of them, but
    must not modify them: the next round is grown from the last one yielded.
    """
    adj = g.adjacency
    ball = [1 << v for v in range(g.vertex_count)]
    while True:
        yield ball
        grown = []
        for v, nbrs in enumerate(adj):
            acc = ball[v]
            for w in nbrs:
                acc |= ball[w]
            grown.append(acc)
        if grown == ball:
            return
        ball = grown


def members(mask: int) -> Iterator[int]:
    """Vertices whose bits are set in ``mask``, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transpose_rows(rows: list[int]) -> list[int]:
    """Column bitsets of the square bit matrix whose row ``r`` is ``rows[r]``.

    Every row must be below ``1 << len(rows)``.  The rows are transposed
    as one packed integer (:func:`_pack_rows`, :func:`_transpose`).
    """
    count = len(rows)
    packed, side = _pack_rows(rows)
    width = side // 8
    raw = _transpose(packed, side).to_bytes(count * width, "little")
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, count * width, width)]


def _pack_rows(rows: list[int]) -> tuple[int, int]:
    """Row bitsets as one row-major square bit matrix (row r at bit r * side), and its side."""
    side = max(8, 1 << (len(rows) - 1).bit_length())  # a power of two; no row may reach it
    return int.from_bytes(b"".join([row.to_bytes(side // 8, "little") for row in rows]), "little"), side


@cache
def _swap_masks(side: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of each delta swap of :func:`_transpose`, for j = side / 2 .. 1.

    A mask holds one row, the columns with bit j set, in every row with bit
    j clear; it is joined from row bytes, linear in its size.
    """
    width = side // 8
    blank = bytes(width)
    steps = []
    for k in range(1, side.bit_length()):
        j = side >> k
        columns = sum(1 << c for c in range(side) if c & j).to_bytes(width, "little")
        rows = b"".join([blank if r & j else columns for r in range(side)])
        steps.append((j * (side - 1), int.from_bytes(rows, "little")))
    return tuple(steps)


def _transpose(packed: int, side: int) -> int:
    """Transpose of a side x side bit matrix laid out by :func:`_pack_rows`.

    Delta swap j (``d = j * (side - 1)``: ``t = ((M >> d) ^ M) & mask; M ^=
    t ^ (t << d)``) trades entry (r, c), bit j clear in r and set in c, with
    (r + j, c - j); the log2(side) swaps exchange r and c.  The swap masks
    are kept per side, side^2 * log2(side) / 8 bytes: 64 KB up to the order
    cap of the exact cover, but 1.3 MB at side 1,024, which matters above it.
    """
    for shift, mask in _swap_masks(side):
        t = ((packed >> shift) ^ packed) & mask
        packed ^= t ^ (t << shift)
    return packed


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0 (vacuously for order <= 1)."""
    if g.vertex_count <= 1:
        return True
    row = _bfs_row(g, 0)
    return UNREACHABLE not in row


def diameter(g: Graph) -> int:
    """Largest pairwise distance, counted as the radii of :func:`distance_balls`.

    Reads connectivity off the last radius.  Raises on the empty or a disconnected graph.
    """
    if g.vertex_count == 0:
        raise GraphError("diameter of the empty graph is undefined")
    for radius, ball in enumerate(distance_balls(g)):
        pass  # only the last radius, the fixed point, is read
    if ball[0] != (1 << g.vertex_count) - 1:
        raise DisconnectedGraphError("diameter requires a connected graph")
    return radius


# ---------- generators ----------


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"path graph needs at least 1 vertex, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle graph needs at least 3 vertices, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"complete graph needs at least 1 vertex, got {n}")
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# ---------- serialization ----------

FORMATS = ("edge-json", "dot")


def _dot_escape(text: str) -> str:
    """Body of a DOT double-quoted string whose value is ``text``."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _check_labels(order: int, labels: Mapping[int, str]) -> None:
    """The label rule of :func:`parse` and :func:`serialize`, raising :class:`GraphError`.

    Each name is a ``str`` that UTF-8 can encode (JSON escapes can spell
    lone surrogates, which no UTF-8 output, DOT or a file, can hold) and
    each key a vertex id below ``order``, checked label by label in that
    order.
    """
    for v, name in labels.items():
        if not isinstance(name, str):
            raise GraphError(f"labels[{str(v)!r}]: name must be a string, got {name!r}")
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise GraphError(f"labels[{str(v)!r}]: name is not valid Unicode text") from None
        check_vertex(order, v)


def serialize(g: Graph, fmt: str = "edge-json", labels: Mapping[int, str] | None = None) -> str:
    """Render ``g`` as an edge-JSON document or a Graphviz DOT description.

    ``labels`` optionally maps vertex ids to display names; a label that
    breaks the rule :func:`parse` applies raises :class:`GraphError`.
    """
    labels = labels or {}
    _check_labels(g.vertex_count, labels)
    if fmt == "edge-json":
        doc: dict = {"n": g.vertex_count, "edges": [[u, v] for u, v in g.edges()]}
        if labels:
            doc["labels"] = {str(v): labels[v] for v in sorted(labels)}
        return json.dumps(doc) + "\n"
    if fmt == "dot":
        lines = ["graph {"]
        for v in range(g.vertex_count):
            if v in labels:
                lines.append(f'  "{v}" [label="{_dot_escape(labels[v])}"];')
            elif not g.adjacency[v]:  # the view edges() reads; masks would cost V^2 bits
                lines.append(f'  "{v}";')
        for u, v in g.edges():
            lines.append(f'  "{u}" -- "{v}";')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise GraphError(f"unsupported format {fmt!r}, expected one of {FORMATS}")


def parse(text: str) -> tuple[Graph, dict[int, str]]:
    """Parse an edge-JSON document produced by :func:`serialize` into the graph and its labels.

    The labels are empty when the document has none.  Every field's shape is checked
    before the build; a problem is reported with the location of the offending field or edge.
    """
    return _parse(text, None)


def _parse(text: str, check_order: Callable[[int], None] | None) -> tuple[Graph, dict[int, str]]:
    """:func:`parse`, calling ``check_order(n)``, if given, after the shape checks and before the build."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"expected a JSON object at top level, got {type(doc).__name__}")
    if "n" not in doc:
        raise ParseError("missing required field 'n'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParseError(f"'n' must be a nonnegative integer, got {n!r}")
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ParseError("'edges' must be a list of [u, v] pairs")
    edge_list: list[tuple[int, int]] = []
    for idx, item in enumerate(raw_edges):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            raise ParseError(f"edges[{idx}]: expected a pair of integers, got {item!r}")
        edge_list.append((item[0], item[1]))
    labels: dict[int, str] = {}
    if "labels" in doc:
        raw_labels = doc["labels"]
        if not isinstance(raw_labels, dict):
            raise ParseError("'labels' must be an object mapping ids to names")
        for key, value in raw_labels.items():
            # only the canonical spelling serialize writes: int() would also
            # take "01", " +1 " or "1_0", so two keys could name one vertex
            try:
                vid = int(key)
            except (TypeError, ValueError):
                vid = None
            if vid is None or key != str(vid):
                raise ParseError(f"labels: key {key!r} is not a vertex id")
            labels[vid] = value
    if check_order is not None:
        check_order(n)
    try:
        g = build_graph(n, edge_list)
        _check_labels(n, labels)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc
    return g, labels
