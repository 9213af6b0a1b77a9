import copy
import dataclasses
import gc
import json
import pickle
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from strongdim import graphs as graphs_module
from strongdim import (
    UNREACHABLE,
    DisconnectedGraphError,
    GraphError,
    JahangirParams,
    ParseError,
    all_pairs_distances,
    build_graph,
    build_jahangir,
    complete_graph,
    cycle_graph,
    diameter,
    distance_balls,
    is_connected,
    parse,
    path_graph,
    serialize,
    strong_resolving_graph,
)
from strongdim.graphs import _pack_rows, _transpose, graph_from_masks, members, transpose_rows
from helpers import balls_from_distances, long_diameter_graphs, masks_of, random_connected_graph


@st.composite
def graphs(draw, max_order=24, connected=True):
    order = draw(st.integers(2, max_order))
    edges = set()
    if connected:
        for v in range(1, order):
            edges.add((draw(st.integers(0, v - 1)), v))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, order - 1), st.integers(0, order - 1)),
            max_size=order,
        )
    )
    for u, v in extra:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(order, sorted(edges))


class TestBuildGraph:
    def test_path(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert [g.degree(v) for v in range(3)] == [1, 2, 1]

    def test_cycle(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert all(g.degree(v) == 2 for v in range(4))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match=r"duplicate edge \(0, 1\)"):
            build_graph(3, [(0, 1), (0, 1)])

    def test_reversed_duplicate_rejected(self):
        with pytest.raises(GraphError, match=r"duplicate edge \(1, 0\)$"):
            build_graph(3, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match=r"self-loop \(2, 2\)"):
            build_graph(3, [(2, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            build_graph(2, [(0, 2)])

    def test_bool_vertex_count_rejected(self):
        # a graph of order True would serialize as "n": true, which parse refuses
        with pytest.raises(GraphError) as excinfo:
            build_graph(True, [])
        assert str(excinfo.value) == "vertex count must be a nonnegative integer, got True"

    @given(graphs(connected=False))
    @settings(max_examples=50, deadline=None)
    def test_adjacency_sorted_and_symmetric(self, g):
        for u in range(g.vertex_count):
            nbrs = g.adjacency[u]
            assert list(nbrs) == sorted(nbrs)
            assert u not in nbrs
            for v in nbrs:
                assert u in g.adjacency[v]


def naive_transpose(rows, side):
    """The transposed rows of a side x side bit matrix, bit by bit."""
    return [sum(1 << r for r in range(side) if rows[r] >> c & 1) for c in range(side)]


def naive_pack(rows, side):
    """Rows laid out as one integer, row r at bit r * side, by shifts."""
    return sum(row << r * side for r, row in enumerate(rows))


def structured_matrices(side):
    full = (1 << side) - 1
    return {
        "zero": [0] * side,
        "full": [full] * side,
        "identity": [1 << r for r in range(side)],
        "anti-diagonal": [1 << (side - 1 - r) for r in range(side)],
        "first row": [full] + [0] * (side - 1),
        "last column": [1 << (side - 1)] * side,
        "upper triangle": [full >> r << r for r in range(side)],
        "checkerboard": [int("01" * (side // 2), 2) << (r & 1) & full for r in range(side)],
    }


def summed_swap_masks(side):
    """The delta-swap masks built as sums of shifted bits, superlinear in the mask size."""
    steps = []
    for k in range(1, side.bit_length()):
        j = side >> k
        columns = sum(1 << c for c in range(side) if c & j)
        rows = sum(1 << r * side for r in range(side) if not r & j)
        steps.append((j * (side - 1), columns * rows))
    return tuple(steps)


class TestTranspose:
    @pytest.mark.parametrize("side", [8, 16, 32, 64, 128, 256])
    def test_matches_naive_transpose(self, side):
        rng = random.Random(side)
        cases = structured_matrices(side)
        for density in (0.02, 0.5, 0.98):
            cases[f"random {density}"] = [
                sum(1 << c for c in range(side) if rng.random() < density) for _ in range(side)
            ]
        for name, rows in cases.items():
            packed, packed_side = _pack_rows(rows)
            assert packed_side == side
            flipped = _transpose(packed, side)
            assert flipped == naive_pack(naive_transpose(rows, side), side), name
            assert _transpose(flipped, side) == packed, name

    @pytest.mark.parametrize("side", [8, 16, 32, 64, 128, 256, 512, 1024])
    def test_swap_masks_equal_the_summed_masks(self, side):
        assert graphs_module._swap_masks(side) == summed_swap_masks(side)

    @pytest.mark.parametrize("side", [2048, 4096])
    def test_sparse_transpose_above_the_cover_cap(self, side):
        rng = random.Random(side)
        corners = {(0, 0), (0, side - 1), (side - 1, 0), (side - 1, side - 1)}
        points = corners | {(rng.randrange(side), rng.randrange(side)) for _ in range(60)}
        rows = [0] * side
        for r, c in points:
            rows[r] |= 1 << c
        packed, packed_side = _pack_rows(rows)
        assert packed_side == side
        flipped = _transpose(packed, side)
        assert {divmod(bit, side) for bit in members(flipped)} == {(c, r) for r, c in points}
        graphs_module._swap_masks.cache_clear()  # about 30 MB of masks at these two sides

    @pytest.mark.parametrize("count,side", [(0, 8), (1, 8), (8, 8), (9, 16), (100, 128), (129, 256)])
    def test_pack_side_and_round_trip(self, count, side):
        rng = random.Random(count)
        rows = [rng.getrandbits(count) if count else 0 for _ in range(count)]
        packed, got = _pack_rows(rows)
        assert got == side
        assert packed == naive_pack(rows, side)
        # fewer rows than the side: the missing rows read as zero
        flipped = _transpose(packed, side)
        assert flipped == naive_pack(naive_transpose(rows + [0] * (side - count), side), side)
        assert transpose_rows(transpose_rows(rows)) == rows

    @pytest.mark.parametrize("count", [0, 1, 7, 9, 100, 129, 255, 256])
    def test_transpose_rows_matches_naive_transpose(self, count):
        rng = random.Random(count)
        full = (1 << count) - 1
        cases = {
            "random": [rng.getrandbits(count) if count else 0 for _ in range(count)],
            "full": [full] * count,
            "last column": [1 << count - 1] * count if count else [],
            "upper triangle": [full >> r << r for r in range(count)],
        }
        for name, rows in cases.items():
            assert transpose_rows(rows) == naive_transpose(rows, count), name


class TestGraphFromMasks:
    @given(graphs(connected=False))
    @settings(max_examples=100, deadline=None)
    def test_equals_build_graph(self, g):
        n = g.vertex_count
        h = graph_from_masks(n, masks_of(g))
        assert h == g and hash(h) == hash(g)
        assert h.masks == g.masks == tuple(masks_of(g))
        assert h.adjacency == g.adjacency
        assert h.edges() == g.edges() and h.edge_count() == g.edge_count()
        assert [h.degree(v) for v in range(n)] == [g.degree(v) for v in range(n)] == list(map(len, g.adjacency))
        pairs = [(u, v) for u in range(n) for v in range(n)]
        assert [h.has_edge(u, v) for u, v in pairs] == [g.has_edge(u, v) for u, v in pairs]
        assert [g.has_edge(u, v) for u, v in pairs] == [v in g.adjacency[u] for u, v in pairs]

    @pytest.mark.parametrize("order", [0, 1])
    def test_trivial_orders(self, order):
        assert graph_from_masks(order, [0] * order) == build_graph(order, [])

    def test_equality_and_hash_read_one_key(self):
        # the vertex count and the edge set, whichever builder made the graph
        g = build_graph(3, [(0, 1), (1, 2)])
        h = graph_from_masks(3, [0b10, 0b101, 0b10])
        assert h == g and hash(h) == hash(g)
        assert len({g, h, build_graph(3, [(0, 1)]), build_graph(4, [(0, 1), (1, 2)])}) == 3
        jahangir, _ = build_jahangir(JahangirParams(3, 3))
        srg = strong_resolving_graph(jahangir)
        assert len({jahangir, srg, jahangir}) == 2
        # a non-graph is left to the other operand, even one holding the same key
        assert g.__eq__((3, g.masks)) is NotImplemented and g != (3, g.masks)

    @pytest.mark.parametrize(
        "order,masks,message",
        [
            (3, [0b100, 0b000, 0b000], "not symmetric"),  # 0 -> 2 only
            (3, [0b010, 0b101, 0b000], "not symmetric"),  # 0 - 1 both ways, 1 -> 2 only
            (200, None, "not symmetric"),
            (3, [0b011, 0b001, 0b000], "self-loop"),
            (3, [0b000, 0b000, 0b100], "self-loop"),
            (3, [0b1000, 0b000, 0b000], "outside vertex ids"),
            (3, [1 << 9, 0b000, 0b000], "outside vertex ids"),
            (3, [-1, 0b000, 0b000], "outside vertex ids"),
            (3, [0b010, 0b001], "expected 3 neighbour masks"),
            (2, [2.0, 1], "not an integer: 2.0"),
            (2, ["a", 0], "not an integer: 'a'"),
            (2, [None, 0], "not an integer: None"),
            (3, [False] * 3, "not an integer: False"),
            (True, [0], "vertex count must be a nonnegative integer, got True"),
        ],
    )
    def test_rejects_broken_masks(self, order, masks, message):
        if masks is None:
            # a large graph with one edge recorded at one end only
            masks = masks_of(random_connected_graph(random.Random(5), order, order))
            masks[150] ^= 1 << 199
        with pytest.raises(GraphError, match=message):
            graph_from_masks(order, masks)


class TestViews:
    """A graph keeps the view it was built from and derives the other once."""

    BUILT = {
        "edges": lambda: cycle_graph(5),
        "masks": lambda: graph_from_masks(5, masks_of(cycle_graph(5))),
    }
    @pytest.mark.parametrize("built", BUILT)
    def test_second_read_is_the_same_object(self, built):
        g = self.BUILT[built]()
        for view in ("masks", "adjacency", "masks"):
            assert getattr(g, view) is getattr(g, view)

    @pytest.mark.parametrize("built", BUILT)
    @pytest.mark.parametrize("name", ["vertex_count", "adjacency", "masks", "labels", "_masks", "_adjacency", "extra"])
    def test_setting_an_attribute_raises(self, built, name):
        g = self.BUILT[built]()
        g.adjacency, g.masks  # derive both views first
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(g, name)
        assert g == cycle_graph(5)

    @pytest.mark.parametrize("args", [(2, ((1,), ())), (3, None), ()], ids=["one-sided", "no-view", "none"])
    def test_constructor_raises(self, args):
        # Graph(2, ((1,), ())) listed the edge (0, 1) but counted no edges,
        # and Graph(3, None) failed only when first read
        with pytest.raises(TypeError, match="use build_graph or graph_from_masks"):
            graphs_module.Graph(*args)

    @pytest.mark.parametrize("built", BUILT)
    @pytest.mark.parametrize(
        "copier", [lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"]
    )
    def test_copies_round_trip(self, built, copier):
        g = self.BUILT[built]()
        h = copier(g)
        assert h == g and hash(h) == hash(g)
        assert h.adjacency == g.adjacency and h.masks == g.masks

    @pytest.mark.parametrize("built", BUILT)
    def test_replace_builds_no_unchecked_graph(self, built):
        with pytest.raises(TypeError, match="use build_graph or graph_from_masks"):
            dataclasses.replace(self.BUILT[built](), vertex_count=3)

    def test_counts_degrees_and_edge_tests_decode_nothing(self, monkeypatch):
        def refuse(mask):
            raise AssertionError("a mask-built graph was decoded into neighbour tuples")

        g = graph_from_masks(5, masks_of(cycle_graph(5)))
        monkeypatch.setattr(graphs_module, "members", refuse)
        assert g.edge_count() == 5
        assert [g.degree(v) for v in range(5)] == [2] * 5
        assert g.has_edge(0, 4) and not g.has_edge(0, 2)
        assert g == cycle_graph(5)

    @pytest.mark.parametrize("built", BUILT)
    @pytest.mark.parametrize(
        "call", [("has_edge", -1, 0), ("has_edge", 0, -1), ("has_edge", 5, 0), ("has_edge", 0, 5),
                 ("has_edge", 0, True), ("has_edge", 1.0, 0), ("degree", -1), ("degree", 5), ("degree", True)],
        ids=lambda call: f"{call[0]}{call[1:]}",
    )
    def test_ids_that_are_not_vertices_raise(self, built, call):
        # has_edge(-1, 0) read the last row and was True, has_edge(0, True) was
        # True, has_edge(5, 0) raised IndexError and degree(-1) was 2
        name, *ids = call
        g = self.BUILT[built]()
        with pytest.raises(GraphError, match="out of range for order 5"):
            getattr(g, name)(*ids)


class TestDistances:
    def test_c4(self):
        dm = all_pairs_distances(cycle_graph(4))
        assert dm[0][2] == 2
        assert dm[0][1] == 1

    def test_jahangir_2_8_max_distance(self):
        g, _ = build_jahangir(JahangirParams(2, 8))
        dm = all_pairs_distances(g)
        assert max(max(row) for row in dm) == 4

    def test_jahangir_6_5_cross_cycle_distance(self):
        g, lab = build_jahangir(JahangirParams(6, 5))
        dm = all_pairs_distances(g)
        assert dm[lab.rim_id(4)][lab.rim_id(16)] == 8

    def test_unreachable_sentinel(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        dm = all_pairs_distances(g)
        assert dm[0][2] == UNREACHABLE
        assert dm[2][0] == UNREACHABLE

    def test_repeated_calls_hold_no_memory(self):
        # an order-sized tuple built from a generator left one spare tuple per
        # call on the interpreter's free list (one allocated block each)
        edges = cycle_graph(16).edges()
        g = build_graph(16, edges)
        masks = masks_of(g)
        for make in (
            lambda: build_graph(16, edges),
            lambda: build_graph(16, edges).masks,
            lambda: all_pairs_distances(g),
            lambda: graph_from_masks(16, masks),
            lambda: graph_from_masks(16, masks).adjacency,
            lambda: strong_resolving_graph(g),
        ):
            for _ in range(10):
                make()
            gc.collect()
            before = sys.getallocatedblocks()
            for _ in range(300):
                make()
            assert sys.getallocatedblocks() - before < 100

    @given(graphs(max_order=40))
    @settings(max_examples=40, deadline=None)
    def test_axioms_on_connected_graphs(self, g):
        d = all_pairs_distances(g)
        n = g.vertex_count
        for u in range(n):
            assert d[u][u] == 0
            for v in range(u + 1, n):
                assert d[u][v] == d[v][u]
                assert (d[u][v] == 1) == g.has_edge(u, v)
        for w in range(n):
            for u in range(n):
                duw = d[u][w]
                for v in range(n):
                    assert d[u][v] <= duw + d[w][v]


@st.composite
def graphs_of_any_shape(draw, max_order=30):
    """Order 0 .. max_order, connected or not, from empty to complete."""
    order = draw(st.integers(0, max_order))
    density = draw(st.sampled_from((0.0, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0)))
    rng = draw(st.randoms(use_true_random=False))
    edges = {(u, v) for u in range(order) for v in range(u + 1, order) if rng.random() < density}
    if draw(st.booleans()):
        edges |= {(rng.randrange(v), v) for v in range(1, order)}
    return build_graph(order, sorted(edges))


LONG_DIAMETER_GRAPHS = long_diameter_graphs()


def largest_finite_distance(dm):
    return max((d for row in dm for d in row if d != UNREACHABLE), default=0)


class TestDistanceBalls:
    """``distance_balls`` against the balls read off BFS rows, radius by radius."""

    @given(graphs_of_any_shape())
    @settings(max_examples=150, deadline=None)
    def test_matches_bfs_rows(self, g):
        # disconnected graphs included: each ball stops at its component and
        # the radii run to the largest component diameter; order 0 gives [[]]
        dm = all_pairs_distances(g)
        balls = list(distance_balls(g))
        assert balls == balls_from_distances(dm)
        assert len(balls) == largest_finite_distance(dm) + 1

    @pytest.mark.parametrize("g", LONG_DIAMETER_GRAPHS)
    def test_matches_bfs_rows_at_long_diameter(self, g):
        dm = all_pairs_distances(g)
        balls = list(distance_balls(g))
        assert balls == balls_from_distances(dm)
        # diameter(g) counts the radii; the matrix's largest entry must agree
        assert diameter(g) == max(max(row) for row in dm) == len(balls) - 1
        assert balls[-1] == [(1 << g.vertex_count) - 1] * g.vertex_count

    def test_small_cases(self):
        assert list(distance_balls(build_graph(0, []))) == [[]]
        assert list(distance_balls(build_graph(1, []))) == [[1]]
        assert list(distance_balls(path_graph(3))) == [[1, 2, 4], [3, 7, 6], [7, 7, 7]]
        assert list(distance_balls(build_graph(3, [(0, 1)]))) == [[1, 2, 4], [3, 3, 4]]

    def test_each_radius_is_a_new_list(self):
        balls = list(distance_balls(cycle_graph(9)))
        assert len({id(ball) for ball in balls}) == len(balls) == 5


class TestDiameterConnectivity:
    def test_p3(self):
        assert diameter(path_graph(3)) == 2

    def test_jahangir_2_8(self):
        g, _ = build_jahangir(JahangirParams(2, 8))
        assert diameter(g) == 4

    def test_jahangir_5_5(self):
        g, _ = build_jahangir(JahangirParams(5, 5))
        assert diameter(g) == 6

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_bfs_rows_on_random_graphs(self, seed):
        g = random_connected_graph(random.Random(seed), min_order=1, max_order=40)
        rows = all_pairs_distances(g)
        assert diameter(g) == max(max(row) for row in rows)

    def test_builds_no_matrix(self, monkeypatch):
        def refuse(g):
            raise AssertionError("diameter built an all-pairs distance matrix")

        monkeypatch.setattr(graphs_module, "all_pairs_distances", refuse)
        assert diameter(cycle_graph(7)) == 3

    def test_diameter_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            diameter(build_graph(4, [(0, 1), (2, 3)]))

    def test_reads_connectivity_off_the_last_radius(self, monkeypatch):
        def refuse(g):
            raise AssertionError("diameter ran a separate connectivity BFS")

        monkeypatch.setattr(graphs_module, "is_connected", refuse)
        assert diameter(cycle_graph(7)) == 3
        assert diameter(build_graph(1, [])) == 0
        with pytest.raises(DisconnectedGraphError, match="^diameter requires a connected graph$"):
            diameter(build_graph(4, [(0, 1), (2, 3)]))
        with pytest.raises(DisconnectedGraphError, match="^diameter requires a connected graph$"):
            diameter(build_graph(2, []))
        # the empty graph is refused first, and not as a disconnected one
        with pytest.raises(GraphError, match="^diameter of the empty graph is undefined$") as excinfo:
            diameter(build_graph(0, []))
        assert not isinstance(excinfo.value, DisconnectedGraphError)

    def test_is_connected(self):
        assert is_connected(cycle_graph(4))
        assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
        assert is_connected(build_graph(1, []))
        g, _ = build_jahangir(JahangirParams(6, 5))
        assert is_connected(g)


class TestGenerators:
    def test_shapes(self):
        assert path_graph(4).edge_count() == 3
        assert cycle_graph(5).edge_count() == 5
        assert complete_graph(4).edge_count() == 6

    @pytest.mark.parametrize("builder,bad", [(path_graph, 0), (cycle_graph, 2), (complete_graph, 0)])
    def test_bad_sizes(self, builder, bad):
        with pytest.raises(GraphError):
            builder(bad)


class TestSerialization:
    def test_p2_edge_json(self):
        assert serialize(path_graph(2)) == '{"n": 2, "edges": [[0, 1]]}\n'

    def test_p2_dot(self):
        assert serialize(path_graph(2), "dot") == 'graph {\n  "0" -- "1";\n}\n'

    def test_dot_carries_labels_and_isolated_vertices(self):
        out = serialize(build_graph(3, [(0, 1)]), "dot", {0: "a", 1: "b", 2: "lonely"})
        assert '"2" [label="lonely"];' in out
        assert '"0" -- "1";' in out

    def test_dot_reads_only_the_adjacency_view(self):
        # an edge-list graph's masks view costs V^2 bits; finding the isolated
        # vertices must not build it
        g = build_graph(4, [(0, 1), (1, 2)])
        assert serialize(g, "dot") == 'graph {\n  "3";\n  "0" -- "1";\n  "1" -- "2";\n}\n'
        assert "masks" not in vars(g)

    def test_dot_escapes_quotes_and_backslashes(self):
        g, labels = parse('{"n": 2, "edges": [[0, 1]], "labels": {"0": "a\\"b", "1": "c\\\\d"}}')
        assert labels == {0: 'a"b', 1: "c\\d"}
        out = serialize(g, "dot", labels)
        assert '"0" [label="a\\"b"];' in out
        assert '"1" [label="c\\\\d"];' in out

    @given(st.text(max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_dot_label_reads_back(self, label):
        out = serialize(build_graph(1, []), "dot", {0: label})
        prefix, suffix = 'graph {\n  "0" [label="', '"];\n}\n'
        assert out.startswith(prefix) and out.endswith(suffix)
        body = out[len(prefix) : -len(suffix)]
        # a DOT reader ends the string at the first quote not escaped by a backslash
        assert re.fullmatch(r'(?:[^"\\]|\\.)*', body, flags=re.DOTALL)
        assert re.sub(r"\\(.)", r"\1", body, flags=re.DOTALL) == label

    def test_unknown_format(self):
        with pytest.raises(GraphError, match="unsupported format"):
            serialize(path_graph(2), "graphml")

    def test_round_trip_jahangir(self):
        g, _ = build_jahangir(JahangirParams(3, 4))
        assert parse(serialize(g)) == (g, {})

    @given(graphs(max_order=16, connected=False))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random(self, g):
        assert parse(serialize(g)) == (g, {})

    def test_round_trip_seeded_corpus(self):
        for seed in range(20):
            g = random_connected_graph(random.Random(seed), max_order=20)
            assert parse(serialize(g)) == (g, {})


class TestLabelRule:
    """One rule for labels, which serialize applies as parse does."""

    @pytest.mark.parametrize("fmt", graphs_module.FORMATS)
    @pytest.mark.parametrize(
        "labels,message",
        [
            ({2: "x"}, "vertex id out of range for order 2: 2"),
            ({-1: "x"}, "vertex id out of range for order 2: -1"),
            ({"0": "x"}, "vertex id out of range for order 2: '0'"),
            ({True: "x"}, "vertex id out of range for order 2: True"),
            ({0: 5}, "labels['0']: name must be a string, got 5"),
            ({1: None}, "labels['1']: name must be a string, got None"),
            ({0: "a\ud800"}, "labels['0']: name is not valid Unicode text"),
        ],
        ids=["key-above", "key-below", "key-str", "key-bool", "name-int", "name-none", "name-surrogate"],
    )
    def test_serialize_refuses_a_broken_label(self, fmt, labels, message):
        # edge-JSON carried a non-str or lone-surrogate name that parse refuses,
        # and DOT raised AttributeError on a non-str one
        with pytest.raises(GraphError) as excinfo:
            serialize(path_graph(2), fmt, labels)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "raw,message",
        [
            ('{"2": "x"}', "vertex id out of range for order 2: 2"),
            ('{"0": 5}', "labels['0']: name must be a string, got 5"),
            ('{"0": "a\\ud800"}', "labels['0']: name is not valid Unicode text"),
        ],
    )
    def test_parse_and_serialize_give_one_message(self, raw, message):
        with pytest.raises(ParseError) as excinfo:
            parse(f'{{"n": 2, "edges": [[0, 1]], "labels": {raw}}}')
        assert str(excinfo.value) == message
        with pytest.raises(GraphError) as excinfo:
            serialize(path_graph(2), "edge-json", {int(k): v for k, v in json.loads(raw).items()})
        assert str(excinfo.value) == message

    def test_seeded_labelled_round_trip(self):
        names = ["", "a", "u1", "c", 'q"t', "b\\s", "\u00e9", "\U0001f600", "two words"]
        for seed in range(40):
            rng = random.Random(seed)
            g = random_connected_graph(rng, max_order=20)
            labels = {v: rng.choice(names) for v in range(g.vertex_count) if rng.random() < 0.6}
            assert parse(serialize(g, "edge-json", labels)) == (g, labels)
            out = serialize(g, "dot", labels)
            assert all(f'  "{v}" [label="' in out for v in labels)


class TestParse:
    def test_minimal(self):
        g, labels = parse('{"n":2,"edges":[[0,1]]}')
        assert g.vertex_count == 2 and g.edges() == [(0, 1)] and labels == {}

    def test_labels(self):
        g, labels = parse('{"n":2,"edges":[[0,1]],"labels":{"0":"x"}}')
        assert g == path_graph(2) and labels == {0: "x"}

    @pytest.mark.parametrize("key", ["01", " +1 ", "1_0", "+1", "-0", "1.0", ""])
    def test_non_canonical_label_key(self, key):
        doc = json.dumps({"n": 2, "edges": [[0, 1]], "labels": {key: "a"}})
        with pytest.raises(ParseError, match=f"key {re.escape(repr(key))} is not a vertex id"):
            parse(doc)

    def test_lone_surrogate_label(self):
        # a JSON escape can spell it, but no UTF-8 output (DOT, a file) can hold it
        with pytest.raises(ParseError, match=r"labels\['0'\]: name is not valid Unicode text"):
            parse('{"n":2,"edges":[[0,1]],"labels":{"0":"\\ud800"}}')
        assert parse('{"n":1,"labels":{"0":"\\u00e9\\ud83d\\ude00"}}')[1] == {0: "\u00e9\U0001f600"}

    def test_label_keys_naming_one_vertex_twice(self):
        # int() reads both keys as vertex 1, and "a" would be dropped silently
        with pytest.raises(ParseError, match="key '01' is not a vertex id"):
            parse('{"n":2,"edges":[[0,1]],"labels":{"01":"a","1":"b"}}')

    def test_labelled_round_trip(self):
        # ids of one and two digits, every vertex named
        g, labels = path_graph(12), {v: f"v{v}" for v in range(12)}
        assert parse(serialize(g, "edge-json", labels)) == (g, labels)

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse('{"n":2,"edges":[[0,2]]}')

    def test_unordered_duplicate(self):
        with pytest.raises(ParseError, match="duplicate edge"):
            parse('{"n":3,"edges":[[0,1],[1,0]]}')

    def test_malformed_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse("{not json")

    def test_missing_n(self):
        with pytest.raises(ParseError, match="'n'"):
            parse('{"edges":[]}')

    def test_bad_edge_shape_is_located(self):
        with pytest.raises(ParseError, match=r"edges\[1\]"):
            parse('{"n":3,"edges":[[0,1],[2]]}')

    def test_bad_top_level(self):
        with pytest.raises(ParseError, match="top level"):
            parse("[1,2]")

    @pytest.mark.parametrize(
        "doc,message",
        [
            ('{"n": -1}', "'n' must be a nonnegative integer, got -1"),
            ('{"n": true}', "'n' must be a nonnegative integer, got True"),
            ('{"n": 2.0}', "'n' must be a nonnegative integer, got 2.0"),
            ('{"n": 2, "edges": {"0": 1}}', "'edges' must be a list of [u, v] pairs"),
            ('{"n": 2, "labels": ["a", "b"]}', "'labels' must be an object mapping ids to names"),
        ],
        ids=["n-negative", "n-bool", "n-float", "edges-object", "labels-list"],
    )
    def test_field_of_the_wrong_shape(self, doc, message):
        with pytest.raises(ParseError) as excinfo:
            parse(doc)
        assert str(excinfo.value) == message
