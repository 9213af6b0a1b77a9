import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from strongdim import (
    GraphError,
    JahangirParams,
    SizeLimitError,
    build_graph,
    build_jahangir,
    complete_graph,
    cycle_graph,
    exact_min_vertex_cover,
    greedy_cover,
    is_vertex_cover,
    matching_lower_bound,
    path_graph,
    sdim_formula,
    strong_resolving_graph,
)
from strongdim.cli import main
from strongdim import graphs as graphs_module
from strongdim.graphs import graph_from_masks, members
from strongdim.vertex_cover import _clique_partition, _mis_search
from helpers import (
    exhaustive_min_cover_size,
    large_random_graphs,
    lowest_first_clique_partition,
    masks_of,
    pinned_250_vertex_graph,
    random_graph,
    scratch_mis_search,
)
from test_golden import SDIM_CELLS


# the vertices outside the exact cover of the pinned 250-vertex graph's SRG,
# captured before the search's bit layout was reversed
PINNED_250_OUTSIDE_COVER = (
    0, 1, 2, 4, 5, 7, 9, 12, 18, 27, 31, 34, 35, 38, 40, 46, 53, 67, 73, 74, 83, 84,
    93, 97, 100, 105, 109, 113, 114, 116, 140, 142, 160, 165, 174, 191, 199, 201,
    205, 215, 223, 229, 243,
)


def srg_of(n, m):
    g, _ = build_jahangir(JahangirParams(n, m))
    return strong_resolving_graph(g)


def bits(n):
    """The bit table ``_clique_partition`` reads: ``1 << v`` for each vertex."""
    return [1 << v for v in range(n)]


@st.composite
def sparse_graphs(draw, max_order=20):
    order = draw(st.integers(1, max_order))
    pairs = st.tuples(st.integers(0, order - 1), st.integers(0, order - 1))
    edges = {
        (min(u, v), max(u, v))
        for u, v in draw(st.lists(pairs, max_size=2 * order))
        if u != v
    }
    return build_graph(order, sorted(edges))


@st.composite
def graphs_of_density(draw, max_order=14):
    order = draw(st.integers(0, max_order))
    density = draw(st.floats(0.1, 0.8))
    rng = draw(st.randoms(use_true_random=False))
    edges = [(u, v) for u in range(order) for v in range(u + 1, order) if rng.random() < density]
    return build_graph(order, edges)


class TestIsVertexCover:
    def test_full_vertex_set(self):
        g = cycle_graph(4)
        assert is_vertex_cover(g, range(4)) == (True, None)

    def test_c4_cases(self):
        g = cycle_graph(4)
        assert is_vertex_cover(g, {0, 2}) == (True, None)
        ok, witness = is_vertex_cover(g, {0, 1})
        assert not ok and witness == (2, 3)

    def test_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            is_vertex_cover(cycle_graph(4), {5})

    @pytest.mark.parametrize(
        "subset,named",
        [([0, "a"], "'a'"), ([0, None], "None"), ([0, 7, 5], "7"), ([None, "a"], "None"), ([0, [1]], r"\[1\]")],
    )
    def test_bad_ids_raise_graph_error_naming_the_first(self, subset, named):
        # the ids are checked in the order given, before any is hashed
        with pytest.raises(GraphError, match=rf"out of range for order 5: {named}$"):
            is_vertex_cover(cycle_graph(5), subset)

    def test_named_id_does_not_depend_on_the_hash_seed(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "from strongdim import cycle_graph, is_vertex_cover\n"
            "try:\n"
            "    is_vertex_cover(cycle_graph(5), [None, 'a'])\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        outputs = set()
        for seed in range(1, 7):
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert outputs == {"GraphError vertex id out of range for order 5: None\n"}

    @given(sparse_graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_edge_scan_on_either_view(self, g, data):
        # the scan over sorted edges the one-AND-per-row check replaced
        subset = data.draw(st.lists(st.integers(0, g.vertex_count - 1), max_size=g.vertex_count))
        chosen = set(subset)
        witness = next(((u, v) for u, v in g.edges() if u not in chosen and v not in chosen), None)
        expected = (witness is None, witness)
        assert is_vertex_cover(g, subset) == expected

        def refuse(mask):
            raise AssertionError("a mask-built graph was decoded into neighbour tuples")

        h = graph_from_masks(g.vertex_count, masks_of(g))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs_module, "members", refuse)
            assert is_vertex_cover(h, subset) == expected

    def test_published_even_cover(self):
        g, lab = build_jahangir(JahangirParams(6, 5))
        srg = strong_resolving_graph(g)
        cover = {lab.rim_id(i) for i in (4, 10, 16, 22, 28, 2, 8, 14, 20, 26)}
        assert is_vertex_cover(srg, cover) == (True, None)


class TestGreedyCover:
    def test_edgeless(self):
        result = greedy_cover(build_graph(3, []))
        assert result.cover == () and result.size == 0 and result.optimal

    def test_star(self):
        star = build_graph(5, [(0, i) for i in range(1, 5)])
        result = greedy_cover(star)
        assert result.cover == (0,) and result.size == 1 and result.optimal

    def test_ties_go_to_the_lowest_id(self):
        # every C4 vertex has degree 2: taking 0 leaves 2 as the only degree-2 vertex
        assert greedy_cover(cycle_graph(4)).cover == (0, 2)

    def test_c5_valid_and_small(self):
        g = cycle_graph(5)
        result = greedy_cover(g)
        assert result.size <= 3
        assert is_vertex_cover(g, result.cover) == (True, None)


class TestMatchingLowerBound:
    def test_edgeless(self):
        assert matching_lower_bound(build_graph(4, [])) == 0

    def test_p4_lowest_id_first(self):
        assert matching_lower_bound(path_graph(4)) == 2

    def test_three_disjoint_edges(self):
        g = build_graph(6, [(0, 1), (2, 3), (4, 5)])
        assert matching_lower_bound(g) == 3

    @given(sparse_graphs())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_tuple_scan_on_either_view(self, g):
        # the scan over adjacency tuples the bitset scan replaced
        matched = [False] * g.vertex_count
        size = 0
        for u in range(g.vertex_count):
            v = next((v for v in g.adjacency[u] if not matched[u] and not matched[v]), None)
            if v is not None:
                matched[u] = matched[v] = True
                size += 1
        h = graph_from_masks(g.vertex_count, masks_of(g))
        assert matching_lower_bound(g) == matching_lower_bound(h) == size
        assert greedy_cover(g) == greedy_cover(h)
        # the greedy cover over adjacency tuples: max live degree, lowest id on ties
        live = set(range(g.vertex_count))
        cover = []
        while True:
            degree = {v: sum(u in live for u in g.adjacency[v]) for v in live}
            best = min(live, key=lambda v: (-degree[v], v), default=None)
            if best is None or not degree[best]:
                break
            cover.append(best)
            live.remove(best)
        result = greedy_cover(h)
        assert result.cover == tuple(sorted(cover)) and result.size == len(cover)
        assert result.optimal == (len(cover) == size)


class TestExactCover:
    def test_c4(self):
        result = exact_min_vertex_cover(cycle_graph(4))
        assert result.size == 2 and result.optimal

    def test_even_example_srg(self):
        assert exact_min_vertex_cover(srg_of(6, 5)).size == 10

    def test_odd_example_srg(self):
        assert exact_min_vertex_cover(srg_of(5, 5)).size == 12

    def test_forests_need_no_branching(self):
        # degree-0/1 reductions to a fixpoint solve a forest at the root
        tree = build_graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        forest = build_graph(6, [(0, 1), (2, 3)])
        for g, size in ((path_graph(9), 4), (tree, 2), (forest, 2)):
            result = exact_min_vertex_cover(g)
            assert (result.size, result.nodes_explored) == (size, 1)

    def test_even_regime_srgs_solve_at_the_root(self):
        # the root reductions alone solve these; without them the search branches
        for n, m in ((20, 12), (6, 42)):
            g = srg_of(n, m)
            result = exact_min_vertex_cover(g)
            assert result.size == sdim_formula(JahangirParams(n, m))
            assert result.nodes_explored == 1

    def test_pinned_250_vertex_graph(self):
        g = pinned_250_vertex_graph()
        assert (g.vertex_count, g.edge_count()) == (250, 649)
        srg = strong_resolving_graph(g)
        assert srg.edge_count() == 7230
        result = exact_min_vertex_cover(srg)
        assert result.size == len(result.cover) == 207
        assert is_vertex_cover(srg, result.cover) == (True, None)
        # the densest search the suite runs: its tree and its cover are pinned
        assert result.nodes_explored == 88802
        assert result.cover == tuple(v for v in range(250) if v not in PINNED_250_OUTSIDE_COVER)

    def test_deeper_than_the_recursion_limit(self):
        # 64 disjoint 4-cycles: α = 128 and no root reduction applies, so the
        # open path reaches 129 nodes, more than the frames left below the limit
        g = build_graph(256, [(4 * c + i, 4 * c + (i + 1) % 4) for c in range(64) for i in range(4)])
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            result = exact_min_vertex_cover(g)
        finally:
            sys.setrecursionlimit(limit)
        assert (result.size, result.nodes_explored) == (128, 129)

    def test_cap(self):
        with pytest.raises(SizeLimitError) as info:
            exact_min_vertex_cover(build_graph(257, []))
        assert str(info.value) == "graph has 257 vertices, exact cover cap is 256"

    def test_deterministic_including_statistics(self):
        g = srg_of(7, 4)
        assert exact_min_vertex_cover(g) == exact_min_vertex_cover(g)

    def test_cover_is_valid_and_counts_nodes(self):
        g = srg_of(5, 4)
        result = exact_min_vertex_cover(g)
        assert is_vertex_cover(g, result.cover) == (True, None)
        assert result.nodes_explored >= 1

    def test_matches_exhaustive_oracle_on_seeded_corpus(self):
        for seed in range(40):
            g = random_graph(random.Random(seed), max_order=10)
            result = exact_min_vertex_cover(g)
            assert is_vertex_cover(g, result.cover) == (True, None)
            assert result.size == exhaustive_min_cover_size(g), f"seed {seed}"

    @given(graphs_of_density())
    @settings(max_examples=120, deadline=None)
    def test_matches_exhaustive_oracle(self, g):
        result = exact_min_vertex_cover(g)
        assert is_vertex_cover(g, result.cover) == (True, None)
        assert result.size == len(result.cover) == exhaustive_min_cover_size(g)

    @given(graphs_of_density())
    @settings(max_examples=120, deadline=None)
    def test_clique_partition_bounds_independence_number(self, g):
        nbr = [sum(1 << u for u in nbrs) for nbrs in g.adjacency]
        live = (1 << g.vertex_count) - 1
        classes = _clique_partition(nbr, bits(g.vertex_count), live, [])
        for clique in classes:
            members = [v for v in range(g.vertex_count) if clique >> v & 1]
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    assert g.has_edge(u, v)
        union = 0
        for clique in classes:
            assert clique and not union & clique
            union |= clique
        assert union == live
        # an independent set meets each clique at most once
        assert len(classes) >= g.vertex_count - exhaustive_min_cover_size(g)

    def test_srg_at_the_vertex_cap(self):
        params = JahangirParams(5, 51)
        g = srg_of(5, 51)
        assert g.vertex_count == 256
        result = exact_min_vertex_cover(g)
        assert result.size == sdim_formula(params)
        assert is_vertex_cover(g, result.cover) == (True, None)

    @given(sparse_graphs())
    @settings(max_examples=60, deadline=None)
    def test_bound_sandwich(self, g):
        exact = exact_min_vertex_cover(g)
        assert matching_lower_bound(g) <= exact.size <= greedy_cover(g).size


@st.composite
def seeded_graphs(draw, max_order, densities):
    """Like :func:`graphs_of_density`, but the edges come from a drawn seed: cheap at order 40."""
    order = draw(st.integers(0, max_order))
    density = draw(st.floats(*densities))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [(u, v) for u in range(order) for v in range(u + 1, order) if rng.random() < density]
    return build_graph(order, edges)


def cell_srg(cell):
    """The strong resolving graph of a ``jahangir:n,m`` spec."""
    n, m = map(int, cell.removeprefix("jahangir:").split(","))
    return srg_of(n, m)


def assert_same_search_from_either_view(g):
    """The search on ``g`` built from edges and from masks equals the oracle's on the tuples."""
    n = g.vertex_count
    expected = scratch_mis_search(build_graph(n, g.edges()))
    assert _mis_search(build_graph(n, g.edges())) == expected
    assert _mis_search(graph_from_masks(n, masks_of(g))) == expected


class TestPartitionReuse:
    """A node's cliques are its parent's up to the first that lost a vertex, then a rebuild."""

    @given(seeded_graphs(max_order=40, densities=(0.02, 0.95)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_kept_prefix_plus_rebuilt_tail_is_the_fresh_partition(self, g, data):
        nbr = [sum(1 << u for u in nbrs) for nbrs in g.adjacency]
        bit = bits(g.vertex_count)
        full = (1 << g.vertex_count) - 1
        parent = data.draw(st.integers(0, full))
        child = parent & data.draw(st.integers(0, full))
        classes = _clique_partition(nbr, bit, parent, [])
        lost = parent & ~child
        i = next((i for i, clique in enumerate(classes) if clique & lost), len(classes))
        kept = classes[:i]
        grown = _clique_partition(nbr, bit, child & ~sum(kept), kept)
        assert grown is kept  # the tail is appended in place
        assert grown == _clique_partition(nbr, bit, child, [])

    @given(seeded_graphs(max_order=40, densities=(0.02, 0.95)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_highest_bit_first_is_the_lowest_first_partition_reversed(self, g, data):
        # under p -> n - 1 - p the search's partition is the one position i = bit i gave
        n = g.vertex_count
        cand = data.draw(st.integers(0, (1 << n) - 1))

        def flip(mask):
            return sum(1 << (n - 1 - v) for v in members(mask))

        nbr = masks_of(g)
        flipped = [flip(row) for row in reversed(nbr)]  # row n - 1 - v is v's
        expected = [flip(clique) for clique in lowest_first_clique_partition(nbr, cand)]
        assert _clique_partition(flipped, bits(n), flip(cand), []) == expected

    @given(
        st.one_of(
            seeded_graphs(max_order=40, densities=(0.02, 0.15)),
            seeded_graphs(max_order=40, densities=(0.3, 0.95)),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_same_search_as_the_fresh_partition_oracle(self, g):
        assert_same_search_from_either_view(g)

    @pytest.mark.parametrize("cell", SDIM_CELLS)
    def test_same_search_on_closed_form_cell_srgs(self, cell):
        assert_same_search_from_either_view(cell_srg(cell))

    # sparse trees of 39, 38, 158, 178 and 592 nodes that pop and resume many nodes
    @pytest.mark.parametrize("n,m", [(7, 4), (5, 5), (7, 8), (5, 9), (7, 12)])
    def test_same_search_on_sparse_jahangir_graphs(self, n, m):
        assert_same_search_from_either_view(build_jahangir(JahangirParams(n, m))[0])

    @pytest.mark.parametrize("g", large_random_graphs())
    def test_same_search_on_large_random_srgs(self, g):
        assert_same_search_from_either_view(strong_resolving_graph(g))


class TestSearchTreeIsPinned:
    """Node counts of the exact cover search; a change to the search tree shows here."""

    @pytest.mark.parametrize(
        "cell,nodes", list(zip(SDIM_CELLS, (1, 1, 1, 1, 115, 89, 76, 55)))
    )
    def test_closed_form_cell_srgs(self, cell, nodes):
        assert exact_min_vertex_cover(cell_srg(cell)).nodes_explored == nodes

    @pytest.mark.parametrize("spec,nodes", [("jahangir:7,4", 39), ("jahangir:5,5", 38)])
    def test_cli_cover_of_sparse_jahangir_graphs(self, capsys, spec, nodes):
        assert main(["cover", spec]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"nodes_explored = {nodes}"


def cover_complement(g):
    """The vertices outside the exact cover, ascending: a maximum independent set."""
    cover = set(exact_min_vertex_cover(g).cover)
    return [v for v in range(g.vertex_count) if v not in cover]


class TestMaxIndependentSet:
    """The maximum independent set the exact cover search finds, read as the cover's complement."""

    def test_c4(self):
        assert len(cover_complement(cycle_graph(4))) == 2

    def test_k3(self):
        assert len(cover_complement(complete_graph(3))) == 1

    def test_three_k2_plus_isolated(self):
        # strong resolving graph of J(3,3): three disjoint edges, four isolated
        assert len(cover_complement(srg_of(3, 3))) == 7

    @given(graphs_of_density())
    @settings(max_examples=120, deadline=None)
    def test_matches_exhaustive_oracle(self, g):
        mis = cover_complement(g)
        for i, u in enumerate(mis):
            for v in mis[i + 1 :]:
                assert not g.has_edge(u, v)
        assert len(mis) == g.vertex_count - exhaustive_min_cover_size(g)

    @given(sparse_graphs(max_order=16))
    @settings(max_examples=40, deadline=None)
    def test_duality(self, g):
        result = exact_min_vertex_cover(g)
        rest = set(range(g.vertex_count)) - set(result.cover)
        assert not any(u in rest and v in rest for u, v in g.edges())
        assert exact_min_vertex_cover(g) == result
