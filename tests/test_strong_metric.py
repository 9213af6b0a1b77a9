import random
import sys
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from strongdim import (
    DisconnectedGraphError,
    GraphError,
    InternalInconsistencyError,
    JahangirParams,
    SizeLimitError,
    all_pairs_distances,
    build_graph,
    build_jahangir,
    brute_force_sdim,
    complete_graph,
    cycle_graph,
    diameter,
    distance_balls,
    is_maximally_distant,
    is_strong_resolving_set,
    path_graph,
    sdim_formula,
    sdim_via_cover,
    strong_resolving_graph,
    strongly_resolves,
)
from strongdim import graphs as graphs_module
from strongdim import strong_metric
from strongdim.graphs import UNREACHABLE, members
from strongdim.strong_metric import _first_hitting_set, _minimal_resolver_masks
from helpers import (
    MMD_23,
    MMD_33,
    MMD_43,
    bfs_is_strong_resolving_set,
    complete_bipartite_graph,
    connected_graphs_to_isomorphism,
    enumerate_brute_force_sdim,
    grid_graph,
    hypercube_graph,
    id_pairs,
    large_random_graphs,
    long_diameter_graphs,
    random_connected_graph,
    random_tree,
    scratch_first_hitting_set,
)


@st.composite
def connected_graphs(draw, max_order=14):
    """Random spanning tree plus random extra edges, order 1 .. max_order."""
    order = draw(st.integers(1, max_order))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, order)}
    extra = draw(
        st.lists(st.tuples(st.integers(0, order - 1), st.integers(0, order - 1)), max_size=order)
    )
    edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    return build_graph(order, sorted(edges))


@st.composite
def graphs_of_any_density(draw, max_order=12):
    """Order 0 .. max_order at an edge density from empty to complete.

    Half the draws also get a random spanning tree, so sparse connected
    graphs are as common as disconnected ones.
    """
    order = draw(st.integers(0, max_order))
    density = draw(st.sampled_from((0.0, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9, 1.0)))
    rng = draw(st.randoms(use_true_random=False))
    edges = {(u, v) for u in range(order) for v in range(u + 1, order) if rng.random() < density}
    if draw(st.booleans()):
        edges |= {(rng.randrange(v), v) for v in range(1, order)}
    return build_graph(order, sorted(edges))


@st.composite
def graphs_with_subsets(draw, max_order=14):
    """A connected graph and a subset that is empty, whole, doubled or random."""
    g = draw(connected_graphs(max_order))
    everything = list(range(g.vertex_count))
    picks = st.lists(st.sampled_from(everything), max_size=g.vertex_count)
    subset = draw(
        st.one_of(
            st.just([]),
            st.just(everything),
            picks.map(lambda chosen: chosen + chosen[::-1]),
            picks,
        )
    )
    return g, subset


# the cells of the jahangir-sdim benchmark workload, order 241-256
BENCHMARK_JAHANGIR_CELLS = (
    (20, 12), (12, 21), (10, 25), (6, 42), (25, 10), (9, 28), (7, 36), (5, 51),
)


def oracle_scale_graphs():
    """The benchmark's Jahangir cells and ten seeded random graphs of order 90-110."""
    cases = [
        pytest.param(build_jahangir(JahangirParams(n, m))[0], id=f"J({n},{m})")
        for n, m in BENCHMARK_JAHANGIR_CELLS
    ]
    for seed in range(10):
        g = random_connected_graph(random.Random(9000 + seed), 90, 110)
        cases.append(pytest.param(g, id=f"random{seed}"))
    return cases


# orders just inside, at and past the sides of the packed bit matrix that
# transpose_rows works in (8, 16, 256)
PACK_SIDE_ORDERS = [0, 1, 7, 8, 9, 16, 255, 256]


def pack_side_cases(order):
    """Graphs of ``order`` with subsets that resolve all pairs or miss some, seeded by ``order``."""
    rng = random.Random(order)
    graphs = [build_graph(order, [])] if order < 2 else [random_connected_graph(rng, order, order)]
    if order >= 3:
        graphs.append(cycle_graph(order))
    cases = []
    for g in graphs:
        subsets = [[], list(range(order))]
        if order:
            samples = [rng.sample(range(order), order // 2), rng.sample(range(order), max(order - 2, 0))]
            subsets += [[0], [order - 1]] + samples
        cases.append((g, subsets))
    return cases


def scalar_strong_resolving_check(g, dm, subset):
    """The definition pair by pair: first pair no chosen vertex strongly resolves."""
    chosen = sorted(set(subset))
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            if not any(strongly_resolves(dm, w, u, v) for w in chosen):
                return False, (u, v)
    return True, None


def brute_outcome(search, g):
    """``search(g)``, or the type of the error it raised."""
    try:
        return search(g)
    except (DisconnectedGraphError, SizeLimitError) as exc:
        return type(exc)


LONG_DIAMETER_GRAPHS = long_diameter_graphs()
LARGE_RANDOM_GRAPHS = large_random_graphs()
# two components each: two edges, an isolated vertex beside an edge (once
# as vertex 0, once as the last vertex), two isolated vertices, and a path
# of three beside a 4-cycle
TWO_COMPONENT_GRAPHS = [
    build_graph(4, [(0, 1), (2, 3)]),
    build_graph(3, [(1, 2)]),
    build_graph(3, [(0, 1)]),
    build_graph(2, []),
    build_graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6)]),
]


def scalar_mmd_pairs(g, dm):
    return {
        (u, v)
        for u in range(g.vertex_count)
        for v in range(u + 1, g.vertex_count)
        if is_maximally_distant(g, dm, u, v) and is_maximally_distant(g, dm, v, u)
    }


def srg_edge_set(g):
    """The MMD pairs of ``g`` as (u, v), u < v: the edges of its strong resolving graph."""
    return frozenset(strong_resolving_graph(g).edges())


def jahangir_with_distances(n, m):
    g, lab = build_jahangir(JahangirParams(n, m))
    return g, lab, all_pairs_distances(g)


class TestStronglyResolves:
    def test_path_endpoint(self):
        dm = all_pairs_distances(path_graph(3))
        assert strongly_resolves(dm, 0, 1, 2)

    def test_c4_opposite(self):
        dm = all_pairs_distances(cycle_graph(4))
        assert not strongly_resolves(dm, 1, 0, 2)

    def test_witness_equal_to_endpoint(self):
        for seed in range(5):
            g = random_connected_graph(random.Random(seed), max_order=8)
            dm = all_pairs_distances(g)
            for u in range(g.vertex_count):
                for v in range(u + 1, g.vertex_count):
                    assert strongly_resolves(dm, u, u, v)

    def test_equal_vertices_rejected(self):
        dm = all_pairs_distances(path_graph(3))
        with pytest.raises(GraphError, match="distinct"):
            strongly_resolves(dm, 0, 1, 1)

    def test_out_of_range(self):
        dm = all_pairs_distances(path_graph(3))
        with pytest.raises(GraphError, match="out of range"):
            strongly_resolves(dm, 5, 0, 1)


class TestIsStrongResolvingSet:
    def test_whole_vertex_set_always_works(self):
        for seed in range(10):
            g = random_connected_graph(random.Random(seed), max_order=10)
            dm = all_pairs_distances(g)
            assert is_strong_resolving_set(g, dm, range(g.vertex_count)) == (True, None)

    def test_one_endpoint_per_mmd_pair(self):
        g, lab, dm = jahangir_with_distances(2, 3)
        subset = {lab.rim_id(2), lab.rim_id(4), lab.rim_id(6)}
        assert is_strong_resolving_set(g, dm, subset) == (True, None)

    def test_missing_pair_reported(self):
        g, lab, dm = jahangir_with_distances(2, 3)
        ok, witness = is_strong_resolving_set(g, dm, {lab.rim_id(2), lab.rim_id(4)})
        assert not ok
        assert witness == lab.pair(6, 3)

    def test_rejects_disconnected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            is_strong_resolving_set(g, all_pairs_distances(g), {0})

    def test_strong_resolving_implies_resolving(self):
        # any strong resolving set distinguishes every pair by some distance
        for seed in range(10):
            g = random_connected_graph(random.Random(seed), max_order=10)
            dm = all_pairs_distances(g)
            basis = sdim_via_cover(g).basis
            assert is_strong_resolving_set(g, dm, basis) == (True, None)
            for u in range(g.vertex_count):
                for v in range(u + 1, g.vertex_count):
                    assert any(dm[u][w] != dm[v][w] for w in basis)

    @given(graphs_with_subsets())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_definition(self, case):
        g, subset = case
        dm = all_pairs_distances(g)
        assert is_strong_resolving_set(g, dm, subset) == scalar_strong_resolving_check(
            g, dm, subset
        )

    @pytest.mark.parametrize("g", LONG_DIAMETER_GRAPHS)
    def test_matches_scalar_definition_at_long_diameter(self, g):
        dm = all_pairs_distances(g)
        basis = list(sdim_via_cover(g).basis)
        short = basis[: len(basis) // 2] + basis[len(basis) // 2 + 1 :]
        for subset in (range(g.vertex_count), basis, short):
            assert is_strong_resolving_set(g, dm, subset) == scalar_strong_resolving_check(
                g, dm, subset
            )
        # a minimum basis less one vertex resolves too little: the witness path runs
        assert not is_strong_resolving_set(g, dm, short)[0]

    @given(graphs_with_subsets(max_order=20))
    @settings(max_examples=400, deadline=None)
    def test_matches_per_source_bfs_oracle(self, case):
        g, subset = case
        assert is_strong_resolving_set(g, None, subset) == bfs_is_strong_resolving_set(
            g, None, subset
        )

    @pytest.mark.parametrize("g", oracle_scale_graphs())
    def test_matches_per_source_bfs_oracle_at_scale(self, g):
        basis = list(sdim_via_cover(g).basis)
        half = random.Random(g.vertex_count).sample(range(g.vertex_count), g.vertex_count // 2)
        subsets = [basis] + [basis[:i] + basis[i + 1 :] for i in range(3)] + [half]
        outcomes = [is_strong_resolving_set(g, None, subset) for subset in subsets]
        assert outcomes == [bfs_is_strong_resolving_set(g, None, subset) for subset in subsets]
        assert outcomes[0] == (True, None)
        # a minimum basis less one vertex fails: the witness path runs
        assert not any(ok for ok, _ in outcomes[1:4])

    @pytest.mark.parametrize("order", PACK_SIDE_ORDERS)
    def test_witness_matches_oracle_around_pack_sides(self, order):
        for g, subsets in pack_side_cases(order):
            outcomes = [is_strong_resolving_set(g, None, subset) for subset in subsets]
            assert outcomes == [bfs_is_strong_resolving_set(g, None, subset) for subset in subsets]
            assert outcomes[1] == (True, None)
            if order >= 2:
                assert outcomes[0] == (False, (0, 1))
                assert sum(not ok for ok, _ in outcomes) >= 2

    @pytest.mark.parametrize("order", PACK_SIDE_ORDERS)
    def test_shares_no_code_with_the_bit_matrix_transpose(self, order, monkeypatch):
        cases = list(pack_side_cases(order))
        expected = [[bfs_is_strong_resolving_set(g, None, s) for s in subsets] for g, subsets in cases]

        def refuse(*args):
            raise AssertionError("the bit-matrix transpose ran")

        for name in ("transpose_rows", "_pack_rows", "_transpose", "_swap_masks"):
            monkeypatch.setattr(graphs_module, name, refuse)
        monkeypatch.setattr(strong_metric, "transpose_rows", refuse)
        for (g, subsets), want in zip(cases, expected):
            assert [is_strong_resolving_set(g, None, s) for s in subsets] == want
        # the patches bite: the MMD scan does transpose
        g, _ = cases[0]
        with pytest.raises(AssertionError, match="bit-matrix transpose ran"):
            strong_resolving_graph(g)

    @pytest.mark.parametrize("g", TWO_COMPONENT_GRAPHS)
    def test_rejects_disconnected_before_out_of_range(self, g):
        message = "strong resolution is defined for connected graphs"
        for subset in ([0], [g.vertex_count], [-1, 0]):
            with pytest.raises(DisconnectedGraphError, match=message):
                is_strong_resolving_set(g, None, subset)

    def test_out_of_range_on_connected_graph(self):
        with pytest.raises(GraphError, match="out of range"):
            is_strong_resolving_set(cycle_graph(5), None, [0, 5])

    @pytest.mark.parametrize(
        "subset,named",
        [([0, "a"], "'a'"), ([0, None], "None"), ([0, 7, 5], "7"), ([None, "a"], "None"), ([0, [1]], r"\[1\]")],
    )
    def test_bad_ids_raise_graph_error_naming_the_first(self, subset, named):
        # ids that do not sort or hash among ints are refused, not a TypeError
        with pytest.raises(GraphError, match=rf"out of range for order 5: {named}$"):
            is_strong_resolving_set(cycle_graph(5), None, subset)

    @pytest.mark.parametrize("order", [0, 1])
    def test_trivial_orders_are_resolved(self, order):
        g = build_graph(order, [])
        assert is_strong_resolving_set(g, None, []) == (True, None)
        assert is_strong_resolving_set(g, None, range(order)) == (True, None)

    def test_runs_no_separate_connectivity_bfs(self, monkeypatch):
        def refuse(g):
            raise AssertionError("is_strong_resolving_set ran is_connected")

        monkeypatch.setattr(strong_metric, "is_connected", refuse)
        assert is_strong_resolving_set(cycle_graph(6), None, [0, 1, 2]) == (True, None)
        assert is_strong_resolving_set(cycle_graph(6), None, [0, 1]) == (False, (2, 5))
        with pytest.raises(DisconnectedGraphError):
            is_strong_resolving_set(build_graph(3, [(1, 2)]), None, [0])


class TestBruteForce:
    def test_k2(self):
        result = brute_force_sdim(build_graph(2, [(0, 1)]))
        assert result.size == 1 and result.method == "brute-force"

    def test_base_cases(self):
        for n, m in ((2, 3), (3, 3), (4, 3)):
            g, _ = build_jahangir(JahangirParams(n, m))
            assert brute_force_sdim(g).size == 3

    def test_first_subset_in_order_is_returned(self):
        # P4's strong resolving sets of size 1 are {0} and {3}; enumeration
        # is lexicographic so {0} must win
        assert brute_force_sdim(path_graph(4)).basis == (0,)

    def test_cap_enforced(self):
        g, _ = build_jahangir(JahangirParams(4, 4))
        with pytest.raises(SizeLimitError):
            brute_force_sdim(g)

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            brute_force_sdim(build_graph(3, [(0, 1)]))

    @given(graphs_of_any_density())
    @settings(max_examples=300, deadline=None)
    def test_matches_enumeration_oracle(self, g):
        assert brute_outcome(brute_force_sdim, g) == brute_outcome(enumerate_brute_force_sdim, g)

    def test_pinned_corpus_order_13_to_16(self):
        for seed in range(20):
            g = random_connected_graph(random.Random(1300 + seed), 13, 16)
            assert brute_force_sdim(g) == enumerate_brute_force_sdim(g), seed

    def test_agrees_with_cover_above_old_cap(self):
        for seed in range(20):
            g = random_connected_graph(random.Random(1700 + seed), 17, 20)
            result = brute_force_sdim(g, size_cap=20)
            assert result.size == sdim_via_cover(g).size, seed
            dm = all_pairs_distances(g)
            assert is_strong_resolving_set(g, dm, result.basis) == (True, None)

    def test_cycles_and_complete_graphs_above_old_cap(self):
        for n in range(17, 21):
            assert brute_force_sdim(cycle_graph(n), size_cap=20).size == (n + 1) // 2
            assert brute_force_sdim(complete_graph(n), size_cap=20).size == n - 1


class TestBruteForceSearch:
    def test_minimal_masks_match_definition(self):
        for seed in range(10):
            g = random_connected_graph(random.Random(seed), max_order=10)
            dm = all_pairs_distances(g)
            n = g.vertex_count
            resolvers = {
                frozenset(w for w in range(n) if strongly_resolves(dm, w, u, v))
                for u in range(n)
                for v in range(u + 1, n)
            }
            minimal = {r for r in resolvers if not any(other < r for other in resolvers)}
            masks = _minimal_resolver_masks(g)
            assert len(masks) == len(minimal)
            assert {frozenset(w for w in range(n) if mask >> w & 1) for mask in masks} == minimal
            assert [mask.bit_count() for mask in masks] == sorted(len(r) for r in minimal)

    def test_packing_bound_prunes_at_the_root(self):
        # three disjoint masks need three vertices, so k = 2 fails without branching
        masks = [0b11, 0b1100, 0b110000]
        assert _first_hitting_set(masks, 2) == (None, 1)
        assert _first_hitting_set(masks, 3)[0] == (0, 2, 4)

    def test_resolver_at_the_current_id_can_be_taken(self):
        # vertex 2 is the last resolver of {2}; the search must still take it
        assert _first_hitting_set([0b100, 0b11], 2)[0] == (0, 2)

    def test_first_k_set_in_combination_order(self):
        masks = [0b0110, 0b1100, 0b1010]
        # the 2-sets meeting all three are {1,2}, {1,3}, {2,3}; {1,2} is first
        assert _first_hitting_set(masks, 2)[0] == (1, 2)

    def test_matches_the_recursive_oracle(self):
        graphs = [random_connected_graph(random.Random(seed), max_order=16) for seed in range(200)]
        graphs += [build_jahangir(JahangirParams(n, 3))[0] for n in (2, 3, 4)]
        for g in graphs:
            masks = _minimal_resolver_masks(g)
            for k in range(brute_force_sdim(g).size + 1):
                assert _first_hitting_set(masks, k) == scratch_first_hitting_set(masks, k), (g, k)

    def test_deeper_than_the_recursion_limit(self):
        # one mask whose only resolver is id 199: each id below it costs a
        # node and a pruned take child, so the open path is 200 ids deep
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            result = _first_hitting_set([1 << 199], 1)
        finally:
            sys.setrecursionlimit(limit)
        assert result == ((199,), 400)


class TestMaximallyDistant:
    def test_path_cases(self):
        g = path_graph(3)
        dm = all_pairs_distances(g)
        assert is_maximally_distant(g, dm, 0, 2)
        assert not is_maximally_distant(g, dm, 1, 2)

    def test_jahangir_rim_pair(self):
        g, lab, dm = jahangir_with_distances(2, 3)
        assert is_maximally_distant(g, dm, lab.rim_id(2), lab.rim_id(5))

    def test_hub_is_never_maximally_distant(self):
        g, lab, dm = jahangir_with_distances(5, 5)
        for v in range(g.vertex_count):
            if v != lab.hub:
                assert not is_maximally_distant(g, dm, lab.hub, v)

    def test_equal_vertices_rejected(self):
        g = path_graph(3)
        with pytest.raises(GraphError, match="distinct"):
            is_maximally_distant(g, all_pairs_distances(g), 1, 1)


def components(g):
    """The components of ``g``, each as the sorted tuple of its vertex ids."""
    dm = all_pairs_distances(g)
    n = g.vertex_count
    return sorted({tuple(v for v in range(n) if dm[u][v] != UNREACHABLE) for u in range(n)})


class TestScalarDefinitionsAcrossComponents:
    """A distance read across components raises; inside one the answers are the component's own."""

    @pytest.mark.parametrize("g", TWO_COMPONENT_GRAPHS)
    def test_cross_component_reads_raise(self, g):
        dm = all_pairs_distances(g)
        side = {v: comp for comp in components(g) for v in comp}
        for u, v in permutations(range(g.vertex_count), 2):
            for w in range(g.vertex_count):
                if side[w] == side[u] == side[v]:
                    continue
                with pytest.raises(DisconnectedGraphError, match="^strong resolution is defined for connected graphs$"):
                    strongly_resolves(dm, w, u, v)
            if side[u] != side[v]:
                with pytest.raises(DisconnectedGraphError, match="^MMD pairs are defined for connected graphs$"):
                    is_maximally_distant(g, dm, u, v)

    @pytest.mark.parametrize("g", TWO_COMPONENT_GRAPHS)
    def test_same_component_answers_are_the_components_own(self, g):
        dm = all_pairs_distances(g)
        for comp in components(g):
            index = {v: i for i, v in enumerate(comp)}
            part = build_graph(len(comp), [(index[a], index[b]) for a, b in g.edges() if a in index])
            part_dm = all_pairs_distances(part)
            for u, v in permutations(comp, 2):
                alone = is_maximally_distant(part, part_dm, index[u], index[v])
                assert is_maximally_distant(g, dm, u, v) == alone
                for w in comp:
                    alone = strongly_resolves(part_dm, index[w], index[u], index[v])
                    assert strongly_resolves(dm, w, u, v) == alone


class TestMmdPairs:
    def test_c4_antipodes(self):
        assert srg_edge_set(cycle_graph(4)) == frozenset({(0, 2), (1, 3)})

    @pytest.mark.parametrize(
        "n,m,golden", [(2, 3, MMD_23), (3, 3, MMD_33), (4, 3, MMD_43)]
    )
    def test_base_case_goldens(self, n, m, golden):
        g, lab, _ = jahangir_with_distances(n, m)
        assert srg_edge_set(g) == id_pairs(lab, golden)

    def test_definitional_round_trip(self):
        for seed in range(8):
            g = random_connected_graph(random.Random(seed), max_order=10)
            dm = all_pairs_distances(g)
            pairs = srg_edge_set(g)
            for u in range(g.vertex_count):
                for v in range(u + 1, g.vertex_count):
                    both = is_maximally_distant(g, dm, u, v) and is_maximally_distant(
                        g, dm, v, u
                    )
                    assert both == ((u, v) in pairs)

    @pytest.mark.parametrize("g", TWO_COMPONENT_GRAPHS)
    def test_rejects_disconnected(self, g):
        with pytest.raises(DisconnectedGraphError, match="MMD pairs are defined for connected graphs"):
            strong_resolving_graph(g)

    @pytest.mark.parametrize("order", [0, 1])
    def test_trivial_orders_have_no_pairs(self, order):
        assert srg_edge_set(build_graph(order, [])) == frozenset()

    def test_runs_no_separate_connectivity_bfs(self, monkeypatch):
        def refuse(g):
            raise AssertionError("the MMD scan ran is_connected")

        monkeypatch.setattr(strong_metric, "is_connected", refuse)
        assert srg_edge_set(cycle_graph(6)) == frozenset({(0, 3), (1, 4), (2, 5)})
        with pytest.raises(DisconnectedGraphError):
            srg_edge_set(build_graph(3, [(1, 2)]))

    @given(connected_graphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_definition(self, g):
        dm = all_pairs_distances(g)
        assert srg_edge_set(g) == scalar_mmd_pairs(g, dm)

    @pytest.mark.parametrize("g", LONG_DIAMETER_GRAPHS)
    def test_matches_scalar_definition_at_long_diameter(self, g):
        dm = all_pairs_distances(g)
        assert srg_edge_set(g) == scalar_mmd_pairs(g, dm)


class TestStrongResolvingGraph:
    def test_c4_two_disjoint_edges(self):
        srg = strong_resolving_graph(cycle_graph(4))
        assert srg.edges() == [(0, 2), (1, 3)]

    def test_jahangir_3_3_structure(self):
        g, lab, _ = jahangir_with_distances(3, 3)
        srg = strong_resolving_graph(g)
        assert srg.edge_count() == 3
        assert all(srg.degree(v) <= 1 for v in range(srg.vertex_count))
        isolated = {v for v in range(srg.vertex_count) if srg.degree(v) == 0}
        assert isolated == {lab.rim_id(1), lab.rim_id(4), lab.rim_id(7), lab.hub}

    @given(connected_graphs(max_order=20))
    @settings(max_examples=200, deadline=None)
    def test_equals_scalar_definition(self, g):
        pairs = sorted(scalar_mmd_pairs(g, all_pairs_distances(g)))
        assert strong_resolving_graph(g) == build_graph(g.vertex_count, pairs)

    def test_hub_isolated_across_parameters(self):
        for n, m in ((2, 3), (4, 3), (5, 4), (6, 5), (7, 6), (12, 8)):
            g, lab, dm = jahangir_with_distances(n, m)
            assert strong_resolving_graph(g, dm).degree(lab.hub) == 0


def assert_srg_is_minimal_resolver_pairs(g):
    """The judge from the definition alone: the minimal resolver bitsets are the SRG edges."""
    masks = _minimal_resolver_masks(g)
    assert max((mask.bit_count() for mask in masks), default=2) <= 2
    pairs = sorted(tuple(members(mask)) for mask in masks if mask.bit_count() == 2)
    assert pairs == strong_resolving_graph(g).edges()


class TestSrgJudge:
    """The SRG against the inclusion-minimal resolver bitsets, built from the definition alone."""

    @given(connected_graphs(max_order=20))
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_graphs(self, g):
        assert_srg_is_minimal_resolver_pairs(g)

    @pytest.mark.parametrize("seed", range(10))
    def test_large_random_graphs(self, seed):
        assert_srg_is_minimal_resolver_pairs(LARGE_RANDOM_GRAPHS[seed])


class TestSdimViaCover:
    def test_even_example(self):
        g, _ = build_jahangir(JahangirParams(6, 5))
        result = sdim_via_cover(g)
        assert result.size == 10 and result.method == "vertex-cover-reduction"

    def test_odd_example(self):
        g, _ = build_jahangir(JahangirParams(5, 5))
        assert sdim_via_cover(g).size == 12

    def test_path_reduces_to_one_endpoint(self):
        result = sdim_via_cover(path_graph(4))
        assert result.size == 1
        assert result.size == brute_force_sdim(path_graph(4)).size

    def test_basis_is_always_a_strong_resolving_set(self):
        for seed in range(10):
            g = random_connected_graph(random.Random(seed), max_order=12)
            dm = all_pairs_distances(g)
            result = sdim_via_cover(g)
            assert is_strong_resolving_set(g, dm, result.basis) == (True, None)

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            sdim_via_cover(build_graph(4, [(0, 1), (2, 3)]))

    def test_runs_no_connectivity_bfs(self, monkeypatch):
        def refuse(g):
            raise AssertionError("the pipeline ran is_connected")

        monkeypatch.setattr(strong_metric, "is_connected", refuse)
        assert sdim_via_cover(cycle_graph(6)).size == 3
        with pytest.raises(DisconnectedGraphError, match="^strong metric dimension needs a connected graph$"):
            sdim_via_cover(build_graph(4, [(0, 1), (2, 3)]))

    def test_never_decodes_the_strong_resolving_graph(self, monkeypatch):
        # the SRG's bitset rows go from the MMD scan to the cover search as they are
        def refuse(mask):
            raise AssertionError("the strong resolving graph was decoded into neighbour tuples")

        g, _ = build_jahangir(JahangirParams(5, 51))
        monkeypatch.setattr(graphs_module, "members", refuse)
        assert sdim_via_cover(g).size == sdim_formula(JahangirParams(5, 51))

    @pytest.mark.parametrize("g", [path_graph(257), build_graph(257, [])], ids=["path", "edgeless"])
    def test_refuses_oversize_graphs_before_growing_the_radii(self, monkeypatch, g):
        # the radii cost V^2 * D bits, which on a long path can exhaust memory
        # before the cover refuses the order; the edgeless graph gets the cap
        # error, not the disconnection one
        def refuse(g):
            raise AssertionError("the pipeline grew the radii of a graph above the cover cap")

        monkeypatch.setattr(strong_metric, "distance_balls", refuse)
        with pytest.raises(SizeLimitError, match="^graph has 257 vertices, exact cover cap is 256$"):
            sdim_via_cover(g)

    def test_grows_the_balls_once(self, monkeypatch):
        calls = []
        real = strong_metric.distance_balls

        def counted(g):
            calls.append(g.vertex_count)
            return real(g)

        monkeypatch.setattr(strong_metric, "distance_balls", counted)
        g, _ = build_jahangir(JahangirParams(5, 5))
        assert sdim_via_cover(g).size == 12
        assert calls == [26]

    def test_recheck_catches_a_dropped_mmd_pair(self, monkeypatch):
        # without the pair (2, 5) of C_6 the SRG loses an edge, the optimal
        # cover misses it, and the real re-check must notice on its own
        real = strong_metric._mmd_graph

        def dropped(g, balls):
            edges = real(g, balls).edges()
            edges.remove((2, 5))
            return build_graph(g.vertex_count, edges)

        monkeypatch.setattr(strong_metric, "_mmd_graph", dropped)
        with pytest.raises(InternalInconsistencyError, match=r"left pair \(2, 5\) unresolved"):
            sdim_via_cover(cycle_graph(6))

    def test_builds_no_distance_matrix(self, monkeypatch):
        jahangir, _ = build_jahangir(JahangirParams(9, 6))
        graphs = [jahangir, random_connected_graph(random.Random(3), 40, 40)]
        expected = [sdim_via_cover(g) for g in graphs]

        def refuse(g):
            raise AssertionError("the sdim pipeline built an all-pairs distance matrix")

        monkeypatch.setattr(strong_metric, "all_pairs_distances", refuse)
        assert [sdim_via_cover(g) for g in graphs] == expected
        assert expected[0].size == sdim_formula(JahangirParams(9, 6))
        # the patch is live: brute force still builds its own matrix
        with pytest.raises(AssertionError):
            brute_force_sdim(path_graph(3))

    @given(connected_graphs(max_order=12))
    @settings(max_examples=100, deadline=None)
    def test_size_matches_brute_force(self, g):
        result = sdim_via_cover(g)
        assert result.size == brute_force_sdim(g).size
        assert is_strong_resolving_set(g, all_pairs_distances(g), result.basis) == (True, None)


def assert_shared_radii_change_nothing(g):
    """The pipeline's one radii list gives what the public scans give growing their own.

    Its strong resolving graph is the public one, its basis passes the
    public re-check, the basis less its first vertex gets the same verdict
    and witness from the private re-check on the pipeline's radii as from
    the public function, and the radii are left as they were grown.
    """
    radii, srg, result = strong_metric._cover_pipeline(g)
    assert srg == strong_resolving_graph(g)
    assert is_strong_resolving_set(g, None, result.basis) == (True, None)
    rest = result.basis[1:]
    assert strong_metric._recheck(g, radii, rest) == is_strong_resolving_set(g, None, rest)
    assert radii == list(distance_balls(g))


RADII_CALLS = pytest.mark.parametrize(
    "call",
    [
        lambda g, radii: strong_resolving_graph(g, radii=radii),
        lambda g, radii: is_strong_resolving_set(g, None, [0], radii=radii),
    ],
    ids=["strong_resolving_graph", "is_strong_resolving_set"],
)


class TestSharedRadii:
    """The private pipeline entry, on its one shared radii list, agrees with the public scans.

    No caller can hand the public functions radii of its own.
    """

    @given(connected_graphs(max_order=12))
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_graphs(self, g):
        assert_shared_radii_change_nothing(g)

    @pytest.mark.parametrize("seed", range(10))
    def test_large_random_graphs(self, seed):
        assert_shared_radii_change_nothing(LARGE_RANDOM_GRAPHS[seed])

    @RADII_CALLS
    @pytest.mark.parametrize(
        "radii",
        [
            [],
            list(distance_balls(build_graph(0, []))),
            list(distance_balls(cycle_graph(5))),
            list(distance_balls(cycle_graph(7))),
        ],
        ids=["no-radius", "order-0", "order-5", "order-7"],
    )
    def test_rejects_radii_of_another_order(self, call, radii):
        # the keyword is gone, so the refusal comes before any radius is read
        with pytest.raises(TypeError, match="radii"):
            call(cycle_graph(6), radii)


@RADII_CALLS
def test_takes_no_radii_from_the_caller(call):
    # the radii of C5 have the order of P5, so nothing could tell them apart:
    # handed in, they made the pipeline report sdim(P5) = 3
    assert sdim_via_cover(path_graph(5)).size == 1
    with pytest.raises(TypeError, match="radii"):
        call(path_graph(5), list(distance_balls(cycle_graph(5))))


# every connected graph of order 1 .. 7, one per isomorphism class, by order
SMALL_GRAPHS = {
    n: [g for g in connected_graphs_to_isomorphism(7) if g.vertex_count == n] for n in range(1, 8)
}
SMALL_ORDERS = pytest.mark.parametrize("order", sorted(SMALL_GRAPHS))


class TestEverySmallGraph:
    """The pipeline and its judges on all 996 connected graphs of order at most 7."""

    @pytest.mark.parametrize("order,count", enumerate([1, 1, 2, 6, 21, 112, 853], 1))
    def test_one_graph_per_class(self, order, count):
        # OEIS A001349
        assert len(SMALL_GRAPHS[order]) == len(set(SMALL_GRAPHS[order])) == count

    @SMALL_ORDERS
    def test_pipeline_matches_brute_force(self, order):
        for g in SMALL_GRAPHS[order]:
            assert sdim_via_cover(g).size == brute_force_sdim(g).size, g.edges()

    @SMALL_ORDERS
    def test_srg_is_the_resolver_two_sets(self, order):
        for g in SMALL_GRAPHS[order]:
            two_sets = {mask for mask in _minimal_resolver_masks(g) if mask.bit_count() == 2}
            assert {1 << u | 1 << v for u, v in strong_resolving_graph(g).edges()} == two_sets, g.edges()

    @SMALL_ORDERS
    def test_recheck_accepts_the_basis_and_no_basis_less_one(self, order):
        for g in SMALL_GRAPHS[order]:
            basis = sdim_via_cover(g).basis
            assert is_strong_resolving_set(g, None, basis) == (True, None), g.edges()
            for v in basis:
                rest = [w for w in basis if w != v]
                assert not is_strong_resolving_set(g, None, rest)[0], (g.edges(), rest)

    @SMALL_ORDERS
    def test_bound_and_extremal_graphs(self, order):
        # sdim <= n - diam; sdim = 1 only on paths and n - 1 only on complete graphs
        n = order
        for g in SMALL_GRAPHS[order]:
            size = sdim_via_cover(g).size
            assert size <= n - diameter(g), g.edges()
            is_path = g.edge_count() == n - 1 and all(g.degree(v) <= 2 for v in range(n))
            if n >= 2:
                assert (size == 1) == is_path, g.edges()
            if n >= 3:
                assert (size == n - 1) == (g.edge_count() == n * (n - 1) // 2), g.edges()

    @SMALL_ORDERS
    def test_relabelling_keeps_the_size_and_the_mapped_basis(self, order):
        rng = random.Random(order)
        for g in SMALL_GRAPHS[order]:
            perm = list(range(order))
            rng.shuffle(perm)
            moved = build_graph(order, [(perm[u], perm[v]) for u, v in g.edges()])
            result = sdim_via_cover(g)
            assert sdim_via_cover(moved).size == result.size, (g.edges(), perm)
            mapped = [perm[v] for v in result.basis]
            assert is_strong_resolving_set(moved, None, mapped) == (True, None), (g.edges(), perm)


def known_family_cases():
    """Graphs of order <= 256 whose sdim follows from the definition, as pytest params.

    Trees: leaves - 1, the SRG being the clique on the leaves.  K_{r,s}
    (r, s >= 2): r + s - 2, the SRG being K_r and K_s.  Q_d: 2^(d-1), the
    antipodal pairs forming a perfect matching of the SRG.  P_r □ P_s
    (r, s >= 2): 2, from the two pairs of opposite corners.
    """
    cases = []
    for order in (3, 4, 5, 8, 17, 40, 99, 128, 200, 256):
        g = random_tree(random.Random(order), order)
        leaves = sum(1 for v in range(order) if g.degree(v) == 1)
        cases.append(pytest.param(g, leaves - 1, id=f"tree{order}"))
    for r, s in ((2, 2), (2, 3), (3, 3), (2, 60), (7, 11), (40, 40), (100, 150)):
        cases.append(pytest.param(complete_bipartite_graph(r, s), r + s - 2, id=f"K{r},{s}"))
    for d in range(1, 9):
        cases.append(pytest.param(hypercube_graph(d), 1 << (d - 1), id=f"Q{d}"))
    for r, s in ((2, 2), (2, 3), (3, 3), (2, 16), (5, 9), (10, 10), (16, 16)):
        cases.append(pytest.param(grid_graph(r, s), 2, id=f"grid{r}x{s}"))
    return cases


@pytest.mark.parametrize("g,expected", known_family_cases())
def test_known_family_values(g, expected):
    basis = sdim_via_cover(g).basis
    assert len(basis) == expected
    assert is_strong_resolving_set(g, None, basis) == (True, None)
    assert not is_strong_resolving_set(g, None, basis[1:])[0]
    if g.vertex_count <= 64:  # the judge's all-pairs scan is cubic in the order
        assert_srg_is_minimal_resolver_pairs(g)
