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
    cover_pipeline,
    cycle_graph,
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
    enumerate_brute_force_sdim,
    id_pairs,
    large_random_graphs,
    long_diameter_graphs,
    random_connected_graph,
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
        cases = [(g, subsets, list(distance_balls(g))) for g, subsets in pack_side_cases(order)]
        expected = [[bfs_is_strong_resolving_set(g, None, s) for s in subsets] for g, subsets, _ in cases]

        def refuse(*args):
            raise AssertionError("the bit-matrix transpose ran")

        for name in ("transpose_rows", "_pack_rows", "_transpose", "_swap_masks"):
            monkeypatch.setattr(graphs_module, name, refuse)
        monkeypatch.setattr(strong_metric, "transpose_rows", refuse)
        for (g, subsets, radii), want in zip(cases, expected):
            assert [is_strong_resolving_set(g, None, s, radii=radii) for s in subsets] == want
        # the patches bite: the MMD scan does transpose
        g, _, radii = cases[0]
        with pytest.raises(AssertionError, match="bit-matrix transpose ran"):
            strong_resolving_graph(g, radii=radii)

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
            cover_pipeline(g)

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
        real = strong_metric.strong_resolving_graph

        def dropped(g, dm=None, *, radii=None):
            edges = real(g, dm, radii=radii).edges()
            edges.remove((2, 5))
            return build_graph(g.vertex_count, edges)

        monkeypatch.setattr(strong_metric, "strong_resolving_graph", dropped)
        with pytest.raises(InternalInconsistencyError, match=r"left pair \(2, 5\) unresolved"):
            cover_pipeline(cycle_graph(6))

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
    """Each radii-taking function gives on one shared list what it gives growing its own.

    The re-check runs on the pipeline basis and on the basis less its first
    vertex; the shared list must be unchanged after every call.
    """
    radii = list(distance_balls(g))
    basis = sdim_via_cover(g).basis
    subsets = (basis, basis[1:])
    shared = [
        strong_resolving_graph(g, radii=radii),
        *(is_strong_resolving_set(g, None, s, radii=radii) for s in subsets),
        cover_pipeline(g, radii=radii),
    ]
    grown = [
        strong_resolving_graph(g),
        *(is_strong_resolving_set(g, None, s) for s in subsets),
        cover_pipeline(g),
    ]
    assert shared == grown
    assert radii == list(distance_balls(g))


class TestSharedRadii:
    """Handing the radii in changes no result and leaves the list as it was."""

    @given(connected_graphs(max_order=12))
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_graphs(self, g):
        assert_shared_radii_change_nothing(g)

    @pytest.mark.parametrize("seed", range(10))
    def test_large_random_graphs(self, seed):
        assert_shared_radii_change_nothing(LARGE_RANDOM_GRAPHS[seed])

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, radii: strong_resolving_graph(g, radii=radii),
            lambda g, radii: is_strong_resolving_set(g, None, [0], radii=radii),
            lambda g, radii: cover_pipeline(g, radii=radii),
        ],
        ids=["strong_resolving_graph", "is_strong_resolving_set", "cover_pipeline"],
    )
    @pytest.mark.parametrize(
        "radii,rows",
        [
            ([], 0),
            (list(distance_balls(build_graph(0, []))), 0),
            (list(distance_balls(cycle_graph(5))), 5),
            (list(distance_balls(cycle_graph(7))), 7),
        ],
        ids=["no-radius", "order-0", "order-5", "order-7"],
    )
    def test_rejects_radii_of_another_order(self, call, radii, rows):
        with pytest.raises(GraphError, match=f"^radius 0 of the radii has {rows} rows, the graph has 6 vertices$"):
            call(cycle_graph(6), radii)
