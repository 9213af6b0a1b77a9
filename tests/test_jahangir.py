from collections import Counter

import pytest

from strongdim import strong_metric

from strongdim import (
    GraphError,
    InternalInconsistencyError,
    JahangirParams,
    all_pairs_distances,
    build_jahangir,
    exact_min_vertex_cover,
    extremal_distance_pairs,
    is_vertex_cover,
    measured_distance_pairs,
    predicted_cover_even,
    predicted_cover_odd,
    regime,
    sdim_formula,
    srg_edge_families_even,
    srg_edge_families_odd,
    strong_resolving_graph,
    verify_predictions,
)
from helpers import (
    EVEN_65_ADJACENT,
    EVEN_65_COVER,
    EVEN_65_DISTANT,
    EVEN_65_WITHIN,
    ODD_55_ADJACENT,
    ODD_55_COVER,
    ODD_55_DISTANT,
    ODD_55_WITHIN,
    id_pairs,
    id_set,
)

EVEN_GRID = [(n, m) for n in (6, 8, 10, 12) for m in range(4, 9)]
ODD_GRID = [(n, m) for n in (5, 7, 9, 11) for m in range(4, 9)]
REGIME_GRID = [(n, m) for n in range(2, 17) for m in range(3, 13)]


class TestConstruction:
    @pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (0, 5), (3, 0)])
    def test_bad_parameters(self, n, m):
        with pytest.raises(GraphError, match="jahangir parameters"):
            JahangirParams(n, m)

    @pytest.mark.parametrize("n,m", [(4.5, 3), (6, 5.0), (True, 4), (6, False), ("6", 5)])
    def test_non_integer_parameters(self, n, m):
        with pytest.raises(GraphError, match="must be integers"):
            JahangirParams(n, m)

    def test_j_2_8_shape(self):
        g, _ = build_jahangir(JahangirParams(2, 8))
        assert g.vertex_count == 17
        assert g.edge_count() == 24
        degrees = Counter(g.degree(v) for v in range(g.vertex_count))
        assert degrees == {8: 1, 3: 8, 2: 8}

    def test_j_2_3_shape(self):
        g, lab = build_jahangir(JahangirParams(2, 3))
        assert g.vertex_count == 7
        assert g.degree(lab.hub) == 3

    def test_j_6_5_inner_rim(self):
        g, lab = build_jahangir(JahangirParams(6, 5))
        assert g.vertex_count == 31
        inner = [v for v in range(lab.rim_size) if g.degree(v) == 2]
        assert len(inner) == 25

    def test_labeling_invariants(self):
        g, lab = build_jahangir(JahangirParams(4, 5))
        assert g.degree(lab.hub) == 5
        assert set(g.adjacency[lab.hub]) == set(lab.spoke_ids())
        for s in lab.spoke_ids():
            assert g.degree(s) == 3
        assert g.labels is not None
        assert g.labels[lab.hub] == "c"
        assert g.labels[0] == "u1"
        # rim positions wrap modulo the rim length
        assert lab.rim_id(lab.rim_size + 1) == lab.rim_id(1)
        assert lab.rim_id(0) == lab.rim_id(lab.rim_size)

    def test_cycle_ids_have_expected_size(self):
        _, lab = build_jahangir(JahangirParams(5, 4))
        for k in range(4):
            assert len(lab.cycle_ids(k)) == 7  # n + 2 vertices
            assert lab.hub in lab.cycle_ids(k)


class TestFormula:
    @pytest.mark.parametrize(
        "n,m,expected",
        [
            (6, 5, 10),
            (5, 5, 12),
            (2, 3, 3),
            (3, 3, 3),
            (4, 3, 3),
            (4, 4, None),
            (2, 8, None),
            (3, 7, None),
            (5, 3, None),
            (12, 3, None),
            (8, 4, 12),
            (7, 4, 13),
            (12, 8, 40),
            (11, 8, 45),
        ],
    )
    def test_values(self, n, m, expected):
        assert sdim_formula(JahangirParams(n, m)) == expected


class TestRegime:
    @pytest.mark.parametrize("n,m", REGIME_GRID)
    def test_formula_exists_exactly_in_a_regime(self, n, m):
        p = JahangirParams(n, m)
        assert (regime(p) is None) == (sdim_formula(p) is None)

    @pytest.mark.parametrize("n,m", REGIME_GRID)
    def test_family_predictions_need_their_regime(self, n, m):
        p = JahangirParams(n, m)
        for name, families in (("even", srg_edge_families_even), ("odd", srg_edge_families_odd)):
            if regime(p) == name:
                families(p)
            else:
                with pytest.raises(GraphError, match=f"{name}-n predictions"):
                    families(p)

    @pytest.mark.parametrize(
        "n,m,expected",
        [(2, 3, "base"), (4, 3, "base"), (5, 3, None), (4, 4, None), (6, 4, "even"), (5, 4, "odd")],
    )
    def test_values(self, n, m, expected):
        assert regime(JahangirParams(n, m)) == expected


class TestEvenFamilies:
    def test_golden_6_5(self):
        p = JahangirParams(6, 5)
        g, lab = build_jahangir(p)
        families = srg_edge_families_even(p)
        assert families["adjacent"] == id_pairs(lab, EVEN_65_ADJACENT)
        assert families["distant"] == id_pairs(lab, EVEN_65_DISTANT)
        assert families["within"] == id_pairs(lab, EVEN_65_WITHIN)

    @pytest.mark.parametrize("n,m", EVEN_GRID)
    def test_counting_identities(self, n, m):
        families = srg_edge_families_even(JahangirParams(n, m))
        assert len(families["adjacent"]) == 2 * m
        assert len(families["distant"]) == m * (m - 3) // 2
        assert len(families["within"]) == m * (n // 2 - 2)

    @pytest.mark.parametrize("n,m", EVEN_GRID)
    def test_families_pairwise_disjoint(self, n, m):
        families = srg_edge_families_even(JahangirParams(n, m))
        assert not families["adjacent"] & families["distant"]
        assert not families["adjacent"] & families["within"]
        assert not families["distant"] & families["within"]

    def test_matches_computed_srg(self):
        p = JahangirParams(8, 5)
        g, _ = build_jahangir(p)
        predicted = frozenset().union(*srg_edge_families_even(p).values())
        assert predicted == frozenset(strong_resolving_graph(g).edges())

    def test_regime_enforced(self):
        with pytest.raises(GraphError, match="even-n predictions"):
            srg_edge_families_even(JahangirParams(5, 5))
        with pytest.raises(GraphError, match="even-n predictions"):
            srg_edge_families_even(JahangirParams(4, 4))
        with pytest.raises(GraphError, match="even-n predictions"):
            srg_edge_families_even(JahangirParams(6, 3))


class TestOddFamilies:
    def test_golden_5_5(self):
        p = JahangirParams(5, 5)
        _, lab = build_jahangir(p)
        families = srg_edge_families_odd(p)
        assert families["adjacent"] == id_pairs(lab, ODD_55_ADJACENT)
        assert families["distant"] == id_pairs(lab, ODD_55_DISTANT)
        assert families["within"] == id_pairs(lab, ODD_55_WITHIN)

    def test_golden_5_5_spot_members(self):
        p = JahangirParams(5, 5)
        _, lab = build_jahangir(p)
        adjacent = srg_edge_families_odd(p)["adjacent"]
        for i, j in ((2, 8), (3, 22), (3, 9)):
            assert lab.pair(i, j) in adjacent

    @pytest.mark.parametrize("n,m", ODD_GRID)
    def test_counting_identities(self, n, m):
        families = srg_edge_families_odd(JahangirParams(n, m))
        assert len(families["adjacent"]) == 3 * m
        assert len(families["distant"]) == 2 * m * (m - 3)
        assert len(families["within"]) == m * (n - 4)

    def test_matches_computed_srg(self):
        p = JahangirParams(7, 5)
        g, _ = build_jahangir(p)
        predicted = frozenset().union(*srg_edge_families_odd(p).values())
        assert predicted == frozenset(strong_resolving_graph(g).edges())

    def test_regime_enforced(self):
        with pytest.raises(GraphError, match="odd-n predictions"):
            srg_edge_families_odd(JahangirParams(6, 5))
        with pytest.raises(GraphError, match="odd-n predictions"):
            srg_edge_families_odd(JahangirParams(3, 4))


class TestPredictedCovers:
    def test_even_golden_6_5(self):
        p = JahangirParams(6, 5)
        _, lab = build_jahangir(p)
        cover = predicted_cover_even(p)
        assert cover == id_set(lab, EVEN_65_COVER)
        assert len(cover) == 10

    def test_even_size_8_4(self):
        assert len(predicted_cover_even(JahangirParams(8, 4))) == 12

    def test_even_is_cover_6_4(self):
        p = JahangirParams(6, 4)
        g, _ = build_jahangir(p)
        cover = predicted_cover_even(p)
        assert len(cover) == 8
        assert is_vertex_cover(strong_resolving_graph(g), cover) == (True, None)

    def test_odd_golden_5_5(self):
        p = JahangirParams(5, 5)
        _, lab = build_jahangir(p)
        cover = predicted_cover_odd(p)
        assert cover == id_set(lab, ODD_55_COVER)
        assert len(cover) == 12

    def test_odd_size_7_4(self):
        assert len(predicted_cover_odd(JahangirParams(7, 4))) == 13

    def test_odd_is_cover_5_4(self):
        p = JahangirParams(5, 4)
        g, _ = build_jahangir(p)
        cover = predicted_cover_odd(p)
        srg = strong_resolving_graph(g)
        assert is_vertex_cover(srg, cover) == (True, None)
        # size formula m(n-1)/2 + m - 3 gives 9 here, and the exact solver agrees
        assert len(cover) == 9
        assert exact_min_vertex_cover(srg).size == 9

    @pytest.mark.parametrize("n,m", EVEN_GRID)
    def test_even_sizes_match_formula(self, n, m):
        assert len(predicted_cover_even(JahangirParams(n, m))) == m * (n - 2) // 2

    @pytest.mark.parametrize("n,m", ODD_GRID)
    def test_odd_sizes_match_formula(self, n, m):
        assert len(predicted_cover_odd(JahangirParams(n, m))) == m * (n - 1) // 2 + m - 3


class TestExtremalDistancePairs:
    def test_even_b_contains_cross_pair(self):
        p = JahangirParams(6, 5)
        _, lab = build_jahangir(p)
        pairs = extremal_distance_pairs(p, "even-b")["n_plus_2"]
        assert lab.pair(4, 16) in pairs

    def test_even_c_pair_distance(self):
        p = JahangirParams(6, 5)
        g, lab = build_jahangir(p)
        pairs = extremal_distance_pairs(p, "even-c")["half_plus_1"]
        assert lab.pair(2, 6) in pairs
        dm = all_pairs_distances(g)
        a, b = lab.pair(2, 6)
        assert dm.dist[a][b] == 4

    def test_odd_a_longest_pair(self):
        p = JahangirParams(5, 5)
        g, lab = build_jahangir(p)
        tagged = extremal_distance_pairs(p, "odd-a")
        assert lab.pair(3, 9) in tagged["n_plus_1"]
        dm = all_pairs_distances(g)
        a, b = lab.pair(3, 9)
        assert dm.dist[a][b] == 6

    def test_case_parameter_mismatch(self):
        with pytest.raises(GraphError):
            extremal_distance_pairs(JahangirParams(5, 5), "even-a")
        with pytest.raises(GraphError):
            extremal_distance_pairs(JahangirParams(6, 5), "odd-c")

    def test_unknown_case(self):
        with pytest.raises(GraphError, match="unknown case"):
            extremal_distance_pairs(JahangirParams(6, 5), "even-z")

    @pytest.mark.parametrize(
        "n,m,case",
        [(n, m, c) for n, m in ((6, 4), (8, 5), (14, 6)) for c in ("even-a", "even-b", "even-c")],
    )
    def test_matches_measured_even_sample(self, n, m, case):
        p = JahangirParams(n, m)
        g, lab = build_jahangir(p)
        dm = all_pairs_distances(g)
        assert extremal_distance_pairs(p, case) == measured_distance_pairs(g, dm, lab, case)

    @pytest.mark.parametrize(
        "n,m,case",
        [(n, m, c) for n, m in ((9, 6), (5, 4), (11, 7)) for c in ("odd-a", "odd-b", "odd-c")],
    )
    def test_matches_measured_odd_sample(self, n, m, case):
        p = JahangirParams(n, m)
        g, lab = build_jahangir(p)
        dm = all_pairs_distances(g)
        assert extremal_distance_pairs(p, case) == measured_distance_pairs(g, dm, lab, case)


class TestVerifyPredictions:
    def test_even_example(self):
        report = verify_predictions(JahangirParams(6, 5))
        assert report.passed
        assert report.alpha_computed == 10
        assert report.srg_edges_match is True
        assert report.predicted_cover_valid is True
        assert report.predicted_cover_size == 10
        assert report.formula_sdim == 10 == report.pipeline_sdim
        assert not report.exploratory

    def test_odd_example(self):
        report = verify_predictions(JahangirParams(5, 5))
        assert report.passed
        assert report.alpha_computed == 12
        assert report.formula_sdim == 12 == report.pipeline_sdim
        # the diametrical-path side condition is an implementation choice,
        # so the report says when it actually filtered pairs
        assert any("diametrical" in note for note in report.notes)

    def test_base_case_cross_checks(self):
        report = verify_predictions(JahangirParams(2, 3))
        assert report.passed
        assert report.formula_sdim == 3
        assert report.pipeline_sdim == 3
        assert report.brute_sdim == 3
        assert report.srg_edges_match is None
        assert not report.exploratory

    def test_exploratory_parameters(self):
        report = verify_predictions(JahangirParams(4, 4))
        assert report.exploratory
        assert report.passed
        assert report.srg_edges_match is None
        assert report.predicted_cover_valid is None
        assert report.formula_sdim is None
        assert report.pipeline_sdim == exact_min_vertex_cover(
            strong_resolving_graph(build_jahangir(JahangirParams(4, 4))[0])
        ).size

    def test_failed_recheck_is_internal_inconsistency(self, monkeypatch):
        monkeypatch.setattr(
            strong_metric, "is_strong_resolving_set", lambda g, dm, s: (False, (0, 1))
        )
        with pytest.raises(InternalInconsistencyError, match=r"left pair \(0, 1\) unresolved"):
            verify_predictions(JahangirParams(6, 5))

    def test_report_dict_schema(self):
        doc = verify_predictions(JahangirParams(6, 4)).to_dict()
        for key in (
            "n",
            "m",
            "srg_edges_match",
            "cover_valid",
            "alpha",
            "formula_sdim",
            "pipeline_sdim",
            "discrepancies",
        ):
            assert key in doc
        assert doc["n"] == 6 and doc["m"] == 4
        assert doc["discrepancies"] == []
