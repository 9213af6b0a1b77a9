from collections import Counter

import pytest

from strongdim import graphs as graphs_module, jahangir, strong_metric

from strongdim import (
    GraphError,
    InternalInconsistencyError,
    JahangirParams,
    StrongBasisResult,
    all_pairs_distances,
    build_graph,
    build_jahangir,
    distance_balls,
    exact_min_vertex_cover,
    extremal_distance_pairs,
    is_vertex_cover,
    measured_distance_pairs,
    predicted_cover,
    regime,
    sdim_formula,
    srg_edge_families,
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
    balls_from_distances,
    id_pairs,
    id_set,
    per_regime_cover_even,
    per_regime_cover_odd,
    scalar_measure,
)

EVEN_GRID = [(n, m) for n in (6, 8, 10, 12) for m in range(4, 9)]
ODD_GRID = [(n, m) for n in (5, 7, 9, 11) for m in range(4, 9)]
REGIME_GRID = [(n, m) for n in range(2, 17) for m in range(3, 13)]
# every even- and odd-regime cell of n 5..16, m 4..12
SCAN_GRID = [(n, m) for n in range(5, 17) for m in range(4, 13)]
BOTH_NEED = "even n > 5 and m >= 4 or odd n >= 5 and m >= 4"


class TestConstruction:
    # the labeling methods live on JahangirParams, so none of them can run
    # on parameters like these: unchecked, (0, 5) would divide by zero in
    # rim_id and (1, 2) would name rim vertex 2 "c"
    @pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (0, 5), (3, 0), (1, 2)])
    def test_bad_parameters(self, n, m):
        with pytest.raises(GraphError, match="jahangir parameters"):
            JahangirParams(n, m)

    def test_build_returns_params_as_the_labeling(self):
        params = JahangirParams(3, 4)
        g, lab = build_jahangir(params)
        assert lab is params
        assert vars(g).keys() <= {"vertex_count", "adjacency", "masks"}  # no names on the graph

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
        assert lab.name(lab.hub) == "c"
        assert lab.name(0) == "u1"
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
        # the families and the cover exist exactly in the even and odd regimes
        p = JahangirParams(n, m)
        if regime(p) in ("even", "odd"):
            assert set(srg_edge_families(p)) == {"adjacent", "distant", "within"}
            assert len(predicted_cover(p)) == sdim_formula(p)
        else:
            with pytest.raises(GraphError, match="edge-family predictions"):
                srg_edge_families(p)
            with pytest.raises(GraphError, match="cover predictions"):
                predicted_cover(p)

    @pytest.mark.parametrize("n,m", [(4, 4), (2, 3)])  # exploratory, base
    def test_edge_family_refusal_message(self, n, m):
        with pytest.raises(GraphError) as excinfo:
            srg_edge_families(JahangirParams(n, m))
        assert str(excinfo.value) == f"edge-family predictions need {BOTH_NEED}, got ({n}, {m})"

    @pytest.mark.parametrize("n,m", [(4, 4), (2, 3)])  # exploratory, base
    def test_cover_refusal_message(self, n, m):
        with pytest.raises(GraphError) as excinfo:
            predicted_cover(JahangirParams(n, m))
        assert str(excinfo.value) == f"cover predictions need {BOTH_NEED}, got ({n}, {m})"

    @pytest.mark.parametrize(
        "n,m,expected",
        [(2, 3, "base"), (4, 3, "base"), (5, 3, None), (4, 4, None), (6, 4, "even"), (5, 4, "odd")],
    )
    def test_values(self, n, m, expected):
        assert regime(JahangirParams(n, m)) == expected

    def test_regime_rows_are_disjoint(self):
        # regime returns the first row that holds, which would hide an overlap
        for n in range(2, 41):
            for m in range(3, 41):
                holding = [kind for kind, spec in jahangir._REGIMES.items() if spec.holds(n, m)]
                assert len(holding) <= 1, (n, m, holding)
                assert regime(JahangirParams(n, m)) == (holding[0] if holding else None), (n, m)

    def test_every_case_belongs_to_one_regime_row(self):
        for case in jahangir._CASES:
            rows = [kind for kind, spec in jahangir._REGIMES.items() if case in spec.cases]
            assert len(rows) == 1, case
        assert tuple(jahangir._REGIMES["even"].cases) == ("even-a", "even-b", "even-c")
        assert tuple(jahangir._REGIMES["odd"].cases) == ("odd-a", "odd-b", "odd-c")
        assert tuple(jahangir._CASES) == ("even-a", "even-b", "even-c", "odd-a", "odd-b", "odd-c")

    def test_regime_and_formula_on_the_2_40_grid(self):
        # the paper's three closed forms, written out here independently
        for n in range(2, 41):
            for m in range(3, 41):
                p = JahangirParams(n, m)
                if m == 3 and n in (2, 3, 4):
                    expected = ("base", 3)
                elif m >= 4 and n >= 6 and n % 2 == 0:
                    expected = ("even", m * (n - 2) // 2)
                elif m >= 4 and n >= 5 and n % 2 == 1:
                    expected = ("odd", m * (n - 1) // 2 + m - 3)
                else:
                    expected = (None, None)
                assert (regime(p), sdim_formula(p)) == expected, (n, m)


class TestEvenFamilies:
    def test_golden_6_5(self):
        p = JahangirParams(6, 5)
        g, lab = build_jahangir(p)
        families = srg_edge_families(p)
        assert families["adjacent"] == id_pairs(lab, EVEN_65_ADJACENT)
        assert families["distant"] == id_pairs(lab, EVEN_65_DISTANT)
        assert families["within"] == id_pairs(lab, EVEN_65_WITHIN)

    @pytest.mark.parametrize("n,m", EVEN_GRID)
    def test_counting_identities(self, n, m):
        families = srg_edge_families(JahangirParams(n, m))
        assert len(families["adjacent"]) == 2 * m
        assert len(families["distant"]) == m * (m - 3) // 2
        assert len(families["within"]) == m * (n // 2 - 2)

    @pytest.mark.parametrize("n,m", EVEN_GRID)
    def test_families_pairwise_disjoint(self, n, m):
        families = srg_edge_families(JahangirParams(n, m))
        assert not families["adjacent"] & families["distant"]
        assert not families["adjacent"] & families["within"]
        assert not families["distant"] & families["within"]

    def test_matches_computed_srg(self):
        p = JahangirParams(8, 5)
        g, _ = build_jahangir(p)
        predicted = frozenset().union(*srg_edge_families(p).values())
        assert predicted == frozenset(strong_resolving_graph(g).edges())


class TestOddFamilies:
    def test_golden_5_5(self):
        p = JahangirParams(5, 5)
        _, lab = build_jahangir(p)
        families = srg_edge_families(p)
        assert families["adjacent"] == id_pairs(lab, ODD_55_ADJACENT)
        assert families["distant"] == id_pairs(lab, ODD_55_DISTANT)
        assert families["within"] == id_pairs(lab, ODD_55_WITHIN)

    def test_golden_5_5_spot_members(self):
        p = JahangirParams(5, 5)
        _, lab = build_jahangir(p)
        adjacent = srg_edge_families(p)["adjacent"]
        for i, j in ((2, 8), (3, 22), (3, 9)):
            assert lab.pair(i, j) in adjacent

    @pytest.mark.parametrize("n,m", ODD_GRID)
    def test_counting_identities(self, n, m):
        families = srg_edge_families(JahangirParams(n, m))
        assert len(families["adjacent"]) == 3 * m
        assert len(families["distant"]) == 2 * m * (m - 3)
        assert len(families["within"]) == m * (n - 4)

    def test_matches_computed_srg(self):
        p = JahangirParams(7, 5)
        g, _ = build_jahangir(p)
        predicted = frozenset().union(*srg_edge_families(p).values())
        assert predicted == frozenset(strong_resolving_graph(g).edges())


@pytest.mark.parametrize("n", range(17, 41))
def test_families_match_computed_srg_beyond_the_goldens(n):
    # the goldens stop at n = 16; every even and odd cell of m 4..12 here
    for m in range(4, 13):
        p = JahangirParams(n, m)
        g, _ = build_jahangir(p)
        srg = strong_resolving_graph(g)
        predicted = frozenset().union(*srg_edge_families(p).values())
        assert predicted == frozenset(srg.edges()), (n, m)
        cover = predicted_cover(p)
        assert is_vertex_cover(srg, cover) == (True, None), (n, m)
        assert len(cover) == sdim_formula(p), (n, m)


def test_cover_matches_the_per_regime_builders():
    # the one builder against the two it replaced, on every even and odd cell
    # of n 5..40 x m 4..40
    for n in range(5, 41):
        oracle = per_regime_cover_even if n % 2 == 0 else per_regime_cover_odd
        for m in range(4, 41):
            p = JahangirParams(n, m)
            assert predicted_cover(p) == oracle(p), (n, m)


class TestPredictedCovers:
    def test_even_golden_6_5(self):
        p = JahangirParams(6, 5)
        _, lab = build_jahangir(p)
        cover = predicted_cover(p)
        assert cover == id_set(lab, EVEN_65_COVER)
        assert len(cover) == 10

    def test_even_size_8_4(self):
        assert len(predicted_cover(JahangirParams(8, 4))) == 12

    def test_even_is_cover_6_4(self):
        p = JahangirParams(6, 4)
        g, _ = build_jahangir(p)
        cover = predicted_cover(p)
        assert len(cover) == 8
        assert is_vertex_cover(strong_resolving_graph(g), cover) == (True, None)

    def test_odd_golden_5_5(self):
        p = JahangirParams(5, 5)
        _, lab = build_jahangir(p)
        cover = predicted_cover(p)
        assert cover == id_set(lab, ODD_55_COVER)
        assert len(cover) == 12

    def test_odd_size_7_4(self):
        assert len(predicted_cover(JahangirParams(7, 4))) == 13

    def test_odd_is_cover_5_4(self):
        p = JahangirParams(5, 4)
        g, _ = build_jahangir(p)
        cover = predicted_cover(p)
        srg = strong_resolving_graph(g)
        assert is_vertex_cover(srg, cover) == (True, None)
        # size formula m(n-1)/2 + m - 3 gives 9 here, and the exact solver agrees
        assert len(cover) == 9
        assert exact_min_vertex_cover(srg).size == 9

    @pytest.mark.parametrize("n,m", EVEN_GRID)
    def test_even_sizes_match_formula(self, n, m):
        assert len(predicted_cover(JahangirParams(n, m))) == m * (n - 2) // 2

    @pytest.mark.parametrize("n,m", ODD_GRID)
    def test_odd_sizes_match_formula(self, n, m):
        assert len(predicted_cover(JahangirParams(n, m))) == m * (n - 1) // 2 + m - 3


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
        assert dm[a][b] == 4

    def test_odd_a_longest_pair(self):
        p = JahangirParams(5, 5)
        g, lab = build_jahangir(p)
        tagged = extremal_distance_pairs(p, "odd-a")
        assert lab.pair(3, 9) in tagged["n_plus_1"]
        dm = all_pairs_distances(g)
        a, b = lab.pair(3, 9)
        assert dm[a][b] == 6

    def test_case_parameter_mismatch(self):
        with pytest.raises(GraphError) as excinfo:
            extremal_distance_pairs(JahangirParams(5, 5), "even-a")
        assert str(excinfo.value) == "even-n predictions need even n > 5 and m >= 4, got (5, 5)"
        with pytest.raises(GraphError) as excinfo:
            extremal_distance_pairs(JahangirParams(6, 5), "odd-c")
        assert str(excinfo.value) == "odd-n predictions need odd n >= 5 and m >= 4, got (6, 5)"
        with pytest.raises(GraphError, match="even-n predictions"):
            extremal_distance_pairs(JahangirParams(4, 4), "even-b")

    def test_unknown_case(self):
        with pytest.raises(GraphError, match="unknown case"):
            extremal_distance_pairs(JahangirParams(6, 5), "even-z")
        with pytest.raises(GraphError, match="unknown case 'even-z'"):
            measured_distance_pairs(JahangirParams(6, 5), "even-z")

    @pytest.mark.parametrize(
        "n,m,case",
        [(n, m, c) for n, m in ((6, 4), (8, 5), (14, 6)) for c in ("even-a", "even-b", "even-c")],
    )
    def test_matches_measured_even_sample(self, n, m, case):
        p = JahangirParams(n, m)
        assert extremal_distance_pairs(p, case) == measured_distance_pairs(p, case)

    @pytest.mark.parametrize(
        "n,m,case",
        [(n, m, c) for n, m in ((9, 6), (5, 4), (11, 7)) for c in ("odd-a", "odd-b", "odd-c")],
    )
    def test_matches_measured_odd_sample(self, n, m, case):
        p = JahangirParams(n, m)
        assert extremal_distance_pairs(p, case) == measured_distance_pairs(p, case)

    @pytest.mark.parametrize("n,m", SCAN_GRID)
    def test_ball_scans_match_scalar_oracle(self, n, m):
        p = JahangirParams(n, m)
        g, lab = build_jahangir(p)
        balls = list(distance_balls(g))
        dm = all_pairs_distances(g)
        for case in jahangir._REGIMES[regime(p)].cases:
            measured, excluded = jahangir._measure(balls, lab, case)
            assert (measured, excluded) == scalar_measure(dm, lab, case)
            assert measured_distance_pairs(lab, case) == measured


class TestVerifyPredictions:
    def test_even_example(self):
        report = verify_predictions(JahangirParams(6, 5))
        assert report.passed
        assert report.alpha_computed == 10
        assert report.srg_edges_match is True
        assert report.predicted_cover_valid is True
        assert report.predicted_cover_size == 10
        assert report.formula_sdim == 10 == report.alpha_computed
        assert not report.exploratory

    def test_odd_example(self):
        report = verify_predictions(JahangirParams(5, 5))
        assert report.passed
        assert report.alpha_computed == 12
        assert report.formula_sdim == 12 == report.alpha_computed
        # the diametrical-path side condition is an implementation choice,
        # so the report says when it actually filtered pairs
        assert any("diametrical" in note for note in report.notes)

    def test_base_case_cross_checks(self):
        report = verify_predictions(JahangirParams(2, 3))
        assert report.passed
        assert report.formula_sdim == 3
        assert report.alpha_computed == 3
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
        assert report.alpha_computed == exact_min_vertex_cover(
            strong_resolving_graph(build_jahangir(JahangirParams(4, 4))[0])
        ).size

    def test_no_cell_builds_a_distance_matrix(self, monkeypatch):
        # brute force looks the matrix builder up in strong_metric; jahangir has none
        assert not hasattr(jahangir, "all_pairs_distances")
        built = []
        real = strong_metric.all_pairs_distances

        def counted(g):
            built.append(g.vertex_count)
            return real(g)

        monkeypatch.setattr(strong_metric, "all_pairs_distances", counted)
        for n, m in ((3, 3), (4, 4), (6, 5), (5, 5)):  # base, exploratory, even, odd
            assert verify_predictions(JahangirParams(n, m), brute_cap=0).passed
        assert built == []
        # the patch is live: brute force still builds its own matrix
        assert verify_predictions(JahangirParams(3, 3)).brute_sdim == 3
        assert built == [10]

    @pytest.mark.parametrize("n,m", [(6, 5), (5, 5)])  # even, odd
    def test_grows_the_balls_once_per_cell(self, monkeypatch, n, m):
        calls = []

        def counted(module):
            real = module.distance_balls

            def grow(g):
                calls.append(module.__name__)
                return real(g)

            return grow

        for module in (jahangir, strong_metric):
            monkeypatch.setattr(module, "distance_balls", counted(module))
        assert verify_predictions(JahangirParams(n, m)).passed
        assert calls == ["strongdim.jahangir"]

    @pytest.mark.parametrize("n,m", [(6, 5), (5, 5)])  # even, odd
    def test_never_decodes_the_strong_resolving_graph(self, monkeypatch, n, m):
        # the families and the predicted cover are checked against the SRG's bitset rows
        def refuse(mask):
            raise AssertionError("the strong resolving graph was decoded into neighbour tuples")

        monkeypatch.setattr(graphs_module, "members", refuse)
        report = verify_predictions(JahangirParams(n, m))
        assert report.passed and report.srg_edges_match and report.predicted_cover_valid

    @pytest.mark.parametrize("n,m", [(6, 5), (5, 5)])  # even, odd
    def test_builds_no_vertex_names(self, monkeypatch, n, m):
        # a report names vertices through params.name, and only in a discrepancy
        def refuse(self):
            raise AssertionError("verify built the vertex names")

        monkeypatch.setattr(JahangirParams, "labels", refuse)
        assert verify_predictions(JahangirParams(n, m)).passed

    def test_failed_recheck_is_internal_inconsistency(self, monkeypatch):
        monkeypatch.setattr(
            strong_metric, "is_strong_resolving_set", lambda g, dm, s, *, radii=None: (False, (0, 1))
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
        # one report field feeds both keys
        assert doc["alpha"] == doc["pipeline_sdim"] == 8


def _with_distance(params: JahangirParams, u: int, v: int, value: int):
    """A ``_measure`` that scans balls of J(n, m) misreporting d(u, v) = d(v, u) as ``value``.

    Only the extremal-distance scans see the skew; the pipeline keeps the true radii.
    """
    real = jahangir._measure
    g, _ = build_jahangir(params)
    rows = [list(row) for row in all_pairs_distances(g)]
    rows[u][v] = rows[v][u] = value
    skewed = balls_from_distances(rows)

    def measure(balls, params, case):
        assert balls == list(distance_balls(g))  # the radii the pipeline read
        return real(skewed, params, case)

    return measure


class TestDiscrepancyReports:
    """Every Discrepancy branch, reached by feeding verify_predictions wrong data.

    The fakes go in through module attributes (``jahangir._measure``,
    ``jahangir.cover_pipeline``), the names verify_predictions looks up per call.
    """

    ODD_NOTE = (
        "{} distance-5 pairs lie on a diametrical path (endpoint-scan criterion) "
        "and are excluded from the MMD prediction"
    )

    @pytest.mark.parametrize(
        "n,m,positions,value,discrepancies,excluded",
        [
            # consecutive cycles: an n+1 pair pulled in to distance n
            (6, 5, (4, 11), 6, [("distance-pairs-even-a",
                "n_plus_1: predicted-only [u4-u11], observed-only []")], None),
            # non-consecutive cycles: an n+2 pair pulled in to n+1
            (6, 5, (4, 16), 7, [("distance-pairs-even-b",
                "n_plus_2: predicted-only [u4-u16], observed-only []")], None),
            # within a segment: a distance-3 pair pushed out to n/2+1
            (6, 5, (2, 5), 4, [("distance-pairs-even-c",
                "half_plus_1: predicted-only [], observed-only [u2-u5]")], None),
            # a diametrical pair pulled in to distance n: it joins the
            # distance-n pairs and its paths stop being diametrical
            (5, 5, (3, 9), 5, [("distance-pairs-odd-a",
                "n_off_diametrical: predicted-only [], observed-only "
                "[u2-u9, u3-u10, u3-u8, u3-u9, u4-u9]; "
                "n_plus_1: predicted-only [u3-u9], observed-only []")], 16),
            # a non-consecutive n+1 pair pushed out to a new diameter n+2,
            # leaving it the only diametrical pair
            (5, 5, (3, 13), 7, [
                ("distance-pairs-odd-a",
                 "n_off_diametrical: predicted-only [], observed-only "
                 "[u12-u19, u13-u18, u13-u20, u14-u19, u17-u24, u18-u23, u18-u25, "
                 "u19-u24, u2-u9, u3-u10, u3-u23, u3-u8, u4-u22, u4-u24, u4-u9, "
                 "u5-u23, u7-u14, u8-u13, u8-u15, u9-u14]"),
                ("distance-pairs-odd-b",
                 "n_plus_1: predicted-only [u3-u13], observed-only []"),
            ], None),
            # within a segment: a distance-2 pair pushed out to (n-1)/2+1
            (5, 5, (2, 4), 3, [("distance-pairs-odd-c",
                "half_plus_1: predicted-only [], observed-only [u2-u4]")], 20),
        ],
    )
    def test_skewed_distance(self, monkeypatch, n, m, positions, value, discrepancies, excluded):
        params = JahangirParams(n, m)
        u, v = (params.rim_id(pos) for pos in positions)
        monkeypatch.setattr(jahangir, "_measure", _with_distance(params, u, v, value))
        report = verify_predictions(params)
        assert [(d.kind, d.detail) for d in report.discrepancies] == discrepancies
        assert report.notes == (() if excluded is None else (self.ODD_NOTE.format(excluded),))
        assert not report.passed

    def test_skewed_pipeline(self, monkeypatch):
        # the pipeline "finds" one SRG edge too few (u2-u6) and one too many
        # (u1-u6, which the predicted cover misses) and a cover one too large
        real = jahangir.cover_pipeline

        def skewed(g, *, radii=None):
            srg, result = real(g, radii=radii)
            edges = (set(srg.edges()) - {(1, 5)}) | {(0, 5)}
            bigger = StrongBasisResult(result.size + 1, result.basis, result.method)
            return build_graph(srg.vertex_count, sorted(edges)), bigger

        monkeypatch.setattr(jahangir, "cover_pipeline", skewed)
        report = verify_predictions(JahangirParams(6, 5))
        assert [(d.kind, d.detail) for d in report.discrepancies] == [
            ("srg-edges", "predicted but absent: [u2-u6]; computed but unpredicted: [u1-u6]"),
            ("cover-invalid", "predicted cover misses edge u1-u6"),
            ("cover-size", "predicted cover has 10 vertices but the optimum is 11"),
            ("sdim-formula", "closed form gives 10 but the cover pipeline gives 11"),
        ]
        assert (report.alpha_computed, report.srg_edges_match, report.predicted_cover_valid) == (
            11, False, False
        )
        assert report.notes == ()

    def test_skewed_pipeline_base_case(self, monkeypatch):
        real = jahangir.cover_pipeline

        def skewed(g, *, radii=None):
            srg, result = real(g, radii=radii)
            return srg, StrongBasisResult(result.size - 1, result.basis[1:], result.method)

        monkeypatch.setattr(jahangir, "cover_pipeline", skewed)
        report = verify_predictions(JahangirParams(2, 3))
        assert [(d.kind, d.detail) for d in report.discrepancies] == [
            ("sdim-formula", "closed form gives 3 but the cover pipeline gives 2"),
            ("sdim-brute", "exhaustive search gives 3 but the cover pipeline gives 2"),
        ]
        assert report.brute_sdim == 3
