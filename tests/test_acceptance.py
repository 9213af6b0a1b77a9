"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single
``ACCEPTANCE <name>: PASS/FAIL`` line, and then asserts.  Time budgets
are asserted where a criterion states one.
"""

import random
import time

from strongdim import (
    JahangirParams,
    all_pairs_distances,
    brute_force_sdim,
    build_jahangir,
    diameter,
    exact_min_vertex_cover,
    extremal_distance_pairs,
    greedy_cover,
    is_vertex_cover,
    matching_lower_bound,
    measured_distance_pairs,
    predicted_cover,
    sdim_via_cover,
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
    exhaustive_min_cover_size,
    id_pairs,
    id_set,
    random_connected_graph,
    random_graph,
)

EVEN_GRID = [(n, m) for n in (6, 8, 10, 12) for m in range(4, 9)]
ODD_GRID = [(n, m) for n in (5, 7, 9, 11) for m in range(4, 9)]


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_base_cases_have_dimension_three():
    start = time.perf_counter()
    results = {}
    for n in (2, 3, 4):
        g, _ = build_jahangir(JahangirParams(n, 3))
        results[n] = (brute_force_sdim(g).size, sdim_via_cover(g).size)
    elapsed = time.perf_counter() - start
    ok = all(pair == (3, 3) for pair in results.values()) and elapsed < 5.0
    _report("base-cases", ok, f"brute/pipeline={results}, t={elapsed:.2f}s budget=5s")


def test_even_worked_example_j_6_5():
    start = time.perf_counter()
    p = JahangirParams(6, 5)
    g, lab = build_jahangir(p)
    golden = id_pairs(lab, EVEN_65_ADJACENT + EVEN_65_DISTANT + EVEN_65_WITHIN)
    srg = strong_resolving_graph(g)
    edges_ok = frozenset(srg.edges()) == golden and len(golden) == 20
    alpha = exact_min_vertex_cover(srg).size
    cover = predicted_cover(p)
    cover_ok = (
        cover == id_set(lab, EVEN_65_COVER)
        and is_vertex_cover(srg, cover) == (True, None)
        and len(cover) == alpha
    )
    pipeline = sdim_via_cover(g).size
    elapsed = time.perf_counter() - start
    ok = edges_ok and alpha == 10 and cover_ok and pipeline == 10 and elapsed < 1.0
    _report(
        "even-example-6-5",
        ok,
        f"edges_ok={edges_ok}, alpha={alpha}, cover_ok={cover_ok}, "
        f"pipeline={pipeline}, t={elapsed:.2f}s budget=1s",
    )


def test_odd_worked_example_j_5_5():
    start = time.perf_counter()
    p = JahangirParams(5, 5)
    g, lab = build_jahangir(p)
    golden = id_pairs(lab, ODD_55_ADJACENT + ODD_55_DISTANT + ODD_55_WITHIN)
    srg = strong_resolving_graph(g)
    edges_ok = frozenset(srg.edges()) == golden and len(golden) == 40
    alpha = exact_min_vertex_cover(srg).size
    cover = predicted_cover(p)
    cover_ok = (
        cover == id_set(lab, ODD_55_COVER)
        and is_vertex_cover(srg, cover) == (True, None)
        and len(cover) == alpha
    )
    pipeline = sdim_via_cover(g).size
    elapsed = time.perf_counter() - start
    ok = edges_ok and alpha == 12 and cover_ok and pipeline == 12 and elapsed < 1.0
    _report(
        "odd-example-5-5",
        ok,
        f"edges_ok={edges_ok}, alpha={alpha}, cover_ok={cover_ok}, "
        f"pipeline={pipeline}, t={elapsed:.2f}s budget=1s",
    )


def _check_grid(grid, expected_sdim):
    failures = []
    for n, m in grid:
        report = verify_predictions(JahangirParams(n, m))
        if not report.passed:
            failures.append((n, m, [d.kind for d in report.discrepancies]))
            continue
        if report.alpha_computed != expected_sdim(n, m):
            failures.append((n, m, ["pipeline-vs-closed-form"]))
        if report.srg_edges_match is not True or report.predicted_cover_valid is not True:
            failures.append((n, m, ["missing-prediction-check"]))
        if report.predicted_cover_size != report.alpha_computed:
            failures.append((n, m, ["cover-size-vs-alpha"]))
    return failures


def test_even_grid_closed_form():
    start = time.perf_counter()
    failures = _check_grid(EVEN_GRID, lambda n, m: m * (n - 2) // 2)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(
        "even-grid",
        ok,
        f"{len(EVEN_GRID)} cells, failures={failures}, t={elapsed:.2f}s budget=60s",
    )


def test_odd_grid_closed_form():
    start = time.perf_counter()
    failures = _check_grid(ODD_GRID, lambda n, m: m * (n - 1) // 2 + m - 3)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(
        "odd-grid",
        ok,
        f"{len(ODD_GRID)} cells, failures={failures}, t={elapsed:.2f}s budget=60s",
    )


def test_brute_force_agrees_with_cover_reduction():
    start = time.perf_counter()
    corpus = []
    for n, m in ((2, 3), (2, 4), (2, 5), (3, 3)):  # every gear with nm+1 <= 12
        g, _ = build_jahangir(JahangirParams(n, m))
        corpus.append((f"jahangir:{n},{m}", g))
    for seed in range(200):
        g = random_connected_graph(random.Random(seed), min_order=2, max_order=12)
        corpus.append((f"random:{seed}", g))
    mismatches = [
        (name, brute, pipe)
        for name, g in corpus
        for brute, pipe in [(brute_force_sdim(g).size, sdim_via_cover(g).size)]
        if brute != pipe
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and len(corpus) >= 204 and elapsed < 120.0
    _report(
        "brute-vs-pipeline",
        ok,
        f"{len(corpus)} graphs, mismatches={mismatches[:5]}, t={elapsed:.2f}s budget=120s",
    )


def test_distance_pair_predictions_match_bfs():
    mismatches = []
    for grid, cases in ((EVEN_GRID, ("even-a", "even-b", "even-c")),
                        (ODD_GRID, ("odd-a", "odd-b", "odd-c"))):
        for n, m in grid:
            p = JahangirParams(n, m)
            for case in cases:
                if extremal_distance_pairs(p, case) != measured_distance_pairs(p, case):
                    mismatches.append((n, m, case))
    ok = not mismatches
    _report(
        "distance-pairs",
        ok,
        f"{(len(EVEN_GRID) + len(ODD_GRID)) * 3} case checks, mismatches={mismatches}",
    )


def test_metric_and_solver_invariants():
    problems = []

    # distance-matrix axioms on graphs of up to 64 vertices
    for seed in range(15):
        g = random_connected_graph(random.Random(1000 + seed), min_order=2, max_order=64)
        d = all_pairs_distances(g)
        order = g.vertex_count
        for u in range(order):
            if d[u][u] != 0:
                problems.append(f"axiom identity seed={seed} u={u}")
            for v in range(u + 1, order):
                if d[u][v] != d[v][u] or d[u][v] < 1:
                    problems.append(f"axiom symmetry/positivity seed={seed} ({u},{v})")
        for w in range(order):
            row = d[w]
            for u in range(order):
                for v in range(order):
                    if d[u][v] > row[u] + row[v]:
                        problems.append(f"axiom triangle seed={seed} ({u},{v},{w})")

    # exact solver vs exhaustive search on small graphs
    for seed in range(60):
        g = random_graph(random.Random(2000 + seed), min_order=1, max_order=10)
        if exact_min_vertex_cover(g).size != exhaustive_min_cover_size(g):
            problems.append(f"solver-vs-exhaustive seed={seed}")

    # independent complement, repeatability and bound sandwich on a mixed corpus
    corpus = [build_jahangir(JahangirParams(n, m))[0] for n, m in ((2, 3), (3, 3), (6, 5), (5, 5))]
    corpus += [strong_resolving_graph(g) for g in corpus[:4]]
    corpus += [random_connected_graph(random.Random(3000 + s), max_order=12) for s in range(20)]
    corpus += [random_graph(random.Random(4000 + s), max_order=10) for s in range(20)]
    for idx, g in enumerate(corpus):
        exact = exact_min_vertex_cover(g)
        rest = set(range(g.vertex_count)) - set(exact.cover)
        if any(u in rest and v in rest for u, v in g.edges()) or exact != exact_min_vertex_cover(g):
            problems.append(f"duality corpus[{idx}]")
        if not matching_lower_bound(g) <= exact.size <= greedy_cover(g).size:
            problems.append(f"sandwich corpus[{idx}]")

    ok = not problems
    _report("metric-solver-invariants", ok, f"problems={problems[:5]}")


def test_diameter_closed_form_full_grid():
    mismatches = []
    for n in range(2, 13):
        for m in range(3, 9):
            g, _ = build_jahangir(JahangirParams(n, m))
            expected = 2 * (n // 2 + 1)
            actual = diameter(g)
            if actual != expected:
                mismatches.append((n, m, actual, expected))
    ok = not mismatches
    _report("diameter-closed-form", ok, f"66 cells, mismatches={mismatches}")
