"""Generalized Jahangir graphs and verification of their closed-form predictions.

J(n, m) is a cycle of length n*m (the rim) plus one hub vertex joined to
every n-th rim vertex.  The hub and its m neighbors (the spokes) split the
rim into m segments; each segment together with the hub forms an internal
cycle of length n + 2, and consecutive internal cycles share one spoke edge.
:class:`JahangirParams` is the one type for J(n, m): it validates (n, m)
and maps rim positions to vertex ids and names.

The paper gives the strong metric dimension in three parameter regimes, and
in two of them the strong resolving graph's edges and an optimal vertex
cover.  The private table ``_REGIMES`` holds one row per regime: the
condition :func:`regime` looks up, the closed form, the extremal-distance
cases (merged into ``_CASES``) and the condition's text a refusal names.
The even and odd edge families differ only in a segment's midpoint
positions, so :func:`srg_edge_families` builds both, and
:func:`predicted_cover` lists the rim positions of both regimes' covers
segment by segment.  :func:`verify_predictions` recomputes all of that
through :func:`~strongdim.strong_metric.cover_pipeline` (MMD pairs, exact
cover, re-check) and reports any disagreement with the closed forms.

The extremal-distance scans read every radius of
:func:`~strongdim.graphs.distance_balls`, kept as a list; no cell builds a
dense all-pairs distance matrix.  :func:`verify_predictions` grows that
list once per cell and hands the same list to the pipeline's MMD scan and
re-check.  The pairs at distance t are read off the
spheres ``ball[t][x] ^ ball[t-1][x]``, each ANDed with one vertex mask per
cycle or segment, the diameter D is the number of radii minus one, and the
diametrical-path condition of odd-a is tested on spheres as well (see
:func:`_on_diametrical_path`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

from .graphs import (
    Graph,
    GraphError,
    build_graph,
    distance_balls,
    members,
)
from .strong_metric import DEFAULT_BRUTE_CAP, brute_force_sdim, cover_pipeline
from .vertex_cover import is_vertex_cover

_Pairs = frozenset[tuple[int, int]]  # vertex-id pairs, each as (low, high)
_Tagged = dict[str, _Pairs]  # pair sets by edge family or case tag

@dataclass(frozen=True)
class JahangirParams:
    """J(n, m), segment length n >= 2 and spoke count m >= 3, with its vertex ids and names.

    Rim position ``i`` (1-based, taken modulo n*m) gets id ``i - 1`` and
    name ``u{i}``; the hub gets the last id and name ``c``.  Spokes sit at
    rim positions 1, n+1, 2n+1, and so on.
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        for value in (self.n, self.m):
            if not isinstance(value, int) or isinstance(value, bool):
                raise GraphError(f"jahangir parameters must be integers, got ({self.n!r}, {self.m!r})")
        if self.n < 2 or self.m < 3:
            raise GraphError(f"jahangir parameters need n >= 2 and m >= 3, got ({self.n}, {self.m})")

    @property
    def order(self) -> int:
        return self.n * self.m + 1

    @property
    def rim_size(self) -> int:
        return self.n * self.m

    @property
    def hub(self) -> int:
        return self.rim_size

    def rim_id(self, position: int) -> int:
        """Vertex id of rim position ``position``, reduced modulo the rim length."""
        return (position - 1) % self.rim_size

    def pair(self, i: int, j: int) -> tuple[int, int]:
        """Unordered id pair for rim positions ``i`` and ``j``."""
        a, b = self.rim_id(i), self.rim_id(j)
        if a == b:
            raise GraphError(f"rim positions {i} and {j} name the same vertex")
        return (a, b) if a < b else (b, a)

    def name(self, vid: int) -> str:
        return "c" if vid == self.hub else f"u{vid + 1}"

    def labels(self) -> dict[int, str]:
        return {v: self.name(v) for v in range(self.order)}

    def spoke_ids(self) -> tuple[int, ...]:
        return tuple(self.rim_id(self.n * k + 1) for k in range(self.m))

    def cycle_ids(self, k: int) -> tuple[int, ...]:
        """Ids of internal cycle ``k``: the hub plus rim positions nk+1 .. n(k+1)+1."""
        rim = [self.rim_id(self.n * k + 1 + t) for t in range(self.n + 1)]
        return tuple(rim + [self.hub])

    def inner_cycle_ids(self, k: int) -> tuple[int, ...]:
        """The degree-2 rim vertices of internal cycle ``k`` (spokes and hub excluded)."""
        return tuple(self.rim_id(self.n * k + i) for i in range(2, self.n + 1))


def build_jahangir(params: JahangirParams) -> tuple[Graph, JahangirParams]:
    """Construct J(n, m).

    Returns ``params`` alongside the graph: it is the labeling, the map
    between rim positions, vertex ids and names (:meth:`JahangirParams.labels`
    gives the u/c names for :func:`~strongdim.graphs.serialize`); the graph
    itself carries no names.
    """
    rim = params.rim_size
    edge_list = [(i, (i + 1) % rim) for i in range(rim)]
    edge_list += [(params.hub, s) for s in params.spoke_ids()]
    return build_graph(params.order, edge_list), params


def regime(params: JahangirParams) -> str | None:
    """The closed-form regime of J(n, m): "base", "even", "odd", or None.

    The first row of ``_REGIMES`` whose condition holds: "base" is m = 3
    with n in {2, 3, 4}, "even" even n > 5 and "odd" odd n >= 5, both with
    m >= 4.  None marks exploratory parameters.
    """
    return next((kind for kind, spec in _REGIMES.items() if spec.holds(params.n, params.m)), None)


def sdim_formula(params: JahangirParams) -> int | None:
    """Closed-form strong metric dimension, or None outside the regimes of :func:`regime`.

    Values: 3 (base), m(n-2)/2 (even) and m(n-1)/2 + m - 3 (odd).
    """
    kind = regime(params)
    return None if kind is None else _REGIMES[kind].sdim(params.n, params.m)


def _require_regime(params: JahangirParams, what: str, *kinds: str) -> None:
    """Refuse ``what`` predictions unless ``params`` lies in one of the regimes ``kinds``."""
    if regime(params) not in kinds:
        needs = " or ".join(_REGIMES[kind].needs for kind in kinds)
        raise GraphError(f"{what} predictions need {needs}, got ({params.n}, {params.m})")


def _nonconsecutive(m: int) -> list[tuple[int, int]]:
    """Index pairs k < k2 of internal cycles that share no spoke edge."""
    return [(k, k2) for k in range(m) for k2 in range(k + 1, m) if k2 - k not in (1, m - 1)]


# ---------- predicted strong-resolving-graph edges ----------


def srg_edge_families(params: JahangirParams) -> _Tagged:
    """Predicted MMD pairs of J(n, m) for the even and odd regimes, by family.

    A segment has one midpoint position, n/2 + 1, when n is even, and two,
    h + 1 and h + 2 with h = (n-1)/2, when n is odd.  "adjacent": position
    n//2 + a of each cycle with n//2 + a + 1 of the next, for a = 0 .. the
    number of midpoints.  "distant": midpoints of non-consecutive cycles.
    "within": same-segment positions i >= 2 and i + d, d a midpoint position.
    """
    _require_regime(params, "edge-family", "even", "odd")
    n, m = params.n, params.m
    pair = params.pair
    half = n // 2
    mids = (half + 1,) if n % 2 == 0 else (half + 1, half + 2)
    adjacent = _consecutive_pairs(params, range(len(mids) + 1))
    distant: set[tuple[int, int]] = set()
    for k, k2 in _nonconsecutive(m):
        for a in mids:
            for b in mids:
                distant.add(pair(n * k + a, n * k2 + b))
    within: set[tuple[int, int]] = set()
    for k in range(m):
        for i in range(2, half + 1):
            for d in mids:
                if i + d <= n:
                    within.add(pair(n * k + i, n * k + i + d))
    return {
        "adjacent": adjacent,
        "distant": frozenset(distant),
        "within": frozenset(within),
    }


def _consecutive_pairs(params: JahangirParams, starts: Sequence[int]) -> _Pairs:
    """Position n//2 + a of each segment k paired with n//2 + a + 1 of k + 1, a in ``starts``."""
    n, half = params.n, params.n // 2
    return frozenset(
        params.pair(n * k + half + a, n * (k + 1) + half + a + 1) for k in range(params.m) for a in starts
    )


# ---------- predicted optimal cover ----------


def predicted_cover(params: JahangirParams) -> frozenset[int]:
    """Predicted minimum vertex cover of the strong resolving graph, even and odd regimes.

    The rim positions chosen in segment k = 0 .. m-1.  Even n: 2 .. n/2 - 1
    and the midpoint n/2 + 1 in every segment, m(n-2)/2 vertices.  Odd n,
    h = (n-1)/2: 2 .. h+2 for k <= m-3, 2 .. h for k = m-2 and h+2 .. n
    for k = m-1, m(n-1)/2 + m - 3 vertices.
    """
    _require_regime(params, "cover", "even", "odd")
    n, m, half = params.n, params.m, params.n // 2
    if n % 2 == 0:
        spans = [(*range(2, half), half + 1)] * m
    else:
        spans = [range(2, half + 3)] * (m - 2) + [range(2, half + 1), range(half + 2, n + 1)]
    return frozenset(params.rim_id(n * k + i) for k, span in enumerate(spans) for i in span)


# ---------- the regime table and the characterized long-distance pairs ----------


class _Regime(NamedTuple):
    """A regime's condition and what the paper states in it; base has only its closed form."""

    holds: Callable[[int, int], bool]  # whether (n, m) lies in the regime
    sdim: Callable[[int, int], int]  # the closed form in (n, m)
    cases: dict[str, tuple]  # extremal-distance cases
    needs: str = ""  # the condition a refusal names outside the regime


# A case maps to (tag, SRG edge family, distance offset, off-path tag):
# the family is the pairs at distance n + offset between consecutive
# ("adjacent") or non-consecutive ("distant") internal cycles, or at
# n//2 + offset "within" one segment.  An off-path tag adds the family's
# scan one closer: its pairs that lie on no diametrical path.
_REGIMES = {
    "base": _Regime(holds=lambda n, m: m == 3 and n in (2, 3, 4), sdim=lambda n, m: 3, cases={}),
    "even": _Regime(
        holds=lambda n, m: m >= 4 and n % 2 == 0 and n > 5,
        sdim=lambda n, m: m * (n - 2) // 2,
        cases={
            "even-a": ("n_plus_1", "adjacent", 1, None),
            "even-b": ("n_plus_2", "distant", 2, None),
            "even-c": ("half_plus_1", "within", 1, None),
        },
        needs="even n > 5 and m >= 4",
    ),
    "odd": _Regime(
        holds=lambda n, m: m >= 4 and n % 2 == 1 and n >= 5,
        sdim=lambda n, m: m * (n - 1) // 2 + m - 3,
        cases={
            "odd-a": ("n_plus_1", "adjacent", 1, "n_off_diametrical"),
            "odd-b": ("n_plus_1", "distant", 1, None),
            "odd-c": ("half_plus_1", "within", 1, None),
        },
        needs="odd n >= 5 and m >= 4",
    ),
}
_CASES = {case: row for spec in _REGIMES.values() for case, row in spec.cases.items()}


def _check_case(case: str) -> None:
    if case not in _CASES:
        raise GraphError(f"unknown case {case!r}, expected one of {tuple(_CASES)}")


def extremal_distance_pairs(params: JahangirParams, case: str) -> _Tagged:
    """Closed-form vertex pairs at the characterized extremal distances.

    Cases "even-a/b/c" apply in the even regime and "odd-a/b/c" in the odd
    one.  Each returns its regime's edge family under the case's tag (see
    ``_REGIMES``); odd-a splits the "adjacent" family into the pairs at
    distance n+1 and, as "n_off_diametrical", those at distance n that lie
    on no diametrical path.
    """
    _check_case(case)
    kind = next(kind for kind, spec in _REGIMES.items() if case in spec.cases)
    _require_regime(params, f"{kind}-n", kind)
    return _extremal_pairs(params, srg_edge_families(params), case)


def _extremal_pairs(params: JahangirParams, families: _Tagged, case: str) -> _Tagged:
    """:func:`extremal_distance_pairs` read off already built edge families."""
    tag, family, _, off_tag = _CASES[case]
    if off_tag is None:
        return {tag: families[family]}
    # the odd "adjacent" family splits into the m pairs at distance n+1
    # and the 2m pairs at distance n that avoid every diametrical path
    longest = _consecutive_pairs(params, (1,))
    return {tag: longest, off_tag: families[family] - longest}


def _sphere(balls: list[list[int]], r: int, x: int) -> int:
    """Bitset of the vertices at distance exactly ``r`` from ``x``."""
    if r >= len(balls):
        return 0
    return balls[r][x] ^ balls[r - 1][x] if r else balls[0][x]  # each radius holds the one before


def _pairs_at(balls: list[list[int]], params: JahangirParams, family: str, target: int) -> _Pairs:
    """Pairs at distance ``target`` across the cycle pairs or segments ``family`` spans.

    Each vertex ``x`` of a cycle or segment is paired with one mask: the
    other degree-2 vertices of its segment ("within"), or the union of the
    cycles its cycle is scanned against.  The pairs are the members of
    that mask on the sphere of radius ``target`` around ``x``.
    """
    m = params.m
    if family == "within":
        segments = [params.inner_cycle_ids(k) for k in range(m)]
        rows = [(ids, sum(1 << v for v in ids)) for ids in segments]
    else:
        ks = [(k, (k + 1) % m) for k in range(m)] if family == "adjacent" else _nonconsecutive(m)
        cycles = [params.cycle_ids(k) for k in range(m)]
        partners = [0] * m
        for k, k2 in ks:
            partners[k] |= sum(1 << v for v in cycles[k2])
        rows = list(zip(cycles, partners))
    found: set[tuple[int, int]] = set()
    for ids, mask in rows:
        for x in ids:
            for y in members(_sphere(balls, target, x) & mask):
                found.add((x, y) if x < y else (y, x))
    return frozenset(found)


def _on_diametrical_path(balls: list[list[int]], x: int, y: int, t: int) -> bool:
    """Whether the pair x, y at distance ``t`` lies on a path a .. x .. y .. b with d(a, b) = D.

    Such a path exists iff d(a, x) + t + d(y, b) = d(a, b) = D for some
    vertices a, b, that is iff for some r in 0 .. D - t a vertex ``a`` on
    the sphere of radius r around ``x`` has, on its own sphere of radius
    D, a vertex of the sphere of radius D - t - r around ``y``.  Ordered
    endpoints cover both orientations, so x before y suffices.
    """
    diam = len(balls) - 1
    for r in range(diam - t + 1):
        ends = _sphere(balls, diam - t - r, y)
        if ends and any(_sphere(balls, diam, a) & ends for a in members(_sphere(balls, r, x))):
            return True
    return False


def _measure(balls: list[list[int]], params: JahangirParams, case: str) -> tuple[_Tagged, _Pairs]:
    """The measured pairs of ``case`` and the pairs a diametrical path excluded from them."""
    tag, family, offset, off_tag = _CASES[case]
    target = (params.n // 2 if family == "within" else params.n) + offset
    measured = {tag: _pairs_at(balls, params, family, target)}
    if off_tag is None:
        return measured, frozenset()
    near = _pairs_at(balls, params, family, target - 1)
    on_path = frozenset(
        (x, y) for x, y in near if _on_diametrical_path(balls, x, y, target - 1)
    )
    measured[off_tag] = near - on_path
    return measured, on_path


def measured_distance_pairs(params: JahangirParams, case: str) -> _Tagged:
    """BFS-side counterpart of :func:`extremal_distance_pairs`.

    Builds J(n, m) and scans its distance balls for pairs meeting each
    case's distance condition, so comparing it with the closed-form sets
    checks the characterization in both directions at once.
    """
    _check_case(case)
    return _measure(list(distance_balls(build_jahangir(params)[0])), params, case)[0]


# ---------- end-to-end verification ----------


@dataclass(frozen=True)
class Discrepancy:
    """One disagreement between a closed-form prediction and computation."""

    kind: str
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking every applicable prediction for one (n, m).

    Comparison fields are None when the parameters fall outside the
    regime that defines them (:attr:`exploratory` marks parameters with no
    closed form at all); ``discrepancies`` is empty exactly when every
    applicable comparison agreed.  ``alpha_computed``, the optimal cover
    size of the strong resolving graph, is also the pipeline's strong
    metric dimension, so :meth:`to_dict` writes it under both ``alpha``
    and ``pipeline_sdim``.
    """

    n: int
    m: int
    srg_edges_match: bool | None
    predicted_cover_valid: bool | None
    predicted_cover_size: int | None
    alpha_computed: int
    formula_sdim: int | None
    brute_sdim: int | None
    discrepancies: tuple[Discrepancy, ...] = field(default_factory=tuple)
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def exploratory(self) -> bool:
        return self.formula_sdim is None

    @property
    def passed(self) -> bool:
        return not self.discrepancies

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "exploratory": self.exploratory,
            "srg_edges_match": self.srg_edges_match,
            "cover_valid": self.predicted_cover_valid,
            "predicted_cover_size": self.predicted_cover_size,
            "alpha": self.alpha_computed,
            "formula_sdim": self.formula_sdim,
            "pipeline_sdim": self.alpha_computed,
            "brute_sdim": self.brute_sdim,
            "discrepancies": [
                {"kind": item.kind, "detail": item.detail} for item in self.discrepancies
            ],
            "notes": list(self.notes),
        }


def _named_pairs(params: JahangirParams, pairs: Iterable[tuple[int, int]]) -> str:
    names = sorted(f"{params.name(a)}-{params.name(b)}" for a, b in pairs)
    return ", ".join(names)


def verify_predictions(
    params: JahangirParams, *, brute_cap: int = DEFAULT_BRUTE_CAP
) -> VerificationReport:
    """Check every closed-form prediction that applies to J(n, m).

    Always computes the strong resolving graph, an exact minimum cover of
    it, and the resulting strong metric dimension.  In the even and odd
    regimes it additionally compares the predicted edge families, the
    predicted cover, and the extremal-distance pair characterizations
    against the computed structures.  Graphs small enough for brute force
    are cross-checked against exhaustive search as well.  The families and
    the predicted cover are checked against the SRG's bitset rows, so the
    SRG is decoded into pairs only to name a difference in its edges.
    """
    n, m = params.n, params.m
    g, _ = build_jahangir(params)
    radii = list(distance_balls(g))  # the one growth: the pipeline and the scans read it
    srg, result = cover_pipeline(g, radii=radii)
    alpha = result.size
    kind = regime(params)

    discrepancies: list[Discrepancy] = []
    notes: list[str] = []
    srg_match: bool | None = None
    cover_valid: bool | None = None
    cover_size: int | None = None

    spec = _REGIMES[kind] if kind is not None else None
    if spec is not None and spec.cases:
        families = srg_edge_families(params)
        cover = predicted_cover(params)
        predicted_edges = frozenset().union(*families.values())
        predicted_rows = [0] * srg.vertex_count
        for a, b in predicted_edges:
            predicted_rows[a] |= 1 << b
            predicted_rows[b] |= 1 << a
        # row by row against the SRG's bitsets; its pairs are listed only to
        # name the difference
        srg_match = tuple(predicted_rows) == srg.masks
        if not srg_match:
            actual_edges = frozenset(srg.edges())
            missing = predicted_edges - actual_edges
            extra = actual_edges - predicted_edges
            discrepancies.append(
                Discrepancy(
                    "srg-edges",
                    f"predicted but absent: [{_named_pairs(params, missing)}]; "
                    f"computed but unpredicted: [{_named_pairs(params, extra)}]",
                )
            )
        cover_valid, uncovered = is_vertex_cover(srg, cover)
        cover_size = len(cover)
        if not cover_valid:
            assert uncovered is not None
            discrepancies.append(
                Discrepancy(
                    "cover-invalid",
                    f"predicted cover misses edge {params.name(uncovered[0])}-{params.name(uncovered[1])}",
                )
            )
        if cover_size != alpha:
            discrepancies.append(
                Discrepancy(
                    "cover-size",
                    f"predicted cover has {cover_size} vertices but the optimum is {alpha}",
                )
            )
        for case in spec.cases:
            expected = _extremal_pairs(params, families, case)
            observed, excluded = _measure(radii, params, case)
            if excluded:
                # the "lies on no diametrical path" side condition is resolved
                # by an endpoint scan; say so whenever it excluded pairs (the
                # one case with that condition scans distance n)
                notes.append(
                    f"{len(excluded)} distance-{n} pairs lie on a diametrical path "
                    "(endpoint-scan criterion) and are excluded from the MMD prediction"
                )
            if expected != observed:
                parts = []
                for tag in sorted(set(expected) | set(observed)):
                    want = expected.get(tag, frozenset())
                    got = observed.get(tag, frozenset())
                    if want != got:
                        parts.append(
                            f"{tag}: predicted-only [{_named_pairs(params, want - got)}], "
                            f"observed-only [{_named_pairs(params, got - want)}]"
                        )
                discrepancies.append(Discrepancy(f"distance-pairs-{case}", "; ".join(parts)))

    formula = sdim_formula(params)
    brute = brute_force_sdim(g, brute_cap).size if g.vertex_count <= brute_cap else None
    for check, source, value in (
        ("sdim-formula", "closed form", formula),
        ("sdim-brute", "exhaustive search", brute),
    ):
        if value is not None and value != alpha:
            detail = f"{source} gives {value} but the cover pipeline gives {alpha}"
            discrepancies.append(Discrepancy(check, detail))

    return VerificationReport(
        n=n,
        m=m,
        srg_edges_match=srg_match,
        predicted_cover_valid=cover_valid,
        predicted_cover_size=cover_size,
        alpha_computed=alpha,
        formula_sdim=formula,
        brute_sdim=brute,
        discrepancies=tuple(discrepancies),
        notes=tuple(notes),
    )
