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
positions, so one builder, ``_family_rows``, makes both as partner bitset
rows, one per vertex, and :func:`predicted_cover` lists the rim positions
of both regimes' covers segment by segment.  :func:`verify_predictions`
recomputes all of that through the cover pipeline of
:mod:`~strongdim.strong_metric` (MMD pairs, exact cover, re-check) and
reports any disagreement with the closed forms.

Every comparison is row by row.  The extremal-distance scans read every
radius of :func:`~strongdim.graphs.distance_balls`, kept as a list, which
:func:`verify_predictions` takes from the pipeline: it grows the list once
per cell, only after refusing an order above the exact cover cap, and no
cell builds a dense all-pairs distance matrix.  A case's measured row for
``x`` is its sphere ``ball[t][x] ^ ball[t-1][x]`` ANDed with a partner mask
made from runs of rim bits, the diameter D is the number of radii minus
one, and odd-a's diametrical-path condition is tested on spheres as well
(see :func:`_on_diametrical_path`).  One decoder, ``_pairs``, turns rows
into pairs: for the public pair-set functions and to name a discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_, xor
from typing import Callable, NamedTuple, Sequence

from .graphs import Graph, GraphError, build_graph, distance_balls, members
from .strong_metric import DEFAULT_BRUTE_CAP, _cover_pipeline, brute_force_sdim
from .vertex_cover import is_vertex_cover

_Pairs = frozenset[tuple[int, int]]  # vertex-id pairs, each as (low, high)
_Tagged = dict[str, _Pairs]  # pair sets by edge family or case tag
_Rows = dict[str, list[int]]  # partner bitset rows, one per vertex, by edge family or case tag

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
    rows = _family_rows(params)
    return {family: _pairs(rows[family]) for family in ("adjacent", "distant", "within")}


def _family_rows(params: JahangirParams) -> _Rows:
    """The families of :func:`srg_edge_families`, one partner bitset row per vertex.

    Offset i of segment k is rim position nk + i.  "longest" holds odd-a's
    n_plus_1 pairs, offset n//2 + 1 with n//2 + 2 of the next segment.
    """
    n, m = params.n, params.m
    half = n // 2
    mids = range(half + 1, half + 2 + n % 2)  # one midpoint offset for even n, two for odd
    rows = {family: [0] * params.order for family in ("adjacent", "distant", "within", "longest")}

    def at(k: int, i: int) -> int:
        return n * (k % m) + i - 1

    def link(family: str, x: int, y: int) -> None:
        rows[family][x] |= 1 << y
        rows[family][y] |= 1 << x

    midpoints = sum(1 << at(k, d) for k in range(m) for d in mids)
    inner = ((1 << n - 1) - 1) << 1  # offsets 2 .. n of segment 0
    for k in range(m):
        for j in range(half, half + len(mids) + 1):
            link("adjacent", at(k, j), at(k + 1, j + 1))
        link("longest", at(k, half + 1), at(k + 1, half + 2))
        near = inner << at(k - 1, 1) | inner << at(k, 1) | inner << at(k + 1, 1)
        for d in mids:
            for i in range(2, min(half, n - d) + 1):
                link("within", at(k, i), at(k, i + d))
            rows["distant"][at(k, d)] = midpoints & ~near
    return rows


def _pairs(rows: Sequence[int]) -> _Pairs:
    """The pairs (x, y), x < y, with bit y set in row x: the one decoder of partner rows."""
    return frozenset((x, y) for x, row in enumerate(rows) for y in members(row >> x + 1 << x + 1))


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
    return {tag: _pairs(rows) for tag, rows in _extremal_rows(_family_rows(params), case).items()}


def _extremal_rows(rows: _Rows, case: str) -> _Rows:
    """:func:`extremal_distance_pairs` as rows, read off the rows of :func:`_family_rows`."""
    tag, family, _, off_tag = _CASES[case]
    if off_tag is None:
        return {tag: rows[family]}
    # the odd "adjacent" family splits into the m pairs at distance n+1
    # and the 2m pairs at distance n that avoid every diametrical path
    return {tag: rows["longest"], off_tag: list(map(xor, rows[family], rows["longest"]))}


def _sphere(balls: list[list[int]], r: int, x: int) -> int:
    """Bitset of the vertices at distance exactly ``r`` from ``x``."""
    if r >= len(balls):
        return 0
    return balls[r][x] ^ balls[r - 1][x] if r else balls[0][x]  # each radius holds the one before


def _partners(params: JahangirParams, family: str) -> list[int]:
    """Each vertex's partner mask for ``family``: the vertices its measured pairs may per_cycle.

    Cycle k is the rim ids nk .. nk + n, modulo the rim, plus the hub.  A
    vertex gets the cycles next to its cycles ("adjacent"), the cycles
    sharing no spoke with them ("distant"), or its own segment's degree-2
    vertices ("within").  Each relation is symmetric, so no transpose.
    """
    n, m, rim = params.n, params.m, params.rim_size

    def run(start: int, length: int) -> int:
        bits = ((1 << length) - 1) << start % rim
        return (bits | bits >> rim) & ((1 << rim) - 1)

    hub = 1 << rim
    if family == "within":
        return [q for k in range(m) for q in [0] + [run(n * k + 1, n - 1)] * (n - 1)] + [0]
    if family == "adjacent":
        per_cycle = [run(n * (k - 1), n + 1) | run(n * (k + 1), n + 1) | hub for k in range(m)]
    else:
        per_cycle = [run(n * (k + 2), n * (m - 3) + 1) | hub if m > 3 else 0 for k in range(m)]
    # segment k's spoke lies on cycles k - 1 and k, the hub on every cycle
    rows = [q for k in range(m) for q in [per_cycle[k - 1] | per_cycle[k]] + [per_cycle[k]] * (n - 1)]
    return rows + [reduce(or_, per_cycle)]


def _rows_at(balls: list[list[int]], partners: list[int], t: int) -> list[int]:
    """Each vertex's sphere of radius ``t`` >= 1, ANDed with its partner mask."""
    if t >= len(balls):
        return [0] * len(partners)
    return [(ball ^ inner) & mask for ball, inner, mask in zip(balls[t], balls[t - 1], partners)]


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


def _measure(balls: list[list[int]], params: JahangirParams, case: str) -> tuple[_Rows, list[int]]:
    """The measured rows of ``case`` and the rows of the pairs a diametrical path excluded from them."""
    tag, family, offset, off_tag = _CASES[case]
    target = (params.n // 2 if family == "within" else params.n) + offset
    partners = _partners(params, family)
    measured = {tag: _rows_at(balls, partners, target)}
    if off_tag is None:
        return measured, []
    near = _rows_at(balls, partners, target - 1)
    on_path = [0] * len(near)
    for x, row in enumerate(near):
        for y in members(row >> x + 1 << x + 1):
            if _on_diametrical_path(balls, x, y, target - 1):
                on_path[x] |= 1 << y
                on_path[y] |= 1 << x
    measured[off_tag] = list(map(xor, near, on_path))
    return measured, on_path


def measured_distance_pairs(params: JahangirParams, case: str) -> _Tagged:
    """BFS-side counterpart of :func:`extremal_distance_pairs`.

    Builds J(n, m) and scans its distance balls for pairs meeting each
    case's distance condition, so comparing it with the closed-form sets
    checks the characterization in both directions at once.
    """
    _check_case(case)
    measured, _ = _measure(list(distance_balls(build_jahangir(params)[0])), params, case)
    return {tag: _pairs(rows) for tag, rows in measured.items()}


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


def _only_in(params: JahangirParams, rows: Sequence[int], other: Sequence[int]) -> str:
    """The sorted names of the pairs that ``rows`` holds and ``other`` lacks, for a report."""
    return ", ".join(sorted(f"{params.name(a)}-{params.name(b)}" for a, b in _pairs(rows) - _pairs(other)))


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
    the predicted cover are checked against the SRG's bitset rows and each
    case against its measured rows; rows become pairs only to name a difference.
    """
    n, m = params.n, params.m
    g, _ = build_jahangir(params)
    radii, srg, result = _cover_pipeline(g)  # the one growth: the scans below read it too
    alpha = result.size
    kind = regime(params)

    discrepancies: list[Discrepancy] = []
    notes: list[str] = []
    srg_match: bool | None = None
    cover_valid: bool | None = None
    cover_size: int | None = None

    spec = _REGIMES[kind] if kind is not None else None
    if spec is not None and spec.cases:
        rows = _family_rows(params)
        cover = predicted_cover(params)
        predicted_rows = [a | d | w for a, d, w in zip(rows["adjacent"], rows["distant"], rows["within"])]
        # row by row against the SRG's bitsets; its pairs are listed only to
        # name the difference
        srg_match = tuple(predicted_rows) == srg.masks
        if not srg_match:
            absent = _only_in(params, predicted_rows, srg.masks)
            extra = _only_in(params, srg.masks, predicted_rows)
            detail = f"predicted but absent: [{absent}]; computed but unpredicted: [{extra}]"
            discrepancies.append(Discrepancy("srg-edges", detail))
        cover_valid, uncovered = is_vertex_cover(srg, cover)
        cover_size = len(cover)
        if not cover_valid:
            assert uncovered is not None
            edge = "-".join(map(params.name, uncovered))
            discrepancies.append(Discrepancy("cover-invalid", f"predicted cover misses edge {edge}"))
        if cover_size != alpha:
            detail = f"predicted cover has {cover_size} vertices but the optimum is {alpha}"
            discrepancies.append(Discrepancy("cover-size", detail))
        for case in spec.cases:
            expected = _extremal_rows(rows, case)
            observed, excluded = _measure(radii, params, case)
            if excluded_count := sum(row.bit_count() for row in excluded) // 2:
                # the "lies on no diametrical path" side condition is resolved
                # by an endpoint scan; say so whenever it excluded pairs (the
                # one case with that condition scans distance n)
                notes.append(
                    f"{excluded_count} distance-{n} pairs lie on a diametrical path "
                    "(endpoint-scan criterion) and are excluded from the MMD prediction"
                )
            if expected != observed:
                parts = [  # both sides carry the case's tags
                    f"{tag}: predicted-only [{_only_in(params, want, observed[tag])}], "
                    f"observed-only [{_only_in(params, observed[tag], want)}]"
                    for tag, want in sorted(expected.items())
                    if want != observed[tag]
                ]
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
