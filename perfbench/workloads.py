"""The four benchmark workloads: seeded inputs, one op each, and its check.

An op is one unit of user work, run closed-loop in this process.  Inputs are
made only from the seed; the program under test receives nothing else.  Ops
call the program through module attributes (``prog.cli.main``,
``prog.strong_metric.sdim_via_cover``) so a traced pass can wrap them.

Right after each op its result is reduced to a small summary (an exit code
and a digest of the output, or a size and basis).  Only summaries are kept
until the answers are judged, so memory does not grow with the number of ops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterator

GOLDEN = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 1

# jahangir-sdim: closed-form cells of order 241..256 from both regimes, four
# even and four odd, from many-spoke J(5,51) to long-rim J(25,10).  The set is
# fixed and the seed only orders it: drawing cells per seed moved op_p50_ms by
# up to 25 % between seeds, as much as the regression bound.
JAHANGIR_CELLS = ((20, 12), (12, 21), (10, 25), (6, 42), (25, 10), (9, 28), (7, 36), (5, 51))
VERIFY_ROWS = range(2, 17)
VERIFY_M = "3..12"
# random-sdim and small-brute: a pass is whole blocks of one graph per
# order, and a run covers most of the pool once, so it times many distinct
# graphs in a fixed mix of orders (see README).
RANDOM_ORDERS = (90, 110)
RANDOM_BLOCKS = 9  # 189 graphs, a pass of 21
SMALL_ORDERS = (12, 16)
SMALL_BLOCKS = 130  # 650 graphs, a pass of 65


@dataclass(frozen=True)
class Program:
    """The strongdim modules of one import.

    Wrappers are installed only during a traced pass, and inputs are made and
    answers checked outside passes, so neither is ever traced.
    """

    cli: ModuleType
    jahangir: ModuleType
    strong_metric: ModuleType
    graphs: ModuleType
    vertex_cover: ModuleType

    @classmethod
    def load(cls) -> Program:
        from strongdim import cli, graphs, jahangir, strong_metric, vertex_cover

        return cls(cli, jahangir, strong_metric, graphs, vertex_cover)

    def traced_modules(self) -> dict[str, ModuleType]:
        return {"cli": self.cli, "jahangir": self.jahangir, "strong_metric": self.strong_metric}


@dataclass
class Workload:
    """One workload: how to make its inputs, run one op and judge the result.

    ``inputs`` makes the op inputs; this is the timed part of set-up.
    ``edge_lists`` yields the edge list of every graph the inputs stand for,
    in op order, for the input digest.  ``summary`` reduces an op's result to
    what ``check`` needs; ``check`` returns None for a correct summary or the
    reason it is wrong.
    """

    name: str
    pass_size: int
    inputs: Callable[[Program, random.Random], list]
    edge_lists: Callable[[Program, list], Iterator[list]]
    op: Callable[[Program, Any], Any]
    summary: Callable[[Any], Any]
    check: Callable[[Program, Any, Any], str | None]
    # ops re-run once after the timed window to check that results repeat
    repeat_ops: int = 0


def run_cli(prog: Program, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = prog.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _jahangir_edges(prog: Program, n: int, m: int) -> list:
    g, _ = prog.jahangir.build_jahangir(prog.jahangir.JahangirParams(n, m))
    return [g.vertex_count, g.edges()]


def _random_connected(prog: Program, rng: random.Random, order: int):
    """A random recursive spanning tree plus ``order`` extra edges, relabelled.

    Mean degree is about 4; the relabelling keeps vertex ids uncorrelated
    with tree depth.
    """
    edges = {(rng.randrange(v), v) for v in range(1, order)}
    target = len(edges) + order
    while len(edges) < target:
        u, v = rng.sample(range(order), 2)
        edges.add((min(u, v), max(u, v)))
    perm = list(range(order))
    rng.shuffle(perm)
    relabelled = sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in sorted(edges)
    )
    return prog.graphs.build_graph(order, relabelled)


def graph_pool(lo: int, hi: int, blocks: int):
    """``blocks`` blocks of random graphs, each block one graph of every
    order ``lo..hi`` in shuffled order.

    Op time grows steeply with order.  A pass is a whole number of blocks,
    so every run times the same mix of orders however many passes it gets
    through, and its median and mean do not move with the seed.
    """

    def inputs(prog: Program, rng: random.Random) -> list:
        pool = []
        for _ in range(blocks):
            block = [_random_connected(prog, rng, order) for order in range(lo, hi + 1)]
            rng.shuffle(block)
            pool += block
        return pool

    return inputs


def _pool_edges(prog: Program, pool: list) -> Iterator[list]:
    return ([g.vertex_count, g.edges()] for g in pool)


def _text_summary(result: tuple[int, str]) -> tuple[int, str, str]:
    """Exit code, first output line and SHA-256 of the whole output."""
    code, out = result
    first = out.splitlines()[0] if out else ""
    return code, first, hashlib.sha256(out.encode()).hexdigest()


# ---------- jahangir-sdim ----------


def _jahangir_inputs(prog: Program, rng: random.Random) -> list:
    cells = list(JAHANGIR_CELLS)
    rng.shuffle(cells)
    return cells


def _jahangir_cell_edges(prog: Program, cells: list) -> Iterator[list]:
    return (_jahangir_edges(prog, n, m) for n, m in cells)


def _jahangir_op(prog: Program, cell: tuple[int, int]) -> tuple[int, str]:
    n, m = cell
    return run_cli(prog, ["sdim", f"jahangir:{n},{m}"])


def _jahangir_check(prog: Program, cell: tuple[int, int], summary: tuple) -> str | None:
    code, first, _ = summary
    if code != 0:
        return f"exit code {code}"
    expected = prog.jahangir.sdim_formula(prog.jahangir.JahangirParams(*cell))
    if first != f"sdim = {expected}":
        return f"printed {first!r}, closed form gives {expected}"
    return None


# ---------- verify-grid ----------


def _verify_inputs(prog: Program, rng: random.Random) -> list:
    rows = list(VERIFY_ROWS)
    rng.shuffle(rows)
    return rows


def _verify_edges(prog: Program, rows: list) -> Iterator[list]:
    m_lo, m_hi = (int(x) for x in VERIFY_M.split(".."))
    return (_jahangir_edges(prog, k, m) for k in rows for m in range(m_lo, m_hi + 1))


def verify_argv(k: int) -> list[str]:
    return ["verify", "--json", "--n", f"{k}..{k}", "--m", VERIFY_M]


def _verify_op(prog: Program, k: int) -> tuple[int, str]:
    return run_cli(prog, verify_argv(k))


def load_golden(name: str) -> Any:
    with open(GOLDEN / name, encoding="utf-8") as handle:
        return json.load(handle)


def _verify_checker(golden: dict[str, str]):
    digests = {k: hashlib.sha256(text.encode()).hexdigest() for k, text in golden.items()}

    def check(prog: Program, k: int, summary: tuple) -> str | None:
        code, _, digest = summary
        if code != 0:
            return f"exit code {code}"
        if digest != digests[str(k)]:
            return f"row {k}: verify --json output differs from the stored capture"
        return None

    return check


# ---------- random-sdim ----------


class _RandomChecker:
    """The basis strongly resolves the graph, its size is at least the SRG
    matching bound and identical on every repeat, and it equals the stored
    minimum when the seed is the default one.  For other seeds minimality
    itself is not checked: no independent solver is fast enough at this order.
    """

    def __init__(self) -> None:
        self.first: dict[int, tuple] = {}
        self.bound: dict[int, int] = {}
        self.reference: list[int] | None = None

    def __call__(self, prog: Program, item: tuple[int, Any], summary: tuple) -> str | None:
        idx, g = item
        size, basis = summary
        if size != len(basis):
            return f"graph {idx}: size {size} but basis {basis}"
        seen = self.first.setdefault(idx, summary)
        if seen != summary:
            return f"graph {idx}: (size, basis) changed between passes, {seen} then {summary}"
        if idx not in self.bound:
            dm = prog.graphs.all_pairs_distances(g)
            ok, witness = prog.strong_metric.is_strong_resolving_set(g, dm, basis)
            if not ok:
                return f"graph {idx}: basis {basis} leaves pair {witness} unresolved"
            srg = prog.strong_metric.strong_resolving_graph(g, dm)
            self.bound[idx] = prog.vertex_cover.matching_lower_bound(srg)
        if size < self.bound[idx]:
            return f"graph {idx}: size {size} below the SRG matching bound {self.bound[idx]}"
        if self.reference is not None and size != self.reference[idx]:
            return f"graph {idx}: size {size}, stored reference {self.reference[idx]}"
        return None


def _indexed_pool(lo: int, hi: int, blocks: int):
    pool = graph_pool(lo, hi, blocks)

    def inputs(prog: Program, rng: random.Random) -> list:
        return list(enumerate(pool(prog, rng)))

    return inputs


def _indexed_edges(prog: Program, items: list) -> Iterator[list]:
    return _pool_edges(prog, [g for _, g in items])


def _random_op(prog: Program, item: tuple[int, Any]):
    return prog.strong_metric.sdim_via_cover(item[1])


def _basis_summary(result) -> tuple[int, tuple[int, ...]]:
    return result.size, tuple(result.basis)


# ---------- small-brute ----------


def _small_op(prog: Program, g):
    return prog.strong_metric.brute_force_sdim(g), prog.strong_metric.sdim_via_cover(g)


def _small_summary(result) -> tuple[int, tuple[int, ...], int]:
    brute, pipeline = result
    return brute.size, tuple(brute.basis), pipeline.size


def _small_check(prog: Program, g, summary: tuple) -> str | None:
    brute_size, brute_basis, pipeline_size = summary
    if brute_size != pipeline_size:
        return f"brute force gives {brute_size}, the cover pipeline {pipeline_size}"
    dm = prog.graphs.all_pairs_distances(g)
    ok, witness = prog.strong_metric.is_strong_resolving_set(g, dm, brute_basis)
    if not ok:
        return f"brute basis {brute_basis} leaves pair {witness} unresolved"
    return None


def _span(orders: tuple[int, int]) -> int:
    """Graphs in one block: one of each order."""
    return orders[1] - orders[0] + 1


def make(name: str, seed: int) -> Workload:
    """The workload called ``name``, with any per-seed checking state."""
    if name == "jahangir-sdim":
        return Workload(
            name, len(JAHANGIR_CELLS), _jahangir_inputs, _jahangir_cell_edges,
            _jahangir_op, _text_summary, _jahangir_check,
        )  # fmt: skip
    if name == "verify-grid":
        check = _verify_checker(load_golden("verify_grid.json"))
        return Workload(
            name, len(VERIFY_ROWS), _verify_inputs, _verify_edges,
            _verify_op, _text_summary, check,
        )  # fmt: skip
    if name == "random-sdim":
        checker = _RandomChecker()
        if seed == DEFAULT_SEED:
            checker.reference = load_golden(f"random_sdim_seed{DEFAULT_SEED}.json")
        return Workload(
            name, _span(RANDOM_ORDERS), _indexed_pool(*RANDOM_ORDERS, RANDOM_BLOCKS), _indexed_edges,
            _random_op, _basis_summary, checker, repeat_ops=2,
        )  # fmt: skip
    if name == "small-brute":
        return Workload(
            name, 13 * _span(SMALL_ORDERS), graph_pool(*SMALL_ORDERS, SMALL_BLOCKS), _pool_edges,
            _small_op, _small_summary, _small_check,
        )  # fmt: skip
    raise KeyError(name)


NAMES = ("jahangir-sdim", "random-sdim", "verify-grid", "small-brute")
