"""Command line interface.

Exit codes: 0 on success (and on fully verified grids), 1 when a
verification or cross-check found a mismatch, 2 on usage or input errors,
among them a graph file or stdin that cannot be read or is not UTF-8 and an
output file that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable

from .graphs import (
    FORMATS,
    Graph,
    GraphError,
    SizeLimitError,
    _parse,
    complete_graph,
    cycle_graph,
    path_graph,
    serialize,
)
from .jahangir import JahangirParams, VerificationReport, build_jahangir, sdim_formula, verify_predictions
from .strong_metric import (
    DEFAULT_BRUTE_CAP, brute_force_sdim, check_brute_cap, sdim_via_cover, strong_resolving_graph
)
from .vertex_cover import check_cover_cap, exact_min_vertex_cover, greedy_cover

# brute force prunes its subset search but stays exponential in the worst
# case and has no node budget yet, so --brute-cap has a hard ceiling
MAX_BRUTE_CAP = 20

# srg and cover --mode greedy have no search cap, so an order guard bounds the
# memory they take: Graph.masks and each radius of the balls are V^2 / 8 bytes,
# 32 MB at the guard, and srg's transpose caches about 470 MB there
MEMORY_GUARD_CAP = 1 << 14


def _check_memory_guard(order: int) -> None:
    """Raise :class:`SizeLimitError` above :data:`MEMORY_GUARD_CAP`: the order check of ``srg`` and greedy ``cover``."""
    if order > MEMORY_GUARD_CAP:
        raise SizeLimitError(f"graph has {order} vertices, memory guard cap is {MEMORY_GUARD_CAP}")


def _parse_jahangir_shorthand(text: str) -> JahangirParams | None:
    if not text.startswith("jahangir:"):  # a file path or '-'
        return None
    try:
        n_str, m_str = text[len("jahangir:"):].split(",")
        n, m = int(n_str), int(m_str)
    except ValueError as exc:
        raise GraphError(f"bad jahangir shorthand {text!r}, expected jahangir:n,m") from exc
    return JahangirParams(n, m)


def _load_graph(
    source: str, check_order: Callable[[int], None]
) -> tuple[Graph, dict[int, str], JahangirParams | None]:
    """The graph of ``source``, whose order ``check_order`` (the command's cap) checks before the build.

    A file path or '-' for stdin also gives its document's labels and None; 'jahangir:n,m'
    gives no labels (names are built only where printed) and (n, m).
    """
    params = _parse_jahangir_shorthand(source)
    if params is not None:
        check_order(params.order)
        return build_jahangir(params)[0], {}, params
    try:
        if source == "-":
            # decoded as UTF-8 like a file, whatever the locale makes of stdin
            raw = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        else:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"cannot read {source!r}: {exc}") from exc
    return *_parse(text, check_order), None


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise GraphError(f"cannot write {output!r}: {exc}") from exc


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_str, hi_str = text.split("..", 1)
            lo, hi = int(lo_str), int(hi_str)
        else:
            lo = hi = int(text)
    except ValueError:
        raise GraphError(f"bad range {text!r}, expected A..B or a single integer") from None
    if lo > hi:
        raise GraphError(f"empty range {text!r}")
    return lo, hi


def _worker_count(requested: int, cpus: int | None) -> int:
    """Worker processes for ``verify --jobs``: at least 1, at most ``cpus``."""
    if requested < 1:
        raise GraphError(f"--jobs must be at least 1, got {requested}")
    return min(requested, cpus or 1)


def _brute_cap(requested: int) -> int:
    """The ``--brute-cap`` value, refused below 0 or above :data:`MAX_BRUTE_CAP`."""
    if requested < 0:
        raise GraphError(f"--brute-cap must be at least 0, got {requested}")
    if requested > MAX_BRUTE_CAP:
        raise GraphError(f"--brute-cap must be at most {MAX_BRUTE_CAP}, got {requested}")
    return requested


def _ids(vertices) -> str:
    return " ".join(str(v) for v in sorted(vertices))


# ---------- subcommands ----------


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "jahangir":
        if args.m is None:
            raise GraphError("gen jahangir needs -n and -m")
        params = JahangirParams(args.n, args.m)
        g, _ = build_jahangir(params)
        labels = params.labels()
    else:
        if args.m is not None:
            raise GraphError(f"gen {args.kind} takes only -n")
        builder = {"cycle": cycle_graph, "path": path_graph, "complete": complete_graph}[args.kind]
        g, labels = builder(args.n), None
    _emit(serialize(g, args.format, labels), args.output)
    return 0


def _cmd_sdim(args: argparse.Namespace) -> int:
    brute_cap = _brute_cap(args.brute_cap)
    if args.method == "formula":  # reads (n, m) only: no file or stdin, and J(n, m) is never built
        params = _parse_jahangir_shorthand(args.graph)
        if params is None:
            raise GraphError("the formula method needs a jahangir:n,m input")
        value = sdim_formula(params)
        if value is None:
            raise GraphError(f"no closed form for jahangir({params.n},{params.m})")
        print(f"sdim = {value}")
        print("method = formula")
        return 0
    check = check_cover_cap if args.method == "auto" else lambda order: check_brute_cap(order, brute_cap)
    g, _, params = _load_graph(args.graph, check)
    if args.method == "brute":
        result = brute_force_sdim(g, brute_cap)
    else:  # auto: the cover pipeline, cross-checked against any closed form
        formula_value = sdim_formula(params) if params is not None else None
        result = sdim_via_cover(g)
        if formula_value is not None and formula_value != result.size:
            print(
                f"error: closed form gives {formula_value} but the cover pipeline gives {result.size}",
                file=sys.stderr,
            )
            return 1
    print(f"sdim = {result.size}")
    print(f"method = {result.method}")
    print(f"basis = {_ids(result.basis)}")
    return 0


def _cmd_srg(args: argparse.Namespace) -> int:
    g, labels, params = _load_graph(args.graph, _check_memory_guard)
    labels = labels if params is None else params.labels()
    _emit(serialize(strong_resolving_graph(g), args.format, labels), args.output)
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    g, _, _ = _load_graph(args.graph, check_cover_cap if args.mode == "exact" else _check_memory_guard)
    result = greedy_cover(g) if args.mode == "greedy" else exact_min_vertex_cover(g)
    print(f"size = {result.size}")
    print(f"optimal = {'true' if result.optimal else 'false'}")
    print(f"cover = {_ids(result.cover)}")
    if args.mode == "exact":
        print(f"nodes_explored = {result.nodes_explored}")
    return 0


def _render_table(reports: list[VerificationReport]) -> str:
    def mark(flag: bool | None) -> str:
        if flag is None:
            return "-"
        return "ok" if flag else "MISMATCH"

    def num(value: int | None) -> str:
        return "-" if value is None else str(value)

    header = f"{'n':>3} {'m':>3} {'srg':>9} {'cover':>9} {'alpha':>6} {'formula':>8} {'pipeline':>9}  result"
    lines = [header]
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        if rep.exploratory:
            status += " (exploratory)"
        lines.append(
            f"{rep.n:>3} {rep.m:>3} {mark(rep.srg_edges_match):>9} "
            f"{mark(rep.predicted_cover_valid):>9} {rep.alpha_computed:>6} "
            f"{num(rep.formula_sdim):>8} {rep.alpha_computed:>9}  {status}"
        )
        for item in rep.discrepancies:
            lines.append(f"      {item.kind}: {item.detail}")
    failed = sum(1 for rep in reports if not rep.passed)
    if failed:
        lines.append(f"{failed} of {len(reports)} cells FAILED")
    else:
        lines.append(f"all {len(reports)} cells verified")
    return "\n".join(lines) + "\n"


def _cmd_verify(args: argparse.Namespace) -> int:
    n_lo, n_hi = _parse_range(args.n)
    m_lo, m_hi = _parse_range(args.m)
    verify_cell = functools.partial(verify_predictions, brute_cap=_brute_cap(args.brute_cap))
    jobs = _worker_count(args.jobs, os.cpu_count())
    cells = []
    for n in range(n_lo, n_hi + 1):
        for m in range(m_lo, m_hi + 1):
            cell = JahangirParams(n, m)
            check_cover_cap(cell.order)  # the first oversize cell stops the grid before any cell runs
            cells.append(cell)
    if jobs > 1:
        # imported here: loading multiprocessing costs about 2 MB of memory,
        # which every other command and every library user of cli would pay
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(verify_cell, cells))
    else:
        reports = [verify_cell(cell) for cell in cells]
    if args.json:
        print(json.dumps([rep.to_dict() for rep in reports], indent=2))
    else:
        sys.stdout.write(_render_table(reports))
    return 0 if all(rep.passed for rep in reports) else 1


@functools.cache  # built on the first main() call, then reused: parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strongdim",
        description="Strong metric dimension toolkit: strong resolving graphs, "
        "exact vertex covers, and closed-form verification for Jahangir graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph and print it")
    gen.add_argument("kind", choices=("jahangir", "cycle", "path", "complete"))
    gen.add_argument("-n", type=int, required=True, help="size parameter")
    gen.add_argument("-m", type=int, help="spoke count (jahangir only)")
    gen.add_argument("--format", choices=FORMATS, default="edge-json")
    gen.add_argument("-o", "--output", help="output file, defaults to stdout")
    gen.set_defaults(func=_cmd_gen)

    graph_help = "graph source: a file path, '-' for stdin, or jahangir:n,m"

    sdim = sub.add_parser("sdim", help="compute strong metric dimension")
    sdim.add_argument("graph", help=graph_help)
    sdim.add_argument("--method", choices=("auto", "formula", "brute"), default="auto")
    sdim.add_argument("--brute-cap", type=int, default=DEFAULT_BRUTE_CAP)
    sdim.set_defaults(func=_cmd_sdim)

    srg = sub.add_parser("srg", help="print the strong resolving graph")
    srg.add_argument("graph", help=graph_help)
    srg.add_argument("--format", choices=FORMATS, default="edge-json")
    srg.add_argument("-o", "--output", help="output file, defaults to stdout")
    srg.set_defaults(func=_cmd_srg)

    cover = sub.add_parser("cover", help="compute a vertex cover")
    cover.add_argument("graph", help=graph_help)
    cover.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    cover.set_defaults(func=_cmd_cover)

    verify = sub.add_parser("verify", help="verify closed-form predictions over a grid")
    verify.add_argument("--n", default="5..12", help="n range A..B (default 5..12)")
    verify.add_argument("--m", default="4..8", help="m range A..B (default 4..8)")
    verify.add_argument("--brute-cap", type=int, default=DEFAULT_BRUTE_CAP)
    verify.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    verify.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
