"""strongdim benchmark: closed-loop workloads with checked answers.

Run one workload (this is what the result line is for):

    python3 perfbench/run.py --workload jahangir-sdim --seed 1 --seconds 20 --trace 0

or every workload, each in its own process:

    python3 perfbench/run.py --seed 1 --seconds 20 --trace 0

``--trace 0`` times the program untouched and prints the end-to-end metrics,
with every time normalised for the host's speed (see ``hostspeed.py``);
``--trace 1`` alternates untraced and traced passes over the same inputs and
prints the per-layer metrics (see ``tracing.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A full report, with the environment and the input digest, is written under
``perfbench/results/``.  Exit status is 0 when a result was printed (failed
ops are counted in it), 2 when the program could not be set up.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(SRC))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-ups are timed in two batches, before and after the timed window, each
# at least SETUPS_MIN long and then until SETUP_BUDGET_S is spent.  setup_s is
# the median of both batches: the host's speed drifts over seconds, and one
# batch alone would sample a single moment of it.
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 5, 60, 1.0
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many samples beyond it


class SetupError(RuntimeError):
    """The program under test could not be imported or its inputs made."""


def import_program() -> workloads.Program:
    """Import strongdim afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "strongdim" or m.startswith("strongdim.")]:
        del sys.modules[name]
    try:
        prog = workloads.Program.load()
    except ImportError as exc:
        raise SetupError(f"cannot import strongdim from {SRC}: {exc}") from exc
    origin = Path(prog.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"strongdim was imported from {origin}, not from {SRC}")
    return prog


def setup_batch(workload, seed: int):
    """Import the program and make the inputs several times; keep the last.

    Only the import and ``workload.inputs`` are timed: reference answers are
    loaded once by ``workloads.make`` and the input digest is taken once,
    outside the timer.  The reference loop runs before the first set-up and
    after each; every set-up comes back as ``(seconds, normalised seconds)``.
    """
    times: list[float] = []
    refs = [hostspeed.sample()]
    while len(times) < SETUPS_MIN or (sum(times) < SETUP_BUDGET_S and len(times) < SETUPS_MAX):
        prog = items = None  # each set-up starts from a collected heap,
        gc.collect()  # as in a fresh process
        start = time.perf_counter()
        prog = import_program()
        items = workload.inputs(prog, random.Random(seed))
        times.append(time.perf_counter() - start)
        refs.append(hostspeed.sample())
    return prog, items, list(zip(times, hostspeed.normalise(times, refs)))


def _run_op(prog, workload, item) -> tuple[float, object, str | None]:
    """Time one op; return its seconds, the summary of its result and any error.

    The op starts from a collected heap, so neither the garbage nor the
    memory peak of one op depends on which ops ran before it.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        result, error = workload.op(prog, item), None
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        result, error = None, "".join(traceback.format_exception_only(exc)).strip()
    elapsed = time.perf_counter() - start
    if error is None:
        try:
            return elapsed, workload.summary(result), None
        except Exception as exc:  # a result of the wrong shape is a wrong answer
            error = "".join(traceback.format_exception_only(exc)).strip()
    return elapsed, None, error


def _pass_indices(workload, count: int, k: int) -> list[int]:
    size = workload.pass_size
    return [i % count for i in range(k * size, (k + 1) * size)]


def timed_run(prog, workload, items, seconds: float):
    """Whole passes, back to back, until ``seconds`` have elapsed.

    The reference loop runs before the first op and after each (see
    ``hostspeed.py``).  Returns the records, the reference loop times and
    the number of passes.
    """
    records = []  # (item index, op seconds, result summary, error)
    refs = [hostspeed.sample()]
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        for idx in _pass_indices(workload, len(items), k):
            records.append((idx, *_run_op(prog, workload, items[idx])))
            refs.append(hostspeed.sample())
        k += 1
        if time.perf_counter() >= deadline:
            break
    return records, refs, k


def traced_run(prog, workload, items, seconds: float):
    """Pairs of untraced and traced passes over the same inputs, in ABBA order."""
    tracer = tracing.Tracer(prog.traced_modules())
    records, traced_walls, untraced_walls = [], [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        chunk = _pass_indices(workload, len(items), k)

        def body() -> None:
            for idx in chunk:
                records.append((idx, *_run_op(prog, workload, items[idx])))

        def untraced() -> float:
            start = time.perf_counter()
            body()
            return time.perf_counter() - start

        if k % 2 == 0:
            untraced_walls.append(untraced())
            traced_walls.append(tracer.run_pass(body))
        else:
            traced_walls.append(tracer.run_pass(body))
            untraced_walls.append(untraced())
        k += 1
        if time.perf_counter() >= deadline:
            break
    return tracer, records, traced_walls, untraced_walls


def check_records(prog, workload, items, records) -> list[str]:
    """Judge every op; then re-run ``repeat_ops`` inputs once to check they repeat."""
    failures = []
    for idx, _, summary, error in records:
        reason = error or workload.check(prog, items[idx], summary)
        if reason:
            failures.append(reason)
    for idx in range(min(workload.repeat_ops, len(items))):
        _, summary, error = _run_op(prog, workload, items[idx])
        records.append((idx, None, summary, error))
        reason = error or workload.check(prog, items[idx], summary)
        if reason:
            failures.append(f"repeat: {reason}")
    return failures


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with
    ``TAIL_BEYOND`` samples beyond it; the maximum if there are too few."""
    ordered = sorted(samples, reverse=True)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    return ordered[beyond], 100.0 * (1 - beyond / len(ordered)), beyond


def input_digest(edge_lists) -> tuple[str, int]:
    """SHA-256 of the JSON list of all edge lists, and how many there are.

    The edge lists come one at a time and are hashed as they come, so the
    digest never holds all inputs in memory twice and does not set the
    process's peak memory.
    """
    digest = hashlib.sha256(b"[")
    count = 0
    for edges in edge_lists:
        digest.update((b"," if count else b"") + json.dumps(edges, separators=(",", ":")).encode())
        count += 1
    digest.update(b"]")
    return "sha256:" + digest.hexdigest(), count


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "strongdim").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return "sha256:" + digest.hexdigest()


def environment(args, passes: int, samples: dict[str, int]) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "samples": samples,
    }


def _fmt(value) -> str:
    return "unmeasured" if value is None else f"{value:.6g}"


def run_workload(args) -> int:
    try:
        workload = workloads.make(args.workload, args.seed)
        prog, items, setup_times = setup_batch(workload, args.seed)
        digest, count = input_digest(workload.edge_lists(prog, items))
    except (SetupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # The program, its inputs and the benchmark's own state are never
    # garbage; freezing them keeps the ops' collections from scanning them.
    gc.collect()
    gc.freeze()
    report: dict = {"input_digest": digest, "inputs": count}
    lines = []
    if args.trace:
        tracer, records, traced_walls, untraced_walls = traced_run(
            prog, workload, items, args.seconds
        )
        failures = check_records(prog, workload, items, records)
        values, summary = tracing.layer_metrics(tracer, traced_walls, untraced_walls)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}.spans.json"
        tracer.dump(spans_path)
        summary["spans_file"] = str(spans_path.relative_to(ROOT))
        report["trace"] = summary
        passes = len(traced_walls) + len(untraced_walls)
        samples = {"traced_passes": len(traced_walls), "untraced_passes": len(untraced_walls)}
        lines.append(
            f"traced passes {len(traced_walls)}, spans {summary['spans']}, "
            f"self times + harness = {summary['accounted_share_pct']:.4f}% of traced pass time"
        )
        for name in summary["unmeasured_layers"] + summary["unmeasured_counters"]:
            lines.append(f"unmeasured: {name}")
        for point in summary["missing_wrap_points"]:
            lines.append(f"missing wrap point: {point}")
    else:
        records, refs, passes = timed_run(prog, workload, items, args.seconds)
        raw_ops = [r[1] for r in records]
        op_times = hostspeed.normalise(raw_ops, refs)
        failures = check_records(prog, workload, items, records)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_times += setup_batch(workload, args.seed)[-1]
        raw_setups = [t for t, _ in setup_times]
        report["setup_times_s"] = raw_setups
        tail_value, tail_pct, beyond = tail(op_times)
        metrics = {
            "setup_s": {"value": median(n for _, n in setup_times), "unit": "s"},
            "ops_per_s": {"value": len(op_times) / sum(op_times), "unit": "ops/s"},
            "op_p50_ms": {"value": 1000 * median(op_times), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * tail_value, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        report["wall_clock"] = {
            "setup_s": median(raw_setups),
            "ops_per_s": len(raw_ops) / sum(raw_ops),
            "op_p50_ms": 1000 * median(raw_ops),
            "op_tail_ms": 1000 * tail(raw_ops)[0],
        }
        slowdowns = [r / hostspeed.NOMINAL_S for r in refs]
        quartiles = quantiles(slowdowns, n=4)
        report["host_slowdown"] = {
            "nominal_reference_s": hostspeed.NOMINAL_S,
            "quartiles": quartiles,
            "samples": len(slowdowns),
        }
        samples = {
            "setup_s": len(setup_times),
            "ops_per_s": len(op_times),
            "op_p50_ms": len(op_times),
            "op_tail_ms": len(op_times),
            "peak_rss_mb": 1,
            "host_slowdown": len(slowdowns),
        }
        report["op_tail"] = {"percentile": tail_pct, "samples_beyond": beyond}
        lines.append(
            f"op_tail_ms is p{tail_pct:.2f}: {beyond} of {len(op_times)} ops took longer"
        )
        lines.append(
            "host slowdown against the reference loop: quartiles "
            + " / ".join(f"{q:.4g}" for q in quartiles)
            + "; wall clock: "
            + ", ".join(f"{k} {_fmt(v)}" for k, v in report["wall_clock"].items())
        )
    attempted = len(records)
    report["failed_ratio"] = len(failures) / attempted
    report["failures"] = failures[:20]
    report["environment"] = environment(args, passes, samples)
    report["metrics"] = metrics

    env = report["environment"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(
        f"python {env['python']}  usable cores {env['usable_cores']}  "
        f"commit {env['git_commit'] or 'n/a'}  source {env['source_digest'][:19]}"
    )
    print(f"inputs {report['inputs']} graphs  digest {report['input_digest']}")
    for name, metric in metrics.items():
        print(f"  {name:<34} {_fmt(metric['value']):>14} {metric['unit']}")
    ratio = report["failed_ratio"]
    print(f"  {'failed_ratio':<34} {ratio:>14.6g} ({len(failures)} of {attempted} ops)")
    for line in lines:
        print(line)
    for reason in failures[:5]:
        print(f"FAILED: {reason}")
    RESULTS.mkdir(parents=True, exist_ok=True)
    report_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"report {report_path.relative_to(ROOT)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]  # fmt: skip
        child = subprocess.run(argv, capture_output=True, text=True, timeout=args.seconds + 170)
        sys.stderr.write(child.stderr)
        out = child.stdout.splitlines()
        print("\n".join(out[:-1]))
        print()
        if child.returncode != 0 or not out:
            status = status or child.returncode or 2
            merged["correct"] = False
            continue
        result = json.loads(out[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
