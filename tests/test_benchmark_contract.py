"""What the benchmark in perfbench/ reads of the program, checked without running it.

perfbench/run.py prints one JSON result line, built by perfbench/tracing.py
from module attributes the tracer wraps and from the shapes of what they
return.  A refactor can leave a per-layer value null without failing any
other test: a layer whose only wrap point is gone, a counter whose extractor
raises on a changed return type, an exact cover no longer reached through a
wrapped attribute.  Output written to the real stdout displaces the result
line as well.  These tests import tracing.py and workloads.py read-only,
writing no bytecode next to them, and run each workload's first input once
untraced and once traced.
"""

import importlib.util
import math
import random
import sys
import time
from pathlib import Path
from types import ModuleType

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str) -> ModuleType:
    """``perfbench/<name>.py`` imported under a private name."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_layer_and_counter_is_measured(name):
    prog = workloads.Program.load()
    tracer = tracing.Tracer(prog.traced_modules())
    assert tracer.unmeasured == []
    assert tracer.unmeasured_counters == []


@pytest.mark.parametrize("name", workloads.NAMES)
def test_first_input_gives_a_full_result(name, capfd):
    prog = workloads.Program.load()
    workload = workloads.make(name, workloads.DEFAULT_SEED)
    item = workload.inputs(prog, random.Random(workloads.DEFAULT_SEED))[0]
    results = []

    def body():
        results.append(workload.op(prog, item))

    tracer = tracing.Tracer(prog.traced_modules())
    untraced_wall = time.perf_counter()
    body()
    untraced_wall = time.perf_counter() - untraced_wall
    traced_wall = tracer.run_pass(body)
    metrics, summary = tracing.layer_metrics(tracer, [traced_wall], [untraced_wall])

    assert capfd.readouterr().out == ""  # the result line must stay the last one
    assert summary["counter_errors"] == {} == tracer.counter_errors
    unmeasured = {
        metric: value
        for metric, (value, _) in metrics.items()
        if not isinstance(value, (int, float)) or not math.isfinite(value)
    }
    assert unmeasured == {}
    for result in results:
        assert workload.check(prog, item, workload.summary(result)) is None
