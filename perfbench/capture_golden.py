"""Re-capture the reference outputs the benchmark checks answers against.

``golden/verify_grid.json`` holds the ``verify --json`` output of every
verify-grid row; ``golden/random_sdim_seed1.json`` holds the strong metric
dimension of every random-sdim graph made from the default seed.  Re-capture
only when a change to the program alters these outputs on purpose, and say
so in CHANGES.md:

    python3 perfbench/capture_golden.py
"""

from __future__ import annotations

import json
import random

import run
import workloads


def main() -> int:
    prog = run.import_program()
    verify = {}
    for k in workloads.VERIFY_ROWS:
        code, out = workloads.run_cli(prog, workloads.verify_argv(k))
        if code != 0:
            raise SystemExit(f"verify row {k} exited {code}; refusing to store it")
        verify[str(k)] = out
    pool = workloads.graph_pool(*workloads.RANDOM_ORDERS, workloads.RANDOM_BLOCKS)(
        prog, random.Random(workloads.DEFAULT_SEED)
    )
    sizes = [prog.strong_metric.sdim_via_cover(g).size for g in pool]
    workloads.GOLDEN.mkdir(exist_ok=True)
    for name, doc in (
        ("verify_grid.json", verify),
        (f"random_sdim_seed{workloads.DEFAULT_SEED}.json", sizes),
    ):
        with open(workloads.GOLDEN / name, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=0 if name.startswith("random") else 1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
