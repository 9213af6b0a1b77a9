"""Regression of outputs captured before code they depend on was rewritten.

The ``verify`` files under ``tests/golden/`` were captured from ``python -m
strongdim verify ...`` before the verification code was restructured; any
change to the reports, their notes, the JSON layout or the table must show
up here.  ``verify_n2-12_m3-8_brute20.json`` raises the brute-force cap to
20, so brute force also judges the cells of order 17-19; it was captured
before the brute-force search was rewritten.  ``verify_n13-16_m4-12.json``
pins the odd-a note counts at n = 13 and 15; it was captured before the
extremal-distance scans moved from the distance matrix to distance balls.
Regenerate them only on purpose, with the commands in ``GOLDENS``.

``sdim_jahangir_cells.json`` maps each ``jahangir:n,m`` input of
``SDIM_CELLS`` (the closed-form cells of order 241-256 that perfbench's
``jahangir-sdim`` workload runs) to the full stdout of ``python -m strongdim
sdim jahangir:n,m``: size, method and basis.  It was captured, by the calls
:func:`sdim_cell_outputs` makes, before MMD detection and the re-check
stopped reading the distance matrix; regenerate it with
``PYTHONPATH=src:tests python -c "import json, test_golden;
print(json.dumps(test_golden.sdim_cell_outputs(), indent=1))"``.

``sdim_random_60-80.json`` pins the strong metric dimension of the graphs of
:func:`helpers.large_random_graphs`, which are too large for the brute-force
oracle; it was captured before the exact cover search was rewritten, with
``PYTHONPATH=src:tests python -c "import json, test_golden;
print(json.dumps(test_golden.random_sdim_rows(), indent=1))"``.

``srg_mmd_digests.json`` maps each command of :func:`srg_mmd_commands` (``srg``,
``srg --format dot`` and ``mmd`` on ``SDIM_CELLS`` plus J(5,5) and J(6,5)) to
the SHA-256 of its stdout.  It was captured before the strong resolving graph
was built from bit-matrix MMD masks, with ``PYTHONPATH=src:tests python -c
"import json, test_golden; print(json.dumps(test_golden.srg_mmd_digests(),
indent=1))"``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from helpers import large_random_graphs
from strongdim import sdim_via_cover
from strongdim.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# golden file -> verify arguments that produce it
GOLDENS = {
    "verify_default.json": ["verify", "--json"],
    "verify_n2-12_m3-8.json": ["verify", "--json", "--n", "2..12", "--m", "3..8"],
    "verify_n2-12_m3-8_brute20.json": [
        "verify", "--json", "--n", "2..12", "--m", "3..8", "--brute-cap", "20",
    ],
    "verify_n13-16_m4-12.json": ["verify", "--json", "--n", "13..16", "--m", "4..12"],
    "verify_default_table.txt": ["verify"],
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_verify_output_is_byte_identical(capsys, name):
    code = main(GOLDENS[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")


SDIM_CELLS = (
    "jahangir:20,12", "jahangir:12,21", "jahangir:10,25", "jahangir:6,42",
    "jahangir:25,10", "jahangir:9,28", "jahangir:7,36", "jahangir:5,51",
)


def sdim_cell_outputs() -> dict[str, str]:
    out = {}
    for cell in SDIM_CELLS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(["sdim", cell]) == 0
        out[cell] = buffer.getvalue()
    return out


@pytest.mark.parametrize("cell", SDIM_CELLS)
def test_sdim_cli_output_is_byte_identical(capsys, cell):
    golden = json.loads((GOLDEN_DIR / "sdim_jahangir_cells.json").read_text(encoding="utf-8"))
    code = main(["sdim", cell])
    assert code == 0
    assert capsys.readouterr().out == golden[cell]


def random_sdim_rows() -> list[dict]:
    return [
        {"seed": seed, "order": g.vertex_count, "edges": len(g.edges()), "sdim": sdim_via_cover(g).size}
        for seed, g in enumerate(large_random_graphs())
    ]


def test_sdim_above_brute_force_size():
    golden = json.loads((GOLDEN_DIR / "sdim_random_60-80.json").read_text(encoding="utf-8"))
    assert random_sdim_rows() == golden


def srg_mmd_commands() -> list[list[str]]:
    cells = SDIM_CELLS + ("jahangir:5,5", "jahangir:6,5")
    return [
        argv
        for cell in cells
        for argv in (["srg", cell], ["srg", "--format", "dot", cell], ["mmd", cell])
    ]


def _stdout_digest(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


def srg_mmd_digests() -> dict[str, str]:
    return {" ".join(argv): _stdout_digest(argv) for argv in srg_mmd_commands()}


@pytest.mark.parametrize("argv", srg_mmd_commands(), ids=" ".join)
def test_srg_and_mmd_cli_output_is_byte_identical(argv):
    golden = json.loads((GOLDEN_DIR / "srg_mmd_digests.json").read_text(encoding="utf-8"))
    assert _stdout_digest(argv) == golden[" ".join(argv)]
