"""Byte-for-byte regression of ``verify`` output on the reference grids.

The files under ``tests/golden/`` were captured from ``python -m strongdim
verify ...`` before the verification code was restructured; any change to
the reports, their notes, the JSON layout or the table must show up here.
Regenerate them only on purpose, with the commands in ``GOLDENS``.
"""

from pathlib import Path

import pytest

from strongdim.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# golden file -> verify arguments that produce it
GOLDENS = {
    "verify_default.json": ["verify", "--json"],
    "verify_n2-12_m3-8.json": ["verify", "--json", "--n", "2..12", "--m", "3..8"],
    "verify_default_table.txt": ["verify"],
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_verify_output_is_byte_identical(capsys, name):
    code = main(GOLDENS[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")
