"""The public surface of the strongdim package."""

import ast
import dataclasses
import inspect
import sys
from pathlib import Path

import pytest

import strongdim
from strongdim import jahangir, strong_metric


def test_every_exported_name_resolves():
    assert len(set(strongdim.__all__)) == len(strongdim.__all__)
    for name in strongdim.__all__:
        assert hasattr(strongdim, name), name


@pytest.mark.parametrize(
    "module,name",
    [(strongdim, "JahangirLabeling"), (jahangir, "JahangirLabeling"),
     (strongdim, "MmdPairSet"), (strong_metric, "MmdPairSet")],
)
def test_folded_types_are_gone(module, name):
    assert not hasattr(module, name)
    assert name not in strongdim.__all__


def test_duplicate_members_are_gone():
    assert not hasattr(strongdim.Graph, "name_of")
    assert list(inspect.signature(strongdim.diameter).parameters) == ["g"]
    report_fields = {f.name for f in dataclasses.fields(strongdim.VerificationReport)}
    assert "alpha_computed" in report_fields and "pipeline_sdim" not in report_fields


def test_runtime_is_stdlib_only():
    # relative imports (level > 0) stay inside the package; every absolute
    # one must name a standard-library module
    package = Path(strongdim.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (source.name, name)
