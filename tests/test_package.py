"""The public surface of the strongdim package."""

import dataclasses
import inspect

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
