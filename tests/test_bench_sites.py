"""Every function the benchmark's layer trace wraps must still exist, so a
rename fails here instead of in a benchmark run."""

import ast
import importlib
import pathlib

import pytest

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "tdbench" / "layers.py"


def load_sites():
    """The literal `SITES` tuple of tdbench/layers.py, read without importing it."""
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SITES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("tdbench/layers.py defines no SITES")


@pytest.mark.parametrize("module, attribute", [site[:2] for site in load_sites()])
def test_site_resolves_to_callable(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None))
