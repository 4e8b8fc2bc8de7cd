"""Every function the benchmark's layer trace wraps must still exist, and
every count it reads off a result must still be there, so a rename fails
here instead of in a benchmark run."""

import ast
import importlib
import pathlib

import numpy as np
import pytest

from tdopt.capacity import compute_capacity
from tdopt.comparison import dc_minimize
from tdopt.config import RunConfig
from tdopt.families import make_bsc

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "tdbench" / "layers.py"


def load_literal(name):
    """The literal `name` assignment of tdbench/layers.py, read without importing it."""
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"tdbench/layers.py defines no {name}")


@pytest.mark.parametrize("module, attribute", [site[:2] for site in load_literal("SITES")])
def test_site_resolves_to_callable(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None))


def test_result_counts_are_int_attributes():
    cost = np.array([0.3, 0.1, 0.2])
    results = {
        "compute_capacity": compute_capacity(make_bsc(0.1)),
        "dc_minimize": dc_minimize(lambda p: (p @ cost, np.broadcast_to(cost, p.shape)), 3, RunConfig(starts=2)),
    }
    counts = load_literal("RESULT_COUNTS")
    assert set(counts) == set(results)
    for function, attribute in counts.items():
        value = getattr(results[function], attribute)
        assert isinstance(value, int) and value >= 1, (function, attribute, value)
