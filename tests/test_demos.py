"""The demos run to completion, and none prints a rounding-level value as a
negative zero at its printed precision (such as -0.000000 for a slack of
-2e-16, which reads like a time-division violation)."""

import pathlib
import re
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))

# a minus sign before a number whose printed digits are all zero
NEGATIVE_ZERO = re.compile(r"-0(?:\.0*)?(?![0-9.])")


def test_every_demo_is_found():
    assert [d.stem for d in DEMOS] == [
        "capacity_certificates", "perturbation_and_timeshare", "region_sampling", "verdict_gallery",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda d: d.stem)
def test_demo_runs_without_negative_zeros(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    printed = capsys.readouterr().out
    assert printed
    assert NEGATIVE_ZERO.findall(printed) == []
