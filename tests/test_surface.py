"""The public surface: the package's exports and the demos that use them."""

import pathlib
import subprocess
import sys

import pytest

import padic_fixvec

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


def test_all_names_resolve_once():
    names = padic_fixvec.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(padic_fixvec, name)]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
