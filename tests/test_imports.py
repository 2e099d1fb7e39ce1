"""scipy stays off the import path: only a tabulated baseline loads it. The
command line never loads the test sampler."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import mixorder

#: the source tree of the package under test, for fresh interpreters
SRC = str(pathlib.Path(mixorder.__file__).resolve().parents[1])


def _modules_after(code, package="scipy"):
    """Names of the ``package`` modules loaded once ``code`` has run in a fresh interpreter."""
    probe = (code + "\nimport sys\n"
             f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env=env)
    return ast.literal_eval(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["mixorder", "mixorder.cli"])
def test_import_loads_no_scipy(module):
    assert _modules_after(f"import {module}") == []


def test_tabulated_baseline_loads_scipy_interpolate():
    loaded = _modules_after(
        "from mixorder import make_baseline\n"
        "base = make_baseline('tabulated', t=[1.0, 2.0, 4.0], F=[0.0, 0.5, 1.0])\n"
        "assert abs(base.cdf(base.quantile(0.7)) - 0.7) < 1e-9"
    )
    assert "scipy.interpolate" in loaded


def test_cli_import_loads_no_test_sampler():
    loaded = _modules_after("import mixorder.cli", package="mixorder")
    assert "mixorder.cli" in loaded and "mixorder._sampling" not in loaded
