"""Normalization reports pinned bit for bit.

``tests/data/normalization_reports.json`` holds ``verify_normalization(mix,
tol=1e-6)`` of the 32 catalog mixtures, the two false-convergence mixtures
and the first 64 ``random_mixture`` draws from ``default_rng(42)``: the
integral and the upper limit as ``float.hex``, the panel count and the
verdict. A change to the quadrature's arithmetic or its summation order
shows here as a changed bit. Re-record with
``python tools/record_pinned.py``.
"""

import json
import pathlib

import numpy as np

from mixorder import builtin_catalog, verify_normalization
from mixorder._sampling import random_mixture

DATA = pathlib.Path(__file__).resolve().parent / "data" / "normalization_reports.json"
RANDOM_DRAWS = 64


def pinned_mixtures(false_convergence_mixtures):
    """(label, mixture) of every pinned case, in file order."""
    cases = [(f"{s.scenario_id}:{side}", mix) for s in builtin_catalog()
             for side, mix in zip("uv", s.mixtures())]
    cases += [(f"false_convergence:{i}", mix) for i, mix in enumerate(false_convergence_mixtures)]
    rng = np.random.default_rng(42)
    cases += [(f"random42:{i}", random_mixture(rng)) for i in range(RANDOM_DRAWS)]
    return cases


def report_bits(mix):
    rep = verify_normalization(mix, tol=1e-6)
    return {"integral": rep.integral.hex(), "x_hi": rep.x_hi.hex(),
            "panels": rep.panels, "passed": rep.passed}


def test_normalization_reports_match_recorded_bits(false_convergence_mixtures):
    recorded = json.loads(DATA.read_text(encoding="utf-8"))
    cases = pinned_mixtures(false_convergence_mixtures)
    assert [label for label, _ in cases] == list(recorded)
    for label, mix in cases:
        assert report_bits(mix) == recorded[label], label
