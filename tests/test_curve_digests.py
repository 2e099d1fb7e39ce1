"""Large-grid curve bits and rh verdicts pinned per catalog pair.

``tests/data/curve_digests.json`` holds, for every catalog scenario, the
sha256 of the float64 bytes of U's and V's ``cdf`` and ``pdf`` on its
``scenario_grid`` at 2001 and 100001 points, both curves from one
``sample_curves`` pass over the pair, and ``to_jsonable`` of the rh verdict
at 100001 points (``pointwise_agrees`` included). 100001 points is above
``mixture.EVAL_BLOCK``, so the slice-by-slice pass is pinned too. The
curves are hashed after the rh check has read them, so a checker that
writes into a cached curve shows here. Re-record with
``python tools/record_pinned.py``.
"""

import hashlib
import json
import pathlib

from mixorder import builtin_catalog
from mixorder.analysis import PairSample, check_reversed_hazard
from mixorder.reporting import to_jsonable
from mixorder.scenarios import scenario_grid

DATA = pathlib.Path(__file__).resolve().parent / "data" / "curve_digests.json"
POINT_COUNTS = (2001, 100001)
CURVES = ("cdf_u", "cdf_v", "pdf_u", "pdf_v")


def scenario_digests(scenario):
    """Curve digests at each of ``POINT_COUNTS`` and the rh verdict at the last."""
    out = {}
    for n in POINT_COUNTS:
        sample = PairSample(scenario.u, scenario.v, scenario_grid(scenario, n))
        held = sample.fill("cdf", "pdf")
        verdict = check_reversed_hazard(sample)
        for name in CURVES:
            assert held[name].dtype == "float64"
            out[f"{name}@{n}"] = hashlib.sha256(held[name].tobytes()).hexdigest()
    out["rh"] = to_jsonable(verdict)
    return out


def test_large_grid_curves_and_rh_verdicts_match_recorded_digests():
    recorded = json.loads(DATA.read_text(encoding="utf-8"))
    catalog = builtin_catalog()
    assert [s.scenario_id for s in catalog] == list(recorded)
    for scenario in catalog:
        got = scenario_digests(scenario)
        assert json.dumps(got) == json.dumps(recorded[scenario.scenario_id]), scenario.scenario_id
