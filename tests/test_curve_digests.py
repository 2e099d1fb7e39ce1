"""Large-grid curve bits, ratio bits and verdicts pinned per catalog pair.

``tests/data/curve_digests.json`` holds, for every catalog scenario, the
sha256 of the float64 bytes of U's and V's ``cdf`` and ``pdf`` on its
``scenario_grid`` at 2001 and 100001 points, both curves from one
``sample_curves`` pass over the pair, and ``to_jsonable`` of the rh verdict
at 100001 points (``pointwise_agrees`` included). After these come the st,
lr and r_rh verdicts at 100001 points and the sha256 of every column of the
``cdf_ratio``, ``pdf_ratio``, ``rhr`` and ``rhr_ratio`` quantities there.
100001 points is above ``mixture.EVAL_BLOCK``, so the slice-by-slice
sampling and checks are pinned too. The curves are hashed after all four
checkers have read them, so a checker that writes into a cached curve shows
here. Re-record with ``python tools/record_pinned.py``.
"""

import hashlib
import json
import pathlib

from mixorder import builtin_catalog
from mixorder.analysis import CHECKERS, QUANTITIES, PairSample
from mixorder.reporting import to_jsonable
from mixorder.scenarios import scenario_grid

DATA = pathlib.Path(__file__).resolve().parent / "data" / "curve_digests.json"
POINT_COUNTS = (2001, 100001)
CURVES = ("cdf_u", "cdf_v", "pdf_u", "pdf_v")
#: the ``QUANTITIES`` whose columns are hashed at the last point count
RATIOS = ("cdf_ratio", "pdf_ratio", "rhr", "rhr_ratio")


def _sha256(values):
    assert values.dtype == "float64"
    return hashlib.sha256(values.tobytes()).hexdigest()


def scenario_digests(scenario):
    """Curve digests at each of ``POINT_COUNTS``, then the verdicts and the
    ratio digests at the last."""
    out = {}
    for n in POINT_COUNTS:
        sample = PairSample(scenario.u, scenario.v, scenario_grid(scenario, n))
        held = sample.fill("cdf", "pdf")
        verdicts = {kind.value: check(sample) for kind, check in CHECKERS.items()}
        for name in CURVES:
            out[f"{name}@{n}"] = _sha256(held[name])
    out["rh"] = to_jsonable(verdicts.pop("rh"))
    out.update((kind, to_jsonable(verdict)) for kind, verdict in verdicts.items())
    for q in RATIOS:
        out.update((f"{column}@{n}", _sha256(values))
                   for column, values in QUANTITIES[q](sample).items())
    return out


def test_large_grid_curves_and_rh_verdicts_match_recorded_digests():
    recorded = json.loads(DATA.read_text(encoding="utf-8"))
    catalog = builtin_catalog()
    assert [s.scenario_id for s in catalog] == list(recorded)
    for scenario in catalog:
        got = scenario_digests(scenario)
        assert json.dumps(got) == json.dumps(recorded[scenario.scenario_id]), scenario.scenario_id
