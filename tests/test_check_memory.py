"""Each order check reads its sample's cached curves without whole-grid
float temporaries: above the filled sample, the check's traced peak
(``tracemalloc``) at 100001 points is at most 2.25 float64 arrays over the
grid. The kept ratio is one of them; the rest is boolean masks and
``mixture.EVAL_BLOCK``-point slices."""

import tracemalloc

import numpy as np
import pytest

from mixorder import get_scenario
from mixorder.analysis import CHECKERS, OrderKind, PairSample
from mixorder.scenarios import scenario_grid

N = 100001
#: one catalog pair of each order; each ratio domain is a proper suffix of the grid
PAIRS = {OrderKind.ST: "EX4.1", OrderKind.RH: "EX4.2", OrderKind.LR: "EX4.3",
         OrderKind.R_RH: "EX5.7"}
DOMAINS = {OrderKind.RH: "rh_domain", OrderKind.LR: "lr_domain", OrderKind.R_RH: "r_rh_domain"}


@pytest.mark.parametrize("kind", list(OrderKind), ids=lambda kind: kind.value)
def test_check_peak_above_the_filled_sample_is_at_most_2_25_grid_arrays(kind):
    scenario = get_scenario(PAIRS[kind])
    sample = PairSample(*scenario.mixtures(), scenario_grid(scenario, N))
    sample.fill("cdf", "pdf")
    tracemalloc.start()
    try:
        CHECKERS[kind](sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if kind in DOMAINS:
        domain = getattr(sample, DOMAINS[kind])
        assert 3 <= np.count_nonzero(domain) < N and domain[-1]
    assert peak <= 2.25 * 8 * N, f"{peak / (8 * N):.2f} grid arrays"
