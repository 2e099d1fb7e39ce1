"""Each order check reads its sample's cached curves without whole-grid
float temporaries: above the filled sample, the check's traced peak
(``tracemalloc``) at 100001 points is at most 2.25 float64 arrays over the
grid: boolean masks and ``mixture.EVAL_BLOCK``-point slices. The kept
ratio is a ``mixture.grid_buffer`` array, which maps pages of its own
that ``tracemalloc`` does not trace. The st check keeps no ratio and
compares the CDFs slice by slice, so its peak is at most 0.25 of one such
array."""

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


@pytest.mark.parametrize("scenario_id", ["EX4.1", "CE4.1"])
def test_st_check_peak_above_the_filled_sample_is_at_most_a_quarter_grid_array(scenario_id):
    # EX4.1 holds in one direction; CE4.1 holds in neither, so it takes a witness
    scenario = get_scenario(scenario_id)
    assert scenario.order is OrderKind.ST
    sample = PairSample(*scenario.mixtures(), scenario_grid(scenario, N))
    sample.fill("cdf")
    tracemalloc.start()
    try:
        CHECKERS[OrderKind.ST](sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 8 * N, f"{peak / (8 * N):.2f} grid arrays"
