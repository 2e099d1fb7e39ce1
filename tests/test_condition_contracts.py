"""Contracts of the condition evaluators that their reports alone do not show.

Each evaluator reaches the three baseline checks and ``classify_monotonicity``
through the ``conditions`` module globals at call time, so a wrapper set there
sees every call; the benchmark's tracer counts them that way. A report runs
its baseline checks in a fixed order on one grid, and only after its shape
checks. A constant vector lies in both cones: a single-cone hypothesis
accepts it, and a joint branch reads it as ``E_plus``.
"""

import json

import numpy as np
import pytest

from mixorder import (
    ELSComponent,
    FiniteMixture,
    OutlierMixtureSpec,
    TheoremShapeError,
    evaluate_theorem,
    eval_theorem_3_1,
    eval_theorem_3_4,
    eval_theorem_4_1,
    make_baseline,
)
from mixorder import conditions
from mixorder.conditions import THEOREM_EVALUATORS
from mixorder.reporting import to_jsonable

CHECKS = ("check_t_rhr_decreasing", "check_t_logpdf_slope_decreasing",
          "check_logpdf_slope_increasing")

#: the baseline checks each theorem's report runs, in order
EXPECTED_CHECKS = {
    "T3.1": [],
    "T3.2": ["check_t_rhr_decreasing"],
    "T3.3": [],
    "T3.4": [],
    "T4.1": ["check_t_rhr_decreasing"],
    "T4.2": ["check_t_rhr_decreasing", "check_t_logpdf_slope_decreasing"],
    "T4.3": ["check_t_rhr_decreasing", "check_logpdf_slope_increasing"],
}


def _catalog_reports(catalog):
    """(label, report JSON or the TheoremShapeError text) of every catalog
    scenario under every theorem."""
    out = []
    for scenario in catalog:
        for tid in THEOREM_EVALUATORS:
            try:
                out.append(((scenario.scenario_id, tid),
                            json.dumps(to_jsonable(evaluate_theorem(scenario, tid)))))
            except TheoremShapeError as exc:
                out.append(((scenario.scenario_id, tid), f"raises {exc}"))
    return out


def test_evaluators_reach_the_checks_through_module_globals(monkeypatch, catalog):
    unwrapped = _catalog_reports(catalog)
    checks, grids = [], []

    def counting(name):
        check = getattr(conditions, name)
        return lambda *args, **kwargs: checks.append(name) or check(*args, **kwargs)

    classify = conditions.classify_monotonicity

    def counting_classify(x, values, **kwargs):
        grids.append(np.array(x))
        return classify(x, values, **kwargs)

    for name in CHECKS:
        monkeypatch.setattr(conditions, name, counting(name))
    monkeypatch.setattr(conditions, "classify_monotonicity", counting_classify)
    seen = set()
    for scenario in catalog:
        for tid in THEOREM_EVALUATORS:
            checks.clear()
            grids.clear()
            try:
                evaluate_theorem(scenario, tid)
            except TheoremShapeError:
                # shape checks come first: a report that raises runs no check
                assert (checks, grids) == ([], []), (scenario.scenario_id, tid)
                continue
            seen.add(tid)
            assert checks == EXPECTED_CHECKS[tid], (scenario.scenario_id, tid)
            assert len(grids) == len(checks), (scenario.scenario_id, tid)
            # one baseline grid per report
            assert all(np.array_equal(g, grids[0]) for g in grids), (scenario.scenario_id, tid)
    assert seen == set(THEOREM_EVALUATORS)
    assert _catalog_reports(catalog) == unwrapped


@pytest.fixture(scope="module")
def loglogistic():
    return make_baseline("loglogistic", b=2.0)


def test_constant_weights_and_shapes_lie_in_both_single_cones(loglogistic):
    u = FiniteMixture([ELSComponent(loglogistic, 2.0, 1.0, 1.0)] * 2, [0.5, 0.5])
    v = FiniteMixture([ELSComponent(loglogistic, 2.0, 1.5, 2.0)] * 2, [0.5, 0.5])
    rep = eval_theorem_3_4(u, v)
    assert rep.item("weights_in_D_plus").passed
    assert rep.item("shapes_in_E_plus").passed
    assert rep.all_pass


def test_constant_location_and_scale_read_as_the_e_plus_branch(loglogistic):
    u = FiniteMixture([ELSComponent(loglogistic, a, 1.0, 2.0) for a in (1.0, 2.0)], [0.5, 0.5])
    v = FiniteMixture([ELSComponent(loglogistic, a, 1.5, 3.0) for a in (1.5, 2.5)], [0.5, 0.5])
    rep = eval_theorem_3_1(u, v)
    assert rep.notes["cone_branch"] == "E_plus"
    assert rep.item("location_scale_cone").passed
    assert rep.all_pass


def test_constant_outlier_pair_takes_the_e_plus_product_inequality(loglogistic):
    c = ELSComponent(loglogistic, 2.0, 1.0, 2.0)
    # lhs = 0.2*0.7 = 0.14 < 0.24 = 0.8*0.3: the E_plus branch needs lhs >= rhs
    su = OutlierMixtureSpec(1, 1, 0.2, 0.8, c, c)
    sv = OutlierMixtureSpec(1, 1, 0.3, 0.7, c, c)
    rep = eval_theorem_4_1(su, sv)
    assert rep.notes["cone_branch"] == "E_plus"
    assert rep.item("parameter_cones").passed
    product = rep.item("weight_product")
    assert " >= " in product.detail and not product.passed
    assert eval_theorem_4_1(sv, su).item("weight_product").passed
