import numpy as np
import pytest

from mixorder import (
    AuditError,
    Direction,
    Grid,
    InsufficientDomainError,
    InvalidSampleError,
    Monotonicity,
    OrderKind,
    PairSample,
    ParameterError,
    auto_grid,
    check_aging_faster_rhr,
    check_likelihood_ratio,
    check_order,
    check_reversed_hazard,
    check_usual_stochastic,
    classify_monotonicity,
    get_scenario,
    implication_audit,
    scenario_grid,
)
from mixorder.analysis import OrderVerdict


# ---------------------------------------------------------------- classifier


def test_classify_constant():
    x = np.arange(5.0)
    v = classify_monotonicity(x, np.full(5, 3.0))
    assert v.classification is Monotonicity.CONSTANT
    assert v.witness_up is None and v.witness_down is None


def test_classify_square_nonmonotone_with_witnesses():
    x = np.linspace(-1.0, 1.0, 21)
    v = classify_monotonicity(x, x**2)
    assert v.classification is Monotonicity.NON_MONOTONE
    assert v.witness_down < 0.0 < v.witness_up
    # brute force over the 20 differences
    d = np.diff(x**2)
    assert v.max_up == pytest.approx(d.max())
    assert v.max_down == pytest.approx(-d.min())


def test_classify_linear():
    x = np.linspace(0.0, 1.0, 11)
    assert classify_monotonicity(x, x).classification is Monotonicity.NON_DECREASING
    assert classify_monotonicity(x, -x).classification is Monotonicity.NON_INCREASING


def test_classify_matches_brute_force_on_random_sequences():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(3, 40))
        x = np.sort(rng.uniform(0.0, 10.0, size=n))
        x += np.arange(n) * 1e-9  # enforce strict increase
        vals = rng.normal(size=n)
        rel_tol = 10.0 ** rng.uniform(-12, -1)
        verdict = classify_monotonicity(x, vals, rel_tol=rel_tol)
        tol = rel_tol * np.max(np.abs(vals))
        d = np.diff(vals)
        up_ok = bool(np.all(d >= -tol))
        down_ok = bool(np.all(d <= tol))
        expected = (
            Monotonicity.CONSTANT if up_ok and down_ok
            else Monotonicity.NON_DECREASING if up_ok
            else Monotonicity.NON_INCREASING if down_ok
            else Monotonicity.NON_MONOTONE
        )
        assert verdict.classification is expected


def test_classify_rejects_bad_input():
    with pytest.raises(InvalidSampleError) as exc:
        classify_monotonicity([1.0, 2.0, 3.0], [0.0, np.nan, 1.0])
    assert exc.value.index == 1
    with pytest.raises(InsufficientDomainError):
        classify_monotonicity([1.0, 2.0], [0.0, 1.0])
    with pytest.raises(ParameterError):
        classify_monotonicity([1.0, 1.0, 2.0], [0.0, 1.0, 2.0])


def test_grid_validation():
    with pytest.raises(ParameterError):
        Grid(2.0, 1.0, 10)
    with pytest.raises(ParameterError):
        Grid(0.0, 1.0, 2)
    with pytest.raises(ParameterError):
        Grid(-1.0, 1.0, 10, "logarithmic")
    g = Grid(1.0, 100.0, 5, "logarithmic")
    assert g.points()[0] == pytest.approx(1.0)
    assert g.points()[-1] == pytest.approx(100.0)


# ---------------------------------------------------------------- checkers


def _pair(scenario_id):
    s = get_scenario(scenario_id)
    u, v = s.mixtures()
    return u, v, scenario_grid(s)


def test_reflexivity_all_checkers():
    u, _, grid = _pair("EX4.1")
    assert check_usual_stochastic(PairSample(u, u, grid)).direction is Direction.BOTH
    rh = check_reversed_hazard(PairSample(u, u, grid))
    assert rh.direction is Direction.BOTH
    assert rh.ratio_classification.classification is Monotonicity.CONSTANT
    assert check_likelihood_ratio(PairSample(u, u, grid)).direction is Direction.BOTH
    r = check_aging_faster_rhr(PairSample(u, u, grid))
    assert r.ratio_classification.classification is Monotonicity.CONSTANT


def test_usual_stochastic_on_catalog_pairs():
    u, v, grid = _pair("EX4.1")
    verdict = check_usual_stochastic(PairSample(u, v, grid))
    assert verdict.direction is Direction.U_LEQ_V
    assert verdict.violation_witness is None

    u, v, grid = _pair("CE4.1")
    verdict = check_usual_stochastic(PairSample(u, v, grid))
    assert verdict.direction is Direction.NEITHER
    w = verdict.violation_witness
    assert w is not None
    # the recorded witness is a genuine dominance violation
    assert w.value_u < w.value_v - 1e-12


def test_swap_symmetry():
    u, v, grid = _pair("EX4.1")
    assert check_usual_stochastic(PairSample(v, u, grid)).direction is Direction.V_LEQ_U
    u, v, grid = _pair("EX4.2")
    assert check_reversed_hazard(PairSample(v, u, grid)).direction is Direction.V_LEQ_U


def test_reversed_hazard_catalog():
    u, v, grid = _pair("EX4.2")
    verdict = check_reversed_hazard(PairSample(u, v, grid))
    assert verdict.direction is Direction.U_LEQ_V
    assert verdict.ratio_classification.classification is Monotonicity.NON_DECREASING
    assert verdict.pointwise_agrees is True

    u, v, grid = _pair("CE4.2")
    verdict = check_reversed_hazard(PairSample(u, v, grid))
    assert verdict.direction is Direction.NEITHER
    assert verdict.ratio_classification.classification is Monotonicity.NON_MONOTONE
    assert verdict.violation_witness is not None


def test_likelihood_ratio_catalog():
    u, v, grid = _pair("EX4.3")
    assert check_likelihood_ratio(PairSample(u, v, grid)).direction is Direction.U_LEQ_V

    u, v, grid = _pair("CE4.4")
    verdict = check_likelihood_ratio(PairSample(u, v, grid))
    assert verdict.ratio_classification.classification is Monotonicity.NON_MONOTONE

    # the reversed direction: first mixture dominates
    u, v, grid = _pair("EX5.6")
    assert check_likelihood_ratio(PairSample(u, v, grid)).direction is Direction.V_LEQ_U


def test_aging_faster_catalog_and_readings():
    u, v, grid = _pair("EX5.7")
    verdict = check_aging_faster_rhr(PairSample(u, v, grid))
    assert verdict.ratio_classification.classification is Monotonicity.NON_INCREASING
    assert "definition" in verdict.readings
    assert "theorem_usage" in verdict.readings

    u, v, grid = _pair("CE5.9")
    verdict = check_aging_faster_rhr(PairSample(u, v, grid))
    assert verdict.ratio_classification.classification is Monotonicity.NON_MONOTONE


def test_insufficient_domain():
    u, v, _ = _pair("EX4.1")
    with pytest.raises(InsufficientDomainError):
        check_reversed_hazard(PairSample(u, v, Grid(0.1, 2.0, 50)))  # below both supports


def test_tolerance_monotonicity_on_catalog(catalog):
    # enlarging tolerance may only move verdicts toward holding
    rank = {
        Direction.NEITHER: frozenset(),
        Direction.U_LEQ_V: frozenset({"uv"}),
        Direction.V_LEQ_U: frozenset({"vu"}),
        Direction.BOTH: frozenset({"uv", "vu"}),
    }
    for s in catalog:
        u, v = s.mixtures()
        grid = scenario_grid(s)
        held = []
        for tol in (1e-12, 1e-9, 1e-6):
            if s.order is OrderKind.ST:
                verdict = check_order(s.order, u, v, grid, tol=tol)
            else:
                verdict = check_order(s.order, u, v, grid, rel_tol=tol)
            held.append(rank[verdict.direction])
        assert held[0] <= held[1] <= held[2], s.scenario_id


def test_rh_dual_agreement_across_catalog(catalog):
    # the ratio test and the pointwise comparison never disagree
    for s in catalog:
        u, v = s.mixtures()
        verdict = check_reversed_hazard(PairSample(u, v, scenario_grid(s)))
        assert verdict.pointwise_agrees in (True, None), s.scenario_id


def test_auto_grid_window():
    u, v, _ = _pair("EX4.1")
    grid = auto_grid(u, v)
    assert grid.x_lo > max(u.support_start, v.support_start)
    assert u.cdf(grid.x_hi) >= 1.0 - 2e-6
    assert v.cdf(grid.x_hi) >= 1.0 - 2e-6


# ---------------------------------------------------------------- audit


def test_audit_consistent_on_catalog_chain():
    u, v, grid = _pair("EX4.3")
    st = check_usual_stochastic(PairSample(u, v, grid), pair_id="EX4.3")
    rh = check_reversed_hazard(PairSample(u, v, grid), pair_id="EX4.3")
    lr = check_likelihood_ratio(PairSample(u, v, grid), pair_id="EX4.3")
    audit = implication_audit(st, rh, lr)
    assert audit.consistent


def _fake(order, direction, pair="p", sig=(0.0, 1.0, 11, "linear")):
    return OrderVerdict(
        order=order,
        direction=direction,
        evaluated_range=(0.0, 1.0),
        points_used=11,
        grid_signature=sig,
        pair_id=pair,
    )


def test_audit_flags_inconsistency():
    audit = implication_audit(
        _fake(OrderKind.ST, Direction.NEITHER),
        _fake(OrderKind.RH, Direction.NEITHER),
        _fake(OrderKind.LR, Direction.U_LEQ_V),
    )
    assert not audit.consistent
    assert any("lr" in f for f in audit.failures)


def test_audit_direction_both_counts_as_holding():
    audit = implication_audit(
        _fake(OrderKind.ST, Direction.BOTH),
        _fake(OrderKind.RH, Direction.U_LEQ_V),
        _fake(OrderKind.LR, Direction.U_LEQ_V),
    )
    assert audit.consistent


def test_audit_rejects_mismatched_inputs():
    with pytest.raises(AuditError, match="different pairs"):
        implication_audit(
            _fake(OrderKind.ST, Direction.BOTH, pair="a"),
            _fake(OrderKind.RH, Direction.BOTH, pair="b"),
            _fake(OrderKind.LR, Direction.BOTH, pair="a"),
        )
    with pytest.raises(AuditError, match="different grids"):
        implication_audit(
            _fake(OrderKind.ST, Direction.BOTH),
            _fake(OrderKind.RH, Direction.BOTH, sig=(0.0, 2.0, 11, "linear")),
            _fake(OrderKind.LR, Direction.BOTH),
        )
    with pytest.raises(AuditError, match="expected"):
        implication_audit(
            _fake(OrderKind.RH, Direction.BOTH),
            _fake(OrderKind.RH, Direction.BOTH),
            _fake(OrderKind.LR, Direction.BOTH),
        )
