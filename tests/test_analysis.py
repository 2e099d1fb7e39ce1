import dataclasses

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from mixorder import (
    AuditError,
    Direction,
    ELSComponent,
    FiniteMixture,
    Grid,
    InsufficientDomainError,
    InvalidSampleError,
    Monotonicity,
    OrderKind,
    PairSample,
    ParameterError,
    auto_grid,
    build_outlier_mixture,
    check_aging_faster_rhr,
    check_likelihood_ratio,
    check_order,
    check_reversed_hazard,
    check_usual_stochastic,
    classify_monotonicity,
    get_scenario,
    implication_audit,
    make_baseline,
    scenario_grid,
)
from mixorder._sampling import THEOREM_SAMPLERS, random_baseline, random_mixture, random_pair
from mixorder.analysis import (
    CHECKERS,
    DEFAULT_REL_TOL,
    UPPER_QUANTILE,
    MonotonicityVerdict,
    OrderVerdict,
    _ratio_verdict,
)
from mixorder.mixture import EVAL_BLOCK


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


@pytest.mark.parametrize("x", [[np.nan, np.nan, np.nan], [0.0, 1.0, np.nan], [0.0, np.inf, np.inf],
                               [-np.inf, -np.inf, 0.0]])
def test_classify_rejects_abscissae_that_are_nan_or_repeat_an_infinity(x, recwarn):
    with pytest.raises(ParameterError, match="strictly increasing"):
        classify_monotonicity(x, [0.0, 1.0, 2.0])
    assert not recwarn.list


def _classify_reference(x, values, rel_tol):
    """The classifier as it was before it formed only the two witness
    midpoints and dropped its abs and not-finite temporaries; kept to pin
    the bits of every verdict field."""
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape != values.shape:
        raise ParameterError("samples must be two matching 1-d arrays")
    if x.size < 3:
        raise InsufficientDomainError(f"need at least 3 samples, got {x.size}")
    if np.any(np.diff(x) <= 0):
        raise ParameterError("sample abscissae must be strictly increasing")
    bad = ~np.isfinite(values)
    if bad.any():
        idx = int(np.argmax(bad))
        raise InvalidSampleError(
            f"non-finite sample value {values[idx]!r} at index {idx} (x={x[idx]!r})", index=idx)
    diffs = np.diff(values)
    scale = float(np.max(np.abs(values)))
    tol = rel_tol * scale
    max_up = float(np.max(diffs, initial=0.0))
    max_down = float(-np.min(diffs, initial=0.0))
    mids = 0.5 * (x[:-1] + x[1:])
    witness_up = float(mids[int(np.argmax(diffs))]) if max_up > tol else None
    witness_down = float(mids[int(np.argmin(diffs))]) if max_down > tol else None
    up_ok, down_ok = max_down <= tol, max_up <= tol
    cls = (Monotonicity.CONSTANT if up_ok and down_ok else Monotonicity.NON_DECREASING if up_ok
           else Monotonicity.NON_INCREASING if down_ok else Monotonicity.NON_MONOTONE)
    return MonotonicityVerdict(cls, max_up, max_down, witness_up, witness_down, rel_tol, scale)


def _verdict_hex(verdict):
    return {f.name: (v.hex() if isinstance(v, float) else v)
            for f in dataclasses.fields(verdict) for v in [getattr(verdict, f.name)]}


_SAMPLE = st.one_of(st.floats(-1e300, 1e300),
                    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-300]))


@st.composite
def classify_inputs(draw):
    """(x, values, rel_tol): strictly increasing abscissae with finite values,
    flat or signed-zero runs among them; or one of the rejected inputs: too
    few points, a repeated abscissa, mismatched lengths, a non-finite value."""
    kind = draw(st.sampled_from(["valid", "valid", "flat", "short", "repeat", "mismatch",
                                 "nonfinite"]))
    n = draw(st.integers(0, 2)) if kind == "short" else draw(st.integers(3, 24))
    steps = draw(st.lists(st.floats(1e-12, 1e3), min_size=n, max_size=n))
    x = draw(st.floats(-1e3, 1e3)) + np.cumsum(steps)
    if kind == "flat":
        values = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 2.5]), min_size=n,
                                        max_size=n)))
    else:
        values = np.array(draw(st.lists(_SAMPLE, min_size=n, max_size=n)))
    if kind == "repeat":
        i = draw(st.integers(1, n - 1))
        x[i] = x[i - 1]
    elif kind == "mismatch":
        values = values[:-1]
    elif kind == "nonfinite":
        values[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return x, values, draw(st.sampled_from([0.0, 1e-12, DEFAULT_REL_TOL, 1e-4, 0.5]))


@settings(max_examples=400)
@given(inputs=classify_inputs())
def test_classify_matches_the_reference_bit_for_bit(inputs):
    x, values, rel_tol = inputs
    try:
        want = _classify_reference(x, values, rel_tol)
    except (ParameterError, InsufficientDomainError, InvalidSampleError) as exc:
        with pytest.raises(type(exc)) as got:
            classify_monotonicity(x, values, rel_tol=rel_tol)
        assert str(got.value) == str(exc)
        assert getattr(got.value, "index", None) == getattr(exc, "index", None)
        return
    assert _verdict_hex(classify_monotonicity(x, values, rel_tol=rel_tol)) == _verdict_hex(want)


@pytest.mark.parametrize("trend", ["mixed", "non_decreasing"])
def test_classify_long_sequences_match_the_reference_bit_for_bit(trend):
    # the steps are scanned EVAL_BLOCK at a time; integer values make the
    # extremal steps tie exactly, across blocks and on a block's last step,
    # and the first of them must give the witness
    rng = np.random.default_rng(5)
    n = 3 * EVAL_BLOCK + 5
    x = np.cumsum(rng.uniform(0.5, 1.5, n))
    steps = rng.integers(-5, 6, n - 1).astype(float)
    steps[[EVAL_BLOCK - 1, 2 * EVAL_BLOCK + 3]] = 9.0
    steps[[EVAL_BLOCK, n - 2]] = -9.0
    if trend == "non_decreasing":
        steps = np.abs(steps)
    values = np.concatenate([[0.0], np.cumsum(steps)])
    got = classify_monotonicity(x, values)
    assert got.classification is Monotonicity(trend if trend != "mixed" else "non_monotone")
    assert _verdict_hex(got) == _verdict_hex(_classify_reference(x, values, DEFAULT_REL_TOL))


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


# ------------------------------------------------------- generated pairs

_SEEDS = st.integers(0, 2**32 - 1)
_MIRROR = {Direction.U_LEQ_V: Direction.V_LEQ_U, Direction.V_LEQ_U: Direction.U_LEQ_V,
           Direction.BOTH: Direction.BOTH, Direction.NEITHER: Direction.NEITHER}


def _generated_pair(seed):
    """Two ``random_mixture`` draws over one random baseline, sampled both
    ways round on their 201-point auto grid."""
    rng = np.random.default_rng(seed)
    baseline = random_baseline(rng)
    u, v = random_mixture(rng, baseline), random_mixture(rng, baseline)
    grid = auto_grid(u, v, 201)
    return PairSample(u, v, grid), PairSample(v, u, grid)


@given(seed=_SEEDS)
def test_equal_generated_mixtures_give_both(seed):
    u = random_mixture(np.random.default_rng(seed))
    sample = PairSample(u, u, auto_grid(u, u, 201))
    for check in CHECKERS.values():
        try:
            verdict = check(sample)
        except InsufficientDomainError:
            # a linear grid over a heavy tail can leave a density above the
            # floor at fewer than 3 points; the checker then refuses
            continue
        assert verdict.direction is Direction.BOTH
        if verdict.ratio_classification is not None:
            assert verdict.ratio_classification.classification is Monotonicity.CONSTANT


@given(seed=_SEEDS)
def test_swap_mirrors_st_direction(seed):
    uv, vu = _generated_pair(seed)
    assert check_usual_stochastic(vu).direction is _MIRROR[check_usual_stochastic(uv).direction]


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="classify_monotonicity weighs every step against rel_tol * max|ratio|, so "
           "where the ratio spans orders of magnitude one orientation passes rises "
           "that the other flags (ROADMAP item 1)",
)
# lt_exponential: f_V/f_U climbs 0.05 near its tail, which the (U, V) check
# passes as non-increasing because the ratio reaches 5e9 at the support start
@example(seed=286)
@settings(phases=(Phase.explicit, Phase.generate))
@given(seed=_SEEDS)
def test_swap_mirrors_ratio_directions(seed):
    """rh and lr mirror under a swap wherever both orientations classify
    the same grid points; each checker keeps only the points where its own
    denominator clears the floor."""
    uv, vu = _generated_pair(seed)
    for check, keep, keep_vu in ((check_reversed_hazard, uv.rh_domain, vu.rh_domain),
                                 (check_likelihood_ratio, uv.lr_domain, vu.lr_domain)):
        if np.array_equal(keep, keep_vu) and np.count_nonzero(keep) >= 3:
            assert check(vu).direction is _MIRROR[check(uv).direction], check.__name__


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
    # the witness carries each mixture's reversed hazard rate f/F at its point
    w = verdict.violation_witness
    assert w.value_u == u.pdf(w.x) / u.cdf(w.x)
    assert w.value_v == v.pdf(w.x) / v.cdf(w.x)


def test_ratio_domain_as_one_run_or_with_gaps_classifies_the_kept_points():
    # a domain that is one run of points is read as views, any other is
    # copied out; both classify the kept points alone
    sample = PairSample(*_pair("CE4.22"))
    ratio, n = sample.pdf_ratio, sample.x.size
    middle = np.zeros(n, dtype=bool)
    middle[100:n - 50] = True
    gaps = middle.copy()
    gaps[[500, 1001, 1002]] = False
    for keep in (sample.lr_domain, middle, gaps):
        verdict = _ratio_verdict(OrderKind.LR, sample, keep, ratio, DEFAULT_REL_TOL, "", ("pdf",))
        xs = sample.x[keep]
        assert verdict.ratio_classification == classify_monotonicity(xs, ratio[keep])
        assert (verdict.points_used, verdict.evaluated_range) == (xs.size, (xs[0], xs[-1]))


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


def _upper_ends(u, v, monkeypatch):
    """(auto_grid(u, v).x_hi, the max of both upper quantiles, the roots
    auto_grid ran)."""
    quantile = FiniteMixture.quantile
    roots = []

    def counting(self, p, component_quantiles=None):
        roots.append(self)
        return quantile(self, p, component_quantiles)

    with monkeypatch.context() as m:
        m.setattr(FiniteMixture, "quantile", counting)
        x_hi = auto_grid(u, v).x_hi
    return x_hi, max(quantile(u, UPPER_QUANTILE), quantile(v, UPPER_QUANTILE)), roots


@given(seed=st.integers(0, 2**32 - 1))
def test_auto_grid_end_is_the_larger_quantile_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for u, v in ((random_mixture(rng), random_mixture(rng)), random_pair(rng)):
            x_hi, expected, roots = _upper_ends(u, v, monkeypatch)
            assert x_hi.hex() == expected.hex()
            assert len(roots) in (1, 2)


@pytest.mark.parametrize("theorem", ["T4.1", "T4.2"])
def test_auto_grid_end_on_the_outlier_sweep_draws(monkeypatch, theorem):
    # the draws of the soundness sweep, whose pairs share every component
    rng = np.random.default_rng(42)
    for _ in range(500):
        u, v = (build_outlier_mixture(spec) for spec in THEOREM_SAMPLERS[theorem](rng))
        x_hi, expected, _ = _upper_ends(u, v, monkeypatch)
        assert x_hi.hex() == expected.hex()


def _component_quantile_calls(monkeypatch):
    """List that gets the component of each ``ELSComponent.quantile`` call."""
    quantile, calls = ELSComponent.quantile, []

    def counting(self, p):
        calls.append(self)
        return quantile(self, p)

    monkeypatch.setattr(ELSComponent, "quantile", counting)
    return calls


@given(seed=st.integers(0, 2**32 - 1))
def test_auto_grid_takes_each_component_quantile_once(seed):
    # the quantiles that order the two mixtures also bracket their roots
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _component_quantile_calls(monkeypatch)
        for u, v in ((random_mixture(rng), random_mixture(rng)), random_pair(rng)):
            calls.clear()
            auto_grid(u, v)
            assert calls == [*u.components, *v.components]


def test_auto_grid_roots_each_t41_sweep_draw_once(monkeypatch):
    # the T4.1 pairs share both components, so their top component quantiles
    # tie; the excess at that quantile picks the mixture to root, and the
    # other's root is skipped
    rng = np.random.default_rng(42)
    for _ in range(500):
        u, v = (build_outlier_mixture(spec) for spec in THEOREM_SAMPLERS["T4.1"](rng))
        x_hi, expected, roots = _upper_ends(u, v, monkeypatch)
        assert x_hi.hex() == expected.hex() and len(roots) == 1


@given(seed=st.integers(0, 2**32 - 1))
def test_auto_grid_roots_a_tie_twice(seed):
    u = random_mixture(np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as monkeypatch:
        x_hi, expected, roots = _upper_ends(u, u, monkeypatch)
    # the partner's excess at the first root is about 0: both are rooted
    assert x_hi.hex() == expected.hex() and roots == [u, u]


def test_auto_grid_roots_once_when_one_cdf_settles_the_order(monkeypatch):
    # v is u moved right by 5, so v has the larger top component quantile
    # and is rooted first; u's CDF there is far above the level, so u's
    # root is skipped, whichever side u is on
    base = make_baseline("lt_exponential", b=1.0, t0=1.0)
    u = FiniteMixture([ELSComponent(base, 2.0, 0.0, 1.0), ELSComponent(base, 0.5, 1.0, 1.0)],
                      (0.5, 0.5))
    v = FiniteMixture([ELSComponent(c.baseline, c.alpha, c.sigma + 5.0, c.lam)
                       for c in u.components], (0.5, 0.5))
    for pair, rooted in (((u, v), v), ((v, u), v)):
        x_hi, expected, roots = _upper_ends(*pair, monkeypatch)
        assert x_hi.hex() == expected.hex() and roots == [rooted]


# ---------------------------------------------------------------- audit


def test_audit_consistent_on_catalog_chain():
    u, v, grid = _pair("EX4.3")
    sample = PairSample(u, v, grid)
    st = check_usual_stochastic(sample, pair_id="EX4.3")
    rh = check_reversed_hazard(sample, pair_id="EX4.3")
    lr = check_likelihood_ratio(sample, pair_id="EX4.3")
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
