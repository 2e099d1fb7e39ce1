import collections
import math
import re

import numpy as np
import pytest

from mixorder import (
    BaselineModel,
    DomainError,
    ELSComponent,
    FiniteMixture,
    OutlierMixtureSpec,
    ParameterError,
    QuadratureError,
    WeightError,
    WeightPolicy,
    auto_grid,
    build_outlier_mixture,
    get_scenario,
    make_baseline,
    verify_normalization,
)
from mixorder import mixture
from mixorder.numerics import brent_root, central_difference


def ex41_mixture_u():
    return get_scenario("EX4.1").mixtures()[0]


def test_linearity_against_compensated_sum():
    mix = ex41_mixture_u()
    for x in (5.0, 12.0, 20.0, 77.0):
        expected = math.fsum(
            w * c.cdf(x) for w, c in zip(mix.weights, mix.components)
        )
        assert mix.cdf(x) == pytest.approx(expected, rel=1e-15)


def test_single_component_degenerate():
    comp = ELSComponent(make_baseline("pareto", a=5.0, k=1.0), 2.0, 1.0, 2.0)
    mix = FiniteMixture((comp,), (1.0,))
    x = np.linspace(3.5, 30.0, 64)
    assert np.array_equal(mix.cdf(x), comp.cdf(x))
    assert np.array_equal(mix.pdf(x), comp.pdf(x))


def test_below_support_and_tail():
    mix = ex41_mixture_u()
    assert mix.cdf(2.0) == 0.0
    assert 1.0 - mix.cdf(2.0) == 1.0
    q = mix.quantile(1.0 - 1e-8)
    assert mix.cdf(q) >= 1.0 - 2e-8


def test_mixture_values_frozen_oracles():
    # term-by-term 50-digit evaluations of the weighted sums
    u = ex41_mixture_u()
    assert u.cdf(20.0) == pytest.approx(0.99749259425058636315, rel=1e-14)
    assert 1.0 - u.cdf(20.0) == pytest.approx(0.0025074057494136368455, rel=1e-11)

    ce422_u = get_scenario("CE4.22").mixtures()[0]
    assert ce422_u.pdf(30.0) == pytest.approx(0.004955520842030277654, rel=1e-13)

    ex55_u = get_scenario("EX5.5").mixtures()[0]
    assert ex55_u.pdf(20.0) / ex55_u.cdf(20.0) == pytest.approx(0.022068070287955880602, rel=1e-12)


def test_cdf_monotone_on_grid():
    u = ex41_mixture_u()
    x = np.linspace(2.0, 200.0, 3001)
    assert np.all(np.diff(u.cdf(x)) >= -1e-15)


def test_pdf_is_cdf_derivative():
    rng = np.random.default_rng(9)
    u = ex41_mixture_u()
    breaks = np.asarray(u.support_breaks)
    hi = u.quantile(0.999)
    checked = 0
    while checked < 100:
        t = rng.uniform(u.support_start, hi)
        h = 1e-5 * max(1.0, abs(t))
        if np.min(np.abs(breaks - t)) < 100 * h:
            continue
        checked += 1
        assert float(central_difference(u.cdf, t)) == pytest.approx(
            u.pdf(t), rel=1e-6
        )


def test_weight_policy_strict():
    comp = ELSComponent(make_baseline("pareto", a=5.0, k=1.0), 2.0, 1.0, 2.0)
    with pytest.raises(WeightError, match="strict"):
        FiniteMixture((comp, comp), (0.3, 0.4))
    with pytest.raises(WeightError):
        FiniteMixture((comp,), (-1.0,))


def test_weight_policy_autonormalize_records_raw_sum():
    comp = ELSComponent(make_baseline("pareto", a=5.0, k=1.0), 2.0, 1.0, 2.0)
    other = ELSComponent(make_baseline("pareto", a=5.0, k=1.0), 3.0, 2.0, 1.0)
    mix = FiniteMixture((comp, other), (0.3, 0.4), policy=WeightPolicy.AUTO_NORMALIZE)
    assert mix.raw_sum == pytest.approx(0.7, abs=1e-15)
    assert mix.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_rhr_weight_scale_invariance():
    scenario = get_scenario("EX4.1")
    u, _ = scenario.mixtures()
    scaled = FiniteMixture(
        u.components, 7.3 * u.raw_weights, policy=WeightPolicy.AUTO_NORMALIZE
    )
    x = np.linspace(9.5, 60.0, 101)
    assert np.allclose(scaled.pdf(x) / scaled.cdf(x), u.pdf(x) / u.cdf(x), rtol=1e-12)


def test_normalization_catalog_spot_checks():
    # the alpha = 0.1 component is the stress case for the edge handling
    u, v = get_scenario("EX4.2").mixtures()
    for mix in (u, v):
        rep = verify_normalization(mix, tol=1e-6)
        assert rep.passed, rep


@pytest.mark.xfail(
    strict=True, reason="adaptive Simpson accepts a wrong panel at its 1e-9 panel tolerance"
)
@pytest.mark.parametrize("index", [0, 1])
def test_normalization_of_false_convergence_mixtures(false_convergence_mixtures, index):
    # integrals 0.9999983 and 0.9999909 for valid mixtures; passes once fixed
    assert verify_normalization(false_convergence_mixtures[index], tol=1e-6).passed


def test_pdf_at_offset_array_matches_scalar(catalog):
    dx = np.geomspace(1e-12, 20.0, 60)
    rng = np.random.default_rng(3)
    for s in catalog:
        for mix in s.mixtures():
            for origin in mix.support_breaks:
                vec = mix.pdf_at_offset(origin, dx)
                assert np.array_equal(vec, [mix.pdf_at_offset(origin, d) for d in dx])
            # per-point origins drawn from the support breaks
            origins = rng.choice(mix.support_breaks, size=dx.size)
            vec = mix.pdf_at_offset(origins, dx)
            assert np.array_equal(vec, [mix.pdf_at_offset(o, d) for o, d in zip(origins, dx)])


def test_normalization_error_names_the_first_unconverged_segment(monkeypatch):
    # EX4.2 U (breaks 5, 8, 13; alpha = 0.1 from 8) is the deepest normalization
    u, _ = get_scenario("EX4.2").mixtures()
    # (depth cap, first unconverged segment, estimate recorded when each
    # segment was integrated by its own quadrature)
    cases = ((4, "[5.0, 8.0]", "0x1.64cc7ac206f9bp-4"),
             (8, "[8.0, 13.0]", "0x1.cbb269065315ep-2"))
    for depth, segment, estimate in cases:
        monkeypatch.setattr(mixture, "_MAX_DEPTH", depth)
        with pytest.raises(QuadratureError, match=re.escape(
                f"normalization quadrature did not converge on {segment}")) as info:
            verify_normalization(u, tol=1e-6)
        assert math.isfinite(info.value.estimate)
        assert info.value.estimate == float.fromhex(estimate)


def test_normalization_autonormalized_weights():
    comp = ELSComponent(make_baseline("pareto", a=5.0, k=1.0), 2.0, 1.0, 2.0)
    other = ELSComponent(make_baseline("pareto", a=5.0, k=1.0), 0.7, 2.0, 1.0)
    mix = FiniteMixture((comp, other), (0.3, 0.4), policy=WeightPolicy.AUTO_NORMALIZE)
    rep = verify_normalization(mix, tol=1e-6)
    assert rep.passed


def test_normalization_single_unit_shape():
    comp = ELSComponent(make_baseline("pareto", a=5.0, k=1.0), 1.0, 0.0, 1.0)
    rep = verify_normalization(FiniteMixture((comp,), (1.0,)), tol=1e-8)
    assert rep.passed
    assert rep.integral == pytest.approx(1.0, abs=1e-8)


def _pair_components():
    base = make_baseline("lt_burr12", k=1.5, m=5.0, t0=2.0)
    return (
        ELSComponent(base, 2.3, 5.0, 4.0),
        ELSComponent(base, 4.0, 10.0, 6.0),
    )


def test_outlier_weights_collapse():
    c1, c2 = _pair_components()
    spec = OutlierMixtureSpec(25, 8, 0.032, 0.025, c1, c2)
    mix = build_outlier_mixture(spec)
    assert mix.weights[0] == pytest.approx(0.8, abs=1e-14)
    assert mix.weights[1] == pytest.approx(0.2, abs=1e-14)

    even = OutlierMixtureSpec(1, 1, 0.5, 0.5, c1, c2)
    assert build_outlier_mixture(even).weights.tolist() == [0.5, 0.5]


def test_outlier_strict_violation_and_escape_hatch():
    c1, c2 = _pair_components()
    spec = OutlierMixtureSpec(10, 10, 0.03, 0.04, c1, c2)  # raw sum 0.7
    with pytest.raises(WeightError, match="unit-sum"):
        build_outlier_mixture(spec)
    mix = build_outlier_mixture(spec, policy=WeightPolicy.AUTO_NORMALIZE)
    assert mix.raw_sum == pytest.approx(0.7, abs=1e-15)
    assert mix.weights[0] == pytest.approx(0.3 / 0.7, rel=1e-14)


def test_outlier_spec_validation():
    c1, c2 = _pair_components()
    with pytest.raises(Exception, match="positive integer"):
        OutlierMixtureSpec(0, 1, 0.5, 0.5, c1, c2)
    with pytest.raises(Exception, match="positive"):
        OutlierMixtureSpec(1, 1, -0.5, 0.5, c1, c2)
    for r1, r2 in ((math.inf, 0.5), (0.5, math.inf), (math.nan, 0.5)):
        with pytest.raises(ParameterError, match="must be positive and finite"):
            OutlierMixtureSpec(1, 1, r1, r2, c1, c2)


def test_catalog_quantile_inside_component_bracket(catalog):
    p = 1.0 - 1e-6
    for s in catalog:
        for mix in s.mixtures():
            bracket = [c.quantile(p) for c in mix.components]
            q = mix.quantile(p)
            assert min(bracket) <= q <= max(bracket), s.scenario_id
            assert abs(mix.cdf(q) - p) <= 1e-12, s.scenario_id


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, float("nan")])
def test_quantile_level_outside_unit_interval(p):
    mix = ex41_mixture_u()
    for dist in (mix, mix.components[0], mix.components[0].baseline):
        with pytest.raises(DomainError, match="quantile level"):
            dist.quantile(p)


def test_quantile_at_the_largest_level_below_one(catalog):
    # the mixture CDF rounds to one inside the bracket here
    p = math.nextafter(1.0, 0.0)
    for s in catalog:
        for mix in s.mixtures():
            q = mix.quantile(p)
            assert math.isfinite(q) and abs(mix.cdf(q) - p) <= 2**-52, s.scenario_id


def test_single_component_quantile_is_the_component_quantile():
    comp = ELSComponent(make_baseline("loglogistic", b=0.5575809612158066), 4.36, 1.97, 3.24)
    mix = FiniteMixture((comp,), (1.0,))
    for p in (1e-9, 0.5, 1.0 - 1e-10):
        assert mix.quantile(p) == comp.quantile(p)


@pytest.mark.parametrize("shift", [0.5, 2.0])
def test_quantile_widens_a_bracket_on_the_wrong_side(monkeypatch, shift):
    # component quantiles scaled past the root on one side stand in for a
    # bracket that rounding left on the wrong side
    mix = ex41_mixture_u()
    p = 1.0 - 1e-6
    exact = mix.quantile(p)
    original = ELSComponent.quantile
    monkeypatch.setattr(ELSComponent, "quantile", lambda self, q: shift * original(self, q))
    q = mix.quantile(p)
    assert abs(mix.cdf(q) - p) <= 1e-12
    assert q == pytest.approx(exact, rel=1e-9)


def test_quantile_hands_its_bracket_values_to_the_root(monkeypatch, catalog):
    # the bracket checks already evaluated both ends; the root reuses them
    roots = []

    def checking(fn, a, b, xtol, fa=None, fb=None):
        assert (fa, fb) == (fn(a), fn(b))
        roots.append((a, b))
        return brent_root(fn, a, b, xtol, fa, fb)

    monkeypatch.setattr(mixture, "brent_root", checking)
    for s in catalog:
        for mix in s.mixtures():
            for p in (1e-6, 0.5, 1.0 - 1e-10):
                mix.quantile(p)
    assert roots


def _count_cdf_calls(monkeypatch):
    """Counter of mixture CDF calls (per mixture) and baseline CDF calls."""
    calls = collections.Counter()
    for owner, key in ((FiniteMixture, id), (BaselineModel, lambda _: "baseline")):
        original = owner.cdf

        def counting(self, x, original=original, key=key):
            calls[key(self)] += 1
            return original(self, x)

        monkeypatch.setattr(owner, "cdf", counting)
    return calls


def test_closed_form_quantiles_make_no_cdf_call(monkeypatch):
    calls = _count_cdf_calls(monkeypatch)
    for family, params in (("pareto", {"a": 2.0, "k": 4.0}),
                           ("lt_exponential", {"b": 2.0, "t0": 2.0}),
                           ("lt_burr12", {"k": 1.5, "m": 5.0, "t0": 2.0}),
                           ("lt_lomax", {"m": 5.0, "t0": 6.0}),
                           ("loglogistic", {"b": 0.9})):
        base = make_baseline(family, **params)
        for p in (1e-9, 0.5, 1.0 - 1e-10):
            base.quantile(p)
            ELSComponent(base, 0.3, 1.0, 2.0).quantile(p)
    assert not calls
    # the counter does see the families that still find a root
    make_baseline("benktander2", a=5.0, b=0.8).quantile(0.5)
    assert calls["baseline"] > 0


def test_auto_grid_cdf_calls_per_quantile(monkeypatch, catalog):
    calls = _count_cdf_calls(monkeypatch)
    for s in catalog:
        u, v = s.mixtures()
        calls.clear()
        auto_grid(u, v)
        assert calls[id(u)] <= 25 and calls[id(v)] <= 25, (s.scenario_id, calls)
