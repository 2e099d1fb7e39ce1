import math

import numpy as np
import pytest

from mixorder import (
    DomainError,
    ParameterError,
    Tabulated,
    check_logpdf_slope_increasing,
    check_t_rhr_decreasing,
    make_baseline,
)
from mixorder.analysis import Grid, Monotonicity
from mixorder.baseline import _ROOT_XTOL
from mixorder.numerics import brent_root, central_difference, expand_upper_bracket

FAMILY_CASES = [
    ("pareto", {"a": 5.0, "k": 1.0}),
    ("pareto", {"a": 2.0, "k": 4.0}),
    ("lt_exponential", {"b": 2.0, "t0": 2.0}),
    ("benktander2", {"a": 5.0, "b": 0.8}),
    ("benktander2", {"a": 2.0, "b": 0.3}),
    ("lt_burr12", {"k": 1.5, "m": 5.0, "t0": 2.0}),
    ("lt_lomax", {"m": 5.0, "t0": 6.0}),
    ("loglogistic", {"b": 0.9}),
    ("loglogistic", {"b": 4.0}),
]


#: levels of the 40-digit quantile oracle, from the far left to the far tail
ORACLE_LEVELS = (1e-9, 0.5, 1.0 - 1e-6, 1.0 - 1e-10)
CLOSED_FORM_CASES = [(fam, params) for fam, params in FAMILY_CASES if fam != "benktander2"]


def _models():
    return [(f"{fam}-{i}", make_baseline(fam, **params))
            for i, (fam, params) in enumerate(FAMILY_CASES)]


@pytest.mark.parametrize("label,model", _models())
def test_cdf_normalization_endpoints(label, model):
    c = model.support_low
    assert model.cdf(c) == 0.0
    assert model.cdf(c - 1.0) == 0.0
    hi = model.quantile(1.0 - 1e-8)
    assert model.cdf(hi) >= 1.0 - 2e-8


@pytest.mark.parametrize("label,model", _models())
def test_cdf_monotone_pdf_nonnegative(label, model):
    c = model.support_low
    t = np.linspace(c + 1e-6, model.quantile(1.0 - 1e-6), 1501)
    F = model.cdf(t)
    assert np.all(np.diff(F) >= -1e-15)
    assert np.all(model.pdf(t) >= 0.0)


@pytest.mark.parametrize("label,model", _models())
def test_pdf_matches_cdf_derivative(label, model):
    rng = np.random.default_rng(7)
    c = model.support_low
    hi = model.quantile(0.999)
    checked = 0
    while checked < 100:
        t = rng.uniform(c + 0.05 * (hi - c), hi)
        h = 1e-5 * max(1.0, abs(t))
        if t - 2 * h <= c:
            continue
        checked += 1
        num = float(central_difference(model.cdf, t))
        den = float(model.pdf(t))
        assert num == pytest.approx(den, rel=1e-6)


@pytest.mark.parametrize("label,model", _models())
def test_analytic_pdf_prime_agrees_with_central_difference(label, model):
    if isinstance(model, Tabulated):
        pytest.skip("numeric-only family")
    rng = np.random.default_rng(11)
    c = model.support_low
    hi = model.quantile(0.999)
    checked = 0
    while checked < 100:
        t = rng.uniform(c + 0.05 * (hi - c), hi)
        if t - 2e-5 * max(1.0, t) <= c:
            continue
        checked += 1
        num = float(central_difference(model.pdf, t))
        assert num == pytest.approx(float(model.pdf_prime(t)), rel=1e-5, abs=1e-12)


@pytest.mark.parametrize("label,model", _models())
def test_rhr_diverges_at_support_bound(label, model):
    # evaluate along quantiles so F stays above the denominator floor
    ts = [model.quantile(p) for p in (1e-3, 1e-6, 1e-9)]
    vals = [model.pdf(t) / model.cdf(t) for t in ts]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 10.0 * vals[0]


def test_closed_form_examples():
    # frozen from 50-digit evaluations of the published closed forms
    pareto = make_baseline("pareto", a=5.0, k=1.0)
    assert pareto.cdf(1.0) == 0.0
    assert pareto.cdf(2.0) == pytest.approx(0.96875, abs=1e-15)
    assert pareto.pdf_prime(2.0) == pytest.approx(-0.234375, abs=1e-15)
    assert pareto.pdf(2.0) / pareto.cdf(2.0) == pytest.approx(0.080645161290322580645, rel=1e-14)

    heavy = make_baseline("pareto", a=6.0, k=4.0)
    assert heavy.pdf(4.0) == 0.0  # support is open at the bound
    assert heavy.pdf(4.0 + 1e-9) == pytest.approx(1.5, rel=1e-8)

    ltexp = make_baseline("lt_exponential", b=2.0, t0=2.0)
    assert ltexp.cdf(2.0) == 0.0
    assert ltexp.cdf(1e6) == pytest.approx(1.0, abs=1e-12)

    loglog = make_baseline("loglogistic", b=0.9)
    assert loglog.pdf(1.0) == pytest.approx(0.225, rel=1e-14)

    lomax = make_baseline("lt_lomax", m=5.0, t0=6.0)
    assert lomax.pdf(7.0) / lomax.cdf(7.0) == pytest.approx(0.65812762358248233485, rel=1e-13)


def test_loglogistic_pdf_prime_against_symbolic_oracle():
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t", positive=True)
    for b in (sympy.Integer(4), sympy.Rational(9, 10)):
        expected = float(sympy.diff(t**b / (1 + t**b), t, 2).subs(t, 1))
        model = make_baseline("loglogistic", b=float(b))
        assert model.pdf_prime(1.0) == pytest.approx(expected, rel=1e-12)


def test_pdf_prime_domain_error():
    model = make_baseline("pareto", a=5.0, k=1.0)
    with pytest.raises(DomainError):
        model.pdf_prime(1.0)
    with pytest.raises(DomainError):
        model.pdf_prime(np.array([2.0, 0.5]))


def test_parameter_validation():
    with pytest.raises(ParameterError):
        make_baseline("pareto", a=-1.0, k=1.0)
    with pytest.raises(ParameterError):
        make_baseline("benktander2", a=2.0, b=1.0)
    with pytest.raises(ParameterError):
        make_baseline("nosuch", a=1.0)
    with pytest.raises(ParameterError):
        make_baseline("pareto", a=1.0)  # missing k


@pytest.mark.parametrize(
    "family,params",
    [
        ("lt_exponential", {"b": 2.0, "t0": 2.0}),
        ("lt_burr12", {"k": 1.5, "m": 5.0, "t0": 2.0}),
        ("lt_lomax", {"m": 5.0, "t0": 6.0}),
    ],
)
def test_t_rhr_nonincreasing_for_catalog_baselines(family, params):
    verdict = check_t_rhr_decreasing(make_baseline(family, **params))
    assert verdict.classification in (
        Monotonicity.NON_INCREASING,
        Monotonicity.CONSTANT,
    )


def test_loglogistic_log_slope_increasing_on_stated_window():
    model = make_baseline("loglogistic", b=0.9)
    verdict = check_logpdf_slope_increasing(model, Grid(1e-9, 100.0, 2001))
    assert verdict.classification in (
        Monotonicity.NON_DECREASING,
        Monotonicity.CONSTANT,
    )


def test_tabulated_baseline_roundtrip():
    ref = make_baseline("lt_exponential", b=2.0, t0=2.0)
    knots = np.linspace(2.0, 60.0, 400)
    F = np.asarray(ref.cdf(knots))
    F[-1] = 1.0
    tab = Tabulated(knots, F)
    assert tab.support_low == 2.0
    xs = np.linspace(2.5, 40.0, 50)
    assert np.allclose(tab.cdf(xs), ref.cdf(xs), atol=1e-6)
    assert tab.cdf(100.0) == 1.0
    # numeric derivative path works
    assert float(tab.pdf_prime(5.0)) == pytest.approx(
        float(central_difference(tab.pdf, 5.0)), rel=1e-9
    )
    q = tab.quantile(0.5)
    assert tab.cdf(q) == pytest.approx(0.5, abs=1e-9)


def test_tabulated_rejects_nonmonotone_cdf():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    F = np.array([0.0, 0.6, 0.5, 1.0])
    with pytest.raises(ParameterError, match="nondecreasing"):
        Tabulated(t, F)


@pytest.mark.parametrize("field", ["t", "F"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tabulated_rejects_non_finite_values_naming_the_field(field, bad):
    params = {"t": [1.0, 2.0, 3.0, 4.0], "F": [0.0, 0.25, 0.5, 1.0]}
    params[field][1] = bad
    with pytest.raises(ParameterError, match=f"tabulated {field} must contain only finite"):
        make_baseline("tabulated", **params)


@pytest.mark.parametrize("p", ORACLE_LEVELS)
@pytest.mark.parametrize("family,params", CLOSED_FORM_CASES)
def test_closed_form_quantile_matches_40_digit_root(family, params, p, mp_els_quantile):
    q = make_baseline(family, **params).quantile(p)
    assert q == pytest.approx(mp_els_quantile(family, params, p), rel=1e-12, abs=0)


@pytest.mark.parametrize("family,params", FAMILY_CASES[3:5])
def test_benktander_quantile_is_bracketed_root(family, params):
    model = make_baseline(family, **params)
    for p in (1e-6, 0.5, 1.0 - 1e-6):
        q = model.quantile(p)
        assert model.cdf(q - 2e-10) <= p <= model.cdf(q + 2e-10)


def _tabulated_lt_exponential():
    knots = np.linspace(2.0, 60.0, 400)
    F = np.asarray(make_baseline("lt_exponential", b=2.0, t0=2.0).cdf(knots))
    F[-1] = 1.0
    return Tabulated(knots, F)


@pytest.mark.parametrize("model", [make_baseline("benktander2", a=2.0, b=0.5),
                                   _tabulated_lt_exponential()], ids=["benktander2", "tabulated"])
def test_root_quantile_reuses_known_cdf_values(model, monkeypatch):
    """The root takes F = 0 at the support bound and F at the bracket's upper
    end as given: the same root as evaluating both ends again, two CDF
    calls fewer."""
    calls = []
    cdf = model.cdf
    monkeypatch.setattr(model, "cdf", lambda t: calls.append(t) or cdf(t))
    lo = model.support_low
    for p in (1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6):
        calls.clear()
        got = model.quantile(p)
        reused = len(calls)
        calls.clear()
        q = math.exp(math.log(p))
        hi, _ = expand_upper_bracket(model.cdf, q, lo, step=max(1.0, abs(lo)))
        assert got == brent_root(lambda t: model.cdf(t) - q, lo, hi, _ROOT_XTOL), p
        assert reused == len(calls) - 2, p


def test_quantile_beyond_float_range_is_a_domain_error():
    with pytest.raises(DomainError, match="overflows"):
        make_baseline("pareto", a=0.01, k=1.0).quantile(1.0 - 1e-6)
