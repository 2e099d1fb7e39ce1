import math
import warnings

import numpy as np
import pytest

from mixorder import ELSComponent, ParameterError, make_baseline
from mixorder.numerics import central_difference

PARETO51 = make_baseline("pareto", a=5.0, k=1.0)


def ex41_first_component():
    return ELSComponent(PARETO51, alpha=5.0, sigma=1.0, lam=2.0)


def test_support_start_and_edge():
    comp = ex41_first_component()
    assert comp.support_start == 3.0  # sigma + c*lambda = 1 + 1*2
    assert comp.cdf(3.0) == 0.0  # strict indicator at the start point
    assert comp.cdf(2.0) == 0.0
    assert 1.0 - comp.cdf(2.0) == 1.0


def test_cdf_value_frozen_oracle():
    # (1 - 2^-5)^5, frozen from a 50-digit evaluation
    comp = ex41_first_component()
    assert comp.cdf(5.0) == pytest.approx(0.85321518778800964355, rel=1e-14)
    assert 1.0 - comp.cdf(5.0) == pytest.approx(0.14678481221199035645, rel=1e-13)


def test_pdf_value_frozen_oracle():
    comp = ex41_first_component()
    assert comp.pdf(5.0) == pytest.approx(0.17201919108629226685, rel=1e-13)


def test_alpha_one_reduces_to_baseline():
    comp = ELSComponent(PARETO51, alpha=1.0, sigma=2.0, lam=3.0)
    x = np.linspace(5.5, 40.0, 101)
    z = (x - 2.0) / 3.0
    assert np.allclose(comp.cdf(x), PARETO51.cdf(z), rtol=0, atol=0)
    assert np.allclose(comp.pdf(x), np.asarray(PARETO51.pdf(z)) / 3.0, rtol=1e-15)


def test_pdf_is_cdf_derivative():
    rng = np.random.default_rng(3)
    comp = ex41_first_component()
    hi = comp.quantile(0.999)
    for t in rng.uniform(comp.support_start + 0.3, hi, size=100):
        assert float(central_difference(comp.cdf, t)) == pytest.approx(
            comp.pdf(t), rel=1e-6
        )


def test_rhr_identity_and_alpha_linearity():
    rng = np.random.default_rng(5)
    comp = ex41_first_component()
    doubled = ELSComponent(PARETO51, alpha=10.0, sigma=1.0, lam=2.0)
    xs = rng.uniform(3.2, 30.0, size=100)
    rhr = comp.pdf(xs) / comp.cdf(xs)
    assert np.allclose(doubled.pdf(xs) / doubled.cdf(xs), 2.0 * rhr, rtol=1e-12)


def test_rhr_value_frozen_oracle():
    # log-logistic b=0.9, alpha=0.3, sigma=6, lambda=4 at x=10
    comp = ELSComponent(make_baseline("loglogistic", b=0.9), 0.3, 6.0, 4.0)
    assert comp.pdf(10.0) / comp.cdf(10.0) == pytest.approx(0.03375, rel=1e-14)


def test_location_scale_consistency():
    base = ELSComponent(PARETO51, alpha=2.5, sigma=0.0, lam=1.0)
    comp = ELSComponent(PARETO51, alpha=2.5, sigma=3.0, lam=4.0)
    x = np.linspace(7.5, 80.0, 301)
    assert np.allclose(comp.cdf(x), base.cdf((x - 3.0) / 4.0), rtol=0, atol=0)


def test_cdf_limit_via_quantile():
    comp = ELSComponent(make_baseline("lt_lomax", m=5.0, t0=6.0), 2.0, 3.0, 1.0)
    q = comp.quantile(1.0 - 1e-8)
    assert comp.cdf(q) == pytest.approx(1.0, abs=2e-8)
    assert comp.cdf(q - 2e-10) <= 1.0 - 1e-8 + 1e-12


def test_substitution_identity():
    # lambda * pdf / baseline pdf equals the transformed-variable density
    comp = ex41_first_component()
    for x in (4.0, 7.5, 20.0):
        z = (x - 1.0) / 2.0
        lhs = comp.lam * comp.pdf(x) / PARETO51.pdf(z)
        rhs = comp.alpha * PARETO51.cdf(z) ** (comp.alpha - 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_parameter_validation_and_warning():
    with pytest.raises(ParameterError):
        ELSComponent(PARETO51, alpha=0.0, sigma=1.0, lam=1.0)
    with pytest.raises(ParameterError):
        ELSComponent(PARETO51, alpha=1.0, sigma=1.0, lam=-2.0)
    with pytest.warns(UserWarning, match="negative location"):
        ELSComponent(PARETO51, alpha=1.0, sigma=-0.5, lam=1.0)
    # a NaN or infinite parameter names its field; a NaN sigma once built a
    # component whose mixture CDF was 0 everywhere
    for field, name in (("alpha", "alpha"), ("sigma", "sigma"), ("lam", "lambda")):
        for value in (math.nan, math.inf, -math.inf):
            params = {"alpha": 1.0, "sigma": 1.0, "lam": 1.0, field: value}
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ParameterError, match=f"^{name} must be (positive and )?finite, got"):
                    ELSComponent(PARETO51, **params)


#: at p = 1 - 1e-10 and alpha = 5 the baseline level p^(1/alpha) is within
#: 2e-11 of one, so rounding it before taking 1 - q would cost five digits
ELS_ORACLE_BASELINES = [
    ("pareto", {"a": 2.0, "k": 4.0}),
    ("lt_exponential", {"b": 2.0, "t0": 2.0}),
    ("lt_burr12", {"k": 1.5, "m": 5.0, "t0": 2.0}),
    ("lt_lomax", {"m": 5.0, "t0": 6.0}),
    ("loglogistic", {"b": 0.9}),
]


@pytest.mark.parametrize("p", [1e-9, 0.5, 1.0 - 1e-6, 1.0 - 1e-10])
@pytest.mark.parametrize("alpha", [0.2, 1.0, 5.0])
@pytest.mark.parametrize("family,params", ELS_ORACLE_BASELINES)
def test_quantile_matches_40_digit_root(family, params, alpha, p, mp_els_quantile):
    comp = ELSComponent(make_baseline(family, **params), alpha, 0.0, 3.0)
    exact = mp_els_quantile(family, params, p, alpha=alpha, lam=3.0)
    assert comp.quantile(p) == pytest.approx(exact, rel=1e-12, abs=0)


@pytest.mark.parametrize("p", [1e-9, 0.5, 1.0 - 1e-6, 1.0 - 1e-10])
def test_heavy_loglogistic_quantile_matches_40_digit_root(p, mp_els_quantile):
    # the heaviest tail of the benchmark's normalization pool (mixture 1218)
    b, alpha = 0.5575809612158066, 4.361173233805365
    sigma, lam = 1.9667806849058564, 3.235946853187489
    comp = ELSComponent(make_baseline("loglogistic", b=b), alpha, sigma, lam)
    exact = mp_els_quantile("loglogistic", {"b": b}, p, alpha=alpha, sigma=sigma, lam=lam)
    assert comp.quantile(p) == pytest.approx(exact, rel=1e-12, abs=0)
