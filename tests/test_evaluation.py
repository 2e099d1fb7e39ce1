"""Scalar and array evaluation agree bit for bit; quantile and CDF invert.

Every ``cdf``/``pdf`` runs its closed form through ``numerics.on_support``,
which hands a scalar to the closed form as a length-1 array. These tests
compare the bits of each scalar result with the matching point of an
array result, on arrays wholly above a support start, straddling it,
wholly below it and holding a NaN. A mixture grid longer than
``mixture.EVAL_BLOCK`` is summed slice by slice; it must give the bits of
one whole-array pass, of its slices and of its points.
"""

import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixorder import (
    DomainError,
    ELSComponent,
    FiniteMixture,
    Tabulated,
    get_scenario,
    make_baseline,
    mixture,
    scenario_grid,
)
from mixorder._sampling import random_mixture
from mixorder.numerics import on_support


def _tabulated_lt_exponential():
    knots = np.linspace(2.0, 60.0, 400)
    F = np.asarray(make_baseline("lt_exponential", b=2.0, t0=2.0).cdf(knots))
    F[-1] = 1.0
    return Tabulated(knots, F)


BASELINES = {
    "pareto": make_baseline("pareto", a=2.0, k=4.0),
    "lt_exponential": make_baseline("lt_exponential", b=2.0, t0=2.0),
    "benktander2": make_baseline("benktander2", a=2.0, b=0.5),
    "lt_burr12": make_baseline("lt_burr12", k=1.5, m=5.0, t0=2.0),
    "lt_lomax": make_baseline("lt_lomax", m=5.0, t0=6.0),
    "loglogistic": make_baseline("loglogistic", b=0.9),
    "tabulated": _tabulated_lt_exponential(),
}


def _cases():
    """(id, [(function, support start, scale of the abscissa), ...])."""
    cases = []
    for fam, base in BASELINES.items():
        c = base.support_low
        cases.append((fam, [(base.cdf, c, 1.0), (base.pdf, c, 1.0)]))
        for alpha in (0.3, 1.0, 2.5):
            comp = ELSComponent(base, alpha, sigma=1.5, lam=2.0)
            start, lam = comp.support_start, comp.lam
            cases.append((f"els-{fam}-{alpha}", [(comp.cdf, start, lam), (comp.pdf, start, lam),
                                                 (comp.pdf_at_offset, 0.0, lam)]))
    for seed in (0, 1, 2):
        mix = random_mixture(np.random.default_rng(seed))
        start = mix.support_start
        cases.append((f"mixture-{seed}", [(mix.cdf, start, 3.0), (mix.pdf, start, 3.0)]))
    return cases


CASES = _cases()

_OFFSETS = st.lists(st.floats(0.0, 30.0), min_size=1, max_size=12)


@st.composite
def offsets(draw):
    """Offsets from a support start, in units of the scale: wholly above
    it, straddling it, wholly below it (the start itself included) or
    holding a NaN."""
    kind = draw(st.sampled_from(["above", "straddle", "below", "nan"]))
    u = np.array(draw(_OFFSETS))
    if kind == "above":
        return u + 1e-6
    if kind == "straddle":
        return np.concatenate(([-1.0], u - 3.0, [1.0]))
    if kind == "below":
        return -u
    return np.insert(u + 1e-6, draw(st.integers(0, u.size)), math.nan)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("functions", [c[1] for c in CASES], ids=[c[0] for c in CASES])
@given(u=offsets())
def test_scalar_matches_array_bit_for_bit(functions, u):
    for fn, start, scale in functions:
        x = start + scale * u
        grid = fn(x)
        assert isinstance(grid, np.ndarray) and grid.shape == x.shape
        points = [fn(float(t)) for t in x]
        assert all(type(p) is float for p in points)
        assert np.array_equal(_bits(points), _bits(grid)), (fn, x, points, grid)


@pytest.mark.parametrize("t", [11.0, np.array([11.0, 12.0]), np.array([5.0, 11.0])],
                         ids=["scalar", "above", "mixed"])
def test_overflow_is_a_domain_error_on_every_path(t):
    # k**a overflows inside the Pareto density's closed form
    model = make_baseline("pareto", a=400.0, k=10.0)
    with pytest.raises(DomainError, match="pareto pdf overflows the float range"):
        model.pdf(t)


def test_on_support_paths():
    calls = []

    def twice(a):
        calls.append(a)
        return 2.0 * a

    x = np.array([1.0, 2.0, 3.0])
    # wholly above: the array itself, no copy and no scatter
    assert np.array_equal(on_support(x, 0.5, twice), 2.0 * x) and calls[-1] is x
    # a scalar is a length-1 array for fn and a float for the caller
    out = on_support(2.0, 0.5, twice)
    assert type(out) is float and out == 4.0 and calls[-1].shape == (1,)
    # a mixed array sends fn only its points above the start
    assert np.array_equal(on_support(x, 1.5, twice), [0.0, 4.0, 6.0])
    assert np.array_equal(calls[-1], [2.0, 3.0])
    # nothing above the start: fn is not called
    n = len(calls)
    assert on_support(1.0, 1.0, twice) == 0.0 and on_support(math.nan, 0.0, twice) == 0.0
    assert np.array_equal(on_support(x, 3.0, twice), np.zeros(3))
    assert on_support(np.empty(0), 0.0, twice).shape == (0,) and len(calls) == n


#: parameters of the closed-form families, kept to tail indices of 1/2 or more
_CLOSED_FORM_PARAMS = {
    "pareto": {"a": st.floats(1.5, 6.0), "k": st.floats(0.5, 4.0)},
    "lt_exponential": {"b": st.floats(0.5, 4.0), "t0": st.floats(0.5, 3.0)},
    "lt_burr12": {"k": st.floats(1.0, 2.5), "m": st.floats(1.0, 5.0), "t0": st.floats(0.5, 3.0)},
    "lt_lomax": {"m": st.floats(2.0, 6.0), "t0": st.floats(0.5, 4.0)},
    "loglogistic": {"b": st.floats(0.5, 4.0)},
}

#: The CDF of a quantile rounds near one with an absolute error of a few
#: ulps of 1, i.e. about 5e-10 relative in a survival of 1e-6. A quantile
#: moves by at most 1/(tail index) <= 2 times the relative change of the
#: survival (Pareto a >= 1.5, Burr XII k*m >= 1, Lomax m >= 2, log-logistic
#: b >= 0.5; the exponential's log is flatter still), so the round trip
#: is good to about 1e-9 (5e-11 is the worst of 15 000 random draws);
#: the bound leaves a factor of ten over the estimate.
_ROUND_TRIP_RTOL = 1e-8


@pytest.mark.parametrize("family", sorted(_CLOSED_FORM_PARAMS))
@given(data=st.data(), q=st.floats(1e-6, 1.0 - 1e-6), alpha=st.floats(0.2, 5.0),
       sigma=st.floats(0.0, 4.0), lam=st.floats(0.5, 4.0))
def test_quantile_of_cdf_round_trip(family, data, q, alpha, sigma, lam):
    base = make_baseline(family, **data.draw(st.fixed_dictionaries(_CLOSED_FORM_PARAMS[family])))
    comp = ELSComponent(base, alpha, sigma, lam)
    # the component is taken at q**alpha, whose baseline level is q again:
    # a lower baseline level puts the quantile within rounding of the start
    for model, p in ((base, q), (comp, q**alpha)):
        x = model.quantile(p)
        assert model.quantile(model.cdf(x)) == pytest.approx(x, rel=_ROUND_TRIP_RTOL, abs=0)


#: eight ``random_mixture`` draws of one to three components and two
#: catalog mixtures
_BLOCK_MIXTURES = [random_mixture(np.random.default_rng(seed)) for seed in range(8)] + [
    get_scenario("CE4.2").u, get_scenario("EX4.1").v]


@st.composite
def blocked_grids(draw):
    """(block, x): a grid of block - 1, block, block + 1 or 2 * block + 3
    points that straddles the support start, holds NaN or +-inf, or lies
    wholly below the start (the start itself included)."""
    block = draw(st.integers(2, 9))
    n = draw(st.sampled_from([block - 1, block, block + 1, 2 * block + 3]))
    u = np.array(draw(st.lists(st.floats(-3.0, 30.0), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["straddle", "nonfinite", "below"]))
    if kind == "straddle":
        u[0], u[-1] = -1.0, 1.0
    elif kind == "nonfinite":
        for value in (math.nan, math.inf, -math.inf):
            u[draw(st.integers(0, n - 1))] = value
    else:
        u = -np.abs(u)
    return block, u


# the closed forms meet inf/inf and inf * 0 at the infinite points
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(grid=blocked_grids(), which=st.integers(0, len(_BLOCK_MIXTURES) - 1),
       scale=st.floats(0.1, 5.0))
def test_blocked_evaluation_matches_unblocked_bit_for_bit(grid, which, scale):
    block, u = grid
    mix = _BLOCK_MIXTURES[which]
    x = mix.support_start + scale * u
    for fn in (mix.cdf, mix.pdf):
        with mock.patch.object(mixture, "EVAL_BLOCK", block):
            blocked = fn(x)
            slices = np.concatenate([fn(x[i:i + block]) for i in range(0, x.size, block)])
        with mock.patch.object(mixture, "EVAL_BLOCK", x.size):
            whole = fn(x)
        points = [fn(float(t)) for t in x]
        assert blocked.shape == x.shape and blocked.dtype == np.float64
        for other in (whole, slices, points):
            assert np.array_equal(_bits(blocked), _bits(other)), (fn, x, blocked, other)


def test_blocked_evaluation_at_the_block_size():
    scenario = get_scenario("CE4.2")
    x = scenario_grid(scenario, 100_001).points()
    assert x.size > mixture.EVAL_BLOCK
    for mix in (scenario.u, scenario.v):
        for fn in (mix.cdf, mix.pdf):
            blocked = fn(x)
            with mock.patch.object(mixture, "EVAL_BLOCK", x.size):
                whole = fn(x)
            assert blocked.shape == x.shape and blocked.dtype == np.float64
            assert np.array_equal(_bits(blocked), _bits(whole))


def _infinite_density_mixtures(n_components):
    """Every order of components whose density at 1e-322 is +inf for
    alpha = 0.001 (F**(alpha - 1) overflows at a subnormal F) and finite
    otherwise; the weights follow their components."""
    base = make_baseline("loglogistic", b=1.0)
    parts = [(ELSComponent(base, alpha, 0.0, 1.0), w)
             for alpha, w in zip((0.001, 2.0, 1.0), (0.25, 0.25, 0.5))][:n_components]
    if n_components == 2:
        parts = [(c, 0.5) for c, _ in parts]
    return [FiniteMixture(*zip(*order)) for order in itertools.permutations(parts)]


@pytest.mark.parametrize("n_components", [2, 3])
def test_infinite_term_gives_inf_in_every_component_order(n_components):
    x = np.array([0.5, 1.0, 2.0, 1e-322, 3.0, 4.0, 5.0])
    # the components' own power overflows (numpy's overflow flag, silenced
    # here); the mixture sum must add no warning of its own
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for mix in _infinite_density_mixtures(n_components):
            assert mix.pdf(1e-322) == math.inf
            for block in (3, 4):  # the inf point starts, then ends, a block
                with mock.patch.object(mixture, "EVAL_BLOCK", block):
                    grid = mix.pdf(x)
                assert grid[3] == math.inf and np.isfinite(np.delete(grid, 3)).all()
                if n_components == 2:  # a + b is b + a: the orders agree bit for bit
                    assert np.array_equal(_bits(grid), _bits(_infinite_density_mixtures(2)[0].pdf(x)))


def test_nan_term_stays_nan():
    # the log-logistic CDF at +inf is inf/inf; the plain-sum fallback keeps the NaN
    mix = _infinite_density_mixtures(2)[0]
    with np.errstate(invalid="ignore"):
        assert all(math.isnan(c.cdf(math.inf)) for c in mix.components)
        assert math.isnan(mix.cdf(math.inf)) and np.isnan(mix.cdf(np.array([1.0, math.inf]))[1])
