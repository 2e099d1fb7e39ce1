"""Scalar and array evaluation agree bit for bit; quantile and CDF invert.

Every baseline ``cdf``/``pdf`` and the component offset density run their
closed forms through ``numerics.on_support``, which hands a scalar to the
closed form as a Python float by ``numerics.on_grid``; a baseline's
``pdf_prime``, ``cdf_offset`` and ``pdf_offset`` take the same rule, and a
scalar inside each one's domain must give the bits of that point of an
array. That rests on the float rule: a closed form does +, -, * and / on a
float in Python, which rounds as numpy does, and sends every power of the
point to ``np.power``, which gives an array element's bits where ``**``
on a float does not; the premise and an ``ast`` scan of the closed forms
are tested below. Component and mixture curves come from one
kernel, ``els.sample_groups``: a group of components sharing a baseline,
sigma and lam takes one two-comparison mask and one closed-form pass, a
scalar's on the float z, so a scalar pass makes the closed-form calls of
the grid pass on that one point and raises its error. The scalar pass
must give the bits of the grid pass on every sweep and normalization pool mixture and pair, below,
at and just above each start, inside, at the grid end, at NaN and at
+-inf, on a tabulated baseline, on equal but distinct baseline objects and
on groups whose alphas are all 1. These tests compare the bits of each
scalar result with the matching point of an array result, on arrays wholly
above a support start, straddling it, wholly below it and holding a NaN. A
mixture grid longer than ``mixture.EVAL_BLOCK`` is summed slice by slice;
it must give the bits of one whole-array pass, of its slices and of its
points. A pair sampled in one ``mixture.sample_curves`` pass gets the bits
of each mixture alone. The kernel, on one group or on many, and a
component's ``pdf``, which skips the baseline CDF at alpha = 1, give the
bits of a reference that nests the group mask and the baseline's ``cdf``
and ``pdf`` masks, and so does a mixture's ``pdf_at_offset`` through it. A
density-only pass over groups whose alphas are all 1 calls no baseline CDF,
and a component's offset density at alpha = 1 no ``cdf_offset``. A
family's ``_closed_forms`` asked for one of F, f and f' gives the bits of
all three asked together, and its ``_offset_forms`` asked for F or f those
of both; ``pdf_prime``, ``cdf_offset`` and ``pdf_offset`` are their
one-curve cases.
"""

import ast
import dataclasses
import inspect
import itertools
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mixorder import baseline as baseline_module
from mixorder import (
    DomainError,
    ELSComponent,
    FiniteMixture,
    LogLogistic,
    Tabulated,
    els,
    get_scenario,
    make_baseline,
    mixture,
    scenario_grid,
)
from mixorder._sampling import THEOREM_SAMPLERS, random_mixture
from mixorder.analysis import PairSample
from mixorder.baseline import BaselineModel
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


def _cdf_pdf(mix, x):
    """``(cdf(x), pdf(x))`` of one mixture from one ``sample_curves`` pass."""
    return tuple(mixture.sample_curves((mix,), x, ("cdf", "pdf"))[0])


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
    # k**a overflows inside the Pareto density's closed form and its derivative's
    model = make_baseline("pareto", a=400.0, k=10.0)
    with pytest.raises(DomainError, match="pareto pdf overflows the float range"):
        model.pdf(t)
    # pdf_prime takes only points above c, so a mixed array fails that check first
    above = np.all(np.asarray(t) > model.support_low)
    with pytest.raises(DomainError, match="^pareto pdf_prime overflows the float range$"
                       if above else "^pdf derivative requires t > support_low"):
        model.pdf_prime(t)


@pytest.mark.parametrize("family", sorted(BASELINES))
def test_derivative_and_offsets_of_a_scalar_match_the_array_bit_for_bit(family):
    # each inside its domain: pdf_prime raises at and below c, the offsets take dz >= 0
    base = BASELINES[family]
    dz = np.concatenate(([0.0], np.geomspace(1e-9, 50.0, 2000)))
    for fn, x in ((base.pdf_prime, base.support_low + dz[1:]), (base.cdf_offset, dz),
                  (base.pdf_offset, dz)):
        grid = fn(x)
        assert isinstance(grid, np.ndarray) and grid.shape == x.shape
        points = [fn(t) for t in x.tolist()]
        assert all(type(p) is float for p in points), fn
        assert np.array_equal(_bits(points), _bits(grid)), fn


def test_on_support_paths():
    calls = []

    def twice(a):
        calls.append(a)
        return 2.0 * a

    x = np.array([1.0, 2.0, 3.0])
    # wholly above: the array itself, no copy and no scatter
    assert np.array_equal(on_support(x, 0.5, twice), 2.0 * x) and calls[-1] is x
    # a scalar is a Python float for fn and for the caller, whatever scalar type it came as
    for scalar in (2.0, 2, np.float64(2.0), np.array(2.0)):
        out = on_support(scalar, 0.5, twice)
        assert type(out) is float and out == 4.0 and type(calls[-1]) is float
    # a mixed array sends fn only its points above the start
    assert np.array_equal(on_support(x, 1.5, twice), [0.0, 4.0, 6.0])
    assert np.array_equal(calls[-1], [2.0, 3.0])
    # nothing above the start: fn is not called
    n = len(calls)
    assert on_support(1.0, 1.0, twice) == 0.0 and on_support(math.nan, 0.0, twice) == 0.0
    assert np.array_equal(on_support(x, 3.0, twice), np.zeros(3))
    assert on_support(np.empty(0), 0.0, twice).shape == (0,) and len(calls) == n


def _float_draws():
    """3000 doubles from 1e-30 to 1e30 and 3000 in (0, 10), fixed by the seed."""
    rng = np.random.default_rng(7)
    return np.concatenate((np.exp(rng.uniform(-69.0, 69.0, 3000)), rng.uniform(0.0, 10.0, 3000)))


@pytest.mark.parametrize("ufunc, second", [
    *((np.power, e) for e in (2.0, 2, 0.5, -1.0, 1.0, 0.0, 3.0, -2.0, -0.5, 1.5, 1.7, -3.3)),
    (np.exp, None), (np.expm1, None), (np.log1p, None), (np.log, None),
    (np.minimum, sys.float_info.max)], ids=str)
def test_a_ufunc_on_a_float_gives_the_bits_of_an_array_element(ufunc, second):
    # the premise of a scalar pass in floats: every ufunc the closed forms call
    x = _float_draws()
    if ufunc in (np.exp, np.expm1):
        x = np.log(x)  # -69 to 69 and below 2.3
    x = np.concatenate((x, [0.0, math.inf, math.nan]))
    args = () if second is None else (second,)
    with np.errstate(all="ignore"):
        grid = ufunc(x, *args)
        points = [ufunc(v, *args) for v in x.tolist()]
        if ufunc is np.power:  # the array's ``**``, which special-cases some exponents
            assert _bits(x**second).tolist() == _bits(grid).tolist()
    assert _bits(points).tolist() == _bits(grid).tolist()


@pytest.mark.parametrize("e", [3.0, 1.7, -2.0])
def test_a_python_power_on_a_float_does_not(e):
    # ``**`` on a float, or on a numpy scalar, rounds by the C library's pow
    x = _float_draws()
    grid = np.power(x, e)
    for scalars in (x.tolist(), list(x)):
        assert _bits([v**e for v in scalars]).tolist() != _bits(grid).tolist()


#: the arguments that hold evaluation points, and the names of the closed forms
_POINT_ARGS = {"t", "dz", "z", "F", "f"}
_CLOSED_FORM_FUNCTIONS = {"_closed_forms", "_offset_forms", "_lane_curves", "_density"}


def _point_powers(source):
    """(function name, line) of each ``**`` in a closed form of ``source``
    whose left operand is computed from an evaluation point: a point
    argument, or a name assigned (in any statement, walrus included) from
    one."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not (isinstance(func, ast.FunctionDef) and func.name in _CLOSED_FORM_FUNCTIONS):
            continue
        points = {arg.arg for arg in func.args.args} & _POINT_ARGS

        def uses_point(node):
            return any(isinstance(n, ast.Name) and n.id in points for n in ast.walk(node))

        grown = True
        while grown:
            before = len(points)
            for node in ast.walk(func):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.NamedExpr)) and uses_point(
                        node.value):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    points |= {n.id for target in targets for n in ast.walk(target)
                               if isinstance(n, ast.Name)}
            grown = len(points) > before
        found += [(func.name, node.lineno) for node in ast.walk(func)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                  and uses_point(node.left)]
    return found


def test_the_scan_finds_a_power_of_the_point():
    source = """
class Family:
    def _closed_forms(self, t, cdf, pdf, dpdf):
        k = self.k
        tb = np.power(t, self.b)
        if pdf:
            grow, square = k**2 * tb, (1.0 + tb) ** 2
        return (c := tb + 1.0) ** k, np.power(t, k) ** 0.5, self.b**k
"""
    assert sorted(_point_powers(source)) == [("_closed_forms", 7), ("_closed_forms", 8),
                                             ("_closed_forms", 8)]


def test_no_closed_form_raises_the_point_with_python_power():
    # parameter-only powers (k**a, self.b**2, t0**k) stay Python floats
    found = 0
    for module in (baseline_module, els):
        source = inspect.getsource(module)
        tree = ast.parse(source)
        found += sum(isinstance(node, ast.FunctionDef) and node.name in _CLOSED_FORM_FUNCTIONS
                     for node in ast.walk(tree))
        assert _point_powers(source) == [], module.__name__
    assert found >= 12


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
@example(data=None, q=1e-6, alpha=0.2, sigma=0.0, lam=1.0)
def test_quantile_of_cdf_round_trip(family, data, q, alpha, sigma, lam):
    if data is None:
        # the explicit example: at alpha = 0.2 the component level 1e-6 is the
        # baseline level 1e-30, whose Pareto(a=2, k=1) quantile rounds onto the
        # support start, where the CDF is 0
        if family != "pareto":
            return
        params = {"a": 2.0, "k": 1.0}
    else:
        params = data.draw(st.fixed_dictionaries(_CLOSED_FORM_PARAMS[family]))
    base = make_baseline(family, **params)
    comp = ELSComponent(base, alpha, sigma, lam)
    # the component is taken at q**alpha, whose baseline level is q again:
    # a lower baseline level puts the quantile within rounding of the start,
    # which only the explicit example takes, at the component level q itself
    cases = [(base, q), (comp, q**alpha)] + ([(comp, q)] if data is None else [])
    for model, p in cases:
        x = model.quantile(p)
        assert model.cdf(x) > 0.0
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


@given(grid=blocked_grids(), which=st.integers(0, len(_BLOCK_MIXTURES) - 1),
       scale=st.floats(0.1, 5.0))
def test_blocked_evaluation_matches_unblocked_bit_for_bit(grid, which, scale):
    block, u = grid
    mix = _BLOCK_MIXTURES[which]
    x = mix.support_start + scale * u
    # each output of the one-pass pair is one more input, held to the bits of
    # the separate cdf/pdf as well
    separate = {}
    for name, fn in (("cdf", mix.cdf), ("pdf", mix.pdf),
                     ("cdf", lambda t: _cdf_pdf(mix, t)[0]), ("pdf", lambda t: _cdf_pdf(mix, t)[1])):
        with mock.patch.object(mixture, "EVAL_BLOCK", block):
            blocked = fn(x)
            slices = np.concatenate([fn(x[i:i + block]) for i in range(0, x.size, block)])
        with mock.patch.object(mixture, "EVAL_BLOCK", x.size):
            whole = fn(x)
        points = [fn(float(t)) for t in x]
        assert blocked.shape == x.shape and blocked.dtype == np.float64
        assert all(type(p) is float for p in points)
        for other in (whole, slices, points, separate.setdefault(name, blocked)):
            assert np.array_equal(_bits(blocked), _bits(other)), (name, x, blocked, other)


@st.composite
def kernel_pairs(draw):
    """A mixture pair: the same components under other weights and in another
    order, components sharing a baseline, sigma and lam with other alphas
    (and one shared component), components differing only in sigma or only
    in lam, or two unrelated mixtures."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = random_mixture(rng)
    kind = draw(st.sampled_from(["same", "shared_baseline", "moved", "disjoint"]))
    if kind == "disjoint":
        return u, random_mixture(rng)
    if kind == "same":
        comps = u.components[::-1]
    elif kind == "shared_baseline":
        comps = [ELSComponent(c.baseline, c.alpha * rng.uniform(0.5, 2.0), c.sigma, c.lam)
                 for c in u.components] + [u.components[0]]
    else:
        comps = [ELSComponent(c.baseline, c.alpha, c.sigma + d_sigma, c.lam * f_lam)
                 for c in u.components for d_sigma, f_lam in ((1.0, 1.0), (0.0, 2.0))]
    return u, FiniteMixture(comps, rng.dirichlet(np.ones(len(comps))), "autonorm")


@given(grid=blocked_grids(), pair=kernel_pairs(), scale=st.floats(0.1, 5.0),
       curves=st.sampled_from([("cdf",), ("pdf",), ("cdf", "pdf")]))
def test_pair_kernel_matches_each_mixture_bit_for_bit(grid, pair, scale, curves):
    block, t = grid
    u, v = pair
    x = min(u.support_start, v.support_start) + scale * t
    with mock.patch.object(mixture, "EVAL_BLOCK", block):
        sampled = mixture.sample_curves((u, v), x, curves)
    for mix, values in zip((u, v), sampled):
        for name, value in zip(curves, values):
            alone = getattr(mix, name)(x)
            assert value.shape == x.shape and value.dtype == np.float64
            assert np.array_equal(_bits(value), _bits(alone)), (name, x, value, alone)


def _scalar_points(mixtures, x_hi):
    """Below, at and one double above every component start of ``mixtures``,
    a point inside, ``x_hi``, NaN and +-inf."""
    starts = sorted({c.support_start for mix in mixtures for c in mix.components})
    points = [t for s in starts for t in (math.nextafter(s, -math.inf), s,
                                           math.nextafter(s, math.inf))]
    return points + [0.5 * (starts[0] + x_hi), x_hi, math.nan, math.inf, -math.inf]


_CURVE_SETS = (("cdf",), ("pdf",), ("cdf", "pdf"))


def _assert_scalar_pass_matches_grid(mixtures, points, curve_sets=_CURVE_SETS):
    """Every scalar ``sample_curves`` of ``mixtures`` at ``points`` is a float
    with the bits of its point in the grid pass, for each of ``curve_sets``."""
    x = np.array(points)
    for curves in curve_sets:
        grid = [value for values in mixture.sample_curves(mixtures, x, curves) for value in values]
        scalar = [list(itertools.chain(*mixture.sample_curves(mixtures, t, curves)))
                  for t in points]
        for t, values in zip(points, scalar):
            assert all(type(value) is float for value in values), (mixtures, t, curves)
        # one bit comparison of every point; a failure names the first mismatch
        differ = (_bits(scalar) != _bits(grid).T).any(axis=1).nonzero()[0]
        assert not differ.size, (mixtures, points[differ[0]], curves, scalar[differ[0]])


def _twin(base):
    """A baseline equal to ``base`` that is another object."""
    return dataclasses.replace(base)


def _lane_mixtures():
    """Mixtures with several groups on one baseline object: over a tabulated
    baseline, over two equal but distinct baseline objects, and with groups
    whose alphas are all 1."""
    tab, par, lomax = BASELINES["tabulated"], BASELINES["pareto"], BASELINES["lt_lomax"]
    twin = _twin(par)
    parts = {
        "tabulated": [(tab, 0.5, 0.0, 1.0), (tab, 2.0, 0.0, 1.0), (tab, 1.0, 1.5, 2.0),
                      (tab, 0.3, 4.0, 0.5)],
        "equal_baselines": [(par, 0.7, 1.0, 1.0), (twin, 0.7, 1.0, 1.0), (par, 1.8, 0.5, 2.0),
                            (twin, 2.5, 0.5, 2.0)],
        "alphas_one": [(par, 1.0, 0.0, 1.0), (par, 1.0, 1.0, 2.0), (lomax, 1.0, 0.5, 1.5),
                       (par, 2.0, 3.0, 1.0)],
    }
    return {name: FiniteMixture([ELSComponent(*p) for p in comps], np.full(len(comps), 0.25))
            for name, comps in parts.items()}


_LANE_MIXTURES = _lane_mixtures()


@pytest.mark.parametrize("names", [("tabulated",), ("equal_baselines",), ("alphas_one",),
                                   ("equal_baselines", "alphas_one"),
                                   ("tabulated", "equal_baselines")])
def test_scalar_pass_matches_the_grid_pass_on_shared_baselines(names):
    mixtures = tuple(_LANE_MIXTURES[name] for name in names)
    comps = [c for mix in mixtures for c in mix.components]
    # more groups than baseline objects: some baseline object carries several groups
    assert len({(id(c.baseline), c.sigma, c.lam) for c in comps}) > len(
        {id(c.baseline) for c in comps})
    _assert_scalar_pass_matches_grid(mixtures, _scalar_points(mixtures, 40.0))


def _closed_form_calls(groups, x, curves):
    """The baseline closed-form calls of one ``els.sample_groups`` pass, each as
    (baseline object id, CDF asked, density asked, the type of t and its
    shape), and the message of the DomainError it raises, or None."""
    calls = []
    closed_forms = BaselineModel._curves

    def recording(self, t, cdf, pdf, dpdf):
        calls.append((id(self), cdf, pdf, type(t), np.shape(t)))
        return closed_forms(self, t, cdf, pdf, dpdf)

    with mock.patch.object(BaselineModel, "_curves", recording):
        try:
            els.sample_groups(groups, x, curves)
        except DomainError as exc:
            return calls, str(exc)
    return calls, None


def _overflow_mixture():
    """Groups on a Pareto baseline whose density overflows, and on its twin."""
    par = make_baseline("pareto", a=400.0, k=10.0)
    comps = [ELSComponent(base, alpha, sigma, lam) for base, alpha, sigma, lam in (
        (par, 1.0, 0.0, 1.0), (par, 2.0, 1.0, 1.0), (_twin(par), 0.5, 0.0, 1.0))]
    return FiniteMixture(comps, np.full(3, 1 / 3))


@pytest.mark.parametrize("names", [("tabulated",), ("equal_baselines",), ("alphas_one",),
                                   ("tabulated", "equal_baselines", "alphas_one"),
                                   ("overflow",)])
def test_scalar_pass_makes_the_closed_form_calls_of_a_one_point_grid(names):
    # a scalar makes the calls of a one-point grid: group by group, the same
    # baseline objects and curves, and the same error where one raises; each
    # closed form gets the point as a Python float where the grid gets an array
    mixtures = tuple(_overflow_mixture() if name == "overflow" else _LANE_MIXTURES[name]
                     for name in names)
    groups = mixture._plan(mixtures)[0]
    assert len(groups) > len({id(members[0].baseline) for members in groups})
    raised = 0
    for t in _scalar_points(mixtures, 40.0):
        for curves in _CURVE_SETS:
            scalar = _closed_form_calls(groups, t, curves)
            grid = _closed_form_calls(groups, np.array([t]), curves)
            assert scalar[1] == grid[1], (t, curves)
            assert [call[:3] for call in scalar[0]] == [call[:3] for call in grid[0]], (t, curves)
            assert all(call[3:] == (float, ()) for call in scalar[0]), (t, curves)
            assert all(call[3:] == (np.ndarray, (1,)) for call in grid[0]), (t, curves)
            raised += scalar[1] is not None
    assert raised > 0 if names == ("overflow",) else raised == 0


@pytest.mark.parametrize("family", sorted(BASELINES))
@given(data=st.data())
def test_scalar_pass_matches_the_grid_pass_on_random_groups(family, data):
    # offset_mixtures shares groups between components; a twin baseline adds
    # groups that are equal to others but sit on another baseline object
    mix = data.draw(offset_mixtures(family))
    twin = _twin(mix.components[0].baseline)
    comps = mix.components + tuple(ELSComponent(twin, c.alpha, c.sigma, c.lam)
                                   for c in mix.components[:2])
    other = FiniteMixture(comps, np.ones(len(comps)), policy="autonorm")
    for mixtures in ((mix,), (other,), (mix, other)):
        _assert_scalar_pass_matches_grid(mixtures, _scalar_points(mixtures, 50.0))


@pytest.mark.parametrize("theorem", sorted(THEOREM_SAMPLERS))
def test_scalar_pass_matches_the_grid_pass_on_the_sweep_pool(theorem, sweep_pool):
    # the sweep's 500 draws, up to their auto-grid end: each mixture alone takes
    # the cdf-only and pdf-only passes, the pair both curves in one pass
    for draw in sweep_pool[theorem]:
        pair = draw.mixtures
        points = _scalar_points(pair, draw.grid.x_hi)
        for mix in pair:
            _assert_scalar_pass_matches_grid((mix,), points, _CURVE_SETS[:2])
        _assert_scalar_pass_matches_grid(pair, points, _CURVE_SETS[2:])


def test_scalar_pass_matches_the_grid_pass_on_the_normalization_pool(
        catalog, false_convergence_mixtures):
    # the catalog, the two false-convergence cases and 2048 random draws, up
    # to the 1 - 1e-10 quantile where the normalization quadrature ends
    rng = np.random.default_rng(42)
    pool = [mix for s in catalog for mix in s.mixtures()] + list(false_convergence_mixtures)
    pool += [random_mixture(rng) for _ in range(2048)]
    for mix in pool:
        points = _scalar_points((mix,), mix.quantile(1 - 1e-10))
        _assert_scalar_pass_matches_grid((mix,), points, _CURVE_SETS[::2])


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


class _NanAboveTen(LogLogistic):
    """A log-logistic baseline whose CDF is NaN above t = 10."""

    def _closed_forms(self, t, cdf, pdf, dpdf):
        F, f, df = super()._closed_forms(t, cdf, pdf, dpdf)
        return (np.where(t > 10.0, np.nan, F) if cdf else None), f, df


def test_nan_term_stays_nan():
    # the plain-sum fallback keeps the NaN of one term in either component order
    nan_comp = ELSComponent(_NanAboveTen(1.0), 2.0, 0.0, 1.0)
    plain = ELSComponent(make_baseline("loglogistic", b=1.0), 1.0, 0.0, 1.0)
    for comps in ((nan_comp, plain), (plain, nan_comp)):
        mix = FiniteMixture(comps, (0.5, 0.5))
        assert math.isnan(mix.cdf(20.0)) and math.isnan(_cdf_pdf(mix, 20.0)[0])
        for values in (mix.cdf(np.array([1.0, 20.0])), _cdf_pdf(mix, np.array([1.0, 20.0]))[0]):
            assert np.isfinite(values[0]) and np.isnan(values[1])


@pytest.mark.parametrize("family", sorted(set(BASELINES) - {"tabulated"}))
def test_closed_forms_reach_their_limits_at_infinity(family):
    # inf/inf and inf * 0 in a closed form must give the limit, without a warning
    base = BASELINES[family]
    mix = FiniteMixture([ELSComponent(base, 0.3, 1.5, 2.0), ELSComponent(base, 2.5, 0.5, 1.0)],
                        (0.25, 0.75))
    x = np.array([base.support_low + 1.0, math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in (base, *mix.components, mix):
            cdf, pdf = model.cdf(x), model.pdf(x)
            assert (model.cdf(math.inf), model.pdf(math.inf)) == (1.0, 0.0), model
            assert (cdf[1], pdf[1]) == (1.0, 0.0) and np.isfinite(cdf[0]) and np.isfinite(pdf[0])
        assert _cdf_pdf(mix, math.inf) == (1.0, 0.0)
        # the offset forms that quadrature integrates reach the same limits
        assert (float(base.cdf_offset(math.inf)), float(base.pdf_offset(math.inf))) == (1.0, 0.0)
        for comp in mix.components:
            assert comp.pdf_at_offset(math.inf) == 0.0, comp


@pytest.mark.parametrize("family", sorted(BASELINES))
def test_closed_forms_asked_alone_match_both_asked_together(family):
    # F, f and f' at the support start, one double above it, inside, in the
    # far tail, at +-inf and at NaN. Points at or below c are outside the
    # forms' domain, where only the agreement of the calls is asserted; at
    # 1e300 some powers overflow to inf, which numpy flags, so the flags are
    # silenced.
    base = BASELINES[family]
    c = base.support_low
    inside = c + np.array([1e-9, 0.01, 0.5, 1.0, 3.0, 40.0])
    t = np.array([c, math.nextafter(c, math.inf), *inside, 1e6, 1e100, 1e300,
                  math.inf, -math.inf, math.nan])
    with np.errstate(all="ignore"):
        joint = base._closed_forms(t, True, True, True)
        for k in range(3):
            alone = base._closed_forms(t, *(j == k for j in range(3)))
            assert [v is None for v in alone] == [j != k for j in range(3)], k
            assert np.array_equal(_bits(alone[k]), _bits(joint[k])), k
        F, f, df = joint
        for public, curve in ((base.cdf, F), (base.pdf, f)):
            want = np.where(t > c, curve, 0.0)
            assert np.array_equal(_bits(public(t)), _bits(want)), public
            points = [public(float(p)) for p in t]
            assert all(type(p) is float for p in points)
            assert np.array_equal(_bits(points), _bits(want)), public
        # pdf_prime raises at and below c (and at NaN); above it, it is the joint f'
        above = t > c
        assert np.array_equal(_bits(base.pdf_prime(t[above])), _bits(df[above]))
        points = [base.pdf_prime(p) for p in t[above].tolist()]
        assert all(type(p) is float for p in points)
        assert np.array_equal(_bits(points), _bits(df[above]))


@pytest.mark.parametrize("family", sorted(BASELINES))
def test_offset_forms_asked_alone_match_both_asked_together(family):
    # at the support start, the least subnormal offset, a tiny one, across
    # eighteen decades and at +inf
    base = BASELINES[family]
    dz = np.array([0.0, 5e-324, 1e-300, *np.geomspace(1e-12, 1e6, 50), math.inf])
    F, f = base._offset_forms(dz, True, True)
    F_alone, no_f = base._offset_forms(dz, True, False)
    no_F, f_alone = base._offset_forms(dz, False, True)
    assert no_f is None and no_F is None
    assert np.array_equal(_bits(F_alone), _bits(F)) and np.array_equal(_bits(f_alone), _bits(f))
    for public, joint in ((base.cdf_offset, F), (base.pdf_offset, f)):
        assert np.array_equal(_bits(public(dz)), _bits(joint)), public
        points = [public(p) for p in dz.tolist()]
        assert all(type(p) is float for p in points)
        assert np.array_equal(_bits(points), _bits(joint)), public


def test_catalog_curves_filled_alone_match_the_joint_fill(catalog):
    # 100001 points is above mixture.EVAL_BLOCK: every block of a pass
    for s in catalog:
        grid = scenario_grid(s, 100_001)
        joint = PairSample(s.u, s.v, grid).fill("cdf", "pdf")
        for curve in ("cdf", "pdf"):
            alone = PairSample(s.u, s.v, grid).fill(curve)
            for name in (f"{curve}_u", f"{curve}_v"):
                assert np.array_equal(_bits(alone[name]), _bits(joint[name])), (s.scenario_id, name)


def _nested_on_support(x, start, fn, curves=0):
    """The mask rule before the one-pass group mask: ``fn`` at the points
    above ``start``, zero elsewhere; a scalar as a length-1 array."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        if not arr > start:
            return (0.0,) * curves if curves else 0.0
        values = fn(arr.reshape(1))
        return tuple(float(v[0]) for v in values) if curves else float(values[0])
    mask = arr > start
    if mask.all() and arr.size:
        return fn(arr)
    outs = tuple(np.zeros(arr.shape) for _ in range(curves or 1))
    if mask.any():
        values = fn(arr[mask])
        for out, value in zip(outs, values if curves else (values,)):
            out[mask] = value
    return outs if curves else outs[0]


def _nested_group_curves(components, x, curves):
    """Reference of ``els.sample_groups`` on one group as three nested masks:
    the group's support start, then the baseline's ``cdf`` and ``pdf`` masks
    at z. Flat, as the kernel: each component's curves in turn."""
    first = components[0]
    base = first.baseline

    def baseline(name, z):
        def closed_form(t):
            return base._closed_forms(t, name == "cdf", name == "pdf", False)[name == "pdf"]

        try:
            return _nested_on_support(z, base.support_low, closed_form)
        except OverflowError:
            raise DomainError(f"{base.family} {name} overflows the float range") from None

    def above(t):
        z = (t - first.sigma) / first.lam
        F = baseline("cdf", z)
        f = baseline("pdf", z) if "pdf" in curves else None
        out = []
        for c in components:
            if "cdf" in curves:
                out.append(F ** c.alpha)
            if "pdf" in curves:
                out.append(c._density(F, f))
        return out

    start = first.sigma + base.support_low * first.lam
    return list(_nested_on_support(x, start, above, curves=len(curves) * len(components)))


def _nested_groups(groups, x, curves):
    """Reference of ``els.sample_groups``: each group's nested masks in turn."""
    return [value for group in groups for value in _nested_group_curves(group, x, curves)]


def _edge_points(start, sigma, lam, c):
    """The doubles within 6 steps of ``start``, and how many of them lie above
    it with z = (x - sigma)/lam <= c, and at or below it with z > c."""
    points = [start]
    for direction in (math.inf, -math.inf):
        x = start
        for _ in range(6):
            x = math.nextafter(x, direction)
            points.append(x)
    points = np.sort(points)
    above, inside = points > start, (points - sigma) / lam > c
    return points, int((above & ~inside).sum()), int((~above & inside).sum())


def _group_inputs(points, start, lam):
    """Scalars, 0-d, 1-d and 2-d inputs around ``start``, with NaN and +-inf,
    and grids one below, at and one above ``mixture.EVAL_BLOCK`` points."""
    specials = [math.nan, math.inf, -math.inf]
    line = np.concatenate((points, specials, start + lam * np.linspace(-2.0, 20.0, 23)))
    inputs = [float(t) for t in line] + [np.asarray(t) for t in line[::5]]
    inputs += [line, line[:36].reshape(6, 6), np.empty(0), points[points > start]]
    for n in (mixture.EVAL_BLOCK - 1, mixture.EVAL_BLOCK, mixture.EVAL_BLOCK + 1):
        inputs.append(start + lam * np.linspace(-1.0, 30.0, n))
    return inputs


def _same_bits(new, ref):
    assert len(new) == len(ref)
    for got, want in zip(new, ref):
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("family", list(BASELINES))
def test_group_pass_matches_the_nested_masks_bit_for_bit(family):
    base, twin = BASELINES[family], _twin(BASELINES[family])
    groups = []
    for sigma, lam in itertools.product((0.0, 0.1, 0.3, 1.7, 3.3), (0.1, 0.3, 1 / 3, 3.0)):
        group = tuple(ELSComponent(base, alpha, sigma, lam) for alpha in (0.3, 1.0, 2.5))
        groups.append(group)
        start = group[0].support_start
        points, _, _ = _edge_points(start, sigma, lam, base.support_low)
        for x in _group_inputs(points, start, lam):
            for curves in _CURVE_SETS:
                _same_bits(els.sample_groups((group,), x, curves),
                           _nested_group_curves(group, x, curves))
    # all groups in one call, with two on an equal baseline object, one of
    # them with alphas all 1, at the doubles next to every start
    groups += [(ELSComponent(twin, 1.0, 0.3, 1.0),),
               (ELSComponent(twin, 2.5, 1.7, 3.0), ELSComponent(twin, 1.0, 1.7, 3.0))]
    starts = [group[0].support_start for group in groups]
    points = [t for s in starts for t in (math.nextafter(s, -math.inf), s, math.nextafter(s, math.inf))]
    for x in [*points, np.array(points)]:
        for curves in _CURVE_SETS:
            _same_bits(els.sample_groups(groups, x, curves), _nested_groups(groups, x, curves))


def test_group_pass_points_where_the_two_masks_disagree():
    # both kinds of disagreement occur, and the group pass keeps the nested bits there
    seen = [0, 0]
    for family, sigma, lam in (("lt_lomax", 0.0, 0.3), ("lt_lomax", 0.3, 0.1),
                               ("loglogistic", 0.0, 3.0), ("pareto", 1.7, 0.1)):
        # alpha = 1 keeps f at z = c, where F = 0 zeroes the other densities
        group = tuple(ELSComponent(BASELINES[family], alpha, sigma, lam)
                      for alpha in (0.3, 1.0, 2.5))
        start = group[0].support_start
        points, above_only, inside_only = _edge_points(start, sigma, lam,
                                                       BASELINES[family].support_low)
        seen[0] += above_only
        seen[1] += inside_only
        # the points above the start alone: a block whose smallest point is
        # kept by the start test but not by the z test
        for x in [points, points[points > start], *points.tolist()]:
            _same_bits(els.sample_groups((group,), x, ("cdf", "pdf")),
                       _nested_group_curves(group, x, ("cdf", "pdf")))
    assert seen[0] > 0 and seen[1] > 0


def test_density_pass_over_alpha_one_groups_calls_no_baseline_cdf(monkeypatch):
    par, lomax = BASELINES["pareto"], BASELINES["lt_lomax"]
    ones = ((ELSComponent(par, 1.0, 0.0, 1.0),), (ELSComponent(par, 1.0, 1.0, 2.0),),
            (ELSComponent(lomax, 1.0, 0.5, 1.5),))
    mixed = ones + ((ELSComponent(lomax, 1.0, 2.0, 1.0), ELSComponent(lomax, 2.5, 2.0, 1.0)),)
    calls = []
    closed_forms = BaselineModel._curves

    def counting(self, t, cdf, pdf, dpdf):
        calls.extend((id(self), name) for name, asked in (("cdf", cdf), ("pdf", pdf)) if asked)
        return closed_forms(self, t, cdf, pdf, dpdf)

    monkeypatch.setattr(BaselineModel, "_curves", counting)
    starts = [group[0].support_start for group in mixed]
    points = [t for s in starts for t in (math.nextafter(s, -math.inf), s, math.nextafter(s, math.inf))]
    points += np.linspace(3.0, 40.0, 38).tolist() + [math.nan, math.inf, -math.inf]
    for x in [*points, np.array(points)]:
        for groups in (ones, mixed):
            calls.clear()
            density = els.sample_groups(groups, x, ("pdf",))
            # only a group holding an alpha other than 1 takes the baseline CDF
            assert {base for base, name in calls if name == "cdf"} <= (
                {id(lomax)} if groups is mixed else set()), (x, calls)
            _same_bits(density, els.sample_groups(groups, x, ("cdf", "pdf"))[1::2])
        calls.clear()
        for (comp,) in ones:  # a component pdf is the kernel's one-group case
            comp.pdf(x)
        assert all(name == "pdf" for _, name in calls), (x, calls)


def test_offset_density_at_alpha_one_calls_no_baseline_cdf_offset(monkeypatch):
    # the density reads no baseline F at alpha = 1, so its offset path forms none
    dx = np.array([5e-324, 1e-300, *np.geomspace(1e-12, 1e6, 50), math.inf])
    calls = []
    cdf_offset = BaselineModel.cdf_offset

    def counting(self, dz):
        calls.append(dz)
        return cdf_offset(self, dz)

    for base in BASELINES.values():
        for alpha in (1.0, 2.5):
            comp = ELSComponent(base, alpha, 1.5, 2.0)
            dz = dx / comp.lam
            want = comp._density(cdf_offset(base, dz), base.pdf_offset(dz))
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(BaselineModel, "cdf_offset", counting)
                _same_bits([comp.pdf_at_offset(dx)], [want])
                _same_bits([comp.pdf_at_offset(p) for p in dx.tolist()], want.tolist())
            assert len(calls) == (0 if alpha == 1.0 else 1 + dx.size), (base, alpha)


@pytest.mark.parametrize("t", [11.0, np.array([11.0, 12.0]), np.array([5.0, 11.0])],
                         ids=["scalar", "above", "mixed"])
def test_group_pass_overflow_matches_the_nested_masks(t):
    group = (ELSComponent(make_baseline("pareto", a=400.0, k=10.0), 2.0, 0.0, 1.0),)
    for fn in (els.sample_groups, _nested_groups):
        with pytest.raises(DomainError, match="^pareto pdf overflows the float range$"):
            fn((group,), t, ("cdf", "pdf"))
    for alpha in (1.0, 2.0):  # the component pdf alone, with and without the CDF
        with pytest.raises(DomainError, match="^pareto pdf overflows the float range$"):
            ELSComponent(group[0].baseline, alpha, 0.0, 1.0).pdf(t)


@pytest.mark.parametrize("family", list(BASELINES))
def test_component_pdf_matches_its_group_pass_bit_for_bit(family):
    # the group pass here is the nested reference: the component pdf is the
    # kernel's one-group case, with no baseline CDF at alpha = 1
    base = BASELINES[family]
    for sigma, lam, alpha in itertools.product((0.0, 0.3, 1.7), (0.1, 1 / 3, 3.0),
                                               (0.3, 1.0, 2.5)):
        comp = ELSComponent(base, alpha, sigma, lam)
        points, _, _ = _edge_points(comp.support_start, sigma, lam, base.support_low)
        for x in _group_inputs(points, comp.support_start, lam):
            _same_bits([comp.pdf(x)], _nested_group_curves((comp,), x, ("pdf",)))


def _per_component_pdf_at_offset(mix, origin, dx):
    """Reference of ``FiniteMixture.pdf_at_offset`` through each component's
    offset path at its start and the nested group masks after it."""
    origin, arr = np.asarray(origin, dtype=float), np.asarray(dx, dtype=float)
    if origin.shape != arr.shape:
        origin, arr = np.broadcast_arrays(origin, arr)
    origin, flat = origin.ravel(), arr.ravel()
    total = np.zeros(flat.size)
    for w, component in zip(mix.weights, mix.components):
        start = component.support_start
        at, after = (origin == start).nonzero()[0], (origin > start).nonzero()[0]
        if at.size:
            total[at] += w * component.pdf_at_offset(flat[at])
        if after.size:
            x = origin[after] + flat[after]
            total[after] += w * _nested_group_curves((component,), x, ("pdf",))[0]
    return float(total[0]) if arr.ndim == 0 else total.reshape(arr.shape)


@st.composite
def offset_mixtures(draw, family):
    """Mixtures of up to four components, the first over ``family`` and the
    others over any family; a component may share an earlier one's baseline,
    sigma and lam, and so its start. Alpha is 1 or not."""
    comps = []
    for _ in range(draw(st.integers(1, 4))):
        if comps and draw(st.booleans()):
            base, sigma, lam = draw(st.sampled_from([(c.baseline, c.sigma, c.lam) for c in comps]))
        else:
            base = BASELINES[family if not comps else draw(st.sampled_from(sorted(BASELINES)))]
            sigma = draw(st.sampled_from([0.0, 0.5, 1.7]))
            lam = draw(st.sampled_from([0.3, 1.0, 2.0]))
        comps.append(ELSComponent(base, draw(st.sampled_from([1.0, 0.3, 0.8, 2.5])), sigma, lam))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(comps), max_size=len(comps)))
    return FiniteMixture(comps, weights, policy="autonorm")


_DX = np.array([0.0, math.nan, 1e-300, 1e-9, 0.5, 4.0, 1e6])


@pytest.mark.parametrize("family", sorted(BASELINES))
@given(data=st.data())
def test_pdf_at_offset_matches_the_component_methods_bit_for_bit(family, data):
    mix = data.draw(offset_mixtures(family))
    gap = data.draw(st.floats(1e-6, 2.0))
    starts = sorted({c.support_start for c in mix.components})
    # origins at, just and well after, and just and well before each start
    origins = [t for s in starts for t in (s, math.nextafter(s, math.inf), s + gap,
                                           math.nextafter(s, -math.inf), s - gap)]
    every_origin, every_dx = (a.ravel() for a in np.meshgrid(origins, _DX))
    inputs = [(every_origin, every_dx), (every_origin.reshape(-1, len(origins)), every_dx[0])]
    for origin in origins:  # a broadcast scalar origin, 0-d arrays and floats
        inputs.append((origin, _DX))
        inputs += [(np.asarray(origin), np.asarray(d)) for d in _DX[:3]]
        inputs += [(origin, float(d)) for d in _DX]
    for origin, dx in inputs:
        got, want = mix.pdf_at_offset(origin, dx), _per_component_pdf_at_offset(mix, origin, dx)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(_bits(got), _bits(want)), (origin, dx)


@st.composite
def block_inputs(draw, starts):
    """Unsorted arrays of the doubles within 3 steps of ``starts``, +-0.0,
    +-inf, NaN and points inside; or arrays whose smallest point is a start
    or one of the 3 doubles above it; or empty arrays."""
    def steps(s, direction):
        for _ in range(3):
            s = math.nextafter(s, direction)
            yield s

    above = [t for s in starts for t in steps(s, math.inf)]
    below = [t for s in starts for t in steps(s, -math.inf)]
    pool = [*below, *starts, *above, 0.0, -0.0, math.inf, -math.inf, math.nan]
    values = draw(st.lists(st.one_of(st.sampled_from(pool), st.floats(-5.0, 60.0)), max_size=12))
    low = draw(st.sampled_from([None, *starts, *above]))
    if low is not None:
        values = draw(st.permutations([v for v in values if v >= low] + [low]))
    return np.array(values, dtype=float)


@pytest.mark.parametrize("family", sorted(BASELINES))
@given(data=st.data())
def test_block_pass_matches_the_scalar_pass_bit_for_bit(family, data):
    # the array pass tests each group by the block's smallest point; each
    # value must keep the bits of that point's scalar pass
    mix = data.draw(offset_mixtures(family))
    groups = mixture._plan((mix,))[0]
    x = data.draw(block_inputs(sorted({c.support_start for c in mix.components})))
    for curves in _CURVE_SETS:
        grid = els.sample_groups(groups, x, curves)
        assert all(value.shape == x.shape for value in grid)
        for i, t in enumerate(x.tolist()):
            scalar = els.sample_groups(groups, t, curves)
            assert np.array_equal(_bits(scalar), _bits([value[i] for value in grid])), (t, curves)
        _same_bits(grid, _nested_groups(groups, x, curves))
