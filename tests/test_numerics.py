import math
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import kahan_step
from mixorder import mixture, verify_normalization
from mixorder.errors import DomainError
from mixorder.numerics import (
    QuadratureResult,
    adaptive_simpson,
    bisect_nondecreasing,
    brent_root,
    central_difference,
    compensated_sum,
    expand_upper_bracket,
)


def test_compensated_sum_compensates():
    terms = [0.1] * 10_000 + [1e9] + [0.1] * 10_000
    naive = 0.0
    for t in terms:
        naive += t
    exact = math.fsum(terms)
    total = compensated_sum(terms)
    assert abs(total - exact) <= abs(naive - exact)
    assert total == pytest.approx(exact, abs=1e-6)


def test_quadrature_sums_an_infinite_term_by_the_mixture_rule():
    # f is +inf only at 0.625, a quarter point of the right half [0.5, 1]:
    # that half's fine estimate is +inf while its coarse one is finite, so at
    # max_depth its term is +inf and comes first in the right-to-left sum
    def f(point):
        x = point[1]
        return np.where(x == 0.625, math.inf, np.exp(x))

    res = adaptive_simpson(f, 0.0, 1.0, abs_tol=1e-300, max_depth=1)
    assert (res.value, res.values, res.panels, res.unconverged) == (math.inf, (math.inf,), 2, (2,))
    # the textbook step streams the compensation inf - inf into the total
    total = comp = 0.0
    for term in (math.inf, 1.0):
        total, comp = kahan_step(total, comp, term)
    assert math.isnan(total)


def test_adaptive_simpson_polynomial_exact():
    res = adaptive_simpson(lambda point: point[1] ** 2, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_adaptive_simpson_smooth():
    res = adaptive_simpson(lambda point: np.sin(point[1]), 0.0, math.pi, abs_tol=1e-10)
    assert res.converged
    assert res.value == pytest.approx(2.0, abs=1e-9)


def _reference_simpson(f, a, b, abs_tol=1e-9, max_depth=40, examined=None):
    """Depth-first adaptive Simpson on a scalar integrand ``f``, splitting
    the right half first: the reference for the level-wise rule. Appends
    (depth, accepted) of each panel it examines to the list ``examined``."""
    if a == b:
        return QuadratureResult(0.0, True, 0, 0, (0.0,), (0,))

    def simpson(a, fa, b, fb, fm):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    stack = [(a, fa, b, fb, m, fm, simpson(a, fa, b, fb, fm), 0)]
    total = comp = 0.0
    panels = bad = 0
    while stack:
        a0, fa0, b0, fb0, m0, fm0, s0, depth = stack.pop()
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm, frm = f(lm), f(rm)
        left = simpson(a0, fa0, m0, fm0, flm)
        right = simpson(m0, fm0, b0, fb0, frm)
        err = (left + right) - s0
        done = abs(err) <= 15.0 * abs_tol or depth >= max_depth
        if examined is not None:
            examined.append((depth, done))
        if done:
            panels += 1
            if abs(err) > 15.0 * abs_tol:
                bad += 1
            total, comp = kahan_step(total, comp, left + right + err / 15.0)
        else:
            stack.append((a0, fa0, m0, fm0, lm, flm, left, depth + 1))
            stack.append((m0, fm0, b0, fb0, rm, frm, right, depth + 1))
    return QuadratureResult(total, bad == 0, panels, bad, (total,), (bad,))


#: row r of the half panels comes from rows _LEVEL_HALVES[r] (left, right) of a depth's table
_LEVEL_HALVES = np.array([[0, 1], [7, 8], [1, 2], [3, 4], [9, 10], [4, 5], [11, 12]])


def _level_wise_simpson(f, a, b, abs_tol=1e-9, max_depth=40):
    """The level-wise rule without look-ahead: one integrand call on the
    starting nodes, then one per depth on the midpoints of every open panel."""
    lo, hi = np.array([a, b], dtype=float).reshape(2, -1)
    tol = 15.0 * abs_tol
    key = np.flatnonzero(lo != hi)
    accepted = [(key[:0], lo[:0], lo[:0], np.zeros(0, dtype=bool))]
    if key.size:
        nodes = np.stack((lo[key], 0.5 * (lo[key] + hi[key]), hi[key]))
        fx = f((np.concatenate([key] * 3), nodes.ravel())).reshape(3, -1)
        coarse = (nodes[2] - nodes[0]) / 6.0 * (fx[0] + 4.0 * fx[1] + fx[2])
        panel = np.concatenate((nodes, fx, [coarse]))
    for depth in range(max_depth + 1 if key.size else 0):
        quarter = 0.5 * (panel[0:2] + panel[1:3])
        fq = f((np.concatenate([key] * 2), quarter.ravel())).reshape(2, -1)
        fine = (panel[1:3] - panel[0:2]) / 6.0 * (panel[3:5] + 4.0 * fq + panel[4:6])
        both = fine[0] + fine[1]
        err = both - panel[6]
        accept = (np.abs(err) <= tol) | (depth >= max_depth)
        accepted.append((key[accept], panel[0, accept], (both + err / 15.0)[accept],
                         np.abs(err[accept]) > tol))
        if accept.all():
            break
        panel = np.concatenate((panel, quarter, fq, fine))[:, ~accept][_LEVEL_HALVES]
        panel = panel.reshape(7, -1)
        key = np.concatenate([key[~accept]] * 2)
    keys, lefts, terms, bad = (np.concatenate(parts) for parts in zip(*accepted))
    order = np.lexsort((lefts, keys))[::-1]
    sums, comps = [0.0] * lo.size, [0.0] * lo.size
    for i, term in zip(keys[order].tolist(), terms[order].tolist()):
        sums[i], comps[i] = kahan_step(sums[i], comps[i], term)
    *_, value = accumulate(sums, initial=0.0)
    unconverged = np.bincount(keys[bad], minlength=lo.size)
    return QuadratureResult(value, not bad.any(), keys.size, int(unconverged.sum()),
                            tuple(sums), tuple(unconverged.tolist()))


def _hexed(res):
    """Every field of a ``QuadratureResult``, its floats as ``float.hex``."""
    return (res.value.hex(), res.converged, res.panels, res.unconverged_panels,
            tuple(v.hex() for v in res.values), res.unconverged)


def _references(f, a, b, **kwargs):
    """``_reference_simpson`` of the integrand ``f`` on each interval [a[i], b[i]]."""
    return [_reference_simpson(_scalar(f, i), lo, hi, **kwargs)
            for i, (lo, hi) in enumerate(zip(a, b))]


def _scalar(f, interval=0):
    """The integrand ``f`` of ``interval`` evaluated at one point."""
    return lambda t: float(f((np.array([interval]), np.array([t])))[0])


def _pointwise(fns):
    """Integrand applying the scalar ``fns[i]`` at each point of interval i."""
    return lambda point: np.array([fns[i](t) for i, t in zip(*(p.tolist() for p in point))])


def _matches_in_order(new, refs):
    """The merged result is the references' per-interval results, and their
    values added in interval order, bit for bit."""
    value = 0.0
    for ref in refs:
        value += ref.value
    return (new.value, new.values, new.unconverged, new.panels, new.unconverged_panels,
            new.converged) == (
        value, tuple(r.value for r in refs), tuple(r.unconverged_panels for r in refs),
        sum(r.panels for r in refs), sum(r.unconverged_panels for r in refs),
        all(r.converged for r in refs))


def _segment_integrands(monkeypatch, mixtures):
    """(f, a, b, keywords) of every quadrature ``verify_normalization`` runs."""
    calls = []
    level_wise = mixture.adaptive_simpson

    def recording(f, a, b, **kwargs):
        calls.append((f, a, b, kwargs))
        return level_wise(f, a, b, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(mixture, "adaptive_simpson", recording)
        for mix in mixtures:
            verify_normalization(mix, tol=1e-6)
    return calls


def test_level_wise_simpson_matches_depth_first_on_normalization(
    monkeypatch, catalog, false_convergence_mixtures
):
    mixtures = [m for s in catalog for m in s.mixtures()] + list(false_convergence_mixtures)
    calls = _segment_integrands(monkeypatch, mixtures)
    # one quadrature per mixture, over all of its support segments
    assert len(calls) == len(mixtures)
    for f, a, b, kwargs in calls:
        new = adaptive_simpson(f, a, b, **kwargs)
        refs = _references(f, a, b, **kwargs)
        assert new.panels == sum(r.panels for r in refs)
        assert new.unconverged == tuple(r.unconverged_panels for r in refs)
        for value, ref in zip(new.values, refs):
            assert abs(value - ref.value) <= 1e-15


def test_look_ahead_matches_level_wise_on_normalization(
    monkeypatch, catalog, false_convergence_mixtures
):
    mixtures = [m for s in catalog for m in s.mixtures()] + list(false_convergence_mixtures)
    calls = _segment_integrands(monkeypatch, mixtures)
    assert len(calls) == len(mixtures)
    for f, a, b, kwargs in calls:
        assert _hexed(adaptive_simpson(f, a, b, **kwargs)) == \
            _hexed(_level_wise_simpson(f, a, b, **kwargs))


#: integrands that no panel tolerance settles near a kink, a jump or a singularity
_ROUGH = {
    "kink": lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)),
    "jump": lambda x: np.where(x < 0.7, 1.0, 2.5),
    "pole": lambda x: 1.0 / np.sqrt(x + 1e-12),
}


@pytest.mark.parametrize("rough", list(_ROUGH))
@pytest.mark.parametrize("max_depth", list(range(9)) + [15, 16])
def test_look_ahead_matches_level_wise_at_max_depth(rough, max_depth):
    # a smooth interval, a zero-width one and two rough ones, whose panels at
    # max_depth stay unconverged: the depth that evaluates no look-ahead
    fn = _ROUGH[rough]
    f = lambda point: np.where(point[0] == 0, np.cos(point[1]), fn(point[1]))
    a, b = [0.0, 0.0, 0.0, 0.25], [1.0, 0.0, 1.0, 0.9]
    new = adaptive_simpson(f, a, b, abs_tol=1e-13, max_depth=max_depth)
    assert new.unconverged_panels > 0
    assert _hexed(new) == _hexed(_level_wise_simpson(f, a, b, abs_tol=1e-13,
                                                     max_depth=max_depth))


_TOLERANCES = st.sampled_from([1e-6, 1e-9, 1e-12])
_WIDTHS = st.one_of(st.just(0.0), st.floats(1e-3, 4.0))


@given(intervals=st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0), _WIDTHS),
                          min_size=1, max_size=4),
       abs_tol=_TOLERANCES, max_depth=st.integers(0, 12))
def test_level_wise_simpson_matches_depth_first_power(intervals, abs_tol, max_depth):
    # the same integrand values give the same arithmetic, hence the same bits
    fns = [lambda t, p=p: t**p for p, _, _ in intervals]
    a = [lo for _, lo, _ in intervals]
    b = [lo + width for _, lo, width in intervals]
    new = adaptive_simpson(_pointwise(fns), a, b, abs_tol=abs_tol, max_depth=max_depth)
    refs = [_reference_simpson(fn, lo, hi, abs_tol=abs_tol, max_depth=max_depth)
            for fn, lo, hi in zip(fns, a, b)]
    assert _matches_in_order(new, refs)
    level_wise = _level_wise_simpson(_pointwise(fns), a, b, abs_tol=abs_tol, max_depth=max_depth)
    assert _hexed(new) == _hexed(level_wise)


@given(intervals=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0), _WIDTHS),
                          min_size=1, max_size=4),
       abs_tol=_TOLERANCES, max_depth=st.integers(0, 12))
# three panels whose sum changes in the last bit when taken in another order
@example(intervals=[(2.8531978705609227, -1.570091086455411, 0.9047254878658898)],
         abs_tol=1e-6, max_depth=2)
def test_level_wise_simpson_matches_depth_first_exp(intervals, abs_tol, max_depth):
    fns = [lambda t, c=c: math.exp(c * t) for c, _, _ in intervals]
    a = [lo for _, lo, _ in intervals]
    b = [lo + width for _, lo, width in intervals]
    new = adaptive_simpson(_pointwise(fns), a, b, abs_tol=abs_tol, max_depth=max_depth)
    refs = [_reference_simpson(fn, lo, hi, abs_tol=abs_tol, max_depth=max_depth)
            for fn, lo, hi in zip(fns, a, b)]
    assert _matches_in_order(new, refs)
    level_wise = _level_wise_simpson(_pointwise(fns), a, b, abs_tol=abs_tol, max_depth=max_depth)
    assert _hexed(new) == _hexed(level_wise)


def test_simpson_depth_zero_and_zero_width_intervals():
    sizes = []

    def cube(point):
        sizes.append(point[1].size)
        return point[1] ** 3

    # max_depth = 0 accepts every starting panel after one split: the starting
    # call holds the three nodes and two quarter points of each open interval
    res = adaptive_simpson(cube, [0.0, 2.0, 1.0], [1.0, 2.0, 3.0], max_depth=0)
    assert (res.panels, res.unconverged, sizes) == (2, (0, 0, 0), [10])
    assert res.values == (pytest.approx(0.25), 0.0, pytest.approx(20.0))
    # only zero-width intervals: nothing to evaluate
    res = adaptive_simpson(cube, [1.0, 2.0], [1.0, 2.0])
    assert res == QuadratureResult(0.0, True, 0, 0, (0.0, 0.0), (0, 0))
    assert len(sizes) == 1
    # max_depth = 1: the depth-1 call is at max_depth and looks no further
    # ahead, two quarter points for each of the two halves of each interval
    sizes.clear()
    res = adaptive_simpson(lambda point: cube(point) + np.sqrt(point[1]), [0.0, 1.0],
                           [1.0, 3.0], abs_tol=1e-13, max_depth=1)
    assert (res.panels, res.unconverged, sizes) == (4, (2, 2), [10, 8])


def test_simpson_calls_integrand_one_depth_ahead(monkeypatch, catalog):
    mixtures = [m for s in catalog for m in s.mixtures()]
    calls = _segment_integrands(monkeypatch, mixtures)
    assert len(calls) == len(mixtures)
    for f, a, b, kwargs in calls:
        sizes, seen = [], Counter()

        def counted(point):
            sizes.append(len(point[1]))
            seen.update(zip(*(p.tolist() for p in point)))
            return f(point)

        res = adaptive_simpson(counted, a, b, **kwargs)
        nodes, examined = Counter(), []
        for i, (lo, hi) in enumerate(zip(a, b)):
            _reference_simpson(lambda t: nodes.update([(i, t)]) or _scalar(f, i)(t), lo, hi,
                               examined=examined, **kwargs)
        max_depth, k = kwargs["max_depth"], int(np.count_nonzero(a != b))
        # the depth-first rule: three starting nodes, two midpoints per examined panel
        assert sum(nodes.values()) == 3 * k + 2 * (2 * res.panels - k)
        # the starting call, then one at each odd depth that has an open panel
        odd = [(d, done) for d, done in examined if d % 2]
        assert len(sizes) == 1 + len({d for d, _ in odd}) <= (max_depth + 1) // 2 + 1
        # five starting points per interval; at an odd depth two quarter points
        # per open panel, and four more for its halves below max_depth
        assert sum(sizes) == 5 * k + sum(6 if d < max_depth else 2 for d, _ in odd)
        # each point of the depth-first rule once; the halves' points of a
        # panel accepted at an odd depth below max_depth are the only others
        assert all(seen[point] == 1 for point in nodes)
        assert sum(sizes) == sum(nodes.values()) + 4 * sum(
            done and d < max_depth for d, done in odd)


def test_bisection_quantile_accuracy():
    fn = lambda x: 1.0 - math.exp(-x)
    target = 0.5
    x = bisect_nondecreasing(fn, target, 0.0, 10.0, xtol=1e-12)
    assert x == pytest.approx(math.log(2.0), abs=1e-10)


#: monotone test functions with a root at ``r`` and a steepness ``s``
BRENT_CASES = {
    "cubic": lambda r, s: lambda x: (x - r) ** 3 + s * (x - r),
    "tanh": lambda r, s: lambda x: math.tanh(s * (x - r)),
    # a Lomax-type log survival in u = log(x), as in the mixture quantile,
    # negated to increase
    "loglog": lambda r, s: lambda u: s * (math.log1p(math.exp(u)) - math.log1p(math.exp(r))),
}


@given(
    case=st.sampled_from(sorted(BRENT_CASES)),
    root=st.floats(-5.0, 5.0),
    steep=st.floats(0.01, 50.0),
    below=st.floats(1e-3, 20.0),
    above=st.floats(1e-3, 20.0),
    xtol=st.sampled_from([1e-12, 1e-10, 1e-6]),
)
def test_brent_root_matches_brentq_bit_for_bit(case, root, steep, below, above, xtol):
    fn = BRENT_CASES[case](root, steep)
    a, b = root - below, root + above
    expected = brentq(fn, a, b, xtol=xtol)
    assert brent_root(fn, a, b, xtol) == expected
    # end values handed in by the caller give the same iterates
    assert brent_root(fn, a, b, xtol, fn(a), fn(b)) == expected
    assert brent_root(fn, b, a, xtol) == brentq(fn, b, a, xtol=xtol)


def test_brent_root_zero_at_an_end():
    fn = lambda x: x - 1.0
    for a, b in ((1.0, 3.0), (-1.0, 1.0)):
        assert brent_root(fn, a, b, 1e-10) == brentq(fn, a, b, xtol=1e-10) == 1.0
    # a given end value is trusted: no call of fn at all
    untouched = lambda x: pytest.fail("fn called")
    assert brent_root(untouched, 0.0, 2.0, 1e-10, fa=0.0, fb=1.0) == 0.0
    assert brent_root(untouched, 0.0, 2.0, 1e-10, fa=-1.0, fb=0.0) == 2.0


@pytest.mark.parametrize("fn", [lambda x: x * x + 1.0, lambda x: math.nan],
                         ids=["same_sign", "nan"])
def test_brent_root_without_sign_change_raises(fn):
    with pytest.raises(DomainError, match="no sign change on"):
        brent_root(fn, -1.0, 1.0, 1e-10)


def test_brent_root_nan_inside_bracket_raises():
    fn = lambda x: math.nan if 0.0 < x < 0.9 else x - 0.5
    with pytest.raises(DomainError, match="NaN"):
        brent_root(fn, -1.0, 1.0, 1e-10)


def test_expand_upper_bracket():
    fn = lambda x: x / 100.0
    hi, f_hi = expand_upper_bracket(fn, 0.5, 0.0, step=1.0)
    assert f_hi == fn(hi) >= 0.5
    with pytest.raises(DomainError, match="could not bracket"):
        expand_upper_bracket(lambda x: 0.0, 0.5, 0.0, max_doublings=3)


def test_central_difference_step_rule():
    fn = lambda t: t**3
    t = 4.0
    assert float(central_difference(fn, t)) == pytest.approx(3 * t**2, rel=1e-9)
    arr = central_difference(fn, np.array([1.0, 2.0]))
    assert np.allclose(arr, [3.0, 12.0], rtol=1e-8)
