"""The mixture sum gives the bits of the textbook Kahan loop.

``mixture._compensated_sum`` starts from the first term and leaves out the
first step's ``term - 0.0`` and the last step's compensation update. The
reference here is the loop it shortens: ``numerics.kahan_add`` from
``(terms[0], 0.0)`` over every other term, then the plain sum where that
gives NaN. Both run on Python floats and on arrays, from the sum itself and
through ``mixture.sample_curves`` on grids around a patched
``mixture.EVAL_BLOCK``. A pair pass over a grid longer than one block takes
one plan.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from mixorder import ELSComponent, FiniteMixture, get_scenario, make_baseline, mixture
from mixorder._sampling import random_mixture
from mixorder.els import sample_groups
from mixorder.numerics import kahan_add
from mixorder.scenarios import scenario_grid

#: signed zeros, NaN, infinities, subnormals and the largest magnitudes
SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1.5e-310,
           1e308, -1e308, 1.0, 1e-16)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _textbook_sum(terms):
    """The Kahan loop from the first term, then the plain sum where it is NaN."""
    total, comp = terms[0], 0.0
    with np.errstate(invalid="ignore"):  # a step past an infinite term is NaN
        for term in terms[1:]:
            total, comp = kahan_add(total, comp, term)
    if isinstance(total, float):
        return sum(terms) if math.isnan(total) else total
    total = np.array(total, dtype=float)  # one term is the caller's own array
    bad = np.isnan(total)
    total[bad] = sum(term[bad] for term in terms)
    return total


@given(data=st.data(), n_terms=st.integers(1, 4), length=st.none() | st.integers(1, 5))
def test_sum_matches_the_textbook_loop(data, n_terms, length):
    values = st.sampled_from(SPECIAL) | st.floats()
    if length is None:
        terms = [data.draw(values) for _ in range(n_terms)]
    else:
        terms = [np.array(data.draw(st.lists(values, min_size=length, max_size=length)))
                 for _ in range(n_terms)]
    kept = [np.array(term) for term in terms]
    # overflow and inf - inf are part of the inputs; only the bits are compared
    with np.errstate(all="ignore"):
        expected = _textbook_sum(terms)
        if length is None:
            got = mixture._compensated_sum(terms)
            assert type(got) is float
        else:
            out = np.full(length, 7.0)
            got = mixture._compensated_sum(terms, out)
            assert got is out
    assert np.array_equal(_bits(got), _bits(expected)), (terms, got, expected)
    assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(terms, kept))


def _infinite_density_mixture():
    """Three components whose density at 1e-322 is +inf for alpha = 0.001
    and finite otherwise: the Kahan sum there is NaN, the plain sum +inf."""
    base = make_baseline("loglogistic", b=1.0)
    comps = [ELSComponent(base, alpha, 0.0, 1.0) for alpha in (2.0, 0.001, 1.0)]
    return FiniteMixture(comps, (0.25, 0.25, 0.5))


@given(block=st.integers(2, 6), extra=st.sampled_from([-1, 0, 1, 3]),
       seed=st.integers(0, 2**32 - 1), infinite=st.booleans(),
       curves=st.sampled_from([("cdf",), ("pdf",), ("cdf", "pdf")]))
def test_sample_curves_sums_match_the_textbook_loop(block, extra, seed, infinite, curves):
    rng = np.random.default_rng(seed)
    u = _infinite_density_mixture() if infinite else random_mixture(rng)
    v = random_mixture(rng)
    n = block * (1 + seed % 3) + extra
    start = min(u.support_start, v.support_start)
    x = np.linspace(start - 1.0, start + 20.0, n)
    x[seed % n] = (math.nan, math.inf, 1e-322)[seed % 3]
    groups, places = mixture._plan((u, v))
    k = len(curves)
    with np.errstate(over="ignore"):  # a component power overflows at 1e-322
        with mock.patch.object(mixture, "EVAL_BLOCK", block):
            got = mixture.sample_curves((u, v), x, curves)
        values = sample_groups(groups, x, curves)
        points = [(t, sample_groups(groups, t, curves)) for t in x.tolist()]
        for mix, place, sums in zip((u, v), places, got):
            for j, total in enumerate(sums):
                expected = _textbook_sum([w * values[k * i + j]
                                          for w, i in zip(mix.weights, place)])
                assert np.array_equal(_bits(total), _bits(expected)), (x, total, expected)
        for t, at in points:
            expected = [[_textbook_sum([w * at[k * i + j]
                                        for w, i in zip(mix.weights.tolist(), place)])
                         for j in range(k)] for mix, place in zip((u, v), places)]
            got = mixture.sample_curves((u, v), t, curves)
            assert np.array_equal(_bits(got), _bits(expected)), (t, got, expected)


def test_a_pair_pass_over_several_blocks_plans_once(monkeypatch):
    scenario = get_scenario("CE4.2")
    x = scenario_grid(scenario, 3 * mixture.EVAL_BLOCK + 5).points()
    plan, calls = mixture._plan, []
    monkeypatch.setattr(mixture, "_plan", lambda mixtures: calls.append(mixtures) or plan(mixtures))
    mixture.sample_curves((scenario.u, scenario.v), x, ("cdf", "pdf"))
    assert calls == [(scenario.u, scenario.v)]
