"""Seeded random construction of baselines, mixtures and theorem-shaped
pairs, for the randomized sweeps in the tests.

Everything takes a numpy Generator so runs are reproducible from a seed.
Theorem-shaped generators build parameter sets that satisfy the theorem's
hypotheses by construction; callers still re-check via the condition
evaluators and filter, since grid-sampled monotonicity hypotheses can
fail for some drawn baselines.
"""

from __future__ import annotations

import numpy as np

from .baseline import make_baseline
from .els import ELSComponent
from .mixture import FiniteMixture, OutlierMixtureSpec


def random_baseline(rng, families=None):
    fam = rng.choice(
        list(families)
        if families
        else ["pareto", "lt_exponential", "benktander2", "lt_burr12", "lt_lomax", "loglogistic"]
    )
    if fam == "pareto":
        return make_baseline(fam, a=rng.uniform(1.5, 6.0), k=rng.uniform(0.5, 4.0))
    if fam == "lt_exponential":
        return make_baseline(fam, b=rng.uniform(0.5, 4.0), t0=rng.uniform(0.5, 3.0))
    if fam == "benktander2":
        return make_baseline(fam, a=rng.uniform(1.0, 5.0), b=rng.uniform(0.2, 0.8))
    if fam == "lt_burr12":
        return make_baseline(
            fam, k=rng.uniform(1.0, 2.5), m=rng.uniform(1.0, 5.0), t0=rng.uniform(0.5, 3.0)
        )
    if fam == "lt_lomax":
        return make_baseline(fam, m=rng.uniform(2.0, 6.0), t0=rng.uniform(0.5, 4.0))
    return make_baseline("loglogistic", b=rng.uniform(0.5, 4.0))


def _weights(rng, n):
    w = rng.uniform(0.05, 1.0, size=n)
    return w / w.sum()


def random_mixture(rng, baseline=None, n=None):
    baseline = baseline or random_baseline(rng)
    n = n or int(rng.integers(1, 4))
    comps = tuple(
        ELSComponent(
            baseline,
            alpha=rng.uniform(0.2, 5.0),
            sigma=rng.uniform(0.0, 4.0),
            lam=rng.uniform(0.5, 4.0),
        )
        for _ in range(n)
    )
    return FiniteMixture(comps, _weights(rng, n))


def random_pair(rng):
    """A mixture pair for the implication-chain audit.

    Light-tailed baselines keep the quantile-capped grid fine enough to
    resolve the whole comparison window, and the second mixture starts
    strictly later, which is the geometry the chain relates (a pair whose
    "larger" side carries mass at or below the other's support start
    turns the restricted-domain ratio verdicts into incomparable
    objects). Shapes move both ways, so none of the orders is guaranteed.
    Heavy-tail grids are exercised by the catalog scenarios and the
    per-theorem sweeps.
    """
    baseline = random_baseline(rng, ("lt_exponential", "benktander2"))
    n = int(rng.integers(1, 4))
    u = random_mixture(rng, baseline, n)
    comps = tuple(
        ELSComponent(
            baseline,
            alpha=c.alpha * rng.uniform(0.5, 2.0),
            sigma=c.sigma + rng.uniform(0.1, 2.0),
            lam=c.lam + rng.uniform(0.0, 2.0),
        )
        for c in u.components
    )
    weights = _weights(rng, n) if rng.random() < 0.5 else u.weights.copy()
    v = FiniteMixture(comps, weights)
    return u, v


def _sorted_vec(rng, n, lo, hi, descending=False):
    v = np.sort(rng.uniform(lo, hi, size=n))
    return v[::-1].copy() if descending else v


# families where t*rhr(t) decreases for every admissible parameter choice
_T_RHR_SAFE = ("pareto", "lt_exponential")


def pair_t3_1(rng):
    baseline = random_baseline(rng)
    n = int(rng.integers(2, 4))
    w = _weights(rng, n)
    desc = bool(rng.random() < 0.5)
    sigma = _sorted_vec(rng, n, 0.0, 3.0, desc)
    lam = _sorted_vec(rng, n, 0.5, 3.0, desc)
    mu = sigma + _sorted_vec(rng, n, 0.0, 2.0, desc)
    theta = lam + _sorted_vec(rng, n, 0.0, 2.0, desc)
    alpha = rng.uniform(0.3, 4.0, size=n)
    beta = alpha + rng.uniform(0.0, 3.0, size=n)
    u = FiniteMixture(
        tuple(ELSComponent(baseline, a, s, l) for a, s, l in zip(alpha, sigma, lam)), w
    )
    v = FiniteMixture(
        tuple(ELSComponent(baseline, b, m, t) for b, m, t in zip(beta, mu, theta)), w
    )
    return u, v


def pair_t3_2(rng):
    baseline = random_baseline(rng, _T_RHR_SAFE)
    n = int(rng.integers(2, 4))
    sigma = rng.uniform(0.0, 2.5, size=n)
    mu = rng.uniform(sigma.max(), sigma.max() + 2.0, size=n)
    lam = rng.uniform(0.5, 2.5, size=n)
    theta = rng.uniform(lam.max(), lam.max() + 2.0, size=n)
    alpha = rng.uniform(0.2, 3.0, size=n)
    beta = rng.uniform(alpha.max(), alpha.max() + 3.0, size=n)
    u = FiniteMixture(
        tuple(ELSComponent(baseline, a, s, l) for a, s, l in zip(alpha, sigma, lam)),
        _weights(rng, n),
    )
    v = FiniteMixture(
        tuple(ELSComponent(baseline, b, m, t) for b, m, t in zip(beta, mu, theta)),
        _weights(rng, n),
    )
    return u, v


def pair_t3_3(rng):
    # log-logistic shapes below ~1.2 combined with small mixture shapes
    # push the 1-1e-6 quantile so far out that the density floor leaves
    # no usable grid, so keep this sampler's tails moderate
    baseline = random_baseline(rng)
    if baseline.family == "loglogistic" and baseline.b < 1.2:
        baseline = make_baseline("loglogistic", b=rng.uniform(1.2, 4.0))
    n = int(rng.integers(2, 4))
    sigma = rng.uniform(0.0, 3.0)
    lam = rng.uniform(0.5, 3.0)
    alpha = rng.uniform(0.2, 3.0, size=n)
    beta = rng.uniform(alpha.max(), alpha.max() + 3.0, size=n)
    u = FiniteMixture(
        tuple(ELSComponent(baseline, a, sigma, lam) for a in alpha), _weights(rng, n)
    )
    v = FiniteMixture(
        tuple(ELSComponent(baseline, b, sigma, lam) for b in beta), _weights(rng, n)
    )
    return u, v


def _transfer_desc(rng, s):
    """r = s plus a largest-to-smallest transfer; r stays descending and
    majorizes s."""
    r = s.copy()
    d = rng.uniform(0.0, 0.9 * r[-1])
    r[0] += d
    r[-1] -= d
    return r


def _transfer_asc(rng, b):
    """a = b spread outward at the ends; a stays ascending and majorizes b."""
    a = b.copy()
    d = rng.uniform(0.0, 0.9 * min(a[0], a[1] - a[0] if a.size > 1 else a[0]))
    a[0] -= d
    a[-1] += d
    return a


def pair_t3_4(rng):
    baseline = random_baseline(rng)
    n = int(rng.integers(2, 4))
    s = np.sort(_weights(rng, n))[::-1].copy()
    r = _transfer_desc(rng, s)
    beta = _sorted_vec(rng, n, 0.5, 4.0)
    alpha = _transfer_asc(rng, beta)
    sigma = rng.uniform(0.0, 2.0)
    mu = sigma + rng.uniform(0.0, 2.0)
    lam = rng.uniform(0.5, 2.0)
    theta = lam + rng.uniform(0.0, 2.0)
    u = FiniteMixture(tuple(ELSComponent(baseline, a, sigma, lam) for a in alpha), r)
    v = FiniteMixture(tuple(ELSComponent(baseline, b, mu, theta) for b in beta), s)
    return u, v


def _outlier_counts_weights(rng):
    n1 = int(rng.integers(1, 30))
    n2 = int(rng.integers(1, 30))
    share = rng.uniform(0.2, 0.8)
    return n1, n2, share / n1, (1.0 - share) / n2, share


def spec_pair_t4_1(rng):
    baseline = random_baseline(rng, _T_RHR_SAFE)
    desc = bool(rng.random() < 0.5)
    alpha = _sorted_vec(rng, 2, 0.3, 4.0, desc)
    sigma = _sorted_vec(rng, 2, 0.0, 3.0, desc)
    lam = _sorted_vec(rng, 2, 0.5, 3.0, desc)
    c1 = ELSComponent(baseline, alpha[0], sigma[0], lam[0])
    c2 = ELSComponent(baseline, alpha[1], sigma[1], lam[1])
    n1, n2, r1, r2, share_u = _outlier_counts_weights(rng)
    m1, m2, s1, s2, share_v = _outlier_counts_weights(rng)
    # ascending cone needs lhs >= rhs, i.e. share_u >= share_v; flip otherwise
    if (share_u < share_v) != desc:
        (n1, n2, r1, r2), (m1, m2, s1, s2) = (m1, m2, s1, s2), (n1, n2, r1, r2)
    return (
        OutlierMixtureSpec(n1, n2, r1, r2, c1, c2),
        OutlierMixtureSpec(m1, m2, s1, s2, c1, c2),
    )


def spec_pair_t4_2(rng):
    baseline = random_baseline(rng, _T_RHR_SAFE)
    alpha = _sorted_vec(rng, 2, 1.0, 4.0)
    sigma = _sorted_vec(rng, 2, 0.0, 3.0)
    lam = _sorted_vec(rng, 2, 0.5, 3.0)
    c1 = ELSComponent(baseline, alpha[0], sigma[0], lam[0])
    c2 = ELSComponent(baseline, alpha[1], sigma[1], lam[1])
    n1, n2, r1, r2, share_u = _outlier_counts_weights(rng)
    m1, m2, s1, s2, share_v = _outlier_counts_weights(rng)
    if share_u > share_v:  # need lhs <= rhs, i.e. share_u <= share_v
        (n1, n2, r1, r2), (m1, m2, s1, s2) = (m1, m2, s1, s2), (n1, n2, r1, r2)
    return (
        OutlierMixtureSpec(n1, n2, r1, r2, c1, c2),
        OutlierMixtureSpec(m1, m2, s1, s2, c1, c2),
    )


def spec_pair_t4_3(rng):
    # tail exponent b*alpha stays above ~0.4 so the quantile-capped grid
    # keeps at least a handful of points where both densities are live
    baseline = make_baseline("loglogistic", b=rng.uniform(0.65, 1.0))
    alpha = rng.uniform(0.55, 1.0)
    mu = rng.uniform(0.0, 3.0)
    sigma = mu + rng.uniform(0.0, 3.0)
    theta = rng.uniform(0.5, 2.5, size=2)
    lam = rng.uniform(theta.max(), theta.max() + 2.5, size=2)
    cu = tuple(ELSComponent(baseline, alpha, sigma, l) for l in lam)
    cv = tuple(ELSComponent(baseline, alpha, mu, t) for t in theta)
    n1, n2, r1, r2, _ = _outlier_counts_weights(rng)
    m1, m2, s1, s2, _ = _outlier_counts_weights(rng)
    return (
        OutlierMixtureSpec(n1, n2, r1, r2, cu[0], cu[1]),
        OutlierMixtureSpec(m1, m2, s1, s2, cv[0], cv[1]),
    )


THEOREM_SAMPLERS = {
    "T3.1": pair_t3_1,
    "T3.2": pair_t3_2,
    "T3.3": pair_t3_3,
    "T3.4": pair_t3_4,
    "T4.1": spec_pair_t4_1,
    "T4.2": spec_pair_t4_2,
    "T4.3": spec_pair_t4_3,
}
