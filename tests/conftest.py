import json
import pathlib
import warnings
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import pytest
from hypothesis import settings

import mixorder
from mixorder import auto_grid, build_outlier_mixture, builtin_catalog
from mixorder._sampling import THEOREM_SAMPLERS, random_mixture
from mixorder.conditions import OUTLIER_THEOREMS

CATALOG_DIR = pathlib.Path(mixorder.__file__).resolve().parent / "catalog"

# one fixed profile: every run tries the same examples, and a bounded number
settings.register_profile(
    "mixorder", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("mixorder")


@pytest.fixture(scope="session")
def catalog():
    return builtin_catalog()


@pytest.fixture(scope="session")
def false_convergence_mixtures():
    """Draws 270 and 1911 of ``random_mixture`` from ``default_rng(22)``:
    valid mixtures whose normalization integrals come out as 0.9999983 and
    0.9999909, because adaptive Simpson accepts a wrong panel on each."""
    rng = np.random.default_rng(22)
    draws = [random_mixture(rng) for _ in range(1912)]
    return draws[270], draws[1911]


#: seed and draws per theorem of the soundness sweep (criterion 5)
SWEEP_SEED, SWEEP_DRAWS = 42, 500


@dataclass(frozen=True)
class SweepDraw:
    """One sweep draw: the sampler's output, its two mixtures (the outlier
    mixtures of a spec pair) and their ``auto_grid``."""

    pair: tuple
    mixtures: tuple
    grid: object


@pytest.fixture(scope="session")
def sweep_pool():
    """Each theorem's ``SWEEP_DRAWS`` sweep draws, in order, every sampler
    drawn from its own ``default_rng(SWEEP_SEED)``."""
    pool = {}
    for tid in sorted(THEOREM_SAMPLERS):
        rng, draws = np.random.default_rng(SWEEP_SEED), []
        for _ in range(SWEEP_DRAWS):
            pair = THEOREM_SAMPLERS[tid](rng)
            mixtures = (tuple(build_outlier_mixture(spec) for spec in pair)
                        if tid in OUTLIER_THEOREMS else pair)
            draws.append(SweepDraw(pair, mixtures, auto_grid(*mixtures)))
        pool[tid] = draws
    return pool


@pytest.fixture
def catalog_path():
    """Path of the packaged catalog file of one scenario id."""
    return lambda scenario_id: CATALOG_DIR / f"{scenario_id.replace('.', '_')}.json"


@pytest.fixture
def catalog_doc(catalog_path):
    """Parsed packaged catalog file of one scenario id."""
    return lambda scenario_id: json.loads(catalog_path(scenario_id).read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _quiet_location_warnings():
    # some randomized draws use sigma = 0 boundaries; keep runs quiet
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        yield


#: CDFs of the closed-form baseline families for an mpmath abscissa (float
#: parameters mix in exactly)
MP_CDF = {
    "pareto": lambda t, a, k: 1 - (k / t) ** a,
    "lt_exponential": lambda t, b, t0: 1 - mp.exp(-(t - t0) / b),
    "lt_burr12": lambda t, k, m, t0: 1 - ((1 + t**k) / (1 + t0**k)) ** -m,
    "lt_lomax": lambda t, m, t0: 1 - ((1 + t) / (1 + t0)) ** -m,
    "loglogistic": lambda t, b: t**b / (1 + t**b),
}


@pytest.fixture
def mp_els_quantile():
    """40-digit quantile sigma + lam * t of an ELS component over a
    closed-form baseline, where F(t) = p^(1/alpha) is solved by bisection
    from the support bound; alpha = lam = 1, sigma = 0 give the baseline's
    own quantile."""

    def quantile(family, params, p, alpha=1.0, sigma=0.0, lam=1.0):
        with mp.workdps(40):
            def cdf(t):
                return MP_CDF[family](t, **params)

            level = mp.mpf(p) ** (1 / mp.mpf(alpha))
            lo = mp.mpf(mixorder.make_baseline(family, **params).support_low)
            hi = lo + 1
            while cdf(hi) < level:
                hi = lo + 2 * (hi - lo)
            while hi - lo > mp.mpf(10) ** -35 * hi:
                mid = (lo + hi) / 2
                if cdf(mid) < level:
                    lo = mid
                else:
                    hi = mid
            return float(mp.mpf(sigma) + mp.mpf(lam) * hi)

    return quantile
