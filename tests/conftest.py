import json
import pathlib
import warnings

import mpmath as mp
import pytest

import mixorder
from mixorder import builtin_catalog

CATALOG_DIR = pathlib.Path(mixorder.__file__).resolve().parent / "catalog"


@pytest.fixture(scope="session")
def catalog():
    return builtin_catalog()


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
