"""Baseline lifetime distributions with support (c, infinity).

Six closed-form families plus a tabulated escape hatch. Each model exposes
the CDF F, the density f and the density derivative f'. The lower
support bound ``support_low`` is the constant that shifts an
exponentiated location-scale component's start point.
``cdf`` and ``pdf`` run the closed forms through ``numerics.on_support``:
zero on t <= c, a float for a scalar (with the bits of the same point in a
grid), and a DomainError when the float range overflows.

Closed forms:

* Pareto(a, k):               F(t) = 1 - (k/t)^a,              t > k
* LT-Exponential(b, t0):      F(t) = 1 - exp(-(t-t0)/b),       t > t0
* Benktander-II(a, b):        F(t) = 1 - t^(b-1) e^{(a/b)(1-t^b)}, t > 1
* LT-Burr-XII(k, m, t0):      F(t) = 1 - [(1+t^k)/(1+t0^k)]^{-m} ... via
                              survival renormalisation at t0,    t > t0
* LT-Lomax(m, t0):            Burr XII with k = 1,               t > t0
* Log-logistic(b):            F(t) = t^b / (1 + t^b),            t > 0

Left-truncated families renormalise the parent survival function at the
truncation point, which reproduces the forms used in the worked examples.

Quantiles are exact inverses for every family but Benktander-II and
tabulated, written in survival form from log F and log(1 - F) so that
levels near one keep their tail; those two find a Brent root. Only a
tabulated baseline imports scipy, for its monotone cubic interpolant.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError, ParameterError
# perfbench/tracing.py wraps both root helpers by their names in this module
from .numerics import (  # noqa: F401
    bisect_nondecreasing,
    brent_root,
    central_difference,
    expand_upper_bracket,
    on_grid,
    on_support,
)

#: absolute x tolerance of the bracketed quantile root (Benktander-II, tabulated)
_ROOT_XTOL = 1e-10

#: largest double. A closed form whose factors meet as inf/inf or inf * 0 at
#: t = inf caps its growing factor here, which gives the limit (F = 1, f = 0)
#: there and leaves every finite factor, and so every finite value, as it is.
_MAX = sys.float_info.max


def _log_survival(log_q):
    """log(1 - q) from log q, without rounding q first."""
    if log_q < -math.log(2.0):
        return math.log1p(-math.exp(log_q))
    return math.log(-math.expm1(log_q))


def _require_positive(name, value):
    if not (value > 0) or not math.isfinite(value):
        raise ParameterError(f"{name} must be a positive finite real, got {value}")
    return float(value)


class BaselineModel:
    """Common evaluation shell; subclasses provide the closed forms on t > c."""

    family = "abstract"

    @property
    def support_low(self):
        """Lower support bound c; F(c) = 0."""
        return self._c

    def _cdf_above(self, t):
        raise NotImplementedError

    def _pdf_above(self, t):
        raise NotImplementedError

    def _pdf_prime_above(self, t):
        raise NotImplementedError

    def _closed_form(self, name, t):
        """Closed form ``name`` ("cdf"/"pdf") at t > c, unmasked; overflow is a DomainError."""
        try:
            return getattr(self, f"_{name}_above")(t)
        except OverflowError:
            raise DomainError(f"{self.family} {name} overflows the float range") from None

    def cdf(self, t):
        return on_support(t, self._c, lambda above: self._closed_form("cdf", above))

    def pdf(self, t):
        return on_support(t, self._c, lambda above: self._closed_form("pdf", above))

    def pdf_prime(self, t):
        """Density derivative f'(t) from the family's ``_pdf_prime_above``."""
        if np.any(np.asarray(t, dtype=float) <= self._c):
            raise DomainError(f"pdf derivative requires t > support_low={self._c}")
        return on_grid(self._pdf_prime_above, t)

    def cdf_offset(self, dz):
        """F(c + dz) for dz >= 0, accurate for offsets below one ulp of c.

        Families with power-law mass near the support bound concentrate a
        visible fraction of probability inside the last representable x,
        so quadrature needs the offset itself as the working variable.
        Closed-form families with c > 0 give ``_cdf_offset`` a
        cancellation-free form; at c = 0 the offset is the abscissa, and the
        base class's is exact.
        """
        return on_grid(self._cdf_offset, dz)

    def pdf_offset(self, dz):
        """f(c + dz) for dz >= 0; see ``cdf_offset``."""
        return on_grid(self._pdf_offset, dz)

    def _cdf_offset(self, dz):
        return self.cdf(self._c + dz)

    def _pdf_offset(self, dz):
        return self.pdf(self._c + dz)

    def quantile(self, p):
        """Inverse CDF: the t > c with F(t) = p."""
        if not 0.0 < p < 1.0:
            raise DomainError(f"quantile level must lie in (0,1), got {p}")
        return self.quantile_log(math.log(p))

    def quantile_log(self, log_q):
        """Inverse CDF at the level q = exp(log_q) < 1, given by its logarithm.

        Callers holding a power of a level (an ELS component's p^(1/alpha))
        pass its logarithm, so 1 - q is formed without rounding q first.
        """
        try:
            return self._quantile_above(log_q, _log_survival(log_q))
        except (OverflowError, DomainError) as exc:
            why = exc if isinstance(exc, DomainError) else "overflows the float range"
            level = math.exp(log_q)
            raise DomainError(f"{self.family} quantile at level {level!r}: {why}") from None

    def _quantile_above(self, log_q, log_s):
        """Root of F(t) = q above the support bound, where F = 0; families
        with a closed-form inverse override this with it."""
        q = math.exp(log_q)
        lo = self._c
        hi, f_hi = expand_upper_bracket(self.cdf, q, lo, step=max(1.0, abs(lo)))
        return brent_root(lambda t: self.cdf(t) - q, lo, hi, _ROOT_XTOL, -q, f_hi - q)

    def params(self):
        raise NotImplementedError

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({args})"

    def __eq__(self, other):
        return (
            isinstance(other, BaselineModel)
            and self.family == other.family
            and self.params() == other.params()
        )

    def __hash__(self):
        return hash((self.family, tuple(sorted(self.params().items()))))


class Pareto(BaselineModel):
    """F(t) = 1 - (k/t)^a on t > k, shape a > 0, scale k > 0."""

    family = "pareto"

    def __init__(self, a, k):
        self.a = _require_positive("a", a)
        self.k = _require_positive("k", k)
        self._c = self.k

    def _cdf_above(self, t):
        return 1.0 - (self.k / t) ** self.a

    def _pdf_above(self, t):
        return self.a * self.k**self.a * t ** (-self.a - 1.0)

    def _pdf_prime_above(self, t):
        return -self.a * (self.a + 1.0) * self.k**self.a * t ** (-self.a - 2.0)

    def _cdf_offset(self, dz):
        return -np.expm1(-self.a * np.log1p(dz / self.k))

    def _pdf_offset(self, dz):
        return (self.a / self.k) * np.exp(-(self.a + 1.0) * np.log1p(dz / self.k))

    def _quantile_above(self, log_q, log_s):
        return self.k * math.exp(-log_s / self.a)

    def params(self):
        return {"a": self.a, "k": self.k}


class LeftTruncatedExponential(BaselineModel):
    """F(t) = 1 - exp(-(t-t0)/b) on t > t0, scale b > 0."""

    family = "lt_exponential"

    def __init__(self, b, t0):
        self.b = _require_positive("b", b)
        self.t0 = _require_positive("t0", t0)
        self._c = self.t0

    def _cdf_above(self, t):
        return -np.expm1(-(t - self.t0) / self.b)

    def _pdf_above(self, t):
        return np.exp(-(t - self.t0) / self.b) / self.b

    def _pdf_prime_above(self, t):
        return -np.exp(-(t - self.t0) / self.b) / self.b**2

    def _cdf_offset(self, dz):
        return -np.expm1(-dz / self.b)

    def _pdf_offset(self, dz):
        return np.exp(-dz / self.b) / self.b

    def _quantile_above(self, log_q, log_s):
        return self.t0 - self.b * log_s

    def params(self):
        return {"b": self.b, "t0": self.t0}


class BenktanderII(BaselineModel):
    """F(t) = 1 - t^(b-1) exp((a/b)(1 - t^b)) on t > 1, a > 0, 0 < b < 1."""

    family = "benktander2"

    def __init__(self, a, b):
        self.a = _require_positive("a", a)
        self.b = _require_positive("b", b)
        if not self.b < 1.0:
            raise ParameterError(f"Benktander-II requires 0 < b < 1, got b={b}")
        self._c = 1.0

    def _expfac(self, t):
        return np.exp((self.a / self.b) * (1.0 - t**self.b))

    def _cdf_above(self, t):
        return 1.0 - t ** (self.b - 1.0) * self._expfac(t)

    def _pdf_above(self, t):
        a, b = self.a, self.b
        return self._expfac(t) * t ** (b - 2.0) * np.minimum((1.0 - b) + a * t**b, _MAX)

    def _pdf_prime_above(self, t):
        a, b = self.a, self.b
        return self._expfac(t) * (
            (1.0 - b) * (b - 2.0) * t ** (b - 3.0)
            - 3.0 * a * (1.0 - b) * t ** (2.0 * b - 3.0)
            - a**2 * t ** (3.0 * b - 3.0)
        )

    def _cdf_offset(self, dz):
        a, b = self.a, self.b
        w = np.log1p(dz)
        # log survival = (b-1) log t - (a/b)(t^b - 1) with t = 1 + dz
        return -np.expm1((b - 1.0) * w - (a / b) * np.expm1(b * w))

    def _pdf_offset(self, dz):
        a, b = self.a, self.b
        w = np.log1p(dz)
        return np.exp(-(a / b) * np.expm1(b * w) + (b - 2.0) * w) * np.minimum(
            (1.0 - b) + a * np.exp(b * w), _MAX
        )

    def params(self):
        return {"a": self.a, "b": self.b}


class LeftTruncatedBurrXII(BaselineModel):
    """Burr XII survival (1+t^k)^-m renormalised at t0; support t > t0."""

    family = "lt_burr12"

    def __init__(self, k, m, t0):
        self.k = _require_positive("k", k)
        self.m = _require_positive("m", m)
        self.t0 = _require_positive("t0", t0)
        self._c = self.t0
        self._s0 = (1.0 + self.t0**self.k) ** (-self.m)

    def _cdf_above(self, t):
        return 1.0 - (1.0 + t**self.k) ** (-self.m) / self._s0

    def _pdf_above(self, t):
        k, m = self.k, self.m
        return np.minimum(m * k * t ** (k - 1.0), _MAX) * (1.0 + t**k) ** (-m - 1.0) / self._s0

    def _pdf_prime_above(self, t):
        k, m = self.k, self.m
        u = 1.0 + t**k
        return (
            m
            * k
            * t ** (k - 2.0)
            * u ** (-m - 2.0)
            * ((k - 1.0) * u - (m + 1.0) * k * t**k)
            / self._s0
        )

    def _cdf_offset(self, dz):
        # (t0+dz)^k - t0^k without cancellation
        grow = self.t0**self.k * np.expm1(self.k * np.log1p(dz / self.t0))
        return -np.expm1(-self.m * np.log1p(grow / (1.0 + self.t0**self.k)))

    def _pdf_offset(self, dz):
        return self._pdf_above(self.t0 + dz)

    def _quantile_above(self, log_q, log_s):
        # t^k = t0^k + (1 + t0^k) (s^(-1/m) - 1), growth without cancellation
        t0k = self.t0**self.k
        return (t0k + (1.0 + t0k) * math.expm1(-log_s / self.m)) ** (1.0 / self.k)

    def params(self):
        return {"k": self.k, "m": self.m, "t0": self.t0}


class LeftTruncatedLomax(BaselineModel):
    """Lomax survival (1+t)^-m renormalised at t0; support t > t0."""

    family = "lt_lomax"

    def __init__(self, m, t0):
        self.m = _require_positive("m", m)
        self.t0 = _require_positive("t0", t0)
        self._c = self.t0
        self._s0 = (1.0 + self.t0) ** (-self.m)

    def _cdf_above(self, t):
        return 1.0 - (1.0 + t) ** (-self.m) / self._s0

    def _pdf_above(self, t):
        return self.m * (1.0 + t) ** (-self.m - 1.0) / self._s0

    def _pdf_prime_above(self, t):
        return -self.m * (self.m + 1.0) * (1.0 + t) ** (-self.m - 2.0) / self._s0

    def _cdf_offset(self, dz):
        return -np.expm1(-self.m * np.log1p(dz / (1.0 + self.t0)))

    def _pdf_offset(self, dz):
        return self._pdf_above(self.t0 + dz)

    def _quantile_above(self, log_q, log_s):
        return self.t0 + (1.0 + self.t0) * math.expm1(-log_s / self.m)

    def params(self):
        return {"m": self.m, "t0": self.t0}


class LogLogistic(BaselineModel):
    """F(t) = t^b / (1 + t^b) on t > 0, shape b > 0."""

    family = "loglogistic"

    def __init__(self, b):
        self.b = _require_positive("b", b)
        self._c = 0.0

    def _cdf_above(self, t):
        tb = np.minimum(t**self.b, _MAX)
        return tb / (1.0 + tb)

    def _pdf_above(self, t):
        b = self.b
        tb = t**b
        return np.minimum(b * t ** (b - 1.0), _MAX) / (1.0 + tb) ** 2

    def _pdf_prime_above(self, t):
        b = self.b
        tb = t**b
        return b * t ** (b - 2.0) * ((b - 1.0) - (b + 1.0) * tb) / (1.0 + tb) ** 3

    def _quantile_above(self, log_q, log_s):
        # t^b = F / (1 - F)
        return math.exp((log_q - log_s) / self.b)

    def params(self):
        return {"b": self.b}


class Tabulated(BaselineModel):
    """User-supplied (t, F) pairs joined by monotone cubic interpolation.

    The grid must start at F = 0 and end at F = 1; the first abscissa is
    the support bound. The density derivative is always numeric.
    """

    family = "tabulated"

    def __init__(self, t, F):
        t = np.asarray(t, dtype=float)
        F = np.asarray(F, dtype=float)
        if t.ndim != 1 or t.shape != F.shape or t.size < 3:
            raise ParameterError("tabulated baseline needs matching 1-d t/F with >= 3 points")
        for name, values in (("t", t), ("F", F)):
            if not np.isfinite(values).all():
                raise ParameterError(f"tabulated {name} must contain only finite values")
        if np.any(np.diff(t) <= 0):
            raise ParameterError("tabulated abscissae must be strictly increasing")
        if np.any(np.diff(F) < 0):
            raise ParameterError("baseline_cdf must be nondecreasing: tabulated F decreases")
        if abs(F[0]) > 1e-12 or abs(F[-1] - 1.0) > 1e-9:
            raise ParameterError("tabulated F must start at 0 and end at 1")
        self._t = t
        self._F = F
        self._c = float(t[0])
        self._hi = float(t[-1])
        from scipy.interpolate import PchipInterpolator
        self._interp = PchipInterpolator(t, F, extrapolate=False)
        self._deriv = self._interp.derivative()

    def _cdf_above(self, t):
        out = np.where(t >= self._hi, 1.0, np.nan)
        inside = t < self._hi
        if np.any(inside):
            out = np.asarray(out, dtype=float)
            out[inside] = self._interp(t[inside])
        return out

    def _pdf_above(self, t):
        out = np.zeros_like(np.asarray(t, dtype=float))
        inside = t < self._hi
        if np.any(inside):
            out[inside] = np.maximum(self._deriv(t[inside]), 0.0)
        return out

    def _pdf_prime_above(self, t):
        return central_difference(self.pdf, t)

    def params(self):
        return {"t": tuple(self._t.tolist()), "F": tuple(self._F.tolist())}


FAMILIES = {
    cls.family: cls
    for cls in (
        Pareto, LeftTruncatedExponential, BenktanderII, LeftTruncatedBurrXII,
        LeftTruncatedLomax, LogLogistic, Tabulated,
    )
}


def make_baseline(family, **params):
    """Construct a baseline model from its string identifier."""
    try:
        cls = FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise ParameterError(f"unknown baseline family {family!r}; known: {known}") from None
    try:
        return cls(**params)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for family {family!r}: {exc}") from None
