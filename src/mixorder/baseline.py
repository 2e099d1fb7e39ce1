"""Baseline lifetime distributions with support (c, infinity).

Six closed-form families plus a tabulated escape hatch. Each model exposes
the CDF F, the density f and the density derivative f'. The lower
support bound ``support_low`` is the constant that shifts an
exponentiated location-scale component's start point.
Each family writes each formula once, in ``_closed_forms(t, cdf, pdf,
dpdf)`` (F, f and f' above c) or ``_offset_forms(dz, cdf, pdf)`` (F and f
at c + dz); each computes a part two curves share once and returns only the
curves asked for. The public curves are their one-curve cases: ``cdf`` and
``pdf`` run through ``numerics.on_support`` (zero on t <= c, a float for a
scalar with the bits of the same point in a grid, a DomainError naming the
curve when the float range overflows), the others through ``on_grid``.

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

    def _closed_forms(self, t, cdf, pdf, dpdf):
        """(F, f, f') at t > c, unmasked, each None unless asked for; each form
        is written once and a subexpression two of them use is computed once."""
        raise NotImplementedError

    def _offset_forms(self, dz, cdf, pdf):
        """(F, f) at c + dz for dz >= 0, each None unless asked for. Families
        with c > 0 give it a cancellation-free form; at c = 0 the offset is the
        abscissa, and this one is exact."""
        t = self._c + dz
        return self.cdf(t) if cdf else None, self.pdf(t) if pdf else None

    def _curves(self, t, cdf, pdf, dpdf):
        """``_closed_forms``, where an overflow is a DomainError naming the
        curve. Only a float power raises it, and only a density or its
        derivative takes one (Pareto's k**a), so a call asking for several
        names the density, else its derivative."""
        try:
            return self._closed_forms(t, cdf, pdf, dpdf)
        except OverflowError:
            name = "pdf" if pdf else "pdf_prime" if dpdf else "cdf"
            raise DomainError(f"{self.family} {name} overflows the float range") from None

    def cdf(self, t):
        return on_support(t, self._c, lambda above: self._curves(above, True, False, False)[0])

    def pdf(self, t):
        return on_support(t, self._c, lambda above: self._curves(above, False, True, False)[1])

    def pdf_prime(self, t):
        """Density derivative f'(t), the third output of ``_closed_forms``."""
        if np.any(np.asarray(t, dtype=float) <= self._c):
            raise DomainError(f"pdf derivative requires t > support_low={self._c}")
        return on_grid(lambda above: self._curves(above, False, False, True)[2], t)

    def cdf_offset(self, dz):
        """F(c + dz) for dz >= 0, accurate for offsets below one ulp of c.

        Families with power-law mass near the support bound concentrate a
        visible fraction of probability inside the last representable x,
        so quadrature needs the offset itself as the working variable.
        """
        return on_grid(lambda d: self._offset_forms(d, True, False)[0], dz)

    def pdf_offset(self, dz):
        """f(c + dz) for dz >= 0; see ``cdf_offset``."""
        return on_grid(lambda d: self._offset_forms(d, False, True)[1], dz)

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

    def _closed_forms(self, t, cdf, pdf, dpdf):
        a, k = self.a, self.k
        return (1.0 - (k / t) ** a if cdf else None,
                a * k**a * t ** (-a - 1.0) if pdf else None,
                -a * (a + 1.0) * k**a * t ** (-a - 2.0) if dpdf else None)

    def _offset_forms(self, dz, cdf, pdf):
        w = np.log1p(dz / self.k)
        return (-np.expm1(-self.a * w) if cdf else None,
                (self.a / self.k) * np.exp(-(self.a + 1.0) * w) if pdf else None)

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

    def _closed_forms(self, t, cdf, pdf, dpdf):
        e = -(t - self.t0) / self.b
        return (-np.expm1(e) if cdf else None, np.exp(e) / self.b if pdf else None,
                -np.exp(e) / self.b**2 if dpdf else None)

    def _offset_forms(self, dz, cdf, pdf):
        e = -dz / self.b
        return -np.expm1(e) if cdf else None, np.exp(e) / self.b if pdf else None

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

    def _closed_forms(self, t, cdf, pdf, dpdf):
        a, b = self.a, self.b
        tb = t**b
        e = np.exp((a / b) * (1.0 - tb))
        return (1.0 - t ** (b - 1.0) * e if cdf else None,
                e * t ** (b - 2.0) * np.minimum((1.0 - b) + a * tb, _MAX) if pdf else None,
                e * ((1.0 - b) * (b - 2.0) * t ** (b - 3.0)
                     - 3.0 * a * (1.0 - b) * t ** (2.0 * b - 3.0)
                     - a**2 * t ** (3.0 * b - 3.0)) if dpdf else None)

    def _offset_forms(self, dz, cdf, pdf):
        # log survival = (b-1) log t - g with t = 1 + dz and g = (a/b)(t^b - 1)
        a, b = self.a, self.b
        w = np.log1p(dz)
        g = (a / b) * np.expm1(b * w)
        return (-np.expm1((b - 1.0) * w - g) if cdf else None,
                np.exp(-g + (b - 2.0) * w) * np.minimum((1.0 - b) + a * np.exp(b * w), _MAX)
                if pdf else None)

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

    def _closed_forms(self, t, cdf, pdf, dpdf):
        k, m = self.k, self.m
        tk = t**k
        u = 1.0 + tk
        return (1.0 - u ** (-m) / self._s0 if cdf else None,
                np.minimum(m * k * t ** (k - 1.0), _MAX) * u ** (-m - 1.0) / self._s0
                if pdf else None,
                m * k * t ** (k - 2.0) * u ** (-m - 2.0) * ((k - 1.0) * u - (m + 1.0) * k * tk)
                / self._s0 if dpdf else None)

    def _offset_forms(self, dz, cdf, pdf):
        F = None
        if cdf:  # grow = (t0+dz)^k - t0^k without cancellation
            t0k = self.t0**self.k
            grow = t0k * np.expm1(self.k * np.log1p(dz / self.t0))
            F = -np.expm1(-self.m * np.log1p(grow / (1.0 + t0k)))
        return F, self._closed_forms(self.t0 + dz, False, True, False)[1] if pdf else None

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

    def _closed_forms(self, t, cdf, pdf, dpdf):
        u = 1.0 + t
        return (1.0 - u ** (-self.m) / self._s0 if cdf else None,
                self.m * u ** (-self.m - 1.0) / self._s0 if pdf else None,
                -self.m * (self.m + 1.0) * u ** (-self.m - 2.0) / self._s0 if dpdf else None)

    def _offset_forms(self, dz, cdf, pdf):
        return (-np.expm1(-self.m * np.log1p(dz / (1.0 + self.t0))) if cdf else None,
                self._closed_forms(self.t0 + dz, False, True, False)[1] if pdf else None)

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

    def _closed_forms(self, t, cdf, pdf, dpdf):
        # the CDF caps t^b; the density's (1 + t^b)^2 and f' take it as it is
        b = self.b
        tb = t**b
        return ((c := np.minimum(tb, _MAX)) / (1.0 + c) if cdf else None,
                np.minimum(b * t ** (b - 1.0), _MAX) / (1.0 + tb) ** 2 if pdf else None,
                b * t ** (b - 2.0) * ((b - 1.0) - (b + 1.0) * tb) / (1.0 + tb) ** 3
                if dpdf else None)

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

    def _closed_forms(self, t, cdf, pdf, dpdf):
        F = f = None
        inside = t < self._hi
        if cdf:
            F = np.where(t >= self._hi, 1.0, np.nan)
            if np.any(inside):
                F[inside] = self._interp(t[inside])
        if pdf:
            f = np.zeros_like(np.asarray(t, dtype=float))
            if np.any(inside):
                f[inside] = np.maximum(self._deriv(t[inside]), 0.0)
        return F, f, central_difference(self.pdf, t) if dpdf else None

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
