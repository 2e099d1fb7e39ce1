"""Exponentiated location-scale transform of a baseline distribution.

A component with shape alpha, location sigma and scale lam has CDF
F^alpha((x - sigma)/lam) on x > sigma + c*lam, where F is the baseline CDF
with support (c, infinity). The indicator is strict: the CDF is 0 at the
start point itself. ``cdf``, ``pdf``, ``cdf_pdf`` and ``pdf_at_offset``
share that mask rule with the baseline through ``numerics.on_support``, so
a scalar takes the same array arithmetic, and gives the same bits, as a
grid point. ``cdf_pdf`` gives both curves from one baseline CDF array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .baseline import BaselineModel
from .errors import DomainError, ParameterError
# perfbench/tracing.py wraps both root helpers by their names in this module
from .numerics import bisect_nondecreasing, expand_upper_bracket  # noqa: F401
from .numerics import on_support


@dataclass(frozen=True)
class ELSComponent:
    baseline: BaselineModel
    alpha: float
    sigma: float
    lam: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if not self.lam > 0:
            raise ParameterError(f"lambda must be positive, got {self.lam}")
        if self.sigma < 0:
            warnings.warn(
                f"negative location sigma={self.sigma}; allowed but unusual",
                stacklevel=3,
            )

    @property
    def support_start(self):
        """First point of positive mass: sigma + c * lambda."""
        return self.sigma + self.baseline.support_low * self.lam

    def _z(self, x):
        return (np.asarray(x, dtype=float) - self.sigma) / self.lam

    def cdf(self, x):
        return on_support(x, self.support_start, self._cdf_at)

    def _cdf_at(self, x):
        return self.baseline.cdf(self._z(x)) ** self.alpha

    def pdf(self, x):
        return on_support(x, self.support_start, self._density_at)

    def _density_at(self, x):
        z = self._z(x)
        return self._density(self.baseline.cdf(z), self.baseline.pdf(z))

    def cdf_pdf(self, x):
        """``(cdf(x), pdf(x))`` from one pass, which evaluates the baseline CDF once."""
        return on_support(x, self.support_start, self._cdf_pdf_at, curves=2)

    def _cdf_pdf_at(self, x):
        z = self._z(x)
        F = self.baseline.cdf(z)
        return F ** self.alpha, self._density(F, self.baseline.pdf(z))

    def pdf_at_offset(self, dx):
        """Density at support_start + dx with dx as the exact working variable.

        Keeps the near-edge mass of alpha < 1 components reachable by
        quadrature even when support_start + dx is not representable.
        """
        return on_support(dx, 0.0, self._density_at_offset)

    def _density_at_offset(self, dx):
        dz = dx / self.lam
        return self._density(self.baseline.cdf_offset(dz), self.baseline.pdf_offset(dz))

    def _density(self, F, f):
        """Component density from baseline F and f arrays at the same standardized points."""
        if self.alpha == 1.0:
            return f / self.lam
        # F == 0 just above the start point means underflow; the
        # alpha < 1 divergence would otherwise produce inf * 0.
        pos = F > 0.0
        if pos.all():
            return (self.alpha / self.lam) * F ** (self.alpha - 1.0) * f
        vals = np.zeros_like(F)
        vals[pos] = (self.alpha / self.lam) * F[pos] ** (self.alpha - 1.0) * f[pos]
        return vals

    def quantile(self, p):
        """Inverse CDF sigma + lam * F^{-1}(p^(1/alpha)).

        The baseline level is handed over as its logarithm log(p)/alpha, so
        its survival 1 - p^(1/alpha) keeps full precision near p = 1. A
        level low enough to round the quantile onto the support start, where
        the CDF is 0, gives the next double above the start instead.
        """
        if not 0.0 < p < 1.0:
            raise DomainError(f"quantile level must lie in (0,1), got {p}")
        x = self.sigma + self.lam * self.baseline.quantile_log(math.log(p) / self.alpha)
        start = self.support_start
        return x if x > start else math.nextafter(start, math.inf)
