"""Exponentiated location-scale transform of a baseline distribution.

A component with shape alpha, location sigma and scale lam has CDF
F^alpha((x - sigma)/lam) on x > sigma + c*lam, where F is the baseline CDF
with support (c, infinity). The indicator is strict: the CDF is 0 at the
start point itself.
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

    def _above(self, x, of_z):
        """``of_z`` at the standardized points of x above the start point, zero elsewhere."""
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        out = np.zeros(arr.shape)
        mask = arr > self.support_start
        if mask.any():
            out[mask] = of_z(self._z(arr[mask]))
        return float(out) if scalar else out

    def cdf(self, x):
        return self._above(x, lambda z: np.asarray(self.baseline.cdf(z)) ** self.alpha)

    def sf(self, x):
        return 1.0 - self.cdf(x)

    def pdf(self, x):
        return self._above(x, lambda z: self._density(self.baseline.cdf(z), self.baseline.pdf(z)))

    def pdf_at_offset(self, dx):
        """Density at support_start + dx with dx as the exact working variable.

        Keeps the near-edge mass of alpha < 1 components reachable by
        quadrature even when support_start + dx is not representable.
        """
        dx = np.asarray(dx, dtype=float)
        scalar = dx.ndim == 0
        out = np.zeros(dx.shape)
        mask = dx > 0.0
        if mask.any():
            dz = dx[mask] / self.lam
            out[mask] = self._density(self.baseline.cdf_offset(dz), self.baseline.pdf_offset(dz))
        return float(out) if scalar else out

    def _density(self, F, f):
        """Component density from baseline F and f at the same standardized points."""
        F = np.asarray(F)
        f = np.asarray(f)
        if self.alpha == 1.0:
            return f / self.lam
        # F == 0 just above the start point means underflow; the
        # alpha < 1 divergence would otherwise produce inf * 0.
        pos = F > 0.0
        vals = np.zeros_like(F)
        vals[pos] = (self.alpha / self.lam) * F[pos] ** (self.alpha - 1.0) * f[pos]
        return vals

    def rhr(self, x):
        """Reversed hazard rate (alpha/lambda) * f(z)/F(z); needs x above support."""
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        if np.any(arr <= self.support_start):
            raise DomainError(
                f"reversed hazard rate requires x > {self.support_start}"
            )
        vals = (self.alpha / self.lam) * np.asarray(self.baseline.rhr(self._z(arr)))
        return float(vals) if scalar else vals

    def quantile(self, p):
        """Inverse CDF sigma + lam * F^{-1}(p^(1/alpha)).

        The baseline level is handed over as its logarithm log(p)/alpha, so
        its survival 1 - p^(1/alpha) keeps full precision near p = 1.
        """
        if not 0.0 < p < 1.0:
            raise DomainError(f"quantile level must lie in (0,1), got {p}")
        return self.sigma + self.lam * self.baseline.quantile_log(math.log(p) / self.alpha)
