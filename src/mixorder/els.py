"""Exponentiated location-scale transform of a baseline distribution.

A component with shape alpha, location sigma and scale lam has CDF
F^alpha((x - sigma)/lam) on x > sigma + c*lam, where F is the baseline CDF
with support (c, infinity). The indicator is strict: the CDF is 0 at the
start point itself. ``cdf`` is the one-component case of ``group_curves``,
which masks x > start and z > c in one ``numerics.on_support`` pass and runs
the baseline closed forms on the kept points; ``pdf`` takes the same mask and
skips the baseline CDF at alpha = 1. A scalar takes the same array
arithmetic, and gives the same bits, as a grid point. A mixture samples its
groups with ``group_curves`` on arrays only: at a scalar it runs the
baseline closed forms once for all its groups on one baseline, then
``member_curves`` per group, the same per-component steps.
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
        # the first point of positive mass; not a field, so eq, hash and repr ignore it
        start = self.sigma + self.baseline.support_low * self.lam
        object.__setattr__(self, "support_start", start)

    def cdf(self, x):
        return group_curves((self,), x, ("cdf",))[0][0]

    def pdf(self, x):
        return on_support(x, self.support_start, self._density_above,
                          scale=(self.sigma, self.lam, self.baseline.support_low))

    def pdf_at_offset(self, dx):
        """Density at support_start + dx with dx as the exact working variable.

        Keeps the near-edge mass of alpha < 1 components reachable by
        quadrature even when support_start + dx is not representable.
        """
        return on_support(dx, 0.0, self._density_at_offset)

    def _density_at_offset(self, dx):
        dz = dx / self.lam
        return self._density(self.baseline.cdf_offset(dz), self.baseline.pdf_offset(dz))

    def _density_above(self, z):
        """Component density at standardized points z > c; no baseline CDF at alpha = 1."""
        F = None if self.alpha == 1.0 else self.baseline._closed_form("cdf", z)
        return self._density(F, self.baseline._closed_form("pdf", z))

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


def group_curves(components, x, curves):
    """``curves`` ("cdf", "pdf" or both, in that order) of each of
    ``components``, which share one baseline object, sigma and lam, at x: one
    sequence per component, of arrays (of floats for a scalar x). One mask
    keeps x > support_start and z = (x - sigma)/lam > c; F(z) and f(z) come
    from the baseline closed forms there, once, and only F**alpha and the
    density are formed per component, as for a component alone."""
    first, k, pdf = components[0], len(curves), "pdf" in curves
    base = first.baseline

    def above(z):
        F = base._closed_form("cdf", z)
        return member_curves(components, F, base._closed_form("pdf", z) if pdf else None, curves)

    flat = on_support(x, first.support_start, above, curves=k * len(components),
                      scale=(first.sigma, first.lam, base.support_low))
    return [flat[i:i + k] for i in range(0, len(flat), k)]


def member_curves(components, F, f, curves):
    """``curves`` of each of ``components``, flat in that order, from the
    baseline values F and f (None without "pdf") at their standardized
    points: ``F ** alpha`` and the density are the only per-component steps."""
    return [F ** c.alpha if curve == "cdf" else c._density(F, f)
            for c in components for curve in curves]
