"""Exponentiated location-scale transform of a baseline distribution.

A component with shape alpha, location sigma and scale lam has CDF
F^alpha((x - sigma)/lam) on x > sigma + c*lam, where F is the baseline CDF
with support (c, infinity). The indicator is strict: the CDF is 0 at the
start point itself. One kernel, ``sample_groups``, gives the curves of
components in groups that share a baseline object, sigma and lam: it keeps
x > start and z = (x - sigma)/lam > c, makes one call of the baseline's
closed forms for F and f on the kept z per group (a scalar as a one-point
array) and forms only F**alpha and the density per component. An array
block whose smallest point is kept is kept whole, with no mask; a block
that straddles a start is masked. A component's ``cdf`` and ``pdf`` are
its one-group case, and a mixture samples all its groups in one call.
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
        if not 0 < self.alpha < math.inf:
            raise ParameterError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 < self.lam < math.inf:
            raise ParameterError(f"lambda must be positive and finite, got {self.lam}")
        if not -math.inf < self.sigma < math.inf:
            raise ParameterError(f"sigma must be finite, got {self.sigma}")
        if self.sigma < 0:
            warnings.warn(
                f"negative location sigma={self.sigma}; allowed but unusual",
                stacklevel=3,
            )
        # the first point of positive mass; not a field, so eq, hash and repr ignore it
        start = self.sigma + self.baseline.support_low * self.lam
        object.__setattr__(self, "support_start", start)

    def cdf(self, x):
        return sample_groups(((self,),), x, ("cdf",))[0]

    def pdf(self, x):
        return sample_groups(((self,),), x, ("pdf",))[0]

    def pdf_at_offset(self, dx):
        """Density at support_start + dx with dx as the exact working variable.

        Keeps the near-edge mass of alpha < 1 components reachable by
        quadrature even when support_start + dx is not representable.
        """
        return on_support(dx, 0.0, self._density_at_offset)

    def _density_at_offset(self, dx):
        dz = dx / self.lam
        F = self.baseline.cdf_offset(dz) if self.alpha != 1.0 else None
        return self._density(F, self.baseline.pdf_offset(dz))

    def _density(self, F, f):
        """Component density from baseline F and f arrays at the same standardized
        points; F is not read (and may be None) at alpha = 1."""
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


def sample_groups(groups, x, curves):
    """``curves`` ("cdf", "pdf" or both, in that order) of every component of
    ``groups`` at x, flat: each component's curves in turn, in group order;
    floats for a scalar x, arrays of x's shape otherwise. The components of a
    group share one baseline object, sigma and lam.

    A group keeps the points with x > support_start and z = (x - sigma)/lam
    > c, zero elsewhere (NaN included), and runs ``_lane_curves`` on its kept
    z. An array is tested once by its smallest point: subtracting sigma and
    dividing by lam > 0 keep the order of doubles, so a group whose start
    and c lie below that point's x and z keeps every point and passes the
    array itself. A NaN makes the smallest point NaN, and a group that does
    not pass is masked with numpy and scattered. A scalar is masked in
    Python floats, which compare, subtract and divide as numpy does, and a
    live group passes its z as a one-point array. Steps are elementwise, so
    every value has the bits of the same point in any grid."""
    arr = np.asarray(x, dtype=float)
    out = []
    if arr.ndim:
        low = float(arr.min()) if arr.size else math.nan
        for members in groups:
            c = members[0]
            if low > c.support_start and (low - c.sigma) / c.lam > c.baseline.support_low:
                out += _lane_curves(members, (arr - c.sigma) / c.lam, curves)
                continue
            mask = arr > c.support_start
            z = (arr[mask] - c.sigma) / c.lam
            inner = z > c.baseline.support_low
            z, mask[mask] = z[inner], inner
            values = [np.zeros(arr.shape) for _ in range(len(curves) * len(members))]
            if z.size:
                for value, v in zip(values, _lane_curves(members, z, curves)):
                    value[mask] = v
            out += values
        return out
    t = float(arr)
    for members in groups:
        c = members[0]
        if t > c.support_start and (z := (t - c.sigma) / c.lam) > c.baseline.support_low:
            out += [v.item() for v in _lane_curves(members, np.array([z]), curves)]
        else:
            out += [0.0] * (len(curves) * len(members))
    return out


def _lane_curves(members, z, curves):
    """``curves`` of the members of one group at its kept z, from one call of
    their baseline's closed forms for F and f together. The baseline CDF is
    skipped when only densities are asked for and every alpha is 1."""
    F, f, _ = members[0].baseline._curves(
        z, "cdf" in curves or any(c.alpha != 1.0 for c in members), "pdf" in curves, False)
    return [F ** c.alpha if curve == "cdf" else c._density(F, f)
            for c in members for curve in curves]
