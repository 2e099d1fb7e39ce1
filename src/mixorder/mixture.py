"""Finite mixtures of exponentiated location-scale components.

The mixture CDF and PDF are weighted sums of the component functions, with
contributions switching on as x crosses each component's support start.
Sums are Kahan-compensated because catalog weights span two orders of
magnitude. A grid longer than ``EVAL_BLOCK`` runs in cache-sized slices of
the same elementwise arithmetic, so it gives the same bits. Also provides
the two-block outlier construction and a normalization quadrature check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .els import ELSComponent
from .errors import (
    DomainError,
    ParameterError,
    QuadratureError,
    WeightError,
)
# perfbench/tracing.py wraps both root helpers by their names in this module
from .numerics import (  # noqa: F401
    adaptive_simpson,
    bisect_nondecreasing,
    brent_root,
    expand_upper_bracket,
    kahan_add,
    on_support,
)

#: exponent of the left-edge power substitution used by the normalization
#: quadrature; large enough to smooth F^(alpha-1) divergences for alpha*b
#: down to about 0.07
_EDGE_POWER = 16.0

#: tolerance of the quantile root in log(x - support_start), i.e. relative
#: to the distance from the support start
_LOG_XTOL = 1e-10

#: largest double below one; a CDF that rounds to one is clamped to it
_BELOW_ONE = math.nextafter(1.0, 0.0)

#: absolute panel tolerance and bisection depth of the normalization quadrature
_PANEL_TOL = 1e-9
_MAX_DEPTH = 40

#: points per slice of a long 1-d grid in ``cdf``/``pdf``; 64 KB temporaries
EVAL_BLOCK = 8192


def _kahan_sum(terms):
    """Compensated sum of ``terms`` in their order, started from the first."""
    total, comp = terms[0], 0.0
    for term in terms[1:]:
        total, comp = kahan_add(total, comp, term)
    return total


class WeightPolicy(str, Enum):
    STRICT_UNIT = "strict"
    AUTO_NORMALIZE = "autonorm"


class FiniteMixture:
    """Weighted list of ELS components.

    Under ``STRICT_UNIT`` the raw weights must sum to one within 1e-12;
    under ``AUTO_NORMALIZE`` they are rescaled and the raw sum is kept for
    reporting.
    """

    def __init__(self, components, weights, policy=WeightPolicy.STRICT_UNIT):
        components = tuple(components)
        weights = np.asarray(weights, dtype=float)
        if len(components) < 1:
            raise ParameterError("a mixture needs at least one component")
        if weights.ndim != 1 or weights.size != len(components):
            raise ParameterError("weights must be a vector matching the components")
        if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
            raise WeightError(f"weights must be strictly positive, got {weights.tolist()}")
        raw_sum = float(math.fsum(weights.tolist()))
        policy = WeightPolicy(policy)
        if policy is WeightPolicy.STRICT_UNIT:
            if abs(raw_sum - 1.0) > 1e-12:
                raise WeightError(
                    f"weights sum to {raw_sum!r}, not 1 (strict policy); "
                    "use the auto-normalize policy to rescale"
                )
            norm = weights
        else:
            norm = weights / raw_sum
        if not all(isinstance(comp, ELSComponent) for comp in components):
            raise ParameterError("components must be ELSComponent instances")
        self.components = components
        self.weights = norm
        self.raw_weights = weights
        self.raw_sum = raw_sum
        self.policy = policy

    def __len__(self):
        return len(self.components)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteMixture)
            and self.components == other.components
            and np.array_equal(self.raw_weights, other.raw_weights)
            and self.policy == other.policy
        )

    @property
    def support_start(self):
        return min(c.support_start for c in self.components)

    @property
    def support_breaks(self):
        """Sorted distinct component start points (the CDF's kink locations)."""
        return sorted({c.support_start for c in self.components})

    def _weighted_sum(self, x, attr):
        """Kahan sum of the weighted component values; a 1-d array longer than
        ``EVAL_BLOCK`` is summed slice by slice into one output. Where an infinite
        term makes the compensated sum NaN, the plain sum of the nonnegative
        terms is taken: +inf in any component order, NaN only from a NaN term."""
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            # a scalar is summed in Python floats, which take the IEEE steps of 0-d arrays
            weights = self.weights.tolist()
            terms = [w * getattr(c, attr)(arr) for w, c in zip(weights, self.components)]
            total = _kahan_sum(terms)
            return sum(terms) if math.isnan(total) else total
        if arr.ndim == 1 and arr.size > EVAL_BLOCK:
            out = np.empty(arr.size)
            for i in range(0, arr.size, EVAL_BLOCK):
                out[i:i + EVAL_BLOCK] = self._weighted_sum(arr[i:i + EVAL_BLOCK], attr)
            return out
        terms = [w * getattr(c, attr)(arr) for w, c in zip(self.weights, self.components)]
        with np.errstate(invalid="ignore"):
            total = _kahan_sum(terms)
        bad = np.isnan(total)
        if bad.any():
            total[bad] = sum(term[bad] for term in terms)
        return total

    def cdf(self, x):
        return self._weighted_sum(x, "cdf")

    def pdf(self, x):
        return self._weighted_sum(x, "pdf")

    def quantile(self, p):
        """Inverse CDF by a root bracketed by the component quantiles.

        Every component CDF is at most p at the smallest component
        quantile and at least p at the largest, so the mixture CDF crosses
        p between them; when all component quantiles coincide, that point
        is the answer. The root solves log S(x) = log(1 - p) in the
        variable u = log(x - support_start), in which power-law tails are
        straight lines, so Brent's method needs few steps. A bound that rounding
        leaves on the wrong side is moved out until its sign is right.
        """
        if not 0.0 < p < 1.0:
            raise DomainError(f"quantile level must lie in (0,1), got {p}")
        qs = [component.quantile(p) for component in self.components]
        lo, hi = min(qs), max(qs)
        if lo == hi:
            return lo
        origin = self.support_start
        target = math.log1p(-p)

        def excess(u):
            # log S(x) - log(1 - p) at x = origin + e^u, decreasing in u
            F = self.cdf(origin + math.exp(u))
            return math.log1p(-min(F, _BELOW_ONE)) - target

        u_hi = math.log(hi - origin)
        # lo sits on the support start only if p rounds a component quantile there
        u_lo = math.log(lo - origin) if lo > origin else u_hi - 1.0
        try:  # an unbounded search ends when u or e^u leaves the float range
            while (f_lo := excess(u_lo)) <= 0.0:
                u_lo -= 1.0
            while (f_hi := excess(u_hi)) > 0.0 and u_hi < math.inf:
                u_hi += 1.0
            return origin + math.exp(brent_root(excess, u_lo, u_hi, _LOG_XTOL, f_lo, f_hi))
        except (DomainError, OverflowError) as exc:
            raise DomainError(f"mixture quantile at level {p!r}: {exc}") from None

    def pdf_at_offset(self, origin, dx):
        """Density at origin + dx, exact in the offset; ``dx`` is a scalar or an array.

        Components starting exactly at ``origin`` are evaluated through
        their offset path; already-active components are smooth there and
        take the rounded abscissa. Components starting later contribute
        nothing (callers keep origin + dx inside one support segment).
        """
        arr = np.asarray(dx, dtype=float)
        scalar = arr.ndim == 0
        total = np.zeros(arr.shape)
        for w, component in zip(self.weights, self.components):
            start = component.support_start
            if start == origin:
                total += w * component.pdf_at_offset(arr)
            elif start < origin:
                total += w * component.pdf(origin + arr)
        return float(total) if scalar else total


@dataclass(frozen=True)
class NormalizationReport:
    integral: float
    tol: float
    passed: bool
    panels: int
    x_hi: float


def verify_normalization(mix, tol=1e-6):
    """Quadrature check that the mixture density integrates to one.

    Integrates the density between consecutive support breaks up to the
    1 - 1e-10 quantile. Each segment is mapped through x = a + (b-a) u^16
    so that power-law divergences at segment starts (shape alpha < 1) stay
    integrable for the Simpson rule.
    """
    if not tol > 0:
        raise ParameterError("tolerance must be positive")
    x_hi = mix.quantile(1.0 - 1e-10)
    cuts = [b for b in mix.support_breaks if b < x_hi] + [x_hi]
    total = 0.0
    panels = 0
    for a, b in zip(cuts[:-1], cuts[1:]):
        width = b - a
        g = _EDGE_POWER

        def transformed(u, a=a, width=width, g=g):
            def above(up):
                return mix.pdf_at_offset(a, width * up**g) * width * g * up ** (g - 1.0)

            return on_support(u, 0.0, above)

        res = adaptive_simpson(transformed, 0.0, 1.0, abs_tol=_PANEL_TOL, max_depth=_MAX_DEPTH)
        if not res.converged:
            raise QuadratureError(
                f"normalization quadrature did not converge on [{a}, {b}]",
                estimate=total + res.value,
            )
        total += res.value
        panels += res.panels
    return NormalizationReport(
        integral=total,
        tol=tol,
        passed=abs(total - 1.0) <= tol,
        panels=panels,
        x_hi=x_hi,
    )


@dataclass(frozen=True)
class OutlierMixtureSpec:
    """Two-block mixture data: n1 units at weight r1, n2 units at weight r2."""

    n1: int
    n2: int
    r1: float
    r2: float
    comp1: ELSComponent
    comp2: ELSComponent

    def __post_init__(self):
        for name in ("n1", "n2"):
            v = getattr(self, name)
            if not (type(v) is int and v >= 1):
                raise ParameterError(f"{name} must be a positive integer, got {v!r}")
        for name in ("r1", "r2"):
            v = getattr(self, name)
            if not v > 0:
                raise ParameterError(f"{name} must be positive, got {v!r}")

    @property
    def block_weights(self):
        return (self.n1 * self.r1, self.n2 * self.r2)


def build_outlier_mixture(spec, policy=WeightPolicy.STRICT_UNIT):
    """Collapse an outlier spec into its two-term mixture.

    Strict policy requires n1*r1 + n2*r2 = 1; the auto-normalize escape
    hatch rescales, preserving ratio-based order verdicts.
    """
    try:
        return FiniteMixture(
            (spec.comp1, spec.comp2), spec.block_weights, policy=policy
        )
    except WeightError as exc:
        raise WeightError(
            f"outlier weights n1*r1 + n2*r2 = {math.fsum(spec.block_weights)!r} violate the "
            f"unit-sum requirement; {exc}"
        ) from None
