"""Finite mixtures of exponentiated location-scale components.

The mixture CDF and PDF are weighted sums of the component functions, with
contributions switching on as x crosses each component's support start.
Sums are Kahan-compensated because catalog weights span two orders of
magnitude, by ``numerics.compensated_sum``, the quadrature's sum too. One
kernel, ``sample_curves``, samples one mixture or a pair: ``cdf`` and
``pdf`` are its one-mixture case. It groups the distinct components and
samples them all in one ``els.sample_groups`` call, for a scalar as for an
array, then sums each mixture's terms. A grid longer than ``EVAL_BLOCK``
runs in cache-sized slices of the same elementwise arithmetic on one
grouping, so it gives the same bits. Also provides the two-block outlier
construction and a normalization quadrature check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain

import numpy as np

from .els import ELSComponent, sample_groups
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
    compensated_sum,
    expand_upper_bracket,
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

#: points per slice of a long 1-d grid in ``sample_curves`` and the order
#: checks; 64 KB temporaries
EVAL_BLOCK = 8192


def eval_blocks(size):
    """The consecutive ``EVAL_BLOCK``-point slices of ``size`` points."""
    return [slice(i, i + EVAL_BLOCK) for i in range(0, size, EVAL_BLOCK)]


def _plan(mixtures):
    """The distinct components of ``mixtures`` in groups that share a baseline
    object (an equal baseline of a subclass may compute otherwise), sigma and
    lam, and for each mixture the places of its components among them."""
    groups, firsts = {}, []  # firsts: the first equal component of each, in order
    for c in chain(*(mix.components for mix in mixtures)):
        members = groups.setdefault((id(c.baseline), c.sigma, c.lam), {})
        firsts.append(members.setdefault(c.alpha, c))
    groups = [tuple(members.values()) for members in groups.values()]
    place = {id(c): i for i, c in enumerate(chain(*groups))}
    firsts = iter(firsts)
    return groups, [[place[id(next(firsts))] for _ in mix.components] for mix in mixtures]


def sample_curves(mixtures, x, curves):
    """``curves`` ("cdf", "pdf" or both, in that order) of each of ``mixtures``
    at x: one list per mixture, of arrays (of floats for a scalar x). One
    ``els.sample_groups`` call samples every group of ``_plan``. Each mixture
    then Kahan-sums its own terms in its own order, so it gets the bits it
    gets alone, and a scalar the bits of a grid point. A 1-d array longer
    than ``EVAL_BLOCK`` runs slice by slice on one plan, each slice's sums
    written into the outputs."""
    arr = np.asarray(x, dtype=float)
    groups, places = mixtures[0].own_plan if len(mixtures) == 1 else _plan(mixtures)
    k = len(curves)
    if arr.ndim == 0:  # summed in Python floats, which take the IEEE steps of 0-d arrays
        values = sample_groups(groups, arr, curves)
        return [[compensated_sum([w * values[k * i + j]
                                  for w, i in zip(mix.weights.tolist(), place)])
                 for j in range(k)] for mix, place in zip(mixtures, places)]
    outs = [[np.empty(arr.shape) for _ in curves] for _ in mixtures]
    for part in eval_blocks(arr.size) if arr.ndim == 1 else [...]:
        values = sample_groups(groups, arr[part], curves)
        with np.errstate(invalid="ignore"):  # a Kahan step past an infinite term is NaN
            for mix, place, out in zip(mixtures, places, outs):
                for j in range(k):
                    terms = [w * values[k * i + j] for w, i in zip(mix.weights, place)]
                    compensated_sum(terms, out[j][part])
    return outs


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

    own_plan = cached_property(lambda self: _plan((self,)))  # a root samples one mixture often

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

    def cdf(self, x):
        return sample_curves((self,), x, ("cdf",))[0][0]

    def pdf(self, x):
        return sample_curves((self,), x, ("pdf",))[0][0]

    def quantile(self, p, component_quantiles=None):
        """Inverse CDF by a root bracketed by the component quantiles.

        Every component CDF is at most p at the smallest component
        quantile and at least p at the largest, so the mixture CDF crosses
        p between them; when all component quantiles coincide, that point
        is the answer. The root solves log S(x) = log(1 - p) in the
        variable u = log(x - support_start), in which power-law tails are
        straight lines, so Brent's method needs few steps. A bound that rounding
        leaves on the wrong side is moved out until its sign is right. A caller
        holding the component quantiles at p passes them in component order.
        """
        if not 0.0 < p < 1.0:
            raise DomainError(f"quantile level must lie in (0,1), got {p}")
        qs = component_quantiles or [component.quantile(p) for component in self.components]
        lo, hi = min(qs), max(qs)
        if lo == hi:
            return lo
        origin = self.support_start

        def excess(u):
            return self.log_survival_excess(origin + math.exp(u), p)

        # every component quantile lies above its own start, so lo > origin
        u_lo, u_hi = math.log(lo - origin), math.log(hi - origin)
        try:  # an unbounded search ends when u or e^u leaves the float range
            while (f_lo := excess(u_lo)) <= 0.0:
                u_lo -= 1.0
            while (f_hi := excess(u_hi)) > 0.0 and u_hi < math.inf:
                u_hi += 1.0
            return origin + math.exp(brent_root(excess, u_lo, u_hi, _LOG_XTOL, f_lo, f_hi))
        except (DomainError, OverflowError) as exc:
            raise DomainError(f"mixture quantile at level {p!r}: {exc}") from None

    def log_survival_excess(self, x, p):
        """log S(x) - log(1 - p) at a scalar x; negative above the p-quantile."""
        return math.log1p(-min(self.cdf(x), _BELOW_ONE)) - math.log1p(-p)

    def pdf_at_offset(self, origin, dx):
        """Density at origin + dx, exact in the offset; scalars or arrays that broadcast.

        At each point, in component order, components starting exactly at its
        origin take their offset path, already-active ones (smooth there) the
        rounded abscissa, and components starting later contribute nothing.
        """
        origin, arr = np.asarray(origin, dtype=float), np.asarray(dx, dtype=float)
        if origin.shape != arr.shape:
            origin, arr = np.broadcast_arrays(origin, arr)
        origin, flat = origin.ravel(), arr.ravel()
        total = np.zeros(flat.size)
        for w, component in zip(self.weights, self.components):
            start = component.support_start
            at, after = (origin == start).nonzero()[0], (origin > start).nonzero()[0]
            if at.size:
                total[at] += w * component.pdf_at_offset(flat[at])
            if after.size:
                total[after] += w * component.pdf(origin[after] + flat[after])
        return float(total[0]) if arr.ndim == 0 else total.reshape(arr.shape)


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
    integrable for the Simpson rule. One ``adaptive_simpson`` pass takes all
    segments, with one density call at every other depth that also evaluates
    the next one; their sums add in order.
    """
    if not tol > 0:
        raise ParameterError("tolerance must be positive")
    x_hi = mix.quantile(1.0 - 1e-10)
    cuts = [b for b in mix.support_breaks if b < x_hi] + [x_hi]
    starts, widths = np.array(cuts[:-1]), np.diff(cuts)
    g = _EDGE_POWER

    def substituted(point):
        # no mask at u = 0: the offset path masks dx = 0, u**(g - 1) zeroes the finite rest
        origin, width, u = starts[point[0]], widths[point[0]], point[1]
        return mix.pdf_at_offset(origin, width * u**g) * width * g * u ** (g - 1.0)

    res = adaptive_simpson(substituted, np.zeros(len(starts)), np.ones(len(starts)),
                           abs_tol=_PANEL_TOL, max_depth=_MAX_DEPTH)
    for a, b, total, bad in zip(cuts[:-1], cuts[1:], accumulate(res.values), res.unconverged):
        if bad:
            raise QuadratureError(
                f"normalization quadrature did not converge on [{a}, {b}]", estimate=total
            )
    return NormalizationReport(integral=res.value, tol=tol, passed=abs(res.value - 1.0) <= tol,
                               panels=res.panels, x_hi=x_hi)


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
            if not 0 < v < math.inf:
                raise ParameterError(f"{name} must be positive and finite, got {v!r}")

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
