"""Grid-based verification of stochastic orders between two mixtures.

Four checks are provided: usual stochastic (pointwise survival dominance),
reversed hazard rate (CDF-ratio monotonicity with a pointwise dual check),
likelihood ratio (density-ratio monotonicity) and ageing-faster in
reversed hazard rate (RHRF-ratio monotonicity, both sign conventions
reported).

A grid pass is a semi-decision: it certifies the order on the sampled
points only. Verdicts carry the evaluated range and point count so callers
can demand refinement stability.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    AuditError,
    InsufficientDomainError,
    InvalidSampleError,
    ParameterError,
)
from .numerics import DENOM_FLOOR

DEFAULT_POINTS = 2001
#: relative tolerance for monotonicity classification
DEFAULT_REL_TOL = 1e-9
#: absolute tolerance for pointwise probability dominance
DEFAULT_POINTWISE_TOL = 1e-12


class Monotonicity(str, Enum):
    NON_DECREASING = "non_decreasing"
    NON_INCREASING = "non_increasing"
    CONSTANT = "constant"
    NON_MONOTONE = "non_monotone"


class OrderKind(str, Enum):
    ST = "st"
    RH = "rh"
    LR = "lr"
    R_RH = "r_rh"


class Direction(str, Enum):
    U_LEQ_V = "UleqV"
    V_LEQ_U = "VleqU"
    BOTH = "Both"
    NEITHER = "Neither"


@dataclass(frozen=True)
class Grid:
    x_lo: float
    x_hi: float
    n_points: int = DEFAULT_POINTS
    spacing: str = "linear"

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise ParameterError(f"grid needs x_lo < x_hi, got [{self.x_lo}, {self.x_hi}]")
        if self.n_points < 3:
            raise ParameterError("grid needs at least 3 points")
        if self.spacing not in ("linear", "logarithmic"):
            raise ParameterError(f"unknown spacing {self.spacing!r}")
        if self.spacing == "logarithmic" and self.x_lo <= 0:
            raise ParameterError("logarithmic spacing requires x_lo > 0")

    def points(self):
        if self.spacing == "logarithmic":
            return np.geomspace(self.x_lo, self.x_hi, self.n_points)
        return np.linspace(self.x_lo, self.x_hi, self.n_points)

    def signature(self):
        return (self.x_lo, self.x_hi, self.n_points, self.spacing)


def auto_grid(u, v, n_points=DEFAULT_POINTS, quantile=1.0 - 1e-6):
    """Default evaluation window for a mixture pair.

    Starts just above the later of the two support starts and ends at the
    larger of the two upper quantiles, so heavy tails stay bounded.
    """
    lo = max(u.support_start, v.support_start)
    lo = lo + 1e-9 * (1.0 + abs(lo))
    hi = max(u.quantile(quantile), v.quantile(quantile))
    return Grid(lo, hi, n_points)


@dataclass(frozen=True)
class MonotonicityVerdict:
    classification: Monotonicity
    max_up: float
    max_down: float
    witness_up: float | None
    witness_down: float | None
    rel_tol: float
    scale: float


def classify_monotonicity(x, values, rel_tol=DEFAULT_REL_TOL):
    """Classify a sampled sequence as monotone, constant, or neither.

    Consecutive differences are compared against rel_tol * max|value|.
    Witnesses are the midpoints of the extremal up and down steps.
    """
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape != values.shape:
        raise ParameterError("samples must be two matching 1-d arrays")
    if x.size < 3:
        raise InsufficientDomainError(f"need at least 3 samples, got {x.size}")
    if np.any(np.diff(x) <= 0):
        raise ParameterError("sample abscissae must be strictly increasing")
    bad = ~np.isfinite(values)
    if bad.any():
        idx = int(np.argmax(bad))
        raise InvalidSampleError(
            f"non-finite sample value {values[idx]!r} at index {idx} (x={x[idx]!r})",
            index=idx,
        )
    diffs = np.diff(values)
    scale = float(np.max(np.abs(values)))
    tol = rel_tol * scale
    max_up = float(np.max(diffs, initial=0.0))
    max_down = float(-np.min(diffs, initial=0.0))
    mids = 0.5 * (x[:-1] + x[1:])
    witness_up = float(mids[int(np.argmax(diffs))]) if max_up > tol else None
    witness_down = float(mids[int(np.argmin(diffs))]) if max_down > tol else None
    up_ok = max_down <= tol  # no significant decrease
    down_ok = max_up <= tol  # no significant increase
    if up_ok and down_ok:
        cls = Monotonicity.CONSTANT
    elif up_ok:
        cls = Monotonicity.NON_DECREASING
    elif down_ok:
        cls = Monotonicity.NON_INCREASING
    else:
        cls = Monotonicity.NON_MONOTONE
    return MonotonicityVerdict(
        classification=cls,
        max_up=max_up,
        max_down=max_down,
        witness_up=witness_up,
        witness_down=witness_down,
        rel_tol=rel_tol,
        scale=scale,
    )


@dataclass(frozen=True)
class Witness:
    x: float
    value_u: float
    value_v: float


@dataclass(frozen=True)
class OrderVerdict:
    order: OrderKind
    direction: Direction
    evaluated_range: tuple
    points_used: int
    grid_signature: tuple
    pair_id: str = ""
    violation_witness: Witness | None = None
    ratio_classification: MonotonicityVerdict | None = None
    pointwise_agrees: bool | None = None
    readings: dict = field(default_factory=dict)


def _direction_from_monotone(cls):
    return {
        Monotonicity.NON_DECREASING: Direction.U_LEQ_V,
        Monotonicity.NON_INCREASING: Direction.V_LEQ_U,
        Monotonicity.CONSTANT: Direction.BOTH,
        Monotonicity.NON_MONOTONE: Direction.NEITHER,
    }[cls]


def _masked_div(num, den, keep):
    """num / den where keep holds, NaN elsewhere."""
    return np.where(keep, num / np.where(keep, den, 1.0), np.nan)


class PairSample:
    """One mixture pair sampled on one grid.

    Each curve is evaluated on first use and at most once, so every
    checker, the curve writer and ``eval`` read the same arrays. Each
    ratio is NaN outside the domain its checker classifies on; the domain
    masks are exposed separately so a NaN inside a domain still reaches
    the classifier as an invalid sample.
    """

    def __init__(self, u, v, grid):
        self.u = u
        self.v = v
        self.grid = grid

    @cached_property
    def x(self):
        return self.grid.points()

    @cached_property
    def cdf_u(self):
        return np.asarray(self.u.cdf(self.x))

    @cached_property
    def cdf_v(self):
        return np.asarray(self.v.cdf(self.x))

    @cached_property
    def pdf_u(self):
        return np.asarray(self.u.pdf(self.x))

    @cached_property
    def pdf_v(self):
        return np.asarray(self.v.pdf(self.x))

    def rh_domain(self, floor=DENOM_FLOOR):
        return self.cdf_u > floor

    def lr_domain(self, floor=DENOM_FLOOR):
        return (self.pdf_u > floor) & np.isfinite(self.pdf_u) & np.isfinite(self.pdf_v)

    def r_rh_domain(self, floor=DENOM_FLOOR):
        return (
            (self.cdf_u > floor) & (self.cdf_v > floor) & (self.pdf_v > floor)
            & np.isfinite(self.pdf_u) & np.isfinite(self.pdf_v)
        )

    def cdf_ratio(self, floor=DENOM_FLOOR):
        """F_V / F_U on the rh domain."""
        return _masked_div(self.cdf_v, self.cdf_u, self.rh_domain(floor))

    def pdf_ratio(self, floor=DENOM_FLOOR):
        """f_V / f_U on the lr domain."""
        return _masked_div(self.pdf_v, self.pdf_u, self.lr_domain(floor))

    def rhr(self, floor=DENOM_FLOOR):
        """(h_U, h_V), each where its own CDF exceeds the floor."""
        return (
            _masked_div(self.pdf_u, self.cdf_u, self.cdf_u > floor),
            _masked_div(self.pdf_v, self.cdf_v, self.cdf_v > floor),
        )

    def rhr_ratio(self, floor=DENOM_FLOOR):
        """h_U / h_V on the r_rh domain."""
        hu, hv = self.rhr(floor)
        return _masked_div(hu, hv, self.r_rh_domain(floor))

    def columns(self, quantity, floor=DENOM_FLOOR):
        """Named curve columns of one ``eval`` quantity, x excluded."""
        if quantity == "cdf_ratio":
            return {"cdf_ratio_V_over_U": self.cdf_ratio(floor)}
        if quantity == "pdf_ratio":
            return {"pdf_ratio_V_over_U": self.pdf_ratio(floor)}
        if quantity == "rhr_ratio":
            return {"rhr_ratio_U_over_V": self.rhr_ratio(floor)}
        if quantity == "rhr":
            pair = self.rhr(floor)
        elif quantity == "sf":
            pair = (1.0 - self.cdf_u, 1.0 - self.cdf_v)
        else:
            pair = (getattr(self, f"{quantity}_u"), getattr(self, f"{quantity}_v"))
        return {f"{quantity}_U": pair[0], f"{quantity}_V": pair[1]}


def _pointwise_direction(le_uv, le_vu):
    if le_uv and le_vu:
        return Direction.BOTH
    if le_uv:
        return Direction.U_LEQ_V
    if le_vu:
        return Direction.V_LEQ_U
    return Direction.NEITHER


def check_usual_stochastic(sample, tol=DEFAULT_POINTWISE_TOL, pair_id=""):
    """U <=st V iff cdf_U >= cdf_V - tol at every grid point."""
    x, fu, fv = sample.x, sample.cdf_u, sample.cdf_v
    u_le_v = fu >= fv - tol  # U smaller: its CDF dominates
    direction = _pointwise_direction(bool(np.all(u_le_v)), bool(np.all(fv >= fu - tol)))
    witness = None
    if direction is Direction.NEITHER:
        i = int(np.argmax(~u_le_v))
        witness = Witness(float(x[i]), float(fu[i]), float(fv[i]))
    return OrderVerdict(
        order=OrderKind.ST,
        direction=direction,
        evaluated_range=(float(x[0]), float(x[-1])),
        points_used=int(x.size),
        grid_signature=sample.grid.signature(),
        pair_id=pair_id,
        violation_witness=witness,
    )


def _ratio_verdict(order, sample, keep, ratio, rel_tol, pair_id, curve_u, curve_v):
    """Classify ``ratio`` on ``keep``; a non-monotone ratio gets a witness
    with ``curve_u``/``curve_v`` evaluated there."""
    n_keep = int(np.count_nonzero(keep))
    if n_keep < 3:
        raise InsufficientDomainError(f"only {n_keep} usable grid points after restriction")
    xs = sample.x[keep]
    mono = classify_monotonicity(xs, ratio[keep], rel_tol=rel_tol)
    witness = None
    if mono.classification is Monotonicity.NON_MONOTONE:
        wx = mono.witness_down if mono.witness_down is not None else mono.witness_up
        witness = Witness(float(wx), float(curve_u(wx)), float(curve_v(wx)))
    return OrderVerdict(
        order=order,
        direction=_direction_from_monotone(mono.classification),
        evaluated_range=(float(xs[0]), float(xs[-1])),
        points_used=int(xs.size),
        grid_signature=sample.grid.signature(),
        pair_id=pair_id,
        violation_witness=witness,
        ratio_classification=mono,
    )


def check_reversed_hazard(sample, rel_tol=DEFAULT_REL_TOL, floor=DENOM_FLOOR, pair_id=""):
    """Classify F_V/F_U on the part of the grid where F_U exceeds the floor.

    A nondecreasing ratio means U <=rh V. The pointwise dual (reversed
    hazard rates compared directly where both CDFs are positive) is
    evaluated as well and its agreement is recorded.
    """
    keep = sample.rh_domain(floor)
    verdict = _ratio_verdict(
        OrderKind.RH, sample, keep, sample.cdf_ratio(floor), rel_tol, pair_id,
        sample.u.cdf, sample.v.cdf,
    )
    # pointwise dual: h_U <= h_V where both CDFs are usable
    both = keep & (sample.cdf_v > floor)
    if int(np.count_nonzero(both)) < 3:
        return verdict
    hu, hv = (h[both] for h in sample.rhr(floor))
    # pointwise-relative slack: a global scale would be inflated by
    # the divergence at a later support start and mask genuine flips
    h_tol = rel_tol * np.maximum(np.abs(hu), np.abs(hv))
    pw_direction = _pointwise_direction(
        bool(np.all(hu <= hv + h_tol)), bool(np.all(hv <= hu + h_tol))
    )
    return replace(
        verdict, pointwise_agrees=_directions_compatible(verdict.direction, pw_direction)
    )


def _directions_compatible(a, b):
    """The ratio and pointwise readings agree up to ties."""
    if a == b:
        return True
    return Direction.BOTH in (a, b) and Direction.NEITHER not in (a, b)


def check_likelihood_ratio(sample, rel_tol=DEFAULT_REL_TOL, floor=DENOM_FLOOR, pair_id=""):
    """Classify f_V/f_U where f_U exceeds the floor; nondecreasing means U <=lr V."""
    return _ratio_verdict(
        OrderKind.LR, sample, sample.lr_domain(floor), sample.pdf_ratio(floor), rel_tol,
        pair_id, sample.u.pdf, sample.v.pdf,
    )


def check_aging_faster_rhr(sample, rel_tol=DEFAULT_REL_TOL, floor=DENOM_FLOOR, pair_id=""):
    """Classify the RHRF ratio h_U/h_V where both CDFs and PDFs are usable.

    The source definition declares U ages faster than V when the ratio is
    increasing, but the multiple-outlier theorem and its worked example
    treat a decreasing ratio as the validated conclusion. Both readings
    are recorded; ``direction`` follows the definition.
    """
    verdict = _ratio_verdict(
        OrderKind.R_RH, sample, sample.r_rh_domain(floor), sample.rhr_ratio(floor), rel_tol,
        pair_id, sample.u.rhr, sample.v.rhr,
    )
    readings = {
        "definition": f"ratio increasing means U ages faster (direction {verdict.direction.value})",
        "theorem_usage": "ratio decreasing is the validated multiple-outlier conclusion",
        "ratio_classification": verdict.ratio_classification.classification.value,
    }
    return replace(verdict, readings=readings)


@dataclass(frozen=True)
class ImplicationAudit:
    consistent: bool
    failures: tuple
    detail: str


def _holds(verdict, direction):
    return verdict.direction in (direction, Direction.BOTH)


def implication_audit(st, rh, lr):
    """Check the lr => rh => st chain across three verdicts of one pair.

    Audited in the UleqV direction, the orientation every comparison here
    uses: the first mixture's support extends at least as far left as the
    second's, which is also the premise the chain theorem needs. The
    chain only constrains downward: a stronger order holding while a
    weaker one fails is a numerical inconsistency worth surfacing, never
    silently repaired.
    """
    for verdict, kind in ((st, OrderKind.ST), (rh, OrderKind.RH), (lr, OrderKind.LR)):
        if verdict.order is not kind:
            raise AuditError(f"expected a {kind.value} verdict, got {verdict.order.value}")
    if not (st.pair_id == rh.pair_id == lr.pair_id):
        raise AuditError(
            f"verdicts come from different pairs: "
            f"{st.pair_id!r}, {rh.pair_id!r}, {lr.pair_id!r}"
        )
    if not (st.grid_signature == rh.grid_signature == lr.grid_signature):
        raise AuditError("verdicts come from different grids")
    failures = []
    direction = Direction.U_LEQ_V
    if _holds(lr, direction) and not _holds(rh, direction):
        failures.append(f"lr {direction.value} holds but rh does not")
    if _holds(rh, direction) and not _holds(st, direction):
        failures.append(f"rh {direction.value} holds but st does not")
    return ImplicationAudit(
        consistent=not failures,
        failures=tuple(failures),
        detail="; ".join(failures) if failures else "chain consistent",
    )


CHECKERS = {
    OrderKind.ST: check_usual_stochastic,
    OrderKind.RH: check_reversed_hazard,
    OrderKind.LR: check_likelihood_ratio,
    OrderKind.R_RH: check_aging_faster_rhr,
}


def check_order(kind, u, v, grid, pair_id="", **kwargs):
    """Sample the pair on ``grid`` and dispatch to the checker for ``kind``."""
    return CHECKERS[OrderKind(kind)](PairSample(u, v, grid), pair_id=pair_id, **kwargs)
