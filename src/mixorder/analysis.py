"""Grid-based verification of stochastic orders between two mixtures.

Four checks are provided: usual stochastic (pointwise survival dominance),
reversed hazard rate (CDF-ratio monotonicity with a pointwise dual check),
likelihood ratio (density-ratio monotonicity) and ageing-faster in
reversed hazard rate (RHRF-ratio monotonicity, both sign conventions
reported).

A ``PairSample`` holds one pair's curves, domain masks and ratios on one
grid, each computed once; every checker reads it, and ``QUANTITIES`` names
its columns for ``eval`` and the scenario records. ``OrderVerdict.holds``
is the one rule for an order holding in a direction.

A grid pass is a semi-decision: it certifies the order on the sampled
points only. Verdicts carry the evaluated range and point count so callers
can demand refinement stability.
"""

from __future__ import annotations

import math
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
from .mixture import eval_blocks, sample_curves
from .numerics import DENOM_FLOOR

DEFAULT_POINTS = 2001
#: largest grid; checked before any point array is allocated
MAX_POINTS = 1_000_001
#: relative tolerance for monotonicity classification
DEFAULT_REL_TOL = 1e-9
#: absolute tolerance for pointwise probability dominance
DEFAULT_POINTWISE_TOL = 1e-12
#: upper end of every automatic grid, as a quantile level
UPPER_QUANTILE = 1.0 - 1e-6


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


def check_points(n):
    """``n`` if a grid may have that many points, else ParameterError."""
    if not 3 <= n <= MAX_POINTS:
        raise ParameterError(f"grid needs 3 to {MAX_POINTS} points, got {n}")
    return n


@dataclass(frozen=True)
class Grid:
    x_lo: float
    x_hi: float
    n_points: int = DEFAULT_POINTS
    spacing: str = "linear"

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise ParameterError(f"grid needs x_lo < x_hi, got [{self.x_lo}, {self.x_hi}]")
        if not math.isfinite(self.x_hi - self.x_lo):
            raise ParameterError(f"grid needs a finite span, got [{self.x_lo}, {self.x_hi}]")
        check_points(self.n_points)
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


def auto_grid(u, v, n_points=DEFAULT_POINTS):
    """Default evaluation window for a mixture pair: from just above the later
    support start to max(u.quantile(p), v.quantile(p)) at ``UPPER_QUANTILE``.

    Component quantiles are taken once and bracket the roots. The mixture
    whose largest one is larger is rooted first; on a tie at q, the one whose
    excess log S(q) - log(1 - p) is larger. The other's root solves excess = 0
    by Brent's method in w = log(x - start), which stops within
    xtol + 4 eps |w| (< 2e-10) of a sign change. So where that excess is below
    -1e-6 (far above its rounding noise) at 1e-9 below the first root in w,
    every sign change lies lower, the other root rounds to at most the first,
    and it is skipped.
    """
    lo = max(u.support_start, v.support_start)
    lo = lo + 1e-9 * (1.0 + abs(lo))
    p = UPPER_QUANTILE
    pairs = [(m, [c.quantile(p) for c in m.components]) for m in (u, v)]
    top = [max(qs) for _, qs in pairs]
    key = top if top[0] != top[1] else [m.log_survival_excess(top[0], p) for m, _ in pairs]
    (first, first_qs), (other, other_qs) = pairs[::-1] if key[1] > key[0] else pairs
    hi, start = first.quantile(p, first_qs), other.support_start
    if not (hi > start and other.log_survival_excess(
            start + math.exp(math.log(hi - start) - 1e-9), p) < -1e-6):
        hi = max(hi, other.quantile(p, other_qs))
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

    def follows(self, trend):
        """The sequence is classified as ``trend`` or as constant."""
        return self.classification in (trend, Monotonicity.CONSTANT)


def classify_monotonicity(x, values, rel_tol=DEFAULT_REL_TOL):
    """Classify a sampled sequence as monotone, constant, or neither.

    Consecutive differences are compared against rel_tol * max|value|.
    Witnesses are the midpoints of the first extremal up and down steps.
    The steps are formed ``mixture.EVAL_BLOCK`` at a time, never over the
    whole sequence at once; a longer sequence gets the bits of one whole
    pass, except the sign of a zero largest step among +0.0 and -0.0 steps.
    """
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape != values.shape:
        raise ParameterError("samples must be two matching 1-d arrays")
    if x.size < 3:
        raise InsufficientDomainError(f"need at least 3 samples, got {x.size}")
    if not np.all(x[1:] > x[:-1]):  # NaN and a repeated infinity fail too
        raise ParameterError("sample abscissae must be strictly increasing")
    if not np.isfinite(values).all():
        idx = int(np.argmin(np.isfinite(values)))
        raise InvalidSampleError(
            f"non-finite sample value {values[idx]!r} at index {idx} (x={x[idx]!r})",
            index=idx,
        )
    up = down = None  # (largest step of its sign, where its block starts, the block's steps)
    for part in eval_blocks(values.size - 1):
        steps = np.diff(values[part.start:part.stop + 1])
        block_up = float(np.max(steps, initial=0.0))
        block_down = float(-np.min(steps, initial=0.0))
        if up is None or block_up > up[0]:  # a tie keeps the earlier block
            up = (block_up, part.start, steps)
        if down is None or block_down > down[0]:
            down = (block_down, part.start, steps)
    # max|v| as max(max v, -min v); abs() makes a zero one +0.0, as max(abs(v)) does
    scale = abs(float(max(values.max(), -values.min())))
    tol = rel_tol * scale
    (max_up, up_at, up_steps), (max_down, down_at, down_steps) = up, down
    witness_up = witness_down = None
    if max_up > tol:
        i = up_at + int(np.argmax(up_steps))
        witness_up = float(0.5 * (x[i] + x[i + 1]))
    if max_down > tol:
        i = down_at + int(np.argmin(down_steps))
        witness_down = float(0.5 * (x[i] + x[i + 1]))
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

    def holds(self, direction):
        """The order holds in ``direction``: the verdict is that direction or Both."""
        return self.direction in (direction, Direction.BOTH)


def _masked_div(num, den, keep, out=None):
    """num / den where keep holds, NaN elsewhere; written into ``out`` if given."""
    if out is None:
        out = np.empty(np.shape(keep))
    out[...] = np.nan
    return np.divide(num, den, out=out, where=keep)


class PairSample:
    """One mixture pair sampled on one grid.

    Every curve, domain mask and ratio is a ``cached_property``: computed on
    first read and kept in the instance, so every checker, the curve writer
    and ``eval`` read the same arrays. ``fill`` samples curves for both
    mixtures in one pass; a reader of both curves fills them together
    first. Each ratio is NaN outside the
    domain its checker classifies on; the domain masks are exposed
    separately so a NaN inside a domain still reaches the classifier as an
    invalid sample. ``rates`` is the one source of the reversed hazard
    rates on the grid, for the rh check's dual, ``rhr_ratio`` and ``eval
    rhr``; it fills both curves and forms the rates of the slice it is
    given, not kept, so a check allocates no whole-grid float array besides
    the ratio it keeps.
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
        return self.fill("cdf")["cdf_u"]

    @cached_property
    def cdf_v(self):
        return self.fill("cdf")["cdf_v"]

    @cached_property
    def pdf_u(self):
        return self.fill("pdf")["pdf_u"]

    @cached_property
    def pdf_v(self):
        return self.fill("pdf")["pdf_v"]

    def fill(self, *curves):
        """Fill the slots of ``curves`` not held yet, for both mixtures, from
        one ``sample_curves`` pass over the pair; return the held slots."""
        held = vars(self)  # where cached_property keeps its values
        if missing := [c for c in curves if f"{c}_u" not in held]:
            for side, values in zip("uv", sample_curves((self.u, self.v), self.x, missing)):
                held.update((f"{c}_{side}", value) for c, value in zip(missing, values))
        return held

    @cached_property
    def rh_domain(self):
        return self.cdf_u > DENOM_FLOOR

    @cached_property
    def lr_domain(self):
        return (self.pdf_u > DENOM_FLOOR) & np.isfinite(self.pdf_u) & np.isfinite(self.pdf_v)

    @cached_property
    def r_rh_domain(self):
        self.fill("cdf", "pdf")
        return (
            (self.cdf_u > DENOM_FLOOR) & (self.cdf_v > DENOM_FLOOR) & (self.pdf_v > DENOM_FLOOR)
            & np.isfinite(self.pdf_u) & np.isfinite(self.pdf_v)
        )

    @cached_property
    def cdf_ratio(self):
        """F_V / F_U on the rh domain."""
        return _masked_div(self.cdf_v, self.cdf_u, self.rh_domain)

    @cached_property
    def pdf_ratio(self):
        """f_V / f_U on the lr domain."""
        return _masked_div(self.pdf_v, self.pdf_u, self.lr_domain)

    def rates(self, part=slice(None)):
        """(h_U, h_V) on ``part`` of the grid, each where its own CDF exceeds
        the floor; new arrays, not kept."""
        self.fill("cdf", "pdf")
        return tuple(_masked_div(pdf[part], cdf[part], cdf[part] > DENOM_FLOOR)
                     for pdf, cdf in ((self.pdf_u, self.cdf_u), (self.pdf_v, self.cdf_v)))

    @cached_property
    def rhr_ratio(self):
        """h_U / h_V on the r_rh domain, written block by block into one
        array from the rates of each block."""
        keep = self.r_rh_domain
        out = np.empty(keep.shape)
        for part in eval_blocks(out.size):
            _masked_div(*self.rates(part), keep[part], out[part])
        return out


#: each ``eval`` quantity and the named columns, x excluded, that a sample gives for it
QUANTITIES = {
    "cdf": lambda s: {"cdf_U": s.cdf_u, "cdf_V": s.cdf_v},
    "pdf": lambda s: {"pdf_U": s.pdf_u, "pdf_V": s.pdf_v},
    "sf": lambda s: {"sf_U": 1.0 - s.cdf_u, "sf_V": 1.0 - s.cdf_v},
    "rhr": lambda s: dict(zip(("rhr_U", "rhr_V"), s.rates())),
    "cdf_ratio": lambda s: {"cdf_ratio_V_over_U": s.cdf_ratio},
    "pdf_ratio": lambda s: {"pdf_ratio_V_over_U": s.pdf_ratio},
    "rhr_ratio": lambda s: {"rhr_ratio_U_over_V": s.rhr_ratio},
}


def _pointwise_direction(le_uv, le_vu):
    """The direction of an order from whether U <= V and V <= U hold."""
    if le_uv and le_vu:
        return Direction.BOTH
    if le_uv:
        return Direction.U_LEQ_V
    if le_vu:
        return Direction.V_LEQ_U
    return Direction.NEITHER


def _verdict(order, sample, xs, direction, pair_id, **fields):
    """An OrderVerdict over the grid points ``xs`` of ``sample``."""
    return OrderVerdict(
        order=order,
        direction=direction,
        evaluated_range=(float(xs[0]), float(xs[-1])),
        points_used=int(xs.size),
        grid_signature=sample.grid.signature(),
        pair_id=pair_id,
        **fields,
    )


def check_usual_stochastic(sample, tol=DEFAULT_POINTWISE_TOL, pair_id=""):
    """U <=st V iff cdf_U >= cdf_V - tol at every grid point."""
    x, fu, fv = sample.x, sample.cdf_u, sample.cdf_v
    u_le_v = fu >= fv - tol  # U smaller: its CDF dominates
    direction = _pointwise_direction(bool(np.all(u_le_v)), bool(np.all(fv >= fu - tol)))
    witness = None
    if direction is Direction.NEITHER:
        i = int(np.argmax(~u_le_v))
        witness = Witness(float(x[i]), float(fu[i]), float(fv[i]))
    return _verdict(OrderKind.ST, sample, x, direction, pair_id, violation_witness=witness)


def _ratio_verdict(order, sample, keep, ratio, rel_tol, pair_id, curves):
    """Classify ``ratio`` on ``keep``; a non-monotone ratio gets a witness
    with each mixture's value there from one ``sample_curves`` pass over the
    pair: its one curve of ``curves``, or f/F for ("cdf", "pdf")."""
    n_keep = int(np.count_nonzero(keep))
    if n_keep < 3:
        raise InsufficientDomainError(f"only {n_keep} usable grid points after restriction")
    # a domain that is one run of points, as a suffix of the grid usually is,
    # is classified on views; any other is copied out
    first = int(np.argmax(keep))
    if keep[(run := slice(first, first + n_keep))].all():
        keep = run
    xs, kept = sample.x[keep], ratio[keep]
    mono = classify_monotonicity(xs, kept, rel_tol=rel_tol)
    witness = None
    if mono.classification is Monotonicity.NON_MONOTONE:
        wx = mono.witness_down if mono.witness_down is not None else mono.witness_up
        value_u, value_v = (values[0] if len(values) == 1 else values[1] / values[0]
                            for values in sample_curves((sample.u, sample.v), wx, curves))
        witness = Witness(float(wx), float(value_u), float(value_v))
    direction = _pointwise_direction(mono.follows(Monotonicity.NON_DECREASING),
                                     mono.follows(Monotonicity.NON_INCREASING))
    return _verdict(order, sample, xs, direction, pair_id,
                    violation_witness=witness, ratio_classification=mono)


def check_reversed_hazard(sample, rel_tol=DEFAULT_REL_TOL, pair_id=""):
    """Classify F_V/F_U on the part of the grid where F_U exceeds the floor.

    A nondecreasing ratio means U <=rh V. The pointwise dual (reversed
    hazard rates compared directly where both CDFs are positive) is
    evaluated as well, slice by slice from the curves, and its agreement is
    recorded.
    """
    sample.fill("cdf", "pdf")
    keep = sample.rh_domain
    verdict = _ratio_verdict(
        OrderKind.RH, sample, keep, sample.cdf_ratio, rel_tol, pair_id, ("cdf",)
    )
    # pointwise dual: h_U <= h_V where both CDFs are usable
    both = keep & (sample.cdf_v > DENOM_FLOOR)
    if int(np.count_nonzero(both)) < 3:
        return verdict
    # pointwise-relative slack: a global scale would be inflated by
    # the divergence at a later support start and mask genuine flips. The
    # rates, the slack and each bound are formed block by block, and only
    # the points of ``both`` are compared.
    le_uv = le_vu = True
    for part in eval_blocks(both.size):
        hu, hv = sample.rates(part)
        h_tol, bound = np.abs(hu), np.abs(hv)
        np.maximum(h_tol, bound, out=h_tol)
        h_tol *= rel_tol
        le_uv &= bool(np.all(hu <= np.add(hv, h_tol, out=bound), where=both[part]))
        le_vu &= bool(np.all(hv <= np.add(hu, h_tol, out=bound), where=both[part]))
    pw_direction = _pointwise_direction(le_uv, le_vu)
    return replace(
        verdict, pointwise_agrees=_directions_compatible(verdict.direction, pw_direction)
    )


def _directions_compatible(a, b):
    """The ratio and pointwise readings agree up to ties."""
    if a == b:
        return True
    return Direction.BOTH in (a, b) and Direction.NEITHER not in (a, b)


def check_likelihood_ratio(sample, rel_tol=DEFAULT_REL_TOL, pair_id=""):
    """Classify f_V/f_U where f_U exceeds the floor; nondecreasing means U <=lr V."""
    return _ratio_verdict(
        OrderKind.LR, sample, sample.lr_domain, sample.pdf_ratio, rel_tol, pair_id, ("pdf",)
    )


def check_aging_faster_rhr(sample, rel_tol=DEFAULT_REL_TOL, pair_id=""):
    """Classify the RHRF ratio h_U/h_V where both CDFs and PDFs are usable.

    The source definition declares U ages faster than V when the ratio is
    increasing, but the multiple-outlier theorem and its worked example
    treat a decreasing ratio as the validated conclusion. Both readings
    are recorded; ``direction`` follows the definition.
    """
    verdict = _ratio_verdict(
        OrderKind.R_RH, sample, sample.r_rh_domain, sample.rhr_ratio, rel_tol,
        pair_id, ("cdf", "pdf"),
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
    if lr.holds(direction) and not rh.holds(direction):
        failures.append(f"lr {direction.value} holds but rh does not")
    if rh.holds(direction) and not st.holds(direction):
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
