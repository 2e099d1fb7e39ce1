"""Mechanical evaluation of the sufficient conditions behind each theorem.

Every hypothesis becomes one named pass/fail item; a report never claims
more than "all hypotheses hold numerically". Monotonicity hypotheses on
the baseline (t*rhr decreasing, density log-slope behaviour) are sampled
on a grid from just above the support bound to the ``UPPER_QUANTILE``
level of ``analysis`` and recorded as numerically supported, not proved.

Failed hypotheses are meaningful output, so vector-shape problems inside
a hypothesis (for instance majorization of unequal-sum vectors) mark the
item failed instead of raising. Only applying an evaluator to mixtures of
the wrong shape raises ``TheoremShapeError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

import numpy as np

from .analysis import (
    DEFAULT_POINTS,
    DEFAULT_REL_TOL,
    UPPER_QUANTILE,
    Direction,
    Grid,
    Monotonicity,
    OrderKind,
    classify_monotonicity,
)
from .errors import TheoremShapeError

MAJORIZATION_TOL = 1e-12
_SCALAR_TOL = 1e-12


class Cone(str, Enum):
    E_PLUS = "E_plus"  # 0 <= v1 <= ... <= vn
    D_PLUS = "D_plus"  # v1 >= ... >= vn >= 0


def check_cone_membership(v, cone):
    """The vector ``v`` is nonnegative and its steps v[i+1] - v[i] have the
    cone's sign; an empty vector is in no cone."""
    v = [float(x) for x in v]
    if not v or any(x < 0.0 for x in v):
        return False
    steps = [b - a for a, b in zip(v, v[1:])]
    if Cone(cone) is Cone.E_PLUS:
        return all(d >= 0.0 for d in steps)
    return all(d <= 0.0 for d in steps)


@dataclass(frozen=True)
class MajorizationResult:
    x_majorized_by_y: bool
    y_majorized_by_x: bool
    prefix_x: tuple
    prefix_y: tuple
    sums_equal: bool


def check_majorization(x, y, tol=MAJORIZATION_TOL):
    """Compare sorted prefix sums of two equal-length vectors.

    x is majorized by y when, after sorting both increasingly, every
    proper prefix sum of x is at least that of y and the totals agree.
    The prefix sums add left to right in floats.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 1:
        raise TheoremShapeError("majorization needs two equal-length vectors")
    px = tuple(accumulate(sorted(x.tolist())))
    py = tuple(accumulate(sorted(y.tolist())))
    sums_equal = abs(px[-1] - py[-1]) <= tol
    x_by_y = sums_equal and all(a >= b - tol for a, b in zip(px[:-1], py))
    y_by_x = sums_equal and all(b >= a - tol for a, b in zip(px[:-1], py))
    return MajorizationResult(
        x_majorized_by_y=x_by_y,
        y_majorized_by_x=y_by_x,
        prefix_x=px,
        prefix_y=py,
        sums_equal=sums_equal,
    )


def _baseline_grid(model):
    c = model.support_low
    # keep the low end where F is representable, else t*f/F is undefined
    lo = max(c + 1e-9 * (1.0 + abs(c)), model.quantile(1e-9))
    return Grid(lo, model.quantile(UPPER_QUANTILE), DEFAULT_POINTS)


def check_t_rhr_decreasing(model, grid=None, rel_tol=DEFAULT_REL_TOL):
    """Classify t * f(t)/F(t) on a grid of the baseline support."""
    grid = grid or _baseline_grid(model)
    t = grid.points()
    return classify_monotonicity(t, t * (model.pdf(t) / model.cdf(t)), rel_tol=rel_tol)


def check_t_logpdf_slope_decreasing(model, grid=None, rel_tol=DEFAULT_REL_TOL):
    """Classify t * f'(t)/f(t) on a grid of the baseline support."""
    grid = grid or _baseline_grid(model)
    t = grid.points()
    f = np.asarray(model.pdf(t))
    return classify_monotonicity(
        t, t * np.asarray(model.pdf_prime(t)) / f, rel_tol=rel_tol
    )


def check_logpdf_slope_increasing(model, grid=None, rel_tol=DEFAULT_REL_TOL):
    """Classify f'(t)/f(t) on a grid of the baseline support."""
    grid = grid or _baseline_grid(model)
    t = grid.points()
    f = np.asarray(model.pdf(t))
    return classify_monotonicity(t, np.asarray(model.pdf_prime(t)) / f, rel_tol=rel_tol)


@dataclass(frozen=True)
class ConditionItem:
    name: str
    passed: bool
    detail: str = ""


def _t_rhr_item(baseline, grid=None):
    """The ``t_rhr_decreasing`` hypothesis item on the baseline."""
    mono = check_t_rhr_decreasing(baseline, grid)
    return ConditionItem(
        "t_rhr_decreasing",
        mono.follows(Monotonicity.NON_INCREASING),
        f"t*rhr classified {mono.classification.value} (numerically supported)",
    )


@dataclass(frozen=True)
class ConditionReport:
    theorem_id: str
    items: tuple
    predicted_order: OrderKind
    predicted_direction: Direction
    notes: dict

    @property
    def all_pass(self):
        return all(item.passed for item in self.items)

    def item(self, name):
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)


def _vectors(components):
    """The (alpha, sigma, lambda) lists of ``components``, as floats."""
    return ([float(c.alpha) for c in components], [float(c.sigma) for c in components],
            [float(c.lam) for c in components])


def _shared_baseline(*components):
    models = {c.baseline for c in components}
    if len(models) != 1:
        raise TheoremShapeError("theorem evaluators require one baseline shared by all components")
    return next(iter(models))


def _common_scalar(values, what):
    """The first of ``values`` if they agree within ``_SCALAR_TOL``; a NaN
    among them, which has no spread, passes."""
    values = [float(v) for v in values]
    if max(values) - min(values) > _SCALAR_TOL and not any(map(math.isnan, values)):
        raise TheoremShapeError(f"{what} must be common across components, got {values}")
    return values[0]


def _fmt_vec(v):
    return "(" + ", ".join(f"{x:g}" for x in v) + ")"


def eval_theorem_3_1(u, v):
    """Componentwise-dominance conditions for the usual stochastic order.

    Requires common weights; the (sigma, lambda) vectors of both mixtures
    must share a cone, either all nondecreasing-nonnegative or all
    nonincreasing-nonnegative.
    """
    baseline = _shared_baseline(*u.components, *v.components)
    if len(u) != len(v):
        raise TheoremShapeError("mixtures must have equal length")
    alphas, sigmas, lams = _vectors(u.components)
    betas, mus, thetas = _vectors(v.components)
    r, s = u.weights.tolist(), v.weights.tolist()
    common_w = len(r) == len(s) and all(abs(a - b) <= _SCALAR_TOL for a, b in zip(r, s))
    e_branch = all(
        check_cone_membership(vec, Cone.E_PLUS) for vec in (sigmas, lams, mus, thetas)
    )
    d_branch = all(
        check_cone_membership(vec, Cone.D_PLUS) for vec in (sigmas, lams, mus, thetas)
    )
    branch = "E_plus" if e_branch else ("D_plus" if d_branch else "none")
    items = (
        ConditionItem(
            "common_weights",
            common_w,
            f"r={_fmt_vec(r)} vs s={_fmt_vec(s)}",
        ),
        ConditionItem(
            "location_scale_cone",
            e_branch or d_branch,
            f"sigma,lambda,mu,theta jointly in {branch}",
        ),
        ConditionItem(
            "alpha_leq_beta",
            all(a <= b for a, b in zip(alphas, betas)),
            f"alpha={_fmt_vec(alphas)} beta={_fmt_vec(betas)}",
        ),
        ConditionItem(
            "sigma_leq_mu",
            all(a <= b for a, b in zip(sigmas, mus)),
            f"sigma={_fmt_vec(sigmas)} mu={_fmt_vec(mus)}",
        ),
        ConditionItem(
            "lambda_leq_theta",
            all(a <= b for a, b in zip(lams, thetas)),
            f"lambda={_fmt_vec(lams)} theta={_fmt_vec(thetas)}",
        ),
    )
    return ConditionReport(
        theorem_id="T3.1",
        items=items,
        predicted_order=OrderKind.ST,
        predicted_direction=Direction.U_LEQ_V,
        notes={"cone_branch": branch, "baseline": baseline.family},
    )


def eval_theorem_3_2(u, v):
    """Block-separation conditions (max of U's vector below min of V's) for
    the reversed hazard rate order, valid where t*rhr(t) decreases."""
    baseline = _shared_baseline(*u.components, *v.components)
    alphas, sigmas, lams = _vectors(u.components)
    betas, mus, thetas = _vectors(v.components)
    m1 = float(min(c.support_start for c in u.components))
    m2 = float(min(c.support_start for c in v.components))
    items = (
        ConditionItem(
            "max_alpha_leq_min_beta",
            max(alphas) <= min(betas),
            f"max alpha={max(alphas):g}, min beta={min(betas):g}",
        ),
        ConditionItem(
            "max_sigma_leq_min_mu",
            max(sigmas) <= min(mus),
            f"max sigma={max(sigmas):g}, min mu={min(mus):g}",
        ),
        ConditionItem(
            "max_lambda_leq_min_theta",
            max(lams) <= min(thetas),
            f"max lambda={max(lams):g}, min theta={min(thetas):g}",
        ),
        _t_rhr_item(baseline),
    )
    return ConditionReport(
        theorem_id="T3.2",
        items=items,
        predicted_order=OrderKind.RH,
        predicted_direction=Direction.U_LEQ_V,
        notes={"restriction_m1": m1, "m2": m2, "baseline": baseline.family},
    )


def eval_theorem_3_3(u, v):
    """Shape-separation condition for the likelihood ratio order under a
    common location and scale shared by every component of both mixtures."""
    baseline = _shared_baseline(*u.components, *v.components)
    alphas, sigmas, lams = _vectors(u.components)
    betas, mus, thetas = _vectors(v.components)
    sigma = _common_scalar(sigmas + mus, "location")
    lam = _common_scalar(lams + thetas, "scale")
    items = (
        ConditionItem(
            "common_location_scale",
            True,
            f"sigma={sigma:g}, lambda={lam:g} shared by all components",
        ),
        ConditionItem(
            "max_alpha_leq_min_beta",
            max(alphas) <= min(betas),
            f"max alpha={max(alphas):g}, min beta={min(betas):g}",
        ),
    )
    support = sigma + baseline.support_low * lam
    return ConditionReport(
        theorem_id="T3.3",
        items=items,
        predicted_order=OrderKind.LR,
        predicted_direction=Direction.U_LEQ_V,
        notes={"restriction": support, "baseline": baseline.family},
    )


def eval_theorem_3_4(u, v):
    """Majorization conditions (weights and shapes) for the usual
    stochastic order with per-mixture scalar location and scale."""
    baseline = _shared_baseline(*u.components, *v.components)
    alphas, sigmas, lams = _vectors(u.components)
    betas, mus, thetas = _vectors(v.components)
    sigma = _common_scalar(sigmas, "location of U")
    mu = _common_scalar(mus, "location of V")
    lam = _common_scalar(lams, "scale of U")
    theta = _common_scalar(thetas, "scale of V")
    r, s = u.weights.tolist(), v.weights.tolist()
    maj_w = check_majorization(s, r)  # r majorizes s
    maj_a = check_majorization(betas, alphas)  # alpha majorizes beta
    items = (
        ConditionItem("weights_in_D_plus", check_cone_membership(r, Cone.D_PLUS)
                      and check_cone_membership(s, Cone.D_PLUS),
                      f"r={_fmt_vec(r)}, s={_fmt_vec(s)}"),
        ConditionItem("shapes_in_E_plus", check_cone_membership(alphas, Cone.E_PLUS)
                      and check_cone_membership(betas, Cone.E_PLUS),
                      f"alpha={_fmt_vec(alphas)}, beta={_fmt_vec(betas)}"),
        ConditionItem("r_majorizes_s", maj_w.x_majorized_by_y,
                      f"prefix sums {maj_w.prefix_y} vs {maj_w.prefix_x}"),
        ConditionItem("alpha_majorizes_beta", maj_a.x_majorized_by_y,
                      "sums differ" if not maj_a.sums_equal
                      else f"prefix sums {maj_a.prefix_y} vs {maj_a.prefix_x}"),
        ConditionItem("sigma_leq_mu", sigma <= mu, f"sigma={sigma:g}, mu={mu:g}"),
        ConditionItem("lambda_leq_theta", lam <= theta, f"lambda={lam:g}, theta={theta:g}"),
    )
    return ConditionReport(
        theorem_id="T3.4",
        items=items,
        predicted_order=OrderKind.ST,
        predicted_direction=Direction.U_LEQ_V,
        notes={"baseline": baseline.family},
    )


def _shared_pair(spec_u, spec_v):
    """The component pair both outlier specs share."""
    pair = (spec_u.comp1, spec_u.comp2)
    if pair != (spec_v.comp1, spec_v.comp2):
        raise TheoremShapeError(
            "outlier comparison requires identical component pairs in both mixtures"
        )
    return pair


def _outlier_products(spec_u, spec_v):
    """Left and right sides n1*r1*n2'*s2 vs n2*r2*n1'*s1 of the weight
    product condition, from the raw per-unit proportions."""
    lhs = spec_u.n1 * spec_u.r1 * spec_v.n2 * spec_v.r2
    rhs = spec_u.n2 * spec_u.r2 * spec_v.n1 * spec_v.r1
    return float(lhs), float(rhs)


def eval_theorem_4_1(spec_u, spec_v):
    """Outlier-mixture conditions for the reversed hazard rate order.

    Ascending parameter pairs require the product inequality lhs >= rhs;
    descending pairs flip it. Both product sides are reported.
    """
    comp1, comp2 = _shared_pair(spec_u, spec_v)
    baseline = _shared_baseline(comp1, comp2)
    alphas, sigmas, lams = _vectors((comp1, comp2))
    e_branch = all(check_cone_membership(v, Cone.E_PLUS) for v in (alphas, lams, sigmas))
    d_branch = all(check_cone_membership(v, Cone.D_PLUS) for v in (alphas, lams, sigmas))
    lhs, rhs = _outlier_products(spec_u, spec_v)
    if e_branch:
        product_ok, rel = lhs >= rhs, ">="
        branch = "E_plus"
    elif d_branch:
        product_ok, rel = lhs <= rhs, "<="
        branch = "D_plus"
    else:
        product_ok, rel = lhs >= rhs, ">="
        branch = "none"
    items = (
        ConditionItem("shared_components", True, "component pairs are distribution-equal"),
        ConditionItem(
            "parameter_cones",
            e_branch or d_branch,
            f"alpha={_fmt_vec(alphas)}, lambda={_fmt_vec(lams)}, "
            f"sigma={_fmt_vec(sigmas)} jointly in {branch}",
        ),
        _t_rhr_item(baseline),
        ConditionItem(
            "weight_product",
            product_ok,
            f"n1*r1*n2'*s2 = {lhs:.17g} {rel} {rhs:.17g} = n2*r2*n1'*s1",
        ),
    )
    return ConditionReport(
        theorem_id="T4.1",
        items=items,
        predicted_order=OrderKind.RH,
        predicted_direction=Direction.U_LEQ_V,
        notes={
            "product_lhs": lhs,
            "product_rhs": rhs,
            "cone_branch": branch,
            "baseline": baseline.family,
        },
    )


def eval_theorem_4_2(spec_u, spec_v):
    """Outlier-mixture conditions for the (reversed-direction) likelihood
    ratio order: ascending pairs, shapes at least one, product <=."""
    comp1, comp2 = _shared_pair(spec_u, spec_v)
    baseline = _shared_baseline(comp1, comp2)
    alphas, sigmas, lams = _vectors((comp1, comp2))
    lhs, rhs = _outlier_products(spec_u, spec_v)
    grid = _baseline_grid(baseline)
    rhr_item = _t_rhr_item(baseline, grid)
    slope_mono = check_t_logpdf_slope_decreasing(baseline, grid)
    items = (
        ConditionItem("shared_components", True, "component pairs are distribution-equal"),
        ConditionItem(
            "parameter_cones",
            all(check_cone_membership(v, Cone.E_PLUS) for v in (alphas, lams, sigmas)),
            f"alpha={_fmt_vec(alphas)}, lambda={_fmt_vec(lams)}, sigma={_fmt_vec(sigmas)}",
        ),
        ConditionItem(
            "alpha_at_least_one",
            min(alphas) >= 1.0,
            f"alpha={_fmt_vec(alphas)}",
        ),
        ConditionItem(
            "weight_product",
            lhs <= rhs,
            f"n1*r1*n2'*s2 = {lhs:.17g} <= {rhs:.17g} = n2*r2*n1'*s1",
        ),
        rhr_item,
        ConditionItem(
            "t_logpdf_slope_decreasing",
            slope_mono.follows(Monotonicity.NON_INCREASING),
            f"t*f'/f classified {slope_mono.classification.value} (numerically supported)",
        ),
    )
    return ConditionReport(
        theorem_id="T4.2",
        items=items,
        predicted_order=OrderKind.LR,
        predicted_direction=Direction.V_LEQ_U,
        notes={"product_lhs": lhs, "product_rhs": rhs, "baseline": baseline.family},
    )


def eval_theorem_4_3(spec_u, spec_v):
    """Ageing-faster conditions: zero support bound, one shared shape in
    (0, 1], U located above V, U's scales above V's."""
    comp_u = (spec_u.comp1, spec_u.comp2)
    comp_v = (spec_v.comp1, spec_v.comp2)
    baseline = _shared_baseline(*comp_u, *comp_v)
    alphas = [c.alpha for c in comp_u + comp_v]
    alpha = _common_scalar(alphas, "shape")
    sigma = _common_scalar([c.sigma for c in comp_u], "location of U")
    mu = _common_scalar([c.sigma for c in comp_v], "location of V")
    lams = [float(c.lam) for c in comp_u]
    thetas = [float(c.lam) for c in comp_v]
    grid = _baseline_grid(baseline)
    rhr_item = _t_rhr_item(baseline, grid)
    slope_mono = check_logpdf_slope_increasing(baseline, grid)
    items = (
        ConditionItem(
            "support_bound_zero",
            baseline.support_low == 0.0,
            f"c={baseline.support_low:g}",
        ),
        ConditionItem("alpha_in_unit_interval", 0.0 < alpha <= 1.0, f"alpha={alpha:g}"),
        ConditionItem("sigma_geq_mu", sigma >= mu, f"sigma={sigma:g}, mu={mu:g}"),
        ConditionItem(
            "min_lambda_geq_max_theta",
            min(lams) >= max(thetas),
            f"lambda={_fmt_vec(lams)}, theta={_fmt_vec(thetas)}",
        ),
        ConditionItem(
            "logpdf_slope_increasing",
            slope_mono.follows(Monotonicity.NON_DECREASING),
            f"f'/f classified {slope_mono.classification.value} (numerically supported)",
        ),
        rhr_item,
    )
    return ConditionReport(
        theorem_id="T4.3",
        items=items,
        predicted_order=OrderKind.R_RH,
        predicted_direction=Direction.V_LEQ_U,
        notes={
            "baseline": baseline.family,
            "direction_caveat": (
                "predicted conclusion is a nonincreasing RHRF ratio h_U/h_V; the "
                "defining convention reads an increasing ratio as U ageing faster, "
                "so the direction label follows that reading with this caveat"
            ),
            "predicted_ratio": Monotonicity.NON_INCREASING.value,
        },
    )


THEOREM_EVALUATORS = {
    "T3.1": eval_theorem_3_1,
    "T3.2": eval_theorem_3_2,
    "T3.3": eval_theorem_3_3,
    "T3.4": eval_theorem_3_4,
    "T4.1": eval_theorem_4_1,
    "T4.2": eval_theorem_4_2,
    "T4.3": eval_theorem_4_3,
}

#: theorems whose evaluators take outlier specs instead of mixtures
OUTLIER_THEOREMS = {"T4.1", "T4.2", "T4.3"}
