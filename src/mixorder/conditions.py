"""Mechanical evaluation of the sufficient conditions behind each theorem.

Every hypothesis becomes one named pass/fail item; a report never claims
more than "all hypotheses hold numerically". Each kind of hypothesis has
one helper that builds its items: block separation (all of U's vector
below all of V's), componentwise dominance, cone membership (of one cone,
or the branch both mixtures share), majorization, the outlier weight
product, and monotonicity of a baseline quantity (t*rhr, t*f'/f or f'/f).
A report samples its baseline quantities on one grid, from just above the
support bound to the ``UPPER_QUANTILE`` level of ``analysis``, and records
them as numerically supported, not proved.

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


def _classify_on_baseline(model, grid, rel_tol, values):
    """Classify ``values(t, f)`` on ``grid``, by default ``_baseline_grid(model)``:
    t its points and f the baseline density there, sampled first."""
    t = (grid or _baseline_grid(model)).points()
    return classify_monotonicity(t, values(t, np.asarray(model.pdf(t))), rel_tol=rel_tol)


def check_t_rhr_decreasing(model, grid=None, rel_tol=DEFAULT_REL_TOL):
    """Classify t * f(t)/F(t) on a grid of the baseline support."""
    return _classify_on_baseline(model, grid, rel_tol, lambda t, f: t * (f / model.cdf(t)))


def check_t_logpdf_slope_decreasing(model, grid=None, rel_tol=DEFAULT_REL_TOL):
    """Classify t * f'(t)/f(t) on a grid of the baseline support."""
    return _classify_on_baseline(model, grid, rel_tol, lambda t, f: t * model.pdf_prime(t) / f)


def check_logpdf_slope_increasing(model, grid=None, rel_tol=DEFAULT_REL_TOL):
    """Classify f'(t)/f(t) on a grid of the baseline support."""
    return _classify_on_baseline(model, grid, rel_tol, lambda t, f: model.pdf_prime(t) / f)


@dataclass(frozen=True)
class ConditionItem:
    name: str
    passed: bool
    detail: str = ""


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


#: the order each theorem concludes and its direction
_PREDICTIONS = {
    "T3.1": (OrderKind.ST, Direction.U_LEQ_V),
    "T3.2": (OrderKind.RH, Direction.U_LEQ_V),
    "T3.3": (OrderKind.LR, Direction.U_LEQ_V),
    "T3.4": (OrderKind.ST, Direction.U_LEQ_V),
    "T4.1": (OrderKind.RH, Direction.U_LEQ_V),
    "T4.2": (OrderKind.LR, Direction.V_LEQ_U),
    "T4.3": (OrderKind.R_RH, Direction.V_LEQ_U),
}


def _report(theorem_id, items, **notes):
    """The report of ``theorem_id`` on ``items``, with the theorem's prediction."""
    order, direction = _PREDICTIONS[theorem_id]
    return ConditionReport(
        theorem_id=theorem_id,
        items=items,
        predicted_order=order,
        predicted_direction=direction,
        notes=notes,
    )


#: how the paper names the (alpha, sigma, lambda) of U's components and of V's
_U_NAMES = ("alpha", "sigma", "lambda")
_V_NAMES = ("beta", "mu", "theta")


def _vectors(components):
    """The (alpha, sigma, lambda) lists of ``components``, as floats."""
    return ([float(c.alpha) for c in components], [float(c.sigma) for c in components],
            [float(c.lam) for c in components])


def _shared_baseline(*components):
    models = {c.baseline for c in components}
    if len(models) != 1:
        raise TheoremShapeError("theorem evaluators require one baseline shared by all components")
    return next(iter(models))


def _pair_vectors(u, v):
    """The baseline shared by every component of mixtures u and v, then the
    (alpha, sigma, lambda) lists of U and those of V."""
    baseline = _shared_baseline(*u.components, *v.components)
    return baseline, _vectors(u.components), _vectors(v.components)


def _outlier_vectors(spec_u, spec_v):
    """The baseline of the component pair both outlier specs share, the pair's
    (alpha, sigma, lambda) lists, and the sides n1*r1*n2'*s2 and n2*r2*n1'*s1
    of the weight product condition, from the raw per-unit proportions."""
    pair = (spec_u.comp1, spec_u.comp2)
    if pair != (spec_v.comp1, spec_v.comp2):
        raise TheoremShapeError(
            "outlier comparison requires identical component pairs in both mixtures"
        )
    baseline = _shared_baseline(*pair)
    lhs = spec_u.n1 * spec_u.r1 * spec_v.n2 * spec_v.r2
    rhs = spec_u.n2 * spec_u.r2 * spec_v.n1 * spec_v.r1
    return baseline, _vectors(pair), (float(lhs), float(rhs))


def _common_scalar(values, what):
    """The first of ``values`` if they agree within ``_SCALAR_TOL``; a NaN
    among them, which has no spread, passes."""
    values = [float(v) for v in values]
    if max(values) - min(values) > _SCALAR_TOL and not any(map(math.isnan, values)):
        raise TheoremShapeError(f"{what} must be common across components, got {values}")
    return values[0]


def _fmt_vec(v):
    return "(" + ", ".join(f"{x:g}" for x in v) + ")"


def _componentwise(x_name, x, y_name, y):
    """The item ``<x>_leq_<y>``: x <= y componentwise."""
    return ConditionItem(
        f"{x_name}_leq_{y_name}",
        all(a <= b for a, b in zip(x, y)),
        f"{x_name}={_fmt_vec(x)} {y_name}={_fmt_vec(y)}",
    )


def _separated(x_name, x, y_name, y):
    """The item ``max_<x>_leq_min_<y>``: all of x lies below all of y."""
    return ConditionItem(
        f"max_{x_name}_leq_min_{y_name}",
        max(x) <= min(y),
        f"max {x_name}={max(x):g}, min {y_name}={min(y):g}",
    )


def _in_cone(vectors, cone):
    """Every one of ``vectors`` lies in ``cone``."""
    return all(check_cone_membership(v, cone) for v in vectors)


def _cone_branch(vectors):
    """The cone that holds every one of ``vectors``, "E_plus" first; "none"
    if neither does. A constant vector lies in both, so this is no test of
    membership in "D_plus": use ``_in_cone`` for that."""
    return next((cone.value for cone in Cone if _in_cone(vectors, cone)), "none")


def _weight_product(lhs, rel, rhs):
    """The item ``weight_product``: n1*r1*n2'*s2 ``rel`` ("<=" or ">=") n2*r2*n1'*s1."""
    return ConditionItem("weight_product", lhs <= rhs if rel == "<=" else lhs >= rhs,
                         f"n1*r1*n2'*s2 = {lhs:.17g} {rel} {rhs:.17g} = n2*r2*n1'*s1")


def _baseline_item(name, check, baseline, grid, trend, quantity):
    """The item ``name``: ``check`` classifies ``quantity`` on the baseline as
    ``trend`` (or constant) on ``grid``."""
    mono = check(baseline, grid)
    return ConditionItem(
        name,
        mono.follows(trend),
        f"{quantity} classified {mono.classification.value} (numerically supported)",
    )


def eval_theorem_3_1(u, v):
    """Componentwise-dominance conditions for the usual stochastic order.

    Requires common weights; the (sigma, lambda) vectors of both mixtures
    must share a cone, either all nondecreasing-nonnegative or all
    nonincreasing-nonnegative.
    """
    baseline, vec_u, vec_v = _pair_vectors(u, v)
    if len(u) != len(v):
        raise TheoremShapeError("mixtures must have equal length")
    r, s = u.weights.tolist(), v.weights.tolist()
    common_w = all(abs(a - b) <= _SCALAR_TOL for a, b in zip(r, s))
    branch = _cone_branch((*vec_u[1:], *vec_v[1:]))
    items = (
        ConditionItem("common_weights", common_w, f"r={_fmt_vec(r)} vs s={_fmt_vec(s)}"),
        ConditionItem("location_scale_cone", branch != "none",
                      f"sigma,lambda,mu,theta jointly in {branch}"),
        *map(_componentwise, _U_NAMES, vec_u, _V_NAMES, vec_v),
    )
    return _report("T3.1", items, cone_branch=branch, baseline=baseline.family)


def eval_theorem_3_2(u, v):
    """Block-separation conditions (max of U's vector below min of V's) for
    the reversed hazard rate order, valid where t*rhr(t) decreases."""
    baseline, vec_u, vec_v = _pair_vectors(u, v)
    m1 = float(u.support_start)
    m2 = float(v.support_start)
    items = (
        *map(_separated, _U_NAMES, vec_u, _V_NAMES, vec_v),
        _baseline_item("t_rhr_decreasing", check_t_rhr_decreasing, baseline, None,
                       Monotonicity.NON_INCREASING, "t*rhr"),
    )
    return _report("T3.2", items, restriction_m1=m1, m2=m2, baseline=baseline.family)


def eval_theorem_3_3(u, v):
    """Shape-separation condition for the likelihood ratio order under a
    common location and scale shared by every component of both mixtures."""
    baseline, (alphas, sigmas, lams), (betas, mus, thetas) = _pair_vectors(u, v)
    sigma = _common_scalar(sigmas + mus, "location")
    lam = _common_scalar(lams + thetas, "scale")
    items = (
        ConditionItem("common_location_scale", True,
                      f"sigma={sigma:g}, lambda={lam:g} shared by all components"),
        _separated("alpha", alphas, "beta", betas),
    )
    support = sigma + baseline.support_low * lam
    return _report("T3.3", items, restriction=support, baseline=baseline.family)


def eval_theorem_3_4(u, v):
    """Majorization conditions (weights and shapes) for the usual
    stochastic order with per-mixture scalar location and scale."""
    baseline, (alphas, sigmas, lams), (betas, mus, thetas) = _pair_vectors(u, v)
    sigma = _common_scalar(sigmas, "location of U")
    mu = _common_scalar(mus, "location of V")
    lam = _common_scalar(lams, "scale of U")
    theta = _common_scalar(thetas, "scale of V")
    r, s = u.weights.tolist(), v.weights.tolist()
    maj_w = check_majorization(s, r)  # r majorizes s
    maj_a = check_majorization(betas, alphas)  # alpha majorizes beta
    items = (
        ConditionItem("weights_in_D_plus", _in_cone((r, s), Cone.D_PLUS),
                      f"r={_fmt_vec(r)}, s={_fmt_vec(s)}"),
        ConditionItem("shapes_in_E_plus", _in_cone((alphas, betas), Cone.E_PLUS),
                      f"alpha={_fmt_vec(alphas)}, beta={_fmt_vec(betas)}"),
        ConditionItem("r_majorizes_s", maj_w.x_majorized_by_y,
                      f"prefix sums {maj_w.prefix_y} vs {maj_w.prefix_x}"),
        ConditionItem("alpha_majorizes_beta", maj_a.x_majorized_by_y,
                      "sums differ" if not maj_a.sums_equal
                      else f"prefix sums {maj_a.prefix_y} vs {maj_a.prefix_x}"),
        ConditionItem("sigma_leq_mu", sigma <= mu, f"sigma={sigma:g}, mu={mu:g}"),
        ConditionItem("lambda_leq_theta", lam <= theta, f"lambda={lam:g}, theta={theta:g}"),
    )
    return _report("T3.4", items, baseline=baseline.family)


def eval_theorem_4_1(spec_u, spec_v):
    """Outlier-mixture conditions for the reversed hazard rate order.

    Ascending parameter pairs require the product inequality lhs >= rhs;
    descending pairs flip it. Both product sides are reported.
    """
    baseline, (alphas, sigmas, lams), (lhs, rhs) = _outlier_vectors(spec_u, spec_v)
    branch = _cone_branch((alphas, lams, sigmas))
    items = (
        ConditionItem("shared_components", True, "component pairs are distribution-equal"),
        ConditionItem("parameter_cones", branch != "none",
                      f"alpha={_fmt_vec(alphas)}, lambda={_fmt_vec(lams)}, "
                      f"sigma={_fmt_vec(sigmas)} jointly in {branch}"),
        _baseline_item("t_rhr_decreasing", check_t_rhr_decreasing, baseline, None,
                       Monotonicity.NON_INCREASING, "t*rhr"),
        _weight_product(lhs, "<=" if branch == "D_plus" else ">=", rhs),
    )
    return _report("T4.1", items, product_lhs=lhs, product_rhs=rhs, cone_branch=branch,
                   baseline=baseline.family)


def eval_theorem_4_2(spec_u, spec_v):
    """Outlier-mixture conditions for the (reversed-direction) likelihood
    ratio order: ascending pairs, shapes at least one, product <=."""
    baseline, (alphas, sigmas, lams), (lhs, rhs) = _outlier_vectors(spec_u, spec_v)
    grid = _baseline_grid(baseline)
    items = (
        ConditionItem("shared_components", True, "component pairs are distribution-equal"),
        ConditionItem("parameter_cones", _in_cone((alphas, lams, sigmas), Cone.E_PLUS),
                      f"alpha={_fmt_vec(alphas)}, lambda={_fmt_vec(lams)}, "
                      f"sigma={_fmt_vec(sigmas)}"),
        ConditionItem("alpha_at_least_one", min(alphas) >= 1.0, f"alpha={_fmt_vec(alphas)}"),
        _weight_product(lhs, "<=", rhs),
        _baseline_item("t_rhr_decreasing", check_t_rhr_decreasing, baseline, grid,
                       Monotonicity.NON_INCREASING, "t*rhr"),
        _baseline_item("t_logpdf_slope_decreasing", check_t_logpdf_slope_decreasing,
                       baseline, grid, Monotonicity.NON_INCREASING, "t*f'/f"),
    )
    return _report("T4.2", items, product_lhs=lhs, product_rhs=rhs, baseline=baseline.family)


def eval_theorem_4_3(spec_u, spec_v):
    """Ageing-faster conditions: zero support bound, one shared shape in
    (0, 1], U located above V, U's scales above V's."""
    comp_u = (spec_u.comp1, spec_u.comp2)
    comp_v = (spec_v.comp1, spec_v.comp2)
    baseline = _shared_baseline(*comp_u, *comp_v)
    alphas, sigmas, lams = _vectors(comp_u)
    betas, mus, thetas = _vectors(comp_v)
    alpha = _common_scalar(alphas + betas, "shape")
    sigma = _common_scalar(sigmas, "location of U")
    mu = _common_scalar(mus, "location of V")
    grid = _baseline_grid(baseline)
    rhr_item = _baseline_item("t_rhr_decreasing", check_t_rhr_decreasing, baseline, grid,
                              Monotonicity.NON_INCREASING, "t*rhr")
    items = (
        ConditionItem("support_bound_zero", baseline.support_low == 0.0,
                      f"c={baseline.support_low:g}"),
        ConditionItem("alpha_in_unit_interval", 0.0 < alpha <= 1.0, f"alpha={alpha:g}"),
        ConditionItem("sigma_geq_mu", sigma >= mu, f"sigma={sigma:g}, mu={mu:g}"),
        ConditionItem("min_lambda_geq_max_theta", min(lams) >= max(thetas),
                      f"lambda={_fmt_vec(lams)}, theta={_fmt_vec(thetas)}"),
        _baseline_item("logpdf_slope_increasing", check_logpdf_slope_increasing, baseline,
                       grid, Monotonicity.NON_DECREASING, "f'/f"),
        rhr_item,
    )
    return _report(
        "T4.3",
        items,
        baseline=baseline.family,
        direction_caveat=(
            "predicted conclusion is a nonincreasing RHRF ratio h_U/h_V; the "
            "defining convention reads an increasing ratio as U ageing faster, "
            "so the direction label follows that reading with this caveat"
        ),
        predicted_ratio=Monotonicity.NON_INCREASING.value,
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
