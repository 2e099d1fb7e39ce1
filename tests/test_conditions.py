import numpy as np
import pytest

from mixorder import (
    Cone,
    Direction,
    ELSComponent,
    FiniteMixture,
    Monotonicity,
    OrderKind,
    TheoremShapeError,
    check_cone_membership,
    check_majorization,
    check_order,
    check_t_logpdf_slope_decreasing,
    check_t_rhr_decreasing,
    check_logpdf_slope_increasing,
    eval_theorem_3_1,
    eval_theorem_3_2,
    eval_theorem_3_3,
    eval_theorem_3_4,
    eval_theorem_4_1,
    eval_theorem_4_2,
    eval_theorem_4_3,
    get_scenario,
    make_baseline,
    scenario_grid,
)
from mixorder.conditions import THEOREM_EVALUATORS, OUTLIER_THEOREMS


# ------------------------------------------------------------- majorization


def test_majorization_reflexive():
    res = check_majorization([1.0, 2.0, 3.0], [3.0, 1.0, 2.0])
    assert res.x_majorized_by_y and res.y_majorized_by_x


def test_majorization_published_weight_vectors():
    # r = (0.6, 0.3, 0.1) majorizes s = (0.4, 0.4, 0.2)
    assert check_majorization([0.6, 0.3, 0.1], [0.4, 0.4, 0.2]).y_majorized_by_x
    assert not check_majorization([0.4, 0.4, 0.2], [0.6, 0.3, 0.1]).y_majorized_by_x


def test_majorization_unequal_sums_is_neither():
    res = check_majorization([2.0, 4.0, 5.0], [1.0, 1.5, 3.0])
    assert not res.sums_equal
    assert not res.x_majorized_by_y and not res.y_majorized_by_x


def test_majorization_permutation_invariant():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        x = rng.uniform(0, 4, size=n)
        y = x.copy()
        rng.shuffle(y)
        d = rng.uniform(0, x.min() * 0.5) if n > 1 else 0.0
        y_spread = np.sort(y)
        y_spread[0] -= d
        y_spread[-1] += d
        a = check_majorization(x, y_spread)
        b = check_majorization(rng.permutation(x), rng.permutation(y_spread))
        assert a.x_majorized_by_y == b.x_majorized_by_y
        assert a.y_majorized_by_x == b.y_majorized_by_x


def test_majorization_transitive_on_transfer_chains():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        z = np.sort(rng.uniform(0.0, 5.0, size=n))[::-1].copy()
        y = z.copy()
        d = rng.uniform(0.0, 0.45 * (y[0] - y[-1])) if y[0] > y[-1] else 0.0
        y[0] -= d
        y[-1] += d
        x = y.copy()
        d = rng.uniform(0.0, 0.45 * (x[0] - x[-1])) if x[0] > x[-1] else 0.0
        x[0] -= d
        x[-1] += d
        assert check_majorization(x, y).x_majorized_by_y
        assert check_majorization(y, z).x_majorized_by_y
        assert check_majorization(x, z).x_majorized_by_y


def test_majorization_shape_error():
    with pytest.raises(TheoremShapeError):
        check_majorization([1.0, 2.0], [1.0, 2.0, 3.0])


# ------------------------------------------------------------- cones


def test_cone_membership():
    assert check_cone_membership((2, 4, 6), Cone.E_PLUS)
    assert not check_cone_membership((6, 2), Cone.E_PLUS)
    assert check_cone_membership((6, 2), Cone.D_PLUS)
    assert check_cone_membership((3, 3, 3), Cone.E_PLUS)
    assert check_cone_membership((3, 3, 3), Cone.D_PLUS)
    assert not check_cone_membership((-1, 2), Cone.E_PLUS)
    assert not check_cone_membership((2, 1, -1), Cone.D_PLUS)


# ------------------------------------------------------------- baseline hypotheses


def test_t_rhr_decreasing_catalog_baselines():
    for family, params in (
        ("lt_exponential", {"b": 2.0, "t0": 2.0}),
        ("lt_burr12", {"k": 1.5, "m": 5.0, "t0": 2.0}),
    ):
        verdict = check_t_rhr_decreasing(make_baseline(family, **params))
        assert verdict.classification in (
            Monotonicity.NON_INCREASING,
            Monotonicity.CONSTANT,
        )


def test_t_rhr_synthetic_increasing_counterpart():
    # constant reversed hazard rate: F(t) = exp(t - T), so t*rhr = t grows
    T = 40.0
    knots = np.linspace(0.5, T, 3000)
    F = np.exp(knots - T)
    F[-1] = 1.0
    tab = make_baseline("tabulated", t=knots, F=F)
    from mixorder.analysis import Grid

    # stay where F clears the denominator floor: e^(t-40) > 1e-12
    verdict = check_t_rhr_decreasing(tab, Grid(14.0, 35.0, 601), rel_tol=1e-4)
    assert verdict.classification is Monotonicity.NON_DECREASING


def test_t_logpdf_slope_pareto_constant():
    # t f'(t)/f(t) = -(a+1) exactly
    verdict = check_t_logpdf_slope_decreasing(make_baseline("pareto", a=5.0, k=1.0))
    assert verdict.classification is Monotonicity.CONSTANT


def test_t_logpdf_slope_catalog_baselines():
    for family, params in (
        ("lt_lomax", {"m": 5.0, "t0": 6.0}),
        ("lt_lomax", {"m": 3.0, "t0": 2.0}),
    ):
        verdict = check_t_logpdf_slope_decreasing(make_baseline(family, **params))
        assert verdict.classification in (
            Monotonicity.NON_INCREASING,
            Monotonicity.CONSTANT,
        )


def test_logpdf_slope_increasing_cases():
    assert check_logpdf_slope_increasing(
        make_baseline("loglogistic", b=0.9)
    ).classification in (Monotonicity.NON_DECREASING, Monotonicity.CONSTANT)
    # shape 4 is the counterexample: not increasing
    assert check_logpdf_slope_increasing(
        make_baseline("loglogistic", b=4.0)
    ).classification in (Monotonicity.NON_MONOTONE, Monotonicity.NON_INCREASING)
    # Pareto: f'/f = -(a+1)/t rises toward zero
    assert check_logpdf_slope_increasing(
        make_baseline("pareto", a=3.0, k=2.0)
    ).classification is Monotonicity.NON_DECREASING


# ------------------------------------------------------------- theorem evaluators


def test_theorem_3_1_catalog():
    u, v = get_scenario("EX4.1").mixtures()
    rep = eval_theorem_3_1(u, v)
    assert rep.all_pass
    assert rep.predicted_order is OrderKind.ST
    assert rep.predicted_direction is Direction.U_LEQ_V
    assert rep.notes["cone_branch"] == "E_plus"

    u, v = get_scenario("CE4.1").mixtures()
    rep = eval_theorem_3_1(u, v)
    assert not rep.all_pass
    failed = {i.name for i in rep.items if not i.passed}
    assert failed == {"alpha_leq_beta", "sigma_leq_mu", "lambda_leq_theta"}

    u, _ = get_scenario("EX4.1").mixtures()
    assert eval_theorem_3_1(u, u).all_pass


def test_theorem_3_1_descending_branch():
    base = make_baseline("pareto", a=3.0, k=1.0)
    mk = lambda al, sg, lm: FiniteMixture(
        tuple(ELSComponent(base, a, s, l) for a, s, l in zip(al, sg, lm)),
        (0.5, 0.5),
    )
    u = mk((1.0, 2.0), (3.0, 1.0), (4.0, 2.0))
    v = mk((2.0, 3.0), (4.0, 2.0), (5.0, 3.0))
    rep = eval_theorem_3_1(u, v)
    assert rep.all_pass
    assert rep.notes["cone_branch"] == "D_plus"


def test_theorem_3_1_shape_errors():
    base = make_baseline("pareto", a=3.0, k=1.0)
    other = make_baseline("pareto", a=4.0, k=1.0)
    u = FiniteMixture((ELSComponent(base, 1, 1, 1),), (1.0,))
    v2 = FiniteMixture(
        (ELSComponent(base, 1, 1, 1), ELSComponent(base, 2, 2, 2)), (0.5, 0.5)
    )
    with pytest.raises(TheoremShapeError):
        eval_theorem_3_1(u, v2)
    w = FiniteMixture((ELSComponent(other, 1, 1, 1),), (1.0,))
    with pytest.raises(TheoremShapeError):
        eval_theorem_3_1(u, w)


def test_theorem_3_2_catalog():
    u, v = get_scenario("EX4.2").mixtures()
    rep = eval_theorem_3_2(u, v)
    assert rep.all_pass
    assert rep.notes["restriction_m1"] == pytest.approx(5.0)

    u, v = get_scenario("CE4.3").mixtures()
    rep = eval_theorem_3_2(u, v)
    assert [i.name for i in rep.items if not i.passed] == ["max_lambda_leq_min_theta"]

    single = FiniteMixture(
        (ELSComponent(make_baseline("lt_exponential", b=2.0, t0=2.0), 1.0, 1.0, 1.0),),
        (1.0,),
    )
    assert eval_theorem_3_2(single, single).all_pass


def test_theorem_3_3_catalog():
    u, v = get_scenario("EX4.3").mixtures()
    rep = eval_theorem_3_3(u, v)
    assert rep.all_pass
    assert rep.notes["restriction"] == pytest.approx(14.0)

    u, v = get_scenario("CE4.4").mixtures()
    assert not eval_theorem_3_3(u, v).all_pass

    # alpha = beta passes only through max <= min, hence constant shapes
    base = make_baseline("pareto", a=6.0, k=4.0)
    mix = FiniteMixture(
        tuple(ELSComponent(base, 3.0, 2.0, 3.0) for _ in range(2)), (0.5, 0.5)
    )
    assert eval_theorem_3_3(mix, mix).all_pass

    uneven = FiniteMixture(
        (ELSComponent(base, 1.0, 2.0, 3.0), ELSComponent(base, 2.0, 5.0, 3.0)),
        (0.5, 0.5),
    )
    with pytest.raises(TheoremShapeError, match="common"):
        eval_theorem_3_3(uneven, mix)


def test_theorem_3_4_catalog():
    u, v = get_scenario("EX4.4").mixtures()
    rep = eval_theorem_3_4(u, v)
    assert rep.all_pass

    u, v = get_scenario("CE5.6").mixtures()
    rep = eval_theorem_3_4(u, v)
    assert [i.name for i in rep.items if not i.passed] == ["alpha_majorizes_beta"]
    assert "sums differ" in rep.item("alpha_majorizes_beta").detail

    u, _ = get_scenario("EX4.4").mixtures()
    assert eval_theorem_3_4(u, u).all_pass


def test_theorem_4_1_catalog_product_sides():
    su, sv = get_scenario("EX5.5").specs
    rep = eval_theorem_4_1(su, sv)
    assert rep.all_pass
    assert rep.notes["product_lhs"] == pytest.approx(0.56, abs=1e-12)
    assert rep.notes["product_rhs"] == pytest.approx(0.06, abs=1e-12)

    su, sv = get_scenario("CE5.7").specs
    rep = eval_theorem_4_1(su, sv)
    failed = {i.name for i in rep.items if not i.passed}
    assert failed == {"parameter_cones", "weight_product"}
    assert rep.notes["product_lhs"] == pytest.approx(0.009, abs=1e-12)
    assert rep.notes["product_rhs"] == pytest.approx(0.028, abs=1e-12)


def test_theorem_4_1_equal_specs_boundary():
    su, _ = get_scenario("EX5.5").specs
    rep = eval_theorem_4_1(su, su)
    assert rep.all_pass  # product sides equal, inequality inclusive


def test_theorem_4_1_descending_branch_flips_product_inequality():
    from mixorder import OutlierMixtureSpec

    base = make_baseline("pareto", a=3.0, k=1.0)
    c1 = ELSComponent(base, 4.0, 10.0, 6.0)  # descending pairs
    c2 = ELSComponent(base, 2.3, 5.0, 4.0)
    # lhs = 0.2*0.7 = 0.14 <= 0.24 = 0.8*0.3, required by the dual branch
    su = OutlierMixtureSpec(1, 1, 0.2, 0.8, c1, c2)
    sv = OutlierMixtureSpec(1, 1, 0.3, 0.7, c1, c2)
    rep = eval_theorem_4_1(su, sv)
    assert rep.notes["cone_branch"] == "D_plus"
    assert rep.item("weight_product").passed
    assert rep.all_pass
    # swapping the argument order reverses the product sides and fails it
    rep = eval_theorem_4_1(sv, su)
    assert not rep.item("weight_product").passed


def test_theorem_4_1_component_mismatch():
    su, _ = get_scenario("EX5.5").specs
    other, _ = get_scenario("CE5.7").specs
    with pytest.raises(TheoremShapeError):
        eval_theorem_4_1(su, other)


def test_theorem_4_2_catalog():
    su, sv = get_scenario("EX5.6").specs
    rep = eval_theorem_4_2(su, sv)
    assert rep.all_pass
    assert rep.notes["product_lhs"] == pytest.approx(0.12, abs=1e-12)
    assert rep.notes["product_rhs"] == pytest.approx(0.32, abs=1e-12)
    assert rep.predicted_direction is Direction.V_LEQ_U

    su, sv = get_scenario("CE5.8").specs
    rep = eval_theorem_4_2(su, sv)
    assert [i.name for i in rep.items if not i.passed] == ["alpha_at_least_one"]
    assert rep.notes["product_lhs"] == pytest.approx(0.015, abs=1e-12)
    assert rep.notes["product_rhs"] == pytest.approx(0.035, abs=1e-12)


def test_theorem_4_2_alpha_boundary_inclusive():
    base = make_baseline("lt_lomax", m=5.0, t0=6.0)
    c1 = ELSComponent(base, 1.0, 3.0, 1.0)
    c2 = ELSComponent(base, 1.0, 4.0, 2.0)
    from mixorder import OutlierMixtureSpec

    su = OutlierMixtureSpec(2, 2, 0.25, 0.25, c1, c2)
    rep = eval_theorem_4_2(su, su)
    assert rep.item("alpha_at_least_one").passed


def test_theorem_4_3_catalog():
    su, sv = get_scenario("EX5.7").specs
    rep = eval_theorem_4_3(su, sv)
    assert rep.all_pass
    assert "direction_caveat" in rep.notes

    su, sv = get_scenario("CE5.9").specs
    rep = eval_theorem_4_3(su, sv)
    assert [i.name for i in rep.items if not i.passed] == ["logpdf_slope_increasing"]


def test_theorem_4_3_identical_specs():
    # min(lambda) >= max(theta) for a self-comparison needs equal scales
    base = make_baseline("loglogistic", b=0.9)
    c1 = ELSComponent(base, 0.3, 6.0, 4.0)
    from mixorder import OutlierMixtureSpec

    spec = OutlierMixtureSpec(2, 2, 0.3, 0.2, c1, c1)
    rep = eval_theorem_4_3(spec, spec)
    assert rep.all_pass


def test_theorem_4_3_preconditions():
    base = make_baseline("loglogistic", b=0.9)
    c1 = ELSComponent(base, 0.3, 6.0, 4.0)
    c2 = ELSComponent(base, 0.5, 6.0, 6.0)  # differing shapes
    from mixorder import OutlierMixtureSpec

    spec = OutlierMixtureSpec(1, 1, 0.5, 0.5, c1, c2)
    with pytest.raises(TheoremShapeError, match="common"):
        eval_theorem_4_3(spec, spec)

    truncated = make_baseline("lt_lomax", m=5.0, t0=6.0)
    d1 = ELSComponent(truncated, 0.3, 6.0, 4.0)
    d2 = ELSComponent(truncated, 0.3, 6.0, 6.0)
    spec2 = OutlierMixtureSpec(1, 1, 0.5, 0.5, d1, d2)
    rep = eval_theorem_4_3(spec2, spec2)
    assert not rep.item("support_bound_zero").passed


def test_soundness_on_catalog(catalog):
    # wherever conditions all pass, the predicted conclusion is confirmed
    for s in catalog:
        if s.theorem_id in OUTLIER_THEOREMS:
            rep = THEOREM_EVALUATORS[s.theorem_id](*s.specs)
        else:
            rep = THEOREM_EVALUATORS[s.theorem_id](*s.mixtures())
        if not rep.all_pass:
            continue
        u, v = s.mixtures()
        verdict = check_order(rep.predicted_order, u, v, scenario_grid(s))
        if rep.predicted_order is OrderKind.R_RH:
            assert verdict.ratio_classification.classification in (
                Monotonicity.NON_INCREASING,
                Monotonicity.CONSTANT,
            ), s.scenario_id
        else:
            assert verdict.direction in (rep.predicted_direction, Direction.BOTH), (
                s.scenario_id
            )
