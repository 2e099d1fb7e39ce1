"""Stochastic order verification for finite mixtures of exponentiated
location-scale distributions.

Build baseline lifetime models, transform them into exponentiated
location-scale components, mix them, and check usual stochastic, reversed
hazard rate, likelihood ratio and ageing-faster orderings on evaluation
grids, together with the sufficient conditions of the associated
comparison theorems.
"""

from .analysis import (
    Direction,
    Grid,
    Monotonicity,
    MonotonicityVerdict,
    OrderKind,
    OrderVerdict,
    PairSample,
    auto_grid,
    check_aging_faster_rhr,
    check_likelihood_ratio,
    check_order,
    check_reversed_hazard,
    check_usual_stochastic,
    classify_monotonicity,
    implication_audit,
)
from .baseline import (
    FAMILIES,
    BaselineModel,
    BenktanderII,
    LeftTruncatedBurrXII,
    LeftTruncatedExponential,
    LeftTruncatedLomax,
    LogLogistic,
    Pareto,
    Tabulated,
    make_baseline,
)
from .conditions import (
    Cone,
    ConditionItem,
    ConditionReport,
    check_cone_membership,
    check_logpdf_slope_increasing,
    check_majorization,
    check_t_logpdf_slope_decreasing,
    check_t_rhr_decreasing,
    eval_theorem_3_1,
    eval_theorem_3_2,
    eval_theorem_3_3,
    eval_theorem_3_4,
    eval_theorem_4_1,
    eval_theorem_4_2,
    eval_theorem_4_3,
)
from .els import ELSComponent
from .errors import (
    AuditError,
    DomainError,
    InsufficientDomainError,
    InvalidSampleError,
    MixorderError,
    ParameterError,
    QuadratureError,
    ScenarioFormatError,
    TheoremShapeError,
    WeightError,
)
from .mixture import (
    FiniteMixture,
    NormalizationReport,
    OutlierMixtureSpec,
    WeightPolicy,
    build_outlier_mixture,
    verify_normalization,
)
from .scenarios import (
    Scenario,
    ScenarioRecord,
    builtin_catalog,
    catalog_ids,
    evaluate_theorem,
    get_scenario,
    load_scenario,
    run_scenario,
    scenario_grid,
)

__version__ = "0.1.0"
