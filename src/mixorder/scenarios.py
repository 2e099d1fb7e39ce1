"""Built-in verification scenarios plus scenario-file ingestion.

Each scenario bundles a baseline, two mixtures (plain weighted lists or
two-block outlier constructions), the theorem whose hypotheses it
exercises, and the expected outcome of the matching order check. The
sixteen built-ins reproduce the published worked cases and ship as JSON
files in the package's ``catalog/`` folder; user files follow the same
schema (see docs/scenario_schema.md).

Expected outcomes carry an optional classification window (x_min, x_max).
The lower end matches the quoted restriction ("increasing in x >= 5");
where an upper end is set it reconstructs the plotted window, since the
behaviour of interest would otherwise be drowned by the far tail.
"""

from __future__ import annotations

import datetime as _dt
import json
import warnings as _warnings
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .analysis import (
    DEFAULT_POINTS,
    Direction,
    Grid,
    Monotonicity,
    CHECKERS,
    OrderKind,
    PairSample,
    auto_grid,
)
from .baseline import make_baseline
from .conditions import OUTLIER_THEOREMS, THEOREM_EVALUATORS
from .els import ELSComponent
from .errors import ScenarioFormatError, TheoremShapeError
from .mixture import (
    FiniteMixture,
    OutlierMixtureSpec,
    WeightPolicy,
    build_outlier_mixture,
)
from .numerics import DENOM_FLOOR


@dataclass(frozen=True)
class Expected:
    order: OrderKind
    holds: bool | None = None
    direction: Direction | None = None
    ratio: Monotonicity | None = None
    x_min: float | None = None
    x_max: float | None = None
    figure: str = ""


@dataclass(frozen=True)
class ComponentSpec:
    alpha: float
    sigma: float
    lam: float


@dataclass(frozen=True)
class MixtureSpec:
    """One side of a comparison: plain weights or an outlier block."""

    components: tuple
    weights: tuple | None = None
    outlier: tuple | None = None  # (n1, r1, n2, r2)

    def __post_init__(self):
        if (self.weights is None) == (self.outlier is None):
            raise ScenarioFormatError("mixture needs exactly one of weights/outlier")
        if self.weights is not None and len(self.weights) != len(self.components):
            raise ScenarioFormatError("weights and components must have equal length")
        if self.outlier is not None and len(self.components) != 2:
            raise ScenarioFormatError("outlier mixtures take exactly two components")


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    description: str
    baseline_family: str
    baseline_params: dict
    mixture_u: MixtureSpec
    mixture_v: MixtureSpec
    theorem_id: str
    order: OrderKind
    expected: Expected
    weight_policy: WeightPolicy = WeightPolicy.STRICT_UNIT
    notes: str = ""

    def baseline(self):
        return make_baseline(self.baseline_family, **self.baseline_params)

    def _components(self, spec, baseline):
        return tuple(
            ELSComponent(baseline, c.alpha, c.sigma, c.lam) for c in spec.components
        )

    def _materialize(self, spec, baseline):
        comps = self._components(spec, baseline)
        if spec.outlier is not None:
            n1, r1, n2, r2 = spec.outlier
            ospec = OutlierMixtureSpec(n1, n2, r1, r2, comps[0], comps[1])
            return build_outlier_mixture(ospec, policy=self.weight_policy), ospec
        return FiniteMixture(comps, spec.weights, policy=self.weight_policy), None

    def mixtures(self):
        """Materialized (U, V) mixtures."""
        baseline = self.baseline()
        u, _ = self._materialize(self.mixture_u, baseline)
        v, _ = self._materialize(self.mixture_v, baseline)
        return u, v

    def outlier_specs(self):
        """Materialized (spec_U, spec_V) for two-block scenarios."""
        if self.mixture_u.outlier is None or self.mixture_v.outlier is None:
            return None
        baseline = self.baseline()
        _, su = self._materialize(self.mixture_u, baseline)
        _, sv = self._materialize(self.mixture_v, baseline)
        return su, sv


# --------------------------------------------------------------------------
# built-in catalog
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _packaged_catalog():
    files = resources.files(__package__) / "catalog"
    scenarios = [
        scenario_from_dict(json.loads(f.read_text(encoding="utf-8")), where=f"catalog/{f.name}")
        for f in files.iterdir()
        if f.name.endswith(".json")
    ]
    return tuple(sorted(scenarios, key=lambda s: int(s.expected.figure)))


def builtin_catalog():
    """The sixteen built-in scenarios in figure order, read once per process
    from the package's ``catalog/`` folder.

    The scenarios are shared between calls: change one through
    ``dataclasses.replace``, never in place.
    """
    return list(_packaged_catalog())


def catalog_ids():
    return [s.scenario_id for s in builtin_catalog()]


def get_scenario(scenario_id):
    for s in builtin_catalog():
        if s.scenario_id == scenario_id:
            return s
    raise ScenarioFormatError(f"unknown catalog scenario id {scenario_id!r}")


# --------------------------------------------------------------------------
# scenario files
# --------------------------------------------------------------------------


def _need(d, key, where):
    if not isinstance(d, dict):
        raise ScenarioFormatError(
            f"expected a JSON object with field {key!r}, got {type(d).__name__}",
            location=where,
        )
    if key not in d:
        raise ScenarioFormatError(f"missing required field {key!r}", location=where)
    return d[key]


def _component_from_dict(d, where):
    try:
        return ComponentSpec(
            alpha=float(_need(d, "alpha", where)),
            sigma=float(_need(d, "sigma", where)),
            lam=float(_need(d, "lambda", where)),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"bad component value: {exc}", location=where) from None


def _mixture_from_dict(d, where):
    comps = tuple(
        _component_from_dict(c, f"{where}.components[{i}]")
        for i, c in enumerate(_need(d, "components", where))
    )
    if "weights" in d and "outlier" in d:
        raise ScenarioFormatError("give weights or outlier, not both", location=where)
    if "weights" in d:
        return MixtureSpec(components=comps, weights=tuple(float(w) for w in d["weights"]))
    if "outlier" in d:
        o = d["outlier"]
        return MixtureSpec(
            components=comps,
            outlier=(
                int(_need(o, "n1", f"{where}.outlier")),
                float(_need(o, "r1", f"{where}.outlier")),
                int(_need(o, "n2", f"{where}.outlier")),
                float(_need(o, "r2", f"{where}.outlier")),
            ),
        )
    raise ScenarioFormatError("mixture needs weights or outlier", location=where)


def scenario_from_dict(d, where="scenario"):
    baseline = _need(d, "baseline", where)
    params = dict(_need(baseline, "params", f"{where}.baseline"))
    if "truncation" in baseline and baseline["truncation"] is not None:
        params.setdefault("t0", float(baseline["truncation"]))
    mixtures = _need(d, "mixtures", where)
    if len(mixtures) != 2:
        raise ScenarioFormatError("exactly two mixtures required", location=where)
    exp = _need(d, "expected", where)
    order = OrderKind(_need(d, "order", where))
    expected = Expected(
        order=OrderKind(exp.get("order", order.value)),
        holds=exp.get("holds"),
        direction=Direction(exp["direction"]) if exp.get("direction") else None,
        ratio=Monotonicity(exp["ratio"]) if exp.get("ratio") else None,
        x_min=exp.get("x_min"),
        x_max=exp.get("x_max"),
        figure=str(exp.get("figure", "")),
    )
    if expected.order is not order:
        raise ScenarioFormatError(
            f"expected.order {expected.order.value!r} does not match order {order.value!r}",
            location=where,
        )
    scenario = Scenario(
        scenario_id=str(_need(d, "id", where)),
        description=str(d.get("description", "")),
        baseline_family=str(_need(baseline, "family", f"{where}.baseline")),
        baseline_params=params,
        mixture_u=_mixture_from_dict(mixtures[0], f"{where}.mixtures[0]"),
        mixture_v=_mixture_from_dict(mixtures[1], f"{where}.mixtures[1]"),
        theorem_id=str(_need(d, "theorem", where)),
        order=order,
        expected=expected,
        weight_policy=WeightPolicy(d.get("weight_policy", "strict")),
        notes=str(d.get("notes", "")),
    )
    # construction-time validation: materialize once so parameter problems
    # surface at load with the scenario named
    try:
        scenario.mixtures()
    except ScenarioFormatError:
        raise
    except Exception as exc:
        raise ScenarioFormatError(str(exc), location=where) from exc
    if scenario.theorem_id not in THEOREM_EVALUATORS:
        raise ScenarioFormatError(
            f"unknown theorem {scenario.theorem_id!r}", location=where
        )
    return scenario


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"invalid JSON: {exc}", location=str(path)) from None
    except OSError as exc:
        raise ScenarioFormatError(str(exc), location=str(path)) from None
    return scenario_from_dict(data, where=str(path))


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioRecord:
    scenario_id: str
    condition_report: object
    order_verdict: object
    agreement: str  # "AsExpected" | "Contradiction"
    curves: dict
    warnings: tuple
    grid: tuple
    timestamp: str


def scenario_grid(scenario, n_points=DEFAULT_POINTS):
    """Auto grid for the pair, clipped to the scenario's stated window.

    A stated lower end is used exactly; any grid point at or below a
    support start is harmless because every checker floors its inputs.
    """
    u, v = scenario.mixtures()
    base = auto_grid(u, v, n_points)
    lo = base.x_lo if scenario.expected.x_min is None else float(scenario.expected.x_min)
    hi = base.x_hi if scenario.expected.x_max is None else float(scenario.expected.x_max)
    return Grid(lo, hi, n_points)


def _weight_warnings(scenario):
    warnings = []
    u, v = scenario.mixtures()
    for label, mix in (("U", u), ("V", v)):
        if abs(mix.raw_sum - 1.0) > 1e-12:
            warnings.append(
                f"mixture {label}: raw weights sum to {mix.raw_sum:.12g}, "
                f"auto-normalized"
            )
    return tuple(warnings)


#: the curve quantity recorded for each order
_CURVE_QUANTITY = {
    OrderKind.ST: "sf",
    OrderKind.RH: "cdf_ratio",
    OrderKind.LR: "pdf_ratio",
    OrderKind.R_RH: "rhr_ratio",
}


def _curves(order, sample, floor):
    out = {"x": sample.x.tolist()}
    for name, col in sample.columns(_CURVE_QUANTITY[order], floor).items():
        out[name] = col.tolist()
    return out


def judge_agreement(expected, verdict):
    """AsExpected when the verdict matches every stated expectation."""
    ok = True
    if expected.ratio is not None:
        got = verdict.ratio_classification.classification
        if expected.ratio in (Monotonicity.NON_DECREASING, Monotonicity.NON_INCREASING):
            ok &= got in (expected.ratio, Monotonicity.CONSTANT)
        else:
            ok &= got is expected.ratio
    if expected.holds is not None and expected.direction is not None:
        holds = verdict.direction in (expected.direction, Direction.BOTH)
        ok &= holds if expected.holds else not holds
    return "AsExpected" if ok else "Contradiction"


def run_scenario(scenario, grid=None, n_points=DEFAULT_POINTS, rel_tol=None,
                 st_tol=None, floor=None):
    """Evaluate conditions and the designated order check for one scenario."""
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        u, v = scenario.mixtures()
        grid = grid or scenario_grid(scenario, n_points)
        evaluator = THEOREM_EVALUATORS[scenario.theorem_id]
        if scenario.theorem_id in OUTLIER_THEOREMS:
            specs = scenario.outlier_specs()
            if specs is None:
                raise TheoremShapeError(
                    f"theorem {scenario.theorem_id} needs two-block outlier mixtures"
                )
            report = evaluator(*specs)
        else:
            report = evaluator(u, v)
        floor = DENOM_FLOOR if floor is None else floor
        kwargs = {}
        if scenario.order is OrderKind.ST:
            if st_tol is not None:
                kwargs["tol"] = st_tol
        else:
            kwargs["floor"] = floor
            if rel_tol is not None:
                kwargs["rel_tol"] = rel_tol
        sample = PairSample(u, v, grid)
        verdict = CHECKERS[scenario.order](
            sample, pair_id=scenario.scenario_id, **kwargs
        )
        agreement = judge_agreement(scenario.expected, verdict)
        curves = _curves(scenario.order, sample, floor)
    return ScenarioRecord(
        scenario_id=scenario.scenario_id,
        condition_report=report,
        order_verdict=verdict,
        agreement=agreement,
        curves=curves,
        warnings=_weight_warnings(scenario),
        grid=grid.signature(),
        timestamp=_dt.datetime.now(_dt.timezone.utc).isoformat(),
    )
