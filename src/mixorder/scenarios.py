"""Built-in verification scenarios plus scenario-file ingestion.

Each scenario is parsed once into its two mixtures over one baseline
(plain weighted lists or two-block outlier constructions), and names the
theorem whose hypotheses it exercises and the expected outcome of the
matching order check. The
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
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from importlib import resources

from .analysis import (
    DEFAULT_POINTS,
    Direction,
    Grid,
    Monotonicity,
    CHECKERS,
    OrderKind,
    PairSample,
    QUANTITIES,
    auto_grid,
)
from .baseline import make_baseline
from .conditions import OUTLIER_THEOREMS, THEOREM_EVALUATORS
from .els import ELSComponent
from .errors import MixorderError, ScenarioFormatError, TheoremShapeError
from .mixture import (
    FiniteMixture,
    OutlierMixtureSpec,
    WeightPolicy,
    build_outlier_mixture,
)


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
class Scenario:
    """One comparison, parsed once into its U and V mixtures.

    ``specs`` holds the two-block (spec_U, spec_V) when both sides are
    outlier constructions, else None. ``source`` is where it was read from,
    the start of the location of an error found in it later; it takes no
    part in equality.
    """

    scenario_id: str
    description: str
    u: FiniteMixture
    v: FiniteMixture
    theorem_id: str
    order: OrderKind
    expected: Expected
    specs: tuple | None = None
    notes: str = ""
    source: str = field(default="scenario", compare=False)

    def mixtures(self):
        """The (U, V) mixtures."""
        return self.u, self.v


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

    The scenarios and their mixtures are shared between calls; treat them
    as read-only.
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


def _need(d, key, where, kind=None):
    if not isinstance(d, dict):
        raise ScenarioFormatError(
            f"expected a JSON object with field {key!r}, got {type(d).__name__}",
            location=where,
        )
    if key not in d:
        raise ScenarioFormatError(f"missing required field {key!r}", location=where)
    if kind is not None and not isinstance(d[key], kind):
        json_type = "object" if kind is dict else "array"
        msg = f"field {key!r} must be a JSON {json_type}, got {type(d[key]).__name__}"
        raise ScenarioFormatError(msg, location=where)
    return d[key]


def _member(enum, value, key, where):
    try:
        return enum(value)
    except ValueError:
        choices = ", ".join(repr(m.value) for m in enum)
        msg = f"field {key!r} must be one of {choices}, got {value!r}"
        raise ScenarioFormatError(msg, location=where) from None


def _number(value, key, where):
    """A JSON number as a finite float; a string, a bool or null is not one."""
    try:
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(number := float(value))):
            return number
    except OverflowError:
        pass
    msg = f"field {key!r} must be a finite number, got {value!r}"
    raise ScenarioFormatError(msg, location=where)


def _flag(value, key, where):
    if not isinstance(value, bool):
        msg = f"field {key!r} must be true, false or null, got {value!r}"
        raise ScenarioFormatError(msg, location=where)
    return value


def _optional(d, key, parse, where):
    return None if d.get(key) is None else parse(d[key], key, where)


def _built(where, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a construction error reported at ``where``."""
    try:
        return make(*args, **kwargs)
    except (MixorderError, TypeError, ValueError, ArithmeticError) as exc:
        raise ScenarioFormatError(str(exc), location=where) from None


def _baseline_from_dict(d, where):
    params = dict(_need(d, "params", where, dict))
    truncation = _optional(d, "truncation", _number, where)
    if truncation is not None:
        params.setdefault("t0", truncation)
    return _built(where, make_baseline, str(_need(d, "family", where)), **params)


def _component_from_dict(d, baseline, where):
    keys = ("alpha", "sigma", "lambda")
    alpha, sigma, lam = (_number(_need(d, k, where), k, where) for k in keys)
    return _built(where, ELSComponent, baseline, alpha, sigma, lam)


def _mixture_from_dict(d, baseline, policy, where):
    """One side of a comparison: its mixture, and its block spec if it is a two-block one."""
    comps = tuple(
        _component_from_dict(c, baseline, f"{where}.components[{i}]")
        for i, c in enumerate(_need(d, "components", where, list))
    )
    if ("weights" in d) == ("outlier" in d):
        raise ScenarioFormatError("give exactly one of weights or outlier", location=where)
    if "weights" in d:
        weights = [_number(w, f"weights[{i}]", where)
                   for i, w in enumerate(_need(d, "weights", where, list))]
        return _built(where, FiniteMixture, comps, weights, policy=policy), None
    if len(comps) != 2:
        raise ScenarioFormatError("outlier mixtures take exactly two components", location=where)
    at = f"{where}.outlier"
    o = d["outlier"]
    n1, n2 = _need(o, "n1", at), _need(o, "n2", at)
    r1, r2 = (_number(_need(o, k, at), k, at) for k in ("r1", "r2"))
    spec = _built(at, OutlierMixtureSpec, n1, n2, r1, r2, *comps)
    return _built(where, build_outlier_mixture, spec, policy=policy), spec


def _policy(d, where):
    return _member(WeightPolicy, d.get("weight_policy", "strict"), "weight_policy", where)


def scenario_from_dict(d, where="scenario"):
    baseline = _baseline_from_dict(_need(d, "baseline", where), f"{where}.baseline")
    mixtures = _need(d, "mixtures", where, list)
    if len(mixtures) != 2:
        raise ScenarioFormatError("exactly two mixtures required", location=where)
    at = f"{where}.expected"
    exp = _need(d, "expected", where, dict)
    order = _member(OrderKind, _need(d, "order", where), "order", where)
    expected = Expected(
        order=_member(OrderKind, exp.get("order", order.value), "order", at),
        holds=_optional(exp, "holds", _flag, at),
        direction=_optional(exp, "direction", partial(_member, Direction), at),
        ratio=_optional(exp, "ratio", partial(_member, Monotonicity), at),
        x_min=_optional(exp, "x_min", _number, at),
        x_max=_optional(exp, "x_max", _number, at),
        figure=str(exp.get("figure", "")),
    )
    if expected.order is not order:
        raise ScenarioFormatError(
            f"expected.order {expected.order.value!r} does not match order {order.value!r}",
            location=where,
        )
    if None not in (expected.x_min, expected.x_max) and not expected.x_min < expected.x_max:
        msg = (f"field 'x_min' must be below field 'x_max', "
               f"got {expected.x_min!r} and {expected.x_max!r}")
        raise ScenarioFormatError(msg, location=at)
    policy = _policy(d, where)
    (u, su), (v, sv) = (
        _mixture_from_dict(m, baseline, policy, f"{where}.mixtures[{i}]")
        for i, m in enumerate(mixtures)
    )
    theorem_id = str(_need(d, "theorem", where))
    if theorem_id not in THEOREM_EVALUATORS:
        raise ScenarioFormatError(f"unknown theorem {theorem_id!r}", location=where)
    return Scenario(
        scenario_id=str(_need(d, "id", where)),
        description=str(d.get("description", "")),
        u=u,
        v=v,
        theorem_id=theorem_id,
        order=order,
        expected=expected,
        specs=None if su is None or sv is None else (su, sv),
        notes=str(d.get("notes", "")),
        source=where,
    )


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"invalid JSON: {exc}", location=str(path)) from None
    except OSError as exc:
        raise ScenarioFormatError(str(exc), location=str(path)) from None


def load_scenario(path):
    return scenario_from_dict(_read_json(path), where=str(path))


def load_mixture(path):
    """The mixture of a file holding ``baseline``, ``mixture`` and an optional
    ``weight_policy``, parsed like one side of a scenario."""
    where = str(path)
    data = _read_json(path)
    mixture = _need(data, "mixture", where)
    baseline = _baseline_from_dict(_need(data, "baseline", where), f"{where}.baseline")
    return _mixture_from_dict(mixture, baseline, _policy(data, where), f"{where}.mixture")[0]


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioRecord:
    scenario_id: str
    condition_report: object
    order_verdict: object
    agreement: str  # "AsExpected" | "Contradiction"
    curves: dict  # column name -> 1-D float array, "x" first
    warnings: tuple
    grid: tuple
    timestamp: str


def scenario_grid(scenario, n_points=DEFAULT_POINTS):
    """Auto grid for the pair, clipped to the scenario's stated window.

    A stated lower end is used exactly; any grid point at or below a
    support start is harmless because every checker floors its inputs. A
    stated end that leaves no window before the automatic other end is an
    error of the scenario's ``expected`` field.
    """
    base = auto_grid(scenario.u, scenario.v, n_points)
    x_min, x_max = scenario.expected.x_min, scenario.expected.x_max
    lo = base.x_lo if x_min is None else x_min
    hi = base.x_hi if x_max is None else x_max
    if not lo < hi and (x_min is None) != (x_max is None):
        msg = (f"field 'x_min' must be below the automatic upper end, got {lo!r} and {hi!r}"
               if x_max is None else
               f"field 'x_max' must be above the automatic lower end, got {hi!r} and {lo!r}")
        raise ScenarioFormatError(msg, location=f"{scenario.source}.expected")
    return Grid(lo, hi, n_points)


def _weight_warnings(scenario):
    warnings = []
    for label, mix in (("U", scenario.u), ("V", scenario.v)):
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


def judge_agreement(expected, verdict):
    """AsExpected when the verdict matches every stated expectation."""
    ok = True
    if expected.ratio is not None:
        got = verdict.ratio_classification
        if expected.ratio in (Monotonicity.NON_DECREASING, Monotonicity.NON_INCREASING):
            ok &= got.follows(expected.ratio)
        else:
            ok &= got.classification is expected.ratio
    if expected.holds is not None and expected.direction is not None:
        ok &= verdict.holds(expected.direction) == expected.holds
    return "AsExpected" if ok else "Contradiction"


def evaluate_theorem(scenario, theorem_id):
    """Condition report of one theorem on the scenario; the outlier theorems
    take the two block specs, the others the two mixtures."""
    evaluator = THEOREM_EVALUATORS[theorem_id]
    if theorem_id not in OUTLIER_THEOREMS:
        return evaluator(scenario.u, scenario.v)
    if scenario.specs is None:
        raise TheoremShapeError(f"theorem {theorem_id} needs two-block outlier mixtures")
    return evaluator(*scenario.specs)


def run_scenario(scenario, n_points=DEFAULT_POINTS):
    """Evaluate conditions and the designated order check for one scenario."""
    grid = scenario_grid(scenario, n_points)
    report = evaluate_theorem(scenario, scenario.theorem_id)
    sample = PairSample(scenario.u, scenario.v, grid)
    verdict = CHECKERS[scenario.order](sample, pair_id=scenario.scenario_id)
    curves = {"x": sample.x, **QUANTITIES[_CURVE_QUANTITY[scenario.order]](sample)}
    return ScenarioRecord(
        scenario_id=scenario.scenario_id,
        condition_report=report,
        order_verdict=verdict,
        agreement=judge_agreement(scenario.expected, verdict),
        curves=curves,
        warnings=_weight_warnings(scenario),
        grid=grid.signature(),
        timestamp=_dt.datetime.now(_dt.timezone.utc).isoformat(),
    )
