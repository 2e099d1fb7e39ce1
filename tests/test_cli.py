import collections
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import mixorder
from mixorder import (
    Monotonicity,
    OrderKind,
    check_order,
    classify_monotonicity,
    get_scenario,
    run_scenario,
    scenario_grid,
)
from mixorder import analysis
from mixorder.analysis import DEFAULT_POINTS, MAX_POINTS
from mixorder.baseline import BaselineModel
from mixorder.cli import build_parser, main
from mixorder.conditions import THEOREM_EVALUATORS
from mixorder.reporting import dumps


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_sf_columns(capsys):
    code, out, _ = run_cli(capsys, "eval", "EX4.1", "sf", "--points", "11")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,sf_U,sf_V"
    assert len(lines) == 12


def test_eval_ratio_empty_fields_below_floor(capsys):
    code, out, _ = run_cli(capsys, "eval", "CE4.2", "cdf_ratio", "--grid", "4:20:9")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,cdf_ratio_V_over_U"
    # x = 4 sits below the first support: ratio field is empty
    assert lines[1] == "4,"
    assert lines[-1] != "20,"


def test_eval_rhr_ratio_decreasing_window(capsys):
    code, out, _ = run_cli(capsys, "eval", "EX5.7", "rhr_ratio", "--grid", "6:60:201")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    vals = [float(v) for _, v in rows if v]
    assert len(vals) >= 190
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_eval_out_file(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    code, out, err = run_cli(
        capsys, "eval", "EX4.1", "cdf", "--points", "5", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("x,cdf_U,cdf_V\n")


def test_eval_unknown_id_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "EX0.0", "sf")
    assert code == 2
    assert "error" in err


def test_eval_undefined_quantity_exits_2(capsys):
    # grid entirely below both supports: rhr undefined everywhere
    code, _, err = run_cli(capsys, "eval", "EX4.1", "rhr", "--grid", "0.1:0.9:5")
    assert code == 2
    assert "undefined" in err


def test_check_order_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "check-order", "EX4.1", "--order", "st")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["direction"] == "UleqV"

    code, out, _ = run_cli(capsys, "check-order", "CE4.1", "--order", "st")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"]["violation_witness"] is not None

    # derived by running the checker: this pair's CDF ratio is monotone
    code, _, _ = run_cli(capsys, "check-order", "EX4.1", "--order", "rh")
    assert code == 0

    code, _, _ = run_cli(
        capsys, "check-order", "EX5.6", "--order", "lr", "--direction", "VleqU"
    )
    assert code == 0


def test_check_order_includes_audit_for_rh_lr(capsys):
    code, out, _ = run_cli(capsys, "check-order", "EX4.3", "--order", "lr")
    assert code == 0
    doc = json.loads(out)
    assert doc["implication_audit"]["consistent"] is True


def test_check_order_two_mixture_files(tmp_path, capsys, catalog_doc):
    doc = catalog_doc("EX4.1")
    for i, name in enumerate(("u.json", "v.json")):
        path = tmp_path / name
        path.write_text(
            json.dumps({"baseline": doc["baseline"], "mixture": doc["mixtures"][i]})
        )
    code, out, _ = run_cli(
        capsys,
        "check-order",
        str(tmp_path / "u.json"),
        str(tmp_path / "v.json"),
        "--order",
        "st",
    )
    assert code == 0
    assert json.loads(out)["verdict"]["direction"] == "UleqV"


@pytest.mark.parametrize("missing", ["baseline", "mixture"])
def test_check_order_mixture_file_missing_field_exits_2(tmp_path, capsys, catalog_doc, missing):
    doc = catalog_doc("EX4.1")
    mix = {"baseline": doc["baseline"], "mixture": doc["mixtures"][0]}
    (tmp_path / "u.json").write_text(json.dumps(mix))
    del mix[missing]
    (tmp_path / "v.json").write_text(json.dumps(mix))
    code, out, err = run_cli(
        capsys, "check-order", str(tmp_path / "u.json"), str(tmp_path / "v.json"),
        "--order", "st",
    )
    assert code == 2
    assert out == ""
    assert f"missing required field '{missing}'" in err


@pytest.mark.parametrize("field", ["t", "F"])
def test_check_order_non_finite_tabulated_scenario_exits_2(tmp_path, capsys, catalog_doc, field):
    doc = catalog_doc("EX4.1")
    params = {"t": [1.0, 2.0, 3.0, 4.0], "F": [0.0, 0.25, 0.5, 1.0]}
    params[field][1] = float("nan")
    doc["baseline"] = {"family": "tabulated", "params": params}
    path = tmp_path / "nan.json"
    # json writes NaN as the bare literal NaN, which json.load reads back
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "check-order", str(path), "--order", "st")
    assert (code, out) == (2, "")
    assert f"tabulated {field} must contain only finite values" in err


def test_check_order_non_object_mixture_files_exit_2(tmp_path, capsys):
    (tmp_path / "num.json").write_text("5")
    code, out, err = run_cli(
        capsys, "check-order", str(tmp_path / "num.json"), str(tmp_path / "num.json"),
        "--order", "st",
    )
    assert (code, out) == (2, "")
    assert f"{tmp_path / 'num.json'}: expected a JSON object with field 'mixture', got int" in err


def test_eval_non_object_scenario_file_exits_2(tmp_path, capsys):
    (tmp_path / "num.json").write_text("5")
    code, out, err = run_cli(capsys, "eval", str(tmp_path / "num.json"), "cdf")
    assert (code, out) == (2, "")
    assert f"{tmp_path / 'num.json'}: expected a JSON object with field 'baseline'" in err


def test_eval_non_object_baseline_exits_2(tmp_path, capsys, catalog_doc):
    doc = catalog_doc("EX4.1")
    doc["baseline"] = 5
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "eval", str(path), "cdf")
    assert (code, out) == (2, "")
    assert f"{path}.baseline: expected a JSON object with field 'params', got int" in err


def _set(*path, value=5, scenario_id="EX4.1"):
    """Edit that sets the field at ``path`` of a scenario document to ``value``;
    it names the catalog scenario whose document it edits."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    edit.scenario_id = scenario_id
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(_set("mixtures"), ": field 'mixtures' must be a JSON array, got int",
                 id="mixtures"),
    pytest.param(_set("expected"), ": field 'expected' must be a JSON object, got int",
                 id="expected"),
    pytest.param(_set("mixtures", 0, "components"),
                 ".mixtures[0]: field 'components' must be a JSON array, got int",
                 id="components"),
    pytest.param(_set("mixtures", 1, "weights"),
                 ".mixtures[1]: field 'weights' must be a JSON array, got int", id="weights"),
    pytest.param(_set("baseline", "params"),
                 ".baseline: field 'params' must be a JSON object, got int", id="params"),
    pytest.param(_set("order"), ": field 'order' must be one of 'st', 'rh', 'lr', 'r_rh', got 5",
                 id="order"),
    pytest.param(_set("expected", "direction"), ".expected: field 'direction' must be one of",
                 id="direction"),
    pytest.param(_set("weight_policy"),
                 ": field 'weight_policy' must be one of 'strict', 'autonorm', got 5",
                 id="weight_policy"),
    pytest.param(_set("expected", "x_min", value="abc"),
                 ".expected: field 'x_min' must be a finite number, got 'abc'", id="x_min"),
    pytest.param(_set("expected", "x_max", value=[1.0]),
                 ".expected: field 'x_max' must be a finite number, got [1.0]", id="x_max"),
    pytest.param(_set("expected", "x_max", value=4.0, scenario_id="EX4.2"),
                 ".expected: field 'x_min' must be below field 'x_max', got 5.0 and 4.0",
                 id="x_min_above_x_max"),
    # a stated end that meets the automatic other end leaves no grid
    pytest.param(_set("expected", "x_min", value=1e6),
                 ".expected: field 'x_min' must be below the automatic upper end, "
                 "got 1000000.0 and 174.28", id="x_min_above_auto"),
    pytest.param(_set("expected", "x_max", value=-5.0),
                 ".expected: field 'x_max' must be above the automatic lower end, "
                 "got -5.0 and 8.0", id="x_max_below_auto"),
    pytest.param(_set("mixtures", 1, "weights", 0, value="abc"),
                 ".mixtures[1]: field 'weights[0]' must be a finite number, got 'abc'",
                 id="weight_value"),
    pytest.param(_set("baseline", "truncation", value="abc"),
                 ".baseline: field 'truncation' must be a finite number, got 'abc'",
                 id="truncation"),
    pytest.param(_set("mixtures", 0, "outlier", "n1", value="abc", scenario_id="EX5.5"),
                 ".mixtures[0].outlier: n1 must be a positive integer, got 'abc'",
                 id="n1_text"),
    pytest.param(_set("mixtures", 0, "outlier", "n1", value=25.7, scenario_id="EX5.5"),
                 ".mixtures[0].outlier: n1 must be a positive integer, got 25.7",
                 id="n1_fraction"),
    pytest.param(_set("expected", "holds", value="no"),
                 ".expected: field 'holds' must be true, false or null, got 'no'", id="holds"),
    pytest.param(_set("mixtures", 0, "components", 1, "sigma", value=float("nan")),
                 ".mixtures[0].components[1]: field 'sigma' must be a finite number, got nan",
                 id="sigma_nan"),
])
def test_eval_wrong_field_type_exits_2(tmp_path, capsys, catalog_doc, edit, message):
    doc = catalog_doc(edit.scenario_id)
    edit(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "eval", str(path), "cdf")
    assert (code, out) == (2, "")
    assert f"{path}{message}" in err


@pytest.mark.parametrize("edit, message", [
    pytest.param(_set("mixtures", 0, "components", 0, "lambda", value=1e308),
                 "mixture quantile at level 0.999999: no convergence", id="lambda"),
    pytest.param(_set("baseline", "params", "m", value=1e308, scenario_id="EX5.5"),
                 "mixture quantile at level 0.999999: no sign change", id="burr_m"),
    pytest.param(_set("baseline", "params", "a", value=1e308, scenario_id="CE4.2"),
                 "pareto pdf overflows the float range", id="pareto_a"),
    # a component that never starts: the bracket search once widened forever
    pytest.param(_set("mixtures", 0, "components", 0, "lambda", value=1e308,
                      scenario_id="CE4.1"),
                 "mixture quantile at level 0.999999: no sign change", id="lambda_unbounded"),
    pytest.param(_set("baseline", "params", "b", value=1e-308, scenario_id="CE5.6"),
                 "benktander2 quantile at level 0.999999499999875: could not bracket",
                 id="benktander_b"),
])
def test_eval_extreme_finite_parameter_exits_2(tmp_path, catalog_doc, edit, message):
    # a fresh interpreter, so an uncaught exception would show as a traceback
    doc = catalog_doc(edit.scenario_id)
    edit(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    src = str(pathlib.Path(mixorder.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "mixorder.cli", "eval", str(path), "rhr_ratio", "--points", "21"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert message in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("grid", [
    ("--points", str(10**12)),
    ("--grid", f"1:2:{10**12}"),
])
def test_eval_oversized_grid_exits_2(capsys, grid):
    # rejected before any point array is allocated
    code, out, err = run_cli(capsys, "eval", "EX4.1", "cdf", *grid)
    assert (code, out) == (2, "")
    assert f"grid needs 3 to {MAX_POINTS} points, got {10**12}" in err


_SUBCOMMANDS = {
    "eval": ("eval", "EX4.1", "cdf"),
    "check-order": ("check-order", "EX4.1", "--order", "st"),
    "check-theorem": ("check-theorem", "EX4.1", "--theorem", "T3.1"),
}


@pytest.mark.parametrize("points", [2, 10**12])
@pytest.mark.parametrize("argv", [*_SUBCOMMANDS.values(), ("reproduce", "EX4.1", "--no-records")],
                         ids=[*_SUBCOMMANDS, "reproduce"])
def test_points_out_of_range_exits_2_naming_it(capsys, monkeypatch, argv, points):
    # rejected before any quantile root, of a grid or of a condition, runs
    def no_quantile(self, log_q):
        raise AssertionError("a quantile ran before --points was checked")

    monkeypatch.setattr(BaselineModel, "quantile_log", no_quantile)
    code, out, err = run_cli(capsys, *argv, "--points", str(points))
    assert (code, out) == (2, "")
    assert f"bad --points value: grid needs 3 to {MAX_POINTS} points, got {points}" in err


_REMOVED_OPTIONS = {
    "seed": ("--seed", "1"),
    "policy": ("--policy", "autonorm"),
    "rh-floor": ("--rh-floor", "1e-9"),
}


@pytest.mark.parametrize("argv, option", [
    *(pytest.param(argv, option, id=f"{name}-{cmd}")
      for name, option in _REMOVED_OPTIONS.items() for cmd, argv in _SUBCOMMANDS.items()),
    # check-order and check-theorem keep --tol; eval reads no tolerance
    pytest.param(_SUBCOMMANDS["eval"], ("--tol", "1e-6"), id="tol-eval"),
    # no command draws at random, so reproduce and validate take no --seed either
    pytest.param(("reproduce", "EX4.1", "--no-records"), ("--seed", "1"), id="seed-reproduce"),
    *(pytest.param(("validate", "--scenario", "pair.json"), option, id=f"{name}-validate")
      for name, option in (("seed", ("--seed", "1")), ("pairs", ("--pairs", "8")))),
])
def test_removed_options_are_rejected(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main([*argv, *option])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", _SUBCOMMANDS.values(), ids=_SUBCOMMANDS.keys())
def test_log_grid_without_grid_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--log-grid")
    assert (code, out) == (2, "")
    assert "--log-grid applies only to an explicit --grid" in err


@pytest.mark.parametrize("argv", _SUBCOMMANDS.values(), ids=_SUBCOMMANDS.keys())
def test_points_with_grid_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--grid", "6:600:3", "--points", "7")
    assert (code, out) == (2, "")
    assert "--points sets the automatic grid" in err


@pytest.mark.parametrize("argv, named", [
    *(pytest.param(("check-order", "EX4.1", "--order", order, "--tol", tol), "--tol",
                   id=f"tol-{tol}-{order}")
      for order in ("rh", "lr", "r_rh", "st") for tol in ("nan", "-1", "inf")),
    *(pytest.param(("check-theorem", "EX4.2", "--theorem", "T3.2", "--tol", tol), "--tol",
                   id=f"tol-{tol}-theorem") for tol in ("nan", "-1", "inf")),
    pytest.param(("eval", "EX4.1", "cdf", "--grid", "1:inf:10"), "grid needs a finite span",
                 id="grid-infinite"),
    pytest.param(("eval", "EX4.1", "cdf", "--grid=-1e308:1e308:5"), "grid needs a finite span",
                 id="grid-overflowing-span"),
    *(pytest.param((*argv, "--grid", "1:2:2"), "bad --grid value '1:2:2': grid needs 3 to",
                   id=f"grid-count-{cmd}") for cmd, argv in _SUBCOMMANDS.items()),
    # the exploratory command is gone: argparse rejects it as an invalid choice
    pytest.param(("experiment-unequal-weights",),
                 "invalid choice: 'experiment-unequal-weights'", id="removed-command"),
])
def test_out_of_range_input_exits_2_naming_it(capsys, argv, named):
    # rejected before any sampling, whether by the parser or by Grid
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert named in err and "Traceback" not in err


def test_eval_log_grid_abscissae(capsys):
    code, out, _ = run_cli(capsys, "eval", "EX4.1", "cdf", "--grid", "6:600:5", "--log-grid")
    assert code == 0
    x = np.array([float(line.split(",")[0]) for line in out.strip().split("\n")[1:]])
    assert np.array_equal(x, np.geomspace(6.0, 600.0, 5))


@pytest.mark.parametrize("scenario_id, order, keyword, tol", [
    # CE5.9's density ratio is non-monotone at the default 1e-9 only
    ("CE5.9", "lr", "rel_tol", "1e-6"),
    # st takes --tol as the pointwise CDF slack, which lifts CE4.1's crossing
    ("CE4.1", "st", "tol", "0.5"),
])
def test_check_order_tol_reaches_checker(capsys, scenario_id, order, keyword, tol):
    scenario = get_scenario(scenario_id)
    u, v = scenario.mixtures()
    grid = scenario_grid(scenario)
    expected = check_order(order, u, v, grid, pair_id=scenario_id, **{keyword: float(tol)})
    assert expected.direction != check_order(order, u, v, grid).direction
    code, out, _ = run_cli(capsys, "check-order", scenario_id, "--order", order, "--tol", tol)
    assert code in (0, 1)
    doc = json.loads(out)
    assert doc["tolerances"] == {"tol": float(tol)}
    assert doc["verdict"] == json.loads(dumps(expected))


@pytest.mark.parametrize("order", ["rh", "lr"])
def test_check_order_tol_reaches_audit(capsys, order):
    # the audit runs its other ratio check at --tol as well: at 1e-3 lr holds
    # on EX5.7 and rh does not, which a default-tolerance partner hid
    code, out, _ = run_cli(capsys, "check-order", "EX5.7", "--order", order, "--tol", "1e-3")
    assert code in (0, 1)
    audit = json.loads(out)["implication_audit"]
    assert audit["consistent"] is False
    assert audit["failures"] == ["lr UleqV holds but rh does not"]


@pytest.mark.parametrize("order", ["rh", "lr", "r_rh", "st"])
def test_check_order_samples_each_curve_once(capsys, monkeypatch, catalog, order):
    # the verdict and the st/rh/lr audit share one sample of the pair: each
    # curve is sampled once, for both mixtures in one pass, and rh and r_rh
    # take both curves from one pass. Each order runs once, so a run
    # classifies one ratio per ratio order it reports: rh and lr (with their
    # audit) two, r_rh one and st none. In a pass, each group of components
    # sharing a baseline, sigma and lam evaluates its baseline closed forms
    # once per slice (2001 points are one slice); a density-only pass skips
    # the baseline CDF of a group whose alphas are all 1. A non-monotone
    # ratio takes its witness values from one scalar pass over the pair.
    # Only closed forms inside a grid pass are counted: the roots and the
    # witness evaluate scalars outside it.
    passes, scalar_passes, baseline_calls, inside = [], [], collections.Counter(), []
    non_monotone = []
    sample_curves = analysis.sample_curves
    classify = analysis.classify_monotonicity

    def counting_pass(mixtures, x, curves):
        if np.ndim(x) == 0:
            scalar_passes.append(len(mixtures))
            return sample_curves(mixtures, x, curves)
        assert np.size(x) == DEFAULT_POINTS
        passes.append((len(mixtures), tuple(curves)))
        inside.append(True)
        try:
            return sample_curves(mixtures, x, curves)
        finally:
            inside.pop()

    def counting_classify(x, values, **kwargs):
        mono = classify(x, values, **kwargs)
        non_monotone.append(mono.classification is Monotonicity.NON_MONOTONE)
        return mono

    monkeypatch.setattr(analysis, "sample_curves", counting_pass)
    monkeypatch.setattr(analysis, "classify_monotonicity", counting_classify)
    closed_forms = BaselineModel._curves

    def counting(self, t, cdf, pdf, dpdf):
        # one call may ask for both curves; each curve asked counts once
        if inside:
            baseline_calls.update(name for name, asked in (("cdf", cdf), ("pdf", pdf)) if asked)
        return closed_forms(self, t, cdf, pdf, dpdf)

    monkeypatch.setattr(BaselineModel, "_curves", counting)
    curves = {"rh": [("cdf", "pdf")], "r_rh": [("cdf", "pdf")], "lr": [("cdf",), ("pdf",)],
              "st": [("cdf",)]}[order]
    classified = {"rh": 2, "lr": 2, "r_rh": 1, "st": 0}[order]
    witnesses = 0
    for s in catalog:
        passes.clear()
        scalar_passes.clear()
        non_monotone.clear()
        baseline_calls.clear()
        code, _, _ = run_cli(capsys, "check-order", s.scenario_id, "--order", order)
        assert code in (0, 1), s.scenario_id
        assert len(non_monotone) == classified, (s.scenario_id, len(non_monotone))
        assert sorted(passes) == [(2, c) for c in curves], (s.scenario_id, passes)
        assert scalar_passes == [2] * sum(non_monotone), (s.scenario_id, scalar_passes)
        witnesses += len(scalar_passes)
        groups = collections.defaultdict(set)
        for c in s.u.components + s.v.components:
            groups[id(c.baseline), c.sigma, c.lam].add(c.alpha)
        with_cdf = sum(alphas != {1.0} for alphas in groups.values())
        expected = collections.Counter(
            cdf=sum(len(groups) if "cdf" in c else with_cdf for c in curves),
            pdf=len(groups) * any("pdf" in c for c in curves))
        assert baseline_calls == expected, (s.scenario_id, baseline_calls)
    # the catalog has non-monotone ratios of every ratio order; st has no ratio
    assert bool(witnesses) == (order != "st")


def test_check_theorem_condition_items_pass_as_json_booleans(capsys, catalog):
    # a numpy bool from the majorization check once printed as "False"
    items = []
    for s in catalog:
        for theorem in sorted(THEOREM_EVALUATORS):
            code, out, _ = run_cli(capsys, "check-theorem", s.scenario_id, "--theorem", theorem)
            if code != 2:  # 2: an outlier theorem on a scenario without blocks
                items += json.loads(out)["conditions"]["items"]
    assert items and all(type(item["passed"]) is bool for item in items)


def test_parser_is_built_once_and_keeps_no_option_values(capsys):
    argv = ["check-order", "CE5.9", "--order", "lr"]
    build_parser.cache_clear()
    fresh = run_cli(capsys, *argv)
    with_tol = run_cli(capsys, *argv, "--tol", "1e-6")
    again = run_cli(capsys, *argv)
    assert build_parser.cache_info().misses == 1  # one parser for all three calls
    assert json.loads(with_tol[1])["tolerances"] == {"tol": 1e-6}
    # --tol of the call before does not reach this one
    assert again == fresh and again[1] != with_tol[1]


def _eval_columns(capsys, scenario_id, quantity):
    code, out, _ = run_cli(capsys, "eval", scenario_id, quantity)
    assert code == 0, (scenario_id, quantity)
    header, *rows = (line.split(",") for line in out.strip().split("\n"))
    return {
        name: np.array([float(r[i]) if r[i] else np.nan for r in rows])
        for i, name in enumerate(header)
    }


_RATIO_ORDERS = {"cdf_ratio": OrderKind.RH, "pdf_ratio": OrderKind.LR,
                 "rhr_ratio": OrderKind.R_RH}
_CURVE_QUANTITIES = {OrderKind.ST: "sf", OrderKind.RH: "cdf_ratio",
                     OrderKind.LR: "pdf_ratio", OrderKind.R_RH: "rhr_ratio"}


def test_eval_ratio_defined_exactly_on_checker_domain(capsys, catalog):
    for s in catalog:
        u, v = s.mixtures()
        grid = scenario_grid(s)
        for quantity, order in _RATIO_ORDERS.items():
            cols = _eval_columns(capsys, s.scenario_id, quantity)
            x = cols.pop("x")
            (ratio,) = cols.values()
            kept = ~np.isnan(ratio)
            verdict = check_order(order, u, v, grid)
            where = (s.scenario_id, quantity)
            assert verdict.points_used == np.count_nonzero(kept), where
            assert verdict.evaluated_range == (x[kept][0], x[kept][-1]), where
            assert classify_monotonicity(x[kept], ratio[kept]) == (
                verdict.ratio_classification
            ), where


def test_recorded_curves_equal_eval_columns(capsys, catalog):
    for s in catalog:
        curves = run_scenario(s).curves
        cols = _eval_columns(capsys, s.scenario_id, _CURVE_QUANTITIES[s.order])
        assert list(curves) == list(cols), s.scenario_id
        for name, col in cols.items():
            assert np.array_equal(curves[name], col, equal_nan=True), (s.scenario_id, name)


def test_check_theorem(capsys):
    code, out, _ = run_cli(capsys, "check-theorem", "EX4.4", "--theorem", "T3.4")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert doc["prediction_met"] is True

    code, out, _ = run_cli(capsys, "check-theorem", "CE5.8", "--theorem", "T4.2")
    assert code == 1
    doc = json.loads(out)
    assert doc["all_pass"] is False
    failed = [i["name"] for i in doc["conditions"]["items"] if not i["passed"]]
    assert failed == ["alpha_at_least_one"]
    assert doc["actual_verdict"]["ratio_classification"]["classification"] == (
        "non_monotone"
    )

    code, _, err = run_cli(capsys, "check-theorem", "EX4.3", "--theorem", "T4.1")
    assert code == 2
    assert "outlier" in err


def test_reproduce_selection_and_exit(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("STOCHORDER_RESULTS_DIR", str(tmp_path / "results"))
    code, out, err = run_cli(capsys, "reproduce", "EX5.5", "CE5.7")
    assert code == 0
    doc = json.loads(out)
    assert [r["id"] for r in doc["rows"]] == ["EX5.5", "CE5.7"]
    assert doc["contradictions"] == 0
    records = list((tmp_path / "results").glob("*.json"))
    assert len(records) == 2
    record = json.loads(records[0].read_text())
    assert "timestamp" in record and "curve_file" in record
    curve = (tmp_path / "results") / record["curve_file"]
    assert curve.exists()


def test_reproduce_all_with_ids_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("STOCHORDER_RESULTS_DIR", str(tmp_path / "results"))
    code, out, err = run_cli(capsys, "reproduce", "--all", "EX4.1", "--no-records")
    assert (code, out) == (2, "")
    assert "--all" in err
    assert not (tmp_path / "results").exists()


def test_reproduce_results_dir_flag_beats_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("STOCHORDER_RESULTS_DIR", str(tmp_path / "envdir"))
    flag_dir = tmp_path / "flagdir"
    code, _, _ = run_cli(capsys, "reproduce", "EX4.1", "--results-dir", str(flag_dir))
    assert code == 0
    assert len(list(flag_dir.glob("*.json"))) == 1
    assert not (tmp_path / "envdir").exists()


def test_reproduce_all_deterministic_stdout(capsys):
    code1, out1, _ = run_cli(capsys, "reproduce", "--all", "--no-records")
    code2, out2, _ = run_cli(capsys, "reproduce", "--all", "--no-records")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["scenarios"] == 16
    assert all(r["agreement"] == "AsExpected" for r in doc["rows"])


def test_validate_deterministic_and_green(capsys, catalog_path):
    paths = [str(catalog_path(sid)) for sid in ("EX4.1", "CE5.9")]
    argv = ["validate", *(arg for path in paths for arg in ("--scenario", path))]
    code1, out1, err1 = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert (doc["passed"], doc["failed"]) == (2, 0)
    # the library's own invariants are Tier-1 tests, not validate items
    assert [i["name"] for i in doc["items"]] == [f"scenario:{path}" for path in paths]
    assert err1.count("PASS scenario:") == 2


def test_validate_without_scenario_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "--scenario" in err


def test_validate_names_the_field_of_an_empty_window(tmp_path, capsys, catalog_doc):
    cases = [
        ({"x_min": 5.0, "x_max": 4.0},
         "field 'x_min' must be below field 'x_max', got 5.0 and 4.0"),
        ({"x_min": 1e6},
         "field 'x_min' must be below the automatic upper end, got 1000000.0 and 174.28"),
    ]
    argv = ["validate"]
    for i, (window, _) in enumerate(cases):
        doc = catalog_doc("EX4.1")
        doc["expected"].update(window)
        path = tmp_path / f"window_{i}.json"
        path.write_text(json.dumps(doc))
        argv += ["--scenario", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, json.loads(out)["failed"]) == (1, 2)
    for i, (_, message) in enumerate(cases):
        path = tmp_path / f"window_{i}.json"
        assert f"FAIL scenario:{path}: {path}.expected: {message}" in err


def test_validate_flags_corrupted_tabulated_scenario(tmp_path, capsys, catalog_doc):
    doc = catalog_doc("EX4.1")
    doc["baseline"] = {
        "family": "tabulated",
        "params": {
            "t": [1.0, 2.0, 3.0, 4.0],
            "F": [0.0, 0.7, 0.5, 1.0],  # non-monotone
        },
    }
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert code == 1
    report = json.loads(out)
    bad = [i for i in report["items"] if not i["passed"]]
    assert len(bad) == 1
    assert "nondecreasing" in bad[0]["detail"]
