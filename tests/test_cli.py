import collections
import json

import numpy as np
import pytest

from mixorder import (
    FiniteMixture,
    OrderKind,
    check_order,
    classify_monotonicity,
    run_scenario,
    scenario_grid,
)
from mixorder.analysis import DEFAULT_POINTS
from mixorder.cli import main


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


@pytest.mark.parametrize("order", ["rh", "lr"])
def test_check_order_samples_each_curve_once(capsys, monkeypatch, catalog, order):
    # the verdict and the st/rh/lr audit share one sample of the pair
    calls = collections.Counter()
    for name in ("cdf", "pdf"):
        original = getattr(FiniteMixture, name)

        def counting(self, x, name=name, original=original):
            if np.size(x) == DEFAULT_POINTS:
                calls[id(self), name] += 1
            return original(self, x)

        monkeypatch.setattr(FiniteMixture, name, counting)
    for s in catalog:
        calls.clear()
        code, _, _ = run_cli(capsys, "check-order", s.scenario_id, "--order", order)
        assert code in (0, 1), s.scenario_id
        assert sorted(calls.values()) == [1, 1, 1, 1], (s.scenario_id, calls)


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


def test_reproduce_all_deterministic_stdout(capsys):
    code1, out1, _ = run_cli(capsys, "reproduce", "--all", "--no-records", "--seed", "42")
    code2, out2, _ = run_cli(capsys, "reproduce", "--all", "--no-records", "--seed", "42")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["scenarios"] == 16
    assert all(r["agreement"] == "AsExpected" for r in doc["rows"])


def test_validate_deterministic_and_green(capsys):
    code1, out1, err1 = run_cli(capsys, "validate", "--seed", "42", "--pairs", "8")
    code2, out2, _ = run_cli(capsys, "validate", "--seed", "42", "--pairs", "8")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["failed"] == 0
    assert "PASS normalization_catalog" in err1


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
    code, out, err = run_cli(
        capsys, "validate", "--pairs", "2", "--scenario", str(path)
    )
    assert code == 1
    report = json.loads(out)
    bad = [i for i in report["items"] if not i["passed"]]
    assert len(bad) == 1
    assert "nondecreasing" in bad[0]["detail"]


def test_experiment_unequal_weights(capsys):
    code, out, _ = run_cli(
        capsys, "experiment-unequal-weights", "--trials", "5", "--seed", "7"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 5
    assert "no conclusion" in doc["note"]
