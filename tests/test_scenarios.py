import json

import numpy as np
import pytest

from mixorder import (
    Direction,
    FiniteMixture,
    Monotonicity,
    OrderKind,
    ScenarioFormatError,
    builtin_catalog,
    catalog_ids,
    get_scenario,
    load_scenario,
    run_scenario,
)
from mixorder import analysis
from mixorder.scenarios import judge_agreement


def test_catalog_size_and_ids():
    ids = catalog_ids()
    assert len(ids) == 16
    assert len(set(ids)) == 16
    assert ids == [
        "EX4.1", "CE4.1", "CE4.2", "CE4.22", "EX4.2", "CE4.3", "EX4.3", "CE4.4",
        "EX4.4", "CE5.6", "EX5.5", "CE5.7", "EX5.6", "CE5.8", "EX5.7", "CE5.9",
    ]


def test_catalog_published_parameters():
    u, v = get_scenario("EX4.4").mixtures()
    assert u.raw_weights.tolist() == [0.6, 0.3, 0.1]
    assert v.raw_weights.tolist() == [0.4, 0.4, 0.2]

    u, v = get_scenario("EX5.7").mixtures()
    assert [c.sigma for c in u.components] == [6.0, 6.0]
    assert [c.sigma for c in v.components] == [4.0, 4.0]
    assert [c.lam for c in u.components] == [4.0, 6.0]
    assert [c.lam for c in v.components] == [3.0, 2.0]
    assert {c.alpha for c in u.components + v.components} == {0.3}


def test_catalog_theorem_map():
    expected = {
        "EX4.1": ("T3.1", OrderKind.ST),
        "CE4.1": ("T3.1", OrderKind.ST),
        "CE4.2": ("T3.1", OrderKind.RH),
        "CE4.22": ("T3.1", OrderKind.LR),
        "EX4.2": ("T3.2", OrderKind.RH),
        "CE4.3": ("T3.2", OrderKind.RH),
        "EX4.3": ("T3.3", OrderKind.LR),
        "CE4.4": ("T3.3", OrderKind.LR),
        "EX4.4": ("T3.4", OrderKind.ST),
        "CE5.6": ("T3.4", OrderKind.ST),
        "EX5.5": ("T4.1", OrderKind.RH),
        "CE5.7": ("T4.1", OrderKind.RH),
        "EX5.6": ("T4.2", OrderKind.LR),
        "CE5.8": ("T4.2", OrderKind.LR),
        "EX5.7": ("T4.3", OrderKind.R_RH),
        "CE5.9": ("T4.3", OrderKind.R_RH),
    }
    for s in builtin_catalog():
        assert (s.theorem_id, s.order) == expected[s.scenario_id]


def test_packaged_files_load_by_path(catalog, catalog_path):
    # each file is named after its id and loads like a user scenario file
    for s in catalog:
        assert load_scenario(catalog_path(s.scenario_id)) == s


def test_load_rejects_bad_lambda(tmp_path, catalog_doc):
    doc = catalog_doc("EX4.1")
    doc["mixtures"][0]["components"][0]["lambda"] = -1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioFormatError, match="lambda must be positive"):
        load_scenario(path)


def test_load_rejects_strict_weight_violation(tmp_path, catalog_doc):
    doc = catalog_doc("CE5.7")
    doc["weight_policy"] = "strict"  # raw block weights sum to 0.7
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioFormatError, match="unit-sum"):
        load_scenario(path)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioFormatError, match="invalid JSON"):
        load_scenario(path)


def test_load_reports_missing_field_location(tmp_path, catalog_doc):
    doc = catalog_doc("EX4.1")
    del doc["mixtures"][1]["components"][0]["alpha"]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioFormatError, match=r"mixtures\[1\].components\[0\]"):
        load_scenario(path)


def test_truncation_key_merges_into_params(tmp_path, catalog_doc):
    doc = catalog_doc("EX5.5")
    t0 = doc["baseline"]["params"].pop("t0")
    doc["baseline"]["truncation"] = t0
    path = tmp_path / "trunc.json"
    path.write_text(json.dumps(doc))
    u, _ = load_scenario(path).mixtures()
    assert u.components[0].baseline.t0 == t0


def test_run_scenario_records():
    rec = run_scenario(get_scenario("EX4.1"))
    assert rec.agreement == "AsExpected"
    assert rec.condition_report.all_pass
    assert rec.order_verdict.direction is Direction.U_LEQ_V
    assert list(rec.curves) == ["x", "sf_U", "sf_V"]
    assert all(isinstance(c, np.ndarray) and c.shape == (2001,) for c in rec.curves.values())

    rec = run_scenario(get_scenario("CE4.3"))
    assert rec.agreement == "AsExpected"
    assert (
        rec.order_verdict.ratio_classification.classification
        is Monotonicity.NON_MONOTONE
    )
    assert "cdf_ratio_V_over_U" in rec.curves

    rec = run_scenario(get_scenario("EX5.5"))
    assert rec.agreement == "AsExpected"
    assert rec.order_verdict.pointwise_agrees is True


def test_run_scenario_builds_no_mixture(monkeypatch, catalog):
    # each scenario is parsed once into its mixtures; running only reads them
    built = []
    original = FiniteMixture.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(FiniteMixture, "__init__", counting)
    for s in catalog:
        run_scenario(s, n_points=101)
    assert built == []


def test_run_scenario_forms_each_ratio_once(monkeypatch, catalog):
    # the curve column reuses the checker's ratio: one quotient per ratio,
    # and the reversed hazard rates h_U, h_V are two
    quotients = {OrderKind.ST: 0, OrderKind.RH: 3, OrderKind.LR: 1, OrderKind.R_RH: 3}
    calls = []
    original = analysis._masked_div

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(analysis, "_masked_div", counting)
    for s in catalog:
        calls.clear()
        run_scenario(s, n_points=101)
        assert len(calls) == quotients[s.order], s.scenario_id


def test_run_scenario_warns_on_autonormalized_weights():
    rec = run_scenario(get_scenario("CE5.7"))
    assert any("0.7" in w for w in rec.warnings)
    assert any("0.1" in w for w in rec.warnings)
    assert run_scenario(get_scenario("EX4.1")).warnings == ()


def test_unknown_catalog_id():
    with pytest.raises(ScenarioFormatError, match="unknown catalog"):
        get_scenario("EX9.9")


def test_judge_agreement_logic():
    from mixorder.scenarios import Expected

    verdict = run_scenario(get_scenario("EX4.1")).order_verdict
    holds = Expected(OrderKind.ST, holds=True, direction=Direction.U_LEQ_V)
    fails = Expected(OrderKind.ST, holds=False, direction=Direction.U_LEQ_V)
    assert judge_agreement(holds, verdict) == "AsExpected"
    assert judge_agreement(fails, verdict) == "Contradiction"
