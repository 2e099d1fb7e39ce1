"""Condition reports and sweep verdicts pinned bit for bit.

``tests/data/condition_reports.json`` holds ``to_jsonable(report)`` of every
theorem evaluator on every catalog scenario, and on the first
``SAMPLER_DRAWS`` draws of each theorem sampler from ``default_rng(42)`` (the
sweep's own draws). A mixture draw goes through the four mixture
evaluators, a spec draw through the three outlier ones. Where an evaluator
does not apply it raises ``TheoremShapeError``, and its message is pinned in
place of the report. Every float prints as its shortest round-trip repr, so
one changed bit shows as a changed byte. Re-record with
``python tools/record_pinned.py``.

The sweep verdicts of every ``SWEEP_STRIDE``-th draw of each theorem are
replayed against ``perfbench/sweep_reference.json``, which this reads and
never writes. The same draws' ``auto_grid`` windows are checked against
``tests/data/sweep_windows.json``, which holds ``x_lo`` and ``x_hi`` of all
3500 draws as ``float.hex``: the bits of the quantile roots that end them.
"""

import json
import pathlib

import numpy as np

from mixorder import (
    TheoremShapeError,
    builtin_catalog,
    check_order,
    evaluate_theorem,
)
from mixorder._sampling import THEOREM_SAMPLERS
from mixorder.conditions import OUTLIER_THEOREMS, THEOREM_EVALUATORS
from mixorder.reporting import to_jsonable

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "condition_reports.json"
SWEEP_REFERENCE = ROOT / "perfbench" / "sweep_reference.json"
WINDOWS = ROOT / "tests" / "data" / "sweep_windows.json"
SAMPLER_DRAWS = 20
SWEEP_SEED = 42
SWEEP_STRIDE = 7


def _draws(tid, count):
    rng = np.random.default_rng(SWEEP_SEED)
    return [THEOREM_SAMPLERS[tid](rng) for _ in range(count)]


def pinned_reports():
    """(label, report or the TheoremShapeError raised) of every pinned case, in file order."""
    cases = []
    for scenario in builtin_catalog():
        for tid in THEOREM_EVALUATORS:
            try:
                cases.append((f"{scenario.scenario_id}:{tid}", evaluate_theorem(scenario, tid)))
            except TheoremShapeError as exc:
                cases.append((f"{scenario.scenario_id}:{tid}", exc))
    for sampler in THEOREM_SAMPLERS:
        outlier = sampler in OUTLIER_THEOREMS
        for i, pair in enumerate(_draws(sampler, SAMPLER_DRAWS)):
            for tid, evaluator in THEOREM_EVALUATORS.items():
                if (tid in OUTLIER_THEOREMS) != outlier:
                    continue
                try:
                    cases.append((f"{sampler}:{i}:{tid}", evaluator(*pair)))
                except TheoremShapeError as exc:
                    cases.append((f"{sampler}:{i}:{tid}", exc))
    return cases


def report_json(report):
    if isinstance(report, TheoremShapeError):
        return json.dumps({"raises": str(report)})
    return json.dumps(to_jsonable(report))


def test_condition_reports_match_recorded_bytes():
    recorded = json.loads(DATA.read_text(encoding="utf-8"))
    cases = pinned_reports()
    assert [label for label, _ in cases] == list(recorded)
    for label, report in cases:
        assert report_json(report) == json.dumps(recorded[label]), label
        if not isinstance(report, TheoremShapeError):
            assert all(type(item.passed) is bool for item in report.items), label


def _sweep_output(tid, draw):
    """(all_pass, direction, ratio class) of one draw, as the sweep reference records it."""
    report = THEOREM_EVALUATORS[tid](*draw.pair)
    if not report.all_pass:
        return [False, None, None]
    verdict = check_order(report.predicted_order, *draw.mixtures, draw.grid)
    ratio = verdict.ratio_classification
    return [True, verdict.direction.value, ratio.classification.value if ratio else None]


def test_sweep_draws_match_the_benchmark_reference(sweep_pool):
    reference = json.loads(SWEEP_REFERENCE.read_text(encoding="utf-8"))
    assert reference["pool_seed"] == SWEEP_SEED
    for tid in sorted(THEOREM_SAMPLERS):
        draws = sweep_pool[tid]
        assert len(draws) == reference["draws"]
        for i in range(0, len(draws), SWEEP_STRIDE):
            assert _sweep_output(tid, draws[i]) == reference["theorems"][tid][i], (tid, i)


def sweep_windows(pool):
    """{theorem: ["<x_lo hex> <x_hi hex>" of each draw's ``auto_grid``]}."""
    return {tid: [f"{draw.grid.x_lo.hex()} {draw.grid.x_hi.hex()}" for draw in draws]
            for tid, draws in pool.items()}


def test_sweep_windows_match_recorded_bits(sweep_pool):
    recorded = json.loads(WINDOWS.read_text(encoding="utf-8"))
    windows = sweep_windows(sweep_pool)
    assert list(windows) == list(recorded)
    for tid, rows in windows.items():
        assert len(rows) == len(recorded[tid])
        for i in range(0, len(rows), SWEEP_STRIDE):
            assert rows[i] == recorded[tid][i], (tid, i)
