"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s or -v plus -rA to
see them collected). Tolerances are pinned here, not configurable.

Criterion 5 note: the randomized soundness sweep is implemented exactly
as stated. Six of the seven condition sets are confirmed sound at every
draw; the two-block likelihood-ratio comparison (T4.2) genuinely fails
for a large fraction of parameter sets that satisfy all of its stated
hypotheses (verified against a 40-digit independent oracle, see the
project notes), so that assertion is expected to stay red until the
underlying sufficient conditions are repaired.
"""

import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np

import mixorder
from mixorder import (
    Direction,
    Monotonicity,
    OrderKind,
    PairSample,
    auto_grid,
    check_likelihood_ratio,
    check_majorization,
    check_order,
    check_reversed_hazard,
    check_usual_stochastic,
    builtin_catalog,
    get_scenario,
    implication_audit,
    run_scenario,
    verify_normalization,
)
from mixorder import _sampling
from mixorder.conditions import THEOREM_EVALUATORS
from mixorder.errors import MixorderError
from mixorder.numerics import central_difference


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ----------------------------------------------------------- criterion 1

C1_EXPECTED = {
    "EX4.1": {"holds": True, "direction": Direction.U_LEQ_V, "ratio": None},
    "CE4.1": {"holds": False, "direction": Direction.U_LEQ_V, "ratio": None},
    "CE4.2": {"ratio": Monotonicity.NON_MONOTONE},
    "CE4.22": {"ratio": Monotonicity.NON_MONOTONE},
    "EX4.2": {"holds": True, "direction": Direction.U_LEQ_V,
              "ratio": Monotonicity.NON_DECREASING},
    "CE4.3": {"ratio": Monotonicity.NON_MONOTONE},
    "EX4.3": {"holds": True, "direction": Direction.U_LEQ_V,
              "ratio": Monotonicity.NON_DECREASING},
    "CE4.4": {"ratio": Monotonicity.NON_MONOTONE},
    "EX4.4": {"holds": True, "direction": Direction.U_LEQ_V, "ratio": None},
    "CE5.6": {"holds": False, "direction": Direction.U_LEQ_V, "ratio": None},
    "EX5.5": {"holds": True, "direction": Direction.U_LEQ_V,
              "ratio": Monotonicity.NON_DECREASING},
    "CE5.7": {"holds": False, "direction": Direction.U_LEQ_V, "ratio": None},
    # the first mixture dominates: V/U density ratio falls
    "EX5.6": {"holds": True, "direction": Direction.V_LEQ_U,
              "ratio": Monotonicity.NON_INCREASING},
    "CE5.8": {"ratio": Monotonicity.NON_MONOTONE},
    "EX5.7": {"ratio": Monotonicity.NON_INCREASING},
    "CE5.9": {"ratio": Monotonicity.NON_MONOTONE},
}


def test_criterion_1_catalog_fidelity():
    failures = []
    for points in (2001, 4001):
        for scenario in builtin_catalog():
            record = run_scenario(scenario, n_points=points)
            sid = scenario.scenario_id
            if record.agreement != "AsExpected":
                failures.append(f"{sid}@{points}: {record.agreement}")
                continue
            want = C1_EXPECTED[sid]
            verdict = record.order_verdict
            if want.get("ratio") is not None:
                got = verdict.ratio_classification.classification
                if got is not want["ratio"]:
                    failures.append(f"{sid}@{points}: ratio {got.value}")
            if want.get("holds") is not None:
                held = verdict.direction in (want["direction"], Direction.BOTH)
                if held != want["holds"]:
                    failures.append(f"{sid}@{points}: direction {verdict.direction.value}")
    ok = _report(1, not failures,
                 "16 scenarios AsExpected at 2001 and 4001 points"
                 if not failures else "; ".join(failures))
    assert ok, failures


# ----------------------------------------------------------- criterion 2


def test_criterion_2_product_condition_arithmetic():
    cases = [
        ("EX5.5", 0.56, 0.06),
        ("EX5.6", 0.12, 0.32),
        ("CE5.7", 0.009, 0.028),
        ("CE5.8", 0.015, 0.035),
    ]
    failures = []
    for sid, lhs, rhs in cases:
        scenario = get_scenario(sid)
        rep = THEOREM_EVALUATORS[scenario.theorem_id](*scenario.specs)
        if abs(rep.notes["product_lhs"] - lhs) > 1e-12:
            failures.append(f"{sid} lhs {rep.notes['product_lhs']!r} != {lhs}")
        if abs(rep.notes["product_rhs"] - rhs) > 1e-12:
            failures.append(f"{sid} rhs {rep.notes['product_rhs']!r} != {rhs}")
    for sid in ("CE5.7", "CE5.8"):
        if "ten times" not in get_scenario(sid).notes:
            failures.append(f"{sid}: scale discrepancy not flagged in notes")
    ok = _report(2, not failures,
                 "product sides match published values to 1e-12, discrepancies flagged"
                 if not failures else "; ".join(failures))
    assert ok, failures


# ----------------------------------------------------------- criterion 3


def test_criterion_3_normalization():
    worst = 0.0
    failures = []
    for scenario in builtin_catalog():
        for label, mix in zip(("U", "V"), scenario.mixtures()):
            rep = verify_normalization(mix, tol=1e-6)
            worst = max(worst, abs(rep.integral - 1.0))
            if not rep.passed:
                failures.append(f"{scenario.scenario_id}/{label}: {rep.integral!r}")
    ok = _report(3, not failures,
                 f"32 density integrals within 1e-6 of 1 (worst |I-1| = {worst:.2e})"
                 if not failures else "; ".join(failures))
    assert ok, failures


# ----------------------------------------------------------- criterion 4


def _audit(u, v, pair_id):
    grid = auto_grid(u, v)
    sample = PairSample(u, v, grid)
    st = check_usual_stochastic(sample, tol=1e-9, pair_id=pair_id)
    rh = check_reversed_hazard(sample, rel_tol=1e-9, pair_id=pair_id)
    lr = check_likelihood_ratio(sample, rel_tol=1e-9, pair_id=pair_id)
    return implication_audit(st, rh, lr)


def test_criterion_4_implication_chain():
    failures = []
    for scenario in builtin_catalog():
        audit = _audit(*scenario.mixtures(), scenario.scenario_id)
        if not audit.consistent:
            failures.append(f"{scenario.scenario_id}: {audit.detail}")
    rng = np.random.default_rng(42)
    audited = 0
    while audited < 200:
        u, v = _sampling.random_pair(rng)
        try:
            audit = _audit(u, v, f"pair-{audited}")
        except MixorderError:
            continue  # no usable classification domain; draw another pair
        if not audit.consistent:
            failures.append(f"random pair {audited}: {audit.detail}")
        audited += 1
    ok = _report(4, not failures,
                 "no chain violation on 16 catalog + 200 random pairs at 1e-9"
                 if not failures else "; ".join(failures))
    assert ok, failures


# ----------------------------------------------------------- criterion 5


def _sweep_theorem(theorem_id, draws):
    evaluator = THEOREM_EVALUATORS[theorem_id]
    filtered = held = 0
    examples = []
    for trial, draw in enumerate(draws):
        rep = evaluator(*draw.pair)
        if not rep.all_pass:
            continue
        filtered += 1
        verdict = check_order(rep.predicted_order, *draw.mixtures, draw.grid)
        if rep.predicted_order is OrderKind.R_RH:
            ok = verdict.ratio_classification.classification in (
                Monotonicity.NON_INCREASING,
                Monotonicity.CONSTANT,
            )
        else:
            ok = verdict.direction in (rep.predicted_direction, Direction.BOTH)
        held += ok
        if not ok and len(examples) < 3:
            examples.append(trial)
    return filtered, held, examples


def test_criterion_5_theorem_soundness_sweep(sweep_pool):
    # the 500 draws of each theorem from default_rng(42), with their outlier
    # mixtures and auto grids, come from the session's sweep pool
    start = time.time()
    failures = []
    lines = []
    for theorem_id in sorted(_sampling.THEOREM_SAMPLERS):
        filtered, held, examples = _sweep_theorem(theorem_id, sweep_pool[theorem_id])
        lines.append(f"{theorem_id}: {held}/{filtered}")
        if held != filtered:
            failures.append(
                f"{theorem_id}: predicted conclusion failed in "
                f"{filtered - held}/{filtered} condition-satisfying draws "
                f"(first trials {examples})"
            )
    elapsed = time.time() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds the 2 minute budget")
    ok = _report(5, not failures,
                 f"{'; '.join(lines)} in {elapsed:.0f}s"
                 if not failures else "; ".join(failures + lines))
    assert ok, (
        "the two-block likelihood-ratio sufficient conditions do not imply "
        "their stated conclusion on wide grids; see ROADMAP item 2 "
        f"for the oracle-verified counterexample analysis. {failures}"
    )


# ----------------------------------------------------------- criterion 6


def _brute_majorization(x, y, tol=1e-12):
    xs, ys = sorted(x), sorted(y)
    if abs(math.fsum(xs) - math.fsum(ys)) > tol:
        return False
    run_x = run_y = 0.0
    for j in range(len(xs) - 1):
        run_x += xs[j]
        run_y += ys[j]
        if run_x < run_y - tol:
            return False
    return True


def test_criterion_6_majorization_oracle_equivalence():
    rng = np.random.default_rng(42)
    mismatches = 0
    for i in range(10_000):
        n = int(rng.integers(1, 9))
        x = rng.uniform(0.0, 5.0, size=n)
        if i % 3 == 0:
            y = np.asarray(rng.permutation(x))  # equal-sum cases
        elif i % 3 == 1:
            y = np.sort(x)[::-1].copy()
            d = rng.uniform(0.0, 0.5 * (y[0] - y[-1] + 1e-9))
            y[0] -= d
            y[-1] += d
            y = np.asarray(rng.permutation(y))
        else:
            y = rng.uniform(0.0, 5.0, size=n)
        res = check_majorization(x, y)
        if res.x_majorized_by_y != _brute_majorization(x, y):
            mismatches += 1
        if res.y_majorized_by_x != _brute_majorization(y, x):
            mismatches += 1
    ok = _report(6, mismatches == 0,
                 "exact agreement with brute-force prefix sums on 10^4 pairs"
                 if mismatches == 0 else f"{mismatches} mismatches")
    assert ok


# ----------------------------------------------------------- criterion 7


def test_criterion_7_calculus_consistency():
    rng = np.random.default_rng(42)
    worst = 0.0
    where = ""
    for scenario in builtin_catalog():
        for label, mix in zip(("U", "V"), scenario.mixtures()):
            lo = mix.support_start
            hi = mix.quantile(0.999)
            breaks = np.asarray(mix.support_breaks)
            picked = 0
            while picked < 100:
                t = rng.uniform(lo, hi)
                h = 1e-5 * max(1.0, abs(t))
                # second-order error scales with (shape-1)(shape-2)/d^2
                # at distance d from a support kink
                if np.min(np.abs(breaks - t)) < 1e4 * h:
                    continue
                picked += 1
                num = float(central_difference(mix.cdf, t))
                den = float(mix.pdf(t))
                if den <= 1e-300:
                    continue
                rel = abs(num - den) / den
                if rel > worst:
                    worst = rel
                    where = f"{scenario.scenario_id}/{label} at x={t:.6g}"
    ok = _report(7, worst < 1e-6,
                 f"numeric CDF slope matches density to 1e-6 (worst {worst:.2e})"
                 if worst < 1e-6 else f"worst {worst:.2e} at {where}")
    assert ok


# ----------------------------------------------------------- criterion 8


def test_criterion_8_determinism():
    cmd = [
        sys.executable, "-m", "mixorder.cli",
        "reproduce", "--all", "--no-records",
    ]
    # the subprocess imports the same source tree as this test
    src = str(pathlib.Path(mixorder.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    ok = _report(8, first.stdout == second.stdout,
                 "two reproduce runs emit byte-identical reports"
                 if first.stdout == second.stdout else "stdout differs between runs")
    assert ok
    assert first.returncode == 0
