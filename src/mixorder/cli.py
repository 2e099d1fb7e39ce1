"""Command-line front end.

Machine-readable output (one JSON document, or CSV for ``eval``) goes to
stdout; human-readable summaries go to stderr. Exit codes: 0 success or
order holds, 1 checked-and-fails (or any contradiction), 2 usage or
evaluation error. Identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import math
import os
import sys

import numpy as np

from .analysis import (
    CHECKERS,
    DEFAULT_POINTS,
    Direction,
    Grid,
    Monotonicity,
    OrderKind,
    PairSample,
    QUANTITIES,
    auto_grid,
    check_order,
    check_points,
    implication_audit,
)
from .conditions import THEOREM_EVALUATORS
from .errors import MixorderError, ParameterError
from .mixture import verify_normalization
from .reporting import dumps, write_csv
from .scenarios import (
    Expected,
    catalog_ids,
    evaluate_theorem,
    get_scenario,
    judge_agreement,
    load_mixture,
    load_scenario,
    run_scenario,
    scenario_grid,
)

def _err(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _results_dir(args):
    return args.results_dir or os.environ.get("STOCHORDER_RESULTS_DIR") or "results"


def _resolve_scenario(source):
    return get_scenario(source) if source in catalog_ids() else load_scenario(source)


def _points(n):
    """The ``--points`` count ``n``, checked before any quantile root runs."""
    try:
        return check_points(n)
    except ParameterError as exc:
        raise MixorderError(f"bad --points value: {exc}") from None


def _grid(args, auto):
    """The ``--grid`` window, else ``auto(n_points)`` with ``--points``.

    A grid flag that the chosen grid would ignore is an error.
    """
    if args.grid is None:
        if args.log_grid:
            raise MixorderError("--log-grid applies only to an explicit --grid")
        return auto(_points(DEFAULT_POINTS if args.points is None else args.points))
    if args.points is not None:
        raise MixorderError("--points sets the automatic grid; --grid gives its own count")
    try:
        lo, hi, n = args.grid.split(":")
        return Grid(float(lo), float(hi), int(n), "logarithmic" if args.log_grid else "linear")
    except (ValueError, ParameterError) as exc:
        raise MixorderError(f"bad --grid value {args.grid!r}: {exc}") from None


def _grid_for(scenario, args):
    return _grid(args, lambda n: scenario_grid(scenario, n))


def _check_kwargs(args, order):
    """``--tol`` as the checker's pointwise ``tol`` (st) or its ``rel_tol``."""
    if args.tol is None:
        return {}
    return {"tol" if order is OrderKind.ST else "rel_tol": args.tol}


# -------------------------------------------------------------- eval


def cmd_eval(args):
    scenario = _resolve_scenario(args.source)
    sample = PairSample(*scenario.mixtures(), _grid_for(scenario, args))
    q = args.quantity
    columns = QUANTITIES[q](sample)
    header = ["x", *columns]
    cols = [sample.x, *columns.values()]
    if all(np.all(~np.isfinite(np.asarray(c, dtype=float))) for c in cols[1:]):
        raise MixorderError(f"quantity {q!r} is undefined on the entire grid")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, header, cols)
        print(f"wrote {len(sample.x)} rows to {args.out}", file=sys.stderr)
    else:
        write_csv(sys.stdout, header, cols)
    return 0


# -------------------------------------------------------------- check-order


def cmd_check_order(args):
    order = OrderKind(args.order)
    if len(args.source) == 1:
        scenario = _resolve_scenario(args.source[0])
        u, v = scenario.mixtures()
        grid = _grid_for(scenario, args)
        pair_id = scenario.scenario_id
    elif len(args.source) == 2:
        u, v = (load_mixture(path) for path in args.source)
        grid = _grid(args, lambda n: auto_grid(u, v, n))
        pair_id = f"{args.source[0]}|{args.source[1]}"
    else:
        raise MixorderError("check-order takes one scenario or two mixture files")
    # rh and lr also audit the lr => rh => st chain. Each order runs once on
    # the one sample, the asked one first; both ratio checks take --tol, and
    # the audit's st check keeps its pointwise default.
    chain = (OrderKind.ST, OrderKind.RH, OrderKind.LR)
    kinds = dict.fromkeys((order, *chain)) if order in chain[1:] else (order,)
    sample = PairSample(u, v, grid)
    verdicts = {}
    for k in kinds:
        kwargs = _check_kwargs(args, k) if k is order or k is not OrderKind.ST else {}
        verdicts[k] = CHECKERS[k](sample, pair_id=pair_id, **kwargs)
    verdict = verdicts[order]
    report = {
        "command": "check-order",
        "pair": pair_id,
        "order": order.value,
        "asked_direction": args.direction,
        "grid": grid.signature(),
        "tolerances": {"tol": args.tol},
        "verdict": verdict,
    }
    if len(verdicts) > 1:
        report["implication_audit"] = implication_audit(*(verdicts[k] for k in chain))
    print(dumps(report))
    holds = verdict.holds(Direction(args.direction))
    print(
        f"{pair_id}: {order.value} direction {verdict.direction.value} "
        f"({'holds' if holds else 'does not hold'} as asked)",
        file=sys.stderr,
    )
    return 0 if holds else 1


# -------------------------------------------------------------- check-theorem


def cmd_check_theorem(args):
    scenario = _resolve_scenario(args.source)
    theorem = args.theorem
    grid = _grid_for(scenario, args)  # grid flags are checked before any condition runs
    report = evaluate_theorem(scenario, theorem)
    order = report.predicted_order
    verdict = check_order(order, *scenario.mixtures(), grid, pair_id=scenario.scenario_id,
                          **_check_kwargs(args, order))
    # the r_rh direction convention is ambiguous, so its prediction is the ratio trend
    if order is OrderKind.R_RH:
        prediction = Expected(order, ratio=Monotonicity.NON_INCREASING)
    else:
        prediction = Expected(order, holds=True, direction=report.predicted_direction)
    prediction_met = judge_agreement(prediction, verdict) == "AsExpected"
    doc = {
        "command": "check-theorem",
        "scenario": scenario.scenario_id,
        "theorem": theorem,
        "conditions": report,
        "all_pass": report.all_pass,
        "predicted": {
            "order": report.predicted_order.value,
            "direction": report.predicted_direction.value,
        },
        "grid": grid.signature(),
        "actual_verdict": verdict,
        "prediction_met": prediction_met,
    }
    print(dumps(doc))
    print(
        f"{scenario.scenario_id} {theorem}: conditions "
        f"{'all pass' if report.all_pass else 'FAIL'}; predicted "
        f"{report.predicted_order.value} {'met' if prediction_met else 'not met'}",
        file=sys.stderr,
    )
    return 0 if (report.all_pass and prediction_met) else 1


# -------------------------------------------------------------- reproduce


def _record_row(record):
    verdict = record.order_verdict
    report = record.condition_report
    ratio = (
        verdict.ratio_classification.classification.value
        if verdict.ratio_classification
        else None
    )
    return {
        "id": record.scenario_id,
        "theorem": report.theorem_id,
        "conditions_all_pass": report.all_pass,
        "failed_items": [i.name for i in report.items if not i.passed],
        "order": verdict.order.value,
        "direction": verdict.direction.value,
        "ratio_classification": ratio,
        "points_used": verdict.points_used,
        "agreement": record.agreement,
        "warnings": list(record.warnings),
    }


def _persist_record(record, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S_%f")
    base = f"{record.scenario_id.replace('.', '_')}_{stamp}"
    curve_name = f"{base}_curves.csv"
    x = record.curves["x"]
    names = [k for k in record.curves if k != "x"]
    with open(os.path.join(out_dir, curve_name), "w", encoding="utf-8", newline="") as fh:
        write_csv(fh, ["x"] + names, [x] + [record.curves[k] for k in names])
    doc = {
        "scenario_id": record.scenario_id,
        "timestamp": record.timestamp,
        "grid": record.grid,
        "agreement": record.agreement,
        "warnings": list(record.warnings),
        "condition_report": record.condition_report,
        "order_verdict": record.order_verdict,
        "curve_file": curve_name,
    }
    with open(os.path.join(out_dir, f"{base}.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
        fh.write("\n")


def cmd_reproduce(args):
    if args.all and args.ids:
        raise MixorderError("--all runs every scenario; give scenario ids or --all, not both")
    ids = list(args.ids) or catalog_ids()
    n_points = _points(args.points)
    records = [run_scenario(_resolve_scenario(i), n_points=n_points) for i in ids]
    out_dir = _results_dir(args)
    if not args.no_records:
        for record in records:
            _persist_record(record, out_dir)
    rows = [_record_row(r) for r in records]
    contradictions = sum(1 for r in records if r.agreement != "AsExpected")
    doc = {
        "command": "reproduce",
        "points": args.points,
        "scenarios": len(rows),
        "contradictions": contradictions,
        "rows": rows,
    }
    print(dumps(doc))
    width = max(len(r["id"]) for r in rows)
    for r in rows:
        print(
            f"{r['id']:{width}s}  {r['theorem']:5s} "
            f"conditions={'pass' if r['conditions_all_pass'] else 'fail':4s} "
            f"{r['order']:4s} {r['direction']:7s} {r['agreement']}",
            file=sys.stderr,
        )
    print(
        f"{len(rows)} scenarios, {contradictions} contradictions"
        + ("" if args.no_records else f"; records in {out_dir}/"),
        file=sys.stderr,
    )
    return 1 if contradictions else 0


# -------------------------------------------------------------- validate


def cmd_validate(args):
    items = []
    for path in args.scenario:
        try:
            s = load_scenario(path)
            for label, mix in zip(("U", "V"), s.mixtures()):
                rep = verify_normalization(mix, tol=1e-6)
                if not rep.passed:
                    raise MixorderError(
                        f"mixture {label} density integrates to {rep.integral!r}"
                    )
            agreement = run_scenario(s).agreement
            passed, detail = True, f"loaded, normalized, order check ran ({agreement})"
        except MixorderError as exc:
            passed, detail = False, str(exc)
        items.append({"name": f"scenario:{path}", "passed": passed, "detail": detail})

    failed = [i for i in items if not i["passed"]]
    doc = {
        "command": "validate",
        "items": items,
        "passed": len(items) - len(failed),
        "failed": len(failed),
    }
    print(dumps(doc))
    for i in items:
        print(f"{'PASS' if i['passed'] else 'FAIL'} {i['name']}: {i['detail']}",
              file=sys.stderr)
    return 0 if not failed else 1


# -------------------------------------------------------------- parser


def _nonnegative_float(text):
    """An argparse ``type``: ``float(text)``, which must be finite and >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


_nonnegative_float.__name__ = "float"  # argparse names it in "invalid float value"


def _add_grid(p):
    p.add_argument("--grid", help="explicit grid lo:hi:n")
    p.add_argument("--log-grid", action="store_true",
                   help="logarithmic spacing for --grid")
    p.add_argument("--points", type=int,
                   help=f"auto-grid point count (default {DEFAULT_POINTS})")


def _add_check(p):
    _add_grid(p)
    p.add_argument("--tol", type=_nonnegative_float,
                   help="dominance tolerance (st) or ratio tolerance (others)")


@functools.cache
def build_parser():
    """The CLI parser, built once per process; every ``parse_args`` call
    starts from a fresh namespace, so no option value carries over."""
    parser = argparse.ArgumentParser(
        prog="mixorder",
        description="Construct exponentiated location-scale mixtures and "
                    "verify stochastic orderings between them.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("eval", help="emit curve data as CSV")
    p.add_argument("source", help="catalog id or scenario file")
    p.add_argument("quantity", choices=list(QUANTITIES))
    p.add_argument("--out", help="write CSV here instead of stdout")
    _add_grid(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check-order", help="run one stochastic-order check")
    p.add_argument("source", nargs="+",
                   help="catalog id, scenario file, or two mixture files")
    p.add_argument("--order", required=True, choices=[k.value for k in OrderKind])
    p.add_argument("--direction", choices=["UleqV", "VleqU"], default="UleqV",
                   help="direction whose holding sets the exit code")
    _add_check(p)
    p.set_defaults(fn=cmd_check_order)

    p = sub.add_parser("check-theorem", help="evaluate a theorem's conditions")
    p.add_argument("source", help="catalog id or scenario file")
    p.add_argument("--theorem", required=True, choices=sorted(THEOREM_EVALUATORS))
    _add_check(p)
    p.set_defaults(fn=cmd_check_theorem)

    p = sub.add_parser("reproduce", help="run built-in scenarios and compare "
                                         "against expected outcomes")
    p.add_argument("ids", nargs="*", help="scenario ids (default: all)")
    p.add_argument("--all", action="store_true")
    p.add_argument("--points", type=int, default=DEFAULT_POINTS)
    p.add_argument("--results-dir", default=None,
                   help="record directory (default: env STOCHORDER_RESULTS_DIR, "
                        "else ./results)")
    p.add_argument("--no-records", action="store_true",
                   help="skip writing per-run record files")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("validate", help="load scenario files, check that both "
                                        "densities integrate to 1, run their order checks")
    p.add_argument("--scenario", action="append", required=True,
                   help="scenario file to validate (repeatable)")
    p.set_defaults(fn=cmd_validate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (MixorderError, OSError) as exc:
        return _err(exc)


if __name__ == "__main__":
    sys.exit(main())
