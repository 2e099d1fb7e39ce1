"""Command-line front end.

Machine-readable output (one JSON document, or CSV for ``eval``) goes to
stdout; human-readable summaries go to stderr. Exit codes: 0 success or
order holds, 1 checked-and-fails (or any contradiction), 2 usage or
evaluation error. Identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import warnings

import numpy as np

from . import _sampling
import dataclasses

from .analysis import (
    CHECKERS,
    DEFAULT_POINTS,
    Direction,
    Grid,
    Monotonicity,
    OrderKind,
    PairSample,
    auto_grid,
    check_likelihood_ratio,
    check_order,
    check_reversed_hazard,
    check_usual_stochastic,
    implication_audit,
)
from .conditions import OUTLIER_THEOREMS, THEOREM_EVALUATORS, check_majorization
from .errors import MixorderError, ScenarioFormatError, TheoremShapeError
from .mixture import FiniteMixture, WeightPolicy, verify_normalization
from .numerics import DENOM_FLOOR, central_difference
from .reporting import dumps, to_jsonable, write_csv
from .scenarios import (
    _need,
    builtin_catalog,
    catalog_ids,
    get_scenario,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_grid,
)

_QUANTITIES = ("cdf", "pdf", "sf", "rhr", "cdf_ratio", "pdf_ratio", "rhr_ratio")


def _err(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _results_dir(args):
    d = os.environ.get("STOCHORDER_RESULTS_DIR") or getattr(args, "results_dir", None)
    return d or "results"


def _resolve_scenario(source, policy=None):
    if source in catalog_ids():
        s = get_scenario(source)
    else:
        s = load_scenario(source)
    if policy:
        s = dataclasses.replace(s, weight_policy=WeightPolicy(policy))
    return s


def _parse_grid(args):
    if args.grid:
        try:
            lo, hi, n = args.grid.split(":")
            return Grid(float(lo), float(hi), int(n),
                        "logarithmic" if args.log_grid else "linear")
        except ValueError as exc:
            raise MixorderError(f"bad --grid value {args.grid!r}: {exc}") from None
    return None


def _grid_for(scenario, args):
    return _parse_grid(args) or scenario_grid(scenario, args.points)


def _check_kwargs(args, order):
    kwargs = {}
    if order is OrderKind.ST:
        if args.tol is not None:
            kwargs["tol"] = args.tol
    else:
        if args.tol is not None:
            kwargs["rel_tol"] = args.tol
        if args.rh_floor is not None:
            kwargs["floor"] = args.rh_floor
    return kwargs


# -------------------------------------------------------------- eval


def cmd_eval(args):
    scenario = _resolve_scenario(args.source, args.policy)
    sample = PairSample(*scenario.mixtures(), _grid_for(scenario, args))
    floor = args.rh_floor if args.rh_floor is not None else DENOM_FLOOR
    q = args.quantity
    columns = sample.columns(q, floor)
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


def _load_mixture_file(path, policy=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioFormatError(str(exc), location=str(path)) from None
    # reuse the scenario mixture schema with a private single-mixture wrapper
    mixture = _need(data, "mixture", str(path))
    wrapper = {
        "id": "adhoc",
        "baseline": _need(data, "baseline", str(path)),
        "mixtures": [mixture, mixture],
        "theorem": "T3.1",
        "order": "st",
        "expected": {"order": "st"},
        "weight_policy": policy or data.get("weight_policy", "strict"),
    }
    scenario = scenario_from_dict(wrapper, where=str(path))
    u, _ = scenario.mixtures()
    return u


def cmd_check_order(args):
    order = OrderKind(args.order)
    if len(args.source) == 1:
        scenario = _resolve_scenario(args.source[0], args.policy)
        u, v = scenario.mixtures()
        grid = _grid_for(scenario, args)
        pair_id = scenario.scenario_id
    elif len(args.source) == 2:
        u = _load_mixture_file(args.source[0], args.policy)
        v = _load_mixture_file(args.source[1], args.policy)
        grid = _parse_grid(args) or auto_grid(u, v, args.points)
        pair_id = f"{args.source[0]}|{args.source[1]}"
    else:
        raise MixorderError("check-order takes one scenario or two mixture files")
    sample = PairSample(u, v, grid)
    verdict = CHECKERS[order](sample, pair_id=pair_id, **_check_kwargs(args, order))
    report = {
        "command": "check-order",
        "pair": pair_id,
        "order": order.value,
        "asked_direction": args.direction,
        "grid": grid.signature(),
        "tolerances": {"tol": args.tol, "rh_floor": args.rh_floor},
        "verdict": to_jsonable(verdict),
    }
    if order in (OrderKind.RH, OrderKind.LR):
        st = check_usual_stochastic(sample, pair_id=pair_id)
        rh = (
            verdict
            if order is OrderKind.RH
            else check_reversed_hazard(sample, pair_id=pair_id)
        )
        lr = (
            verdict
            if order is OrderKind.LR
            else check_likelihood_ratio(sample, pair_id=pair_id)
        )
        audit = implication_audit(st, rh, lr)
        report["implication_audit"] = to_jsonable(audit)
    print(dumps(report, indent=2))
    holds = verdict.direction in (Direction(args.direction), Direction.BOTH)
    print(
        f"{pair_id}: {order.value} direction {verdict.direction.value} "
        f"({'holds' if holds else 'does not hold'} as asked)",
        file=sys.stderr,
    )
    return 0 if holds else 1


# -------------------------------------------------------------- check-theorem


def cmd_check_theorem(args):
    scenario = _resolve_scenario(args.source, args.policy)
    theorem = args.theorem
    if theorem not in THEOREM_EVALUATORS:
        raise MixorderError(f"unknown theorem {theorem!r}")
    u, v = scenario.mixtures()
    if theorem in OUTLIER_THEOREMS:
        specs = scenario.outlier_specs()
        if specs is None:
            raise TheoremShapeError(
                f"{theorem} applies to two-block outlier mixtures only"
            )
        report = THEOREM_EVALUATORS[theorem](*specs)
    else:
        report = THEOREM_EVALUATORS[theorem](u, v)
    grid = _grid_for(scenario, args)
    kwargs = _check_kwargs(args, report.predicted_order)
    verdict = check_order(
        report.predicted_order, u, v, grid, pair_id=scenario.scenario_id, **kwargs
    )
    if report.predicted_order is OrderKind.R_RH:
        prediction_met = verdict.ratio_classification.classification in (
            Monotonicity.NON_INCREASING,
            Monotonicity.CONSTANT,
        )
    else:
        prediction_met = verdict.direction in (report.predicted_direction, Direction.BOTH)
    doc = {
        "command": "check-theorem",
        "scenario": scenario.scenario_id,
        "theorem": theorem,
        "conditions": to_jsonable(report),
        "all_pass": report.all_pass,
        "predicted": {
            "order": report.predicted_order.value,
            "direction": report.predicted_direction.value,
        },
        "grid": grid.signature(),
        "actual_verdict": to_jsonable(verdict),
        "prediction_met": prediction_met,
    }
    print(dumps(doc, indent=2))
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
        "condition_report": to_jsonable(record.condition_report),
        "order_verdict": to_jsonable(record.order_verdict),
        "curve_file": curve_name,
    }
    with open(os.path.join(out_dir, f"{base}.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps(doc, indent=2))
        fh.write("\n")


def cmd_reproduce(args):
    ids = catalog_ids() if args.all or not args.ids else list(args.ids)
    records = [run_scenario(_resolve_scenario(i), n_points=args.points) for i in ids]
    out_dir = _results_dir(args)
    if not args.no_records:
        for record in records:
            _persist_record(record, out_dir)
    rows = [_record_row(r) for r in records]
    contradictions = sum(1 for r in records if r.agreement != "AsExpected")
    doc = {
        "command": "reproduce",
        "points": args.points,
        "seed": args.seed,
        "scenarios": len(rows),
        "contradictions": contradictions,
        "rows": rows,
    }
    print(dumps(doc, indent=2))
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


def _robin_hood(rng, v):
    """One rich-to-poor transfer; result is majorized by the input."""
    v = np.sort(v)[::-1].copy()
    d = rng.uniform(0.0, 0.45 * (v[0] - v[-1])) if v[0] > v[-1] else 0.0
    v[0] -= d
    v[-1] += d
    return v


def _brute_majorization(x, y, tol=1e-12):
    xs, ys = sorted(x), sorted(y)
    if abs(sum(xs) - sum(ys)) > tol:
        return False
    run_x = run_y = 0.0
    for j in range(len(xs) - 1):
        run_x += xs[j]
        run_y += ys[j]
        if run_x < run_y - tol:
            return False
    return True


def cmd_validate(args):
    rng = np.random.default_rng(args.seed)
    items = []

    def add(name, passed, detail):
        items.append({"name": name, "passed": bool(passed), "detail": detail})

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # density normalization across the catalog
        bad = []
        count = 0
        for s in builtin_catalog():
            for label, mix in zip(("U", "V"), s.mixtures()):
                count += 1
                rep = verify_normalization(mix, tol=1e-6)
                if not rep.passed:
                    bad.append(f"{s.scenario_id}/{label}: {rep.integral!r}")
        add(
            "normalization_catalog",
            not bad,
            f"{count} integrals within 1e-6 of 1" if not bad else "; ".join(bad),
        )

        # implication chain on the catalog and on random pairs
        def audit_pair(u, v, pair_id):
            sample = PairSample(u, v, auto_grid(u, v))
            st = check_usual_stochastic(sample, tol=1e-9, pair_id=pair_id)
            rh = check_reversed_hazard(sample, rel_tol=1e-9, pair_id=pair_id)
            lr = check_likelihood_ratio(sample, rel_tol=1e-9, pair_id=pair_id)
            return implication_audit(st, rh, lr)

        bad = []
        for s in builtin_catalog():
            audit = audit_pair(*s.mixtures(), s.scenario_id)
            if not audit.consistent:
                bad.append(f"{s.scenario_id}: {audit.detail}")
        add("chain_audit_catalog", not bad, "16 scenario chains consistent"
            if not bad else "; ".join(bad))

        bad = []
        done = 0
        while done < args.pairs:
            u, v = _sampling.random_pair(rng)
            try:
                audit = audit_pair(u, v, f"random-{done}")
            except MixorderError:
                continue
            if not audit.consistent:
                bad.append(f"pair {done}: {audit.detail}")
            done += 1
        add("chain_audit_random", not bad, f"{args.pairs} random chains consistent"
            if not bad else "; ".join(bad))

        # majorization axioms against a brute-force oracle
        bad = 0
        trials = 300
        for _ in range(trials):
            n = int(rng.integers(1, 9))
            x = rng.uniform(0.0, 5.0, size=n)
            res = check_majorization(x, np.asarray(rng.permutation(x)))
            if not (res.x_majorized_by_y and res.y_majorized_by_x):
                bad += 1
            z = rng.uniform(0.0, 5.0, size=max(n, 2))
            y2 = _robin_hood(rng, z)
            x2 = _robin_hood(rng, y2)
            if not (
                check_majorization(x2, y2).x_majorized_by_y
                and check_majorization(y2, z).x_majorized_by_y
                and check_majorization(x2, z).x_majorized_by_y
            ):
                bad += 1
            a = rng.uniform(0.0, 5.0, size=n)
            b = rng.uniform(0.0, 5.0, size=n)
            res = check_majorization(a, b)
            if res.x_majorized_by_y != _brute_majorization(a, b) or (
                res.y_majorized_by_x != _brute_majorization(b, a)
            ):
                bad += 1
        add("majorization_axioms", bad == 0,
            f"{trials} reflexivity/transitivity/oracle trials" if bad == 0
            else f"{bad} trials failed")

        # derivative consistency on catalog mixtures
        worst = 0.0
        for s in builtin_catalog():
            u, v = s.mixtures()
            for mix in (u, v):
                lo = mix.support_start
                hi = mix.quantile(0.999)
                breaks = np.asarray(mix.support_breaks)
                picked = 0
                while picked < 20:
                    t = rng.uniform(lo, hi)
                    h = 1e-5 * max(1.0, abs(t))
                    # density curvature scales like (shape-1)(shape-2)/d^2
                    # near a support kink at distance d; 1e4*h bounds the
                    # second-order term below 3e-7 for shapes up to 14
                    if np.min(np.abs(breaks - t)) < 1e4 * h:
                        continue
                    picked += 1
                    num = float(central_difference(mix.cdf, t))
                    den = float(mix.pdf(t))
                    if den > 1e-300:
                        worst = max(worst, abs(num - den) / den)
        add("derivative_consistency", worst < 1e-6,
            f"worst relative mismatch {worst:.3e}")

        # user scenarios, if any
        for path in args.scenario or []:
            try:
                s = load_scenario(path)
                for label, mix in zip(("U", "V"), s.mixtures()):
                    rep = verify_normalization(mix, tol=1e-6)
                    if not rep.passed:
                        raise MixorderError(
                            f"mixture {label} density integrates to {rep.integral!r}"
                        )
                record = run_scenario(s)
                add(f"scenario:{path}", True,
                    f"loaded, normalized, order check ran ({record.agreement})")
            except MixorderError as exc:
                add(f"scenario:{path}", False, str(exc))

    failed = [i for i in items if not i["passed"]]
    doc = {
        "command": "validate",
        "seed": args.seed,
        "items": items,
        "passed": len(items) - len(failed),
        "failed": len(failed),
    }
    print(dumps(doc, indent=2))
    for i in items:
        print(f"{'PASS' if i['passed'] else 'FAIL'} {i['name']}: {i['detail']}",
              file=sys.stderr)
    return 0 if not failed else 1


# -------------------------------------------------------------- experiment


def cmd_experiment(args):
    """Unequal mixing proportions under the componentwise-dominance setup.

    Whether the usual stochastic order survives dropping the common-weight
    requirement (keeping a prefixwise r >= s) is open; this runs seeded
    trials and reports counts without asserting anything.
    """
    rng = np.random.default_rng(args.seed)
    held = 0
    trials = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(args.trials):
            u, v = _sampling.pair_t3_1(rng)
            n = len(u)
            w_u = np.sort(rng.uniform(0.05, 1.0, size=n))[::-1]
            w_u = w_u / w_u.sum()
            # prefixwise smaller weights for the dominating mixture
            shrink = rng.uniform(0.5, 1.0, size=n - 1)
            w_v = np.concatenate([w_u[:-1] * shrink, [0.0]])
            w_v[-1] = 1.0 - w_v[:-1].sum()
            u = FiniteMixture(u.components, w_u)
            v = FiniteMixture(v.components, w_v)
            verdict = check_order(OrderKind.ST, u, v, auto_grid(u, v), pair_id=f"exp-{i}")
            ok = verdict.direction in (Direction.U_LEQ_V, Direction.BOTH)
            held += ok
            trials.append({"trial": i, "direction": verdict.direction.value})
    doc = {
        "command": "experiment-unequal-weights",
        "seed": args.seed,
        "trials": args.trials,
        "held": held,
        "note": "exploratory only; no conclusion is asserted",
        "results": trials,
    }
    print(dumps(doc, indent=2))
    print(f"usual stochastic order held in {held}/{args.trials} trials "
          "(exploratory, not a theorem)", file=sys.stderr)
    return 0


# -------------------------------------------------------------- parser


def _add_common(p, grid=True):
    if grid:
        p.add_argument("--grid", help="explicit grid lo:hi:n")
        p.add_argument("--log-grid", action="store_true",
                       help="logarithmic spacing for --grid")
        p.add_argument("--points", type=int, default=DEFAULT_POINTS,
                       help="auto-grid point count")
    p.add_argument("--tol", type=float, default=None,
                   help="dominance tolerance (st) or ratio tolerance (others)")
    p.add_argument("--rh-floor", type=float, default=None,
                   help="denominator floor for restricted domains")
    p.add_argument("--policy", choices=["strict", "autonorm"], default=None,
                   help="weight policy override for loaded files")
    p.add_argument("--seed", type=int, default=42)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mixorder",
        description="Construct exponentiated location-scale mixtures and "
                    "verify stochastic orderings between them.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("eval", help="emit curve data as CSV")
    p.add_argument("source", help="catalog id or scenario file")
    p.add_argument("quantity", choices=_QUANTITIES)
    p.add_argument("--out", help="write CSV here instead of stdout")
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check-order", help="run one stochastic-order check")
    p.add_argument("source", nargs="+",
                   help="catalog id, scenario file, or two mixture files")
    p.add_argument("--order", required=True, choices=[k.value for k in OrderKind])
    p.add_argument("--direction", choices=["UleqV", "VleqU"], default="UleqV",
                   help="direction whose holding sets the exit code")
    _add_common(p)
    p.set_defaults(fn=cmd_check_order)

    p = sub.add_parser("check-theorem", help="evaluate a theorem's conditions")
    p.add_argument("source", help="catalog id or scenario file")
    p.add_argument("--theorem", required=True, choices=sorted(THEOREM_EVALUATORS))
    _add_common(p)
    p.set_defaults(fn=cmd_check_theorem)

    p = sub.add_parser("reproduce", help="run built-in scenarios and compare "
                                         "against expected outcomes")
    p.add_argument("ids", nargs="*", help="scenario ids (default: all)")
    p.add_argument("--all", action="store_true")
    p.add_argument("--points", type=int, default=DEFAULT_POINTS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--results-dir", default=None,
                   help="record directory (or env STOCHORDER_RESULTS_DIR)")
    p.add_argument("--no-records", action="store_true",
                   help="skip writing per-run record files")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("validate", help="run the property and invariant suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--pairs", type=int, default=50,
                   help="random pairs for the implication audit")
    p.add_argument("--scenario", action="append",
                   help="also validate this scenario file (repeatable)")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("experiment-unequal-weights",
                       help="exploratory runs for the open unequal-weights case")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MixorderError as exc:
        return _err(exc)
    except OSError as exc:
        return _err(exc)


if __name__ == "__main__":
    sys.exit(main())
