"""Wiring self-test of the benchmark.

    python3 perfbench/selftest.py [--seed 42]

For every workload it makes two traced runs on one seed and one short
untraced run, each through ``run.py`` in its own process, and fails
unless:

* every run is correct; a traced run is correct only if the traced pass
  gave the same item outputs as the untraced pass before it;
* every exact count (``tracing.is_exact``) repeats between the two
  traced runs;
* each layer counter predicted to work on a workload is non-zero there,
  and each one predicted idle is zero, which catches a wrapper bound to
  a name that nothing looks up;
* every metric named in ``BENCHMARK.json`` is reported, with its unit.

It exits 0 when all checks pass and 1 otherwise, naming each failure.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_KERNELS = ("baseline.cdf.points", "baseline.pdf.points", "els.cdf.calls", "els.pdf.calls",
            "mixture.cdf.points", "mixture.pdf.points")
_QUANTILES = ("mixture.quantile.calls", "numerics.bisect_nondecreasing.calls",
              "numerics.expand_upper_bracket.calls")
_GRID_AND_CHECKS = ("analysis.auto_grid.calls", "baseline.quantile.calls",
                    "conditions.eval.calls", "conditions.baseline_check.calls",
                    "analysis.classify_monotonicity.calls",
                    *(f"analysis.check.{o}.calls" for o in tracing.ORDERS))
_CLI = ("cli.main.calls", "scenarios.run_scenario.calls", "scenarios.scenario_grid.calls",
        "reporting.dumps.calls", "reporting.dumps.bytes")
_QUADRATURE = ("numerics.adaptive_simpson.calls", "numerics.adaptive_simpson.panels",
               "numerics.adaptive_simpson.integrand_calls", "mixture.pdf_at_offset.calls",
               "els.pdf_at_offset.calls", "baseline.offset.calls",
               "mixture.verify_normalization.calls")
_RECORDS = ("reporting.write_csv.calls", "reporting.write_csv.bytes")

#: per workload: counters predicted to work, and counters predicted idle
PREDICTED = {
    "sweep": (_KERNELS + _QUANTILES + _GRID_AND_CHECKS + ("baseline.pdf_prime.calls",),
              _CLI + _QUADRATURE + _RECORDS),
    "catalog": (_KERNELS + _QUANTILES + _GRID_AND_CHECKS + _CLI + _RECORDS, _QUADRATURE),
    "refine": (_KERNELS + _QUANTILES + _GRID_AND_CHECKS + _CLI, _QUADRATURE + _RECORDS),
    "normalize": (_QUADRATURE + _QUANTILES + ("baseline.cdf.calls", "mixture.cdf.calls"),
                  _GRID_AND_CHECKS + _CLI + _RECORDS),
}


def run(workload, seed, trace, seconds=2):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2].removeprefix("# detail ")), json.loads(lines[-1])


def check_workload(name, seed, spec):
    problems = []
    traced = [run(name, seed, 1) for _ in range(2)]
    plain = run(name, seed, 0)
    for label, (detail, result) in (("traced run 1", traced[0]), ("traced run 2", traced[1]),
                                    ("untraced run", plain)):
        if not result["correct"]:
            problems.append(f"{label} incorrect: {detail['first_failures']}")
    (_, first), (_, second) = traced
    values = {k: v["value"] for k, v in first["metrics"].items()}
    for metric in sorted(values):
        if tracing.is_exact(metric) and values[metric] != second["metrics"][metric]["value"]:
            problems.append(f"{metric} does not repeat: {values[metric]} vs "
                            f"{second['metrics'][metric]['value']}")
    busy, idle = PREDICTED[name]
    problems += [f"{m} is 0, predicted non-zero" for m in busy if not values[m]]
    problems += [f"{m} is {values[m]}, predicted 0" for m in idle if values[m]]
    for group, result in (("per_layer", first), ("end_to_end", plain[1])):
        for entry in spec[group]:
            got = result["metrics"].get(entry["name"])
            if got is None or got["unit"] != entry["unit"]:
                problems.append(f"{group} metric {entry['name']} missing or unit differs: {got}")
    return problems


def main(argv=None):
    p = argparse.ArgumentParser(description="benchmark wiring self-test")
    p.add_argument("--seed", type=int, default=42)
    args = p.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    failed = False
    for w in spec["workloads"]:
        problems = check_workload(w["name"], args.seed, spec)
        print(f"{w['name']}: {'ok' if not problems else 'FAIL'}")
        for line in problems:
            print(f"  {line}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
