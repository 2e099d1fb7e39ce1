"""mixorder benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload sweep --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 20

Run from anywhere; the package is imported from ``src/`` beside this
directory, and nothing is installed or built. Each workload runs in one
single-threaded process as a closed loop with one client: the next item
starts when the previous one has finished.

``--trace 0`` times items for ``--seconds`` (ending on a whole unit of the
workload's item mix) and reports ``setup_s``, ``items_per_s``,
``item_p50_ms``, ``item_p90_ms`` and ``peak_rss_mb``. ``setup_s`` is the
median over several fresh interpreters (``probe.py``).

Times are reported at reference machine speed (see ``calibration.py``):
each item's wall time is divided by the slowdown of fixed kernels timed
just before and just after it, at least every 100 ms of item time. Raw
wall-clock values are kept in the detail line.

``--trace 1`` runs a fixed item list twice, untraced and then traced,
requires identical outputs from both, and reports the per-layer metrics
of ``tracing.py`` for the traced pass. The list does not depend on
``--seconds``, so its counts repeat exactly for one seed.

Every item's output is checked (see ``workloads.py``). The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it, ``# detail {...}``, records the machine,
versions, seed, item counts, ``error_share`` and, on ``sweep``,
``item_p99_ms``. A copy of both goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("sweep", "catalog", "refine", "normalize")

#: fresh interpreters timed per run for setup_s
SETUP_REPEATS = 5
#: item time allowed between two calibrations
CAL_EVERY_S = 0.1
#: p99 is reported only with at least ten samples beyond it
P99_MIN_SAMPLES = 1000
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def setup_samples(workload, seed):
    """Median import + input-building time over fresh interpreters, raw
    and at reference speed."""
    import calibration

    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = statistics.median(calibration.slowdown() for _ in range(3))
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        after = statistics.median(calibration.slowdown() for _ in range(3))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        seconds = sample["import_s"] + sample["inputs_s"]
        raw.append(seconds)
        scaled.append(seconds * 2.0 / (before + after))
    return statistics.median(raw), statistics.median(scaled)


class Runner:
    """Runs items of one workload, checking every output."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []

    def one(self, item):
        """Run and check one item; returns (seconds, output or None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.workload.run(item)
        except Exception as exc:  # a failing item is counted, and the run goes on
            self.failures.append(f"item {item}: raised {exc!r}")
            return None, None
        dt = time.perf_counter() - t0
        err = self.workload.check(item, out)
        if err:
            self.failures.append(err)
        return dt, out

    def timed(self, seconds):
        """Raw and reference-speed item times over whole units until
        ``seconds`` have passed, plus the measured slowdowns."""
        units = self.workload.units()
        for item in next(units):  # warm-up unit, checked but not timed
            self.one(item)
        import calibration

        raw, scaled, slowdowns, batch = [], [], [calibration.slowdown()], []

        def flush():
            slowdowns.append(calibration.slowdown())
            factor = 2.0 / (slowdowns[-2] + slowdowns[-1])
            raw.extend(batch)
            scaled.extend(t * factor for t in batch)
            batch.clear()

        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for item in next(units):
                dt, _ = self.one(item)
                if dt is not None:
                    batch.append(dt)
                    if sum(batch) >= CAL_EVERY_S:
                        flush()
        if batch:
            flush()
        return raw, scaled, slowdowns

    def fixed(self, items, tracer=None):
        """Outputs and total item time of one pass over ``items``."""
        outputs, total = [], 0.0
        for item in items:
            if tracer is None:
                dt, out = self.one(item)
            else:
                dt, out = tracer.run_item(self.workload.item_id(item), self.one, item)
            outputs.append(out)
            total += dt or 0.0
        return outputs, total


def percentile(sorted_values, q):
    """Linear-interpolated percentile of an already sorted list, q in [0, 100]."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def latency_metrics(times, prefix=""):
    ordered = sorted(times)
    return {
        f"{prefix}items_per_s": len(times) / sum(times),
        f"{prefix}item_p50_ms": 1e3 * percentile(ordered, 50),
        f"{prefix}item_p90_ms": 1e3 * percentile(ordered, 90),
    }


def end_to_end(runner, seconds, setup):
    raw, scaled, slowdowns = runner.timed(seconds)
    if not raw:
        raise RuntimeError("no item completed")
    metrics = {
        "setup_s": setup[1],
        **latency_metrics(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "samples": len(raw),
        "item_p99_ms": (1e3 * percentile(sorted(scaled), 99)
                        if len(raw) >= P99_MIN_SAMPLES else None),
        "raw_setup_s": setup[0],
        **latency_metrics(raw, "raw_"),
        "slowdown_median": statistics.median(slowdowns),
    }
    return metrics, detail


def traced(runner, import_s, inputs_s, spans_path):
    import tracing

    items = runner.workload.trace_items()
    for item in next(runner.workload.units()):  # warm-up unit
        runner.one(item)
    plain, t_plain = runner.fixed(items)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with_trace, t_traced = runner.fixed(items, tracer)
    finally:
        tracer.uninstall()
    for item, a, b in zip(items, plain, with_trace):
        if a != b:
            runner.failures.append(f"item {item}: traced output differs from untraced")
    metrics = tracer.layer_metrics()
    metrics["setup.import_s"] = import_s
    metrics["setup.inputs_s"] = inputs_s
    metrics["trace.overhead_ratio"] = t_traced / t_plain
    tracer.write(spans_path)
    ordered = {name: metrics[name] for name in tracing.metric_names()}
    units = {name: tracing.unit_of(name) for name in ordered}
    detail = {
        "samples": len(items),
        "exact_metrics": [name for name in ordered if tracing.is_exact(name)],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return ordered, units, detail


def machine_info():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_one(args):
    setup = setup_samples(args.workload, args.seed) if args.trace == 0 else None
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import mixorder

    t1 = time.perf_counter()
    if Path(mixorder.__file__).resolve().parent != SRC / "mixorder":
        print(f"error: mixorder imported from {mixorder.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t2 = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        t3 = time.perf_counter()
        runner = Runner(workload)
        if args.trace == 0:
            metrics, detail = end_to_end(runner, args.seconds, setup)
            units = END_TO_END_UNITS
        else:
            metrics, units, detail = traced(runner, t1 - t0, t3 - t2,
                                            OUT / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {
        "workload": args.workload,
        "item": workload.item_kind,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **detail,
        "error_share": len(runner.failures) / runner.attempted,
        "first_failures": runner.failures[:5],
        **machine_info(),
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    for name, value in metrics.items():
        print(f"{args.workload:9s} {name:44s} {value:14.6g} {units[name]}")
    print("# detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, one after another, as a table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(proc.stderr, file=sys.stderr)
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        detail = json.loads(lines[-2].removeprefix("# detail "))
        result = json.loads(lines[-1])
        print("\n".join(lines[:-2]))
        print(f"{name:9s} {'error_share':44s} {detail['error_share']:14.6g} share")
        if detail.get("item_p99_ms") is not None:
            print(f"{name:9s} {'item_p99_ms':44s} {detail['item_p99_ms']:14.6g} ms"
                  f"  ({detail['samples']} samples)")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mixorder" / "__init__.py").is_file():
        print(f"error: no mixorder source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
