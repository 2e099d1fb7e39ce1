"""Re-record, or check, the five pinned output files.

    python tools/record_pinned.py           # rewrite all five files
    python tools/record_pinned.py --check   # write nothing; list what would change

The three ``tests/data/*.json`` files come from the builder functions of
the tests that read them: ``scenario_digests`` in
``tests/test_curve_digests.py``, ``pinned_reports`` in
``tests/test_condition_reports.py`` and ``pinned_mixtures`` in
``tests/test_normalization_bits.py``. The two ``perfbench/*_reference.json``
files are written by ``perfbench/record_reference.py``, which this runs
as it is.

``--check`` recomputes all five, the perfbench pair through
``perfbench/workloads.py``, and prints ``<file>: <label>`` for every
top-level entry whose bytes would change (the file name alone when only
its layout would), then exits 1 if it printed anything. Re-record only
when a change is meant to alter these outputs, and say so.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import record_reference  # noqa: E402
import test_condition_reports  # noqa: E402
import test_curve_digests  # noqa: E402
import test_normalization_bits  # noqa: E402
import workloads  # noqa: E402
from mixorder import builtin_catalog  # noqa: E402
from mixorder._sampling import random_mixture  # noqa: E402


def curve_digests():
    return {s.scenario_id: test_curve_digests.scenario_digests(s) for s in builtin_catalog()}


def condition_reports():
    return {label: json.loads(test_condition_reports.report_json(report))
            for label, report in test_condition_reports.pinned_reports()}


def normalization_reports():
    # the two false-convergence mixtures: draws 270 and 1911 from default_rng(22)
    rng = np.random.default_rng(22)
    draws = [random_mixture(rng) for _ in range(1912)]
    return {label: test_normalization_bits.report_bits(mix)
            for label, mix in test_normalization_bits.pinned_mixtures((draws[270], draws[1911]))}


def sweep_reference():
    pool = workloads.sweep_pool()
    theorems = {tid: [list(workloads.sweep_item(tid, pair)) for pair in pool[tid]]
                for tid in workloads.THEOREMS}
    return {"pool_seed": workloads.POOL_SEED, "draws": workloads.POOL_DRAWS,
            "theorems": theorems}


def normalize_reference():
    return {"pool_seed": workloads.POOL_SEED,
            "passed": [workloads.normalize_item(mix)[3] for mix in workloads.normalize_pool()]}


def _tests_text(doc):
    return json.dumps(doc, indent=1) + "\n"


def _perfbench_text(doc):
    return json.dumps(doc, separators=(",", ":")) + "\n"


#: (path, builder, serializer) of every pinned file; record_reference.py writes the last two
PINNED = (
    (test_curve_digests.DATA, curve_digests, _tests_text),
    (test_condition_reports.DATA, condition_reports, _tests_text),
    (test_normalization_bits.DATA, normalization_reports, _tests_text),
    (workloads.SWEEP_REFERENCE, sweep_reference, _perfbench_text),
    (workloads.NORMALIZE_REFERENCE, normalize_reference, _perfbench_text),
)


def changed_labels(path, doc, text):
    """The labels of ``path`` whose bytes ``doc`` would change: its top-level
    keys, or the file name alone when only the layout differs."""
    written = path.read_text(encoding="utf-8")
    if written == text:
        return []
    recorded = json.loads(written)
    labels = [label for label in dict.fromkeys([*recorded, *doc])
              if json.dumps(recorded.get(label)) != json.dumps(doc.get(label))]
    name = path.relative_to(ROOT)
    return [f"{name}: {label}" for label in labels] or [str(name)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; print the labels that would change, exit 1 if any")
    args = parser.parse_args(argv)
    if not args.check:
        for path, build, text in PINNED[:3]:
            path.write_text(text(build()), encoding="utf-8")
        record_reference.main()
        return 0
    changed = []
    for path, build, text in PINNED:
        doc = build()
        changed += changed_labels(path, doc, text(doc))
    for label in changed:
        print(label)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
