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

``--check`` recomputes all five and writes nothing in the repository: it
runs ``record_reference.py``'s own ``main()`` with both perfbench
references pointed into a temporary directory. It prints ``<file>:
<label>`` for every top-level entry whose bytes would change (the file name
alone when only its layout would), then exits 1 if it printed anything.
Re-record only when a change is meant to alter these outputs, and say so.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

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


def _tests_text(doc):
    return json.dumps(doc, indent=1) + "\n"


#: (path, builder) of the three tests/data files
TESTS_DATA = (
    (test_curve_digests.DATA, curve_digests),
    (test_condition_reports.DATA, condition_reports),
    (test_normalization_bits.DATA, normalization_reports),
)

#: the ``workloads`` globals naming the two files ``record_reference.main()`` writes
PERFBENCH_REFERENCES = ("SWEEP_REFERENCE", "NORMALIZE_REFERENCE")


def perfbench_texts():
    """{reference path: the text ``record_reference.main()`` writes there}, from
    one run with both references pointed into a temporary directory; its
    summary lines on stderr are dropped."""
    with tempfile.TemporaryDirectory() as tmp:
        moved = {name: Path(tmp) / getattr(workloads, name).name for name in PERFBENCH_REFERENCES}
        with mock.patch.multiple(workloads, **moved), contextlib.redirect_stderr(io.StringIO()):
            record_reference.main()
        return {getattr(workloads, name): moved[name].read_text(encoding="utf-8")
                for name in PERFBENCH_REFERENCES}


def changed_labels(path, text):
    """The labels of ``path`` whose bytes ``text`` would change: its top-level
    keys, or the file name alone when only the layout differs."""
    written = path.read_text(encoding="utf-8")
    if written == text:
        return []
    recorded, doc = json.loads(written), json.loads(text)
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
        for path, build in TESTS_DATA:
            path.write_text(_tests_text(build()), encoding="utf-8")
        record_reference.main()
        return 0
    texts = {path: _tests_text(build()) for path, build in TESTS_DATA} | perfbench_texts()
    changed = [label for path, text in texts.items() for label in changed_labels(path, text)]
    for label in changed:
        print(label)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
