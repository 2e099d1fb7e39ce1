"""Record the expected outputs of the sweep and normalize pools.

    python3 perfbench/record_reference.py

Writes ``perfbench/sweep_reference.json`` (for each theorem, one
``[all_pass, direction, ratio_class]`` row per pool draw, in draw order)
and ``perfbench/normalize_reference.json`` (the ``passed`` flag of every
pool mixture). The workloads compare every item they run with these
files, so run this only when a change is meant to alter those outputs,
and say so.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the source tree on the path)


def main():
    pool = workloads.sweep_pool()
    theorems = {}
    for tid in workloads.THEOREMS:
        rows = [list(workloads.sweep_item(tid, pair)) for pair in pool[tid]]
        theorems[tid] = rows
        held = sum(1 for r in rows if r[0] and _held(tid, r))
        print(f"{tid}: {sum(r[0] for r in rows)} pass conditions, {held} hold", file=sys.stderr)
    _write(workloads.SWEEP_REFERENCE, {"pool_seed": workloads.POOL_SEED,
                                       "draws": workloads.POOL_DRAWS, "theorems": theorems})

    passed = [workloads.normalize_item(mix)[3] for mix in workloads.normalize_pool()]
    failing = [i for i, ok in enumerate(passed) if not ok]
    print(f"normalize: {len(passed) - len(failing)}/{len(passed)} pass; failing {failing}",
          file=sys.stderr)
    _write(workloads.NORMALIZE_REFERENCE, {"pool_seed": workloads.POOL_SEED, "passed": passed})


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def _held(tid, row):
    """Whether the predicted conclusion held, by the Tier-1 sweep's rule."""
    _, direction, ratio = row
    if tid == "T4.3":
        return ratio in ("non_increasing", "constant")
    predicted = "VleqU" if tid == "T4.2" else "UleqV"
    return direction in (predicted, "Both")


if __name__ == "__main__":
    main()
