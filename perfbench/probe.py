"""One set-up sample in a fresh interpreter.

    python3 perfbench/probe.py <workload> <seed>

Times ``import mixorder`` and the construction of the workload's inputs,
then prints ``{"import_s": ..., "inputs_s": ...}`` as one JSON line. The
benchmark runs this several times per run and reports the median sum as
``setup_s``.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv):
    workload, seed = argv[1], int(argv[2])
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import mixorder

    t1 = time.perf_counter()
    if Path(mixorder.__file__).resolve().parent != SRC / "mixorder":
        print(f"error: mixorder imported from {mixorder.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workloads.WORKLOADS[workload](seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
