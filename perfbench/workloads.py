"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``__init__`` (the part
timed as set-up), then yields its items in units: a unit is the smallest
batch that keeps the item mix fixed (one draw per theorem for ``sweep``,
one pass over its list for the others), and a timed run always ends on a
unit boundary. ``run`` performs one item and returns its output;
``check`` compares that output with what is known to be right and
returns an error message, or None.

Layer functions are looked up through their modules at call time, so the
tracer's wrappers are seen when tracing is on.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from pathlib import Path

import numpy as np

from mixorder import _sampling, analysis, cli, conditions, mixture, scenarios
from mixorder.baseline import make_baseline
from mixorder.els import ELSComponent
from mixorder.mixture import FiniteMixture

HERE = Path(__file__).resolve().parent

#: the sweep pool is the Tier-1 soundness sweep: every theorem sampler
#: drawn POOL_DRAWS times from its own generator seeded with POOL_SEED
POOL_SEED = 42
POOL_DRAWS = 500
SWEEP_REFERENCE = HERE / "sweep_reference.json"
THEOREMS = tuple(sorted(_sampling.THEOREM_SAMPLERS))


def sweep_pool():
    pool = {}
    for tid in THEOREMS:
        rng = np.random.default_rng(POOL_SEED)
        sampler = _sampling.THEOREM_SAMPLERS[tid]
        pool[tid] = [sampler(rng) for _ in range(POOL_DRAWS)]
    return pool


def sweep_item(tid, pair):
    """(all_pass, direction, ratio class) of one theorem draw.

    Mirrors the Tier-1 sweep: conditions first, and the predicted order
    is checked on the auto grid only for draws whose conditions pass.
    """
    report = conditions.THEOREM_EVALUATORS[tid](*pair)
    if not report.all_pass:
        return (False, None, None)
    if tid in conditions.OUTLIER_THEOREMS:
        u, v = (mixture.build_outlier_mixture(spec) for spec in pair)
    else:
        u, v = pair
    verdict = analysis.check_order(report.predicted_order, u, v, analysis.auto_grid(u, v))
    ratio = verdict.ratio_classification
    return (True, verdict.direction.value, ratio.classification.value if ratio else None)


class Sweep:
    """Theorem draws: conditions, outlier mixtures, auto grid, order check."""

    name = "sweep"
    item_kind = "theorem draw"
    trace_units = 20

    def __init__(self, seed, workdir=None):
        self.pool = sweep_pool()
        rng = np.random.default_rng(seed)
        order = {tid: rng.permutation(POOL_DRAWS).tolist() for tid in THEOREMS}
        # round r holds one draw of every theorem, so any prefix of whole
        # rounds keeps the theorem mix of the full sweep
        self.rounds = [
            [(t, order[tid][r]) for t, tid in enumerate(THEOREMS)] for r in range(POOL_DRAWS)
        ]
        with open(SWEEP_REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
        if (ref["pool_seed"], ref["draws"]) != (POOL_SEED, POOL_DRAWS):
            raise ValueError("sweep reference was recorded for another pool")
        self.reference = {tid: [tuple(row) for row in ref["theorems"][tid]] for tid in THEOREMS}

    def units(self):
        while True:
            yield from self.rounds

    def trace_items(self):
        return [item for unit in self.rounds[: self.trace_units] for item in unit]

    @staticmethod
    def item_id(item):
        t, idx = item
        return t * POOL_DRAWS + idx

    def run(self, item):
        t, idx = item
        tid = THEOREMS[t]
        return sweep_item(tid, self.pool[tid][idx])

    def check(self, item, output):
        t, idx = item
        tid = THEOREMS[t]
        expected = self.reference[tid][idx]
        if output != expected:
            return f"{tid} draw {idx}: got {output}, reference {expected}"
        return None


class _Reproduce:
    """One catalog scenario per item through ``mixorder reproduce``."""

    item_kind = "scenario"
    trace_units = 1

    def __init__(self, seed, workdir=None):
        self.workdir = workdir
        self.ids = scenarios.catalog_ids()
        extra = (["--results-dir", str(workdir)] if self.records else ["--no-records"])
        self.argv = [["reproduce", sid, "--points", str(self.points)] + extra
                     for sid in self.ids]

    def units(self):
        items = list(range(len(self.ids)))
        while True:
            yield items

    def trace_items(self):
        return list(range(len(self.ids))) * self.trace_units

    @staticmethod
    def item_id(item):
        return item

    def run(self, item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(self.argv[item])
        return code, out.getvalue()

    def check(self, item, output):
        sid = self.ids[item]
        error = self._check_stdout(sid, *output)
        # records are always parsed and removed, so one failure stays one
        if self.records:
            records_error = self._check_records(sid)
            error = error or records_error
        return error

    @staticmethod
    def _check_stdout(sid, code, text):
        if code != 0:
            return f"{sid}: exit code {code}"
        try:
            rows = json.loads(text)["rows"]
        except (ValueError, KeyError) as exc:
            return f"{sid}: stdout is not a reproduce document ({exc})"
        if [r["id"] for r in rows] != [sid] or rows[0]["agreement"] != "AsExpected":
            return f"{sid}: rows {rows}"
        return None

    def _check_records(self, sid):
        """Parse and then delete the two record files one scenario wrote."""
        paths = sorted(Path(self.workdir).iterdir())
        try:
            if len(paths) != 2:
                return f"{sid}: expected 2 record files, found {[p.name for p in paths]}"
            curves = next((p for p in paths if p.name.endswith("_curves.csv")), None)
            doc = next((p for p in paths if p.suffix == ".json"), None)
            if curves is None or doc is None:
                return f"{sid}: unexpected record files {[p.name for p in paths]}"
            with open(doc, encoding="utf-8") as fh:
                record = json.load(fh)
            if record["scenario_id"] != sid or record["curve_file"] != curves.name:
                return f"{sid}: record document names {record['scenario_id']}"
            with open(curves, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            if rows[0][0] != "x" or len(rows) != self.points + 1:
                return f"{sid}: curve file has {len(rows)} lines"
            width = len(rows[0])
            for row in rows[1:]:
                if len(row) != width:
                    return f"{sid}: ragged curve row {row}"
                for field in row:
                    if field:
                        float(field)
        except (ValueError, KeyError, IndexError) as exc:
            return f"{sid}: record files do not parse ({exc})"
        finally:
            for p in paths:
                os.unlink(p)
        return None


class Catalog(_Reproduce):
    """``reproduce <id> --points 4001`` with records written."""

    name = "catalog"
    points = 4001
    records = True
    trace_units = 2


class Refine(_Reproduce):
    """``reproduce <id> --points 100001 --no-records``."""

    name = "refine"
    points = 100001
    records = False


def false_convergence_cases():
    """Draws 270 and 1911 of ``random_mixture`` from ``default_rng(22)``.

    Adaptive Simpson accepts a wrong panel on each of them, and
    ``verify_normalization`` reports integrals of 0.9999983 and 0.9999909
    (not passed) for these valid mixtures. They stay in every unit so that
    the defect stays visible, and so that a change which fixes it changes
    the recorded outputs.
    """
    exp = make_baseline("lt_exponential", b=0.9234064915929399, t0=1.1933506130724494)
    llog = make_baseline("loglogistic", b=1.8391798114408942)
    return [
        FiniteMixture([ELSComponent(exp, 4.556137076313745, 0.157420460463515,
                                    1.962453275687509)], [1.0]),
        FiniteMixture([ELSComponent(llog, 1.0087179085879463, 0.4428001333995173,
                                    1.6538514926028653),
                       ELSComponent(llog, 4.9374184115555915, 1.487257933232141,
                                    3.723817041568602)],
                      [0.24131930397921625, 0.7586806960207837]),
    ]


def normalize_pool():
    """The 32 catalog mixtures, the two false-convergence cases, then
    NORMALIZE_BLOCKS blocks of 32 random mixtures drawn from
    ``default_rng(POOL_SEED)``."""
    mixtures = [m for s in scenarios.builtin_catalog() for m in s.mixtures()]
    mixtures += false_convergence_cases()
    rng = np.random.default_rng(POOL_SEED)
    mixtures += [_sampling.random_mixture(rng) for _ in range(NORMALIZE_BLOCK * NORMALIZE_BLOCKS)]
    return mixtures


def normalize_item(mix):
    rep = mixture.verify_normalization(mix, tol=1e-6)
    return (rep.integral, rep.panels, rep.x_hi, rep.passed)


NORMALIZE_BLOCK = 32
NORMALIZE_BLOCKS = 64
NORMALIZE_REFERENCE = HERE / "normalize_reference.json"


class Normalize:
    """``verify_normalization(tol=1e-6)`` on catalog and random mixtures.

    A unit is the 32 catalog mixtures, the two false-convergence cases
    and one block of 32 random mixtures from a fixed pool; the seed sets
    the order in which units take the blocks, so one run averages over a
    few hundred random mixtures. Each item's ``passed`` flag must equal
    the one recorded in ``normalize_reference.json``.
    """

    name = "normalize"
    item_kind = "density integral"
    trace_units = 1

    def __init__(self, seed, workdir=None):
        self.mixtures = normalize_pool()
        self.n_fixed = len(self.mixtures) - NORMALIZE_BLOCK * NORMALIZE_BLOCKS
        self.order = np.random.default_rng(seed).permutation(NORMALIZE_BLOCKS).tolist()
        with open(NORMALIZE_REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
        if (ref["pool_seed"], len(ref["passed"])) != (POOL_SEED, len(self.mixtures)):
            raise ValueError("normalize reference was recorded for another pool")
        self.reference = ref["passed"]

    def _unit(self, b):
        first = self.n_fixed + b * NORMALIZE_BLOCK
        return list(range(self.n_fixed)) + list(range(first, first + NORMALIZE_BLOCK))

    def units(self):
        while True:
            for b in self.order:
                yield self._unit(b)

    def trace_items(self):
        return self._unit(self.order[0])

    @staticmethod
    def item_id(item):
        return item

    def run(self, item):
        return normalize_item(self.mixtures[item])

    def check(self, item, output):
        if output[3] != self.reference[item]:
            return (f"mixture {item}: passed={output[3]} (integral {output[0]!r}), "
                    f"reference passed={self.reference[item]}")
        return None


WORKLOADS = {w.name: w for w in (Sweep, Catalog, Refine, Normalize)}
