"""Span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files: ``install`` replaces
the public functions of each ``mixorder`` module at the place where the
package looks them up (class attributes, module globals, dispatch dicts)
with wrappers that record one span per call, and ``uninstall`` puts the
originals back. Nothing under ``src/`` is edited.

A span holds a layer name, start and end times, the index of the
enclosing span and the id of the benchmark item that caused it. Spans
stay in memory in flat arrays and are written out once, at the end.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

#: metrics whose values are exact counts (or ratios of exact counts); they
#: must repeat exactly between two traced runs of one seed
COUNT_SUFFIXES = (".calls", ".points", ".panels", ".unconverged_panels",
                  ".integrand_calls", ".bytes", ".spans")
RATIO_COUNT_METRICS = (
    "mixture.quantile.cdf_calls_per_call",
    "analysis.mixture_evals_per_check",
    "conditions.baseline_quantiles_per_eval",
    "conditions.pass_share",
)


def is_exact(name):
    """True for count metrics, which a later change may cite as counts."""
    return name.endswith(COUNT_SUFFIXES) or name in RATIO_COUNT_METRICS


ORDERS = ("st", "rh", "lr", "r_rh")

#: layer spans reported with calls and self time, in report order; the
#: flag says whether the span also reports the number of points evaluated
SPANS = (
    ("baseline.cdf", True), ("baseline.pdf", True), ("baseline.offset", False),
    ("baseline.quantile", False), ("baseline.pdf_prime", False),
    ("els.cdf", False), ("els.pdf", False), ("els.pdf_at_offset", False),
    ("mixture.cdf", True), ("mixture.pdf", True), ("mixture.quantile", False),
    ("mixture.pdf_at_offset", False), ("mixture.verify_normalization", False),
    ("numerics.bisect_nondecreasing", False), ("numerics.expand_upper_bracket", False),
    ("numerics.adaptive_simpson", False),
    ("analysis.auto_grid", False),
    *((f"analysis.check.{o}", False) for o in ORDERS),
    ("analysis.classify_monotonicity", True),
    ("conditions.eval", False), ("conditions.baseline_check", False),
    ("scenarios.run_scenario", False), ("scenarios.scenario_grid", False),
    ("reporting.write_csv", False), ("reporting.dumps", False),
    ("cli.main", False),
)

#: counters kept by wrappers beside the spans
COUNTERS = ("numerics.adaptive_simpson.panels",
            "numerics.adaptive_simpson.unconverged_panels",
            "numerics.adaptive_simpson.integrand_calls",
            "reporting.write_csv.bytes", "reporting.dumps.bytes")


def metric_names():
    """Every per-layer metric name, in report order."""
    names = []
    for span, points in SPANS:
        names.append(f"{span}.calls")
        if points:
            names.append(f"{span}.points")
        names.append(f"{span}.self_s")
    names += list(COUNTERS)
    names += list(RATIO_COUNT_METRICS)
    names += ["setup.import_s", "setup.inputs_s", "trace.spans", "trace.overhead_ratio"]
    return names


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name in RATIO_COUNT_METRICS or name == "trace.overhead_ratio":
        return "ratio"
    return "count"


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    ROOT = "item"

    def __init__(self):
        self.names = [self.ROOT]
        self._ids = {self.ROOT: 0}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.points = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.passed_evals = 0
        self._stack = [-1]
        self._item_id = -1
        self._restore = []

    # ------------------------------------------------------------ spans

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid, points):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.item.append(self._item_id)
        self.points.append(points)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_item(self, item_id, fn, *args):
        """Run one benchmark item under a root span tagged with its id."""
        self._item_id = item_id
        idx = self._open(0, 0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def wrap(self, name, fn, points_arg=None, post=None):
        """Wrapper recording a span per call of ``fn``.

        ``points_arg`` is the positional index of the argument whose size
        is the number of points evaluated; ``post(result)`` may update the
        counters from the result.
        """
        nid = self._name_id(name)
        open_, close = self._open, self._close
        size = np.size

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid, size(args[points_arg]) if points_arg is not None else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if post is not None:
                post(result)
            return result

        return wrapper

    # ------------------------------------------------------- installation

    def _set_attr(self, owner, attr, wrapper):
        had = attr in vars(owner)
        self._restore.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def _patch(self, owner, attr, name, points_arg=None, post=None):
        self._set_attr(owner, attr, self.wrap(name, getattr(owner, attr), points_arg, post))

    def _patch_dict(self, table, key, name, post=None):
        self._restore.append((table, key, None, table[key]))
        table[key] = self.wrap(name, table[key], post=post)

    def install(self):
        """Wrap every layer boundary of the ``mixorder`` package."""
        from mixorder import analysis, baseline, cli, conditions, els, mixture, scenarios

        for cls in baseline.FAMILIES.values():
            self._patch(cls, "cdf", "baseline.cdf", points_arg=1)
            self._patch(cls, "pdf", "baseline.pdf", points_arg=1)
            self._patch(cls, "cdf_offset", "baseline.offset")
            self._patch(cls, "pdf_offset", "baseline.offset")
            self._patch(cls, "quantile", "baseline.quantile")
            self._patch(cls, "pdf_prime", "baseline.pdf_prime")
        for attr in ("cdf", "pdf", "pdf_at_offset"):
            self._patch(els.ELSComponent, attr, f"els.{attr}")
        self._patch(mixture.FiniteMixture, "cdf", "mixture.cdf", points_arg=1)
        self._patch(mixture.FiniteMixture, "pdf", "mixture.pdf", points_arg=1)
        self._patch(mixture.FiniteMixture, "quantile", "mixture.quantile")
        self._patch(mixture.FiniteMixture, "pdf_at_offset", "mixture.pdf_at_offset")
        self._patch(mixture, "verify_normalization", "mixture.verify_normalization")

        for module in (baseline, els, mixture):
            self._patch(module, "bisect_nondecreasing", "numerics.bisect_nondecreasing")
            self._patch(module, "expand_upper_bracket", "numerics.expand_upper_bracket")
        self._set_attr(mixture, "adaptive_simpson", self._simpson(mixture.adaptive_simpson))

        for module in (analysis, scenarios, cli):
            self._patch(module, "auto_grid", "analysis.auto_grid")
        for kind in list(analysis.CHECKERS):
            self._patch_dict(analysis.CHECKERS, kind, f"analysis.check.{kind.value}")
        for module in (analysis, conditions):
            self._patch(module, "classify_monotonicity",
                        "analysis.classify_monotonicity", points_arg=0)

        def count_pass(report):
            self.passed_evals += bool(report.all_pass)

        for tid in list(conditions.THEOREM_EVALUATORS):
            self._patch_dict(conditions.THEOREM_EVALUATORS, tid, "conditions.eval",
                             post=count_pass)
        for attr in ("check_t_rhr_decreasing", "check_t_logpdf_slope_decreasing",
                     "check_logpdf_slope_increasing"):
            self._patch(conditions, attr, "conditions.baseline_check")

        self._patch(cli, "run_scenario", "scenarios.run_scenario")
        for module in (scenarios, cli):
            self._patch(module, "scenario_grid", "scenarios.scenario_grid")
        self._set_attr(cli, "write_csv", self._write_csv(cli.write_csv))
        self._set_attr(cli, "dumps", self._dumps(cli.dumps))
        self._patch(cli, "main", "cli.main")
        # every span name is registered, so a layer nothing calls reports 0
        for span, _ in SPANS:
            self._name_id(span)

    def uninstall(self):
        """Put every original function back, newest patch first."""
        while self._restore:
            owner, key, had, old = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = old
            elif had:
                setattr(owner, key, old)
            else:
                delattr(owner, key)

    def _simpson(self, fn):
        counters = self.counters

        def counting(f):
            @functools.wraps(f)
            def integrand(u):
                counters["numerics.adaptive_simpson.integrand_calls"] += 1
                return f(u)
            return integrand

        def post(res):
            counters["numerics.adaptive_simpson.panels"] += res.panels
            counters["numerics.adaptive_simpson.unconverged_panels"] += res.unconverged_panels

        inner = self.wrap("numerics.adaptive_simpson", fn, post=post)

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            return inner(counting(f), *args, **kwargs)

        return wrapper

    def _write_csv(self, fn):
        inner = self.wrap("reporting.write_csv", fn)

        @functools.wraps(fn)
        def wrapper(stream, *args, **kwargs):
            before = stream.tell()
            result = inner(stream, *args, **kwargs)
            self.counters["reporting.write_csv.bytes"] += stream.tell() - before
            return result

        return wrapper

    def _dumps(self, fn):
        # only the outermost call is wrapped: dumps recurses through the
        # reporting module's own global, which stays unwrapped
        def post(text):
            self.counters["reporting.dumps.bytes"] += len(text.encode("utf-8"))

        return self.wrap("reporting.dumps", fn, post=post)

    # ------------------------------------------------------------ results

    def layer_metrics(self):
        """Per-layer metric values computed from the recorded spans."""
        n = len(self.start)
        names, parent, name = self.names, self.parent, self.name
        k = len(names)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        calls = [0] * k
        points = [0] * k
        self_s = [0.0] * k
        quantile_id = self._ids["mixture.quantile"]
        eval_id = self._ids["conditions.eval"]
        check_ids = {self._ids[f"analysis.check.{o}"] for o in ORDERS}
        mix_eval_ids = {self._ids["mixture.cdf"], self._ids["mixture.pdf"]}
        mix_cdf_id = self._ids["mixture.cdf"]
        bq_id = self._ids["baseline.quantile"]
        in_quantile = bytearray(n)
        in_eval = bytearray(n)
        cdf_in_quantile = quantiles_in_eval = evals_in_check = 0
        for i in range(n):
            p = parent[i]
            nid = name[i]
            if p >= 0:
                child[p] += dur[i]
                pn = name[p]
                in_quantile[i] = pn == quantile_id or in_quantile[p]
                in_eval[i] = pn == eval_id or in_eval[p]
                if nid in mix_eval_ids and pn in check_ids:
                    evals_in_check += 1
            if nid == mix_cdf_id and in_quantile[i]:
                cdf_in_quantile += 1
            elif nid == bq_id and in_eval[i]:
                quantiles_in_eval += 1
        for i in range(n):
            nid = name[i]
            calls[nid] += 1
            points[nid] += self.points[i]
            self_s[nid] += dur[i] - child[i]

        out = {}
        for span, has_points in SPANS:
            sid = self._ids[span]
            out[f"{span}.calls"] = calls[sid]
            if has_points:
                out[f"{span}.points"] = points[sid]
            out[f"{span}.self_s"] = self_s[sid]
        out.update(self.counters)

        def per(num, den):
            return num / den if den else 0.0

        out["mixture.quantile.cdf_calls_per_call"] = per(cdf_in_quantile, calls[quantile_id])
        out["analysis.mixture_evals_per_check"] = per(
            evals_in_check, sum(calls[c] for c in check_ids))
        out["conditions.baseline_quantiles_per_eval"] = per(quantiles_in_eval, calls[eval_id])
        out["conditions.pass_share"] = per(self.passed_evals, calls[eval_id])
        out["trace.spans"] = n - calls[0]
        return out

    def write(self, path):
        """Write the spans as one ``.npz`` file of columns plus the name table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item, dtype=np.int32),
            points=np.frombuffer(self.points, dtype=np.int64),
        )

