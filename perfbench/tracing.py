"""Spans around the calls into each layer, for the traced run only.

:func:`installed` swaps wrappers onto the module attributes that
``cli``, ``sim``, ``inference`` and ``relevance`` look up at call time,
and puts the originals back on exit.  Nothing under ``src/`` changes.
Spans are kept in memory; :func:`layer_metrics` turns one operation's
spans into the per-layer metrics.  The program is single-threaded under
``RELEVANCE_THREADS=1``, so spans nest on one stack.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Span fields, in order.
ID, PARENT, NAME, START, END, WORK, ERROR = range(7)


def _pair_dims(data, *args, **kwargs):
    n, d = np.shape(data)
    return n * (n - 1) // 2 * d


def _pairs(costs, *args, **kwargs):
    n = len(costs)
    return n * (n - 1) // 2


def _argument(sig, name):
    def get(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


# (module, attribute, span name, work): work is a function of the call's
# arguments, or the name of the argument that counts the work.  Every
# attribute that the CLI reaches a layer through is listed, so no layer
# call escapes.
TARGETS = (
    ("relevance_kit.cli", "ingest_csv", "cli.ingest", None),
    ("relevance_kit.cli", "approximate_shp", "shp", _pairs),
    ("relevance_kit.cli", "count_edges", "counts", None),
    ("relevance_kit.cli", "weighted_sum_test", "inference.ws", None),
    ("relevance_kit.cli", "minimum_test", "inference.min", None),
    ("relevance_kit.cli", "permutation_pvalue", "inference.perm", "B"),
    ("relevance_kit.cli", "relevance_report", "relevance", None),
    ("relevance_kit.cli", "estimate_power", "sim.power", "trials"),
    ("relevance_kit.cli", "gen_gaussian", "sim.gen", None),
    ("relevance_kit.sim", "gamma_cost", "cost", _pair_dims),
    ("relevance_kit.sim", "average_cost", "cost", _pair_dims),
    ("relevance_kit.sim", "diff_augmented_cost", "cost", _pair_dims),
    ("relevance_kit.sim", "approximate_shp", "shp", _pairs),
    ("relevance_kit.sim", "count_edges", "counts", None),
    ("relevance_kit.sim", "weighted_sum_test", "inference.ws", None),
    ("relevance_kit.sim", "minimum_test", "inference.min", None),
    ("relevance_kit.sim", "gen_gaussian", "sim.gen", None),
    ("relevance_kit.inference", "build_sigma", "moments", None),
    ("relevance_kit.inference", "mvn_upper_tail", "inference.mvn", None),
    ("relevance_kit.inference", "count_edges", "counts", None),
    ("relevance_kit.relevance", "count_edges", "counts", None),
)
# WeightMatrix.default is a classmethod, wrapped on the class itself.
CLASS_TARGETS = (("relevance_kit.inference", "WeightMatrix", "default", "moments"),)


class Tracer:
    """In-memory span recorder for one child process."""

    def __init__(self):
        self.spans = []
        self.shp_runs = []  # (costs, path) per approximate_shp call
        self._stack = []

    def wrap(self, name, fn, work=None):
        if isinstance(work, str):
            work = _argument(inspect.signature(fn), work)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else -1, name,
                    0.0, 0.0, work(*args, **kwargs) if work else None, False]
            self.spans.append(span)
            self._stack.append(span[ID])
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if name == "shp":
                self.shp_runs.append((args[0] if args else kwargs["costs"], result))
            return result

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Swap traced wrappers onto the layer attributes; restore them on exit."""
    saved = []
    try:
        for module, attr, name, work in TARGETS:
            mod = importlib.import_module(module)
            saved.append((mod, attr, mod.__dict__[attr]))
            setattr(mod, attr, tracer.wrap(name, mod.__dict__[attr], work))
        for module, cls_name, attr, name in CLASS_TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, classmethod(tracer.wrap(name, original.__func__)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def last_rank_frac(costs, path) -> float:
    """Rank of the last accepted path edge in the (cost, i, j) edge order, over the edge count.

    The greedy scan must read at least this share of the sorted edge
    list before it holds N - 1 edges.
    """
    C = np.asarray(costs)
    p = np.asarray(path)
    n = C.shape[0]
    a, b = np.minimum(p[:-1], p[1:]), np.maximum(p[:-1], p[1:])
    c = C[a, b]
    last = np.lexsort((b, a, c))[-1]
    cl, al, bl = c[last], a[last], b[last]
    below = (np.count_nonzero(C < cl) - np.count_nonzero(np.diag(C) < cl)) // 2
    ti, tj = np.nonzero(np.triu(C == cl, 1))
    tied_up_to = np.count_nonzero((ti < al) | ((ti == al) & (tj <= bl)))
    return float(below + tied_up_to) / (n * (n - 1) // 2)


SELF_TIME = {
    "cli.main": "cli.self_s",
    "cli.ingest": "cli.ingest_s",
    "cost": "cost.s",
    "shp": "shp.s",
    "counts": "counts.s",
    "moments": "moments.s",
    "inference.ws": "inference.ws_s",
    "inference.min": "inference.min_s",
    "inference.mvn": "inference.mvn_s",
    "inference.perm": "inference.perm_s",
    "relevance": "relevance.s",
    "sim.gen": "sim.gen_s",
    "sim.power": "sim.self_s",
}
CALLS = {
    "cost": "cost.calls",
    "shp": "shp.calls",
    "counts": "counts.calls",
    "moments": "moments.calls",
    "inference.ws": "inference.ws_calls",
    "inference.min": "inference.min_calls",
    "inference.mvn": "inference.mvn_calls",
    "inference.perm": "inference.perm_calls",
    "relevance": "relevance.calls",
    "sim.gen": "sim.gen_calls",
}
LAYERS = ("cli", "cost", "shp", "counts", "moments", "inference", "relevance", "sim")


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, shp_rank_fracs, csv_bytes) -> dict:
    """Per-layer metrics of one traced operation from its spans.

    A ``*_s`` time is the layer's self time: its spans' durations minus
    the part their child spans cover.  Self times over all spans sum to
    the ``cli.main`` span, which is ``trace.wall_s``.
    """
    duration = {s[ID]: s[END] - s[START] for s in spans}
    self_time = dict(duration)
    children = {s[ID]: [] for s in spans}
    for s in spans:
        if s[PARENT] >= 0:
            self_time[s[PARENT]] -= duration[s[ID]]
            children[s[PARENT]].append(s[NAME])

    out = {metric: 0.0 for metric in SELF_TIME.values()}
    out.update({metric: 0 for metric in CALLS.values()})
    out.update({f"{layer}.errors": 0 for layer in LAYERS})
    work = {"cost": 0, "shp": 0, "inference.perm": 0, "sim.power": 0}
    inclusive = {"inference.perm": 0.0, "sim.power": 0.0}
    min_single_mvn = 0
    for s in spans:
        name = s[NAME]
        out[SELF_TIME[name]] += self_time[s[ID]]
        if name in CALLS:
            out[CALLS[name]] += 1
        if s[ERROR]:
            out[name.split(".")[0] + ".errors"] += 1
        if name in work:
            work[name] += s[WORK]
        if name in inclusive:
            inclusive[name] += duration[s[ID]]
        if name == "inference.min" and children[s[ID]].count("inference.mvn") == 1:
            min_single_mvn += 1

    out["trace.wall_s"] = sum(duration[s[ID]] for s in spans if s[NAME] == "cli.main")
    out["cli.ingest_mb_per_s"] = _ratio(csv_bytes / 1e6, out["cli.ingest_s"])
    out["cost.pair_dims_per_s"] = _ratio(work["cost"], out["cost.s"])
    out["shp.edges_per_s"] = _ratio(work["shp"], out["shp.s"])
    out["shp.last_rank_frac"] = float(np.mean(shp_rank_fracs)) if shp_rank_fracs else 0.0
    out["inference.min_cache_hit_ratio"] = _ratio(min_single_mvn, out["inference.min_calls"])
    out["inference.mvn_calls_per_min"] = _ratio(out["inference.mvn_calls"], out["inference.min_calls"])
    out["inference.perm_replicates_per_s"] = _ratio(work["inference.perm"], inclusive["inference.perm"])
    out["sim.trials_per_s"] = _ratio(work["sim.power"], inclusive["sim.power"])
    return out
