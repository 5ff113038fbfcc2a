"""The traced run leaves the program as it found it and accounts for all its time."""

import importlib
import json
import os

import numpy as np
import pytest

import tracing
from conftest import ROOT
from run import _unit
from relevance_kit import cli
from relevance_kit.cost import gamma_cost
from relevance_kit.shp import approximate_shp


def _attributes():
    attrs = {}
    for module, attr, _, _ in tracing.TARGETS:
        attrs[module, attr] = importlib.import_module(module).__dict__[attr]
    for module, cls_name, attr, _ in tracing.CLASS_TARGETS:
        attrs[cls_name, attr] = getattr(importlib.import_module(module), cls_name).__dict__[attr]
    return attrs


def test_wrappers_are_installed_then_restored_even_after_an_error():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            during = _attributes()
            assert all(during[key] is not before[key] for key in before)
            raise RuntimeError("boom")
    after = _attributes()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("command", [
    ("test", "--test", "perm:200"),
    ("relevance", "--combine", "1,2;3,4"),
])
def test_traced_report_is_byte_identical(command, small_csv, run_cli):
    path, _ = small_csv
    argv = list(command) + ["--input", path, "--group-col", "group"]
    plain = run_cli(*argv, out_name="plain.json")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = tracer.wrap("cli.main", run_cli)(*argv, out_name="traced.json")
    assert traced == plain
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"cli.main", "cli.ingest", "cost", "shp", "counts"} <= names
    fracs = [tracing.last_rank_frac(c, p) for c, p in tracer.shp_runs]
    metrics = tracing.layer_metrics(tracer.spans, fracs, 1000)
    self_times = sum(metrics[name] for name in tracing.SELF_TIME.values())
    assert self_times == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["shp.calls"] == 1 and 0.0 < metrics["shp.last_rank_frac"] <= 1.0
    assert all(metrics[f"{layer}.errors"] == 0 for layer in tracing.LAYERS)


def test_simulate_counts_calls_per_layer():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        report = tracer.wrap("cli.main", cli.cmd_simulate)(cli.build_parser().parse_args(
            ["simulate", "--case", "5", "--d", "20", "--trials", "50"]))
    assert set(report["results"]) == {"weighted_sum", "minimum"}
    m = tracing.layer_metrics(tracer.spans, [], 0)
    assert m["sim.gen_calls"] == m["cost.calls"] == m["shp.calls"] == m["counts.calls"] == 100
    assert m["inference.ws_calls"] == m["inference.min_calls"] == 50
    assert m["inference.mvn_calls"] >= 50 and m["inference.min_cache_hit_ratio"] >= 0.9
    assert m["sim.trials_per_s"] > 0 and m["cost.pair_dims_per_s"] > 0


def test_errors_are_counted_per_layer():
    tracer = tracing.Tracer()

    def fail():
        raise ValueError("bad input")

    with pytest.raises(ValueError):
        tracer.wrap("cli.main", tracer.wrap("cli.ingest", fail))()
    m = tracing.layer_metrics(tracer.spans, [], 0)
    assert m["cli.errors"] == 2


def test_last_rank_frac_matches_a_full_sort():
    rng = np.random.default_rng(1)
    for data in (rng.standard_normal((30, 4)), rng.integers(0, 3, (30, 2))):  # the second has ties
        costs = gamma_cost(data, 1.0)
        path = approximate_shp(costs)
        n = len(path)
        iu, ju = np.triu_indices(n, 1)
        order = np.lexsort((ju, iu, costs[iu, ju]))
        rank = {(int(iu[e]), int(ju[e])): r + 1 for r, e in enumerate(order)}
        last = max(rank[min(a, b), max(a, b)] for a, b in zip(path[:-1], path[1:]))
        assert tracing.last_rank_frac(costs, path) == last / iu.size


def test_benchmark_json_names_every_metric_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    printed = set(tracing.layer_metrics([], [], 0)) | {"proc.cpu_s", "trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == printed
    assert all(m["unit"] == _unit(m["name"]) for m in bench["per_layer"])
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
