"""Output checks for every benchmark operation.

:func:`check_report` holds for any seed: it validates the report
against the shipped schema and recomputes counts, z-scores and the
weighted-sum p-value from the path and the CSV labels with the closed
forms written out here, independently of the package.
:func:`compare_reference` compares a report made at the reference seed
with the outputs recorded in ``reference/``.  Both return a list of
problems; an empty list means the report is correct.
"""

from __future__ import annotations

import copy
import json
import math

import jsonschema
import numpy as np
from scipy.special import ndtr

Z_RTOL = 1e-12  # z is a ratio of exact counts and closed forms: only rounding may differ
WS_P_RTOL = 1e-9
MVN_ATOL = 1e-3  # the tolerance tests/test_mvn.py gives the MVN engine
MC_SES = 4.0  # Monte-Carlo outputs may move by this many standard errors


def load_schema(path: str) -> jsonschema.protocols.Validator:
    with open(path) as fh:
        schema = json.load(fh)
    return jsonschema.Draft202012Validator(schema)


def mean_between(n1, n2, N):
    return 2.0 * n1 * n2 / N


def var_between(n1, n2, N):
    NN1 = N * (N - 1.0)
    second = (2.0 * n1 * n2 / N + 2.0 * n1 * n2 * (n1 + n2 - 2.0) / NN1
              + 4.0 * n1 * (n1 - 1.0) * n2 * (n2 - 1.0) / NN1)
    return second - mean_between(n1, n2, N) ** 2


def dense_labels(raw_labels):
    """Group ids 1..k in order of first appearance, and that mapping."""
    mapping = {}
    for lab in raw_labels:
        mapping.setdefault(lab, len(mapping) + 1)
    return np.array([mapping[lab] for lab in raw_labels]), mapping


def count_table(order, labels, k):
    """k x k symmetric table of path edges by endpoint groups (1-based labels)."""
    table = np.zeros((k, k), dtype=np.int64)
    for a, b in zip(labels[order[:-1]] - 1, labels[order[1:]] - 1):
        table[a, b] += 1
        if a != b:
            table[b, a] += 1
    return table


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _is_permutation(order, n):
    return len(order) == n and sorted(order) == list(range(n))


def _check_probability(name, p, problems):
    if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
        problems.append(f"{name} = {p!r} is not in [0, 1]")


def check_report(report, validator, raw_labels=None, trials=None) -> list:
    """Problems with one report; ``raw_labels`` are the CSV's labels in file order."""
    problems = [f"schema: {e.message}" for e in validator.iter_errors(report)]
    if problems:
        return problems
    if report["command"] == "simulate":
        return _check_simulate(report, trials)

    labels, mapping = dense_labels(raw_labels)
    N, k = len(labels), len(mapping)
    sizes = np.bincount(labels, minlength=k + 1)[1:]
    if report["input"]["label_map"] != mapping:
        return [f"label_map {report['input']['label_map']} != {mapping}"]
    order = report["path"]["order"]
    if not _is_permutation(order, N):
        return [f"path.order is not a permutation of 0..{N - 1}"]
    table = count_table(np.array(order), labels, k)
    iu, ju = np.triu_indices(k, 1)
    means = np.array([mean_between(sizes[i], sizes[j], N) for i, j in zip(iu, ju)])
    sds = np.sqrt([var_between(sizes[i], sizes[j], N) for i, j in zip(iu, ju)])
    z = (table[iu, ju] - means) / sds
    if report["command"] == "relevance":
        _check_relevance(report, table, z, sizes, N, problems)
    else:
        _check_test(report, table, means, sds, N, problems)
    return problems


def _check_relevance(report, table, z, sizes, N, problems):
    k = len(sizes)
    grid = report["z"]
    if any(grid[i][i] is not None for i in range(k)):
        problems.append("z diagonal is not null")
    for (i, j), expect in zip(zip(*np.triu_indices(k, 1)), z):
        for got in (grid[i][j], grid[j][i]):
            if got is None or not _close(got, expect, Z_RTOL):
                problems.append(f"z[{i + 1}][{j + 1}] = {got}, expected {expect}")
    for entry in report["combined"]:
        a1 = [g - 1 for g in entry["a1"]]
        a2 = [g - 1 for g in entry["a2"]]
        count = table[np.ix_(a1, a2)].sum()
        na, nb = sizes[a1].sum(), sizes[a2].sum()
        expect = (count - mean_between(na, nb, N)) / math.sqrt(var_between(na, nb, N))
        if not _close(entry["z"], expect, Z_RTOL) or entry["abs_z"] != abs(entry["z"]):
            problems.append(f"combined z {entry['a1']} vs {entry['a2']} = {entry['z']}, expected {expect}")


def _check_test(report, table, means, sds, N, problems):
    counts = np.array(report["counts"])
    k = table.shape[0]
    if not np.array_equal(counts, counts.T):
        problems.append("counts is not symmetric")
    if np.triu(counts).sum() != N - 1:
        problems.append(f"counts over unordered pairs sum to {np.triu(counts).sum()}, not N-1 = {N - 1}")
    if not np.array_equal(counts, table):
        problems.append("counts differ from the table recomputed from the path and labels")
    iu, ju = np.triu_indices(k, 1)
    w = 1.0 / sds  # default weights: inverse null sd per pair
    results = report["results"]
    ws = results["weighted_sum"]
    stat = float((w * table[iu, ju]).sum())
    if not _close(ws["statistic"], stat, 1e-12):
        problems.append(f"weighted-sum statistic {ws['statistic']}, expected {stat}")
    if not _close(ws["null_mean"], float(w @ means), 1e-12):
        problems.append(f"weighted-sum null_mean {ws['null_mean']}, expected {float(w @ means)}")
    p = float(ndtr((ws["statistic"] - ws["null_mean"]) / ws["null_sd"]))
    if not _close(ws["p_value"], p, 1e-12):
        problems.append(f"weighted-sum p_value {ws['p_value']} != Phi((stat - mean) / sd) = {p}")
    if ws["reject"] != (ws["p_value"] <= ws["alpha"]):
        problems.append(f"weighted-sum reject={ws['reject']} but p={ws['p_value']}, alpha={ws['alpha']}")
    mn = results["minimum"]
    stat = float((w * (table[iu, ju] - means)).min())
    if not _close(mn["statistic"], stat, 1e-12):
        problems.append(f"minimum statistic {mn['statistic']}, expected {stat}")
    perm = results.get("permutation")
    for name, res in (("weighted_sum", ws), ("minimum", mn)):
        _check_probability(f"{name}.p_value", res["p_value"], problems)
        if perm is not None:
            pp = perm[f"{name}_p_value"]
            _check_probability(f"permutation.{name}_p_value", pp, problems)
            hits = pp * (perm["replicates"] + 1)
            if abs(hits - round(hits)) > 1e-6 or round(hits) < 1:
                problems.append(f"permutation.{name}_p_value {pp} is not (1 + c) / (B + 1)")


def _check_simulate(report, trials):
    problems = []
    if report["config"]["trials"] != trials:
        problems.append(f"config.trials {report['config']['trials']} != {trials}")
    for name in ("weighted_sum", "minimum"):
        res = report["results"].get(name)
        if res is None:
            problems.append(f"results.{name} missing")
            continue
        power = res["power"]
        _check_probability(f"{name}.power", power, problems)
        if abs(power * trials - round(power * trials)) > 1e-9:
            problems.append(f"{name}.power {power} is not a count over {trials} trials")
        if not _close(res["mc_se"], math.sqrt(power * (1 - power) / trials), 1e-12):
            problems.append(f"{name}.mc_se {res['mc_se']} != sqrt(p(1-p)/trials)")
    return problems


# --------------------------------------------------------------------------
# Reference outputs at the reference seed


def reference_of(report) -> dict:
    """The outputs of one report that are compared against later runs (a copy)."""
    report = copy.deepcopy(report)
    if report["command"] == "simulate":
        return {
            "trials": report["config"]["trials"],
            "power": {name: res["power"] for name, res in report["results"].items()},
        }
    ref = {"order": report["path"]["order"]}
    if report["command"] == "relevance":
        ref["z"] = report["z"]
        ref["combined"] = [entry["z"] for entry in report["combined"]]
        return ref
    results = report["results"]
    ref["counts"] = report["counts"]
    ref["weighted_sum"] = {"p_value": results["weighted_sum"]["p_value"]}
    ref["minimum"] = {key: results["minimum"][key] for key in ("p_value", "critical_value")}
    ref["permutation"] = results["permutation"]
    return ref


def _mc_problem(name, got, expect, n):
    # The floor keeps a reference of exactly 0 or 1 from demanding an exact match.
    p = min(max(expect, 1.0 / n), 1.0 - 1.0 / n)
    se = math.sqrt(p * (1.0 - p) / n)
    if abs(got - expect) > MC_SES * se:
        return [f"{name} = {got}, reference {expect} (4 MC standard errors = {MC_SES * se:.3g})"]
    return []


def compare_reference(report, ref) -> list:
    got = reference_of(report)
    if report["command"] == "simulate":
        problems = []
        for name, expect in ref["power"].items():
            problems += _mc_problem(f"{name}.power", got["power"][name], expect, ref["trials"])
        return problems
    if got["order"] != ref["order"]:
        return ["path.order differs from the reference"]
    if report["command"] == "relevance":
        pairs = [(a, b) for ga, ra in zip(got["z"], ref["z"]) for a, b in zip(ga, ra)]
        pairs += list(zip(got["combined"], ref["combined"]))
        if any((a is None) != (b is None) or (a is not None and not _close(a, b, Z_RTOL))
               for a, b in pairs):
            return ["z differs from the reference"]
        return []
    problems = []
    if got["counts"] != ref["counts"]:
        problems.append("counts differ from the reference")
    if not _close(got["weighted_sum"]["p_value"], ref["weighted_sum"]["p_value"], WS_P_RTOL):
        problems.append(f"weighted-sum p_value {got['weighted_sum']['p_value']}, "
                        f"reference {ref['weighted_sum']['p_value']}")
    for key in ("p_value", "critical_value"):
        if abs(got["minimum"][key] - ref["minimum"][key]) > MVN_ATOL:
            problems.append(f"minimum {key} {got['minimum'][key]}, reference {ref['minimum'][key]}")
    B = ref["permutation"]["replicates"]
    for key in ("weighted_sum_p_value", "minimum_p_value"):
        problems += _mc_problem(f"permutation.{key}", got["permutation"][key],
                                ref["permutation"][key], B)
    return problems
