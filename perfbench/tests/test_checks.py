"""The checker accepts real reports and rejects each kind of corruption."""

import copy
import json

import numpy as np
import pytest

import checks


@pytest.fixture
def test_report(small_csv, run_cli):
    path, labels = small_csv
    return json.loads(run_cli("test", "--input", path, "--group-col", "group", "--test", "perm:200")), labels


@pytest.fixture
def relevance_report(small_csv, run_cli):
    path, labels = small_csv
    raw = run_cli("relevance", "--input", path, "--group-col", "group", "--combine", "1,2;3,4")
    return json.loads(raw), labels


@pytest.fixture(scope="module")
def simulate_report(tmp_path_factory):
    from relevance_kit import cli

    out = str(tmp_path_factory.mktemp("sim") / "report.json")
    assert cli.main(["simulate", "--case", "5", "--d", "20", "--trials", "50", "--out", out]) == 0
    with open(out) as fh:
        return json.load(fh)


def _swap_different_groups(report, labels):
    order = report["path"]["order"]
    j = next(j for j in range(1, len(order)) if labels[order[j]] != labels[order[0]])
    order[0], order[j] = order[j], order[0]


def test_real_reports_pass(test_report, relevance_report, simulate_report, validator):
    for report, labels in (test_report, relevance_report):
        assert checks.check_report(report, validator, labels) == []
        assert checks.compare_reference(report, checks.reference_of(report)) == []
    assert checks.check_report(simulate_report, validator, trials=50) == []
    assert checks.compare_reference(simulate_report, checks.reference_of(simulate_report)) == []


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("both_halves", [False, True])
def test_count_off_by_one(test_report, validator, delta, both_halves):
    report, labels = test_report
    ref = checks.reference_of(report)
    report["counts"][0][1] += delta
    if both_halves:
        report["counts"][1][0] += delta
    assert checks.check_report(report, validator, labels)
    assert checks.compare_reference(report, ref)


@pytest.mark.parametrize("fixture", ["test_report", "relevance_report"])
def test_two_nodes_swapped_in_path(fixture, request, validator):
    report, labels = request.getfixturevalue(fixture)
    ref = checks.reference_of(report)
    same_labels = copy.deepcopy(report)
    order = same_labels["path"]["order"]
    j = next(j for j in range(1, len(order)) if labels[order[j]] == labels[order[0]])
    order[0], order[j] = order[j], order[0]
    # Swapping two nodes of one group keeps every count: only the reference sees it.
    assert checks.compare_reference(same_labels, ref)
    _swap_different_groups(report, labels)
    assert checks.check_report(report, validator, labels)
    assert checks.compare_reference(report, ref)


def test_path_not_a_permutation(test_report, validator):
    report, labels = test_report
    report["path"]["order"][0] = report["path"]["order"][1]
    assert checks.check_report(report, validator, labels)


def test_z_off(relevance_report, validator):
    report, labels = relevance_report
    ref = checks.reference_of(report)
    report["z"][0][1] *= 1 + 1e-9
    assert checks.check_report(report, validator, labels)
    assert checks.compare_reference(report, ref)


def test_combined_z_off(relevance_report, validator):
    report, labels = relevance_report
    report["combined"][0]["z"] += 1e-6
    assert checks.check_report(report, validator, labels)


def test_weighted_sum_p_value_off(test_report, validator):
    report, labels = test_report
    ref = checks.reference_of(report)
    report["results"]["weighted_sum"]["p_value"] *= 1 + 1e-6
    assert checks.check_report(report, validator, labels)
    assert checks.compare_reference(report, ref)


def test_weighted_sum_reject_disagrees_with_p(test_report, validator):
    report, labels = test_report
    ws = report["results"]["weighted_sum"]
    ws["reject"] = not ws["reject"]
    assert checks.check_report(report, validator, labels)


def test_minimum_outside_mvn_tolerance(test_report):
    report, _ = test_report
    ref = checks.reference_of(report)
    for key in ("p_value", "critical_value"):
        bad = copy.deepcopy(report)
        sign = -1 if bad["results"]["minimum"][key] > 0.5 else 1
        bad["results"]["minimum"][key] += sign * 2 * checks.MVN_ATOL
        assert checks.compare_reference(bad, ref)
    within = copy.deepcopy(report)
    within["results"]["minimum"]["p_value"] += 0.5 * checks.MVN_ATOL * np.sign(0.5 - within["results"]["minimum"]["p_value"])
    assert checks.compare_reference(within, ref) == []


def test_permutation_p_value_outside_mc_tolerance(test_report, validator):
    report, labels = test_report
    ref = checks.reference_of(report)
    perm = report["results"]["permutation"]
    B = perm["replicates"]
    p = perm["weighted_sum_p_value"]
    step = 1.0 / (B + 1)
    shift = int(np.ceil(5 * np.sqrt(max(p, step) * (1 - p) / B) / step))
    perm["weighted_sum_p_value"] = p + shift * step if p < 0.5 else p - shift * step
    assert checks.check_report(report, validator, labels) == []
    assert checks.compare_reference(report, ref)
    perm["weighted_sum_p_value"] = p + 0.1 * step  # not (1 + c) / (B + 1)
    assert checks.check_report(report, validator, labels)


@pytest.mark.parametrize("p", [-0.1, 1.5])
def test_p_value_outside_unit_interval(test_report, validator, p):
    report, labels = test_report
    report["results"]["minimum"]["p_value"] = p
    assert checks.check_report(report, validator, labels)


def test_power_outside_mc_tolerance(simulate_report, validator):
    ref = checks.reference_of(simulate_report)
    bad = copy.deepcopy(simulate_report)
    res = bad["results"]["weighted_sum"]
    res["power"] = 0.0 if res["power"] > 0.5 else 1.0
    res["mc_se"] = 0.0
    assert checks.check_report(bad, validator, trials=50) == []
    assert checks.compare_reference(bad, ref)
    bad["results"]["minimum"]["mc_se"] += 0.01
    assert checks.check_report(bad, validator, trials=50)
