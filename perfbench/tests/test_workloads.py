import numpy as np

from relevance_kit.cli import export_csv, ingest_csv
from workloads import GROUP_COL, WORKLOADS, CsvSpec, command_argv, labels_and_rows, write_csv

SPEC = CsvSpec(k=3, rows=5, d=4, shift=0.2)


def _bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    a, b, c = (str(tmp_path / name) for name in ("a.csv", "b.csv", "c.csv"))
    labels_a, size_a = write_csv(SPEC, 3, a)
    labels_b, _ = write_csv(SPEC, 3, b)
    write_csv(SPEC, 4, c)
    assert _bytes(a) == _bytes(b) and labels_a == labels_b
    assert size_a == len(_bytes(a))
    assert _bytes(a) != _bytes(c)


def test_format_is_what_export_csv_writes_and_ingest_reads(tmp_path):
    ours, theirs = str(tmp_path / "ours.csv"), str(tmp_path / "theirs.csv")
    labels, _ = write_csv(SPEC, 3, ours)
    _, data = labels_and_rows(SPEC, 3)
    export_csv(data, labels, theirs, group_col=GROUP_COL)
    assert _bytes(ours) == _bytes(theirs)
    dataset = ingest_csv(ours, GROUP_COL)
    np.testing.assert_array_equal(dataset.matrix, data)
    assert dataset.n == SPEC.k * SPEC.rows and dataset.assignment.n_groups == SPEC.k


def test_rows_are_shuffled_not_sorted_by_group():
    labels, _ = labels_and_rows(CsvSpec(k=5, rows=40, d=3, shift=0.0), 0)
    assert labels != sorted(labels)


def test_argv_carries_input_seed_and_output():
    argv = command_argv(WORKLOADS["test-k10-perm"], 9, "in.csv", "out.json")
    assert argv[:3] == ["test", "--test", "perm:10000"]
    assert argv[3:] == ["--input", "in.csv", "--group-col", GROUP_COL, "--seed", "9", "--out", "out.json"]
    sim = command_argv(WORKLOADS["simulate-paper"], 9, None, "out.json")
    assert "--input" not in sim and sim[-4:] == ["--seed", "9", "--out", "out.json"]
