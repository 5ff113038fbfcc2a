"""End-to-end tests of the command-line interface.

Most cases drive ``main`` with real files under ``tmp_path`` and check
the JSON reports, exit codes, and stderr warnings; reports are also
validated against the shipped schema.
"""

import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relevance_kit import cli, cost, inference, sim
from relevance_kit.cli import (
    export_csv,
    ingest_csv,
    main,
    relevance_tsv,
)
from relevance_kit.moments import MomentContext

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
SCHEMA_PATH = SRC_DIR / "relevance_kit" / "schemas" / "report.schema.json"

# Every finite double, with the edge cases drawn often: subnormals,
# signed zeros and the largest magnitudes.
CSV_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 2.2250738585072009e-308, 0.0, -0.0, 1e308, -1e308, 1.7976931348623157e308]
)
# Labels that export_csv accepts: non-empty, no leading or trailing
# whitespace; commas, quotes and embedded line breaks are drawn often.
CSV_LABELS = st.text(
    st.characters(codec="utf-8") | st.sampled_from([",", '"', "\n", "\r", "'", " "]),
    min_size=1,
    max_size=6,
).filter(lambda lab: lab == lab.strip())
# Labels as CSV_LABELS, but without NUL: csv.reader rejects it before Python 3.11.
PARSE_LABELS = CSV_LABELS.filter(lambda lab: "\x00" not in lab)
# Numeric cells: exact reprs, plus texts where numpy's reader and
# Python's float may differ (padding, underscores, signs), non-finite
# values and non-numbers.
PARSE_CELLS = CSV_FLOATS.map(repr) | st.sampled_from(
    [" 1.5 ", "\t-2", "1_000", "nan", "-inf", "1e400", "1e-400", "+.5", "oops", ""]
)
# Lines between rows: empty lines go through numpy's reader; whitespace
# and all-empty cells send the file to the per-line parser.
PARSE_BLANKS = st.sampled_from(["", " ", ",,"])


def write_csv(path, labels, matrix, group_col="g"):
    matrix = np.asarray(matrix, dtype=np.float64)
    lines = [",".join([group_col] + [f"x{i + 1}" for i in range(matrix.shape[1])])]
    for lab, row in zip(labels, matrix):
        lines.append(",".join([str(lab)] + [repr(v) for v in row.tolist()]))
    path.write_text("\n".join(lines) + "\n")
    return path


def _csv_text(rows, terminator, quoting):
    buf = io.StringIO()
    csv.writer(buf, lineterminator=terminator, quoting=quoting).writerows(rows)
    return buf.getvalue()


@pytest.fixture
def two_group_csv(tmp_path):
    """Ten rows per group with a clear shift between groups."""
    rng = np.random.default_rng(314)
    data = np.vstack([rng.normal(0.0, 1.0, (10, 4)), rng.normal(4.0, 1.0, (10, 4))])
    labels = ["a"] * 10 + ["b"] * 10
    return write_csv(tmp_path / "two.csv", labels, data)


@pytest.fixture
def three_group_csv(tmp_path):
    rng = np.random.default_rng(315)
    data = np.vstack(
        [rng.normal(0.0, 1.0, (4, 5)), rng.normal(0.2, 1.0, (5, 5)), rng.normal(3.0, 1.0, (4, 5))]
    )
    labels = ["u"] * 4 + ["v"] * 5 + ["w"] * 4
    return write_csv(tmp_path / "three.csv", labels, data)


def run_report(args, tmp_path, name="report.json"):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    assert rc == 0, f"command failed: {args}"
    return json.loads(out.read_text())


def validate_schema(report):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validate(report, schema)


class TestIngestCsv:
    def test_parses_labels_and_matrix(self, two_group_csv):
        ds = ingest_csv(str(two_group_csv), "g")
        assert ds.n == 20 and ds.d == 4
        assert ds.label_map == {"a": 1, "b": 2}
        assert list(ds.assignment.sizes) == [10, 10]
        assert ds.feature_names == ("x1", "x2", "x3", "x4")

    def test_group_column_anywhere_in_header(self, tmp_path):
        p = tmp_path / "mid.csv"
        p.write_text("x1,lab,x2\n1.0,a,2.0\n3.0,b,4.0\n")
        ds = ingest_csv(str(p), "lab")
        assert np.array_equal(ds.matrix, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.label_map == {"a": 1, "b": 2}

    def test_blank_lines_are_skipped(self, tmp_path):
        # empty, whitespace-only, and rows of empty cells
        p = tmp_path / "blank.csv"
        p.write_text("g,x1\na,1.0\n\n  , \n   \n\t\n,\nb,2.0\n\n")
        ds = ingest_csv(str(p), "g")
        assert np.array_equal(ds.matrix, [[1.0], [2.0]])
        assert ds.label_map == {"a": 1, "b": 2}

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("g,x1,x2\na,1.0,2.0\nb,3.0\n")
        with pytest.raises(ValueError, match="line 3 has 2 fields"):
            ingest_csv(str(p), "g")

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("g,x1,x2\na,1.0,2.0\nb,3.0,oops\n")
        with pytest.raises(ValueError, match="line 3, column 'x2'"):
            ingest_csv(str(p), "g")

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        p = tmp_path / "nonfinite.csv"
        p.write_text(f"g,x0,x1\na,1.0,2.0\nb,3.0,4.0\nb,5.0,{cell}\n")
        match = f"line 4, column 'x1': value {float(cell)} is not a finite number"
        with pytest.raises(ValueError, match=match):
            ingest_csv(str(p), "g")

    def test_empty_label_names_line(self, tmp_path):
        p = tmp_path / "nolabel.csv"
        p.write_text("g,x1\na,1.0\n,2.0\n")
        with pytest.raises(ValueError, match="line 3 has an empty group label"):
            ingest_csv(str(p), "g")

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("d,zz", "line 5, column 'x1': could not parse 'zz' as a number"),
            ("d,1.0,2.0", "line 5 has 3 fields, expected 2"),
            (",2.0", "line 5 has an empty group label"),
            ("d,nan", "line 5, column 'x1': value nan is not a finite number"),
        ],
    )
    def test_errors_after_a_multi_line_label_name_the_physical_line(self, tmp_path, bad_row,
                                                                     message):
        # the quoted label spans lines 2 and 3, so the bad row is on line 5
        p = tmp_path / "multiline.csv"
        p.write_text(f'g,x1\n"a\nb",1.0\nc,2.0\n{bad_row}\n')
        with pytest.raises(ValueError, match=re.escape(message)):
            ingest_csv(str(p), "g")

    def test_missing_group_column(self, tmp_path):
        p = tmp_path / "nocol.csv"
        p.write_text("g,x1\na,1.0\n")
        with pytest.raises(ValueError, match="'label' not in header"):
            ingest_csv(str(p), "label")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="file is empty"):
            ingest_csv(str(p), "g")

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "single.csv"
        p.write_text("g,x1\na,1.0\n")
        with pytest.raises(ValueError, match="at least 2 data rows"):
            ingest_csv(str(p), "g")

    def test_no_feature_columns(self, tmp_path):
        p = tmp_path / "onlylabel.csv"
        p.write_text("g\na\nb\n")
        with pytest.raises(ValueError, match="no feature columns"):
            ingest_csv(str(p), "g")

    # Cases where numpy's reader and csv.reader disagree: ingest_csv gives
    # what the per-line parser gives.

    def test_rows_all_wider_than_header(self, tmp_path):
        p = tmp_path / "wide.csv"
        p.write_text("g,x1\na,1.0,2.0\nb,3.0,4.0\n")
        with pytest.raises(ValueError, match="line 2 has 3 fields, expected 2"):
            ingest_csv(str(p), "g")

    def test_label_starting_with_hash_is_a_label(self, tmp_path):
        p = tmp_path / "hash.csv"
        p.write_text("g,x1\n#a,1.0\nb,2.0\n#a,3.0\n")
        ds = ingest_csv(str(p), "g")
        assert ds.label_map == {"#a": 1, "b": 2}
        assert ds.assignment.labels.tolist() == [1, 2, 1]

    def test_quoted_and_padded_numbers_and_header_names(self, tmp_path):
        p = tmp_path / "quoted.csv"
        p.write_text(' g , x1 ,"x2"\n a ,"1.5", 2.0 \n"b", -3 ,"\t4e1"\n')
        ds = ingest_csv(str(p), "g")
        assert ds.feature_names == ("x1", "x2")
        assert np.array_equal(ds.matrix, [[1.5, 2.0], [-3.0, 40.0]])
        assert ds.label_map == {"a": 1, "b": 2}

    def test_underscore_digits_parse_as_python_float_does(self, tmp_path):
        p = tmp_path / "underscore.csv"
        p.write_text("g,x1\na,1_000\nb,2.5\n")
        assert ingest_csv(str(p), "g").matrix.tolist() == [[1000.0], [2.5]]

    def test_header_only_file_fails_without_a_warning(self, tmp_path):
        p = tmp_path / "header_only.csv"
        p.write_text("g,x1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="need at least 2 data rows, found 0"):
                ingest_csv(str(p), "g")
        assert caught == []

    def test_utf8_with_and_without_byte_order_mark(self, tmp_path):
        text = "g,x1,é\nä,1.0,2.0\nb,3.0,4.0\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text.encode("utf-8"))
        bom.write_bytes(text.encode("utf-8-sig"))
        for p in (plain, bom):
            ds = ingest_csv(str(p), "g")
            assert ds.feature_names == ("x1", "é")
            assert ds.label_map == {"ä": 1, "b": 2}
            assert ds.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert main(["shp", "--input", str(bom), "--group-col", "g", "--out", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("bad_line", [1, 3, 2000])
    def test_not_utf8_names_path_and_line(self, tmp_path, bad_line):
        # Line 2000 lies past the first chunk the text reader decodes.
        lines = [b"g,x1"] + [b"%s,%d.0" % (b"ab"[i % 2:i % 2 + 1], i) for i in range(2500)]
        lines[bad_line - 1] = b"g\xe9,x1" if bad_line == 1 else b"caf\xe9,1.0"
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ValueError, match=rf"{re.escape(str(p))}: line {bad_line} is not UTF-8"):
            ingest_csv(str(p), "g")

    def test_valid_file_never_takes_the_per_line_path(self, tmp_path, monkeypatch):
        # The per-line parser is the error path only: export_csv output
        # must come back from numpy's reader alone.
        rng = np.random.default_rng(7)
        data = rng.standard_normal((12, 5))
        labels = ["a,b", 'q"uote', "line\nbreak", "#hash", "ünï"] * 2 + ["a,b", "z"]
        out = tmp_path / "valid.csv"
        export_csv(data, labels, str(out))

        def per_line(path, group_col):
            raise AssertionError("fell back to the per-line parser")

        monkeypatch.setattr(cli, "_ingest_csv_per_line", per_line)
        ds = ingest_csv(str(out), "group")
        assert ds.matrix.tobytes() == data.tobytes() and ds.matrix.flags.c_contiguous
        assert list(ds.label_map) == list(dict.fromkeys(labels))
        assert all(type(label) is str for label in ds.label_map)

    def test_labels_are_str_under_the_numpy_1_loadtxt_default(self, tmp_path, monkeypatch):
        # Before numpy 2, np.loadtxt defaulted to encoding="bytes" and
        # handed converters latin-1 bytes; label_map keys must stay str
        # (the JSON report cannot hold bytes keys) on either default.
        loadtxt = np.loadtxt

        def numpy_1_loadtxt(*args, **kwargs):
            kwargs.setdefault("encoding", "bytes")
            return loadtxt(*args, **kwargs)

        def per_line(path, group_col):
            raise AssertionError("fell back to the per-line parser")

        monkeypatch.setattr(np, "loadtxt", numpy_1_loadtxt)
        monkeypatch.setattr(cli, "_ingest_csv_per_line", per_line)
        p = tmp_path / "labels.csv"
        p.write_text("g,x\na,1\nä,2\n€,3\na,4\n", encoding="utf-8")
        ds = ingest_csv(str(p), "g")
        assert all(type(label) is str for label in ds.label_map)
        assert ds.label_map == {"a": 1, "ä": 2, "€": 3}
        out = tmp_path / "r.json"
        assert main(["shp", "--input", str(p), "--group-col", "g", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["input"]["label_map"] == {"a": 1, "ä": 2, "€": 3}


class TestIngestCsvAgreesWithPerLineParser:
    """On any file, ``ingest_csv`` gives what the per-line parser gives:
    the same dataset bit for bit, or the same error."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.integers(0, 7),
        d=st.integers(1, 4),
        draws=st.data(),
        terminator=st.sampled_from(["\n", "\r\n"]),
        quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
        bom=st.booleans(),
    )
    def test_bit_for_bit(self, tmp_path_factory, n, d, draws, terminator, quoting, bom):
        gidx = draws.draw(st.integers(0, d), label="gidx")
        pool = draws.draw(st.lists(PARSE_LABELS, min_size=1, max_size=3, unique=True), label="pool")
        # clean: finite reprs and empty blank lines only, which numpy's reader takes
        clean = draws.draw(st.booleans(), label="clean")
        cells = CSV_FLOATS.map(repr) if clean else PARSE_CELLS
        blank_lines = st.just("") if clean else PARSE_BLANKS
        header = [f"x{i + 1}" for i in range(d)]
        header.insert(gidx, "g")
        rows = [header]
        for _ in range(n):
            row = [draws.draw(cells) for _ in range(d)]
            row.insert(gidx, draws.draw(st.sampled_from(pool)))
            rows.append(row)
        # blank lines go between records, never inside a quoted field
        blanks = [draws.draw(st.lists(blank_lines, max_size=2), label="blanks") for _ in rows[1:]]
        text = _csv_text(rows[:1], terminator, quoting) + "".join(
            "".join(b + terminator for b in before) + _csv_text([row], terminator, quoting)
            for before, row in zip(blanks, rows[1:])
        )
        path = tmp_path_factory.getbasetemp() / "agree.csv"
        path.write_bytes(text.encode("utf-8-sig" if bom else "utf-8"))

        def parse(fn):
            try:
                return fn(str(path), "g")
            except ValueError as exc:
                return str(exc)

        want = parse(cli._ingest_csv_per_line)
        with mock.patch.object(cli, "_ingest_csv_per_line", wraps=cli._ingest_csv_per_line) as slow:
            got = parse(ingest_csv)
        if isinstance(want, str):
            assert got == want
            return
        assert got.matrix.dtype == np.float64 and got.matrix.flags.c_contiguous
        assert got.matrix.shape == want.matrix.shape
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert list(got.label_map.items()) == list(want.label_map.items())
        assert got.assignment.labels.tolist() == want.assignment.labels.tolist()
        assert got.feature_names == want.feature_names
        if clean:
            assert slow.call_count == 0, "a clean file fell back to the per-line parser"


class TestExportCsv:
    def test_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(99)
        data = rng.standard_normal((6, 3)) * 1e-7  # exercise repr precision
        labels = ["p", "p", "q", "q", "r", "r"]
        out = tmp_path / "roundtrip.csv"
        export_csv(data, labels, str(out))
        ds = ingest_csv(str(out), "group")
        assert np.array_equal(ds.matrix, data)
        assert ds.label_map == {"p": 1, "q": 2, "r": 3}

    def test_rejects_mismatched_labels(self, tmp_path):
        with pytest.raises(ValueError, match="one label per row"):
            export_csv(np.zeros((3, 2)), ["a", "b"], str(tmp_path / "x.csv"))

    @pytest.mark.parametrize("label", ["", " a", "a ", "\tb", "c\n"])
    def test_rejects_labels_ingest_would_strip(self, tmp_path, label):
        # ingest_csv strips labels: " a" would come back merged with "a"
        out = tmp_path / "x.csv"
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            export_csv(np.zeros((3, 1)), [label, "a", "b"], str(out))
        assert not out.exists()

    def test_rejects_distinct_labels_with_the_same_text(self, tmp_path):
        # 1 and "1" would both be written as 1 and read back as one group
        out = tmp_path / "x.csv"
        with pytest.raises(ValueError, match=r"labels 1 and '1' are both written as '1'"):
            export_csv(np.zeros((4, 1)), [1, "1", 2, 2], str(out))
        assert not out.exists()

    @pytest.mark.parametrize("labels, message", [
        ([1, 1.0, 2, 2], "labels 1 and 1.0 are equal but written as '1' and '1.0'"),
        ([True, 1, 2, 2], "labels True and 1 are equal but written as 'True' and '1'"),
    ], ids=["int-and-float", "bool-and-int"])
    def test_rejects_equal_labels_with_different_text(self, tmp_path, labels, message):
        # one group in memory, but two once each is written as its own text
        out = tmp_path / "x.csv"
        with pytest.raises(ValueError, match=re.escape(message)):
            export_csv(np.zeros((4, 1)), labels, str(out))
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_data(self, tmp_path, value):
        out = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="finite"):
            export_csv(np.array([[0.0], [value]]), ["a", "b"], str(out))
        assert not out.exists()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        data=st.integers(2, 8).flatmap(
            lambda n: arrays(np.float64, (n, 3), elements=CSV_FLOATS)
        ),
        pool=st.lists(CSV_LABELS, min_size=1, max_size=4, unique=True),
        draws=st.data(),
    )
    def test_round_trip_property(self, tmp_path_factory, data, pool, draws):
        n = data.shape[0]
        labels = draws.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        out = tmp_path_factory.getbasetemp() / "round_trip_property.csv"
        export_csv(data, labels, str(out))
        ds = ingest_csv(str(out), "group")
        assert ds.matrix.dtype == np.float64
        assert ds.matrix.tobytes() == data.tobytes()  # bit for bit, -0.0 included
        first = list(dict.fromkeys(labels))
        assert list(ds.label_map.items()) == [(lab, i) for i, lab in enumerate(first, start=1)]
        assert [first[g - 1] for g in ds.assignment.labels.tolist()] == labels


class TestOptions:
    """Each option's default lives in the parser; bad options fail before the CSV is read."""

    @pytest.mark.parametrize("command", ["test", "relevance", "simulate", "shp"])
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--out" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["relevance", "shp"])
    def test_reports_without_test_options_echo_their_defaults(self, two_group_csv, tmp_path,
                                                              command):
        report = run_report([command, "--input", str(two_group_csv), "--group-col", "g"], tmp_path)
        validate_schema(report)
        config = report["config"]
        assert (config["test"], config["alpha"], config["seed"]) == ("both", 0.05, 0)
        assert (config["weight_mode"], config["zero_pairs"]) == ("default", [])

    @pytest.mark.parametrize("argv, message", [
        (["test", "--test", "perm:50"], "need at least 100 replicates, got B=50"),
        (["test", "--alpha", "0"], "alpha must be in (0, 1)"),
        (["test", "--zero-pairs", "1,2,3"], "malformed pair"),
        (["test", "--weights", "unit", "--zero-pairs", "1,2"], "mutually exclusive"),
        (["relevance", "--combine", "1,2"], "malformed --combine"),
        (["test", "--weights", "/nonexistent/weights.csv"], "/nonexistent/weights.csv not found"),
        (["test", "--cost", "gamma:3"], "gamma must lie in (0, 2], got 3.0"),
        (["test", "--cost", "gamma:abc"], "malformed gamma selector 'gamma:abc'"),
        (["test", "--cost", "bogus"], "unknown cost selector 'bogus'"),
        (["test", "--test", "perm:200", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        (["test", "--zero-pairs", "1,x"], "malformed pair '1,x' in --zero-pairs"),
        (["relevance", "--combine", "1,a;2"], "malformed --combine '1,a;2': '1,a' is not a list"),
        (["test", "--out", "/nonexistent/dir/r.json"],
         "--out /nonexistent/dir/r.json: no directory /nonexistent/dir"),
        (["relevance", "--tsv-out", "/nonexistent/dir/z.tsv"],
         "--tsv-out /nonexistent/dir/z.tsv: no directory /nonexistent/dir"),
        (["shp", "--out", "/nonexistent/dir/r.json"],
         "--out /nonexistent/dir/r.json: no directory /nonexistent/dir"),
    ])
    def test_option_errors_come_before_the_csv_is_read(self, two_group_csv, monkeypatch, capsys,
                                                        argv, message):
        def no_read(*args):
            raise AssertionError("read the CSV before checking the options")

        monkeypatch.setattr(cli, "ingest_csv", no_read)
        rc = main(argv + ["--input", str(two_group_csv), "--group-col", "g"])
        assert rc == 2
        assert message in capsys.readouterr().err


class TestTestCommand:
    def test_report_structure_and_schema(self, two_group_csv, tmp_path):
        report = run_report(
            ["test", "--input", str(two_group_csv), "--group-col", "g"], tmp_path
        )
        validate_schema(report)
        assert report["command"] == "test"
        assert report["input"]["sizes"] == [10, 10]
        assert set(report["results"]) == {"weighted_sum", "minimum"}
        assert report["config"]["weight_mode"] == "default"
        counts = np.array(report["counts"])
        assert counts[np.triu_indices(2)].sum() == 19

    def test_minimum_block_reports_its_standard_error(self, three_group_csv, tmp_path):
        report = run_report(
            ["test", "--input", str(three_group_csv), "--group-col", "g"], tmp_path
        )
        validate_schema(report)
        ws, mn = report["results"]["weighted_sum"], report["results"]["minimum"]
        assert mn["p_value_standard_error"] == 0.0  # K = 3 pairs: the exact tail
        assert "p_value_standard_error" not in ws

    def test_blocks_decide_by_p_value_and_report_the_minimum_critical_value(self, three_group_csv,
                                                                            tmp_path):
        report = run_report(
            ["test", "--input", str(three_group_csv), "--group-col", "g", "--alpha", "0.1"], tmp_path
        )
        validate_schema(report)
        for res in report["results"].values():
            assert res["alpha"] == 0.1
            assert res["reject"] == (res["p_value"] <= 0.1)
        w = inference.WeightMatrix(np.array(report["weights"]))
        ctx = MomentContext(report["input"]["sizes"])
        crit = inference.minimum_critical_value(w, ctx, alpha=0.1)
        assert report["results"]["minimum"]["critical_value"] == crit

    def test_minimum_block_reports_the_engine_standard_error(self, tmp_path):
        rng = np.random.default_rng(316)
        labels = [g for g in "abcd" for _ in range(6)]
        path = write_csv(tmp_path / "four.csv", labels, rng.normal(0.0, 1.0, (24, 3)))
        report = run_report(["test", "--input", str(path), "--group-col", "g"], tmp_path)
        validate_schema(report)
        assert 0.0 < report["results"]["minimum"]["p_value_standard_error"] <= 1e-4

    def test_two_groups_tests_agree(self, two_group_csv, tmp_path):
        report = run_report(
            ["test", "--input", str(two_group_csv), "--group-col", "g"], tmp_path
        )
        ws, mn = report["results"]["weighted_sum"], report["results"]["minimum"]
        assert ws["p_value"] == pytest.approx(mn["p_value"], abs=1e-9)
        assert ws["reject"] == mn["reject"]
        # clearly separated groups: both tests must reject
        assert ws["reject"] is True

    def test_permutation_block(self, two_group_csv, tmp_path):
        report = run_report(
            ["test", "--input", str(two_group_csv), "--group-col", "g", "--test", "perm:150"],
            tmp_path,
        )
        validate_schema(report)
        perm = report["results"]["permutation"]
        assert perm["replicates"] == 150
        for key in ("weighted_sum_p_value", "minimum_p_value"):
            assert 1.0 / 151.0 <= perm[key] <= 1.0
            assert perm[key] <= 0.05  # separation this strong is never matched

    def test_permutation_scores_the_counted_table(self, two_group_csv, tmp_path, monkeypatch):
        def recount(*args):
            raise AssertionError("the permutation reference recounted the table")

        monkeypatch.setattr(inference, "count_edges", recount)
        report = run_report(
            ["test", "--input", str(two_group_csv), "--group-col", "g", "--test", "perm:200"],
            tmp_path,
        )
        perm = report["results"]["permutation"]
        assert set(perm) == {"replicates", "weighted_sum_p_value", "minimum_p_value"}

    def test_zero_pairs_reflected_in_weights(self, three_group_csv, tmp_path):
        report = run_report(
            [
                "test", "--input", str(three_group_csv), "--group-col", "g",
                "--test", "min", "--zero-pairs", "1,3",
            ],
            tmp_path,
        )
        w = np.array(report["weights"])
        assert w[0, 2] == 0.0 and w[2, 0] == 0.0
        assert w[0, 1] > 0.0 and w[1, 2] > 0.0
        assert report["config"]["weight_mode"] == "zero-pairs"
        assert report["config"]["zero_pairs"] == [[1, 3]]

    def test_unit_weights_option(self, two_group_csv, tmp_path):
        report = run_report(
            ["test", "--input", str(two_group_csv), "--group-col", "g",
             "--test", "ws", "--weights", "unit"],
            tmp_path,
        )
        assert np.array(report["weights"]).tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert report["config"]["weight_mode"] == "unit"

    def test_weights_from_file(self, two_group_csv, tmp_path):
        wfile = tmp_path / "w.csv"
        wfile.write_text("0,2.5\n2.5,0\n")
        report = run_report(
            ["test", "--input", str(two_group_csv), "--group-col", "g",
             "--test", "ws", "--weights", str(wfile)],
            tmp_path,
        )
        assert np.array(report["weights"])[0, 1] == 2.5
        assert report["config"]["weight_mode"] == "file"

    @pytest.mark.parametrize("text, message", [
        ("0,1\n2,0\n", "weight grid must be symmetric"),
        ("a,b\n0,1\n1,0\n", "could not convert string 'a'"),
        ("0,1\n1\n", "number of columns changed"),
        ("", "input contained no data"),
    ])
    def test_weights_file_that_is_not_a_weight_grid_fails_before_the_csv_is_read(
            self, two_group_csv, tmp_path, monkeypatch, capsys, text, message):
        wfile = tmp_path / "w.csv"
        wfile.write_text(text)
        monkeypatch.setattr(cli, "ingest_csv", mock.Mock(side_effect=AssertionError("read the CSV")))
        rc = main(["test", "--input", str(two_group_csv), "--group-col", "g", "--weights", str(wfile)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: weights file {wfile}: ") and message in err

    def test_weights_file_of_another_k_fails_once_k_is_known(self, two_group_csv, tmp_path, capsys):
        wfile = tmp_path / "w.csv"
        wfile.write_text("0,1,1\n1,0,1\n1,1,0\n")
        rc = main(["test", "--input", str(two_group_csv), "--group-col", "g", "--weights", str(wfile)])
        assert rc == 2
        assert "weight grid is 3 x 3 but context has k=2" in capsys.readouterr().err

    def test_data_and_cost_matrices_are_let_go_before_the_tests_run(self, two_group_csv, tmp_path,
                                                                   monkeypatch):
        """Inference's working memory is not added to the N x N costs, which nothing after the path reads."""
        matrices = []
        ingest, resolve, count = cli.ingest_csv, cli.resolve_cost, cli.count_edges

        def ingesting(*args):
            dataset = ingest(*args)
            matrices.append(weakref.ref(dataset.matrix))
            return dataset

        def resolving(selector):
            build = resolve(selector)

            def building(data):
                costs = build(data)
                matrices.append(weakref.ref(costs))
                return costs
            return building

        alive = []

        def counting(*args):  # the first thing cmd_test's blocks compute from the path
            alive.extend(ref() is not None for ref in matrices)
            return count(*args)

        monkeypatch.setattr(cli, "ingest_csv", ingesting)
        monkeypatch.setattr(cli, "resolve_cost", resolving)
        monkeypatch.setattr(cli, "count_edges", counting)
        report = run_report(["test", "--input", str(two_group_csv), "--group-col", "g"], tmp_path)
        assert alive == [False, False]
        assert report["results"]["minimum"]["p_value"] > 0.0

    def test_moment_block_matches_sizes(self, two_group_csv, tmp_path):
        report = run_report(
            ["test", "--input", str(two_group_csv), "--group-col", "g", "--test", "ws"],
            tmp_path,
        )
        mean = np.array(report["moments"]["mean"])
        assert mean[0, 1] == pytest.approx(2 * 10 * 10 / 20)
        assert mean[0, 0] == pytest.approx(10 * 9 / 20)

    def test_stderr_warns_of_assumption_breaches_only(self, two_group_csv, tmp_path, capsys):
        report = run_report(["test", "--input", str(two_group_csv), "--group-col", "g",
                             "--test", "ws"], tmp_path)
        assert report["warnings"] == []
        assert capsys.readouterr().err == ""
        data = np.random.default_rng(3).standard_normal((8, 3))
        data[5] = data[1]  # two identical rows: one zero cost
        dup = write_csv(tmp_path / "dup.csv", ["a"] * 4 + ["b"] * 4, data)
        report = run_report(["test", "--input", str(dup), "--group-col", "g", "--test", "ws",
                             "--check-assumptions"], tmp_path)
        diag = report["cost_diagnostics"]
        assert diag["positivity_violations"] == 1 and not diag["ok"]
        assert capsys.readouterr().err == f"warning: cost assumption check: {diag['summary']}\n"

    def test_check_assumptions_block(self, two_group_csv, tmp_path):
        report = run_report(
            ["test", "--input", str(two_group_csv), "--group-col", "g",
             "--test", "ws", "--cost", "gamma:2", "--check-assumptions"],
            tmp_path,
        )
        validate_schema(report)
        diag = report["cost_diagnostics"]
        assert diag["ok"] is True
        assert diag["triangle_violations"] == 0
        jsonschema = pytest.importorskip("jsonschema")
        report["cost_diagnostics"]["triangle_violations"] = -1
        with pytest.raises(jsonschema.ValidationError):
            validate_schema(report)

    def test_rejects_single_group(self, tmp_path, capsys):
        p = write_csv(tmp_path / "one.csv", ["a"] * 5, np.eye(5))
        rc = main(["test", "--input", str(p), "--group-col", "g"])
        assert rc == 2
        assert "at least 2 groups" in capsys.readouterr().err


class TestRelevanceCommand:
    def test_grid_and_combined_entries(self, three_group_csv, tmp_path):
        report = run_report(
            ["relevance", "--input", str(three_group_csv), "--group-col", "g",
             "--combine", "1;2,3"],
            tmp_path,
        )
        validate_schema(report)
        z = report["z"]
        assert len(z) == 3
        for i in range(3):
            assert z[i][i] is None
            for j in range(3):
                if i != j:
                    assert isinstance(z[i][j], float)
                    assert z[i][j] == z[j][i]
        (entry,) = report["combined"]
        assert entry["a1"] == [1] and entry["a2"] == [2, 3]
        assert entry["abs_z"] == abs(entry["z"])

    def test_tsv_rendering(self, three_group_csv, tmp_path):
        report = run_report(
            ["relevance", "--input", str(three_group_csv), "--group-col", "g"], tmp_path
        )
        tsv = relevance_tsv(report)
        lines = tsv.strip().split("\n")
        assert lines[0] == "group\t1\t2\t3"
        assert len(lines) == 4
        first = lines[1].split("\t")
        assert first[0] == "1" and first[1] == ""  # empty diagonal cell

    def test_tsv_out_writes_file(self, three_group_csv, tmp_path):
        tsv_path = tmp_path / "z.tsv"
        run_report(
            ["relevance", "--input", str(three_group_csv), "--group-col", "g",
             "--tsv-out", str(tsv_path)],
            tmp_path,
        )
        assert tsv_path.read_text().startswith("group\t")

    def test_tsv_to_stdout_when_json_goes_to_file(self, three_group_csv, tmp_path, capsys):
        run_report(
            ["relevance", "--input", str(three_group_csv), "--group-col", "g"], tmp_path
        )
        out = capsys.readouterr().out
        assert out.startswith("group\t")


class TestSimulateCommand:
    def test_null_case_power_near_alpha(self, tmp_path):
        report = run_report(
            ["simulate", "--case", "0", "--d", "20", "--trials", "50", "--test", "ws"],
            tmp_path,
        )
        validate_schema(report)
        res = report["results"]["weighted_sum"]
        assert 0.0 <= res["power"] <= 0.2
        expected_se = (res["power"] * (1 - res["power"]) / 50) ** 0.5
        assert res["mc_se"] == pytest.approx(expected_se)
        assert report["case"]["id"] == 0
        assert report["case"]["sizes"] == [20, 40]

    def test_negative_seed_fails_before_any_trial(self, monkeypatch, capsys):
        def no_trials(*args, **kwargs):
            raise AssertionError("ran trials before checking --seed")

        monkeypatch.setattr(cli, "estimate_power", no_trials)
        assert main(["simulate", "--case", "1", "--seed", "-1"]) == 2
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_bad_alpha_fails_before_any_trial(self, monkeypatch, capsys):
        def no_trials(*args, **kwargs):
            raise AssertionError("ran trials before checking --alpha")

        monkeypatch.setattr(cli, "estimate_power", no_trials)
        assert main(["simulate", "--case", "1", "--d", "20", "--trials", "50", "--alpha", "1.5"]) == 2
        assert capsys.readouterr().err == "error: alpha must be in (0, 1), got 1.5\n"

    def test_bad_cost_is_reported_before_the_case_file(self, tmp_path, monkeypatch, capsys):
        def no_trials(*args, **kwargs):
            raise AssertionError("ran trials before checking --cost")

        monkeypatch.setattr(cli, "estimate_power", no_trials)
        spec = tmp_path / "design.json"
        spec.write_text(json.dumps({"sizes": [6, 6], "means": [0.0], "covs": [{}, {}]}))
        rc = main(["simulate", "--case-file", str(spec), "--cost", "bogus", "--trials", "50"])
        assert rc == 2
        assert capsys.readouterr().err == ("error: unknown cost selector 'bogus'; "
                                           "expected gamma:G, average or diff\n")

    @pytest.mark.parametrize("design", [["--case", "1"], ["--case-file", "design.json"]],
                             ids=["preset", "case-file"])
    def test_bad_d_option_is_not_blamed_on_the_case_file(self, tmp_path, monkeypatch, capsys,
                                                         design):
        def no_trials(*args, **kwargs):
            raise AssertionError("ran trials before checking --d")

        monkeypatch.setattr(cli, "estimate_power", no_trials)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "design.json").write_text(json.dumps({"sizes": [6, 6], "d": 8,
                                                          "means": [0.0, 1.0], "covs": [{}, {}]}))
        assert main(["simulate", *design, "--d", "0", "--trials", "50", "--test", "ws"]) == 2
        assert capsys.readouterr().err == "error: --d must be a positive integer, got 0\n"

    @pytest.mark.parametrize("option", ["--out", "--dump-data"])
    def test_output_path_in_a_missing_directory_fails_before_any_trial(self, tmp_path,
                                                                       monkeypatch, capsys, option):
        calls, draw = [], sim.gen_gaussian

        def counted(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(sim, "gen_gaussian", counted)
        monkeypatch.setattr(cli, "gen_gaussian", counted)
        target = tmp_path / "missing" / "r.json"
        rc = main(["simulate", "--case", "5", "--d", "50", "--trials", "50", option, str(target)])
        assert rc == 2 and calls == []
        assert capsys.readouterr().err == f"error: {option} {target}: no directory {target.parent}\n"
        assert not target.parent.exists()

    @pytest.mark.parametrize("design", [["--case", "5", "--d", "1000000000"],
                                        ["--case-file", "design.json"]],
                             ids=["preset", "case-file"])
    def test_design_too_large_for_memory_fails_before_any_trial(self, tmp_path, monkeypatch,
                                                                 capsys, design):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew data for a design too large for memory")

        monkeypatch.setattr(cost, "_physical_memory_bytes", lambda: 2 ** 30)
        monkeypatch.setattr(sim, "gen_gaussian", no_draw)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "design.json").write_text(json.dumps({"sizes": [6, 1000000000],
                                                          "means": [0.0, 1.0], "covs": [{}, {}]}))
        assert main(["simulate", *design, "--trials", "50"]) == 2
        err = capsys.readouterr().err
        shown = "N=90 observations in d=1000000000" if design[0] == "--case" else (
            "case file design.json: N=1000000006 observations in d=100")
        assert err.startswith(f"error: {shown} dimensions need about ")
        assert err.endswith("GiB for the data and the cost matrix, "
                            "more than the 1.0 GiB of physical memory\n")

    def test_deterministic(self, tmp_path):
        args = ["simulate", "--case", "1", "--d", "25", "--trials", "50", "--test", "ws"]
        r1 = run_report(args, tmp_path, "a.json")
        r2 = run_report(args, tmp_path, "b.json")
        assert r1 == r2

    def test_case_file_design(self, tmp_path):
        spec = tmp_path / "design.json"
        spec.write_text(json.dumps({
            "sizes": [6, 6],
            "d": 8,
            "means": [0.0, 5.0],
            "covs": [{}, {"rho": 0.2}],
        }))
        report = run_report(
            ["simulate", "--case-file", str(spec), "--trials", "50", "--test", "ws"],
            tmp_path,
        )
        validate_schema(report)
        assert report["case"]["id"] is None
        assert report["case"]["sizes"] == [6, 6]
        assert report["case"]["covs"][1]["rho"] == 0.2
        assert report["results"]["weighted_sum"]["power"] >= 0.95

    def test_dump_data_is_ingestible(self, tmp_path):
        dump = tmp_path / "trial.csv"
        run_report(
            ["simulate", "--case", "1", "--d", "12", "--trials", "50", "--test", "ws",
             "--dump-data", str(dump)],
            tmp_path,
        )
        ds = ingest_csv(str(dump), "group")
        assert ds.n == 60 and ds.d == 12
        assert list(ds.assignment.sizes) == [20, 40]

    def test_rejects_unknown_case(self, tmp_path, capsys):
        rc = main(["simulate", "--case", "9", "--trials", "50"])
        assert rc == 2
        assert "expected 0..6" in capsys.readouterr().err

    def test_case_file_missing_key_names_file_and_key(self, tmp_path, capsys):
        spec = tmp_path / "design.json"
        spec.write_text(json.dumps({"sizes": [6, 6], "covs": [{}, {}]}))
        rc = main(["simulate", "--case-file", str(spec), "--trials", "50", "--test", "ws"])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(spec) in err and "'means'" in err

    @pytest.mark.parametrize("key, value, shown", [
        ("sizes", 3, "3"), ("means", {"a": 1}, '{"a": 1}'), ("covs", 5, "5"), ("covs", None, "null"),
    ])
    def test_case_file_key_that_is_not_a_list(self, tmp_path, capsys, key, value, shown):
        spec = tmp_path / "design.json"
        spec.write_text(json.dumps({"sizes": [6, 6], "means": [0.0, 1.0], "covs": [{}, {}],
                                    key: value}))
        rc = main(["simulate", "--case-file", str(spec), "--trials", "50", "--test", "ws"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: case file {spec}: {key} is {shown}; expected a list\n"

    def test_case_file_that_is_not_an_object(self, tmp_path, capsys):
        spec = tmp_path / "design.json"
        spec.write_text("[6, 6]")
        rc = main(["simulate", "--case-file", str(spec), "--trials", "50", "--test", "ws"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: case file {spec} is [6, 6]; expected an object\n"

    @pytest.mark.parametrize("entry, shown", [(3, "3"), (None, "null")])
    def test_case_file_covs_entry_that_is_not_an_object(self, tmp_path, capsys, entry, shown):
        spec = tmp_path / "design.json"
        spec.write_text(json.dumps({"sizes": [6, 6], "means": [0.0, 1.0], "covs": [{}, entry]}))
        rc = main(["simulate", "--case-file", str(spec), "--trials", "50", "--test", "ws"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(spec) in err
        assert f"covs entry 1 is {shown}" in err

    @pytest.mark.parametrize("design, shown", [
        ({"sizes": [20.7, 30], "d": 10}, "sizes must be positive integers, got (20.7, 30)"),
        ({"sizes": [True, 30], "d": 10}, "sizes must be positive integers, got (True, 30)"),
        ({"sizes": [20, 30], "d": 10.9}, "dimension must be a positive integer, got 10.9"),
        ({"sizes": [20, 30], "d": False}, "dimension must be a positive integer, got False"),
        pytest.param({"sizes": [6, 10 ** 400], "d": 10},
                     f"sizes must be positive integers, got (6, {10 ** 400})", id="beyond-float-size"),
    ])
    def test_case_file_sizes_and_d_that_are_not_whole(self, tmp_path, monkeypatch, capsys,
                                                      design, shown):
        def no_trials(*args, **kwargs):
            raise AssertionError("ran trials on a truncated design")

        monkeypatch.setattr(cli, "estimate_power", no_trials)
        spec = tmp_path / "design.json"
        spec.write_text(json.dumps({"means": [0.0, 1.0], "covs": [{}, {}], **design}))
        rc = main(["simulate", "--case-file", str(spec), "--trials", "50", "--test", "ws"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: case file {spec}: {shown}\n"

    @pytest.mark.parametrize("design, shown", [
        ({"means": [True, False]}, "means must be finite real numbers, got (True, False)"),
        ({"means": [0, "1"]}, "means must be finite real numbers, got (0, '1')"),
        ({"means": [0, float("inf")]}, "means must be finite real numbers, got (0, inf)"),
        ({"covs": [{"sigma2": True}, {}]}, "sigma2 must be positive and finite, got True"),
        ({"covs": [{}, {"rho": False}]}, "rho must be in (-1, 1), got False"),
        ({"covs": [{"rho": "0.2"}, {}]}, "rho must be in (-1, 1), got '0.2'"),
        ({"means": [0, 10 ** 400]}, f"means must be finite real numbers, got (0, {10 ** 400})"),
        ({"covs": [{}, {"sigma2": 10 ** 400}]}, f"sigma2 must be positive and finite, got {10 ** 400}"),
    ], ids=["bool-means", "string-mean", "infinite-mean", "bool-sigma2", "bool-rho", "string-rho",
            "beyond-float-mean", "beyond-float-sigma2"])
    def test_case_file_numbers_that_are_not_real(self, tmp_path, monkeypatch, capsys,
                                                 design, shown):
        def no_trials(*args, **kwargs):
            raise AssertionError("ran trials on a design read as numbers")

        monkeypatch.setattr(cli, "estimate_power", no_trials)
        spec = tmp_path / "design.json"
        spec.write_text(json.dumps({"sizes": [6, 6], "d": 8, "means": [0.0, 1.0], "covs": [{}, {}],
                                    **design}))
        rc = main(["simulate", "--case-file", str(spec), "--trials", "50", "--test", "ws"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: case file {spec}: {shown}\n"

    def test_case_file_integral_floats_are_whole(self, tmp_path):
        spec = tmp_path / "design.json"
        spec.write_text(json.dumps({"sizes": [6.0, 6], "d": 8.0, "means": [0.0, 5.0],
                                    "covs": [{}, {}]}))
        report = run_report(
            ["simulate", "--case-file", str(spec), "--trials", "50", "--test", "ws"], tmp_path)
        validate_schema(report)
        assert report["case"]["sizes"] == [6, 6] and report["case"]["d"] == 8

    def test_rejects_unknown_test_selector(self, capsys):
        rc = main(["simulate", "--case", "1", "--trials", "50", "--test", "perm:100"])
        assert rc == 2
        assert "simulate supports" in capsys.readouterr().err


class TestShpCommand:
    def test_single_group_allowed(self, tmp_path):
        rng = np.random.default_rng(77)
        p = write_csv(tmp_path / "solo.csv", ["s"] * 8, rng.standard_normal((8, 3)))
        report = run_report(["shp", "--input", str(p), "--group-col", "g"], tmp_path)
        validate_schema(report)
        order = report["path"]["order"]
        assert sorted(order) == list(range(8))
        assert len(report["path"]["edge_costs"]) == 7
        assert sum(report["path"]["edge_costs"]) == pytest.approx(report["path"]["total_cost"])

    def test_deterministic(self, two_group_csv, tmp_path):
        args = ["shp", "--input", str(two_group_csv), "--group-col", "g"]
        assert run_report(args, tmp_path, "a.json") == run_report(args, tmp_path, "b.json")


class TestDataReportMemory:
    @pytest.mark.parametrize("extra", [[], ["--standardize"], ["--check-assumptions"],
                                       ["--standardize", "--check-assumptions"]],
                             ids=["plain", "standardize", "check", "standardize-check"])
    @pytest.mark.parametrize("command", ["test", "relevance", "shp"])
    def test_data_matrix_is_let_go_before_the_path(self, three_group_csv, tmp_path, monkeypatch,
                                                   command, extra):
        """The path runs beside the N x N costs alone; the diagnostics read only the costs."""
        matrices, paths = [], []
        ingest, shp = cli.ingest_csv, cli.approximate_shp

        def ingesting(*args):
            dataset = ingest(*args)
            matrices.append(weakref.ref(dataset.matrix))
            return dataset

        def pathing(costs):
            assert len(matrices) == 1 and matrices[0]() is None, "the data matrix outlived the costs"
            paths.append(shp(costs))
            return paths[-1]

        monkeypatch.setattr(cli, "ingest_csv", ingesting)
        monkeypatch.setattr(cli, "approximate_shp", pathing)
        report = run_report([command, "--input", str(three_group_csv), "--group-col", "g", *extra],
                            tmp_path)
        assert len(paths) == 1
        assert report["path"]["order"] == paths[0].tolist()
        assert report["input"]["n_rows"] == 13 and report["input"]["n_features"] == 5


class TestMainExitCodes:
    def test_missing_input_file(self, capsys):
        rc = main(["test", "--input", "/nonexistent.csv", "--group-col", "g"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_zero_pairs(self, two_group_csv, capsys):
        rc = main(["test", "--input", str(two_group_csv), "--group-col", "g",
                   "--zero-pairs", "1,2,3"])
        assert rc == 2
        assert "malformed pair" in capsys.readouterr().err

    def test_bad_alpha(self, two_group_csv, capsys):
        rc = main(["test", "--input", str(two_group_csv), "--group-col", "g",
                   "--alpha", "1.5"])
        assert rc == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("selector", ["permutation:200", "perm:abc", "perm:", "perm:1e4"])
    def test_unknown_test_selector(self, two_group_csv, capsys, selector):
        rc = main(["test", "--input", str(two_group_csv), "--group-col", "g", "--test", selector])
        assert rc == 2
        assert "unknown test selector" in capsys.readouterr().err

    def test_malformed_combine(self, three_group_csv, capsys):
        rc = main(["relevance", "--input", str(three_group_csv), "--group-col", "g",
                   "--combine", "1,2"])
        assert rc == 2
        assert "malformed --combine" in capsys.readouterr().err

    def test_cost_matrix_too_large_for_memory(self, two_group_csv, monkeypatch, capsys):
        monkeypatch.setattr(cost, "_physical_memory_bytes", lambda: 1024)
        rc = main(["shp", "--input", str(two_group_csv), "--group-col", "g"])
        assert rc == 2
        assert "N=20 observations need about" in capsys.readouterr().err

    def test_degenerate_minimum_test(self, tmp_path, capsys):
        p = tmp_path / "pair.csv"
        p.write_text("g,x1\na,1.0\nb,2.0\n")
        with pytest.warns(RuntimeWarning, match="single observation"):
            rc = main(["test", "--input", str(p), "--group-col", "g",
                       "--test", "min", "--weights", "unit"])
        assert rc == 2
        assert "test is degenerate" in capsys.readouterr().err

    def test_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "latin1.csv"
        p.write_bytes("g,x1\na,1.0\ncafé,2.0\na,3.0\n".encode("latin-1"))
        rc = main(["shp", "--input", str(p), "--group-col", "g"])
        assert rc == 2
        assert f"{p}: line 3 is not UTF-8" in capsys.readouterr().err

    def test_non_finite_cell(self, tmp_path, capsys):
        p = tmp_path / "nan.csv"
        p.write_text("g,x1\na,1.0\nb,nan\n")
        rc = main(["shp", "--input", str(p), "--group-col", "g"])
        assert rc == 2
        assert "line 3, column 'x1'" in capsys.readouterr().err


class TestModuleEntryPoint:
    """``python -m relevance_kit.cli`` runs ``main`` and returns its exit code."""

    def run_module(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "relevance_kit.cli", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_prints_report(self, two_group_csv):
        proc = self.run_module("test", "--input", str(two_group_csv), "--group-col", "g",
                               "--test", "ws")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["command"] == "test"
        assert "weighted_sum" in report["results"]

    def test_bad_input_exits_2(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("g,x1\na,1.0\nb,oops\n")
        proc = self.run_module("test", "--input", str(p), "--group-col", "g")
        assert proc.returncode == 2
        assert "line 3, column 'x1'" in proc.stderr


class TestImportGraph:
    """The CLI never loads ``scipy.stats``, ``scipy.signal`` or ``scipy.optimize``.

    Every command pays an import.  Checked in a fresh interpreter, since
    pytest plugins may already have loaded scipy here; the small
    ``simulate`` run also catches an import placed inside a function.
    """

    PROBE = (
        "import contextlib, io, json, sys\n"
        "import relevance_kit.cli as cli\n"
        "banned = ('scipy.stats', 'scipy.signal', 'scipy.optimize')\n"
        "after_import = [m for m in banned if m in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['simulate', '--case', '5', '--d', '20', '--trials', '50'])\n"
        "print(json.dumps([rc, after_import, [m for m in banned if m in sys.modules]]))\n"
    )

    def test_cli_loads_neither_scipy_stats_nor_signal(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", self.PROBE],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rc, after_import, after_simulate = json.loads(proc.stdout)
        assert rc == 0
        assert after_import == []
        assert after_simulate == []
