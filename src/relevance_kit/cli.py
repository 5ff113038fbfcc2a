"""Command-line interface: CSV in, JSON/TSV reports out.

Four subcommands cover the pipeline: ``test`` (k-sample hypothesis
tests), ``relevance`` (pairwise and union z-scores), ``simulate``
(power estimation on preset or file-defined Gaussian designs) and
``shp`` (path construction only).  Reports are JSON validating against
the schema shipped in ``schemas/report.schema.json``; every command is
deterministic given the input file, options and seed.

Every command takes one options object, the ``argparse.Namespace`` of
:func:`build_parser`, which holds every default.  The data commands
(``test``, ``relevance``, ``shp``) check their options before the CSV is
read and build their reports on one skeleton, ``_data_report``.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import __version__
from .cost import _all_finite, _strip_rows, validate_assumptions
from .counts import GroupAssignment, count_edges, union_ids
from .inference import (
    MIN_REPLICATES,
    WeightMatrix,
    _check_alpha,
    _check_k,
    minimum_critical_value,
    minimum_test,
    permutation_pvalue,
    weighted_sum_test,
)
from .moments import MomentContext
from .relevance import relevance_report
from .shp import approximate_shp
from .sim import SimCase, CovSpec, estimate_power, gen_gaussian, preset_case, resolve_cost

__all__ = [
    "InputDataset",
    "ingest_csv",
    "export_csv",
    "cmd_test",
    "cmd_relevance",
    "cmd_simulate",
    "cmd_shp",
    "main",
]


# --------------------------------------------------------------------------
# Ingestion


@dataclass(frozen=True)
class InputDataset:
    """Numeric matrix plus per-row group labels parsed from one CSV."""

    matrix: np.ndarray
    assignment: GroupAssignment
    label_map: dict
    source: str
    group_col: str
    feature_names: tuple

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def d(self) -> int:
        return int(self.matrix.shape[1])


def _not_utf8(path: str, fh) -> ValueError:
    """The error for a file that is not UTF-8, naming its first undecodable line.

    The text reader decodes ahead of the line it hands out, so the line
    is found again from the raw bytes of ``fh``, the file being read;
    no UTF-8 sequence spans a newline.
    """
    fh.seek(0)
    for lineno, line in enumerate(fh, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return ValueError(f"{path}: line {lineno} is not UTF-8: {exc.reason} "
                              f"(byte {line[exc.start]:#04x})")
    return ValueError(f"{path}: file is not UTF-8")


class _CsvTable:
    """One CSV's data matrix and label ids, filled record by record.

    The file ``raw`` is counted before it is decoded: its line breaks
    (``\\n``, ``\\r`` or ``\\r\\n``; one split across two blocks counts
    twice) and its bytes.  Then ``src`` is parsed: ``raw`` itself, or,
    when ``raw`` cannot seek back (a pipe), a temporary file its bytes
    are copied to as they are counted.  The matrix and the ids are
    allocated once, after the header, with a row for each line but the
    header, and no more than bytes / (d + 1) rows: a record holds d
    commas and a line break or a label, so blank lines add few.  ``n``
    of those rows are filled.

    ``lines`` hands out the text lines, and keeps each in ``kept`` until
    ``forget`` adds the kept lines to the count of those before them,
    ``before``.
    """

    def __init__(self, raw, src, path: str, group_col: str):
        breaks, size, last = 0, 0, b""
        for block in iter(lambda: raw.read(1 << 16), b""):
            c = np.frombuffer(block, np.uint8)  # a \r counts unless \n follows it
            lone_cr = np.count_nonzero((c[:-1] == 13) & (c[1:] != 10)) + (c[-1] == 13)
            breaks += np.count_nonzero(c == 10) + int(lone_cr)
            size, last = size + len(block), block[-1:]
            if src is not raw:
                src.write(block)
        src.seek(0)
        kept = self.kept = []  # the lambda holds the list, not the table: no cycle
        self.lines = map(lambda line: kept.append(line) or line,
                         io.TextIOWrapper(src, "utf-8-sig", newline=""))
        self.path, self.before, self.label_map, self.n, self.not_finite = path, 0, {}, 0, None
        try:
            self.header = [h.strip() for h in next(csv.reader(self.lines))]
        except StopIteration:
            raise ValueError(f"{path}: file is empty; expected a header row") from None
        except csv.Error as exc:  # a field over csv's limit
            raise ValueError(f"{path}: line 1: {exc}") from None
        if group_col not in self.header:
            raise ValueError(f"{path}: group column {group_col!r} not in header; "
                             f"available: {self.header}")
        self.gidx = self.header.index(group_col)
        self.feature_names = tuple(h for i, h in enumerate(self.header) if i != self.gidx)
        if not self.feature_names:
            raise ValueError(f"{path}: no feature columns besides the group column")
        rows = min(breaks - (last in (b"\n", b"\r")), size // len(self.header))
        self.matrix, self.ids = np.empty((rows, len(self.feature_names))), np.empty(rows, np.int64)
        self.forget()

    def forget(self) -> None:
        self.before += len(self.kept)
        self.kept.clear()

    def numpy_chunk(self, rows: int) -> int:
        """Read up to ``rows`` records with numpy's C reader; returns how many.

        A chunk that reader rejects, or that is not as wide as the
        header, holds an empty label or a non-finite cell, or overruns
        the matrix, is read again from its kept lines by ``per_line``,
        once the label ids numpy added are taken back.
        """
        self.forget()
        known, g, ids = len(self.label_map), self.gidx, self.label_map
        try:
            with warnings.catch_warnings():
                # blank lines, and a chunk with no records, warn
                warnings.simplefilter("ignore", UserWarning)
                # encoding=None hands the converter str; before numpy 2 the
                # default, "bytes", handed it latin-1 bytes
                table = np.loadtxt(
                    self.lines, dtype=np.float64, delimiter=",", quotechar='"', comments=None,
                    converters={g: lambda cell: ids.setdefault(cell.strip(), len(ids) + 1)},
                    ndmin=2, encoding=None, max_rows=rows,
                )
        except UnicodeDecodeError:
            raise  # the text reader cannot resume past it: the lines stop here
        except ValueError:
            table = None
        if table is None or len(table) and (
            table.shape[1] != len(self.header) or "" in ids or not _all_finite(table)
            or self.n + len(table) > len(self.ids)
        ):
            while len(ids) > known:
                ids.popitem()
            return self.per_line(rows)
        a, self.n = self.n, self.n + len(table)
        if len(table):  # a chunk of blank lines has one column
            self.matrix[a : self.n, :g] = table[:, :g]
            self.matrix[a : self.n, g:] = table[:, g + 1 :]
            self.ids[a : self.n] = table[:, g]
        return len(table)

    def per_line(self, rows) -> int:
        """Read up to ``rows`` records from the kept lines on with
        ``csv.reader`` and ``float``; returns how many.

        Slow, but every parse error names its physical line (the last
        line of a record whose quoted label spans lines) and its column;
        a field over ``csv``'s process-wide size limit names its line.
        The first non-finite cell is named in ``not_finite``.  A record
        beyond the rows the line count allowed means the file grew
        after it was counted.
        """
        path, header, gidx, start, a = self.path, self.header, self.gidx, self.before, self.n
        reader = csv.reader(itertools.chain(self.kept.copy(), self.lines))

        def records():
            try:
                yield from reader
            except csv.Error as exc:  # a field over csv's limit
                raise ValueError(f"{path}: line {start + reader.line_num}: {exc}") from None

        for row in records():
            self.forget()  # the reader holds the lines it has yet to parse
            lineno = start + reader.line_num  # a quoted label can span lines
            if not row or all(not c.strip() for c in row):
                continue  # blank line
            if len(row) != len(header):
                raise ValueError(f"{path}: line {lineno} has {len(row)} fields, "
                                 f"expected {len(header)}")
            label = row[gidx].strip()
            if not label:
                raise ValueError(f"{path}: line {lineno} has an empty group label")
            if self.n == len(self.ids):
                raise ValueError(f"{path}: file changed while it was read")
            self.ids[self.n] = self.label_map.setdefault(label, len(self.label_map) + 1)
            for c, cell in enumerate(row[:gidx] + row[gidx + 1 :]):
                try:
                    self.matrix[self.n, c] = float(cell)
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}, column {self.feature_names[c]!r}: "
                                     f"could not parse {cell!r} as a number") from None
            bad = next((c for c, v in enumerate(self.matrix[self.n]) if not math.isfinite(v)), None)
            if self.not_finite is None and bad is not None:
                self.not_finite = (f"{path}: line {lineno}, column {self.feature_names[bad]!r}: "
                                   f"value {self.matrix[self.n, bad]} is not a finite number")
            self.n += 1
            if self.n - a == rows:
                break
        return self.n - a


def _read_csv(path: str, group_col: str, chunked: bool) -> InputDataset:
    """``ingest_csv``, or with ``chunked`` false ``_ingest_csv_per_line``."""
    with open(path, "rb") as raw, (raw if raw.seekable() else tempfile.TemporaryFile()) as src:
        try:
            table = _CsvTable(raw, src, path, group_col)
            rows = _strip_rows(64 * len(table.header)) if chunked else math.inf
            while (table.numpy_chunk if chunked else table.per_line)(rows) == rows:
                pass
        except UnicodeDecodeError:
            raise _not_utf8(path, src) from None
    if table.n < 2:
        raise ValueError(f"{path}: need at least 2 data rows, found {table.n}")
    if table.not_finite:
        raise ValueError(table.not_finite)
    return InputDataset(table.matrix[: table.n], GroupAssignment(table.ids[: table.n]),
                        table.label_map, path, group_col, table.feature_names)


def ingest_csv(path: str, group_col: str) -> InputDataset:
    """Parse a rectangular numeric CSV with a header and a label column.

    The file is UTF-8, with or without a byte-order mark.  Labels are
    stripped and mapped to dense ids 1..k in order of first appearance;
    the mapping is echoed in every report so downstream group ids are
    unambiguous.  Lines that are blank or hold only empty cells are
    skipped.  A cell is a number if Python's ``float`` reads it.

    The file is parsed once, in chunks of rows of at most a sixty-fourth
    of ``_STRIP_CELLS`` cells (32 KiB, so that with its kept text a
    chunk stays under 128 KiB), each read by numpy's C reader
    (``np.loadtxt``) and copied into a matrix allocated once
    (``_CsvTable``).  A chunk that reader cannot take, or that holds a
    non-finite cell, is parsed again from its own lines by the per-line
    parser, ``_CsvTable.per_line``, which names the offending line and
    column of any error: parse errors in file order, then the first
    non-finite cell, such as ``nan`` or ``inf``.  On a chunk both
    readers take, the two give the same rows bit for bit.  The lines
    are counted first, so a pipe is copied to a temporary file as it is
    counted, and a file that grows while it is read is refused.
    """
    return _read_csv(path, group_col, chunked=True)


def _ingest_csv_per_line(path: str, group_col: str) -> InputDataset:
    """``ingest_csv`` as one chunk, read by the per-line parser alone: the
    reference its numpy chunks are tested against."""
    return _read_csv(path, group_col, chunked=False)


def export_csv(data, labels, path: str, group_col: str = "group") -> None:
    """Write a dataset in the format ``ingest_csv`` reads back losslessly.

    ``ingest_csv`` needs 2 rows and a feature column, strips each label
    and header name and the file's byte-order mark, and rejects empty
    labels and non-finite cells, so data without them, such labels, a
    ``group_col`` it would strip and non-finite data are refused here,
    before the file is opened.  Labels are written as ``str(label)``,
    so two distinct labels with the same text (``1`` and ``"1"``) would
    come back as one group, and two equal labels with different text
    (``1`` and ``1.0``, or ``True`` and ``1``, one group to
    ``GroupAssignment.from_labels``) as two: both are refused too.  The
    file is UTF-8.
    """
    data = np.asarray(data, dtype=np.float64)
    labels = list(labels)
    if data.ndim != 2 or len(labels) != data.shape[0]:
        raise ValueError("data must be 2-D with one label per row")
    if data.shape[0] < 2 or data.shape[1] < 1:
        raise ValueError(f"data must have at least 2 rows and 1 column, got shape {data.shape}")
    # group_col is written first, where ingest drops a byte-order mark
    if group_col != group_col.strip() or group_col.startswith("\ufeff"):
        raise ValueError(f"group column {group_col!r} has leading or trailing whitespace "
                         "or a leading byte-order mark")
    if not _all_finite(data):
        raise ValueError("data must be finite")
    by_text, by_label = {}, {}
    for lab in labels:
        text = str(lab)
        if not text or text != text.strip():
            raise ValueError(f"label {lab!r} is empty or has leading or trailing whitespace")
        first = by_text.setdefault(text, lab)
        if first is not lab and first != lab:
            raise ValueError(f"labels {first!r} and {lab!r} are both written as {text!r}")
        written = by_label.setdefault(lab, text)
        if written != text:
            raise ValueError(f"labels {by_text[written]!r} and {lab!r} are equal but written "
                             f"as {written!r} and {text!r}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([group_col] + [f"x{i + 1}" for i in range(data.shape[1])])
        for lab, row in zip(labels, data):
            writer.writerow([lab] + [repr(v) for v in row.tolist()])


# --------------------------------------------------------------------------
# Options

# Defaults of the options that subcommands share or echo, written once:
# every subparser reads this table.  relevance and shp take no --test,
# --alpha or weight options, but their config blocks echo these values;
# _check_options reads --combine on every data command.
_DEFAULTS = {"cost": "gamma:1.0", "seed": 0, "test": "both", "alpha": 0.05,
             "weights": None, "zero_pairs": None, "combine": []}
_SIM_D = 100  # simulate's dimension when neither --d nor the case file gives one
_SELECTORS = {"ws": ("weighted_sum",), "min": ("minimum",), "both": ("weighted_sum", "minimum")}


def _parse_test_selector(text: str, command: str):
    """``--test`` as (test names, permutation replicates or None).

    ``perm:B`` runs both tests plus a permutation reference of B
    replicates; only the ``test`` command takes it.
    """
    if text in _SELECTORS:
        return _SELECTORS[text], None
    if command == "simulate":
        raise ValueError(f"unknown test selector {text!r}; simulate supports ws, min, both")
    B = text.removeprefix("perm:")
    if B == text or not B.isdecimal():
        raise ValueError(f"unknown test selector {text!r}; expected ws, min, both or perm:B")
    B = int(B)
    if B < MIN_REPLICATES:
        raise ValueError(f"need at least {MIN_REPLICATES} replicates, got B={B}")
    return _SELECTORS["both"], B


def _parse_pairs(text: str) -> tuple:
    """--zero-pairs '1,2;3,4' -> ((1, 2), (3, 4))."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            a, b = (int(part) for part in chunk.split(","))
        except ValueError:
            raise ValueError(f"malformed pair {chunk!r} in --zero-pairs; "
                             "expected m,l with integer group ids") from None
        pairs.append((a, b))
    if not pairs:
        raise ValueError(f"no pairs found in {text!r}")
    return tuple(pairs)


def _parse_subsets(text: str) -> tuple:
    """'1,2;3,4' -> ((1, 2), (3, 4)) as two disjoint group collections."""
    sides = text.split(";")
    if len(sides) != 2:
        raise ValueError(f"malformed --combine {text!r}; expected 'A1;A2' e.g. '1,2;3,4'")
    out = []
    for side in sides:
        try:
            ids = [int(t) for t in side.split(",") if t.strip()]
        except ValueError:
            raise ValueError(f"malformed --combine {text!r}: {side!r} is not a list of "
                             "integer group ids") from None
        if not ids:
            raise ValueError(f"empty subset in --combine {text!r}")
        out.append(tuple(ids))
    return tuple(out)


def _check_options(args: argparse.Namespace) -> Callable[[np.ndarray], np.ndarray]:
    """Reject a command's bad options before its CSV or case file is read.

    Checks ``--seed``, ``--alpha`` and each output path given (``--out``,
    ``--tsv-out``, ``--dump-data``): its directory exists, it is not
    itself a directory, and no two of them name the same file.  It
    creates no file.  Parses ``--zero-pairs`` and
    ``--combine`` in place, into tuples of group ids, and a ``--weights``
    file into its ``WeightMatrix``; ``--test``, against the selectors
    ``args.command`` takes, into ``args.selected`` (its text stays in
    ``args.test``, which reports echo).
    Whether the weight grid is k x k, and the group ids of the pairs
    and subsets lie in 1..k, is checked once k is known.
    Returns the cost family ``--cost`` selects, which ``args.cost``
    keeps as its text.
    """
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    args.zero_pairs = _parse_pairs(args.zero_pairs) if args.zero_pairs else ()
    _check_alpha(args.alpha)
    outputs = {}  # real path -> the first option that writes it, with its path
    for option in ("out", "tsv_out", "dump_data"):
        path = getattr(args, option, None)  # only simulate dumps data, only relevance writes TSV
        if not path:
            continue
        named = f"--{option.replace('_', '-')} {path}"
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"{named}: no directory {os.path.dirname(path)}")
        if os.path.isdir(path):
            raise ValueError(f"{named}: is a directory")
        first = outputs.setdefault(os.path.realpath(path), named)
        if first != named:
            raise ValueError(f"{first} and {named} name the same file")
    if args.weights and args.zero_pairs:
        raise ValueError("--weights and --zero-pairs are mutually exclusive")
    if args.weights and args.weights != "unit":
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # an empty file warns "input contained no data"
                args.weights = WeightMatrix(np.loadtxt(args.weights, delimiter=",", ndmin=2))
        except (ValueError, UserWarning) as exc:
            raise ValueError(f"weights file {args.weights}: {exc}") from None
    args.selected = _parse_test_selector(args.test, args.command)
    args.combine = [_parse_subsets(c) for c in args.combine]
    return resolve_cost(args.cost)


def _weight_mode(args: argparse.Namespace) -> str:
    if isinstance(args.weights, WeightMatrix):
        return "file"
    if args.weights == "unit":
        return "unit"
    if args.zero_pairs:
        return "zero-pairs"
    return "default"


def _build_weights(args: argparse.Namespace, ctx: MomentContext) -> WeightMatrix:
    mode = _weight_mode(args)
    if mode == "unit":
        return WeightMatrix.unit(ctx.n_groups)
    if mode == "file":
        return args.weights
    return WeightMatrix.default(ctx).with_zeroed_pairs(args.zero_pairs)


def _data_report(args: argparse.Namespace, blocks, min_groups: int = 2) -> dict:
    """The report of a data command (``test``, ``relevance``, ``shp``).

    Checks the options, reads the CSV, and checks its group count k and
    the ``--combine`` group ids against it.  Then ``blocks(assignment)``
    does what of the command needs the groups alone, such as building
    the weights of ``test``, so an option that does not fit k fails
    before ``--standardize`` and the costs.  Only then are the costs,
    the path and its edge costs computed.  The blocks every data report
    shares (input, config, warnings, path) come first; the function
    ``blocks`` returns, ``report(path, edge_costs)``, returns the
    command's own, which follow them, and one that shares a name with
    them replaces it in its place.  ``cost_diagnostics``, when asked
    for, comes last.  ``--standardize`` centres and scales ingest's
    matrix in place, so the data is held once.  The data matrix is let
    go once the costs are built, so the diagnostics and the path run
    beside the cost matrix alone, and the cost matrix before ``report``
    runs, so its working memory is not added to theirs.
    """
    cost_family = _check_options(args)
    dataset = ingest_csv(args.input, args.group_col)
    assignment = dataset.assignment
    k = assignment.n_groups
    if k < min_groups:
        raise ValueError(f"this command needs at least {min_groups} groups, found {k}")
    for a1, a2 in args.combine:
        union_ids(a1, a2, k)
    report_blocks = blocks(assignment)
    input_block = {
        "source": dataset.source,
        "group_col": dataset.group_col,
        "n_rows": dataset.n,
        "n_features": dataset.d,
        "label_map": dataset.label_map,
        "sizes": assignment.sizes.tolist(),
    }
    data = dataset.matrix
    del dataset
    if args.standardize:
        # In place: each column's variance adds the squared centred rows in
        # row order, as numpy's std does, without its N x d temporary.
        mean, var = data.mean(axis=0), np.zeros(data.shape[1])
        for row in data:
            row -= mean
            var += row * row
        sd = np.sqrt(var / len(data))
        sd[sd == 0.0] = 1.0  # constant features: center only
        data /= sd
    costs = cost_family(data)
    del data
    diagnostics, warnings_out = None, []
    if args.check_assumptions:
        diag = validate_assumptions(costs)
        diagnostics = {
            "ok": diag.ok,
            "summary": diag.summary(),
            "positivity_violations": diag.positivity_count,
            "symmetry_violations": diag.symmetry_count,
            "triangle_violations": diag.triangle_count,
        }
        if not diag.ok:
            warnings_out.append(f"cost assumption check: {diag.summary()}")
    path = approximate_shp(costs, args.seed)
    edge_costs = costs[path[:-1], path[1:]]
    del costs
    report = {
        "command": args.command,
        "version": __version__,
        "input": input_block,
        "config": {
            "cost": args.cost,
            "test": args.test,
            "alpha": args.alpha,
            "seed": args.seed,
            "standardize": args.standardize,
            "weight_mode": _weight_mode(args),
            "zero_pairs": [list(p) for p in args.zero_pairs],
        },
        "warnings": warnings_out,
        "path": {"order": path.tolist(), "total_cost": float(edge_costs.sum())},
    }
    report.update(report_blocks(path, edge_costs))
    if diagnostics is not None:
        report["cost_diagnostics"] = diagnostics
    return report


def _result_block(res) -> dict:
    out = {
        "statistic": res.statistic,
        "p_value": res.p_value,
        "critical_value": res.critical_value,
        "reject": res.reject,
        "alpha": res.alpha,
    }
    if res.null_mean is not None:
        out["null_mean"] = res.null_mean
        out["null_sd"] = res.null_sd
    if res.p_value_standard_error is not None:
        out["p_value_standard_error"] = res.p_value_standard_error
    return out


# --------------------------------------------------------------------------
# Subcommands


def cmd_test(args: argparse.Namespace) -> dict:
    """Full pipeline to one or both hypothesis tests."""

    def blocks(assignment):
        ctx = MomentContext.from_assignment(assignment)
        w = _build_weights(args, ctx)
        _check_k(w, ctx)

        def report(path, edge_costs):
            tests, perm_B = args.selected
            table = count_edges(path, assignment)
            results = {}
            if "weighted_sum" in tests:
                results["weighted_sum"] = _result_block(weighted_sum_test(table, w, ctx, args.alpha))
            if "minimum" in tests:
                res = minimum_test(table, w, ctx, args.alpha)
                critical = minimum_critical_value(w, ctx, args.alpha)  # reported, not used to decide
                results["minimum"] = _result_block(replace(res, critical_value=critical))
            if perm_B is not None:
                perm = {"replicates": perm_B}
                for name, p in permutation_pvalue(table, w, ctx, perm_B, args.seed).items():
                    perm[f"{name}_p_value"] = p
                    perm[f"{name}_standard_error"] = math.sqrt(p * (1.0 - p) / perm_B)  # Monte Carlo
                results["permutation"] = perm
            return {
                "counts": table.tolist(),
                "moments": {"mean": ctx.mean.tolist(), "sd": np.sqrt(ctx.var).tolist()},
                "weights": w.grid.tolist(),
                "results": results,
            }

        return report

    return _data_report(args, blocks)


def cmd_relevance(args: argparse.Namespace) -> dict:
    """Pairwise z grid plus requested combined-union entries.

    ``--tsv-out`` also writes the grid as TSV; with ``--out`` and no
    ``--tsv-out`` the TSV goes to stdout.
    """

    def blocks(assignment):
        def report(path, edge_costs):
            rel = relevance_report(path, assignment, combined=args.combine)
            return {
                "z": [[None if math.isnan(v) else v for v in row] for row in rel.z.tolist()],
                "combined": [
                    {"a1": list(a1), "a2": list(a2), "z": zval, "abs_z": abs(zval)}
                    for (a1, a2), zval in rel.combined.items()
                ],
            }

        return report

    report = _data_report(args, blocks)
    if args.tsv_out:
        with open(args.tsv_out, "w") as fh:
            fh.write(relevance_tsv(report))
    elif args.out:
        sys.stdout.write(relevance_tsv(report))
    return report


def relevance_tsv(report: dict) -> str:
    """Tab-separated rendering of the z grid, dense ids as headers."""
    z = report["z"]
    k = len(z)
    lines = ["\t".join(["group"] + [str(i) for i in range(1, k + 1)])]
    for i, row in enumerate(z, start=1):
        cells = [str(i)] + ["" if v is None else f"{v:.4f}" for v in row]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def _case_from_file(path: str, d: Optional[int], seed) -> SimCase:
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"case file {path} is {json.dumps(spec)}; expected an object")
    for key in ("sizes", "means", "covs"):
        if key not in spec:
            raise ValueError(f"case file {path} has no {key!r} key")
        if not isinstance(spec[key], list):
            raise ValueError(f"case file {path}: {key} is {json.dumps(spec[key])}; expected a list")
    for i, c in enumerate(spec["covs"]):
        if not isinstance(c, dict):
            raise ValueError(f"case file {path}: covs entry {i} is {json.dumps(c)}; "
                             "expected an object with optional rho and sigma2")
    try:
        covs = tuple(CovSpec(rho=c.get("rho", 0.0), sigma2=c.get("sigma2", 1.0))
                     for c in spec["covs"])
        return SimCase(
            sizes=tuple(spec["sizes"]),
            d=d if d is not None else spec.get("d", _SIM_D),
            means=tuple(spec["means"]),
            covs=covs,
            seed=seed,
        )
    except ValueError as exc:
        raise ValueError(f"case file {path}: {exc}") from None


def cmd_simulate(args: argparse.Namespace) -> dict:
    """Power estimation over seeded trials for one design."""
    cost_family = _check_options(args)
    if args.d is not None and args.d < 1:  # before a case file, which the error would blame
        raise ValueError(f"--d must be a positive integer, got {args.d}")
    if args.case_file:
        case = _case_from_file(args.case_file, args.d, args.seed)
    else:
        case = preset_case(args.case, d=args.d if args.d is not None else _SIM_D, seed=args.seed)
    results = {}
    for name in args.selected[0]:
        power = estimate_power(case, cost_family, name, alpha=args.alpha,
                               trials=args.trials, seed=args.seed)
        results[name] = {
            "power": power,
            "mc_se": math.sqrt(power * (1.0 - power) / args.trials),
        }
    if args.dump_data:
        data, groups = gen_gaussian(case, seed=(args.seed, 0))
        export_csv(data, groups.labels.tolist(), args.dump_data)
    return {
        "command": "simulate",
        "version": __version__,
        "case": {
            "id": None if args.case_file else args.case,
            "sizes": list(case.sizes),
            "d": case.d,
            "means": list(case.means),
            "covs": [{"rho": c.rho, "sigma2": c.sigma2} for c in case.covs],
        },
        "config": {
            "cost": args.cost,
            "test": args.test,
            "alpha": args.alpha,
            "seed": args.seed,
            "trials": args.trials,
        },
        "results": results,
    }


def cmd_shp(args: argparse.Namespace) -> dict:
    """Path construction only: node order, per-edge costs, total."""

    def blocks(assignment):
        return lambda path, edge_costs: {"path": {
            "order": path.tolist(),
            "edge_costs": edge_costs.tolist(),
            "total_cost": float(edge_costs.sum()),
        }}

    return _data_report(args, blocks, min_groups=1)


# --------------------------------------------------------------------------
# Argument parsing and dispatch


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="CSV file with a header row")
    p.add_argument("--group-col", required=True, help="name of the label column")
    p.add_argument("--cost", help="cost family: gamma:G, average or diff (default %(default)s)")
    p.add_argument("--seed", type=int,
                   help="seed of the path's order among equal costs and of "
                        "test's perm:B permutation reference (default %(default)s)")
    p.add_argument("--standardize", action="store_true",
                   help="z-scale each feature before cost computation")
    p.add_argument("--check-assumptions", action="store_true",
                   help="count the cost matrix's positivity, symmetry and triangle "
                        "breaches: one pass of row strips, plus an O(N^3) triangle scan "
                        "only where the largest cost exceeds twice the least; memory of "
                        "a few row strips")
    p.add_argument("--out", help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    """The ``relevance-kit`` parser; its namespace is every command's options.

    Each subparser sets ``run`` to its command and takes its defaults
    from ``_DEFAULTS``.
    """
    parser = argparse.ArgumentParser(
        prog="relevance-kit",
        description="Graph-based k-sample comparison and relevance analysis",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the k-sample hypothesis tests")
    p_test.set_defaults(run=cmd_test, **_DEFAULTS)
    _add_data_args(p_test)
    p_test.add_argument("--test",
                        help="ws, min, both, or perm:B for an added permutation p-value "
                             "(default %(default)s)")
    p_test.add_argument("--alpha", type=float, help="level of the tests (default %(default)s)")
    p_test.add_argument("--weights",
                        help="CSV file with a k x k weight grid, or 'unit'")
    p_test.add_argument("--zero-pairs",
                        help="pairs to exclude, e.g. '1,2;3,4' (keeps default weights elsewhere)")

    p_rel = sub.add_parser("relevance", help="pairwise and combined z-scores")
    p_rel.set_defaults(run=cmd_relevance, **_DEFAULTS)
    _add_data_args(p_rel)
    p_rel.add_argument("--combine", action="append",
                       help="union comparison 'A1;A2', e.g. '1,2;3,4'; repeatable")
    p_rel.add_argument("--tsv-out", help="also write the z grid as TSV here")

    p_sim = sub.add_parser("simulate", help="estimate power on a Gaussian design")
    p_sim.set_defaults(run=cmd_simulate, **_DEFAULTS)
    p_sim.add_argument("--case", type=int, default=1,
                       help="preset design id 0..6 (0 = null calibration)")
    p_sim.add_argument("--case-file", help="JSON design description (overrides --case)")
    p_sim.add_argument("--d", type=int,
                       help=f"dimension (default: the case file's d, else {_SIM_D})")
    p_sim.add_argument("--trials", type=int, default=200)
    p_sim.add_argument("--cost")
    p_sim.add_argument("--test", help="ws, min or both (default %(default)s)")
    p_sim.add_argument("--alpha", type=float)
    p_sim.add_argument("--seed", type=int,
                       help="trial t draws its data from stream (seed, t) (default %(default)s)")
    p_sim.add_argument("--dump-data", help="write the first trial's dataset as CSV")
    p_sim.add_argument("--out", help="write the JSON report here instead of stdout")

    p_shp = sub.add_parser("shp", help="construct the approximate shortest path only")
    p_shp.set_defaults(run=cmd_shp, **_DEFAULTS)
    _add_data_args(p_shp)

    return parser


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.run(args)
        for line in report.get("warnings", []):
            print(f"warning: {line}", file=sys.stderr)
        _emit(report, args.out)
    except (ValueError, OSError, KeyError, TypeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
