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
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import __version__
from .cost import validate_assumptions
from .counts import GroupAssignment, count_edges
from .inference import (
    MIN_REPLICATES,
    WeightMatrix,
    _check_alpha,
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


def _not_utf8(path: str) -> ValueError:
    """The error for a file that is not UTF-8, naming its first undecodable line.

    The text reader decodes ahead of the line it hands out, so the line
    is found again from the raw bytes; no UTF-8 sequence spans a newline.
    """
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ValueError(f"{path}: line {lineno} is not UTF-8: {exc.reason} "
                                  f"(byte {line[exc.start]:#04x})")
    return ValueError(f"{path}: file is not UTF-8")


def _csv_rows(reader, path: str):
    """The rows of a ``csv.reader``; a file that is not UTF-8 raises a
    ``ValueError`` naming ``path`` and the line, whether the bad byte is
    met in the header or in the data rows."""
    try:
        yield from reader
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _read_header(reader, path: str, group_col: str):
    """Read the header row from a ``csv.reader``; returns the stripped
    header, the group column's index and the feature names."""
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: file is empty; expected a header row") from None
    header = [h.strip() for h in header]
    if group_col not in header:
        raise ValueError(
            f"{path}: group column {group_col!r} not in header; available: {header}"
        )
    gidx = header.index(group_col)
    feature_names = tuple(h for i, h in enumerate(header) if i != gidx)
    if not feature_names:
        raise ValueError(f"{path}: no feature columns besides the group column")
    return header, gidx, feature_names


def ingest_csv(path: str, group_col: str) -> InputDataset:
    """Parse a rectangular numeric CSV with a header and a label column.

    The file is UTF-8, with or without a byte-order mark.  Labels are
    stripped and mapped to dense ids 1..k in order of first appearance;
    the mapping is echoed in every report so downstream group ids are
    unambiguous.  Lines that are blank or hold only empty cells are
    skipped.  A cell is a number if Python's ``float`` reads it.

    The data rows are read in one pass by numpy's C reader
    (``np.loadtxt``).  If that fails, or its result is not a table of at
    least 2 finite rows as wide as the header, the file is parsed again
    line by line (``_ingest_csv_per_line``).  That parser names the
    offending line and column of any error, including non-finite cells
    such as ``nan`` or ``inf``; on a file both readers take, the two give
    the same dataset bit for bit.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, gidx, feature_names = _read_header(_csv_rows(csv.reader(fh), path), path, group_col)
        label_map = {}

        def dense_id(cell):
            label = cell.strip()
            if not label:
                raise ValueError("empty group label")
            return label_map.setdefault(label, len(label_map) + 1)

        try:
            with warnings.catch_warnings():
                # a file with no data rows warns "input contained no data"
                warnings.simplefilter("error", UserWarning)
                # encoding=None hands the converter str; before numpy 2 the
                # default, "bytes", handed it latin-1 bytes
                table = np.loadtxt(
                    fh, dtype=np.float64, delimiter=",", quotechar='"', comments=None,
                    converters={gidx: dense_id}, ndmin=2, encoding=None,
                )
        except (ValueError, UserWarning):
            table = None
    if (
        table is None
        or table.shape[1] != len(header)  # loadtxt accepts rows all wider than the header
        or table.shape[0] < 2
        or not np.isfinite(table).all()
    ):
        return _ingest_csv_per_line(path, group_col)
    return InputDataset(
        matrix=np.delete(table, gidx, axis=1),
        assignment=GroupAssignment(table[:, gidx].astype(np.int64)),
        label_map=label_map,
        source=path,
        group_col=group_col,
        feature_names=feature_names,
    )


def _ingest_csv_per_line(path: str, group_col: str) -> InputDataset:
    """``ingest_csv`` one line at a time with ``csv.reader`` and ``float``.

    Slow, but every error names its physical line (the last line of a
    record whose quoted label spans lines) and its column; ``ingest_csv``
    falls back to it whenever numpy's reader cannot take the file.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        records = _csv_rows(reader, path)
        header, gidx, feature_names = _read_header(records, path, group_col)
        rows, dense, linenos, label_map = [], [], [], {}
        for row in records:
            lineno = reader.line_num  # a quoted label can span lines, so not the record count
            if not row or all(not c.strip() for c in row):
                continue  # blank line
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {lineno} has {len(row)} fields, expected {len(header)}"
                )
            label = row[gidx].strip()
            if not label:
                raise ValueError(f"{path}: line {lineno} has an empty group label")
            dense.append(label_map.setdefault(label, len(label_map) + 1))
            values = []
            for i, cell in enumerate(row):
                if i == gidx:
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}, column {header[i]!r}: "
                        f"could not parse {cell!r} as a number"
                    ) from None
            rows.append(values)
            linenos.append(lineno)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, found {len(rows)}")
    matrix = np.array(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        r, c = bad[0]
        raise ValueError(
            f"{path}: line {linenos[r]}, column {feature_names[c]!r}: "
            f"value {matrix[r, c]} is not a finite number"
        )
    return InputDataset(
        matrix=matrix,
        assignment=GroupAssignment(dense),
        label_map=label_map,
        source=path,
        group_col=group_col,
        feature_names=feature_names,
    )


def export_csv(data, labels, path: str, group_col: str = "group") -> None:
    """Write a dataset in the format ``ingest_csv`` reads back losslessly.

    ``ingest_csv`` strips each label and rejects empty ones and
    non-finite cells, so such labels and data are refused here.  Labels
    are written as ``str(label)``, so two distinct labels with the same
    text (``1`` and ``"1"``) would come back as one group, and two equal
    labels with different text (``1`` and ``1.0``, or ``True`` and
    ``1``, one group to ``GroupAssignment.from_labels``) as two: both
    are refused too.  The file is UTF-8.
    """
    data = np.asarray(data, dtype=np.float64)
    labels = list(labels)
    if data.ndim != 2 or len(labels) != data.shape[0]:
        raise ValueError("data must be 2-D with one label per row")
    if not np.isfinite(data).all():
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


def _parse_test_selector(text: str, command: str = "test"):
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

    Checks ``--seed``, ``--alpha`` and that the directory of each output
    path given (``--out``, ``--tsv-out``, ``--dump-data``) exists,
    creating no file.  Parses ``--zero-pairs`` and
    ``--combine`` in place, into tuples of group ids, and a ``--weights``
    file into its ``WeightMatrix``; ``--test`` is checked against the
    selectors ``args.command`` takes and parsed where it is used.
    Whether the weight grid is k x k is checked once k is known.
    Returns the cost family ``--cost`` selects, which ``args.cost``
    keeps as its text.
    """
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    args.zero_pairs = _parse_pairs(args.zero_pairs) if args.zero_pairs else ()
    _check_alpha(args.alpha)
    for option in ("out", "tsv_out", "dump_data"):
        path = getattr(args, option, None)  # only simulate dumps data, only relevance writes TSV
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"--{option.replace('_', '-')} {path}: "
                             f"no directory {os.path.dirname(path)}")
    if args.weights and args.zero_pairs:
        raise ValueError("--weights and --zero-pairs are mutually exclusive")
    if args.weights and args.weights != "unit":
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # an empty file warns "input contained no data"
                args.weights = WeightMatrix(np.loadtxt(args.weights, delimiter=",", ndmin=2))
        except (ValueError, UserWarning) as exc:
            raise ValueError(f"weights file {args.weights}: {exc}") from None
    _parse_test_selector(args.test, args.command)
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

    Checks the options, reads the CSV and checks its group count, then
    computes the costs, the path and its edge costs.  The blocks every
    data report shares (input, config, warnings, path) come first;
    ``blocks(assignment, path, edge_costs)`` returns the command's own,
    which follow them, and one that shares a name with them replaces it
    in its place.  ``cost_diagnostics``, when asked for, comes last.
    The data matrix is let go once the costs are built, so the
    diagnostics and the path run beside the cost matrix alone, and the
    cost matrix before ``blocks`` runs, so its working memory is not
    added to theirs.
    """
    cost_family = _check_options(args)
    dataset = ingest_csv(args.input, args.group_col)
    assignment = dataset.assignment
    k = assignment.n_groups
    if k < min_groups:
        raise ValueError(f"this command needs at least {min_groups} groups, found {k}")
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
        sd = data.std(axis=0)
        sd[sd == 0.0] = 1.0  # constant features: center only
        data = (data - data.mean(axis=0)) / sd
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
    path = approximate_shp(costs)
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
    report.update(blocks(assignment, path, edge_costs))
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

    def blocks(assignment, path, edge_costs):
        tests, perm_B = _parse_test_selector(args.test)
        ctx = MomentContext.from_assignment(assignment)
        w = _build_weights(args, ctx)
        table = count_edges(path, assignment)
        results = {}
        if "weighted_sum" in tests:
            results["weighted_sum"] = _result_block(weighted_sum_test(table, w, ctx, args.alpha))
        if "minimum" in tests:
            res = minimum_test(table, w, ctx, args.alpha)
            critical = minimum_critical_value(w, ctx, args.alpha)  # reported, not used to decide
            results["minimum"] = _result_block(replace(res, critical_value=critical))
        if perm_B is not None:
            perm = permutation_pvalue(table, w, ctx, perm_B, args.seed)
            results["permutation"] = {
                "replicates": perm_B,
                "weighted_sum_p_value": perm["weighted_sum"],
                "minimum_p_value": perm["minimum"],
            }
        return {
            "counts": table.tolist(),
            "moments": {"mean": ctx.mean.tolist(), "sd": np.sqrt(ctx.var).tolist()},
            "weights": w.grid.tolist(),
            "results": results,
        }

    return _data_report(args, blocks)


def cmd_relevance(args: argparse.Namespace) -> dict:
    """Pairwise z grid plus requested combined-union entries.

    ``--tsv-out`` also writes the grid as TSV; with ``--out`` and no
    ``--tsv-out`` the TSV goes to stdout.
    """

    def blocks(assignment, path, edge_costs):
        rel = relevance_report(path, assignment, combined=args.combine)
        return {
            "z": [[None if math.isnan(v) else v for v in row] for row in rel.z.tolist()],
            "combined": [
                {"a1": list(a1), "a2": list(a2), "z": zval, "abs_z": abs(zval)}
                for (a1, a2), zval in rel.combined.items()
            ],
        }

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
    tests, _ = _parse_test_selector(args.test, "simulate")
    if args.case_file:
        case = _case_from_file(args.case_file, args.d, args.seed)
    else:
        case = preset_case(args.case, d=args.d if args.d is not None else _SIM_D, seed=args.seed)
    results = {}
    for name in tests:
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

    def blocks(assignment, path, edge_costs):
        return {"path": {
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
                   help="seed of test's perm:B permutation reference; relevance and shp "
                        "draw nothing (default %(default)s)")
    p.add_argument("--standardize", action="store_true",
                   help="z-scale each feature before cost computation")
    p.add_argument("--check-assumptions", action="store_true",
                   help="count the cost matrix's positivity, symmetry and triangle "
                        "breaches (O(N^3) time; memory of a few row strips)")
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
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
