"""Command-line interface: CSV in, JSON/TSV reports out.

Four subcommands cover the pipeline: ``test`` (k-sample hypothesis
tests), ``relevance`` (pairwise and union z-scores), ``simulate``
(power estimation on preset or file-defined Gaussian designs) and
``shp`` (path construction only).  Reports are JSON validating against
the schema shipped in ``schemas/report.schema.json``; every command is
deterministic given the input file, options and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import __version__
from .cost import validate_assumptions
from .counts import GroupAssignment, count_edges
from .inference import (
    WeightMatrix,
    minimum_critical_value,
    minimum_test,
    permutation_pvalue,
    weighted_sum_test,
)
from .moments import MomentContext
from .relevance import relevance_report
from .shp import approximate_shp, path_cost
from .sim import SimCase, CovSpec, estimate_power, gen_gaussian, preset_case, resolve_cost

__all__ = [
    "InputDataset",
    "RunConfig",
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
# Configuration


@dataclass(frozen=True)
class RunConfig:
    """Options shared by the data-driven subcommands."""

    cost: str = "gamma:1.0"
    test: str = "both"
    alpha: float = 0.05
    seed: int = 0
    standardize: bool = False
    weights_path: Optional[str] = None
    zero_pairs: tuple = ()
    combine: tuple = ()
    check_assumptions: bool = False

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.weights_path and self.zero_pairs:
            raise ValueError("--weights and --zero-pairs are mutually exclusive")

    @property
    def weight_mode(self) -> str:
        if self.weights_path == "unit":
            return "unit"
        if self.weights_path:
            return "file"
        if self.zero_pairs:
            return "zero-pairs"
        return "default"


def _parse_pairs(text: str) -> tuple:
    """'1,2;3,4' -> ((1, 2), (3, 4))."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"malformed pair {chunk!r}; expected m,l")
        pairs.append((int(parts[0]), int(parts[1])))
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
        ids = [int(t) for t in side.split(",") if t.strip()]
        if not ids:
            raise ValueError(f"empty subset in --combine {text!r}")
        out.append(tuple(ids))
    return tuple(out)


def _build_weights(config: RunConfig, ctx: MomentContext) -> WeightMatrix:
    if config.weights_path == "unit":
        return WeightMatrix.unit(ctx.n_groups)
    if config.weights_path:
        grid = np.loadtxt(config.weights_path, delimiter=",", ndmin=2)
        return WeightMatrix(grid)
    w = WeightMatrix.default(ctx)
    if config.zero_pairs:
        w = w.with_zeroed_pairs(config.zero_pairs)
    return w


def _standardize(data: np.ndarray) -> np.ndarray:
    mu = data.mean(axis=0)
    sd = data.std(axis=0)
    sd[sd == 0.0] = 1.0  # constant features: center only
    return (data - mu) / sd


def _prepare(dataset: InputDataset, config: RunConfig, min_groups: int):
    """Shared front half of the data commands: checks, cost, path."""
    k = dataset.assignment.n_groups
    if k < min_groups:
        raise ValueError(f"this command needs at least {min_groups} groups, found {k}")
    warnings_out = []
    if dataset.n > math.sqrt(dataset.d):
        warnings_out.append(
            f"N={dataset.n} exceeds sqrt(d)={math.sqrt(dataset.d):.1f}; path-based "
            "approximations assume N small relative to sqrt(d)"
        )
    data = _standardize(dataset.matrix) if config.standardize else dataset.matrix
    costs = resolve_cost(config.cost)(data)
    diagnostics = None
    if config.check_assumptions:
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
    return costs, path, warnings_out, diagnostics


def _input_block(dataset: InputDataset) -> dict:
    return {
        "source": dataset.source,
        "group_col": dataset.group_col,
        "n_rows": dataset.n,
        "n_features": dataset.d,
        "label_map": dataset.label_map,
        "sizes": dataset.assignment.sizes.tolist(),
    }


def _config_block(config: RunConfig) -> dict:
    return {
        "cost": config.cost,
        "test": config.test,
        "alpha": config.alpha,
        "seed": config.seed,
        "standardize": config.standardize,
        "weight_mode": config.weight_mode,
        "zero_pairs": [list(p) for p in config.zero_pairs],
    }


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


def _parse_test_selector(text: str):
    """Returns (run_ws, run_min, permutation_B)."""
    if text == "ws":
        return True, False, None
    if text == "both":
        return True, True, None
    if text == "min":
        return False, True, None
    B = text.removeprefix("perm:")
    if B != text and B.isdecimal():
        return True, True, int(B)
    raise ValueError(f"unknown test selector {text!r}; expected ws, min, both or perm:B")


def cmd_test(dataset: InputDataset, config: RunConfig) -> dict:
    """Full pipeline to one or both hypothesis tests."""
    run_ws, run_min, perm_B = _parse_test_selector(config.test)
    costs, path, warns, diagnostics = _prepare(dataset, config, min_groups=2)
    ctx = MomentContext.from_assignment(dataset.assignment)
    w = _build_weights(config, ctx)
    table = count_edges(path, dataset.assignment)
    results = {}
    if run_ws:
        results["weighted_sum"] = _result_block(weighted_sum_test(table, w, ctx, config.alpha))
    if run_min:
        res = minimum_test(table, w, ctx, config.alpha)
        critical = minimum_critical_value(w, ctx, config.alpha)  # reported, not used to decide
        results["minimum"] = _result_block(replace(res, critical_value=critical))
    if perm_B is not None:
        perm = permutation_pvalue(table, w, ctx, perm_B, config.seed)
        results["permutation"] = {
            "replicates": perm_B,
            "weighted_sum_p_value": perm["weighted_sum"],
            "minimum_p_value": perm["minimum"],
        }
    report = {
        "command": "test",
        "version": __version__,
        "input": _input_block(dataset),
        "config": _config_block(config),
        "warnings": warns,
        "path": {"order": path.tolist(), "total_cost": path_cost(path, costs)},
        "counts": table.tolist(),
        "moments": {"mean": ctx.mean.tolist(), "sd": np.sqrt(ctx.var).tolist()},
        "weights": w.grid.tolist(),
        "results": results,
    }
    if diagnostics is not None:
        report["cost_diagnostics"] = diagnostics
    return report


def cmd_relevance(dataset: InputDataset, config: RunConfig) -> dict:
    """Pairwise z grid plus requested combined-union entries."""
    costs, path, warns, diagnostics = _prepare(dataset, config, min_groups=2)
    combined = [_parse_subsets(c) if isinstance(c, str) else c for c in config.combine]
    report_obj = relevance_report(path, dataset.assignment, combined=combined)
    z = report_obj.z
    combined_out = [
        {"a1": list(a1), "a2": list(a2), "z": zval, "abs_z": abs(zval)}
        for (a1, a2), zval in report_obj.combined.items()
    ]
    report = {
        "command": "relevance",
        "version": __version__,
        "input": _input_block(dataset),
        "config": _config_block(config),
        "warnings": warns,
        "path": {"order": path.tolist(), "total_cost": path_cost(path, costs)},
        "z": [[None if math.isnan(v) else v for v in row] for row in z.tolist()],
        "combined": combined_out,
    }
    if diagnostics is not None:
        report["cost_diagnostics"] = diagnostics
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
    for key in ("sizes", "means", "covs"):
        if key not in spec:
            raise ValueError(f"case file {path} has no {key!r} key")
    covs = tuple(
        CovSpec(rho=float(c.get("rho", 0.0)), sigma2=float(c.get("sigma2", 1.0)))
        for c in spec["covs"]
    )
    return SimCase(
        sizes=tuple(spec["sizes"]),
        d=int(d if d is not None else spec.get("d", 100)),
        means=tuple(spec["means"]),
        covs=covs,
        seed=seed,
    )


def cmd_simulate(args: argparse.Namespace) -> dict:
    """Power estimation over seeded trials for one design."""
    if args.case_file:
        case = _case_from_file(args.case_file, args.d, args.seed)
    else:
        case = preset_case(args.case, d=args.d if args.d is not None else 100, seed=args.seed)
    selectors = {"ws": ["ws"], "min": ["min"], "both": ["ws", "min"]}.get(args.test)
    if selectors is None:
        raise ValueError(f"unknown test selector {args.test!r}; simulate supports ws, min, both")
    results = {}
    for sel in selectors:
        power = estimate_power(case, args.cost, sel, alpha=args.alpha,
                               trials=args.trials, seed=args.seed)
        name = "weighted_sum" if sel == "ws" else "minimum"
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


def cmd_shp(dataset: InputDataset, config: RunConfig) -> dict:
    """Path construction only: node order, per-edge costs, total."""
    costs, path, warns, diagnostics = _prepare(dataset, config, min_groups=1)
    edge_costs = costs[path[:-1], path[1:]]
    report = {
        "command": "shp",
        "version": __version__,
        "input": _input_block(dataset),
        "config": _config_block(config),
        "warnings": warns,
        "path": {
            "order": path.tolist(),
            "edge_costs": edge_costs.tolist(),
            "total_cost": path_cost(path, costs),
        },
    }
    if diagnostics is not None:
        report["cost_diagnostics"] = diagnostics
    return report


# --------------------------------------------------------------------------
# Argument parsing and dispatch


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="CSV file with a header row")
    p.add_argument("--group-col", required=True, help="name of the label column")
    p.add_argument("--cost", default="gamma:1.0",
                   help="cost family: gamma:G, average or diff (default gamma:1.0)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--standardize", action="store_true",
                   help="z-scale each feature before cost computation")
    p.add_argument("--check-assumptions", action="store_true",
                   help="run the cost-matrix assumption diagnostics (O(N^3))")
    p.add_argument("--out", help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relevance-kit",
        description="Graph-based k-sample comparison and relevance analysis",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the k-sample hypothesis tests")
    _add_data_args(p_test)
    p_test.add_argument("--test", default="both",
                        help="ws, min, both, or perm:B for an added permutation p-value")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--weights",
                        help="CSV file with a k x k weight grid, or 'unit'")
    p_test.add_argument("--zero-pairs",
                        help="pairs to exclude, e.g. '1,2;3,4' (keeps default weights elsewhere)")

    p_rel = sub.add_parser("relevance", help="pairwise and combined z-scores")
    _add_data_args(p_rel)
    p_rel.add_argument("--combine", action="append", default=[],
                       help="union comparison 'A1;A2', e.g. '1,2;3,4'; repeatable")
    p_rel.add_argument("--tsv-out", help="also write the z grid as TSV here")

    p_sim = sub.add_parser("simulate", help="estimate power on a Gaussian design")
    p_sim.add_argument("--case", type=int, default=1,
                       help="preset design id 0..6 (0 = null calibration)")
    p_sim.add_argument("--case-file", help="JSON design description (overrides --case)")
    p_sim.add_argument("--d", type=int, default=None, help="dimension (default 100)")
    p_sim.add_argument("--trials", type=int, default=200)
    p_sim.add_argument("--cost", default="gamma:1.0")
    p_sim.add_argument("--test", default="both", help="ws, min or both")
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--dump-data", help="write the first trial's dataset as CSV")
    p_sim.add_argument("--out", help="write the JSON report here instead of stdout")

    p_shp = sub.add_parser("shp", help="construct the approximate shortest path only")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            report = cmd_simulate(args)
        else:
            config = RunConfig(
                cost=args.cost,
                test=getattr(args, "test", "both"),
                alpha=getattr(args, "alpha", 0.05),
                seed=args.seed,
                standardize=args.standardize,
                weights_path=getattr(args, "weights", None),
                zero_pairs=_parse_pairs(args.zero_pairs) if getattr(args, "zero_pairs", None) else (),
                combine=tuple(getattr(args, "combine", ()) or ()),
                check_assumptions=args.check_assumptions,
            )
            dataset = ingest_csv(args.input, args.group_col)
            if args.command == "test":
                report = cmd_test(dataset, config)
            elif args.command == "relevance":
                report = cmd_relevance(dataset, config)
                if args.tsv_out:
                    with open(args.tsv_out, "w") as fh:
                        fh.write(relevance_tsv(report))
                elif args.out:
                    sys.stdout.write(relevance_tsv(report))
            else:
                report = cmd_shp(dataset, config)
        for line in report.get("warnings", []):
            print(f"warning: {line}", file=sys.stderr)
        _emit(report, args.out)
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
