"""Benchmark workloads and the seeded CSV generator that feeds them.

Each workload is one ``relevance-kit`` command.  The two data-driven
workloads read a CSV that :func:`write_csv` makes from the workload
seed; ``simulate-paper`` draws its own data and gets the seed as
``--seed``.  Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

GROUP_COL = "group"
REFERENCE_SEED = 0  # reference outputs in reference/ are recorded at this seed


@dataclass(frozen=True)
class CsvSpec:
    """k groups of ``rows`` continuous Gaussian rows in ``d`` features.

    Group g (0-based) has every coordinate shifted by ``shift * g /
    (k - 1)``; rows are shuffled so the file is not sorted by group.
    """

    k: int
    rows: int
    d: int
    shift: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    csv: Optional[CsvSpec]
    command: tuple  # CLI argv before the input/output/seed arguments


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="relevance-n2000",
            why="N=2000, d=500: ingest, cost and path dominate; inference is never called",
            csv=CsvSpec(k=5, rows=400, d=500, shift=0.05),
            command=("relevance", "--combine", "1,2;3,4"),
        ),
        Workload(
            name="test-k10-perm",
            why="k=10, N=500: the cold minimum-test root (MVN in 45 dims) and 2x10000 permutations dominate",
            csv=CsvSpec(k=10, rows=50, d=100, shift=0.15),
            command=("test", "--test", "perm:10000"),
        ),
        Workload(
            name="simulate-paper",
            why="paper regime N=90, d=500, k=3: 400 small cost/path calls and 200 warm 3-dim MVN p-values",
            csv=None,
            command=("simulate", "--case", "5", "--d", "500", "--trials", "200", "--test", "both"),
        ),
    )
}


def labels_and_rows(spec: CsvSpec, seed: int):
    """The raw labels and data rows of one generated CSV, in file order."""
    rng = np.random.default_rng([seed, spec.k, spec.rows, spec.d])
    n = spec.k * spec.rows
    group = np.repeat(np.arange(spec.k), spec.rows)
    data = rng.standard_normal((n, spec.d)) + (spec.shift * group / (spec.k - 1))[:, None]
    order = rng.permutation(n)
    labels = [f"g{g + 1:02d}" for g in group[order]]
    return labels, data[order]


def write_csv(spec: CsvSpec, seed: int, path: str):
    """Write the seed's CSV in the format ``export_csv`` produces.

    Returns the raw labels in file order and the file size in bytes.
    Values are written with ``repr`` so ``ingest_csv`` reads them back
    exactly.  The same seed gives the same bytes.
    """
    labels, data = labels_and_rows(spec, seed)
    header = ",".join([GROUP_COL] + [f"x{i + 1}" for i in range(spec.d)])
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for label, row in zip(labels, data.tolist()):
            fh.write(label + "," + ",".join(map(repr, row)) + "\r\n")
    return labels, os.path.getsize(path)


def command_argv(workload: Workload, seed: int, csv_path: Optional[str], out_path: str) -> list:
    """Full CLI argv for one operation of ``workload``."""
    argv = list(workload.command)
    if workload.csv is not None:
        argv += ["--input", csv_path, "--group-col", GROUP_COL]
    return argv + ["--seed", str(seed), "--out", out_path]
