import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import checks  # noqa: E402
from workloads import CsvSpec, write_csv  # noqa: E402

SMALL = CsvSpec(k=4, rows=8, d=6, shift=0.5)


@pytest.fixture(scope="session")
def validator():
    return checks.load_schema(os.path.join(ROOT, "src", "relevance_kit", "schemas", "report.schema.json"))


@pytest.fixture
def small_csv(tmp_path):
    """(path, raw labels) of a small generated CSV."""
    path = str(tmp_path / "small.csv")
    labels, _ = write_csv(SMALL, 7, path)
    return path, labels


@pytest.fixture
def run_cli(tmp_path):
    """Run ``cli.main`` in-process; returns the report's bytes."""
    from relevance_kit import cli

    def run(*argv, out_name="report.json"):
        out = str(tmp_path / out_name)
        assert cli.main(list(argv) + ["--out", out]) == 0
        with open(out, "rb") as fh:
            return fh.read()

    return run
