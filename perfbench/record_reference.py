"""Record the reference outputs that runs at the reference seed are compared with.

Usage, from the root of a checkout: ``python3 perfbench/record_reference.py [NAME ...]``
(all workloads by default).  Each report must first pass the seed-free
checks.  Re-record only when a change of outputs is intended, and say
so where the change is described.
"""

import json
import os
import shutil
import sys

import checks
from run import BENCH_DIR, Runner, reference_path
from workloads import REFERENCE_SEED, WORKLOADS


def main(names):
    root = os.getcwd()
    for name in names or sorted(WORKLOADS):
        work_dir = os.path.join(BENCH_DIR, ".work", f"record-{name}")
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        runner = Runner(root, WORKLOADS[name], REFERENCE_SEED, work_dir)
        _, raw = runner.operation()
        with open(reference_path(name), "w") as fh:
            json.dump(dict(checks.reference_of(json.loads(raw)), seed=REFERENCE_SEED), fh)
            fh.write("\n")
        print(f"recorded {reference_path(name)}")


if __name__ == "__main__":
    main(sys.argv[1:])
