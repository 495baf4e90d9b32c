#!/usr/bin/env python3
"""Rewrite perfbench/reference.json from the current program.

    python3 perfbench/record_reference.py

The reference values are the outputs of each workload's fixed reference
input (the same for every --seed). Re-record them only for a change that
is meant to alter the model's numbers, such as a new parameter init
order, and say so in that change.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads and puts src/ on sys.path
from workloads import REFERENCE_PATH, WORKLOADS


def main() -> int:
    work_root = run.BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    values = {}
    for name, cls in WORKLOADS.items():
        work = tempfile.mkdtemp(prefix=f"ref-{name}-", dir=work_root)
        try:
            values[name] = cls(Path(work), seed=0).reference_values()
        finally:
            shutil.rmtree(work, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(values, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
