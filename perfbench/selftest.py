#!/usr/bin/env python3
"""Self-test of the benchmark itself (about two minutes).

    python3 perfbench/selftest.py

For every workload it checks that
- a traced run passes, and at least one traced op's output was compared
  byte for byte with an untraced op on the same input;
- a run with an injected wrong output counts the failure and exits 1;
and that the benchmark exits nonzero without a result line in a
directory holding only BENCHMARK.json and perfbench/.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Long enough for two units (one untraced, one traced) of each workload.
SECONDS = {"train-desk": 4, "infer-large": 4, "eval-pool": 2}


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "7", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def check(failures: list, ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def main() -> int:
    failures = []
    for wl, secs in SECONDS.items():
        rc, lines, _ = bench("--workload", wl, "--seconds", str(secs), "--trace", "1")
        detail = json.loads((BENCH_DIR / "results" / f"{wl}-seed7-trace1.json").read_text())
        check(failures, rc == 0 and json.loads(lines[-1])["correct"],
              f"{wl}: traced run passes")
        check(failures, detail["crosschecks"] >= 1,
              f"{wl}: traced outputs byte-identical to untraced ones "
              f"({detail['crosschecks']} compared)")

        rc, lines, _ = bench("--workload", wl, "--seconds", str(secs), "--trace", "0",
                             "--inject-fault")
        result = json.loads(lines[-1])
        check(failures, rc == 1 and not result["correct"] and result["failed"] >= 1,
              f"{wl}: injected wrong output counted ({result['failed']} failed), exit {rc}")

    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        rc, lines, _ = bench("--workload", "eval-pool", "--seconds", "1", "--trace", "0",
                             cwd=bare)
        check(failures, rc != 0 and not any(line.startswith("{") for line in lines),
              f"without the program: exit {rc}, no result line")

    print("self-test", "FAILED: " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
