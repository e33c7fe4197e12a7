"""Mutation runner: every mutant of `table.MUTANTS` must be killed.

    python3 tests/mutants/run.py

Copies `src` to a temporary directory, first runs every named test on the
unmutated copy (they must pass), then applies one mutant at a time to the
copy and runs its tests with `pytest -x`, PYTHONPATH pointing at the copy,
under a per-mutant timeout, restoring the file after each.  One JSON line on
stdout for the unmutated run (mutant null, status passed), then one per
mutant, with status killed, survived, timeout, error (pytest could
not run the tests, e.g. a node id that no longer exists) or snippet-missing
(the snippet is not in the file exactly once).  Exits 1 on a survivor, an
error or a missing snippet, so a refactor that moves a snippet updates the
table.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from table import MUTANTS

ROOT = Path(__file__).resolve().parents[2]
TIMEOUT = 120  # seconds per pytest run; a mutant that loops counts as killed


def environment(src: Path) -> dict:
    # no bytecode: a mutant and its original can share a size and an mtime
    return {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}


def run_tests(src: Path, tests) -> str:
    env = environment(src)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        code = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "passed", 1: "failed"}.get(code, "error")


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        # the copy, not an installed brauersplit, must be the one imported
        where = subprocess.run([sys.executable, "-c", "import brauersplit; print(brauersplit.__file__)"],
                               env=environment(src), capture_output=True, text=True).stdout
        if not Path(where.strip()).resolve().is_relative_to(src.resolve()):
            print(json.dumps({"mutant": None, "status": "error", "imported": where.strip()}))
            return 1
        start = time.perf_counter()
        tests = sorted({t for m in MUTANTS for t in m.tests})
        baseline = run_tests(src, tests)
        print(json.dumps({"mutant": None, "status": baseline, "tests": len(tests),
                          "seconds": round(time.perf_counter() - start, 2)}), flush=True)
        if baseline != "passed":  # the unmutated tests must pass
            return 1
        for m in MUTANTS:
            start = time.perf_counter()
            path = src / Path(m.file).relative_to("src")
            original = path.read_text()
            if original.count(m.snippet) != 1:
                status = "snippet-missing"
            else:
                path.write_text(original.replace(m.snippet, m.replacement))
                try:
                    outcome = run_tests(src, m.tests)
                    status = {"failed": "killed", "passed": "survived"}.get(outcome, outcome)
                finally:
                    path.write_text(original)
            failed |= status not in ("killed", "timeout")
            print(json.dumps({"mutant": m.name, "file": m.file, "status": status,
                              "seconds": round(time.perf_counter() - start, 2)}), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
