"""Self-test of the benchmark: every workload at a tiny size, and a flipped
reference verdict showing up as a failed unit.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def test_smoke_runs_every_workload_traced_and_untraced():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            assert f"{name} (trace {trace}): correct=True" in proc.stdout


def _flip_sweep(w, unit):
    n, _ = unit
    row = w.ref["rows"][str(n)]
    w.ref["rows"][str(n)] = str(int(row[0]) ^ 4) + row[1:]  # split verdict at q = 3


def _flip_oracle(w, unit):
    a, b, p = unit
    r = w.ref["max_abs"]
    index = (a + r) * (2 * r + 1) + (b + r)
    bits = w.ref["solvable"][str(p)]
    w.ref["solvable"][str(p)] = bits[:index] + "10"[int(bits[index])] + bits[index + 1:]


def _flip_character(w, unit):
    alpha, p, q = unit[:3]
    key = list(alpha.coeffs) if isinstance(alpha, w.bs.CyclotomicInt) else alpha
    (pair,) = [x for x in w.ref["pairs"] if (x["p"], x["q"]) == (p, q)]
    for query in pair["queries"]:
        if query[0] == key:
            query[2] = 1 if query[2] in (0, None) else 0


def _flip_cli(w, unit):
    unit["exit"] = 1 - unit["exit"] if unit["exit"] in (0, 1) else 0


FLIPS = {"sweep": _flip_sweep, "oracle": _flip_oracle,
         "character": _flip_character, "cli": _flip_cli}


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_flipped_reference_verdict_counts_as_failed(name):
    w = wl.WORKLOADS[name](seed=7, smoke=True)
    FLIPS[name](w, next(w.units())[0])
    res = run.timed_run(w, seconds=0.2)
    assert res["failed"] >= 1
    assert res["failed"] / res["attempted"] > 0
    assert res["metrics"]["ok_frac"][0] < 1


def test_watchdog_fails_a_unit_that_runs_too_long(monkeypatch):
    monkeypatch.setattr(run, "UNIT_TIMEOUT_S", 0.5)
    run.WATCHDOG.start()
    try:
        dt, ok, _ = run.call_unit(wl.Sweep, None, lambda unit: time.sleep(10))
    finally:
        run.WATCHDOG.stop()
    assert not ok
    assert dt < 5


def test_watchdog_stop_leaves_no_timer_running():
    # a tick left running after main() kills the process with SIGALRM at exit
    run.WATCHDOG.start()
    run.WATCHDOG.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_IGN
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def test_reference_keeps_the_n14_disagreements():
    ref = wl.load_reference("sweep")
    assert ref["disagreements"]["14"][:7] == [7, 71, 79, 113, 191, 193, 263]
    report = wl.sweep_expected(ref, 14, 300)
    assert report["disagreements"] == [q for q in ref["disagreements"]["14"] if q <= 300]
    assert not report["mandated_ok"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    for n in (11, 55, 100, 1000, 2345):
        latencies = [float(i) for i in range(n)]
        pct, value, beyond = run.tail(latencies)
        assert beyond >= run.TAIL_MIN_BEYOND
        assert value == latencies[n - 1 - beyond]
        assert n - math.ceil((pct + 1) * n / 100) < run.TAIL_MIN_BEYOND


def test_record_line_precedes_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "oracle", "--smoke",
         "--seed", "3", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    record = json.loads(record_line)["record"]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for key in ("git_sha", "python", "numpy", "nproc", "seed", "cli.interpreter_s"):
        assert key in record
    assert record["seed"] == 3
