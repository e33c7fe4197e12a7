#!/usr/bin/env python3
"""Benchmark of brauersplit: one workload, one seed, one closed loop.

    python3 bench/run.py --workload sweep --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table
    python3 bench/run.py --workload all --smoke       # tiny self-test of all of it

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run over a
fixed number of units.  The line before it is the run record (git sha,
versions, nproc, seed, interpreter start time, tail percentile).  Both are
also written under bench/out/.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads as wl  # noqa: E402

OUT_DIR = wl.BENCH_DIR / "out"
UNIT_TIMEOUT_S = 60
# a run ends at the first round boundary after --seconds, or here at the latest
MAX_OVERRUN_S = 60
SETUP_PROBES = 7
INTERPRETER_PROBES = 5
TAIL_MIN_BEYOND = 10
OVERHEAD_PASSES = 3
# throughput is the median rate over blocks of whole rounds this long
BLOCK_S = 1.0


class UnitTimeout(Exception):
    pass


class Watchdog:
    """Fails the running in-process unit once it has run UNIT_TIMEOUT_S.

    An interval timer checks once a second, so timing a unit costs no
    system call; the CLI workload's subprocesses carry their own timeout."""

    def __init__(self):
        self.unit_started = None

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, 1.0, 1.0)

    def stop(self) -> None:
        """Cancel the timer.  Python restores the default SIGALRM action
        while it shuts down, so a tick left running could kill the process
        on its way out."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.unit_started = None

    def _on_alarm(self, signum, frame):
        t0 = self.unit_started
        if t0 is not None and time.perf_counter() - t0 > UNIT_TIMEOUT_S:
            self.unit_started = None
            raise UnitTimeout(f"unit exceeded {UNIT_TIMEOUT_S}s")


WATCHDOG = Watchdog()


def call_unit(w, unit, runner):
    """Run one unit; returns (seconds, ok, output).  A unit fails if it
    raised, timed out or gave a verdict other than the reference's."""
    t0 = time.perf_counter()
    WATCHDOG.unit_started = t0
    try:
        out = runner(unit)
    except Exception:
        dt = time.perf_counter() - t0
        WATCHDOG.unit_started = None
        traceback.print_exc(file=sys.stderr)
        return dt, False, None
    dt = time.perf_counter() - t0
    WATCHDOG.unit_started = None
    return dt, w.check(unit, out), out


def tail(latencies: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond it) for the highest whole
    percentile with at least TAIL_MIN_BEYOND samples above it, by nearest
    rank; the maximum if there are too few samples."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_MIN_BEYOND:
        return 100, s[-1], 0
    pct = 100 * (n - TAIL_MIN_BEYOND) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, s[rank - 1], n - rank


def median_wall(args: list[str], times: int, env=None) -> float:
    """Median wall time of `python <args>` over fresh processes."""
    samples = []
    for _ in range(times):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *args], cwd=wl.ROOT, env=env, stdin=subprocess.DEVNULL,
                       capture_output=True, timeout=120, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def probe_setup(args, times: int) -> list[float]:
    """Wall time from spawning a fresh benchmark process to the point where
    it would start its first timed unit: interpreter start, imports, inputs,
    reference and warm-up."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(times):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=wl.ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.communicate(timeout=120)
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return samples


def timed_run(w, seconds: float) -> dict:
    units = w.units()
    latencies, attempted, failed = [], 0, 0
    blocks, block_busy, block_work = [], 0.0, 0
    deadline = time.perf_counter() + seconds
    ends_round = True
    while True:
        if ends_round:
            w.start_round()
        unit, ends_round = next(units)
        n = w.work(unit)
        dt, ok, _ = call_unit(w, unit, w.run)
        latencies.append(dt)
        attempted += n
        failed += 0 if ok else n
        block_busy += dt
        block_work += n if ok else 0
        if ends_round and block_busy >= BLOCK_S:
            blocks.append(block_work / block_busy)
            block_busy, block_work = 0.0, 0
        now = time.perf_counter()
        if (ends_round and now >= deadline) or now >= deadline + MAX_OVERRUN_S:
            break
    who = resource.RUSAGE_SELF if w.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    pct, tail_value, beyond = tail(latencies)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "throughput_per_s": (statistics.median(blocks or [block_work / block_busy]), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": (tail_value * 1e3, "ms"),
            "ok_frac": ((attempted - failed) / attempted, "fraction"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
        "record": {"requests": len(latencies), "tail_percentile": pct,
                   "tail_samples_beyond": beyond, "block_rates": blocks},
    }


def run_pass(w, units, tracer=None) -> tuple[float, list, int]:
    total, outs, failed = 0.0, [], 0
    ends_round = True
    for i, (unit, next_ends_round) in enumerate(units):
        if ends_round:
            w.start_round()
        ends_round = next_ends_round
        if tracer is None:
            dt, ok, out = call_unit(w, unit, w.run_traced)
        else:
            with tracer.request(i):
                dt, ok, out = call_unit(w, unit, w.run_traced)
        total += dt
        outs.append(out)
        failed += not ok
    return total, outs, failed


def take_rounds(units, rounds: int) -> list:
    out = []
    while rounds:
        item = next(units)
        out.append(item)
        rounds -= item[1]
    return out


def census(bs) -> int:
    """Fixed calls that reach every traced function, so that every layer
    reports in every traced run: one CLI request per subcommand (checked
    against the CLI reference) and one character of a CyclotomicInt.
    Returns the number of failed checks."""
    cli = wl.Cli(0, False)
    cli.bs = bs
    seen, failed = set(), 0
    for req in cli.ref["requests"]:
        cmd = req["argv"][0]
        if cmd in seen or req["exit"] != 0:
            continue
        if cmd == "hilbert" and ("--oracle" not in req["argv"] or req["argv"][3] == "inf"):
            continue
        seen.add(cmd)
        failed += not cli.check(req, cli.run_traced(req))
    # zeta^((11 - 1)/5) = zeta^2 at the prime above 11 in Z[zeta_5]: inert
    chi = bs.power_residue_character(bs.CyclotomicInt.zeta(5), bs.find_prime_ideal(11, 5))
    failed += chi.k != 2
    return failed


def traced_run(w, smoke: bool, trace_path) -> dict:
    from tracer import Tracer

    rounds = (wl.SMOKE_TRACE_ROUNDS if smoke else wl.TRACE_ROUNDS)[w.name]
    units = take_rounds(w.units(), rounds)
    if not w.in_process:
        w.load_library()
    bs = w.bs
    import brauersplit.cli  # noqa: F401  (the census reaches main through bs.cli)

    # a first pass fills every cache a round does not clear, so that the
    # untraced and traced passes below start from the same state
    run_pass(w, units)
    cache = bs.cyclotomic.factor_cyclotomic_mod_p
    plain_times, traced_times, failed, mismatched = [], [], 0, 0
    # untraced and traced passes alternate, so that a drift in machine speed
    # falls on both; the per-layer metrics come from the first traced pass
    for i in range(OVERHEAD_PASSES):
        plain_s, plain_outs, plain_failed = run_pass(w, units)
        pass_tracer = Tracer(bs)
        pass_tracer.install()
        try:
            if i == 0:
                before = cache.cache_info()
            traced_s, traced_outs, traced_failed = run_pass(w, units, pass_tracer)
            if i == 0:
                tracer = pass_tracer
                census_failed = census(bs)
                after = cache.cache_info()
        finally:
            pass_tracer.uninstall()
        plain_times.append(plain_s)
        traced_times.append(traced_s)
        failed += plain_failed + traced_failed
        mismatched += sum(a != b for a, b in zip(plain_outs, traced_outs))
    tracer.write(trace_path)

    hits, misses = after.hits - before.hits, after.misses - before.misses
    interpreter_s = median_wall(["-c", "pass"], INTERPRETER_PROBES)
    import_s = median_wall(["-c", "import brauersplit.cli"], INTERPRETER_PROBES,
                           env=dict(os.environ, PYTHONPATH=str(wl.SRC))) - interpreter_s
    t = tracer
    metrics = {
        "arith.factorize.calls": t.calls("arith.factorize"),
        "arith.factorize.self_s": t.self_s("arith.factorize"),
        "arith.is_prime.calls": t.calls("arith.is_prime"),
        "arith.is_prime.self_s": t.self_s("arith.is_prime"),
        "arith.padic_valuation.calls": t.calls("arith.padic_valuation"),
        "padic.hilbert_symbol.calls": t.calls("padic.hilbert_symbol"),
        "padic.hilbert_symbol.self_s": t.self_s("padic.hilbert_symbol"),
        "padic.hilbert_product.self_s": t.self_s("padic.hilbert_product"),
        "padic.qp_solvable_oracle.calls": t.calls("padic.qp_solvable_oracle"),
        "padic.qp_solvable_oracle.self_s": t.self_s("padic.qp_solvable_oracle"),
        "quaternion.represent.calls": t.calls("quaternion.represent"),
        "quaternion.represent.self_s": t.self_s("quaternion.represent"),
        "quaternion.is_split_quaternion_Q.self_s": t.self_s("quaternion.is_split_quaternion_Q"),
        "quaternion.congruence_criterion.self_s": t.self_s("quaternion.congruence_criterion"),
        "quaternion.verify_equivalence.self_s": t.self_s("quaternion.verify_equivalence"),
        "cyclotomic.factor_cyclotomic_mod_p.calls": t.calls("cyclotomic.factor_cyclotomic_mod_p"),
        "cyclotomic.factor_cyclotomic_mod_p.self_s": t.self_s("cyclotomic.factor_cyclotomic_mod_p"),
        "cyclotomic.factor_cyclotomic_mod_p.hit_ratio": hits / (hits + misses),
        "cyclotomic.find_prime_ideal.self_s": t.self_s("cyclotomic.find_prime_ideal"),
        "cyclotomic.power_residue_character.calls":
            t.calls("cyclotomic.power_residue_character.int")
            + t.calls("cyclotomic.power_residue_character.cyclotomic_int"),
        "cyclotomic.power_residue_character.self_s.int":
            t.self_s("cyclotomic.power_residue_character.int"),
        "cyclotomic.power_residue_character.self_s.cyclotomic_int":
            t.self_s("cyclotomic.power_residue_character.cyclotomic_int"),
        "localnorm.symbol_algebra_norm_trace.calls": t.calls("localnorm.symbol_algebra_norm_trace"),
        "localnorm.symbol_algebra_norm_trace.self_s": t.self_s("localnorm.symbol_algebra_norm_trace"),
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": import_s,
        "cli.main.self_s": t.self_s("cli.main"),
        # traced throughput against untraced throughput on the same units
        "trace.overhead_frac": statistics.median(traced_times) / statistics.median(plain_times) - 1,
    }
    out = {name: (value, layer_unit(name)) for name, value in metrics.items()}
    return {
        "attempted": 2 * OVERHEAD_PASSES * len(units),
        "failed": failed + mismatched + census_failed,
        "metrics": out,
        "record": {"units": len(units), "untraced_s": plain_times, "traced_s": traced_times,
                   "verdicts_differ": mismatched, "census_failed": census_failed,
                   "spans": len(tracer.spans), "cli.interpreter_s": interpreter_s},
    }


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    return "fraction" if name.endswith(("hit_ratio", "overhead_frac")) else "s"


def git_sha() -> str | None:
    if not (wl.ROOT / ".git").exists():
        return None  # benchmark checkouts are plain trees
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def run_all(args) -> int:
    """Every workload in its own process, one table of metrics."""
    modes = (0, 1) if args.smoke else (args.trace,)
    ok = True
    for trace in modes:
        for name in wl.WORKLOADS:
            cmd = [__file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run([sys.executable, *cmd, *(["--smoke"] if args.smoke else [])],
                                  cwd=wl.ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} (trace {trace}): exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
            failed_frac = result["failed"] / result["attempted"]
            ok = ok and result["correct"]
            print(f"{name} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"failed_frac={failed_frac:g}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:<58} {m['value']:>14.6g} {m['unit']}")
            if trace == 0:
                print(f"  tail percentile p{record['tail_percentile']} of "
                      f"{record['requests']} requests, {record['tail_samples_beyond']} beyond")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)
    if args.workload == "all":
        return run_all(args)

    w = wl.WORKLOADS[args.workload](args.seed, args.smoke)
    if w.in_process:
        WATCHDOG.start()
    w.warm_up()
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    in_process_setup_s = time.perf_counter() - T_START

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        res = traced_run(w, args.smoke, OUT_DIR / f"{stem}.spans.jsonl.gz")
        interpreter_s = res["record"]["cli.interpreter_s"]
    else:
        res = timed_run(w, args.seconds)
        probes = probe_setup(args, 1 if args.smoke else SETUP_PROBES)
        res["metrics"]["setup_s"] = (statistics.median(probes), "s")
        res["record"]["setup_probes_s"] = probes
        interpreter_s = median_wall(["-c", "pass"], 1 if args.smoke else INTERPRETER_PROBES)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cli.interpreter_s": interpreter_s,
        "in_process_setup_s": in_process_setup_s,
        "failed_frac": res["failed"] / res["attempted"],
        **res["record"],
    }
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        WATCHDOG.stop()
    sys.exit(code)
