#!/usr/bin/env python3
"""Build the stored reference verdicts under bench/ref/ and cross-check each
one by an independent route (see crosscheck.py) before writing it.

The pools of character queries and CLI requests are drawn here from fixed
seeds; a benchmark run's own seed only orders and samples them.  Run from
the repository root:

    python3 bench/make_reference.py            # all four references
    python3 bench/make_reference.py sweep cli  # some of them

It takes a few minutes on one core and fails loudly on any disagreement.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

import workloads as wl

bs = wl.library()
# these need the library on the path
import crosscheck as cc  # noqa: E402
from crosscheck import require  # noqa: E402

ORACLE_MAX_ABS = 30
ORACLE_MAX_P = 30
CHARACTER_PAIRS_PER_Q = 8
CHARACTER_MAX_P = 10**6
CLI_REQUESTS = 1000
POOL_SEED = 20140313


def write(name: str, data: dict) -> None:
    path = wl.REF_DIR / f"{name}.json"
    path.write_text(json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(wl.ROOT)} ({path.stat().st_size} bytes)")


def make_sweep() -> dict:
    bound_max = wl.SWEEP_BAND[1]
    primes = [q for q in range(3, bound_max + 1, 2) if cc.is_prime_trial(q)]
    split_oracle = cc.SweepSplitOracle()
    rows, disagreements = {}, {}
    for n in bs.SUPPORTED_N:
        crit = bs.CRITERIA[n]
        codes = []
        for q in primes:
            split = bs.is_split_quaternion_Q(bs.QuaternionAlgebra(-n, q))
            cong = bs.congruence_criterion(n, q)
            rep = bs.represent(n, q)
            require(split == split_oracle.split(n, q), f"split({-n}, {q}) disagrees with the oracle")
            require(cong == (q in crit.special_primes or q % crit.modulus in crit.classes),
                    f"congruence({n}, {q})")
            if rep is None:
                require(not cc.represent_brute(n, q), f"{q} = x^2 + {n}y^2 missed")
            else:
                require(rep.x**2 + n * rep.y**2 == q, f"bad witness {rep} for {q}, n={n}")
            codes.append(str(4 * split + 2 * cong + (rep is not None)))
        rows[str(n)] = "".join(codes)
        disagreements[str(n)] = [q for q, c in zip(primes, codes) if c not in "07"]
        report = bs.verify_equivalence(n, bound_max).to_dict()
        ref = {"primes": primes, "rows": rows, "bound_max": bound_max,
               "converse_proven": sorted(bs.CONVERSE_PROVEN)}
        require(report == wl.sweep_expected(ref, n, bound_max), f"verify_equivalence({n})")
    require(disagreements["14"][:7] == [7, 71, 79, 113, 191, 193, 263], "n = 14 disagreements moved")
    return {
        "bound_max": bound_max,
        "converse_proven": sorted(bs.CONVERSE_PROVEN),
        "primes": primes,
        "rows": rows,
        # kept in full: the n = 14 list is the printed criterion's known defect
        "disagreements": disagreements,
    }


def make_oracle() -> dict:
    r = ORACLE_MAX_ABS
    primes = [p for p in range(2, ORACLE_MAX_P + 1) if cc.is_prime_trial(p)]
    table = {}
    for p in primes:
        bits = []
        for a in range(-r, r + 1):
            for b in range(-r, r + 1):
                if a == 0 or b == 0:
                    bits.append("-")
                    continue
                solvable = bs.qp_solvable_oracle(a, b, p, bs.lifting_threshold(a, b, p))
                symbol = bs.hilbert_symbol(a, b, bs.Place(p))
                require(solvable == (symbol == 1), f"oracle and symbol disagree at ({a}, {b}, {p})")
                bits.append("1" if solvable else "0")
        table[str(p)] = "".join(bits)
    return {"max_abs": r, "primes": primes, "solvable": table}


def make_character() -> dict:
    rng = random.Random(POOL_SEED)
    primes = [p for p in bs.arith.primes_up_to(CHARACTER_MAX_P) if p > 2]
    pairs, skipped = [], 0
    for q in bs.cyclotomic.SUPPORTED_Q:
        drawn = 0
        while drawn < CHARACTER_PAIRS_PER_Q:
            p = rng.choice(primes)
            if p == q:
                continue
            ideal = bs.find_prime_ideal(p, q)
            try:
                field = cc.ResidueField(p, q, ideal.g)
            except OverflowError:
                skipped += 1  # q-Sylow subgroup too large to enumerate
                continue
            alphas = []
            for _ in range(3):
                alpha = rng.choice((-1, 1)) * rng.randint(2, 10**6)
                alphas.append(p * rng.randint(1, 9) if rng.random() < 0.05 else alpha)
            for _ in range(3):
                alphas.append([rng.randint(-9, 9) for _ in range(q - 1)])
            queries = []
            for alpha in alphas:
                value = alpha if isinstance(alpha, int) else bs.CyclotomicInt(q, tuple(alpha))
                chi = bs.power_residue_character(value, ideal)
                k = None if chi.is_zero else chi.k
                require(k == field.character(alpha), f"character of {alpha} at ({p}, {q})")
                queries.append([alpha, rng.randint(1, 3), k])
            pairs.append({"p": p, "q": q, "f": field.f, "queries": queries})
            drawn += 1
    print(f"character: {skipped} pairs skipped for a large q-Sylow subgroup")
    return {"pairs": pairs}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

SMALL_PRIMES = [p for p in range(2, 3000) if cc.is_prime_trial(p)]


def draw_request(rng: random.Random) -> list[str]:
    def small():
        return str(rng.randint(-30, 30))

    def primes_to(m):
        return str(rng.choice([p for p in SMALL_PRIMES if p <= m]))

    cmd = rng.choice(("hilbert", "quat-split", "represent", "verify",
                      "cyclo", "power-char", "kummer", "norm"))
    if cmd == "hilbert":
        place = rng.choice(["inf"] + [str(p) for p in SMALL_PRIMES if p <= 30])
        return [cmd, small(), small(), place] + (["--oracle"] if rng.random() < 0.5 else [])
    if cmd == "quat-split":
        return [cmd, small(), small()] + (["--witness", "20"] if rng.random() < 0.5 else [])
    if cmd == "represent":
        return [cmd, str(rng.randint(1, 30)), primes_to(3000)]
    if cmd == "verify":
        n = "all" if rng.random() < 1 / 12 else str(rng.choice(bs.SUPPORTED_N))
        return [cmd, n, "--bound", str(rng.randint(3, 400))]
    if cmd == "cyclo":
        return [cmd, primes_to(100), primes_to(30)]
    alpha = str(rng.randint(-50, 50))
    args = [cmd, alpha, primes_to(200), str(rng.choice(bs.cyclotomic.SUPPORTED_Q))]
    return args + [str(rng.randint(1, 3))] if cmd == "norm" else args


def expect_error(argv: list[str]) -> bool:
    cmd, args = argv[0], argv[1:]
    if cmd in ("hilbert", "quat-split"):
        return args[0] == "0" or args[1] == "0"
    if cmd == "cyclo":
        return args[0] == args[1]
    if cmd in ("power-char", "kummer", "norm"):
        # p = q is ramified; kummer also refuses alpha = 0
        return args[1] == args[2] or (cmd == "kummer" and args[0] == "0")
    return False


def check_cli(argv: list[str], code: int, out: str, err: str, sweep_ref: dict, fields: dict):
    what = " ".join(argv)
    if expect_error(argv):
        require(code == 2 and not out and err.startswith("error: "), f"{what}: expected an error")
        return
    require(not err, f"{what}: unexpected stderr {err!r}")
    records = [json.loads(line) for line in out.splitlines()]
    cmd, args = argv[0], argv[1:]
    if cmd == "verify":
        bound = int(args[2])
        ns = bs.SUPPORTED_N if args[0] == "all" else [int(args[0])]
        expected = [wl.sweep_expected(sweep_ref, n, bound) for n in ns]
        require([r["outputs"] for r in records] == expected, f"{what}: sweep differs")
        require(code == (0 if all(e["mandated_ok"] for e in expected) else 1), f"{what}: exit")
        return
    require(code == 0 and len(records) == 1, f"{what}: exit {code}")
    rec = records[0]
    o = rec["outputs"]
    if cmd == "hilbert":
        a, b = int(args[0]), int(args[1])
        p = 0 if args[2] == "inf" else int(args[2])
        solvable = cc.locally_solvable(a, b, p)
        require(o["value"] == (1 if solvable else -1), f"{what}: symbol")
        if "--oracle" in argv:
            require(o["oracle"] == solvable and o["agree"], f"{what}: oracle fields")
    elif cmd == "quat-split":
        a, b = int(args[0]), int(args[1])
        places = cc.nontrivial_places(a, b)
        symbols = {("inf" if v == 0 else str(v)): (1 if cc.locally_solvable(a, b, v) else -1)
                   for v in places}
        require(o["symbols"] == symbols, f"{what}: symbols")
        require(o["split"] == all(s == 1 for s in symbols.values()), f"{what}: split")
        w = rec["witness"]
        if w is not None:
            x, y, z = w["x"], w["y"], w["z"]
            require(a * x * x + b * y * y == z * z and (x, y, z) != (0, 0, 0),
                    f"{what}: witness off the conic")
    elif cmd == "represent":
        n, q = int(args[0]), int(args[1])
        require(o["exists"] == cc.represent_brute(n, q), f"{what}: exists")
        w = rec["witness"]
        if w is not None:
            require(w["x"] ** 2 + n * w["y"] ** 2 == q, f"{what}: witness")
    elif cmd == "cyclo":
        p, q = int(args[0]), int(args[1])
        f = cc.order_mod(p, q)
        require(o == {"e": 1, "f": f, "g": (q - 1) // f}, f"{what}: decomposition")
    else:
        alpha, p, q = int(args[0]), int(args[1]), int(args[2])
        if (p, q) not in fields:
            fields[p, q] = cc.ResidueField(p, q, bs.find_prime_ideal(p, q).g)
        field = fields[p, q]
        k = field.character(alpha)
        if p**field.f <= 3000 and k is not None:
            require((k == 0) == cc.char_from_brute_set(p, q, field.g, alpha),
                    f"{what}: q-th power set disagrees")
        if cmd == "power-char":
            require(o["value"] == ("zero" if k is None else k), f"{what}: character")
            require(tuple(o["ideal_factor"]) == tuple(field.g), f"{what}: ideal")
        elif cmd == "kummer":
            require(o["splitting"] == wl.splitting_expected(k), f"{what}: splitting")
        else:
            expected = wl.norm_trace_expected(k, field.f, q, int(args[3]))
            require(o == expected, f"{what}: norm trace")


def make_cli() -> dict:
    sweep_ref = wl.load_reference("sweep")
    rng = random.Random(POOL_SEED)
    runner = wl.Cli(0, False)
    runner.load_library()
    fields: dict = {}
    requests = []
    for _ in range(CLI_REQUESTS):
        argv = draw_request(rng)
        code, out, err = runner.run_traced({"argv": argv})
        check_cli(argv, code, out, err, sweep_ref, fields)
        requests.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    return {"requests": requests}


MAKERS = {"sweep": make_sweep, "oracle": make_oracle, "character": make_character, "cli": make_cli}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("names", nargs="*", help=f"any of {', '.join(MAKERS)} (default: all)")
    args = ap.parse_args()
    unknown = set(args.names) - set(MAKERS)
    if unknown:
        ap.error(f"unknown reference {sorted(unknown)}")
    wl.REF_DIR.mkdir(exist_ok=True)
    for name in args.names or MAKERS:
        t0 = time.perf_counter()
        write(name, MAKERS[name]())
        print(f"{name}: {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
