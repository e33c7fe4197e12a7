"""The four benchmark workloads and the checks of their verdicts.

Every workload is a closed loop with one caller: the next unit starts when
the previous one has returned.  Inputs come from the seed alone; each
verdict is compared with the stored reference under `ref/`, which
`make_reference.py` built and cross-checked by independent routes.

The library is reached only through its public names, looked up on the
module at call time, so the tracer's wrappers are the functions called.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from bisect import bisect_right
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REF_DIR = BENCH_DIR / "ref"

# B for one verify_equivalence call is drawn from this band; the sweep
# reference covers every odd prime up to its upper end.
SWEEP_BAND = (9000, 11000)
SMOKE_SWEEP_BAND = (300, 400)

# Rounds per pass of a traced run; fixed so call counts repeat exactly.
TRACE_ROUNDS = {"sweep": 1, "oracle": 150, "character": 1, "cli": 200}
SMOKE_TRACE_ROUNDS = {"sweep": 1, "oracle": 6, "character": 1, "cli": 8}


def load_reference(name: str) -> dict:
    with open(REF_DIR / f"{name}.json") as fh:
        return json.load(fh)


def library():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "brauersplit" / "__init__.py").is_file():
        raise SystemExit(f"benchmark needs the library sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import brauersplit

    if Path(brauersplit.__file__).resolve().parent != SRC / "brauersplit":
        raise SystemExit(f"imported brauersplit from {brauersplit.__file__}, not {SRC}")
    return brauersplit


# ---------------------------------------------------------------------------
# expected verdicts derived from the stored references
# ---------------------------------------------------------------------------

# one character per odd prime: 4*split + 2*congruence + 1*representable
def _row_flags(code: str) -> tuple[bool, bool, bool]:
    v = int(code)
    return bool(v & 4), bool(v & 2), bool(v & 1)


def sweep_expected(ref: dict, n: int, bound: int) -> dict:
    """verify_equivalence(n, bound).to_dict() as the reference implies it."""
    if bound > ref["bound_max"]:
        raise ValueError(f"bound {bound} beyond the sweep reference")
    count = bisect_right(ref["primes"], bound)
    rows = [(q, *_row_flags(c)) for q, c in zip(ref["primes"][:count], ref["rows"][str(n)])]
    converse_required = n in ref["converse_proven"]
    repr_iff_cong = all(r == c for _, _, c, r in rows)
    cong_implies_split = all(s for _, s, c, _ in rows if c)
    split_implies_cong = all(c for _, s, c, _ in rows if s)
    mandated_ok = repr_iff_cong and cong_implies_split
    if converse_required:
        mandated_ok = mandated_ok and split_implies_cong
    return {
        "n": n,
        "bound": bound,
        "primes_checked": count,
        "split_count": sum(s for _, s, _, _ in rows),
        "congruence_count": sum(c for _, _, c, _ in rows),
        "representation_count": sum(r for _, _, _, r in rows),
        "disagreements": [q for q, s, c, r in rows if not (s == c == r)],
        "representation_iff_congruence": repr_iff_cong,
        "congruence_implies_split": cong_implies_split,
        "split_implies_congruence": split_implies_cong,
        "converse_required": converse_required,
        "converse_failures": [q for q, s, c, _ in rows if s and not c],
        "mandated_ok": mandated_ok,
    }


def splitting_expected(k: int | None) -> str:
    if k is None:
        return "ramified"
    return "split" if k == 0 else "inert"


def norm_trace_expected(k: int | None, f: int, q: int, l: int) -> dict:
    """symbol_algebra_norm_trace fields implied by the character exponent k
    (None for the zero character) and f = ord(p mod q)."""
    m = q * l
    if k is None:
        return {"case": "ramified", "f_prime": f, "f_rel": None, "m": m, "is_norm": None}
    f_rel = 1 if k == 0 else q
    if f == q - 1:
        case = "inert_base"
    else:
        case = "split_base_char_one" if k == 0 else "split_base_char_nontrivial"
    return {"case": case, "f_prime": f, "f_rel": f_rel, "m": m, "is_norm": m % f_rel == 0}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Inputs, one timed unit of work and the check of its verdict.

    `units()` yields the seeded inputs forever as (unit, ends_round) pairs; a
    timed loop stops only at the end of a round, so every run measures whole
    rounds.  `start_round()` runs before each round, outside the timing;
    `run()` is the timed call; `check()` compares its output with the
    reference; `work()` is the number of throughput units one input stands
    for.
    """

    name: str
    in_process = True

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.bs = library()
        self.ref = load_reference(self.name)

    def warm_up(self) -> None:
        pass

    def start_round(self) -> None:
        pass

    def work(self, unit) -> int:
        return 1

    def run_traced(self, unit):
        """The unit as run inside a traced pass (in-process for every
        workload)."""
        return self.run(unit)


class Sweep(Workload):
    """verify_equivalence(n, B) for all eleven n in turn, B from a band; a
    round is one pass over the eleven n."""

    name = "sweep"

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.band = SMOKE_SWEEP_BAND if smoke else SWEEP_BAND

    def units(self):
        rng = random.Random(self.seed)
        last = self.bs.SUPPORTED_N[-1]
        while True:
            for n in self.bs.SUPPORTED_N:
                yield (n, rng.randint(*self.band)), n == last

    def warm_up(self):
        for n in self.bs.SUPPORTED_N:
            self.bs.verify_equivalence(n, 50)

    def run(self, unit):
        n, bound = unit
        return self.bs.verify_equivalence(n, bound).to_dict()

    def check(self, unit, out) -> bool:
        return out == sweep_expected(self.ref, *unit)

    def work(self, unit) -> int:
        return bisect_right(self.ref["primes"], unit[1])


class Oracle(Workload):
    """Hilbert symbol against the residue oracle at the lifting threshold,
    for seeded (a, b) from the box and every prime up to the cap; a round is
    one (a, b) at every prime."""

    name = "oracle"

    def units(self):
        rng = random.Random(self.seed)
        r = self.ref["max_abs"]
        values = [v for v in range(-r, r + 1) if v]
        while True:
            a, b = rng.choice(values), rng.choice(values)
            for p in self.ref["primes"]:
                yield (a, b, p), p == self.ref["primes"][-1]

    def warm_up(self):
        for p in self.ref["primes"]:
            self.run((1, p, p))
            self.run((2 * p, 3 * p, p))

    def run(self, unit):
        a, b, p = unit
        bs = self.bs
        k = bs.lifting_threshold(a, b, p)
        return bs.qp_solvable_oracle(a, b, p, k), bs.hilbert_symbol(a, b, bs.Place(p))

    def check(self, unit, out) -> bool:
        a, b, p = unit
        r = self.ref["max_abs"]
        index = (a + r) * (2 * r + 1) + (b + r)
        solvable = self.ref["solvable"][str(p)][index] == "1"
        return out == (solvable, 1 if solvable else -1)


class Character(Workload):
    """kummer_splitting and symbol_algebra_norm_trace on (alpha, p, q)
    queries.  A round asks every (p, q) of the stored pool, in seeded order,
    about all its alphas (int and CyclotomicInt mixed, seeded order), with
    the factor cache cleared first: the first query of a pair pays for
    factoring and the others hit the cache.  Whole rounds keep the mix of
    cheap and costly fields the same in every run."""

    name = "character"

    def units(self):
        rng = random.Random(self.seed)
        pairs = self.ref["pairs"][:: 8 if self.smoke else 1]
        while True:
            rng.shuffle(pairs)
            for i, pair in enumerate(pairs):
                p, q, f = pair["p"], pair["q"], pair["f"]
                queries = list(pair["queries"])
                rng.shuffle(queries)
                for j, (alpha, l, k) in enumerate(queries):
                    if isinstance(alpha, list):
                        alpha = self.bs.CyclotomicInt(q, tuple(alpha))
                    ends = i == len(pairs) - 1 and j == len(queries) - 1
                    yield (alpha, p, q, l, k, f), ends

    def warm_up(self):
        for alpha, p, q in ((2, 7, 3), (self.bs.CyclotomicInt.zeta(5), 11, 5)):
            self.run((alpha, p, q, 1, None, None))

    def start_round(self):
        self.bs.cyclotomic.factor_cyclotomic_mod_p.cache_clear()

    def run(self, unit):
        alpha, p, q, l = unit[:4]
        bs = self.bs
        cls = bs.kummer_splitting(alpha, p, q)
        trace = bs.symbol_algebra_norm_trace(bs.SymbolAlgebraQuery(alpha=alpha, p=p, q=q, l=l))
        return cls.value, {
            "case": trace.case.value,
            "f_prime": trace.f_prime,
            "f_rel": trace.f_rel,
            "m": trace.m,
            "is_norm": trace.is_norm,
        }

    def check(self, unit, out) -> bool:
        _, _, q, l, k, f = unit
        return out == (splitting_expected(k), norm_trace_expected(k, f, q, l))


class Cli(Workload):
    """One-shot `python -m brauersplit.cli` requests across all eight
    subcommands, drawn from the stored request pool; a round is one
    request."""

    name = "cli"
    in_process = False
    TIMEOUT_S = 60

    def __init__(self, seed, smoke):
        # no library import in this process: only the children pay for it
        self.seed, self.smoke = seed, smoke
        self.ref = load_reference(self.name)
        if not (SRC / "brauersplit" / "cli.py").is_file():
            raise SystemExit(f"benchmark needs the library sources under {SRC}")
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("BRAUER_SPLIT_LOG", None)

    def units(self):
        rng = random.Random(self.seed)
        order = list(range(len(self.ref["requests"])))
        rng.shuffle(order)
        while True:
            for i in order:
                yield self.ref["requests"][i], True

    def warm_up(self):
        self.run(self.ref["requests"][0])

    def run(self, unit):
        proc = subprocess.run(
            [sys.executable, "-m", "brauersplit.cli", *unit["argv"]],
            cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=self.TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run_traced(self, unit):
        main = self.bs.cli.main
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(unit["argv"]))
        return code, out.getvalue(), err.getvalue()

    def check(self, unit, out) -> bool:
        return list(out) == [unit["exit"], unit["stdout"], unit["stderr"]]

    def load_library(self):
        self.bs = library()
        import brauersplit.cli  # noqa: F401  (main is reached as bs.cli.main)


WORKLOADS = {w.name: w for w in (Sweep, Oracle, Character, Cli)}
