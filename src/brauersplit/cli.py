"""Command-line surface: one subcommand per decision procedure.

Output is JSON Lines on stdout (one record per line, keys sorted, so
identical invocations are byte-identical); --pretty switches to an aligned
human-readable listing.  Each handler yields the (inputs, outputs, witness)
of its records; `main` alone builds and prints them and picks the exit
code.  Exit codes: 0 success/verified, 1 a record whose outputs hold
`agree: false` or `mandated_ok: false` (a mandated check failed), 2 usage
error, 3 inconclusive (a number at or above psi_13 that no primality base
refutes, see `arith`).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple

from ._record import Record
from .arith import Inconclusive
from .cyclotomic import (
    cyclotomic_decomposition,
    find_prime_ideal,
    kummer_splitting,
    power_residue_character,
)
from .localnorm import SymbolAlgebraQuery, symbol_algebra_norm_trace
from .padic import (
    Place,
    hilbert_product,
    hilbert_symbol,
    lifting_threshold,
    qp_solvable_oracle,
    rational_point_search,
)
from .quaternion import (
    SUPPORTED_N,
    QuaternionAlgebra,
    represent,
    verify_equivalence,
)


class ReportRecord(Record, namedtuple("ReportRecord", "command inputs outputs witness", defaults=(None,))):
    """One machine-readable result: command, inputs, outputs, optional witness."""

    __slots__ = ()

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True, separators=(",", ":"))

    def pretty(self) -> str:
        lines = [f"{self.command}:"]
        for label, section in (("in", self.inputs), ("out", self.outputs)):
            for key, value in section.items():
                lines.append(f"  {label:<4}{key} = {value}")
        if self.witness is not None:
            lines.append(f"  witness = {self.witness}")
        return "\n".join(lines)


def _parse_place(spec: str) -> Place:
    if spec == "inf":
        return Place.infinite()
    p = int(spec)
    if p == 0:  # Place(0) is the infinite place, which the CLI spells "inf"
        raise ValueError("place must be 'inf' or a prime, got 0")
    return Place(p)


def _cmd_hilbert(args):
    place = _parse_place(args.place)
    value = hilbert_symbol(args.alpha, args.beta, place)
    outputs = {"value": value}
    if args.oracle:
        if place.is_infinite:
            oracle = not (args.alpha < 0 and args.beta < 0)
            outputs["k_star"] = None
        else:
            k = lifting_threshold(args.alpha, args.beta, place.p)
            oracle = qp_solvable_oracle(args.alpha, args.beta, place.p, k)
            outputs["k_star"] = k
        outputs["oracle"] = oracle
        outputs["agree"] = (value == 1) == oracle
    yield {"alpha": args.alpha, "beta": args.beta, "place": str(place)}, outputs, None


def _cmd_quat_split(args):
    if args.witness is not None and args.witness < 1:  # also for a division algebra
        raise ValueError("height bound must be positive")
    algebra = QuaternionAlgebra(args.alpha, args.beta)
    symbols = hilbert_product(args.alpha, args.beta)
    split = all(v == 1 for v in symbols.values())
    outputs = {
        "split": split,
        "symbols": {str(place): value for place, value in symbols.items()},
    }
    witness = None
    if args.witness is not None:
        if split:
            point = rational_point_search(args.alpha, args.beta, args.witness)
            if point is None:
                outputs["witness_note"] = f"inconclusive within bound {args.witness}"
            else:
                witness = point._asdict()
        else:
            outputs["witness_note"] = "no rational point exists (division algebra)"
    yield {"alpha": algebra.a, "beta": algebra.b}, outputs, witness


def _cmd_represent(args):
    rep = represent(args.n, args.q)
    witness = None if rep is None else rep._asdict()
    yield {"n": args.n, "q": args.q}, {"exists": rep is not None}, witness


def _cmd_verify(args):
    ns = SUPPORTED_N if args.n == "all" else [int(args.n)]
    for n in ns:
        report = verify_equivalence(n, args.bound)
        yield {"n": n, "bound": args.bound}, report.to_dict(), None


def _cmd_cyclo(args):
    dec = cyclotomic_decomposition(args.p, args.q)
    yield {"p": args.p, "q": args.q}, dec._asdict(), None


def _small_q(q: int) -> int:
    # bound on Phi_q: each command's slowest call found, 2 3317044064679886386006299 97, took <= 0.45 s (2 vCPUs)
    if q >= 100:
        raise ValueError(f"q = {q} is too large; power-char, kummer and norm take q < 100")
    return q


def _cmd_power_char(args):
    ideal = find_prime_ideal(args.p, _small_q(args.q))
    chi = power_residue_character(args.alpha, ideal)
    outputs = {
        "value": "zero" if chi.is_zero else chi.k,
        "ideal_factor": list(ideal.g),
    }
    yield {"alpha": args.alpha, "p": args.p, "q": args.q}, outputs, None


def _cmd_kummer(args):
    cls = kummer_splitting(args.alpha, args.p, _small_q(args.q))
    yield {"alpha": args.alpha, "p": args.p, "q": args.q}, {"splitting": cls.value}, None


def _cmd_norm(args):
    query = SymbolAlgebraQuery(alpha=args.alpha, p=args.p, q=_small_q(args.q), l=args.l)
    trace = symbol_algebra_norm_trace(query)
    outputs = {**trace._asdict(), "case": trace.case.value}
    yield {"alpha": args.alpha, "p": args.p, "q": args.q, "l": args.l}, outputs, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brauersplit",
        description="Splitting decisions for quaternion and symbol algebras over Q.",
    )
    parser.add_argument("--pretty", action="store_true", help="human-readable output")
    # accepted on either side of the subcommand; SUPPRESS keeps the
    # subparser from clobbering a --pretty given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--pretty", action="store_true", default=argparse.SUPPRESS, help=argparse.SUPPRESS
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *positionals):
        p = sub.add_parser(name, parents=[common], help=help)
        for arg in positionals:
            p.add_argument(arg, type=int)
        p.set_defaults(func=func)
        return p

    p = command("hilbert", _cmd_hilbert, "Hilbert symbol at one place", "alpha", "beta")
    p.add_argument("place", help="'inf', 2, or an odd prime")
    p.add_argument("--oracle", action="store_true", help="cross-check with the residue search")
    p = command("quat-split", _cmd_quat_split, "split/division verdict with per-place symbols",
                "alpha", "beta")
    p.add_argument("--witness", type=int, metavar="H", help="search a conic point up to height H")
    command("represent", _cmd_represent, "solve q = x^2 + n*y^2", "n", "q")
    p = command("verify", _cmd_verify, "sweep split/congruence/representation equivalences")
    p.add_argument("n", help="criterion index or 'all'")
    p.add_argument("--bound", type=int, default=1000, metavar="B")
    command("cyclo", _cmd_cyclo, "decomposition type of p in the q-th cyclotomic field", "p", "q")
    command("power-char", _cmd_power_char, "q-power residue character of alpha above p",
            "alpha", "p", "q")
    command("kummer", _cmd_kummer, "splitting class in the Kummer extension", "alpha", "p", "q")
    command("norm", _cmd_norm, "norm-membership trace for a degree-q symbol algebra",
            "alpha", "p", "q", "l")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize other exits
        return int(exc.code or 0)
    failed = False
    try:
        for inputs, outputs, witness in args.func(args):
            record = ReportRecord(args.command, inputs, outputs, witness)
            print(record.pretty() if args.pretty else record.to_json())
            # the two mandated checks: hilbert --oracle and verify
            if outputs.get("agree") is False or outputs.get("mandated_ok") is False:
                failed = True
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
