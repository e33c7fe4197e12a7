"""Command-line surface: one subcommand per decision procedure.

Output is JSON Lines on stdout (one record per line, keys sorted, so
identical invocations are byte-identical); --pretty switches to an aligned
human-readable listing.  Exit codes: 0 success/verified, 1 verification
failure, 2 usage error or unwritable --out, 3 inconclusive (a number at or
above psi_13 that no primality base refutes, see `arith`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass

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


@dataclass
class ReportRecord:
    """One machine-readable result: command, inputs, outputs, optional witness."""

    command: str
    inputs: dict
    outputs: dict
    witness: object = None

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "witness": self.witness,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def pretty(self) -> str:
        lines = [f"{self.command}:"]
        for label, section in (("in", self.inputs), ("out", self.outputs)):
            for key, value in section.items():
                lines.append(f"  {label:<4}{key} = {value}")
        if self.witness is not None:
            lines.append(f"  witness = {self.witness}")
        return "\n".join(lines)


def _emit(record: ReportRecord, args, out_file=None) -> None:
    text = record.pretty() if args.pretty else record.to_json()
    print(text)
    if out_file is not None:
        out_file.write(record.to_json() + "\n")


def _parse_place(spec: str) -> Place:
    if spec == "inf":
        return Place.infinite()
    p = int(spec)
    if p == 0:  # Place(0) is the infinite place, which the CLI spells "inf"
        raise ValueError("place must be 'inf' or a prime, got 0")
    return Place(p)


def _cmd_hilbert(args) -> int:
    place = _parse_place(args.place)
    value = hilbert_symbol(args.alpha, args.beta, place)
    outputs = {"value": value}
    exit_code = 0
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
        if not outputs["agree"]:
            exit_code = 1
    record = ReportRecord(
        "hilbert",
        {"alpha": args.alpha, "beta": args.beta, "place": str(place)},
        outputs,
    )
    _emit(record, args)
    return exit_code


def _cmd_quat_split(args) -> int:
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
                witness = {"x": point.x, "y": point.y, "z": point.z}
        else:
            outputs["witness_note"] = "no rational point exists (division algebra)"
    record = ReportRecord(
        "quat-split", {"alpha": algebra.a, "beta": algebra.b}, outputs, witness
    )
    _emit(record, args)
    return 0


def _cmd_represent(args) -> int:
    rep = represent(args.n, args.q)
    outputs = {"exists": rep is not None}
    witness = None if rep is None else {"x": rep.x, "y": rep.y}
    record = ReportRecord("represent", {"n": args.n, "q": args.q}, outputs, witness)
    _emit(record, args)
    return 0


def _cmd_verify(args) -> int:
    if args.n == "all":
        ns = list(SUPPORTED_N)
    else:
        ns = [int(args.n)]
    all_ok = True
    with open(args.out, "w") if args.out else contextlib.nullcontext() as out_file:
        for n in ns:
            report = verify_equivalence(n, args.bound)
            all_ok = all_ok and report.mandated_ok
            record = ReportRecord(
                "verify", {"n": n, "bound": args.bound}, report.to_dict()
            )
            _emit(record, args, out_file)
    return 0 if all_ok else 1


def _cmd_cyclo(args) -> int:
    dec = cyclotomic_decomposition(args.p, args.q)
    record = ReportRecord(
        "cyclo",
        {"p": args.p, "q": args.q},
        {"e": dec.e, "f": dec.f, "g": dec.g},
    )
    _emit(record, args)
    return 0


def _cmd_power_char(args) -> int:
    ideal = find_prime_ideal(args.p, args.q)
    chi = power_residue_character(args.alpha, ideal)
    record = ReportRecord(
        "power-char",
        {"alpha": args.alpha, "p": args.p, "q": args.q},
        {
            "value": "zero" if chi.is_zero else chi.k,
            "ideal_factor": list(ideal.g),
        },
    )
    _emit(record, args)
    return 0


def _cmd_kummer(args) -> int:
    cls = kummer_splitting(args.alpha, args.p, args.q)
    record = ReportRecord(
        "kummer",
        {"alpha": args.alpha, "p": args.p, "q": args.q},
        {"splitting": cls.value},
    )
    _emit(record, args)
    return 0


def _cmd_norm(args) -> int:
    trace = symbol_algebra_norm_trace(
        SymbolAlgebraQuery(alpha=args.alpha, p=args.p, q=args.q, l=args.l)
    )
    record = ReportRecord(
        "norm",
        {"alpha": args.alpha, "p": args.p, "q": args.q, "l": args.l},
        {
            "case": trace.case.value,
            "f_prime": trace.f_prime,
            "f_rel": trace.f_rel,
            "m": trace.m,
            "is_norm": trace.is_norm,
        },
    )
    _emit(record, args)
    return 0


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

    p = sub.add_parser("hilbert", parents=[common], help="Hilbert symbol at one place")
    p.add_argument("alpha", type=int)
    p.add_argument("beta", type=int)
    p.add_argument("place", help="'inf', 2, or an odd prime")
    p.add_argument("--oracle", action="store_true", help="cross-check with the residue search")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("quat-split", parents=[common], help="split/division verdict with per-place symbols")
    p.add_argument("alpha", type=int)
    p.add_argument("beta", type=int)
    p.add_argument("--witness", type=int, metavar="H", help="search a conic point up to height H")
    p.set_defaults(func=_cmd_quat_split)

    p = sub.add_parser("represent", parents=[common], help="solve q = x^2 + n*y^2")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=_cmd_represent)

    p = sub.add_parser("verify", parents=[common], help="sweep split/congruence/representation equivalences")
    p.add_argument("n", help="criterion index or 'all'")
    p.add_argument("--bound", type=int, default=1000, metavar="B")
    p.add_argument("--out", metavar="FILE", help="also write JSON lines to FILE")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cyclo", parents=[common], help="decomposition type of p in the q-th cyclotomic field")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=_cmd_cyclo)

    p = sub.add_parser("power-char", parents=[common], help="q-power residue character of alpha above p")
    p.add_argument("alpha", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=_cmd_power_char)

    p = sub.add_parser("kummer", parents=[common], help="splitting class in the Kummer extension")
    p.add_argument("alpha", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=_cmd_kummer)

    p = sub.add_parser("norm", parents=[common], help="norm-membership trace for a degree-q symbol algebra")
    p.add_argument("alpha", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("l", type=int)
    p.set_defaults(func=_cmd_norm)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize other exits
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
