"""The mutants of `src/` and the tests that must kill them.

Each entry replaces one exact snippet, which must occur exactly once in its
file, and names the test node ids that should fail on the mutant.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]


CYCLO = "src/brauersplit/cyclotomic.py"
LOCALNORM = "src/brauersplit/localnorm.py"
PADIC = "src/brauersplit/padic.py"
QUAT = "src/brauersplit/quaternion.py"
RECORD = "src/brauersplit/_record.py"
TC = "tests/test_cyclotomic.py::"
TL = "tests/test_localnorm.py::"
TCLI = "tests/test_cli.py::"
TP = "tests/test_padic.py::"
TQ = "tests/test_quaternion.py::"

MUTANTS = (
    Mutant(
        "Montgomery R = 2^k with k one short",
        CYCLO,
        "k = ((most - 1) // p).bit_length()",
        "k = ((most - 1) // p).bit_length() - 1",
        (TC + "test_product_of_the_largest_slots_modulo_x_q_minus_1", TC + "test_a_chain_of_products_stays_lazy"),
    ),
    Mutant(
        "p' = +1/p mod R, the wrong sign",
        CYCLO,
        "self.pinv = -pow(p, -1, R) % R",
        "self.pinv = pow(p, -1, R)",
        (TC + "test_product_of_the_largest_slots_modulo_x_q_minus_1",),
    ),
    Mutant(
        "reduction mask modulo g spans n, not 2n - 1, product slots",
        CYCLO,
        "(1 << (n if self.wrap else 2 * n - 1) * w)",
        "(1 << n * w)",
        (TC + "test_product_of_the_largest_slots_modulo_g",),
    ),
    Mutant(
        "low product slots not lifted by R before the fold",
        CYCLO,
        "r = (x & self.lomask) * self.one",
        "r = x & self.lomask",
        (TC + "test_product_of_the_largest_slots_modulo_g",),
    ),
    Mutant(
        "p = 2 reduced like an odd p (R = 1, p' = 0: no reduction)",
        CYCLO,
        "        if not self.k:\n            return r & self.mk\n",
        "",
        (TC + "test_product_of_the_largest_slots_modulo_x_q_minus_1", TC + "test_a_chain_of_products_stays_lazy"),
    ),
    Mutant(
        "f = 1 roots include r^0 = 1",
        CYCLO,
        "(-pow(r, k, p) % p, 1) for k in range(1, q)",
        "(-pow(r, k, p) % p, 1) for k in range(q)",
        (TC + "test_split_factors_are_the_roots_of_unity",),
    ),
    Mutant(
        "orbit sums miss k itself",
        CYCLO,
        "{k * p**j % q for j in range(f)}",
        "{k * p**j % q for j in range(1, f)}",
        (TC + "test_trials_are_fixed_by_frobenius",),
    ),
    Mutant(
        "trial exponent 0 at p = 2",
        CYCLO,
        "ring.pow(ring.enter(u), (p - 1) // 2 or 1)",
        "ring.pow(ring.enter(u), (p - 1) // 2)",
        (TC + "test_trials_are_fixed_by_frobenius",),
    ),
    Mutant(
        "constant power without `or p - 1`: 0^0 = 1",
        CYCLO,
        "pow(a, (p**d - 1) // q % (p - 1) or p - 1, p)",
        "pow(a, (p**d - 1) // q % (p - 1), p)",
        (TC + "test_constant_power_is_taken_mod_p_minus_1",),
    ),
    # (xs[i * p % q] ...) would be equivalent, not a mutant: i p = i (p mod q) mod q
    Mutant(
        "Frobenius index reduced mod n, not mod q",
        CYCLO,
        "(xs[i * (p % q) % q] for i in range(n))",
        "(xs[i * (p % q) % n] for i in range(n))",
        (TC + "test_frobenius_of_the_largest_slots",),
    ),
    Mutant(
        "Frobenius without `reduce` modulo g",
        CYCLO,
        "v = sum((v >> s & self.slot) * x for s, x in self.frob)\n"
        "        return v if self.wrap else self.reduce(v)",
        "v = sum((v >> s & self.slot) * x for s, x in self.frob)\n"
        "        return v",
        (TC + "test_frobenius_of_the_largest_slots",),
    ),
    Mutant(
        "exponent reads c from slot 0, not the median of three",
        CYCLO,
        "c = sorted(slots[:3])[1]",
        "c = slots[0]",
        (TC + "test_exponent_reads_x_to_the_k_plus_a_multiple_of_phi",),
    ),
    Mutant(
        "Phi_q checks q with require_prime, which admits 2",
        CYCLO,
        "return [1] * _check_order(q)",
        "return [1] * require_prime(q)",
        (TC + "test_q_2_is_refused_by_the_one_check",),
    ),
    Mutant(
        "CyclotomicInt checks q with require_prime, which admits 2",
        CYCLO,
        "        _check_order(q)\n        if len(coeffs)",
        "        require_prime(q)\n        if len(coeffs)",
        (TC + "test_q_2_is_refused_by_the_one_check",),
    ),
    Mutant(
        "the q check's error names no argument, so p = 9 and q = 9 read alike",
        CYCLO,
        'return require_prime(q, odd=True, name="q")',
        "return require_prime(q, odd=True)",
        (TCLI + "test_prime_errors_name_the_refused_argument",),
    ),
    Mutant(
        "class-number-one gate back in find_prime_ideal",
        CYCLO,
        "    return PrimeIdealRep(p=p, q=q, g=factor_cyclotomic_mod_p(q, p)[0])",
        "    if q not in SUPPORTED_Q:\n"
        "        raise ValueError(f\"q={q} unsupported\")\n"
        "    return PrimeIdealRep(p=p, q=q, g=factor_cyclotomic_mod_p(q, p)[0])",
        (TC + "test_prime_ideals_of_every_odd_prime_q_are_accepted",),
    ),
    Mutant(
        "residue ring checks the degree of g, not that g is a factor",
        CYCLO,
        "if ideal.g not in factor_cyclotomic_mod_p(ideal.q, ideal.p):",
        "if len(ideal.g) - 1 != multiplicative_order(ideal.p, ideal.q):",
        (TC + "test_character_rejects_malformed_ideal",),
    ),
    Mutant(
        "CLI bound admits q = 101",
        "src/brauersplit/cli.py",
        "if q >= 100:",
        "if q > 101:",
        (TCLI + "test_character_commands_reject_a_pseudoprime_p_and_an_unsupported_q",),
    ),
    Mutant(
        "class-number-one gate back in SymbolAlgebraQuery",
        LOCALNORM,
        "        if p == q:\n            raise RamifiedPrimeError",
        "        if q not in (3, 5, 7, 11, 13, 17, 19):\n"
        "            raise ValueError(f\"q={q} unsupported\")\n"
        "        if p == q:\n            raise RamifiedPrimeError",
        (TL + "test_query_validation", TL + "test_trace_past_q_19_agrees_with_kummer_splitting"),
    ),
    Mutant(
        "norm without the CLI's q bound",
        "src/brauersplit/cli.py",
        "q=_small_q(args.q)",
        "q=args.q",
        (TCLI + "test_character_commands_reject_a_pseudoprime_p_and_an_unsupported_q",),
    ),
    Mutant(
        "f_rel with its two values swapped",
        LOCALNORM,
        "f_rel = 1 if chi.is_trivial else q",
        "f_rel = q if chi.is_trivial else 1",
        (TL + "test_trace_past_q_19_agrees_with_kummer_splitting",),
    ),
    Mutant(
        "inert base read as f_prime = q",
        LOCALNORM,
        "if f_prime == q - 1:",
        "if f_prime == q:",
        (TL + "test_trace_past_q_19_agrees_with_kummer_splitting",),
    ),
    Mutant(
        "a dataclasses import back in the library",
        PADIC,
        "from collections import namedtuple\n",
        "from collections import namedtuple\nfrom dataclasses import dataclass  # noqa: F401\n",
        ("tests/test_package.py::test_import_loads_neither_numpy_nor_process_pool",),
    ),
    Mutant(
        "records built by _make and _replace skip their class's checks",
        RECORD,
        "        return cls(*iterable)",
        "        return tuple.__new__(cls, iterable)",
        ("tests/test_package.py::test_records_keep_their_dataclass_semantics",),
    ),
    Mutant(
        "a record equals the plain tuple of its fields",
        RECORD,
        "type(other) is type(self) and tuple.__eq__(self, other)",
        "tuple.__eq__(self, other)",
        ("tests/test_package.py::test_records_keep_their_dataclass_semantics",),
    ),
    Mutant(
        "symbol at inf is -1 if either argument is negative",
        PADIC,
        "return -1 if (a < 0 and b < 0) else 1",
        "return -1 if (a < 0 or b < 0) else 1",
        (TP + "test_symbol_at_infinity",),
    ),
    Mutant(
        "symbol at 2 without the eps(u) eps(v) term",
        PADIC,
        "exponent = _eps(u) * _eps(v) + va * _omega(v) + vb * _omega(u)",
        "exponent = va * _omega(v) + vb * _omega(u)",
        (TP + "test_symbol_frozen_values",),
    ),
    Mutant(
        "symbol at odd p without the sign (-1)^(va vb)",
        PADIC,
        "c = (-1) ** (va * vb) * u ** (vb % 2) * v ** (va % 2)",
        "c = u ** (vb % 2) * v ** (va % 2)",
        (TP + "test_oracle_agrees_with_symbol_at_high_valuations",),
    ),
    Mutant(
        "sieve strikes from (p - start) // 2 without `% p`",
        "src/brauersplit/arith.py",
        "i = (p - start) // 2 % p if m < start else (m - start) // 2",
        "i = (p - start) // 2 if m < start else (m - start) // 2",
        ("tests/test_arith.py::test_odd_prime_segments_flag_the_odd_primes",),
    ),
    Mutant(
        "class table without the symbol at 2 for odd n",
        QUAT,
        "places = sorted(factorize(n).keys() | {2})",
        "places = sorted(factorize(n).keys())",
        (TQ + "test_sweep_rows_match_the_public_decisions",),
    ),
    Mutant(
        "_represented starts x at the wrong parity",
        QUAT,
        "x += (x + ny2 + 1) % 2",
        "x += (x + ny2) % 2",
        (TQ + "test_represented_marks_exactly_the_odd_values_of_the_form",),
    ),
    Mutant(
        "Cornacchia runs Euclid one step past x = isqrt(q)",
        QUAT,
        "while b > bound:",
        "while b >= bound:",
        (TQ + "test_represent_matches_scan",),
    ),
    Mutant(
        "fold reads the converse lane as c & ~s",
        QUAT,
        "if lane := sc & s:",
        "if lane := sc & c:",
        (TQ + "test_report_is_the_fold_of_the_rows",),
    ),
    Mutant(
        "hit primes read at start + i, not start + 2i",
        QUAT,
        "yield start + 2 * i",
        "yield start + i",
        (TQ + "test_report_is_the_fold_of_the_rows",),
    ),
    Mutant(
        "records order like the tuple of their fields",
        RECORD,
        "    def __lt__(self, other):\n"
        "        # a tuple would order by the fields, across classes and against tuples\n"
        "        raise TypeError(f\"{type(self).__name__} does not order\")\n\n"
        "    __le__ = __gt__ = __ge__ = __lt__\n",
        "",
        ("tests/test_package.py::test_records_keep_their_dataclass_semantics",),
    ),
)
