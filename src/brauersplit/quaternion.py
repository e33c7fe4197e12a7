"""Splitting of rational quaternion algebras and the x^2 + n*y^2 criteria.

A quaternion algebra over Q determined by nonzero integers (a, b) is split
exactly when the conic a*x^2 + b*y^2 = z^2 has points everywhere locally,
which the Hilbert symbol product detects; otherwise it is a division algebra.
For n in the eleven-entry table below, an odd prime q in the listed residue
classes (or equal to the listed special prime) makes the algebra (-n, q)
split.  For the ten idoneal n the classes are exact: q is a sum x^2 + n*y^2
iff it falls in them.  For n = 14 the class number of discriminant -56 is 4,
and the printed classes describe only the principal genus
{x^2 + 14*y^2, 2*x^2 + 7*y^2}; `representation_criterion` is the exact test
for every n.  `verify_equivalence` sweeps a prime range and checks split,
printed classes and representation against each other in one streaming pass,
with memory flat in the bound: split (by Hilbert reciprocity) and congruence
are read once per class mod 8n from the residue, and representability from
the values of x^2 + n*y^2 marked per segment of the sieve.  Each segment is
folded as integer bit lanes over its odd numbers, with Python work per
reported prime only.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from math import isqrt

from ._record import Record
from .arith import _odd_prime_segments, factorize, legendre_symbol, require_prime, sqrt_mod
from .padic import _local_symbol, hilbert_product

# n values whose converse (split implies congruence) is established; for the
# remaining n the sweep reports converse failures informationally.
CONVERSE_PROVEN = frozenset({3, 5, 7, 13})


class QuaternionAlgebra(Record, namedtuple("QuaternionAlgebra", "a b")):
    """The algebra with generators squaring to a and b and anticommuting."""

    __slots__ = ()

    def __new__(cls, a: int, b: int):
        if a == 0 or b == 0:
            raise ValueError("quaternion algebra needs nonzero parameters")
        return super().__new__(cls, a, b)


class RepresentationCriterion(Record, namedtuple("RepresentationCriterion", "n modulus classes special_primes")):
    """Residue classes mod `modulus` (and special primes, if any), two
    frozensets, printed for q = x^2 + n*y^2, q an odd prime.

    Exact for the ten idoneal n.  For n = 14 they cut out the genus of
    x^2 + 14*y^2, which also holds 2*x^2 + 7*y^2; `representation_criterion`
    decides that case exactly.
    """

    __slots__ = ()

    def admits(self, q: int) -> bool:
        return q in self.special_primes or q % self.modulus in self.classes


def _criterion(n, modulus, classes, special=()):
    return RepresentationCriterion(n, modulus, frozenset(classes), frozenset(special))


CRITERIA: dict[int, RepresentationCriterion] = {
    c.n: c
    for c in (
        _criterion(3, 3, {1}, {3}),
        _criterion(5, 20, {1, 9}, {5}),
        _criterion(6, 24, {1, 7}),
        _criterion(7, 7, {1, 2, 4}, {7}),
        _criterion(10, 40, {1, 9, 11, 19}),
        _criterion(13, 52, {1, 9, 17, 25, 29, 49}, {13}),
        _criterion(14, 56, {1, 9, 15, 23, 25, 39}),
        _criterion(15, 60, {1, 19, 31, 49}),
        _criterion(21, 84, {1, 25, 37}),
        _criterion(22, 88, {1, 9, 15, 23, 25, 31, 47, 49, 71, 81}),
        _criterion(30, 120, {1, 31, 49, 79}),
    )
}

SUPPORTED_N = tuple(sorted(CRITERIA))


class Representation(Record, namedtuple("Representation", "x y")):
    """Nonnegative solution of x^2 + n*y^2 = q."""

    __slots__ = ()


def is_split_quaternion_Q(algebra: QuaternionAlgebra) -> bool:
    """True iff the algebra is split over Q (else it is a division algebra).

    Decided purely from the local symbols: split iff every Hilbert symbol of
    (a, b) equals +1.
    """
    return all(v == 1 for v in hilbert_product(algebra.a, algebra.b).values())


def congruence_criterion(n: int, q: int) -> bool:
    """True iff the odd prime q sits in the residue classes (or special
    primes) attached to n."""
    crit = CRITERIA.get(n)
    if crit is None:
        raise ValueError(f"n={n} unsupported; expected one of {SUPPORTED_N}")
    require_prime(q, odd=True, name="q")
    return crit.admits(q)


def representation_criterion(n: int, q: int) -> bool:
    """True iff the odd prime q is x^2 + n*y^2, decided without a search.

    For the ten idoneal n this is `congruence_criterion`.  For n = 14,
    q = x^2 + 14*y^2 iff (-14/q) = 1 and (x^2 + 1)^2 = 8 has a solution
    mod q (Cox, *Primes of the Form x^2 + ny^2*, Section 5, the n = 14
    example).  The quartic's root is decided by two square roots mod q:
    8 = s^2, and s - 1 is a square.  Either root s serves, because
    (s - 1)(-s - 1) = -7 is a square whenever -14 and 2 are.
    """
    if n != 14:
        return congruence_criterion(n, q)
    # legendre_symbol rejects a q that is not an odd prime
    if legendre_symbol(-14, q) != 1:
        return False
    s = sqrt_mod(8, q)
    return s is not None and sqrt_mod(s - 1, q) is not None


def represent(n: int, q: int) -> Representation | None:
    """Representation q = x^2 + n*y^2 with x, y >= 0 for the prime q, or None.

    Cornacchia's algorithm (Cohen, *A Course in Computational Algebraic
    Number Theory*, Alg. 1.5.2): take r with r^2 == -n (mod q) by
    Tonelli-Shanks and run Euclid on (q, r) until the remainder drops below
    sqrt(q); that remainder is the only candidate for x.  A prime has at most
    one such representation up to order and sign.  For n = 1 the remainder
    after x is y (Brillhart, 1972), so x > y: the solution with the smaller y,
    as the contract asks.  O(log q) steps instead of a scan over y.  Neither
    q = 2 nor a prime q | n needs a case of its own: r is 1 or 0, Euclid
    stops at once, and q | n gives (0, 1) for q = n and None otherwise.
    """
    if n < 1:
        raise ValueError("n must be positive")
    require_prime(q, name="q")
    r = sqrt_mod(-n, q)
    if r is None:
        return None
    a, b = q, r
    bound = isqrt(q)
    while b > bound:
        a, b = b, a % b
    c, rem = divmod(q - b * b, n)
    y = isqrt(c)
    if rem or y * y != c:
        return None
    return Representation(b, y)


def split_over_odd_degree_field(degree: int, algebra: QuaternionAlgebra) -> bool:
    """Splitting over any number field of odd degree reduces to splitting
    over Q itself."""
    if degree < 1 or degree % 2 == 0:
        raise ValueError("only odd extension degrees are supported")
    return is_split_quaternion_Q(algebra)


class EquivalenceReport(Record, namedtuple("EquivalenceReport", (
        "n bound primes_checked split_count congruence_count representation_count disagreements"
        " representation_iff_congruence congruence_implies_split split_implies_congruence"
        " converse_required converse_failures"))):
    """Sweep outcome for one n: counts, disagreement primes (tuples),
    verdicts."""

    __slots__ = ()

    @property
    def mandated_ok(self) -> bool:
        """All implications the sweep is required to validate hold."""
        ok = self.representation_iff_congruence and self.congruence_implies_split
        if self.converse_required:
            ok = ok and self.split_implies_congruence
        return ok

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "disagreements": list(self.disagreements),
            "converse_failures": list(self.converse_failures),
            "mandated_ok": self.mandated_ok,
        }


def _represented(n: int, start: int, count: int, halves: list[int]) -> bytearray:
    # 1 at i iff start + 2*i is x^2 + n*y^2 with x >= 0, y >= 1 (start odd);
    # halves holds x^2 // 2 for x up to isqrt(start + 2*count - 2).  A prime
    # is x^2 + n*y^2 only with y >= 1, and q = n only as 0^2 + n*1^2, as in
    # `represent`.  An odd value's index is x^2 // 2 + (n*y^2 - start + 1) // 2
    # for either parity of x, so one offset serves each y.
    marks = bytearray(count)
    hi = start + 2 * count - 1  # one past the last odd number of the window
    y = 1
    while (ny2 := n * y * y) < hi:
        x = isqrt(start - ny2 - 1) + 1 if start > ny2 else 0
        x += (x + ny2 + 1) % 2  # x^2 + ny2 odd
        offset = (ny2 - start + 1) // 2
        for half in halves[x : isqrt(hi - 1 - ny2) + 1 : 2]:
            marks[half + offset] = 1
        y += 1
    return marks


@cache
def _class_codes(n: int) -> bytes:
    """4*split + 2*congruence of the odd primes q == c (mod 8n), at index
    c // 2 for each of the 4n odd residues c."""
    # The places of (-n, q) are inf, 2, the odd p | n and q.  The symbol at inf
    # is +1 (q > 0).  At 2 its exponent reads q mod 8, and at an odd p | n with
    # p not dividing q it is (q/p)^(v_p(n)), so q mod 8n decides both and they
    # are read from c.  By Hilbert reciprocity all symbols multiply to +1, so
    # for q not dividing 2n the class entry is the verdict.  A prime q | n is a
    # place and alone in its class.
    # Every CRITERIA modulus divides 8n and every special prime divides n, so
    # the congruence is read from c too.
    places = sorted(factorize(n).keys() | {2})
    admits = CRITERIA[n].admits
    return bytes(
        4 * all(_local_symbol(-n, c, p) == 1 for p in places) + 2 * admits(c)
        for c in range(1, 8 * n, 2))


def _segment_codes(n: int, bound: int, size: int):
    """Yield (start, count, p, s, c, r) for the odd numbers up to bound, size
    numbers at a time: four integer bit lanes whose byte i is 1 if start + 2*i
    is prime (p), and also split (s), in the printed classes (c) or
    representable (r), else 0.

    Each segment is three byte arrays over its odd numbers, the prime flags,
    the class codes and the representation marks, read as integers.  The
    class bytes are 4*split + 2*congruence, so a shift and an AND with p
    leave one lane each, and every lane is 0 at a composite."""
    odd = _class_codes(n)
    halves = [x * x // 2 for x in range(isqrt(bound) + 1)]
    for start, flags in _odd_prime_segments(bound, size):
        count = len(flags)
        first = start % (8 * n) // 2  # the index of start's class in odd
        classes = (odd * (count // (4 * n) + 2))[first : first + count]
        marks = _represented(n, start, count, halves)  # reads nothing of the table
        p, classes, marks = (int.from_bytes(b, "little") for b in (flags, classes, marks))
        yield start, count, p, classes >> 2 & p, classes >> 1 & p, marks & p


def _hits(start: int, lane: int, count: int):
    # the odd numbers start + 2*i at the bytes i of the lane that are 1
    data = lane.to_bytes(count, "little")
    i = -1
    while (i := data.find(1, i + 1)) >= 0:
        yield start + 2 * i


def verify_equivalence(n: int, bound: int) -> EquivalenceReport:
    """Check split / congruence / representation against each other for every
    odd prime q <= bound.

    One pass over the primes in runs of 2^15 odd numbers; no list of primes
    or rows is kept, so memory beyond the reported primes is O(sqrt(bound))
    plus one segment.  The counts are bit counts of the lanes, and a lane of
    hits is turned into bytes and searched only when it is nonzero."""
    if n not in CRITERIA:
        raise ValueError(f"n={n} unsupported; expected one of {SUPPORTED_N}")
    if bound < 3:
        raise ValueError("bound must be at least 3")
    primes = splits = congruences = representations = 0
    unequal = unsplit = 0  # OR over the segments of r ^ c and of c & ~s
    disagreements: list[int] = []
    converse_failures: list[int] = []
    for start, count, p, s, c, r in _segment_codes(n, bound, 1 << 15):
        primes += p.bit_count()
        splits += s.bit_count()
        congruences += c.bit_count()
        representations += r.bit_count()
        # (s ^ c) & c is c & ~s, and (s ^ c) & s is s & ~c
        unequal |= (rc := r ^ c)
        unsplit |= (sc := s ^ c) & c
        if lane := rc | sc:
            disagreements += _hits(start, lane, count)
        if lane := sc & s:
            converse_failures += _hits(start, lane, count)
    return EquivalenceReport(
        n=n,
        bound=bound,
        primes_checked=primes,
        split_count=splits,
        congruence_count=congruences,
        representation_count=representations,
        disagreements=tuple(disagreements),
        representation_iff_congruence=not unequal,
        congruence_implies_split=not unsplit,
        split_implies_congruence=not converse_failures,
        converse_required=n in CONVERSE_PROVEN,
        converse_failures=tuple(converse_failures),
    )
