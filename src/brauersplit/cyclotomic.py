"""Arithmetic in Z[zeta_q] and prime decomposition in cyclotomic/Kummer fields.

Cyclotomic integers are coefficient vectors of length q-1 in the power basis
1, zeta, ..., zeta^(q-2); products are reduced by the q-th cyclotomic
polynomial Phi_q = 1 + x + ... + x^(q-1).  Polynomials over GF(p) are plain
coefficient lists, constant term first, trimmed, as in the usual dense
representation.

Powers in GF(p)[x]/(g) (`poly_pow_mod`) serve the character and the
Cantor-Zassenhaus splitting.  A base that reduces to a constant c mod g is
raised by pow(c, e, p); this is every rational integer alpha, and every
residue field of degree 1.  Other bases are raised by square-and-multiply on
Kronecker-packed integers (one coefficient per fixed-width bit slot), so
each product is a single bignum multiply; reduction mod g folds the high
slots back through a table of x^j mod g and then takes one % p per slot.  A
modulus whose leading coefficient vanishes mod p raises ZeroDivisionError.

A prime ideal of Z[zeta_q] above p is stored as (p, g) with g a monic
irreducible factor of Phi_q mod p; the residue field GF(p)[x]/(g) is where
the q-power residue character is evaluated.  The ideal machinery is limited
to q in {3, 5, 7, 11, 13, 17, 19}, where Z[zeta_q] is a principal ideal
domain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .arith import multiplicative_order, require_prime

SUPPORTED_Q = (3, 5, 7, 11, 13, 17, 19)


class RamifiedPrimeError(ValueError):
    """Raised when p = q: the ramified case sits outside the supported
    decomposition theory."""


# ---------------------------------------------------------------------------
# dense polynomials over GF(p), coefficient lists with constant term first
# ---------------------------------------------------------------------------


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_mul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    return _trim(out)


def _lead_inverse(g: list[int], p: int) -> int:
    # a modulus whose leading coefficient vanishes mod p is degenerate:
    # division by it could never lower the degree
    if not g or g[-1] % p == 0:
        raise ZeroDivisionError("polynomial division by zero")
    return pow(g[-1], p - 2, p)


def poly_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    inv = _lead_inverse(g, p)
    if len(f) < len(g):
        return [], _trim([c % p for c in f])
    f = f[:]
    q = [0] * (len(f) - len(g) + 1)
    while len(f) >= len(g):
        c = f[-1] * inv % p
        d = len(f) - len(g)
        q[d] = c
        for i, gi in enumerate(g):
            f[d + i] = (f[d + i] - c * gi) % p
        _trim(f)
    if d:
        # the degree fell past the step that reduces the constant term,
        # so f[:d] still holds raw coefficients
        f[:d] = [c % p for c in f[:d]]
        _trim(f)
    return _trim(q), f


def poly_mod(f: list[int], g: list[int], p: int) -> list[int]:
    return poly_divmod(f, g, p)[1]


def poly_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    while g:
        f, g = g, poly_mod(f, g, p)
    if f:
        inv = pow(f[-1], p - 2, p)
        f = [c * inv % p for c in f]
    return f


def poly_pow_mod(f: list[int], e: int, g: list[int], p: int) -> list[int]:
    """f^e mod g over GF(p), for e >= 0.

    A base that reduces to a constant c gives pow(c, e, p) at once.
    Otherwise square-and-multiply runs on Kronecker-packed integers: each
    polynomial is one int with a w-bit slot per coefficient, so a product
    is one bignum multiply.  Reduction adds the high slots times the packed
    x^j mod g, j = n..2n-2, then takes one % p per slot.  w holds every
    unreduced slot, which stays below n^2 (p-1)^3 for n = deg g.
    """
    if e < 0:
        raise ValueError("negative exponent")
    f = poly_mod(f, g, p)
    if len(f) <= 1:
        c = pow(f[0] if f else 0, e, p)
        return [c] if c else []
    if e == 0:
        return [1]
    n = len(g) - 1
    w = (n * n * (p - 1) ** 3).bit_length()
    slot = (1 << w) - 1
    lomask = (1 << (n * w)) - 1
    low = range(0, n * w, w)
    top_down = low[::-1]

    def pack(coeffs):
        return sum(c << s for c, s in zip(coeffs, low))

    # (offset of slot j, packed x^j mod g) for j = n..2n-2, from
    # x^n = sum(xn[i] x^i) and x^(j+1) = x * x^j folded the same way
    inv = _lead_inverse(g, p)
    xn = [-c * inv % p for c in g[:-1]]
    fold = []
    t = xn
    for s in range(n * w, (2 * n - 1) * w, w):
        fold.append((s, pack(t)))
        t = [(a + t[-1] * b) % p for a, b in zip([0] + t[:-1], xn)]

    def mod_g(x):
        r = x & lomask
        for s, xj in fold:
            r += (x >> s & slot) * xj
        out = 0
        for s in top_down:
            out = out << w | (r >> s & slot) % p
        return out

    base = acc = pack(f)
    for bit in bin(e)[3:]:
        acc = mod_g(acc * acc)
        if bit == "1":
            acc = mod_g(acc * base)
    return _trim([acc >> s & slot for s in low])


def cyclotomic_polynomial(q: int) -> list[int]:
    """Phi_q = 1 + x + ... + x^(q-1) for prime q."""
    require_prime(q)
    return [1] * q


def _poly_from_index(n: int, p: int) -> list[int]:
    # n-th polynomial over GF(p): coefficients are the base-p digits of n.
    # Enumerating n = 0, 1, 2, ... walks through every polynomial exactly once.
    digits = []
    while n:
        n, r = divmod(n, p)
        digits.append(r)
    return digits


def _split_equal_degree(h: list[int], d: int, p: int) -> list[list[int]]:
    # h is squarefree with all irreducible factors of degree d.
    # Cantor-Zassenhaus, derandomized: trial elements are enumerated in a
    # fixed order, so the factor list is reproducible.  Some trial always
    # separates two factors (choose it by CRT), hence termination.
    if len(h) - 1 == d:
        return [h]
    e = (p**d - 1) // 2
    for n in itertools.count(p):  # skip constants, they never separate
        u = poly_mod(_poly_from_index(n, p), h, p)
        if p == 2:
            # trace map of GF(2^d) over GF(2), evaluated factorwise
            t: list[int] = []
            v = u
            for _ in range(d):
                t = _trim([(x + y) % p for x, y in itertools.zip_longest(t, v, fillvalue=0)])
                v = poly_mod(poly_mul(v, v, p), h, p)
        else:
            t = poly_pow_mod(u, e, h, p)
            t = _trim([(t[0] - 1) % p] + t[1:]) if t else [p - 1]
        w = poly_gcd(h, t, p)
        if 0 < len(w) - 1 < len(h) - 1:
            break
    rest = poly_divmod(h, w, p)[0]
    return _split_equal_degree(w, d, p) + _split_equal_degree(rest, d, p)


@lru_cache(maxsize=None)
def factor_cyclotomic_mod_p(q: int, p: int) -> tuple[tuple[int, ...], ...]:
    """All monic irreducible factors of Phi_q mod p, sorted by coefficient
    sequence (constant term first).  Requires p != q.

    Every factor has degree f = ord(p mod q) and there are (q-1)/f of them.
    """
    require_prime(q)
    require_prime(p)
    if p == q:
        raise RamifiedPrimeError(f"p = q = {p} is ramified in Z[zeta_{q}]")
    phi = [c % p for c in cyclotomic_polynomial(q)]
    f = multiplicative_order(p, q)
    factors = _split_equal_degree(_trim(phi), f, p)
    return tuple(sorted(tuple(g) for g in factors))


# ---------------------------------------------------------------------------
# cyclotomic integers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclotomicInt:
    """Element of Z[zeta_q] with coordinates in the basis 1, zeta, ...,
    zeta^(q-2)."""

    q: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        require_prime(self.q, odd=True)
        if len(self.coeffs) != self.q - 1:
            raise ValueError(f"need {self.q - 1} coefficients, got {len(self.coeffs)}")

    @classmethod
    def from_int(cls, q: int, n: int) -> "CyclotomicInt":
        return cls(q, (n,) + (0,) * (q - 2))

    @classmethod
    def zeta(cls, q: int, power: int = 1) -> "CyclotomicInt":
        return cyclo_reduce(q, [0] * (power % q) + [1])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        return cyclo_add(self, other)

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.q, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        return cyclo_add(self, -other)

    def __mul__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        return cyclo_mul(self, other)


def cyclo_reduce(q: int, coeffs) -> CyclotomicInt:
    """Reduce an arbitrary coefficient vector in powers of zeta modulo
    Phi_q: fold exponents mod q (zeta^q = 1), then eliminate zeta^(q-1)
    through zeta^(q-1) = -1 - zeta - ... - zeta^(q-2)."""
    folded = [0] * q
    for i, c in enumerate(coeffs):
        folded[i % q] += c
    top = folded[q - 1]
    return CyclotomicInt(q, tuple(folded[i] - top for i in range(q - 1)))


def _check_same_q(a: CyclotomicInt, b: CyclotomicInt) -> None:
    if a.q != b.q:
        raise ValueError(f"mixed cyclotomic orders {a.q} and {b.q}")


def cyclo_add(a: CyclotomicInt, b: CyclotomicInt) -> CyclotomicInt:
    _check_same_q(a, b)
    return CyclotomicInt(a.q, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def cyclo_mul(a: CyclotomicInt, b: CyclotomicInt) -> CyclotomicInt:
    _check_same_q(a, b)
    prod = [0] * (2 * a.q - 3)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                prod[i + j] += x * y
    return cyclo_reduce(a.q, prod)


# ---------------------------------------------------------------------------
# decomposition of rational primes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionType:
    """Ramification index, residual degree, number of primes; e*f*g equals
    the degree of the extension being described."""

    e: int
    f: int
    g: int


def cyclotomic_decomposition(p: int, l: int) -> DecompositionType:
    """Shape of p*Z[zeta_l] for primes p != l: unramified with residual
    degree ord(p mod l), hence (l-1)/f primes."""
    require_prime(p)
    require_prime(l)
    if p == l:
        raise RamifiedPrimeError(f"p = l = {p} ramifies in Z[zeta_{l}]")
    f = multiplicative_order(p, l)
    return DecompositionType(e=1, f=f, g=(l - 1) // f)


@dataclass(frozen=True)
class PrimeIdealRep:
    """Prime ideal (p, g(zeta)) of Z[zeta_q]; g irreducible mod p of degree
    ord(p mod q), stored constant term first."""

    p: int
    q: int
    g: tuple[int, ...]

    @property
    def residue_degree(self) -> int:
        return len(self.g) - 1

    @property
    def residue_size(self) -> int:
        return self.p**self.residue_degree


def find_prime_ideal(p: int, q: int) -> PrimeIdealRep:
    """The prime above p whose factor polynomial is lexicographically
    smallest among the monic irreducible factors of Phi_q mod p."""
    if q not in SUPPORTED_Q:
        raise ValueError(f"q={q} unsupported; expected one of {SUPPORTED_Q}")
    factors = factor_cyclotomic_mod_p(q, p)
    return PrimeIdealRep(p=p, q=q, g=factors[0])


# ---------------------------------------------------------------------------
# q-power residue character and Kummer splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerCharValue:
    """Value of the q-power residue character: zero, or zeta^k."""

    q: int
    k: int | None  # None encodes the zero value

    @classmethod
    def zero(cls, q: int) -> "PowerCharValue":
        return cls(q, None)

    @classmethod
    def root(cls, q: int, k: int) -> "PowerCharValue":
        return cls(q, k % q)

    @property
    def is_zero(self) -> bool:
        return self.k is None

    @property
    def is_trivial(self) -> bool:
        return self.k == 0

    def __mul__(self, other: "PowerCharValue") -> "PowerCharValue":
        if self.q != other.q:
            raise ValueError("mixed character orders")
        if self.is_zero or other.is_zero:
            return PowerCharValue.zero(self.q)
        return PowerCharValue.root(self.q, self.k + other.k)


def _residue_image(alpha, ideal: PrimeIdealRep) -> list[int]:
    # image of alpha in GF(p)[x]/(g), zeta mapping to the class of x
    p = ideal.p
    if isinstance(alpha, CyclotomicInt):
        if alpha.q != ideal.q:
            raise ValueError(f"element lives in Z[zeta_{alpha.q}], ideal over q={ideal.q}")
        f = _trim([c % p for c in alpha.coeffs])
    elif isinstance(alpha, int):
        f = _trim([alpha % p])
    else:
        raise TypeError(f"expected int or CyclotomicInt, got {type(alpha).__name__}")
    return poly_mod(f, list(ideal.g), p)


@lru_cache(maxsize=None)
def _check_ideal(ideal: PrimeIdealRep) -> None:
    # a monic divisor of Phi_q mod p of degree ord(p mod q) is automatically
    # irreducible, so these checks pin down well-formedness completely
    require_prime(ideal.p)
    require_prime(ideal.q, odd=True)
    g = list(ideal.g)
    if not g or g[-1] != 1 or not (1 <= ideal.residue_degree <= ideal.q - 1):
        raise ValueError(f"malformed ideal factor {ideal.g}")
    if ideal.residue_degree != multiplicative_order(ideal.p, ideal.q):
        raise ValueError(f"factor degree {ideal.residue_degree} is not ord(p mod q)")
    phi = [c % ideal.p for c in cyclotomic_polynomial(ideal.q)]
    if poly_divmod(phi, g, ideal.p)[1]:
        raise ValueError(f"{ideal.g} does not divide the cyclotomic polynomial mod {ideal.p}")


def power_residue_character(alpha, ideal: PrimeIdealRep) -> PowerCharValue:
    """Character (alpha / P)_q: zero when alpha lies in P, otherwise the
    unique q-th root of unity congruent to alpha^((|F|-1)/q) in the residue
    field F."""
    _check_ideal(ideal)
    q, p = ideal.q, ideal.p
    a = _residue_image(alpha, ideal)
    if not a:
        return PowerCharValue.zero(q)
    g = list(ideal.g)
    value = poly_pow_mod(a, (ideal.residue_size - 1) // q, g, p)
    zeta_img = poly_mod([0, 1], g, p)
    t = [1]
    for k in range(q):
        if t == value:
            return PowerCharValue.root(q, k)
        t = poly_mod(poly_mul(t, zeta_img, p), g, p)
    raise AssertionError("character value escaped the group of q-th roots of unity")


class SplittingClass(Enum):
    RAMIFIED = "ramified"
    INERT = "inert"
    SPLIT = "split"


def kummer_splitting(alpha, p: int, q: int) -> SplittingClass:
    """Behaviour of the prime of Z[zeta_q] above p in the ring of integers of
    the Kummer extension generated by a q-th root of alpha: q-th power of a
    prime (character 0), inert (character a nontrivial root of unity), or
    split into q distinct primes (character 1)."""
    if isinstance(alpha, int):
        if alpha == 0:
            raise ValueError("alpha must be nonzero")
    elif isinstance(alpha, CyclotomicInt):
        if alpha.is_zero():
            raise ValueError("alpha must be nonzero")
    chi = power_residue_character(alpha, find_prime_ideal(p, q))
    if chi.is_zero:
        return SplittingClass.RAMIFIED
    if chi.is_trivial:
        return SplittingClass.SPLIT
    return SplittingClass.INERT
