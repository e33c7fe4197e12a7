"""Arithmetic in Z[zeta_q] and prime decomposition in cyclotomic/Kummer fields.

Cyclotomic integers are coefficient vectors of length q-1 in the power basis
1, zeta, ..., zeta^(q-2); products are reduced by the q-th cyclotomic
polynomial Phi_q = 1 + x + ... + x^(q-1).  Polynomials over GF(p) are plain
coefficient lists, constant term first, trimmed, as in the usual dense
representation.

Powers in GF(p)[x]/(g) run on `_PackedRing`: a polynomial is one int with a
fixed-width bit slot per coefficient, so a product is one bignum multiply.
Inside the ring slot i holds a_i R mod p, R = 2^k (Montgomery, Math. Comp.
44, 1985), lazily in [0, 2p) as in Harvey's NTT butterflies (J. Symb.
Comput. 60, 2014), and a few bignum operations reduce every slot at once:
with p' = -1/p mod R and MK the low k bits of each slot, m = (r & MK) p' & MK
makes r + m p a multiple of R in every slot, and (r + m p) >> k is r / R mod
p, below 2p while no slot of r exceeds p R.  Only the low k bits of a slot
meet p', so a slot needs about 2k bits and no % p runs per product.  p = 2
has no odd modulus for R: there R = 1 and a slot reduces to its bit 0.
Modulo g a product reduces its 2n - 1 slots, lifts the low ones by R, folds
the high ones through the Montgomery forms of x^j mod g, and reduces again.
Where g is Phi_q itself, the ring works modulo its multiple x^q - 1 instead:
a product folds with one shift and one add before its one reduction, and
Frobenius below only permutes slots.  Its elements are representatives
modulo Phi_q, and every power below is an identity of any commutative ring
of characteristic p, so reducing the result mod Phi_q, or mod any factor of
it, gives the power modulo that factor.
`poly_pow_mod` is the general power: pow(c, e, p) for a base that is a
constant c mod g, square-and-multiply otherwise.  The character raises u to
(p^d - 1)/q modulo some h | Phi_q, or x^q - 1, where x^q = 1.  A constant u
has u^(p-1) = 1 unless p | u, so its exponent is taken mod p - 1; at d > 1, q
does not divide p - 1, so q(p - 1) | p^d - 1 and u gives 1 (or 0).  Else
Frobenius sigma(v) = v^p = v(x^(p mod q)) is a GF(p)-linear map built once
per ring (a slot permutation modulo x^q - 1), and `_PackedRing.power` runs
A_(j+1) = sigma(A_j) u^floor(p r_j / q), r_(j+1) = p r_j mod q from
A_0 = r_0 = 1 to A_d = u^((p^d - 1)/q).  Since u^floor(p r / q) =
B^r u^floor(r (p mod q) / q) with B = u^floor(p / q), that is one
log2(p)-bit power and fewer than q + d further products, where plain
square-and-multiply takes d log2(p).  A modulus whose leading coefficient
vanishes mod p raises ZeroDivisionError.

A prime of Z[zeta_q] above p, for every odd prime q, is stored as (p, g),
g a monic irreducible factor of Phi_q mod p (Kummer-Dedekind: these are all
the primes above p); an ideal is valid iff g is in `factor_cyclotomic_mod_p`.
Every factor has degree f = ord(p mod q).  At f = q - 1 the factor is Phi_q;
at f = 1 the factors are x - r^k, k = 1..q-1, for one root of unity r != 1
in GF(p); in between, Cantor-Zassenhaus splits Phi_q in the ring of x^q - 1
with trials from the subalgebra that Frobenius fixes (Berlekamp).
The q-power residue character is evaluated in the residue field
GF(p)[x]/(g), whose ring is built once per ideal (modulo x^q - 1 when g =
Phi_q).  zeta maps to x, whose powers x^k, k < q, are distinct as p != q, so
the character zeta^k is read off as the k with xs[k] equal to the power;
modulo x^q - 1 the power is x^k + c Phi_q, and slot k alone differs.
"""

from __future__ import annotations

import random
from collections import namedtuple
from enum import Enum
from functools import lru_cache

from ._record import Record
from .arith import multiplicative_order, require_prime

# only the benchmark's q list, read by bench/make_reference.py
SUPPORTED_Q = (3, 5, 7, 11, 13, 17, 19)

# Entries of each per-prime cache below: far above the 56 (p, q) pairs of a
# benchmark round, at about 5 KB per ideal (q = 19, p near 10^12)
_CACHE_SIZE = 1024


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
    return pow(g[-1], -1, p)


def poly_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    inv = _lead_inverse(g, p)
    f = [c % p for c in f]
    n = len(g) - 1
    quot = [0] * (len(f) - n)  # empty when deg f < deg g
    for d in reversed(range(len(quot))):
        c = quot[d] = f[d + n] * inv % p
        for i, gi in enumerate(g):
            f[d + i] = (f[d + i] - c * gi) % p
    return _trim(quot), _trim(f[:n])


def poly_mod(f: list[int], g: list[int], p: int) -> list[int]:
    return poly_divmod(f, g, p)[1]


def poly_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    while g:
        f, g = g, poly_mod(f, g, p)
    if f:
        inv = _lead_inverse(f, p)
        f = [c * inv % p for c in f]
    return f


class _PackedRing:
    """GF(p)[x]/(g), n = deg g >= 1, on Kronecker-packed ints (see the module
    docstring); xs[j] is the packed x^j mod g for j < max(2n - 1, q).  Given
    q, g must divide Phi_q; g = Phi_q itself is replaced by its multiple
    x^q - 1 (`wrap`), with n = q slots and xs[j] = x^j, so that an element
    is one of its representatives modulo Phi_q.  `mul`, `pow` and
    `frobenius` work on Montgomery forms, which `enter` makes from a plain
    packed polynomial (slots below p) and `leave` turns back into one."""

    def __init__(self, g: list[int], p: int, q: int = 0):
        self.wrap = len(g) == q
        n = q if self.wrap else len(g) - 1
        self.p, self.q = p, q
        # the largest unreduced slot is a product slot, q terms modulo
        # x^q - 1 and n modulo g, each at most (2p - 1)^2; the lift and fold
        # modulo g and `frobenius` stay below it.  R = 2^k is the least with
        # most <= p R, so a reduced slot (r + m p) / R is below 2p.  p = 2
        # has no odd modulus for R: there k = 0, slots hold bits, and
        # `reduce` keeps bit 0 of each.
        terms = q if self.wrap else n
        if p == 2:
            k, most, lowbits = 0, terms, 1
        else:
            most = terms * (2 * p - 1) ** 2
            k = ((most - 1) // p).bit_length()
            lowbits = (1 << k) - 1
        self.k, R = k, 1 << k
        # w holds r + m p, the low-half product (r mod R) p' below R^2, and
        # the plain sums below max(q - 1, 1) p^2 of `image` and the x^j table
        self.w = w = max(2 * k, (most + (R - 1) * p).bit_length(), (max(q - 1, 1) * p * p).bit_length())
        self.slot = (1 << w) - 1
        self.lomask = (1 << (n * w)) - 1
        self.low = range(0, n * w, w)
        # mk: the low k bits (bit 0 at p = 2) of every slot of a product,
        # folded modulo x^q - 1, unfolded modulo g; ones is sum 2^(w i)
        ones = ((1 << (n if self.wrap else 2 * n - 1) * w) - 1) // self.slot
        self.mk = ones * lowbits
        self.pinv = -pow(p, -1, R) % R  # p' = -1/p mod R
        self.one, self.r2 = R % p, R * R % p  # the Montgomery forms of 1 and R
        self.xs = xs = [1 << s for s in self.low]
        if not self.wrap:
            # x^n = -(g_0 + ... + g_(n-1) x^(n-1)) / g_n; x^(j+1) = x * x^j
            # with its slot n folded back through x^n
            inv = _lead_inverse(g, p)
            xn = self.pack([-c * inv % p for c in g[:-1]])
            while len(xs) < max(2 * n - 1, q):
                t = xs[-1] << w
                xs.append(self._mod_p((t & self.lomask) + (t >> n * w) * xn))
            self.fold = list(zip(range(n * w, (2 * n - 1) * w, w), map(self.enter, xs[n:])))
        if q:  # Frobenius sends slot i to x^(i p mod q), modulo g in Montgomery form
            frob = (xs[i * (p % q) % q] for i in range(n))
            self.frob = list(zip(self.low, frob if self.wrap else map(self.enter, frob)))

    def pack(self, coeffs) -> int:
        return sum(c << s for c, s in zip(coeffs, self.low))

    def unpack(self, x: int) -> list[int]:
        return _trim([x >> s & self.slot for s in self.low])

    def _mod_p(self, r: int) -> int:
        # one % p per slot: for plain sums and on leaving the ring, never per product
        w, slot, p = self.w, self.slot, self.p
        out = 0
        for s in reversed(self.low):
            out = out << w | (r >> s & slot) % p
        return out

    def reduce(self, r: int) -> int:
        # r / R mod p, into [0, 2p), in every slot at once: each slot of r is
        # at most p R, and m = r p' mod R makes r + m p a multiple of R there
        if not self.k:
            return r & self.mk
        m = (r & self.mk) * self.pinv & self.mk
        return (r + m * self.p) >> self.k

    def enter(self, v: int) -> int:
        return self.reduce(v * self.r2)

    def leave(self, v: int) -> int:
        return self._mod_p(self.reduce(v))

    def mul(self, a: int, b: int) -> int:
        x = a * b
        if self.wrap:  # x^q = 1: slot q + j adds onto slot j
            return self.reduce((x & self.lomask) + (x >> self.q * self.w))
        # modulo g: reduce all 2n - 1 slots, lift the low ones by R to match
        # the high ones times the Montgomery forms of x^j mod g, and reduce again
        x = self.reduce(x)
        r = (x & self.lomask) * self.one
        for s, xj in self.fold:
            r += (x >> s & self.slot) * xj
        return self.reduce(r)

    def pow(self, a: int, e: int) -> int:
        if not e:
            return self.one
        acc = a
        for bit in bin(e)[3:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, a)
        return acc

    def image(self, coeffs) -> int:
        # sum of (c mod p) x^i over the fewer than q coeffs[i]: the plain
        # image of an element of Z[zeta_q], zeta to x.  Modulo x^q - 1 each
        # slot holds one term below p, so it needs no reduction.
        xs, p = self.xs, self.p
        v = sum(c % p * xs[i] for i, c in enumerate(coeffs) if c)
        return v if self.wrap else self._mod_p(v)

    def frobenius(self, v: int) -> int:
        # v^p = v(x^(p mod q)) for v in Montgomery form; modulo x^q - 1 slots only move
        v = sum((v >> s & self.slot) * x for s, x in self.frob)
        return v if self.wrap else self.reduce(v)

    def exponent(self, v: int) -> int:
        """The k < q with v = x^k modulo g, v plain.  Modulo x^q - 1, v is
        x^k + c Phi_q: every slot holds c but slot k, which holds c + 1 mod p."""
        if not self.wrap:
            return self.xs.index(v)
        slots = [v >> s & self.slot for s in self.low]
        c = sorted(slots[:3])[1]  # q >= 3, and at most one of them is not c
        return next(k for k, x in enumerate(slots) if x != c)

    def power(self, a: int, d: int) -> int:
        """a^((p^d - 1)/q) for a plain image a, g | Phi_q and q | p^d - 1, by
        the Frobenius recurrence of the module docstring; plain too."""
        p, q = self.p, self.q
        if a < p:  # a constant: by Fermat, with 0^(p-1) = 0 where p - 1 | e
            return pow(a, (p**d - 1) // q % (p - 1) or p - 1, p)
        a = self.enter(a)
        rs = [pow(p, j, q) for j in range(d)]
        # F[r] = a^floor(p r / q): F[r-1] * F[1], times a when floor(r (p mod q) / q) steps
        b = self.pow(a, p // q)
        ab, pq = self.mul(a, b), p % q
        F = [self.one, b]
        for r in range(2, max(rs) + 1):
            F.append(self.mul(F[-1], ab if r * pq // q > (r - 1) * pq // q else b))
        acc = b
        for r in rs[1:]:
            acc = self.mul(self.frobenius(acc), F[r])
        return self.leave(acc)


def poly_pow_mod(f: list[int], e: int, g: list[int], p: int) -> list[int]:
    """f^e mod g over GF(p), for e >= 0."""
    if e < 0:
        raise ValueError("negative exponent")
    f = poly_mod(f, g, p)
    if len(f) <= 1:
        c = pow(f[0] if f else 0, e, p)
        return [c] if c else []
    ring = _PackedRing(g, p)
    return ring.unpack(ring.leave(ring.pow(ring.enter(ring.pack(f)), e)))


@lru_cache(maxsize=64)
def _check_order(q: int) -> int:
    # the one test of q, once per distinct q; a bad q raises, so is never cached
    return require_prime(q, odd=True, name="q")


def cyclotomic_polynomial(q: int) -> list[int]:
    """Phi_q = 1 + x + ... + x^(q-1) for odd prime q."""
    return [1] * _check_order(q)


@lru_cache(maxsize=_CACHE_SIZE)
def factor_cyclotomic_mod_p(q: int, p: int) -> tuple[tuple[int, ...], ...]:
    """All monic irreducible factors of Phi_q mod p, sorted by coefficient
    sequence (constant term first).  Requires p != q.

    Every factor has degree f = ord(p mod q) and there are (q-1)/f of them.
    """
    phi = cyclotomic_polynomial(q)  # validates q
    require_prime(p)
    if p == q:
        raise RamifiedPrimeError(f"p = q = {p} is ramified in Z[zeta_{q}]")
    f = multiplicative_order(p, q)
    if f == q - 1:  # Phi_q itself is irreducible
        return (tuple(phi),)
    if f == 1:  # q | p - 1: r != 1 below has order q; its other powers are the roots
        u = 2
        while (r := pow(u, (p - 1) // q, p)) == 1:
            u += 1
        return tuple(sorted((-pow(r, k, p) % p, 1) for k in range(1, q)))
    # Cantor-Zassenhaus in Berlekamp's subalgebra.  Modulo x^q - 1, Frobenius
    # v -> v(x^p) only permutes monomials, so it fixes each orbit sum s_k, the
    # sum of the distinct x^(k p^j mod q), j < f: s_0 = 1 and one s_k per
    # coset of <p> in (Z/q)*.  Each is a constant mod every factor h of Phi_q,
    # so a random combination u of them takes independent uniform values in
    # GF(p) on the factors, and t = u^((p-1)/2) - 1 (u - 1 at p = 2) separates
    # two with probability about 1/2.  t is taken once modulo x^q - 1, a
    # multiple of every h, and gcd(h, t), the same for every lift of t mod h,
    # splits each h it separates.
    ring = _PackedRing(phi, p, q)
    orbits = ({k * p**j % q for j in range(f)} for k in range(q))
    sums = list(dict.fromkeys(sum(ring.xs[i] for i in o) for o in orbits))
    rng = random.Random(p)
    factors = [phi]
    while len(factors) < (q - 1) // f:
        # the orbits are disjoint, so each slot of u holds one draw below p
        u = sum(rng.randrange(p) * s for s in sums)
        # minus 1 in Montgomery form: slot 0 stays below p^2 + 2p <= p R
        t = ring.unpack(ring.leave(ring.pow(ring.enter(u), (p - 1) // 2 or 1) + (p - 1) * ring.one))
        pieces = []
        for h in factors:
            w = poly_gcd(h, t, p) if len(h) - 1 > f else h  # degree f: irreducible
            pieces += [w, poly_divmod(h, w, p)[0]] if 0 < len(w) - 1 < len(h) - 1 else [h]
        factors = pieces
    return tuple(sorted(tuple(g) for g in factors))


# ---------------------------------------------------------------------------
# cyclotomic integers
# ---------------------------------------------------------------------------


class CyclotomicInt(Record, namedtuple("CyclotomicInt", "q coeffs")):
    """Element of Z[zeta_q] with coordinates, a tuple of q - 1 ints, in the
    basis 1, zeta, ..., zeta^(q-2)."""

    __slots__ = ()

    def __new__(cls, q: int, coeffs: tuple[int, ...]):
        _check_order(q)
        if len(coeffs) != q - 1:
            raise ValueError(f"need {q - 1} coefficients, got {len(coeffs)}")
        return super().__new__(cls, q, coeffs)

    @classmethod
    def from_int(cls, q: int, n: int) -> "CyclotomicInt":
        return cls(q, (n,) + (0,) * (q - 2))

    @classmethod
    def zeta(cls, q: int, power: int = 1) -> "CyclotomicInt":
        return cyclo_reduce(q, [0] * (power % q) + [1])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        _check_same_q(self, other)
        return CyclotomicInt(self.q, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.q, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        return self + -other

    def __mul__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        _check_same_q(self, other)
        prod = [0] * (2 * self.q - 3)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    prod[i + j] += x * y
        return cyclo_reduce(self.q, prod)


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


# ---------------------------------------------------------------------------
# decomposition of rational primes
# ---------------------------------------------------------------------------


class DecompositionType(Record, namedtuple("DecompositionType", "e f g")):
    """Ramification index, residual degree, number of primes; e*f*g equals
    the degree of the extension being described."""

    __slots__ = ()


def cyclotomic_decomposition(p: int, l: int) -> DecompositionType:
    """Shape of p*Z[zeta_l] for primes p != l: unramified with residual
    degree ord(p mod l), hence (l-1)/f primes."""
    require_prime(p)
    require_prime(l, name="l")
    if p == l:
        raise RamifiedPrimeError(f"p = l = {p} ramifies in Z[zeta_{l}]")
    f = multiplicative_order(p, l)
    return DecompositionType(e=1, f=f, g=(l - 1) // f)


class PrimeIdealRep(Record, namedtuple("PrimeIdealRep", "p q g")):
    """Prime ideal (p, g(zeta)) of Z[zeta_q]; g irreducible mod p of degree
    ord(p mod q), a tuple stored constant term first."""

    __slots__ = ()

    @property
    def residue_degree(self) -> int:
        return len(self.g) - 1

    @property
    def residue_size(self) -> int:
        return self.p**self.residue_degree


def find_prime_ideal(p: int, q: int) -> PrimeIdealRep:
    """The prime above p whose factor polynomial is lexicographically
    smallest among the monic irreducible factors of Phi_q mod p."""
    return PrimeIdealRep(p=p, q=q, g=factor_cyclotomic_mod_p(q, p)[0])


# ---------------------------------------------------------------------------
# q-power residue character and Kummer splitting
# ---------------------------------------------------------------------------


class PowerCharValue(Record, namedtuple("PowerCharValue", "q k")):
    """Value of the q-power residue character: zero (k None), or zeta^k."""

    __slots__ = ()

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


@lru_cache(maxsize=_CACHE_SIZE)
def _residue_ring(ideal: PrimeIdealRep) -> _PackedRing:
    if ideal.g not in factor_cyclotomic_mod_p(ideal.q, ideal.p):
        raise ValueError(f"{ideal}: g is not a factor of Phi_q mod p")
    return _PackedRing(list(ideal.g), ideal.p, ideal.q)


def power_residue_character(alpha, ideal: PrimeIdealRep) -> PowerCharValue:
    """Character (alpha / P)_q: zero when alpha lies in P, otherwise the
    unique q-th root of unity congruent to alpha^((|F|-1)/q) in the residue
    field F."""
    ring = _residue_ring(ideal)
    if isinstance(alpha, CyclotomicInt):
        if alpha.q != ideal.q:
            raise ValueError(f"element lives in Z[zeta_{alpha.q}], ideal over q={ideal.q}")
        coeffs = alpha.coeffs
    elif isinstance(alpha, int):
        coeffs = (alpha,)
    else:
        raise TypeError(f"expected int or CyclotomicInt, got {type(alpha).__name__}")
    # zeta maps to the class of x.  Modulo x^q - 1 the image leaves slot
    # q - 1 empty, so it is a multiple of Phi_q only when it is 0.
    a = ring.image(coeffs)
    if not a:
        return PowerCharValue.zero(ideal.q)
    value = ring.power(a, ideal.residue_degree)
    return PowerCharValue.root(ideal.q, ring.exponent(value))


class SplittingClass(Enum):
    RAMIFIED = "ramified"
    INERT = "inert"
    SPLIT = "split"


def kummer_splitting(alpha, p: int, q: int) -> SplittingClass:
    """Behaviour of the prime of Z[zeta_q] above p in the ring of integers of
    the Kummer extension generated by a q-th root of alpha: q-th power of a
    prime (character 0), inert (character a nontrivial root of unity), or
    split into q distinct primes (character 1)."""
    if alpha == 0 or isinstance(alpha, CyclotomicInt) and alpha.is_zero():
        raise ValueError("alpha must be nonzero")
    chi = power_residue_character(alpha, find_prime_ideal(p, q))
    if chi.is_zero:
        return SplittingClass.RAMIFIED
    if chi.is_trivial:
        return SplittingClass.SPLIT
    return SplittingClass.INERT
