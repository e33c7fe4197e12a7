"""Hilbert symbols at every place of Q, plus two independent solvability oracles.

The symbol (a, b / v) is +1 iff a*x^2 + b*y^2 = z^2 has a nontrivial solution
over the completion of Q at the place v, and -1 otherwise.  Values at the
finite places come from the classical closed formulas for the local symbol;
`qp_solvable_oracle` decides the same question by searching residues mod p^k
directly and is kept free of those formulas so the two can check each other.
`rational_point_search` looks for an actual integer point on the conic.

Arguments are validated once, at the public entry points: a `Place` checks its
prime when it is built, and `hilbert_symbol` checks that a and b are nonzero
and then calls `_local_symbol`, which trusts its place and reads valuations
with the unchecked `arith._valuation`.  A caller that already knows its
places, such as the sweep in `quaternion`, calls `_local_symbol` directly
(p = 0 for the infinite place) and so pays no primality test per symbol.
`qp_solvable_oracle` checks a and b, and p once through `lifting_threshold`,
before its search starts.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt

from ._record import Record
from .arith import _valuation, factorize, padic_valuation, require_prime


class Place(Record, namedtuple("Place", "p")):
    """A place of Q: a finite prime p, or the infinite (real) place.

    The infinite place is modeled as p=0 so places sort as inf < 2 < 3 < ...
    """

    __slots__ = ()

    def __new__(cls, p: int):
        if p != 0:
            require_prime(p)
        return super().__new__(cls, p)

    @classmethod
    def infinite(cls) -> "Place":
        return cls(0)

    @property
    def is_infinite(self) -> bool:
        return self.p == 0

    def __str__(self) -> str:
        return "inf" if self.p == 0 else str(self.p)

    # a Place orders against a Place only; `Record` refuses every other order
    def _p(self, other) -> int:
        if type(other) is not Place:
            raise TypeError(f"Place does not order against {type(other).__name__}")
        return other.p

    def __lt__(self, other):
        return self.p < self._p(other)

    def __le__(self, other):
        return self.p <= self._p(other)

    def __gt__(self, other):
        return self.p > self._p(other)

    def __ge__(self, other):
        return self.p >= self._p(other)


class ConicPoint(Record, namedtuple("ConicPoint", "x y z")):
    """Primitive integer solution of a*x^2 + b*y^2 = z^2."""

    __slots__ = ()

    def on_conic(self, a: int, b: int) -> bool:
        return a * self.x**2 + b * self.y**2 == self.z**2

    def is_primitive(self) -> bool:
        return gcd(gcd(self.x, self.y), self.z) == 1


def _eps(u: int) -> int:
    # (u-1)/2 mod 2 for odd u
    return (u - 1) // 2 % 2


def _omega(u: int) -> int:
    # (u^2-1)/8 mod 2 for odd u
    return (u * u - 1) // 8 % 2


def hilbert_symbol(a: int, b: int, place: Place) -> int:
    """Hilbert symbol (a, b / place) in {-1, +1} for nonzero integers a, b."""
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    return _local_symbol(a, b, place.p)


def _local_symbol(a: int, b: int, p: int) -> int:
    """(a, b / p) for nonzero a, b and p prime or 0 (the infinite place),
    none of it checked.

    With a = p^va*u, b = p^vb*v and u, v units at p, it is at odd p the tame
    symbol c^((p-1)/2) mod p, c = (-1)^(va*vb) a^vb b^(-va) (Neukirch,
    *Algebraic Number Theory*, Ch. V, Sec. 3), where only parities count:
    c = (-1)^(va*vb) u^(vb mod 2) v^(va mod 2).  By Euler's criterion that is
    Serre's (-1)^(va*vb*(p-1)/2) (u/p)^vb (v/p)^va (*A Course in Arithmetic*,
    Ch. III, Thm. 1).  At 2 it is (-1)^(eps(u)eps(v) + va*omega(v) + vb*omega(u))."""
    if p == 0:
        return -1 if (a < 0 and b < 0) else 1
    va, vb = _valuation(a, p), _valuation(b, p)
    u, v = a // p**va, b // p**vb
    if p == 2:
        exponent = _eps(u) * _eps(v) + va * _omega(v) + vb * _omega(u)
        return -1 if exponent % 2 else 1
    c = (-1) ** (va * vb) * u ** (vb % 2) * v ** (va % 2)
    return -1 if pow(c, (p - 1) // 2, p) == p - 1 else 1


def hilbert_product(a: int, b: int) -> dict[Place, int]:
    """Symbols at inf, 2 and every prime dividing a or b, in that order.

    At all other places the symbol is +1 (both arguments are units there), so
    the values returned multiply to +1 by the product formula.  a and b are
    factored one at a time: the product can be far harder to split.
    """
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    primes = sorted(factorize(a).keys() | factorize(b).keys() | {2})
    places = [Place.infinite()] + [Place(p) for p in primes]
    return {v: _local_symbol(a, b, v.p) for v in places}


def lifting_threshold(a: int, b: int, p: int) -> int:
    """Smallest exponent k* such that a primitive solution mod p^k* certifies
    solvability over the p-adics (generous uniform Hensel bound)."""
    return 2 * padic_valuation(4 * a * b, p) + 1


def qp_solvable_oracle(a: int, b: int, p: int, k: int) -> bool:
    """True iff a*x^2 + b*y^2 == z^2 (mod p^k) has a solution with
    gcd(x, y, z, p) = 1.

    Requires k >= lifting_threshold(a, b, p), which makes the answer equal to
    solvability over Q_p.  The tree of residues mod p^k is searched digit by
    digit, discarding branches that already fail the congruence and closing
    branches that Newton's lemma guarantees lift to exact p-adic solutions.
    No Hilbert symbol formula is consulted anywhere on this path.
    """
    if a == 0 or b == 0:
        raise ValueError("oracle needs nonzero coefficients")
    threshold = lifting_threshold(a, b, p)  # validates p
    if k < threshold:
        raise ValueError(
            f"k={k} below lifting threshold {threshold}; result would not "
            f"certify the p-adic answer"
        )
    return _solvable_digits(a, b, p, k)


def _solvable_digits(a: int, b: int, p: int, k: int) -> bool:
    # Depth-first search over partial solutions (x, y, z) mod p^j, j <= k.
    # A branch survives to depth j only if F = a*x^2 + b*y^2 - z^2 is 0 mod
    # p^j and not every coordinate is divisible by p (level-1 cut), i.e. the
    # branch still contains candidates for a primitive solution mod p^k.
    #
    # Newton exit: if the minimum valuation e of the gradient
    # (2ax, 2by, -2z) satisfies 2e+1 <= j, the one-variable Newton iteration
    # lifts the node to an exact Z_p solution congruent to it mod p (hence
    # primitive), so the answer is True.  Conversely any primitive solution
    # mod p^k keeps its full ancestor chain alive and triggers the exit by
    # depth k, because k >= 2*v_p(4ab)+1 bounds 2e+1 for its unit coordinate.
    va = _valuation(2 * a, p)
    vb = _valuation(2 * b, p)
    vz = 1 if p == 2 else 0

    def exits(x: int, y: int, z: int, j: int) -> bool:
        e = min(
            va + (padic_valuation(x, p) if x else j),
            vb + (padic_valuation(y, p) if y else j),
            vz + (padic_valuation(z, p) if z else j),
        )
        return 2 * e + 1 <= j

    # Level 1 takes z from a table of square roots mod p built by squaring
    # alone, so only the (x, y) pairs are enumerated.
    roots: list[list[int]] = [[] for _ in range(p)]
    for z in range(p):
        roots[z * z % p].append(z)

    def level_one():
        for x in range(p):
            for y in range(p):
                for z in roots[(a * x * x + b * y * y) % p]:
                    if x or y or z:
                        yield x, y, z

    def extensions(x: int, y: int, z: int, j: int):
        pj = p**j
        # Survivors have every gradient coordinate divisible by p, so all
        # p^3 digit extensions share the value of F mod p^(j+1): the branch
        # either dies here or branches fully.
        if (a * x * x + b * y * y - z * z) // pj % p:
            return
        for dx in range(p):
            xx = x + dx * pj
            for dy in range(p):
                yy = y + dy * pj
                for dz in range(p):
                    yield xx, yy, z + dz * pj

    # One generator per depth holds the unexplored siblings on the current
    # path, so memory stays O(k) however wide the tree is.
    branches = [level_one()]
    while branches:
        node = next(branches[-1], None)
        if node is None:
            branches.pop()
            continue
        j = len(branches)
        if exits(*node, j):
            return True
        # depth-k nodes always take the Newton exit when k is at or above
        # the lifting threshold, so surviving nodes sit strictly below k
        assert j < k
        branches.append(extensions(*node, j))
    return False


def rational_point_search(a: int, b: int, height: int) -> ConicPoint | None:
    """First primitive point on a*x^2 + b*y^2 = z^2 with coordinates in
    [0, height], ordered by increasing max-norm then lexicographically.

    Signs never matter (all coordinates appear squared), so the search runs
    over nonnegative triples.  Returning None within the bound proves nothing
    about solvability; it only means no point of height <= `height` exists.
    """
    if a == 0 or b == 0:
        raise ValueError("conic needs nonzero coefficients")
    if height < 1:
        raise ValueError("height bound must be positive")
    for m in range(1, height + 1):
        for x in range(m + 1):
            for y in range(m + 1):
                # the only z is isqrt(t); a triple with max < m was seen earlier
                t = a * x * x + b * y * y
                if t < 0:
                    continue
                z = isqrt(t)
                if z * z == t and max(x, y, z) == m and gcd(gcd(x, y), z) == 1:
                    return ConicPoint(x, y, z)
    return None
