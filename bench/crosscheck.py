"""Independent checks run once, when the stored reference verdicts are made.

Each check reaches its verdict by a route other than the one the workloads
time:

- splitting: the residue oracle (`qp_solvable_oracle`) at every place where a
  symbol can be -1, never the Hilbert symbol formulas;
- representations: the witness is substituted, and absence is confirmed by a
  search over x instead of y;
- decomposition: orders are found by repeated multiplication;
- characters: a brute-force discrete logarithm over the q-Sylow subgroup of
  the residue field, whose q-th powers are exactly the q-th powers the
  character detects; a trivial character is also backed by a q-th root
  checked by substitution.
"""

from __future__ import annotations

import itertools
from math import isqrt

from brauersplit.cyclotomic import (
    cyclotomic_polynomial,
    poly_divmod,
    poly_mod,
    poly_mul,
    poly_pow_mod,
)
from brauersplit.padic import lifting_threshold, qp_solvable_oracle

# Largest q-Sylow subgroup enumerated for one residue field.
SYLOW_LIMIT = 200_000


class CheckFailed(AssertionError):
    """A library verdict disagreed with its independent check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def odd_prime_factors_trial(n: int) -> list[int]:
    n = abs(n)
    while n % 2 == 0:
        n //= 2
    out, d = [], 3
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 2
    if n > 1:
        out.append(n)
    return out


def order_mod(p: int, q: int) -> int:
    f, x = 1, p % q
    while x != 1:
        x, f = x * p % q, f + 1
    return f


def locally_solvable(a: int, b: int, p: int) -> bool:
    """a*x^2 + b*y^2 = z^2 solvable at the place p (0 for the real place)."""
    if p == 0:
        return a > 0 or b > 0
    return qp_solvable_oracle(a, b, p, lifting_threshold(a, b, p))


def nontrivial_places(a: int, b: int) -> list[int]:
    """Every place where the conic can fail to have points: inf, 2 and the
    odd primes dividing a*b (elsewhere a and b are units)."""
    return [0, 2] + odd_prime_factors_trial(a * b)


class SweepSplitOracle:
    """Split verdict of (-n, q) for an odd prime q from the residue oracle.

    The oracle runs at inf, 2 and every odd p | n.  At the place q itself the
    symbol equals the product of the others (product formula), so the algebra
    splits iff the conic is solvable at all of those.  The oracle's answer
    depends on q only through q mod p^k, so verdicts are memoised per class.
    """

    def __init__(self):
        self._memo: dict[tuple[int, int, int, int], bool] = {}

    def split(self, n: int, q: int) -> bool:
        for p in [2] + odd_prime_factors_trial(n):
            k = lifting_threshold(-n, q, p)
            key = (n, p, k, q % p**k)
            if key not in self._memo:
                self._memo[key] = qp_solvable_oracle(-n, q, p, k)
            if not self._memo[key]:
                return False
        return True


def represent_brute(n: int, q: int) -> bool:
    """q = x^2 + n*y^2 solvable, searched over x."""
    for x in range(isqrt(q) + 1):
        t = q - x * x
        if t % n == 0 and isqrt(t // n) ** 2 == t // n:
            return True
    return False


def _digits(n: int, p: int) -> list[int]:
    """The n-th polynomial over GF(p): base-p digits, constant term first."""
    out = []
    while n:
        n, r = divmod(n, p)
        out.append(r)
    return out


class ResidueField:
    """GF(p)[x]/(g) for a prime ideal (p, g) of Z[zeta_q], with its q-Sylow
    subgroup S enumerated by brute force.

    With |F*| = N - 1 = q^s * M and gcd(q, M) = 1, an element a != 0 is a
    q-th power iff a^M is a q-th power in S.  Writing a^M = h^i for a
    generator h of S and zeta = h^(j*q^(s-1)), the character
    a^((N-1)/q) = zeta^k gives i = k*j (mod q).
    """

    def __init__(self, p: int, q: int, g: tuple[int, ...]):
        self.p, self.q, self.g = p, q, list(g)
        f = order_mod(p, q)
        phi = [c % p for c in cyclotomic_polynomial(q)]
        # a monic divisor of Phi_q of degree ord(p mod q) is irreducible
        require(
            len(g) - 1 == f and g[-1] == 1 and not poly_divmod(phi, self.g, p)[1],
            f"({p}, {q}): {g} is not a prime ideal factor",
        )
        self.f = f
        n1 = p**f - 1
        s, m = 0, n1
        while m % q == 0:
            s, m = s + 1, m // q
        self.s, self.m = s, m
        self.sylow_order = q**s
        if self.sylow_order > SYLOW_LIMIT:
            raise OverflowError(f"q-Sylow subgroup of order {self.sylow_order} too large")
        self.log = self._enumerate_sylow()
        zeta_log = self.log[tuple(poly_mod([0, 1], self.g, p))]
        step = q ** (s - 1)
        require(zeta_log % step == 0 and zeta_log // step % q, "zeta is not of order q")
        self.zeta_j = zeta_log // step

    def _mul(self, u: list[int], v: list[int]) -> list[int]:
        return poly_mod(poly_mul(u, v, self.p), self.g, self.p)

    def _enumerate_sylow(self) -> dict[tuple[int, ...], int]:
        p, order = self.p, self.sylow_order
        # polynomials of degree >= 1 in index order (base-p digits): when
        # f > 1 every element of GF(p) may be a q-th power
        for idx in itertools.count(p):
            h = poly_pow_mod(_digits(idx, p), self.m, self.g, p)
            log: dict[tuple[int, ...], int] = {}
            x = [1]
            for i in range(order):
                key = tuple(x)
                if key in log:
                    break
                log[key] = i
                x = self._mul(x, h)
            else:
                if x == [1]:
                    self.h = h
                    return log
        raise CheckFailed(f"no generator of the q-Sylow subgroup for ({p}, {self.q})")

    def image(self, alpha) -> list[int]:
        if isinstance(alpha, int):
            coeffs = [alpha % self.p]
        else:
            coeffs = [c % self.p for c in alpha]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return poly_mod(coeffs, self.g, self.p)

    def character(self, alpha) -> int | None:
        """Exponent k of the q-power residue character, None when alpha lies
        in the prime.  A trivial value is confirmed by a q-th root of alpha
        substituted back."""
        a = self.image(alpha)
        if not a:
            return None
        p, q = self.p, self.q
        i = self.log[tuple(poly_pow_mod(a, self.m, self.g, p))]
        k = i * pow(self.zeta_j, -1, q) % q
        if k == 0:
            # a = w0^q * (a^M)^-t with u*q - 1 = t*M, and a^M = h^i, q | i
            u = pow(q, -1, self.m) if self.m > 1 else 0
            t = (u * q - 1) // self.m
            w0 = poly_pow_mod(a, u, self.g, p) if u else [1]
            e = (-t * (i // q)) % self.sylow_order
            w = self._mul(w0, poly_pow_mod(self.h, e, self.g, p))
            require(poly_pow_mod(w, q, self.g, p) == a, f"q-th root of {alpha} fails")
        return k


def char_from_brute_set(p: int, q: int, g: tuple[int, ...], alpha) -> bool:
    """alpha is a nonzero q-th power in GF(p)[x]/(g): the literal q-th-power
    set, for residue fields small enough to list."""
    f = len(g) - 1
    g = list(g)
    powers = {tuple(poly_pow_mod(_digits(idx, p), q, g, p)) for idx in range(1, p**f)}
    coeffs = [alpha % p] if isinstance(alpha, int) else [c % p for c in alpha]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    a = tuple(poly_mod(coeffs, g, p))
    return bool(a) and a in powers
