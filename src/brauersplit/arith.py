"""Exact integer and modular arithmetic primitives.

Primality is Miller-Rabin to the prime bases 2..41 in order.  The first k
bases are exact below psi_k, the least strong pseudoprime to all of them
(OEIS A014233; Sorenson & Webster, "Strong pseudoprimes to twelve prime
bases", Math. Comp. 86, 2017), so a test stops at the first base k with
n < psi_k: n < 2047 needs base 2 alone, n < 3825123056546413051 at most
nine.  The twelve bases 2..37 accept psi_12 = 318665857834031151167461
= 399165290221 * 798330580441, and all thirteen are exact below psi_13 =
3317044064679887385961981.  The library refuses above psi_13: `is_prime`,
and through it `require_prime` and `factorize`, raise `Inconclusive` for a
number there that passes all thirteen bases, instead of guessing.
Factoring strips the thirteen small primes 2..41 and then splits every
cofactor by Pollard rho.  All functions are pure and safe to call from
concurrent workers.

Public functions validate their arguments.  The underscored kernels
(`_valuation`) and `sqrt_mod` trust theirs, so a caller that has already
validated a prime pays for the check once, not once per call.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt

# The trial divisors and then the Miller-Rabin bases.  Trial division by the
# same primes first means a base never equals n.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# _PSI[k - 1] = psi_k: bases 2..(k-th prime) are exact for n < psi_k
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461,
        3317044064679887385961981)


class Inconclusive(Exception):
    """No verdict: it would rest on an uncertified probable prime (not a ValueError)."""


def is_prime(n: int) -> bool:
    """True iff |n| is prime; raises Inconclusive for |n| >= psi_13 that no base refutes."""
    n = abs(n)
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * d, d odd
    d = (n - 1) >> s
    for a, psi in zip(_SMALL_PRIMES, _PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    raise Inconclusive(f"{n} is a strong probable prime to the bases 2..41, not certified")


def require_prime(p: int, *, odd: bool = False, name: str = "p") -> int:
    """Validate that p, the argument `name`, is a certified prime; return it."""
    if p < 2 or not is_prime(p):
        raise ValueError(f"{name} = {p} is not a prime")
    if odd and p == 2:
        raise ValueError(f"{name} = 2: prime must be odd")
    return p


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion.

    Returns 0 iff p | a, +1 for nonzero quadratic residues, -1 otherwise.
    """
    require_prime(p, odd=True)
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def multiplicative_order(p: int, l: int) -> int:
    """Smallest f >= 1 with p**f == 1 (mod l).  Requires l >= 1 and gcd(p, l) == 1.

    f divides phi(l), which `factorize(l)` gives: starting from f = phi(l),
    divide f by each prime r of phi(l) while p**(f/r) is still 1 mod l."""
    if l < 1:
        raise ValueError(f"modulus {l} < 1; order undefined")
    if gcd(p, l) != 1:
        raise ValueError(f"gcd({p}, {l}) != 1; order undefined")
    f = 1
    for r, e in factorize(l).items():
        f *= (r - 1) * r ** (e - 1)
    for r in factorize(f):
        while f % r == 0 and pow(p, f // r, l) == 1:
            f //= r
    return f


def padic_valuation(n: int, p: int) -> int:
    """Largest m with p**m | n.  n must be nonzero."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    require_prime(p)
    return _valuation(n, p)


def _valuation(n: int, p: int) -> int:
    # padic_valuation without the checks: n != 0 and p prime are trusted
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def sqrt_mod(a: int, p: int) -> int | None:
    """Some x with x*x == a (mod p), or None if a is not a square mod p.

    p must be prime; it is not checked.  Tonelli-Shanks (Cohen, *A Course in
    Computational Algebraic Number Theory*, Alg. 1.5.1): Euler's criterion,
    then a walk down the 2-power part of p - 1.  At p = 3 (mod 4) that part
    is 2 and the walk is empty, so the root is a^((p+1)/4).
    """
    a %= p
    if a < 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s * t, t odd
    t = (p - 1) >> s
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, t, p)  # generates the 2-Sylow subgroup
    x = pow(a, (t + 1) // 2, p)
    b = pow(a, t, p)  # invariant: x^2 == a*b and b^(2^(m-1)) == 1
    m = s
    while b != 1:
        i, b2 = 0, b
        while b2 != 1:
            b2 = b2 * b2 % p
            i += 1
        g = pow(c, 1 << (m - i - 1), p)
        x = x * g % p
        c = g * g % p
        b = b * c % p
        m = i
    return x


def _pollard_rho(n: int) -> int:
    # A nontrivial factor of the composite n, which has no factor 2..41.
    # Pollard rho (BIT 15, 1975) on x -> x^2 + c, with Floyd's cycle
    # detection and a deterministic sweep over c.
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to factor {n}")  # pragma: no cover


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.  n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        stack.append(f)
        stack.append(m // f)
    return out


def primes_up_to(bound: int) -> list[int]:
    """Primes <= bound: 2, then the odd primes of one sieve segment."""
    if bound < 3:
        # also ends the base-prime recursion of _odd_prime_segments
        return [2] if bound == 2 else []
    start, flags = next(_odd_prime_segments(bound, bound))
    return [2, *compress(range(start, bound + 1, 2), flags)]


def _odd_prime_segments(bound: int, size: int):
    """Yield (start, flags) for consecutive segments covering 3..bound, with
    flags[i] = 1 iff start + 2*i is prime: one byte per odd number.

    Segmented sieve of Eratosthenes over the odd numbers: the base primes up
    to isqrt(bound) are sieved once, and segment k holds at most size odd
    numbers from 3 + 2*size*k, so memory is O(sqrt(bound) + size).
    """
    base = primes_up_to(isqrt(bound))[1:]
    for start in range(3, bound + 1, 2 * size):
        count = min(size, (bound - start) // 2 + 1)
        flags = bytearray([1]) * count
        for p in base:
            m = p * p
            if m >= start + 2 * count:
                break
            # strike from p^2, or from the i < p with start + 2*i == 0 (mod p)
            # once start is past p^2; a short segment may end before that i
            i = (p - start) // 2 % p if m < start else (m - start) // 2
            flags[i::p] = bytes((count - 1 - i) // p + 1)
        yield start, flags
