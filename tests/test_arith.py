from math import gcd

import pytest
from hypothesis import given, strategies as st

from brauersplit.arith import (
    factorize,
    is_prime,
    legendre_symbol,
    multiplicative_order,
    odd_prime_divisors,
    padic_valuation,
    primes_up_to,
)

ODD_PRIMES_SMALL = [p for p in primes_up_to(200) if p != 2]


def brute_is_square_mod(a, p):
    a %= p
    return any(x * x % p == a for x in range(p))


def test_legendre_one_is_always_a_square():
    for p in ODD_PRIMES_SMALL:
        assert legendre_symbol(1, p) == 1


def test_legendre_minus_one_sign():
    # (-1/q) = (-1)^((q-1)/2)
    assert legendre_symbol(-1, 13) == 1
    assert legendre_symbol(-1, 7) == -1
    for q in ODD_PRIMES_SMALL:
        assert legendre_symbol(-1, q) == (1 if q % 4 == 1 else -1)


def test_legendre_three_mod_thirteen():
    # 4^2 = 16 = 3 mod 13
    assert legendre_symbol(3, 13) == 1


def test_legendre_matches_enumeration():
    for p in [p for p in primes_up_to(60) if p != 2]:
        for a in range(-p, p + 1):
            expected = 0 if a % p == 0 else (1 if brute_is_square_mod(a, p) else -1)
            assert legendre_symbol(a, p) == expected


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre_symbol(3, 2)
    with pytest.raises(ValueError):
        legendre_symbol(3, 15)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.sampled_from(ODD_PRIMES_SMALL))
def test_legendre_multiplicative(a, b, p):
    assert legendre_symbol(a * b, p) == legendre_symbol(a, p) * legendre_symbol(b, p)


@given(st.integers(0, 10**4), st.sampled_from([p for p in primes_up_to(10**4) if p % 2]))
def test_legendre_euler_criterion(a, p):
    r = pow(a, (p - 1) // 2, p)
    assert legendre_symbol(a, p) % p == r


def test_quadratic_reciprocity():
    for p in ODD_PRIMES_SMALL[:20]:
        for q in ODD_PRIMES_SMALL[:20]:
            if p == q:
                continue
            lhs = legendre_symbol(p, q) * legendre_symbol(q, p)
            rhs = (-1) ** ((p - 1) // 2 * ((q - 1) // 2))
            assert lhs == rhs


def test_multiplicative_order_examples():
    assert multiplicative_order(7, 3) == 1
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(3, 5) == 4


def test_multiplicative_order_divides_group_order():
    for l in ODD_PRIMES_SMALL[:25]:
        for p in range(2, 50):
            if gcd(p, l) != 1:
                continue
            f = multiplicative_order(p, l)
            assert (l - 1) % f == 0
            assert pow(p, f, l) == 1
            assert all(pow(p, d, l) != 1 for d in range(1, f))


def test_multiplicative_order_requires_coprime():
    with pytest.raises(ValueError):
        multiplicative_order(6, 3)


def test_padic_valuation_examples():
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(12, 5) == 0
    assert padic_valuation(-250, 5) == 3


@given(st.integers(-10**9, 10**9).filter(bool), st.sampled_from(primes_up_to(50)))
def test_padic_valuation_divides_exactly(n, p):
    v = padic_valuation(n, p)
    assert n % p**v == 0
    assert n % p ** (v + 1) != 0


def test_padic_valuation_rejects_zero():
    with pytest.raises(ValueError):
        padic_valuation(0, 3)


def test_is_prime_basics():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(-7)
    # 561 = 3 * 11 * 17, the classic Carmichael number
    assert not is_prime(561)


def test_is_prime_against_sieve():
    primes = set(primes_up_to(2000))
    for n in range(2000):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**31 + 11))


def test_odd_prime_divisors_examples():
    assert odd_prime_divisors(1) == []
    assert odd_prime_divisors(-12) == [3]
    assert odd_prime_divisors(210) == [3, 5, 7]


def test_odd_prime_divisors_rejects_zero():
    with pytest.raises(ValueError):
        odd_prime_divisors(0)


@given(st.integers(-10**8, 10**8).filter(bool))
def test_factorize_reconstructs(n):
    f = factorize(n)
    prod = 1
    for p, e in f.items():
        assert is_prime(p)
        prod *= p**e
    assert prod == abs(n)
