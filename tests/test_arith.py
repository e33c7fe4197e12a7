import random
from itertools import compress
from math import gcd, isqrt

import pytest
from hypothesis import given, strategies as st

from brauersplit.arith import (
    Inconclusive,
    _odd_prime_segments,
    factorize,
    is_prime,
    legendre_symbol,
    multiplicative_order,
    padic_valuation,
    primes_up_to,
    require_prime,
    sqrt_mod,
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


def order_by_walk(p, l):
    # the oracle: walk p, p^2, ... mod l until it reaches 1
    f = 1
    x = p % l
    while x != 1 % l:
        x = x * p % l
        f += 1
    return f


def test_multiplicative_order_matches_walk():
    for l in range(1, 400):
        for p in range(1, 60):
            if gcd(p, l) == 1:
                assert multiplicative_order(p, l) == order_by_walk(p, l), (p, l)


def test_multiplicative_order_modulus_one_and_below():
    # the walk never ended at l = 1, where x stays 0
    assert multiplicative_order(5, 1) == 1
    for l in (0, -7):
        with pytest.raises(ValueError):
            multiplicative_order(5, l)


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
    primes = set(primes_up_to(10**6))
    assert [n for n in range(10**6) if is_prime(n) != (n in primes)] == []


def test_is_prime_rejects_the_twelve_base_pseudoprime():
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to every
    # base 2..37; base 41 exposes it (Sorenson & Webster 2017)
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
    assert is_prime(41)


# psi_k for k = 1..12: the least strong pseudoprime to the first k prime
# bases (OEIS A014233), each a composite that passes those k bases
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, 318665857834031151167461)
PSI_13 = 3317044064679887385961981


def thirteen_base_is_prime(n):
    # Miller-Rabin to all thirteen bases 2..41, with no early exit: exact for
    # odd 41 < n < psi_13, the oracle for the exits at psi_k in `is_prime`
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_rejects_every_psi_k():
    # psi_k passes the first k bases, so a test that stopped at n <= psi_k
    # instead of n < psi_k would call it prime
    for k, psi in enumerate(PSI, 1):
        assert not is_prime(psi), k
        assert not thirteen_base_is_prime(psi), k


def test_is_prime_against_thirteen_bases():
    # seeded odd n from 43 to psi_13, log-uniform in size, and the composites
    # n < 10^5 with 2^(n-1) = 1 mod n, which are likelier to pass base 2
    rng = random.Random(1729)
    sample = [rng.getrandbits(rng.randrange(6, PSI_13.bit_length() + 1)) | 1 for _ in range(20000)]
    pseudo = [n for n in range(43, 10**5, 2) if pow(2, n - 1, n) == 1 and not thirteen_base_is_prime(n)]
    sample = [n for n in sample if 41 < n < PSI_13] + pseudo
    assert [n for n in sample if is_prime(n) != thirteen_base_is_prime(n)] == []
    assert sum(map(thirteen_base_is_prime, sample)) == 2016 and len(pseudo) == 78


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**31 + 11))


def test_refuses_probable_primes_from_psi_13():
    # psi_13 = 1287836182261 * 2575672364521 passes every base 2..41, so no
    # number from it up that passes them all is certified, not even the true
    # prime 10^25 + 13; a base that proves n composite still answers
    psi13 = 3317044064679887385961981
    assert 1287836182261 * 2575672364521 == psi13
    assert not issubclass(Inconclusive, ValueError)
    for n in (psi13, 10**25 + 13):
        with pytest.raises(Inconclusive):
            require_prime(n)
    with pytest.raises(Inconclusive):
        factorize(61 * psi13)
    assert not is_prime(10000000000037 * 10000000000051)


def test_sqrt_mod_against_table_of_squares():
    for p in primes_up_to(2000):
        roots = {}
        for x in range(p):
            roots.setdefault(x * x % p, x)
        for a in range(p):
            r = sqrt_mod(a, p)
            if a in roots:
                assert r is not None and r * r % p == a
                # the root is pinned, so `represent` records cannot drift
                assert p % 4 != 3 or r == pow(a, (p + 1) // 4, p), (a, p)
            else:
                assert r is None
        assert sqrt_mod(-1 - p, p) == sqrt_mod(p - 1, p)


def test_primes_up_to_small_bounds():
    for bound in range(400):
        trial = [m for m in range(2, bound + 1) if all(m % d for d in range(2, isqrt(m) + 1))]
        assert primes_up_to(bound) == trial, bound


@pytest.mark.parametrize("size", [1, 2, 3, 7, 64])
def test_odd_prime_segments_flag_the_odd_primes(size):
    # sizes below and above the base primes reach a first multiple read mod p
    # past p^2 and a short segment that ends before it; segment k is the run
    # of size odd numbers from 3 + 2*size*k, the last one cut at bound
    for bound in range(3, 401):
        segments = list(_odd_prime_segments(bound, size))
        starts = [start for start, _ in segments]
        assert all(start % 2 for start in starts), (size, bound)
        assert all(b - a == 2 * size for a, b in zip(starts, starts[1:])), (size, bound)
        assert all(len(flags) == size for _, flags in segments[:-1]), (size, bound)
        numbers = [start + 2 * i for start, flags in segments for i in range(len(flags))]
        assert numbers == list(range(3, bound + 1, 2)), (size, bound)
        assert set(b"".join(flags for _, flags in segments)) <= {0, 1}, (size, bound)
        primes = [q for start, flags in segments for q in compress(range(start, bound + 1, 2), flags)]
        assert primes == primes_up_to(bound)[1:], (size, bound)


def test_sqrt_mod_with_deep_two_power():
    # p - 1 = 7 * 2^20: Tonelli-Shanks walks down twenty 2-power levels
    p = 7 * 2**20 + 1
    assert is_prime(p)
    rng = random.Random(7)
    nonresidue = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    for x in [1, 2, p - 1, pow(3, 7, p)] + [rng.randrange(1, p) for _ in range(500)]:
        a = x * x % p
        r = sqrt_mod(a, p)
        assert r in (x, p - x)
        assert sqrt_mod(a * nonresidue, p) is None


@given(st.integers(-10**8, 10**8).filter(bool))
def test_factorize_reconstructs(n):
    f = factorize(n)
    prod = 1
    for p, e in f.items():
        assert is_prime(p)
        prod *= p**e
    assert prod == abs(n)


def test_factorize_rho_inputs_against_sieve():
    # after the small primes 2..41 every cofactor goes to Pollard rho: the
    # composites with no factor below 43, and the powers of larger primes
    bound = 2 * 10**5
    spf = list(range(bound + 1))
    for i in range(2, isqrt(bound) + 1):
        if spf[i] == i:
            for j in range(i * i, bound + 1, i):
                if spf[j] == j:
                    spf[j] = i

    def sieve_factors(n):
        out = {}
        while n > 1:
            out[spf[n]] = out.get(spf[n], 0) + 1
            n //= spf[n]
        return out

    composites = [n for n in range(2, bound + 1) if 41 < spf[n] < n]
    assert len(composites) == 11087
    assert [n for n in composites if factorize(n) != sieve_factors(n)] == []
    for p in (43, 47, 1009, 65537, 999983, 1000003):
        for k in range(1, 13):
            assert factorize(p**k) == {p: k}
            assert factorize(-(p**k) * 41) == {41: 1, p: k}
