import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import brauersplit
from brauersplit.arith import multiplicative_order, primes_up_to
from brauersplit.cyclotomic import (
    SUPPORTED_Q,
    CyclotomicInt,
    DecompositionType,
    PowerCharValue,
    PrimeIdealRep,
    RamifiedPrimeError,
    SplittingClass,
    _PackedRing,
    _residue_ring,
    cyclo_reduce,
    cyclotomic_decomposition,
    cyclotomic_polynomial,
    factor_cyclotomic_mod_p,
    find_prime_ideal,
    kummer_splitting,
    poly_divmod,
    poly_mod,
    poly_mul,
    poly_pow_mod,
    power_residue_character,
)
from poly_reference import schoolbook_pow_mod

SMALL_Q = st.sampled_from(SUPPORTED_Q)


# ---------------------------------------------------------------------------
# ring arithmetic
# ---------------------------------------------------------------------------


def test_zeta_times_top_power_wraps():
    for q in SUPPORTED_Q:
        z = CyclotomicInt.zeta(q)
        top = CyclotomicInt.zeta(q, q - 2)
        assert (z * top).coeffs == tuple([-1] * (q - 1))


def test_multiplicative_identity():
    one = CyclotomicInt.from_int(7, 1)
    a = CyclotomicInt(7, (3, -2, 0, 5, 1, -4))
    assert a * one == a


def test_q3_square_example():
    a = CyclotomicInt(3, (1, 1))
    assert a * a == CyclotomicInt(3, (0, 1))


def test_zeta_has_order_q():
    for q in SUPPORTED_Q:
        z = CyclotomicInt.zeta(q)
        acc = CyclotomicInt.from_int(q, 1)
        for _ in range(q):
            acc = acc * z
        assert acc == CyclotomicInt.from_int(q, 1)


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        CyclotomicInt.from_int(3, 1) + CyclotomicInt.from_int(5, 1)
    with pytest.raises(ValueError):
        PowerCharValue.root(3, 1) * PowerCharValue.root(5, 1)


def test_bad_order_rejected_every_time():
    # q is checked once per distinct q, so a bad q must raise on every
    # construction, before and after good ones, and never be remembered
    for _ in range(2):
        for q in (1, 2, 9, 15, 561):
            with pytest.raises(ValueError):
                CyclotomicInt(q, (0,) * (q - 1))
            with pytest.raises(ValueError):
                cyclo_reduce(q, [1, 2])
        assert CyclotomicInt.from_int(7, 1) + CyclotomicInt.zeta(7) == cyclo_reduce(7, [1, 1])
    with pytest.raises(ValueError):
        CyclotomicInt(7, (1, 2))  # the length is still checked each time


def test_reduce_folds_exponents():
    # overlong vectors wrap: zeta^q = 1 and zeta^(q+1) = zeta
    for q in (3, 5, 7):
        assert cyclo_reduce(q, [0] * q + [1]) == CyclotomicInt.from_int(q, 1)
        assert cyclo_reduce(q, [0] * (q + 1) + [1]) == CyclotomicInt.zeta(q)


COEFF = st.integers(-9, 9)


@settings(max_examples=50)
@given(st.sampled_from((3, 5, 7)), st.data())
def test_ring_axioms(q, data):
    vec = st.tuples(*([COEFF] * (q - 1)))
    a = CyclotomicInt(q, data.draw(vec))
    b = CyclotomicInt(q, data.draw(vec))
    c = CyclotomicInt(q, data.draw(vec))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - b + b == a and -(-a) == a and (a - a).is_zero()


# ---------------------------------------------------------------------------
# polynomials over GF(p)
# ---------------------------------------------------------------------------


def _random_modulus(rng, n, p, monic):
    # coefficients drawn beyond 0..p-1 on purpose; a non-monic lead is
    # 2..p-1 (3 at p = 2), possibly shifted by p
    lead = 1 if monic else (rng.randrange(2, p) if p > 2 else 3) + p * rng.randrange(2)
    return [rng.randrange(-p, 2 * p) for _ in range(n)] + [lead]


def test_pow_mod_matches_schoolbook():
    # p up to the range of representation_criterion, every residue degree
    # of Phi_q, bases shorter and longer than g, and the zero base
    rng = random.Random(20240)
    for p in (2, 3, 101, 1000003, 10**18 + 9):
        for n in range(1, 19):
            for monic in (True, False):
                g = _random_modulus(rng, n, p, monic)
                bases = ([], [rng.randrange(-p, 2 * p) for _ in range(rng.randrange(1, n + 1))],
                         [rng.randrange(p) for _ in range(n + 1 + rng.randrange(n + 2))])
                for f in bases:
                    for e in (0, 1, 2, p, rng.getrandbits(72)):
                        assert poly_pow_mod(f, e, g, p) == schoolbook_pow_mod(f, e, g, p), (f, e, g, p)


def test_pow_mod_known_values_in_gf49():
    # GF(49) = GF(7)[x]/(x^2 + 1): x^2 = -1 makes x of order 4, every unit
    # has a^48 = 1, and Frobenius squared is the identity, a^49 = a
    g = [1, 0, 1]
    assert [e for e in range(1, 49) if poly_pow_mod([0, 1], e, g, 7) == [1]] == list(range(4, 49, 4))
    a = [3, 3, 1]  # longer than g; it is 2 + 3x
    assert poly_pow_mod(a, 48, g, 7) == [1]
    assert poly_pow_mod(a, 49, g, 7) == [2, 3]


def test_frobenius_power_matches_pow_mod():
    # u^((p^f - 1)/q) modulo Phi_q and each of its factors; bases empty,
    # constant, short, and longer than h with negative coefficients.  The
    # schoolbook oracle runs where p is small.
    # The ring of Phi_q works modulo x^q - 1 and returns a representative,
    # so each result is compared after its reduction mod h.
    rng = random.Random(91)
    for q in SUPPORTED_Q:
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 999983, 10**18 + 9):
            if p == q:
                continue
            f = multiplicative_order(p, q)
            for h in [cyclotomic_polynomial(q)] + [list(g) for g in factor_cyclotomic_mod_p(q, p)]:
                ring = _PackedRing(h, p, q)
                bases = ([], [rng.randrange(1, p)], [rng.randrange(p) for _ in range(len(h) - 1)],
                         [rng.randrange(-p, p) for _ in range(len(h) + 3)])
                e = (p**f - 1) // q
                for u in bases:
                    want = poly_pow_mod(u, e, h, p)
                    if p < 40:
                        assert want == schoolbook_pow_mod(u, e, h, p), (u, h, q, p)
                    got = ring.power(ring.pack(poly_mod(u, h, p)), f)
                    assert poly_mod(ring.unpack(got), h, p) == want, (u, h, q, p)


def test_image_of_the_largest_coefficients_in_residue_rings():
    # q - 1 coefficients p - 1 put the largest sum `image` forms into its
    # slots; the result is still the reduction of the sum of (p - 1) x^i
    for q in SUPPORTED_Q:
        for p in primes_up_to(50):
            if p == q:
                continue
            for g in factor_cyclotomic_mod_p(q, p):
                ring = _PackedRing(list(g), p, q)
                got = ring.unpack(ring.image([p - 1] * (q - 1)))
                assert got == poly_mod([p - 1] * (q - 1), list(g), p), (q, p, g)


# p = 2^61 - 1 needs the most limbs per slot among these; p = 2 has exact slots
LAZY_PRIMES = (2, 3, 5, 999983, 10**18 + 9, 2**61 - 1)


def _lazy_top(p):
    # the largest slot of a Montgomery form: 2p - 1, or 1 at p = 2 (R = 1)
    return 2 * p - 1 if p > 2 else 1


def _check_lazy(ring, v):
    # the raw slots of a Montgomery form are each below 2p, none past the n slots
    n = len(ring.low)
    assert v >> (n * ring.w) == 0
    slots = [v >> s & ring.slot for s in ring.low]
    assert max(slots) <= _lazy_top(ring.p), (ring.p, slots)


def _lazy_rings(q, p, rng):
    # (ring, modulus of its slots): modulo x^q - 1 and every factor of Phi_q,
    # or, at q = 0, general moduli of degree 1..18 as `poly_pow_mod` builds
    if not q:
        gs = [_random_modulus(rng, n, p, monic) for n in (1, 2, 9, 18) for monic in (True, False)]
        return [(_PackedRing(g, p), g) for g in gs]
    x_q_minus_1 = [-1] + [0] * (q - 1) + [1]
    gs = [cyclotomic_polynomial(q)] + [list(g) for g in factor_cyclotomic_mod_p(q, p)]
    # Phi_q, a factor too when f = q - 1, gives the ring of x^q - 1
    return [(ring, x_q_minus_1 if ring.wrap else g) for ring, g in ((_PackedRing(g, p, q), g) for g in gs)]


def test_frobenius_of_the_largest_slots():
    # slots p - 1 through the boundary, then every slot at the largest lazy
    # residue: the result is the substitution v(x^(p mod q)) of the element
    # the slots represent, reduced by the ring's modulus, which is v^p by
    # schoolbook, and its own slots stay lazy
    rng = random.Random(5)
    for q in SUPPORTED_Q:
        for p in sorted({*primes_up_to(50), *LAZY_PRIMES}):
            if p == q:
                continue
            s = p % q
            for ring, g in _lazy_rings(q, p, rng):
                n = len(g) - 1
                for v in (ring.enter(ring.pack([p - 1] * n)), ring.pack([_lazy_top(p)] * n)):
                    a = ring.unpack(ring.leave(v))
                    poly = [0] * ((len(a) - 1) * s + 1)
                    for i, c in enumerate(a):
                        poly[i * s] = c
                    want = poly_mod(poly, g, p)
                    assert want == schoolbook_pow_mod(a, p, g, p), (q, p, g)
                    got = ring.frobenius(v)
                    _check_lazy(ring, got)
                    assert ring.unpack(ring.leave(got)) == want, (q, p, g, v)


def test_product_of_the_largest_slots_modulo_x_q_minus_1():
    # every slot at the largest lazy residue makes every slot of the folded
    # product q (2p - 1)^2, the largest the ring of Phi_q must reduce; the
    # result is the schoolbook product mod x^q - 1 of the element those slots
    # represent, and its slots are lazy again
    for q in (*SUPPORTED_Q, 23):
        x_q_minus_1 = [-1] + [0] * (q - 1) + [1]
        for p in (*LAZY_PRIMES, 101):
            if p == q:
                continue
            ring = _PackedRing(cyclotomic_polynomial(q), p, q)
            top = ring.pack([_lazy_top(p)] * q)
            a = ring.unpack(ring.leave(top))
            want = poly_mod(poly_mul(a, a, p), x_q_minus_1, p)
            got = ring.mul(top, top)
            _check_lazy(ring, got)
            assert ring.unpack(ring.leave(got)) == want, (q, p)


def test_product_of_the_largest_slots_modulo_g():
    # the same extreme modulo each factor g of Phi_q and modulo general g
    # (q = 0): 2n - 1 product slots of n (2p - 1)^2 each, reduced, lifted by R
    # and folded through x^j mod g; against the schoolbook product mod g
    rng = random.Random(6)
    for q in (0, *SUPPORTED_Q):
        for p in LAZY_PRIMES:
            if p == q:
                continue
            for ring, g in _lazy_rings(q, p, rng):
                if ring.wrap:
                    continue
                top = ring.pack([_lazy_top(p)] * (len(g) - 1))
                a = ring.unpack(ring.leave(top))
                got = ring.mul(top, top)
                _check_lazy(ring, got)
                assert ring.unpack(ring.leave(got)) == poly_mod(poly_mul(a, a, p), g, p), (q, p, g)


def test_a_chain_of_products_stays_lazy():
    # 40 products by the largest lazy element keep every slot below 2p, and
    # give the 41st power of the element it represents, in both ring modes
    rng = random.Random(7)
    for q in (0, *SUPPORTED_Q):
        for p in LAZY_PRIMES:
            if p == q:
                continue
            for ring, g in _lazy_rings(q, p, rng)[:3]:
                top = ring.pack([_lazy_top(p)] * (len(g) - 1))
                acc = top
                for _ in range(40):
                    acc = ring.mul(acc, top)
                    _check_lazy(ring, acc)
                a = ring.unpack(ring.leave(top))
                assert ring.unpack(ring.leave(acc)) == poly_pow_mod(a, 41, g, p), (q, p, g)


def test_constant_power_is_taken_mod_p_minus_1():
    # a constant c has c^((p^f - 1)/q) = 1 for c != 0 and 0 for c = 0 at
    # f > 1, and pow(c, (p - 1)/q, p) at f = 1, in every ring of a factor of
    # Phi_q and in the ring of Phi_q itself
    for q in SUPPORTED_Q:
        for p in (*primes_up_to(60), 999983, 10**18 + 9):
            if p == q:
                continue
            f = multiplicative_order(p, q)
            for g in [cyclotomic_polynomial(q)] + [list(g) for g in factor_cyclotomic_mod_p(q, p)]:
                ring = _PackedRing(g, p, q)
                for c in {0, 1, 2 % p, p - 1}:
                    want = pow(c, (p - 1) // q, p) if f == 1 else int(c != 0)
                    assert ring.power(c, f) == want, (q, p, g, c)


def test_short_dividend_is_reduced_and_trimmed():
    # deg f < deg g: no division step runs, yet the remainder is still a
    # canonical residue, so equal classes compare equal
    assert poly_mod([5, 3], [1, 1, 1], 3) == [2]
    assert poly_mod([5, 0], [1, 1, 1], 3) == [2]
    assert poly_divmod([3, 6], [1, 1, 1], 3) == ([], [])
    # x^3 + x^2 + 5 = x*(x^2 + x + 1) - x + 5: the degree drops by two in one
    # step, past the step that would have reduced the constant 5
    assert poly_divmod([5, 0, 1, 1], [1, 1, 1], 3) == ([0, 1], [2, 2])


@pytest.mark.parametrize("p", [2, 3, 7, 101, 10**18 + 9])
def test_divmod_reconstructs_the_dividend(p):
    # non-monic g with negative coefficients and coefficients above p; f
    # shorter than, as long as and longer than g
    rng = random.Random(p)
    for _ in range(100):
        n = rng.randint(0, 5)
        lead = rng.randint(1, p - 1) + p * rng.randint(-2, 2)
        g = [rng.randint(-2 * p, 2 * p) for _ in range(n)] + [lead]
        for length in (n, n + 1, n + 1 + rng.randint(1, 6)):
            f = [rng.randint(-2 * p, 2 * p) for _ in range(length)]
            quot, rem = poly_divmod(f, g, p)
            terms = itertools.zip_longest(poly_mul(quot, g, p), rem, f, fillvalue=0)
            assert all((x + r - c) % p == 0 for x, r, c in terms), (f, g)
            assert len(rem) <= n, (f, g)
            assert all(0 <= c < p for c in quot + rem), (f, g)
            assert quot[-1:] != [0] and rem[-1:] != [0], (f, g)


def test_degenerate_modulus_raises_instead_of_hanging():
    # [1, 7] has leading coefficient 0 mod 7: long division by it never lowers
    # the degree, so it must be refused like the empty modulus
    src = str(Path(brauersplit.__file__).resolve().parent.parent)
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from brauersplit.cyclotomic import poly_divmod, poly_mod, poly_pow_mod\n"
        "calls = (lambda: poly_mod([1, 1], [1, 7], 7), lambda: poly_divmod([1], [3, 0], 5),\n"
        "         lambda: poly_pow_mod([0, 1], 5, [2, 0, 14], 7), lambda: poly_pow_mod([1], 3, [], 5),\n"
        "         lambda: poly_pow_mod([0, 1], -1, [1, 1, 1], 5))\n"
        "for call in calls:\n"
        "    try:\n"
        "        print(call())\n"
        "    except (ZeroDivisionError, ValueError) as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, src], capture_output=True, text=True, timeout=10, check=True
    )
    assert proc.stdout.split() == ["ZeroDivisionError"] * 4 + ["ValueError"]


# ---------------------------------------------------------------------------
# decomposition of rational primes
# ---------------------------------------------------------------------------


def test_decomposition_examples():
    assert cyclotomic_decomposition(7, 3) == DecompositionType(1, 1, 2)
    assert cyclotomic_decomposition(2, 3) == DecompositionType(1, 2, 1)
    assert cyclotomic_decomposition(3, 5) == DecompositionType(1, 4, 1)


def test_decomposition_rejects_ramified():
    with pytest.raises(RamifiedPrimeError):
        cyclotomic_decomposition(5, 5)


def test_decomposition_efg():
    for q in SUPPORTED_Q:
        for p in primes_up_to(200):
            if p == q:
                continue
            dec = cyclotomic_decomposition(p, q)
            assert dec.e * dec.f * dec.g == q - 1
            assert dec.f == multiplicative_order(p, q)


# ---------------------------------------------------------------------------
# prime ideals above p
# ---------------------------------------------------------------------------


def brute_monic_factor(q, p, degree):
    # smallest monic divisor of Phi_q mod p by plain enumeration
    phi = [c % p for c in cyclotomic_polynomial(q)]
    for coeffs in itertools.product(range(p), repeat=degree):
        g = list(coeffs) + [1]
        if not poly_divmod(phi, g, p)[1]:
            return tuple(g)
    return None


def test_find_prime_ideal_examples():
    assert find_prime_ideal(2, 3).g == (1, 1, 1)
    assert find_prime_ideal(7, 3).g == (3, 1)
    ideal = find_prime_ideal(3, 13)
    assert ideal.residue_degree == 3
    assert ideal.g == brute_monic_factor(13, 3, 3)


def test_find_prime_ideal_matches_enumeration():
    for q in (3, 5, 7, 11):
        for p in primes_up_to(20):
            if p == q:
                continue
            f = multiplicative_order(p, q)
            if p**f > 4000:
                continue
            assert find_prime_ideal(p, q).g == brute_monic_factor(q, p, f)


def test_find_prime_ideal_rejects():
    with pytest.raises(RamifiedPrimeError):
        find_prime_ideal(7, 7)
    for q in (2, 9, 1):
        with pytest.raises(ValueError):
            find_prime_ideal(7, q)


def test_prime_ideals_of_every_odd_prime_q_are_accepted():
    # no class number enters: for any odd prime q the primes above p are the
    # (p, g) with g an irreducible factor of Phi_q mod p; at (23, 5) g is
    # Phi_23 itself (f = 22), and (101, 3) is past every bound of the CLI
    for q, p in ((23, 5), (23, 2), (29, 59), (37, 3), (101, 3), (97, 10**18 + 9)):
        ideal = find_prime_ideal(p, q)
        assert ideal.residue_degree == multiplicative_order(p, q), (q, p)
        assert not poly_divmod(cyclotomic_polynomial(q), list(ideal.g), p)[1], (q, p)
    assert find_prime_ideal(5, 23).g == (1,) * 23
    # the character takes a true factor at q = 23: an odd alpha is 1 in GF(2),
    # and chi(zeta) = zeta^((2^11 - 1)/23) at this prime of degree 11
    ideal = PrimeIdealRep(p=2, q=23, g=factor_cyclotomic_mod_p(23, 2)[0])
    assert power_residue_character(3, ideal) == PowerCharValue.root(23, 0)
    assert power_residue_character(CyclotomicInt.zeta(23), ideal) == PowerCharValue.root(23, 89)


def test_q_2_is_refused_by_the_one_check():
    # Phi_2 = x + 1, and the ring of x^2 - 1 would read x as zeta^0, a wrong
    # character: every entry refuses q = 2 through _check_order
    calls = (lambda: cyclotomic_polynomial(2), lambda: factor_cyclotomic_mod_p(2, 7),
             lambda: find_prime_ideal(7, 2), lambda: CyclotomicInt(2, (1,)),
             lambda: power_residue_character(2, PrimeIdealRep(p=7, q=2, g=(1, 1))))
    for call in calls:
        with pytest.raises(ValueError, match="prime must be odd"):
            call()


def test_factorization_is_complete_and_irreducible():
    # p < 50, then the full splits p = 1 mod q at q = 13, 17, 19, pairs
    # q >= 37 where the orbit sum of x takes one value on two factors, p = 2
    # at q = 23 (f = 11), and f = 1, 2, 18 at q = 19 near 10^12
    cases = [(q, p) for q in SUPPORTED_Q for p in primes_up_to(50) if p != q] + [
        (13, 53), (13, 79), (17, 103), (17, 137), (19, 191), (19, 229),
        (37, 211), (41, 139), (43, 251), (53, 83), (23, 2),
        (19, 1000000001419), (19, 1000000000163), (19, 1000000000063)]
    for q, p in cases:
        f = multiplicative_order(p, q)
        factors = factor_cyclotomic_mod_p(q, p)
        assert len(factors) == (q - 1) // f
        # product reconstructs Phi_q mod p
        prod = [1]
        for g in factors:
            assert len(g) - 1 == f
            assert g[-1] == 1
            prod = poly_mul(prod, list(g), p)
        assert prod == [c % p for c in cyclotomic_polynomial(q)]
        # irreducibility: x^(p^d) != x mod g for d < f, == for d = f
        for g in factors:
            gl = list(g)
            xr = poly_mod([0, 1], gl, p)
            x = xr
            for d in range(1, f + 1):
                x = _frob(x, gl, p)
                assert (x == xr) == (d == f)
    assert [multiplicative_order(p, q) for q, p in cases[-4:]] == [11, 1, 2, 18]


def _frob(poly, g, p):
    # poly^p mod g
    return schoolbook_pow_mod(poly, p, g, p)


def test_per_prime_caches_are_bounded():
    # characters above more distinct primes than the caches hold leave both
    # caches full at their bound, not grown past it
    primes = [p for p in primes_up_to(10**4) if p != 3]
    for p in primes:
        power_residue_character(2, find_prime_ideal(p, 3))
    for cache in (factor_cyclotomic_mod_p, _residue_ring):
        info = cache.cache_info()
        assert info.currsize == info.maxsize < len(primes)


def test_irreducible_phi_builds_no_ring(monkeypatch):
    # f = q - 1: Phi_q is irreducible mod p; f = 1: the factors are written
    # down from one root of unity.  Neither runs a trial, so no ring is built
    def no_ring(*args):
        raise AssertionError("a ring was built")

    monkeypatch.setattr(brauersplit.cyclotomic, "_PackedRing", no_ring)
    factor_cyclotomic_mod_p.cache_clear()
    assert factor_cyclotomic_mod_p(3, 2) == ((1, 1, 1),)
    assert factor_cyclotomic_mod_p(19, 2) == ((1,) * 19,)
    assert factor_cyclotomic_mod_p(3, 7) == ((3, 1), (5, 1))
    assert factor_cyclotomic_mod_p(5, 11) == ((2, 1), (6, 1), (7, 1), (8, 1))
    factors = factor_cyclotomic_mod_p(19, 1000000000000000931)
    assert len(factors) == 18 and factors[0] == (53772427141199532, 1)


def test_split_factors_are_the_roots_of_unity():
    # f = 1: Phi_q splits into the x - r over the q - 1 roots r != 1 of
    # r^q = 1, found here by trying every residue
    pairs = 0
    for q in (*SUPPORTED_Q, 23):
        for p in primes_up_to(3000):
            if p % q == 1:
                roots = [r for r in range(2, p) if pow(r, q, p) == 1]
                assert factor_cyclotomic_mod_p(q, p) == tuple((-r % p, 1) for r in reversed(roots)), (q, p)
                pairs += 1
    assert pairs == 525


def test_trials_are_fixed_by_frobenius(monkeypatch):
    # every trial lies in Berlekamp's subalgebra: v^p = v(x^(p mod q)) is v,
    # so v is a constant mod each factor of Phi_q.  A pair whose trials stop
    # splitting fails after 20 of them instead of hanging.
    trials = []
    pow_ = _PackedRing.pow

    def recording(ring, a, e):
        if ring.wrap:
            assert ring.frobenius(a) == a, (ring.q, ring.p, ring.unpack(a))
            assert trials[-1] < 20, (ring.q, ring.p)
            trials[-1] += 1
        return pow_(ring, a, e)

    monkeypatch.setattr(_PackedRing, "pow", recording)
    for q in (*SUPPORTED_Q, 23):
        for p in primes_up_to(199):
            if p != q:
                trials.append(0)
                factor_cyclotomic_mod_p.cache_clear()
                factor_cyclotomic_mod_p(q, p)
    assert max(trials) > 0


def test_exponent_reads_x_to_the_k_plus_a_multiple_of_phi():
    # modulo x^q - 1 a character value is x^k + c Phi_q for some constant c
    for q in SUPPORTED_Q:
        for p in (2, 3, 5, 101, 999983, 10**18 + 9):
            if p == q:
                continue
            ring = _PackedRing(cyclotomic_polynomial(q), p, q)
            for c in (0, 1, p - 1):
                for k in range(q):
                    slots = [c] * q
                    slots[k] = (c + 1) % p
                    assert ring.exponent(ring.pack(slots)) == k, (q, p, c, k)


def test_factor_list_is_sorted():
    for q, p in ((13, 3), (7, 2), (19, 7), (11, 23)):
        factors = factor_cyclotomic_mod_p(q, p)
        assert list(factors) == sorted(factors)


# ---------------------------------------------------------------------------
# q-power residue character
# ---------------------------------------------------------------------------


def field_elements(ideal):
    # all residues of GF(p)[x]/(g)
    p, d = ideal.p, ideal.residue_degree
    for coeffs in itertools.product(range(p), repeat=d):
        yield [c for c in coeffs]


def brute_qth_powers(ideal):
    p, q = ideal.p, ideal.q
    g = list(ideal.g)
    powers = set()
    for e in field_elements(ideal):
        powers.add(tuple(schoolbook_pow_mod(e, q, g, p)))
    return powers


def test_character_frozen_example():
    ideal = find_prime_ideal(7, 3)
    assert power_residue_character(2, ideal) == PowerCharValue.root(3, 1)
    assert power_residue_character(1, ideal) == PowerCharValue.root(3, 0)
    assert power_residue_character(7, ideal).is_zero
    assert power_residue_character(4, ideal) == PowerCharValue.root(3, 2)


def test_character_of_qth_power_is_trivial():
    ideal = find_prime_ideal(11, 5)
    for a in range(2, 9):
        assert power_residue_character(a**5, ideal).is_trivial


def test_character_power_test_equivalence_small():
    for p, q in ((7, 3), (13, 3), (11, 5), (2, 7), (3, 11)):
        ideal = find_prime_ideal(p, q)
        if ideal.residue_size > 2500:
            continue
        powers = brute_qth_powers(ideal)
        for a in range(1, p):
            chi = power_residue_character(a, ideal)
            assert chi.is_trivial == (tuple(poly_mod([a], list(ideal.g), p)) in powers)


def test_character_of_cyclotomic_elements_against_qth_powers():
    # every residue field with f > 1 and p^f <= 2500 (27 fields), alpha
    # running over every residue of degree < f as an element of Z[zeta_q]:
    # the non-constant path, checked against literal q-th power sets
    fields = 0
    for q in SUPPORTED_Q:
        for p in primes_up_to(2500):
            f = multiplicative_order(p, q) if p != q else 0
            if f < 2 or p**f > 2500:
                continue
            fields += 1
            ideal = find_prime_ideal(p, q)
            powers = brute_qth_powers(ideal)
            for coeffs in field_elements(ideal):
                chi = power_residue_character(CyclotomicInt(q, tuple(coeffs) + (0,) * (q - 1 - f)), ideal)
                assert chi.is_zero == (not any(coeffs))
                if any(coeffs):
                    assert chi.is_trivial == (tuple(poly_mod(coeffs, list(ideal.g), p)) in powers), (coeffs, p, q)
    assert fields == 27


def test_character_exponent_is_exact():
    # chi(zeta^j) = zeta^(j (p^f - 1)/q) by definition, so the exponent k
    # itself is pinned for every f, not only whether chi is zero or trivial;
    # then chi(alpha zeta^j) = chi(alpha) chi(zeta)^j for random alpha
    rng = random.Random(2718)
    fields = nontrivial = 0
    for q in SUPPORTED_Q:
        for p in [*primes_up_to(400), 10**18 + 9, 1000000000000000931]:
            if p == q:
                continue
            ideal = find_prime_ideal(p, q)
            e = (ideal.residue_size - 1) // q
            for j in range(q):
                chi = power_residue_character(CyclotomicInt.zeta(q, j), ideal)
                assert chi == PowerCharValue.root(q, j * e), (j, p, q)
            for _ in range(3):
                alpha = CyclotomicInt(q, tuple(rng.randrange(-p, p) for _ in range(q - 1)))
                chi = power_residue_character(alpha, ideal)
                for j in range(q):
                    want = chi * PowerCharValue.root(q, j * e)
                    assert power_residue_character(alpha * CyclotomicInt.zeta(q, j), ideal) == want, (alpha, j, p)
            fields += 1
            nontrivial += ideal.residue_degree > 1 and e % q != 0
    assert (fields, nontrivial) == (553, 414)


def test_character_multiplicative():
    for p, q in ((7, 3), (13, 3), (31, 5), (29, 7)):
        ideal = find_prime_ideal(p, q)
        for a in range(1, min(p, 12)):
            for b in range(1, min(p, 12)):
                ca = power_residue_character(a, ideal)
                cb = power_residue_character(b, ideal)
                assert power_residue_character(a * b, ideal) == ca * cb


def test_character_accepts_every_prime_above_p():
    # every factor of Phi_q mod p is a prime ideal, not only the one
    # find_prime_ideal picks; zeta^((p^f - 1)/q) is the same power of zeta
    # in every residue field
    for q in SUPPORTED_Q:
        z = CyclotomicInt.zeta(q)
        for p in primes_up_to(60):
            if p == q:
                continue
            f = multiplicative_order(p, q)
            for g in factor_cyclotomic_mod_p(q, p):
                chi = power_residue_character(z, PrimeIdealRep(p=p, q=q, g=g))
                assert chi == PowerCharValue.root(q, (p**f - 1) // q), (q, p, g)


def test_character_accepts_cyclotomic_elements():
    ideal = find_prime_ideal(7, 3)
    z = CyclotomicInt.zeta(3)
    chi = power_residue_character(z, ideal)
    # zeta maps to the class of x so its character is a q-th root of unity
    assert not chi.is_zero
    # zeta = zeta^(q+...): chi(zeta)^3 = chi(zeta^3) = chi(1) = 1  (consistency)
    cubed = power_residue_character(z * z * z, ideal)
    assert cubed.is_trivial
    with pytest.raises(ValueError):
        power_residue_character(CyclotomicInt.zeta(5), ideal)


def test_character_inert_case_identity():
    # A rational integer coprime to p lies in F_p.  For f > 1, F_p holds no
    # nontrivial q-th root of unity, so the character is trivial; for f = 1,
    # g = x - r and the character is the k with a^((p-1)/q) = r^k in F_p.
    for q in SUPPORTED_Q:
        for p in primes_up_to(200):
            if p == q:
                continue
            ideal = find_prime_ideal(p, q)
            if ideal.residue_degree > 1:
                for a in range(1, p):
                    assert power_residue_character(a, ideal).is_trivial
                continue
            r = -ideal.g[0] % p
            logs = {pow(r, k, p): k for k in range(q)}
            assert len(logs) == q
            for a in range(1, p):
                k = logs[pow(a, (p - 1) // q, p)]
                assert power_residue_character(a, ideal) == PowerCharValue.root(q, k)


# ---------------------------------------------------------------------------
# Kummer splitting
# ---------------------------------------------------------------------------


def test_kummer_examples():
    assert kummer_splitting(7, 7, 3) is SplittingClass.RAMIFIED
    assert kummer_splitting(1, 7, 3) is SplittingClass.SPLIT
    assert kummer_splitting(2, 7, 3) is SplittingClass.INERT


def test_integer_alpha_splits_when_f_exceeds_1():
    # at f > 1, q does not divide p - 1, so q (p - 1) divides p^f - 1 and an
    # integer alpha has character 1, or 0 when p | alpha
    for q in SUPPORTED_Q:
        for p in primes_up_to(500):
            if p == q or (f := multiplicative_order(p, q)) == 1:
                continue
            g = list(find_prime_ideal(p, q).g)
            for alpha in (2, -3, p - 1, p, -2 * p, 1000003):
                chi = schoolbook_pow_mod([alpha], (p**f - 1) // q, g, p)
                assert chi == ([] if alpha % p == 0 else [1]), (q, p, alpha)
                want = SplittingClass.RAMIFIED if alpha % p == 0 else SplittingClass.SPLIT
                assert kummer_splitting(alpha, p, q) is want, (q, p, alpha)


def test_kummer_rejects_zero():
    with pytest.raises(ValueError):
        kummer_splitting(0, 7, 3)
    with pytest.raises(ValueError):
        kummer_splitting(CyclotomicInt(3, (0, 0)), 7, 3)


def test_character_rejects_malformed_ideal():
    with pytest.raises(TypeError):
        power_residue_character(2.0, find_prime_ideal(7, 3))  # neither int nor CyclotomicInt
    with pytest.raises(ValueError):
        power_residue_character(2, PrimeIdealRep(p=7, q=3, g=(1, 1)))  # x+1 does not divide Phi_3
    with pytest.raises(ValueError):
        power_residue_character(2, PrimeIdealRep(p=7, q=3, g=(1, 1, 1)))  # wrong degree
    with pytest.raises(ValueError):
        power_residue_character(2, PrimeIdealRep(p=7, q=3, g=(3, 2)))  # not monic
    with pytest.raises(ValueError):
        # monic of degree f = ord(2 mod 7) = 3, but x^3 + 1 = (x + 1)(x^2 + x + 1) mod 2
        power_residue_character(3, PrimeIdealRep(p=2, q=7, g=(1, 0, 0, 1)))
    with pytest.raises(ValueError):
        # monic of degree f = ord(2 mod 23) = 11, but x^11 + 1 is no factor of Phi_23 mod 2
        power_residue_character(3, PrimeIdealRep(p=2, q=23, g=(1,) + (0,) * 10 + (1,)))
    with pytest.raises(ValueError):
        power_residue_character(2, PrimeIdealRep(p=2, q=9, g=(1, 1, 1)))  # q = 9 is no prime
    with pytest.raises(ValueError):
        power_residue_character(2, PrimeIdealRep(p=3, q=2, g=(1, 1)))  # Phi_2 = x + 1, q even


# ---------------------------------------------------------------------------
# odd prime q past the class-number-one range
# ---------------------------------------------------------------------------


def _random_element(rng, q, p):
    return CyclotomicInt(q, tuple(rng.randrange(-p, p) for _ in range(q - 1)))


def test_character_against_schoolbook_powers_past_q_19():
    # criterion 9's sweep for q in 23, 29, 31, 37: every residue field of size
    # at most 2500, and there the exact k of chi(alpha) = zeta^k, read off the
    # schoolbook alpha^((p^f - 1)/q) mod g, for integers and Z[zeta_q]
    rng = random.Random(23)
    fields = extension_fields = 0
    for q in (23, 29, 31, 37):
        for p in primes_up_to(2500):
            f = multiplicative_order(p, q) if p != q else 0
            if not f or p**f > 2500:
                continue
            ideal = find_prime_ideal(p, q)
            g, e = list(ideal.g), (p**f - 1) // q
            xk = [poly_mod([0] * k + [1], g, p) for k in range(q)]
            alphas = [*range(1, min(p, 30)), p, -2 * p] + [_random_element(rng, q, p) for _ in range(4)]
            for alpha in alphas:
                power = schoolbook_pow_mod(list(getattr(alpha, "coeffs", [alpha])), e, g, p)
                chi = power_residue_character(alpha, ideal)
                assert chi.k == (xk.index(power) if power else None), (alpha, p, q)
            fields += 1
            extension_fields += f > 1
    assert (fields, extension_fields) == (52, 3)


def test_character_multiplicative_at_q_23():
    # f = 11, 22, 1, 2, 11 and 22, the last two near 10^18
    rng = random.Random(29)
    for p in (2, 5, 47, 137, 10**18 + 9, 1000000000000000931):
        ideal = find_prime_ideal(p, 23)
        elements = [CyclotomicInt.from_int(23, a) for a in (2, 3, p)]
        elements += [_random_element(rng, 23, p) for _ in range(4)]
        for a in elements:
            for b in elements:
                want = power_residue_character(a, ideal) * power_residue_character(b, ideal)
                assert power_residue_character(a * b, ideal) == want, (a, b, p)


def test_kummer_splitting_follows_the_character_at_q_23():
    rng = random.Random(31)
    seen = set()
    for p in (2, 5, 47, 139, 137, 10**18 + 9):
        ideal = find_prime_ideal(p, 23)
        for alpha in (2, 3, p, -2 * p, *(_random_element(rng, 23, p) for _ in range(4))):
            chi = power_residue_character(alpha, ideal)
            want = (SplittingClass.RAMIFIED if chi.is_zero
                    else SplittingClass.SPLIT if chi.is_trivial else SplittingClass.INERT)
            assert kummer_splitting(alpha, p, 23) is want, (alpha, p)
            seen.add(want)
    assert seen == set(SplittingClass)
