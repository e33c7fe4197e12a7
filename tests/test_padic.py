import tracemalloc
from math import gcd
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from brauersplit.arith import primes_up_to
from brauersplit.padic import (
    ConicPoint,
    Place,
    hilbert_product,
    hilbert_symbol,
    lifting_threshold,
    qp_solvable_oracle,
    rational_point_search,
)

NONZERO_SMALL = st.integers(-30, 30).filter(bool)
SMALL_PRIMES = primes_up_to(30)


def _solvable_sweep(a: int, b: int, p: int, k: int) -> bool:
    # Literal enumeration of (x, y) in (Z/p^k)^2 with a square table for z.
    # x and y enter only through r^2 mod p^k and whether r is a unit, so each
    # such class of r stands for all its members.
    pk = p**k
    classes = {(r * r % pk, r % p != 0) for r in range(pk)}
    squares = {s for s, _ in classes}
    unit_squares = {s for s, unit in classes if unit}
    for sx, x_unit in classes:
        for sy, y_unit in classes:
            w = (a * sx + b * sy) % pk
            # x or y a unit: any z completing the congruence gives a primitive
            # triple; x and y both divisible by p: z must be a unit
            if w in (squares if x_unit or y_unit else unit_squares):
                return True
    return False


def test_place_validation_and_order():
    with pytest.raises(ValueError):
        Place(6)
    assert Place.infinite().is_infinite
    assert str(Place.infinite()) == "inf"
    assert str(Place(7)) == "7"
    assert Place.infinite() < Place(2) < Place(3)


def test_symbol_rejects_zero():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 5, Place(3))
    with pytest.raises(ValueError):
        hilbert_product(3, 0)


def test_symbol_at_infinity():
    assert hilbert_symbol(-1, -1, Place.infinite()) == -1
    assert hilbert_symbol(-3, 7, Place.infinite()) == 1
    assert hilbert_symbol(3, -7, Place.infinite()) == 1


def test_symbol_unit_places_are_trivial():
    # both arguments p-adic units at p not dividing 6q
    for q in (5, 7, 11, 13):
        for p in (11, 13, 17, 19, 23):
            if p == q:
                continue
            assert hilbert_symbol(-3, q, Place(p)) == 1


def test_symbol_minus_three_q_at_two_is_trivial():
    for q in [p for p in primes_up_to(100) if p != 2]:
        assert hilbert_symbol(-3, q, Place(2)) == 1


def test_symbol_frozen_values():
    assert hilbert_symbol(-1, 3, Place(2)) == -1
    assert hilbert_symbol(-3, 7, Place(7)) == 1


def test_product_all_trivial_for_unit_form():
    assert set(hilbert_product(1, 1).values()) == {1}


def test_product_minus_one_minus_one():
    table = hilbert_product(-1, -1)
    assert table == {Place.infinite(): -1, Place(2): -1}


def test_product_minus_three_seven():
    table = hilbert_product(-3, 7)
    assert set(table.values()) == {1}
    assert set(table) == {Place.infinite(), Place(2), Place(3), Place(7)}


@given(st.integers(-500, 500).filter(bool), st.integers(-500, 500).filter(bool))
def test_product_formula(a, b):
    prod = 1
    for v in hilbert_product(a, b).values():
        prod *= v
    assert prod == 1


@given(NONZERO_SMALL, NONZERO_SMALL, st.sampled_from(SMALL_PRIMES))
def test_symbol_symmetry(a, b, p):
    v = Place(p)
    assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)


@given(NONZERO_SMALL, NONZERO_SMALL, NONZERO_SMALL, st.sampled_from(SMALL_PRIMES))
def test_symbol_bilinear(a, b1, b2, p):
    v = Place(p)
    assert hilbert_symbol(a, b1 * b2, v) == hilbert_symbol(a, b1, v) * hilbert_symbol(a, b2, v)


@given(NONZERO_SMALL, NONZERO_SMALL, st.integers(-12, 12).filter(bool), st.sampled_from(SMALL_PRIMES))
def test_symbol_square_invariance(a, b, t, p):
    v = Place(p)
    assert hilbert_symbol(a * t * t, b, v) == hilbert_symbol(a, b, v)
    assert hilbert_symbol(a, b, Place.infinite()) == hilbert_symbol(a * t * t, b, Place.infinite())


def test_oracle_frozen_values():
    assert qp_solvable_oracle(1, 1, 2, 5) is True
    assert qp_solvable_oracle(1, 1, 7, 1) is True
    assert qp_solvable_oracle(-1, 3, 2, 5) is False
    assert qp_solvable_oracle(-3, 7, 7, 3) is True


def test_oracle_threshold_guard():
    # v_2(4*3*2) = 3 so k* = 7
    assert lifting_threshold(3, 2, 2) == 7
    with pytest.raises(ValueError):
        qp_solvable_oracle(3, 2, 2, 6)
    with pytest.raises(ValueError):
        qp_solvable_oracle(1, 1, 5, 0)
    with pytest.raises(ValueError):
        qp_solvable_oracle(0, 1, 5, 1)


@pytest.mark.parametrize("p, k", [(6, 3), (1, 1), (-7, 3)])
def test_oracle_rejects_a_p_that_is_not_prime(p, k):
    with pytest.raises(ValueError, match="is not a prime"):
        qp_solvable_oracle(1, 1, p, k)


@settings(max_examples=60)
@given(NONZERO_SMALL, NONZERO_SMALL, st.sampled_from(SMALL_PRIMES))
def test_oracle_agrees_with_symbol(a, b, p):
    k = lifting_threshold(a, b, p)
    assert qp_solvable_oracle(a, b, p, k) == (hilbert_symbol(a, b, Place(p)) == 1)


@settings(max_examples=60)
@given(st.integers(-40, 40).filter(bool), st.integers(-40, 40).filter(bool), st.sampled_from([2, 3, 5, 7]))
def test_sweep_and_digit_search_agree(a, b, p):
    # the literal enumeration and the digit search decide the same predicate
    # wherever the enumeration is affordable
    k = lifting_threshold(a, b, p)
    if p**k > 2048:
        return
    assert _solvable_sweep(a, b, p, k) == qp_solvable_oracle(a, b, p, k)


def test_sweep_and_digit_search_agree_at_modulus_2048():
    # v_2(4ab) = 5 puts the lifting threshold at k = 11, p^k = 2048
    for a, b in [(8, 1), (-8, 3), (2, 12), (-6, 20), (24, -5), (-1, -8)]:
        k = lifting_threshold(a, b, 2)
        assert 2**k == 2048
        assert _solvable_sweep(a, b, 2, k) == qp_solvable_oracle(a, b, 2, k)


@pytest.mark.parametrize("p", [1999, 2039])
def test_oracle_first_level_at_large_prime(p):
    # with b a non-residue the whole x = 0 row has no root, so a first level
    # that scanned z would spend p^2 steps there before the exit at x = 1
    b = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    start = perf_counter()
    verdict = qp_solvable_oracle(1, b, p, 1)
    assert perf_counter() - start < 0.1
    assert verdict == (hilbert_symbol(1, b, Place(p)) == 1)


def test_oracle_search_holds_only_its_path():
    # every level-2 survivor of (58, 87) at p = 29 has 29^3 extensions; a
    # search that queued them all would peak in the megabytes
    tracemalloc.start()
    try:
        assert qp_solvable_oracle(58, 87, 29, 5) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def _unit_classes(p):
    # one unit from each square class of Z_p^*: the classes mod 8 at p = 2,
    # a residue and a non-residue at odd p
    if p == 2:
        return (1, 3, 5, 7)
    return (1, next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1))


# Refuting a pair costs the oracle about p^(i+j) branches, so the sum of the
# valuations is capped per prime.  Each cap still goes past the criterion-6
# box |a|, |b| <= 30, which reaches 2^4, 3^3, 5^2 and 7^1.
VALUATION_SUM_CAP = {2: 5, 3: 5, 5: 3, 7: 2}


def test_oracle_agrees_with_symbol_at_high_valuations():
    # a = p^i * u and b = -p^j * v: the symbol depends on the parities of i
    # and j, the oracle on the literal arguments
    for p, cap in VALUATION_SUM_CAP.items():
        units = _unit_classes(p)
        for i in range(cap + 1):
            for j in range(cap + 1 - i):
                for u in units:
                    for v in units:
                        a, b = p**i * u, -(p**j) * v
                        k = lifting_threshold(a, b, p)
                        symbol = hilbert_symbol(a, b, Place(p))
                        assert qp_solvable_oracle(a, b, p, k) == (symbol == 1), (a, b, p)


def test_oracle_with_p_dividing_ab():
    # 2 and 3 are non-residues mod 101 and 5 is a residue
    for a, b in [(303, 2), (202, 3), (202, 5), (-101, 5)]:
        k = lifting_threshold(a, b, 101)
        assert k == 3
        assert qp_solvable_oracle(a, b, 101, k) == (hilbert_symbol(a, b, Place(101)) == 1)


def test_point_search_frozen_values():
    assert rational_point_search(-3, 3, 2) == ConicPoint(1, 1, 0)
    assert rational_point_search(1, 1, 2) == ConicPoint(0, 1, 1)
    assert rational_point_search(-3, 7, 10) == ConicPoint(1, 1, 2)


def test_point_search_returns_none_within_bound():
    # -x^2 - y^2 = z^2 has no nontrivial real point at all
    assert rational_point_search(-1, -1, 50) is None


def test_point_search_rejects_bad_input():
    with pytest.raises(ValueError):
        rational_point_search(0, 1, 5)
    with pytest.raises(ValueError):
        rational_point_search(1, 1, 0)


@settings(max_examples=80)
@given(st.integers(-25, 25).filter(bool), st.integers(-25, 25).filter(bool))
def test_point_search_soundness(a, b):
    point = rational_point_search(a, b, 12)
    if point is not None:
        assert point.on_conic(a, b)
        assert point.is_primitive()
        assert max(point.x, point.y, point.z) <= 12
        assert min(point.x, point.y, point.z) >= 0


def test_point_search_minimality():
    # brute-force the deterministic order on a few cases
    def brute(a, b, h):
        for m in range(1, h + 1):
            for x in range(m + 1):
                for y in range(m + 1):
                    for z in range(m + 1):
                        if max(x, y, z) != m:
                            continue
                        if a * x * x + b * y * y == z * z and gcd(gcd(x, y), z) == 1:
                            return ConicPoint(x, y, z)
        return None

    for a, b in [(-3, 3), (1, 1), (-3, 7), (2, 7), (-5, 11), (6, 10), (-14, 7)]:
        assert rational_point_search(a, b, 15) == brute(a, b, 15)
    box = [(a, b) for a in range(-12, 13) for b in range(-12, 13) if a and b]
    assert len(box) == 576
    assert [(a, b) for a, b in box if rational_point_search(a, b, 10) != brute(a, b, 10)] == []


def test_witness_found_when_everywhere_solvable():
    # split forms of modest size admit small points
    for a, b in [(-3, 7), (-1, 5), (-2, 3), (-5, 29), (-13, 29)]:
        assert all(v == 1 for v in hilbert_product(a, b).values())
        point = rational_point_search(a, b, 10**4)
        assert point is not None and point.on_conic(a, b)
