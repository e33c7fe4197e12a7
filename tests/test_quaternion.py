import time
import tracemalloc
from collections import Counter
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from brauersplit.arith import factorize, is_prime, primes_up_to
from brauersplit.quaternion import (
    CONVERSE_PROVEN,
    CRITERIA,
    SUPPORTED_N,
    QuaternionAlgebra,
    Representation,
    congruence_criterion,
    is_split_quaternion_Q,
    represent,
    representation_criterion,
    split_over_odd_degree_field,
    _represented,
    _segment_codes,
    verify_equivalence,
)
from represent_reference import scan_represent

ODD_PRIMES = [q for q in primes_up_to(1000) if q != 2]


def test_supported_n():
    assert SUPPORTED_N == (3, 5, 6, 7, 10, 13, 14, 15, 21, 22, 30)
    assert CONVERSE_PROVEN == {3, 5, 7, 13}


def test_criteria_table_contents():
    # the residue lists, item by item
    expected = {
        3: (3, {1}, {3}),
        5: (20, {1, 9}, {5}),
        6: (24, {1, 7}, set()),
        7: (7, {1, 2, 4}, {7}),
        10: (40, {1, 9, 11, 19}, set()),
        13: (52, {1, 9, 17, 25, 29, 49}, {13}),
        14: (56, {1, 9, 15, 23, 25, 39}, set()),
        15: (60, {1, 19, 31, 49}, set()),
        21: (84, {1, 25, 37}, set()),
        22: (88, {1, 9, 15, 23, 25, 31, 47, 49, 71, 81}, set()),
        30: (120, {1, 31, 49, 79}, set()),
    }
    assert set(CRITERIA) == set(expected)
    for n, (modulus, classes, special) in expected.items():
        crit = CRITERIA[n]
        assert crit.modulus == modulus
        assert crit.classes == classes
        assert crit.special_primes == special


def _principal_genus(n):
    # H_n = {x^2 + n*y^2 mod 4n, prime to 4n} (Cox, Primes of the Form
    # x^2 + ny^2, Sec. 2-3); n*y^2 mod 4n is 0 or n and x^2 mod 4n repeats
    # with period 2n, so x^2 and x^2 + n for x < 2n give every value
    m = 4 * n
    return {v % m for x in range(2 * n) for v in (x * x, x * x + n) if gcd(v, m) == 1}


def _reduced_form_count(n):
    # h(-4n): primitive forms a*x^2 + b*x*y + c*y^2 of discriminant -4n with
    # |b| <= a <= c, and b >= 0 when |b| = a or a = c
    count = 0
    for a in range(1, isqrt(4 * n // 3) + 1):
        for b in range(-a + 1, a + 1):
            c, r = divmod(b * b + 4 * n, 4 * a)
            if not r and c >= a and not (b < 0 and a == c) and gcd(gcd(a, b), c) == 1:
                count += 1
    return count


def _one_form_per_genus(n):
    # n is idoneal iff h(-4n) equals the genus count phi(4n) / (2|H_n|)
    units = sum(gcd(u, 4 * n) == 1 for u in range(4 * n))
    return _reduced_form_count(n) * 2 * len(_principal_genus(n)) == units


def test_criteria_classes_are_the_principal_genus():
    for n, crit in CRITERIA.items():
        units = [u for u in range(4 * n) if gcd(u, 4 * n) == 1]
        assert _principal_genus(n) == {u for u in units if u % crit.modulus in crit.classes}, n


def test_criteria_are_exact_iff_one_form_per_genus():
    # for n = 14 it is 4 forms against 2 genera, so the classes are genus-only
    assert {n for n in CRITERIA if _one_form_per_genus(n)} == set(CRITERIA) - {14}
    assert _reduced_form_count(14) == 4


# Euler's idoneal numbers below 1000: 62 of his 65, which end at 1848;
# Weinberger (1973) showed that at most one more exists
EULER_IDONEAL_BELOW_1000 = {
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 18, 21, 22, 24, 25, 28, 30,
    33, 37, 40, 42, 45, 48, 57, 58, 60, 70, 72, 78, 85, 88, 93, 102, 105, 112,
    120, 130, 133, 165, 168, 177, 190, 210, 232, 240, 253, 273, 280, 312, 330,
    345, 357, 385, 408, 462, 520, 760, 840,
}


def test_one_form_per_genus_finds_eulers_idoneal_numbers():
    # a miscounted form, such as a*x^2 - b*x*y + a*y^2 counted beside its
    # twin, breaks the list
    assert len(EULER_IDONEAL_BELOW_1000) == 62
    assert {n for n in range(1, 1000) if _one_form_per_genus(n)} == EULER_IDONEAL_BELOW_1000


def test_algebra_rejects_zero():
    with pytest.raises(ValueError):
        QuaternionAlgebra(0, 5)


def test_split_examples():
    assert is_split_quaternion_Q(QuaternionAlgebra(-1, 5)) is True
    assert is_split_quaternion_Q(QuaternionAlgebra(-1, 3)) is False
    assert is_split_quaternion_Q(QuaternionAlgebra(-2, 3)) is True
    assert is_split_quaternion_Q(QuaternionAlgebra(-3, 7)) is True


def test_split_minus_one_matches_mod_four():
    for q in ODD_PRIMES:
        assert is_split_quaternion_Q(QuaternionAlgebra(-1, q)) == (q % 4 == 1)


def test_split_minus_two_matches_mod_eight():
    for q in ODD_PRIMES:
        assert is_split_quaternion_Q(QuaternionAlgebra(-2, q)) == (q % 8 in (1, 3))


def test_congruence_examples():
    assert congruence_criterion(3, 7) is True
    assert congruence_criterion(5, 29) is True
    assert congruence_criterion(7, 7) is True
    assert congruence_criterion(6, 5) is False


def test_congruence_rejects_bad_input():
    with pytest.raises(ValueError):
        congruence_criterion(4, 7)
    with pytest.raises(ValueError):
        congruence_criterion(3, 2)
    with pytest.raises(ValueError):
        congruence_criterion(3, 9)


def test_representation_criterion_n14_examples():
    assert representation_criterion(14, 23) is True  # 3^2 + 14*1^2
    # in the printed classes, but 2*x^2 + 7*y^2: 71 = 2*2^2 + 7*3^2, 79 = 2*6^2 + 7*1^2
    for q in (71, 79):
        assert congruence_criterion(14, q) is True
        assert representation_criterion(14, q) is False
    assert representation_criterion(14, 7) is False


def test_representation_criterion_n14_near_10_18():
    x = 10**9 + 3
    principal = x * x + 14 * 100000110**2
    other = 2 * x * x + 7 * 100000173**2
    assert is_prime(principal) and is_prime(other)
    # both lie in the genus the printed classes describe
    assert congruence_criterion(14, principal) and congruence_criterion(14, other)
    t0 = time.perf_counter()
    assert representation_criterion(14, principal) is True
    assert representation_criterion(14, other) is False
    assert time.perf_counter() - t0 < 1.0
    # q - 1 divisible by 2^20 .. 2^27, where Tonelli-Shanks walks longest;
    # the last two sit in the printed classes but are not x^2 + 14*y^2
    deep = {
        7340033: True,
        167772161: True,
        469762049: True,
        998244353: True,
        2013265921: True,
        104857601: False,
        3221225473: False,
    }
    for q, expected in deep.items():
        assert (q - 1) % 2**20 == 0 and congruence_criterion(14, q)
        assert representation_criterion(14, q) is expected
        assert (represent(14, q) is not None) is expected


def test_representation_criterion_rejects_bad_input():
    for n, q in ((4, 7), (14, 2), (14, 9), (3, 2), (3, 9)):
        with pytest.raises(ValueError):
            representation_criterion(n, q)


def test_represent_examples():
    assert represent(3, 7) == Representation(2, 1)
    assert represent(7, 7) == Representation(0, 1)
    assert represent(3, 5) is None
    assert represent(13, 29) == Representation(4, 1)


def test_represent_picks_smallest_y():
    # for n = 1 both (x, y) and (y, x) solve; the contract is the smaller y
    assert represent(1, 5) == Representation(2, 1)
    assert represent(1, 13) == Representation(3, 2)
    for q in ODD_PRIMES:
        rep = represent(1, q)
        assert (rep is not None) == (q % 4 == 1)
        if rep is not None:
            assert rep.y < rep.x and rep.x**2 + rep.y**2 == q


def test_represent_matches_scan():
    # q = 2, q = n, q | n and n > q all fall inside this box
    primes = primes_up_to(3000)
    bad = [
        (n, q)
        for n in range(1, 121)
        for q in primes
        if represent(n, q) != scan_represent(n, q)
    ]
    assert bad == []
    assert represent(1, 2) == Representation(1, 1)
    assert represent(2, 2) == Representation(0, 1)
    assert represent(6, 3) is None and represent(3, 2) is None


def test_represent_rejects_bad_input():
    for n, q in ((0, 5), (-3, 7), (3, 9), (3, 1)):
        with pytest.raises(ValueError):
            represent(n, q)


def test_split_over_odd_degree_field():
    assert split_over_odd_degree_field(1, QuaternionAlgebra(-1, 5)) is True
    assert split_over_odd_degree_field(3, QuaternionAlgebra(-1, 3)) is False
    assert split_over_odd_degree_field(5, QuaternionAlgebra(-3, 7)) is True
    with pytest.raises(ValueError):
        split_over_odd_degree_field(2, QuaternionAlgebra(-1, 5))


@given(st.sampled_from([1, 3, 5, 7, 9]), st.integers(-20, 20).filter(bool), st.integers(-20, 20).filter(bool))
def test_odd_degree_reduction_is_constant_in_degree(d, a, b):
    algebra = QuaternionAlgebra(a, b)
    assert split_over_odd_degree_field(d, algebra) == is_split_quaternion_Q(algebra)


def test_verify_equivalence_clean_cases():
    report = verify_equivalence(3, 100)
    assert report.disagreements == ()
    assert report.mandated_ok
    assert report.primes_checked == len([q for q in primes_up_to(100) if q != 2])

    report = verify_equivalence(13, 1000)
    assert report.disagreements == ()
    assert report.mandated_ok


def test_verify_equivalence_n6():
    report = verify_equivalence(6, 1000)
    assert report.representation_iff_congruence
    assert report.congruence_implies_split
    assert not report.converse_required
    assert report.converse_failures == ()


def test_verify_equivalence_vacuous_bound():
    report = verify_equivalence(5, 3)
    assert report.primes_checked == 1
    assert report.split_count == 0
    assert report.mandated_ok


def test_verify_equivalence_exposes_false_criterion_for_14():
    # The printed residue classes mod 56 describe the full genus of
    # x^2 + 14*y^2, which contains a second form 2*x^2 + 7*y^2; primes such
    # as 71 = 2*4 + 7*9 land in the classes without being x^2 + 14*y^2.
    # The sweep is required to surface this, not hide it.
    report = verify_equivalence(14, 200)
    assert not report.representation_iff_congruence
    assert report.congruence_implies_split  # the one-directional claim is fine
    assert 71 in report.disagreements and 79 in report.disagreements
    assert not report.mandated_ok
    assert congruence_criterion(14, 71) is True
    assert represent(14, 71) is None
    assert 2 * 2**2 + 7 * 3**2 == 71


def test_verify_equivalence_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_equivalence(4, 100)
    with pytest.raises(ValueError):
        verify_equivalence(3, 2)


def _sweep_rows(n, bound, size):
    # (q, split, congruence, representable) for every odd prime q <= bound,
    # decoded byte by byte from the segment lanes p, s, c and r at
    # q = start + 2*i
    rows = []
    for start, count, *lanes in _segment_codes(n, bound, size):
        p, s, c, r = (lane.to_bytes(count, "little") for lane in lanes)
        rows += [(start + 2 * i, bool(s[i]), bool(c[i]), bool(r[i])) for i in range(count) if p[i]]
    return rows


def test_criteria_moduli_divide_8n():
    # the sweep reads congruence once per class mod 8n from the residue c,
    # which is exact only because q == c (mod 8n) fixes q mod every modulus
    # and because a special prime, dividing n, is alone in its class
    for n, crit in CRITERIA.items():
        assert (8 * n) % crit.modulus == 0, n
        assert all(n % p == 0 for p in crit.special_primes), n


def test_sweep_rows_match_the_public_decisions():
    # the rows read split and congruence once per class mod 8n (split by
    # reciprocity from the symbols at inf, 2 and p | n) and representability
    # from the values of x^2 + n*y^2; they must agree with the checked public
    # path, also for the primes q | n, which sit in classes of their own
    qs = [q for q in primes_up_to(3000) if q != 2]
    for n in SUPPORTED_N:
        per_class = Counter(q % (8 * n) for q in qs)
        units = [c for c in range(8 * n) if gcd(c, 8 * n) == 1]
        assert all(per_class[c] >= 2 for c in units), n  # every entry is reused
        assert factorize(n).keys() - {2} <= set(qs)
        rows = _sweep_rows(n, 3000, 3000)
        assert [row[0] for row in rows] == qs
        for q, split, cong, rep in rows:
            assert split == is_split_quaternion_Q(QuaternionAlgebra(-n, q)), (n, q)
            assert cong == congruence_criterion(n, q), (n, q)
            assert rep == (represent(n, q) is not None), (n, q)


@pytest.mark.parametrize("size", [1, 7, 64])
def test_sweep_rows_do_not_depend_on_the_segment_length(size):
    # below 2^15 verify_equivalence sieves in one segment, the rows the test
    # above checks; short segments put primes, multiples of the base primes
    # and values x^2 + n*y^2 at every segment edge
    for n in SUPPORTED_N:
        assert _sweep_rows(n, 3000, size) == _sweep_rows(n, 3000, 3000), n


def test_represented_marks_exactly_the_odd_values_of_the_form():
    # marks at composites are masked out of the codes, so the rows above cannot
    # see a wrong index there; every odd start up to 8n + 3 with windows of 1..64
    # odd numbers meets both parities of x and of n*y^2
    for n in SUPPORTED_N:
        top = 8 * n + 3 + 2 * 63
        marked = bytearray((top + 1) // 2)  # 1 at (v - 1) // 2 for odd v = x^2 + n*y^2
        for y in range(1, isqrt(top // n) + 1):
            for x in range(isqrt(top - n * y * y) + 1):
                if (v := x * x + n * y * y) % 2:
                    marked[(v - 1) // 2] = 1
        halves = [x * x // 2 for x in range(isqrt(top) + 1)]
        for start in range(3, 8 * n + 4, 2):
            for count in range(1, 65):
                # exactly the squares the window needs, so a read beyond them drops a mark
                needed = halves[: isqrt(start + 2 * count - 2) + 1]
                expected = marked[(start - 1) // 2 : (start - 1) // 2 + count]
                assert _represented(n, start, count, needed) == expected, (n, start, count)


def test_report_is_the_fold_of_the_rows():
    # verify_equivalence folds each segment's lanes by bit counts and ORs and
    # finds the hit primes in the lanes' bytes; the row-by-row fold over the
    # same 2^15-number segments is the reference.  65537 fills exactly one
    # segment, 65539 adds a second of one number (a prime), 140000 ends in a
    # third; n = 14 has disagreements in every full segment
    cases = [(n, bound) for bound in (3000, 140000) for n in SUPPORTED_N] + [(14, 65537), (14, 65539)]
    for n, bound in cases:
        rows = _sweep_rows(n, bound, 1 << 15)
        report = verify_equivalence(n, bound)
        assert report.primes_checked == len(rows), (n, bound)
        assert report.split_count == sum(s for _, s, _, _ in rows), (n, bound)
        assert report.congruence_count == sum(c for _, _, c, _ in rows), (n, bound)
        assert report.representation_count == sum(r for _, _, _, r in rows), (n, bound)
        assert report.disagreements == tuple(q for q, s, c, r in rows if not s == c == r), (n, bound)
        assert report.converse_failures == tuple(q for q, s, c, _ in rows if s and not c), (n, bound)
        assert report.representation_iff_congruence == all(r == c for _, _, c, r in rows), (n, bound)
        assert report.congruence_implies_split == all(s for _, s, c, _ in rows if c), (n, bound)
        assert report.split_implies_congruence == all(c for _, s, c, _ in rows if s), (n, bound)


def test_sweep_memory_is_flat_in_the_bound():
    # the sweep keeps no list of primes or rows: for n = 3 nothing but the
    # counts grows with the bound (there are no disagreements to report)
    peaks = []
    for bound in (10**5, 10**6):
        tracemalloc.start()
        try:
            report = verify_equivalence(3, bound)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.disagreements == () and report.mandated_ok
    assert peaks[1] - peaks[0] < 2**20, peaks


@settings(max_examples=30)
@given(st.sampled_from(SUPPORTED_N), st.sampled_from(ODD_PRIMES))
def test_congruence_implies_split(n, q):
    if congruence_criterion(n, q):
        assert is_split_quaternion_Q(QuaternionAlgebra(-n, q))


def test_report_serializes():
    d = verify_equivalence(3, 50).to_dict()
    assert d["n"] == 3 and isinstance(d["disagreements"], list)
    assert d["mandated_ok"] is True
