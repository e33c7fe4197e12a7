import pytest
from hypothesis import given, strategies as st

from brauersplit.arith import multiplicative_order, primes_up_to
from brauersplit.cyclotomic import (
    CyclotomicInt,
    RamifiedPrimeError,
    SplittingClass,
    kummer_splitting,
)
from brauersplit.localnorm import (
    NormTraceCase,
    SymbolAlgebraQuery,
    is_norm_unramified,
    symbol_algebra_norm_trace,
)


def test_norm_unramified_examples():
    assert is_norm_unramified(17, 1) is True
    assert is_norm_unramified(0, 5) is True
    assert is_norm_unramified(3, 2) is False
    assert is_norm_unramified(-4, 2) is True


def test_norm_unramified_rejects_bad_degree():
    with pytest.raises(ValueError):
        is_norm_unramified(1, 0)


@given(st.integers(-100, 100), st.integers(1, 20))
def test_norm_unramified_is_divisibility(m, f):
    assert is_norm_unramified(m, f) == (m % f == 0)


def test_query_validation():
    # q past 19 is accepted: p is the prime element p1 of the unramified
    # completion, so no class number enters; ord(7 mod 23) = 22
    trace = symbol_algebra_norm_trace(SymbolAlgebraQuery(alpha=2, p=7, q=23, l=1))
    assert (trace.case, trace.f_prime, trace.is_norm) == (NormTraceCase.INERT_BASE, 22, True)
    with pytest.raises(RamifiedPrimeError):
        SymbolAlgebraQuery(alpha=2, p=3, q=3, l=1)
    with pytest.raises(ValueError, match="6 is not a prime"):
        # p is tested once, by the trace's prime ideal, not at construction
        symbol_algebra_norm_trace(SymbolAlgebraQuery(alpha=2, p=6, q=3, l=1))
    with pytest.raises(ValueError):
        SymbolAlgebraQuery(alpha=2, p=7, q=3, l=0)


def test_trace_inert_base():
    # 5 generates the units mod 3, rational alpha forces trivial character
    trace = symbol_algebra_norm_trace(SymbolAlgebraQuery(alpha=2, p=5, q=3, l=1))
    assert trace.case is NormTraceCase.INERT_BASE
    assert trace.f_prime == 2
    assert trace.f_rel == 1
    assert trace.m == 3
    assert trace.is_norm is True


def test_trace_split_base_nontrivial_character():
    # 2 is not a cube mod 7; the prime above 7 stays inert upstairs
    trace = symbol_algebra_norm_trace(SymbolAlgebraQuery(alpha=2, p=7, q=3, l=2))
    assert trace.case is NormTraceCase.SPLIT_BASE_CHAR_NONTRIVIAL
    assert trace.f_prime == 1
    assert trace.f_rel == 3
    assert trace.m == 6
    assert trace.is_norm is True


def test_trace_split_base_trivial_character():
    trace = symbol_algebra_norm_trace(SymbolAlgebraQuery(alpha=1, p=7, q=3, l=1))
    assert trace.case is NormTraceCase.SPLIT_BASE_CHAR_ONE
    assert trace.f_rel == 1
    assert trace.is_norm is True


def test_trace_inert_base_higher_order():
    # ord(3 mod 5) = 4 = q-1
    trace = symbol_algebra_norm_trace(SymbolAlgebraQuery(alpha=2, p=3, q=5, l=1))
    assert trace.case is NormTraceCase.INERT_BASE
    assert trace.f_prime == 4
    assert trace.f_rel == 1
    assert trace.is_norm is True


def test_trace_ramified_reported_not_decided():
    trace = symbol_algebra_norm_trace(SymbolAlgebraQuery(alpha=7, p=7, q=3, l=1))
    assert trace.case is NormTraceCase.RAMIFIED
    assert trace.f_rel is None
    assert trace.is_norm is None


def test_trace_accepts_cyclotomic_alpha():
    z = CyclotomicInt.zeta(3)
    trace = symbol_algebra_norm_trace(SymbolAlgebraQuery(alpha=z, p=7, q=3, l=1))
    assert trace.is_norm is True
    assert trace.f_rel in (1, 3)


def test_norm_conclusion_sweep():
    # nonramified inputs always end in a norm; inert bases with rational
    # alpha always show the trivial character
    for q in (3, 5, 7):
        for p in primes_up_to(60):
            if p == q:
                continue
            for alpha in (2, 3, 10, 23):
                if alpha % p == 0:
                    continue
                for l in (1, 2):
                    trace = symbol_algebra_norm_trace(
                        SymbolAlgebraQuery(alpha=alpha, p=p, q=q, l=l)
                    )
                    assert trace.case is not NormTraceCase.RAMIFIED
                    assert trace.f_rel in (1, q)
                    assert (q * l) % trace.f_rel == 0
                    assert trace.is_norm is True
                    if trace.case is NormTraceCase.INERT_BASE:
                        assert trace.f_prime == q - 1
                        assert trace.f_rel == 1


def test_trace_case_consistent_with_f_prime():
    for q in (3, 5):
        for p in primes_up_to(40):
            if p == q or p == 2:  # p | alpha lands in the ramified branch
                continue
            trace = symbol_algebra_norm_trace(SymbolAlgebraQuery(alpha=2, p=p, q=q, l=1))
            if trace.case is NormTraceCase.INERT_BASE:
                assert trace.f_prime == q - 1
            else:
                assert trace.f_prime < q - 1
            assert trace.f_prime == multiplicative_order(p, q)


def test_trace_past_q_19_agrees_with_kummer_splitting():
    # the trace takes every odd prime q; its f_rel and RAMIFIED case must
    # tell the Kummer prime's splitting as kummer_splitting does
    seen = set()
    for q in (23, 29, 31, 37):
        z, one, two = CyclotomicInt.zeta(q), CyclotomicInt.from_int(q, 1), CyclotomicInt.from_int(q, 2)
        for p in primes_up_to(320):
            if p == q:
                continue
            alphas = (2, 3, 10, p, z, z + two, z * z - one, CyclotomicInt.from_int(q, p))
            for alpha in alphas:
                trace = symbol_algebra_norm_trace(SymbolAlgebraQuery(alpha=alpha, p=p, q=q, l=1))
                splitting = kummer_splitting(alpha, p, q)
                seen.add(trace.case)
                assert trace.f_prime == multiplicative_order(p, q), (alpha, p, q)
                ramified = trace.case is NormTraceCase.RAMIFIED
                assert ramified == (splitting is SplittingClass.RAMIFIED), (alpha, p, q)
                if ramified:
                    assert (trace.f_rel, trace.is_norm) == (None, None)
                    continue
                assert (trace.f_rel == 1) == (splitting is SplittingClass.SPLIT), (alpha, p, q)
                inert_base = trace.case is NormTraceCase.INERT_BASE
                assert inert_base == (trace.f_prime == q - 1), (alpha, p, q)
                assert trace.is_norm is True
    assert seen == set(NormTraceCase)
