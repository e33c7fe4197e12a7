"""Norm membership in unramified local extensions and the symbol-algebra trace.

In an unramified local extension of residual degree f, an element of the base
field with valuation m is a norm iff f divides m; units are always norms.
`symbol_algebra_norm_trace` applies this to the degree-q symbol algebra with
parameters alpha and p1^(ql), p1 a prime element of the completion above p:
p itself, since the completion is unramified over Q_p (Serre, *Local Fields*,
Ch. V, Sec. 2), so no class number enters and q is any odd prime.  The
character of alpha gives the relative residual degree; divisibility decides.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from ._record import Record
from .cyclotomic import (
    CyclotomicInt,
    RamifiedPrimeError,
    find_prime_ideal,
    power_residue_character,
)


def is_norm_unramified(m: int, f: int) -> bool:
    """Is pi^m * u a norm from the unramified extension of residual degree f?
    True iff f divides m."""
    if f < 1:
        raise ValueError("residual degree must be positive")
    return m % f == 0


class NormTraceCase(Enum):
    INERT_BASE = "inert_base"
    SPLIT_BASE_CHAR_ONE = "split_base_char_one"
    SPLIT_BASE_CHAR_NONTRIVIAL = "split_base_char_nontrivial"
    RAMIFIED = "ramified"


class SymbolAlgebraQuery(Record, namedtuple("SymbolAlgebraQuery", "alpha p q l")):
    """Symbol algebra of degree q over the completion at a prime above p,
    with parameters (alpha, p1^(q*l)), p1 a prime element of it and alpha an
    int or a CyclotomicInt.  Checks p != q and l >= 1; the trace checks p
    and q once."""

    __slots__ = ()

    def __new__(cls, alpha: int | CyclotomicInt, p: int, q: int, l: int):
        if p == q:
            raise RamifiedPrimeError(f"p = q = {p} is outside the unramified analysis")
        if l < 1:
            raise ValueError("l must be a positive integer")
        return super().__new__(cls, alpha, p, q, l)


class SplitTrace(Record, namedtuple("SplitTrace", "case f_prime f_rel m is_norm")):
    """Decision trail: base-field decomposition case, residual degrees, and
    the norm verdict.  Ramified inputs (character zero) leave f_rel and
    is_norm undecided (None) rather than guessing."""

    __slots__ = ()


def symbol_algebra_norm_trace(query: SymbolAlgebraQuery) -> SplitTrace:
    """Classify the extension above p and decide whether p1^(q*l) is a norm.

    The character of alpha at the chosen prime ideal picks the relative
    residual degree: trivial character means totally split (f_rel = 1),
    a nontrivial root of unity means inert (f_rel = q); either way f_rel
    divides q*l, reproducing the expected norm conclusion.  Character zero
    means the Kummer extension ramifies at the prime, which the unramified
    norm criterion does not cover.
    """
    q, m = query.q, query.q * query.l
    ideal = find_prime_ideal(query.p, q)  # the one primality test of p
    f_prime = ideal.residue_degree
    chi = power_residue_character(query.alpha, ideal)
    if chi.is_zero:
        return SplitTrace(NormTraceCase.RAMIFIED, f_prime, f_rel=None, m=m, is_norm=None)
    f_rel = 1 if chi.is_trivial else q
    if f_prime == q - 1:
        case = NormTraceCase.INERT_BASE
    elif chi.is_trivial:
        case = NormTraceCase.SPLIT_BASE_CHAR_ONE
    else:
        case = NormTraceCase.SPLIT_BASE_CHAR_NONTRIVIAL
    return SplitTrace(case, f_prime, f_rel, m, is_norm=is_norm_unramified(m, f_rel))
