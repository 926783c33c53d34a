"""Rescanning multivariate division: a test-only oracle.

This is chromideal.poly.normal_form before it learned to compute a term's
order key only when the term enters the work list and keep the terms in a
heap, to index the divisors' leading terms by variable once per basis, to
build monomials by merging exps tuples, to build the quotients at the end
and to divide over ZZ.  Its monomial divisibility test and quotient are the
dict-built ones of dict_product.py.  It accepts any sequence of divisors, a
Divisors tuple included.  Every step it scans the whole work list for its
largest term and tries every divisor's leading monomial in list order, so
the differential tests can check that the production division returns
equal quotients and an equal remainder, not just a valid division.
"""

from __future__ import annotations

from collections.abc import Sequence

from chromideal.poly import (
    FieldMismatchError,
    Monomial,
    Polynomial,
    TermOrder,
    ZeroPolynomialError,
    _add_terms,
    _raw,
)
from dict_product import dict_monomial_divide, dict_monomial_divides


def full_normal_form(
    f: Polynomial, basis: Sequence[Polynomial], order: TermOrder
) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division of f by an ordered list of divisors.

    Returns (quotients, remainder) with f = sum(q_i * basis_i) + r and no
    term of r divisible by any divisor's leading monomial.  Deterministic:
    the order-largest reducible term is processed first and divisors are
    tried in list order.
    """
    fld = f.field
    heads = []
    for g in basis:
        if g.is_zero:
            raise ZeroPolynomialError("zero polynomial in division basis")
        if g.field != fld:
            raise FieldMismatchError(f"{fld} vs {g.field}")
        heads.append(g.leading_term(order))
    quots: list[list[tuple[Monomial, object]]] = [[] for _ in basis]
    rem: dict[Monomial, object] = {}
    work = dict(f.terms)
    key = order.sort_key
    while work:
        lm = max(work, key=key)
        lc = work[lm]
        for i, (gm, gc) in enumerate(heads):
            if dict_monomial_divides(gm, lm):
                q = dict_monomial_divide(lm, gm)
                qc = fld.div(lc, gc)
                quots[i].append((q, qc))
                neg_qc = fld.neg(qc)
                _add_terms(fld, work, ((q * m2, fld.mul(neg_qc, c2))
                                       for m2, c2 in basis[i].terms.items()))
                break
        else:
            rem[lm] = lc
            del work[lm]
    return [_raw(fld, _add_terms(fld, {}, q)) for q in quots], _raw(fld, rem)

