"""Dict-built monomial arithmetic: a test-only oracle.

The monomial product here is chromideal.poly's before it merged the
variable-sorted exps tuples directly: it adds the exponents in a dict and
builds its result through the validating, sorting Monomial constructor.
The quotient, lcm and divisibility test are built the same way, and they
are the only ones: chromideal.poly has none, and full_division.py,
oracles.py and the tests use these.  The polynomial product here
multiplies term by term through the dict product, the S-polynomial is the
old construction of two scaled polynomials subtracted through
__sub__/__neg__, and the complete homogeneous polynomial is built from one
exponent dict per term, so the differential tests can check that the
production code returns equal monomials and equal polynomials.
"""

from __future__ import annotations

import itertools

from chromideal.poly import Monomial, Polynomial, TermOrder


def dict_monomial_product(a: Monomial, b: Monomial) -> Monomial:
    d = dict(a.exps)
    for v, e in b.exps:
        d[v] = d.get(v, 0) + e
    return Monomial(d)


def dict_monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True iff a divides b."""
    d = dict(b.exps)
    return all(d.get(v, 0) >= e for v, e in a.exps)


def dict_monomial_divide(a: Monomial, b: Monomial) -> Monomial:
    """Exact quotient a / b; raises ValueError if b does not divide a."""
    d = dict(a.exps)
    for v, e in b.exps:
        r = d.get(v, 0) - e
        if r < 0:
            raise ValueError(f"{b} does not divide {a}")
        d[v] = r
    return Monomial(d)


def dict_monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    d = dict(a.exps)
    for v, e in b.exps:
        d[v] = max(d.get(v, 0), e)
    return Monomial(d)


def term_by_term_product(f: Polynomial, g: Polynomial) -> Polynomial:
    """f * g, summing each pair of terms' product into a coefficient dict."""
    fld = f.field
    terms: dict[Monomial, object] = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = dict_monomial_product(m1, m2)
            terms[m] = fld.add(terms.get(m, fld.zero), fld.mul(c1, c2))
    return Polynomial(fld, terms)


def subtracted_s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    """lcm(LM f, LM g)/LT(f) * f - lcm/LT(g) * g, with every product and the
    difference computed in full (the head terms cancel in the subtraction)."""
    fm, fc = f.leading_term(order)
    gm, gc = g.leading_term(order)
    lcm = dict_monomial_lcm(fm, gm)
    fld = f.field

    def scaled(p, m, c):
        return Polynomial(fld, {dict_monomial_product(tm, m): fld.mul(tc, c)
                                for tm, tc in p.terms.items()})

    return (scaled(f, dict_monomial_divide(lcm, fm), fld.inv(fc))
            - scaled(g, dict_monomial_divide(lcm, gm), fld.inv(gc)))


def dict_complete_homogeneous(d: int, variables, field) -> Polynomial:
    """Sum of all degree-d monomials in the given variables, one exponent
    dict and one validating Monomial per term."""
    terms = {}
    for combo in itertools.combinations_with_replacement(variables, d):
        exps: dict[int, int] = {}
        for v in combo:
            exps[v] = exps.get(v, 0) + 1
        terms[Monomial(exps)] = field.one
    return Polynomial(field, terms)
