"""Dict-built products: a test-only oracle.

This is chromideal.poly.Monomial.__mul__ before it multiplied by merging the
two variable-sorted exps tuples: it adds the exponents in a dict and builds
the product through the validating, sorting Monomial constructor.  The
polynomial product here multiplies term by term through it, so the
differential tests can check that the production products return equal
monomials and equal polynomials.
"""

from __future__ import annotations

from chromideal.poly import Monomial, Polynomial


def dict_monomial_product(a: Monomial, b: Monomial) -> Monomial:
    d = dict(a.exps)
    for v, e in b.exps:
        d[v] = d.get(v, 0) + e
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
