"""The production division returns what rescanning division returns.

poly.normal_form keeps its terms in a heap of order keys, divides by a
Divisors index that callers may build once and reuse, builds its quotients
at the end, and runs over ZZ when the divisors and the dividend allow it.
None of this may change the answer: these tests compare the quotient lists
and the remainder (not just the validity of the division) with the oracle in
full_division.py, on seeded random divisions, on reused and mismatched
Divisors, on both sides of the ZZ rule, on chordal bases, and through
buchberger_criterion.  S-polynomials are compared with the subtracted
construction in dict_product.py.
"""

import random
from fractions import Fraction

import pytest

import chromideal.oracle
from chromideal.chordal import build_groebner_basis
from chromideal.fields import GF, QQ
from chromideal.graphs import random_chordal
from chromideal.ideals import build_ideal
from chromideal.oracle import buchberger_criterion
from chromideal.poly import (
    GRLEX,
    LEX,
    Divisors,
    Monomial,
    Polynomial,
    TermOrder,
    normal_form,
    s_polynomial,
)
from dict_product import subtracted_s_polynomial
from full_division import full_normal_form
from oracles import OracleBudgetExceeded, buchberger

FIELDS = (QQ, GF(2), GF(7))
KINDS = (LEX, GRLEX)
NVARS = 4
UNITS = (1, 3, 5)  # nonzero in every field of FIELDS


def random_order(rng, kind):
    """A term order ranking x1..x4 in a random order, not by index."""
    ranks = rng.sample(range(1, 20), NVARS)
    return TermOrder(kind, {v: r for v, r in zip(range(1, NVARS + 1), ranks)})


def random_monomial(rng, max_exp=2):
    return Monomial({v: rng.randint(0, max_exp) for v in range(1, NVARS + 1)})


def random_poly(rng, field, n_terms):
    terms = [(random_monomial(rng), rng.randint(-3, 3)) for _ in range(n_terms)]
    return Polynomial(field, [(m, c) for m, c in terms if c])


def random_divisor(rng, field, order, basis):
    """A nonzero divisor of one shape: a pure-power head, a mixed head, a
    constant, or a repeat of an earlier divisor's head."""
    shape = rng.choice(("pure", "mixed", "mixed", "constant", "repeat"))
    if shape == "constant":
        return Polynomial.constant(field, rng.choice(UNITS))
    if shape == "repeat" and basis:
        head = rng.choice(basis).leading_term(order)[0]
    elif shape == "pure":
        head = Monomial({rng.randint(1, NVARS): rng.randint(1, 3)})
    else:
        head = random_monomial(rng)
    # Lower terms: monomials below the head, so the head stays leading.
    tail = [m for m in (random_monomial(rng) for _ in range(3))
            if order.sort_key(m) < order.sort_key(head)]
    return Polynomial(field, [(head, rng.choice(UNITS))] + [(m, rng.randint(1, 4)) for m in tail])


def random_dividend(rng, field, basis):
    """The zero polynomial, a combination of the divisors plus a few terms,
    or a random polynomial."""
    if rng.random() < 0.1:
        return Polynomial.zero(field)
    if rng.random() < 0.3:
        f = random_poly(rng, field, 2)
        for g in basis:
            f = f + random_poly(rng, field, 2) * g
        return f
    return random_poly(rng, field, rng.randint(1, 8))


def random_basis(rng, field, order):
    basis = []
    for _ in range(rng.randint(1, 4)):
        basis.append(random_divisor(rng, field, order, basis))
    return basis


def assert_matches_full_division(f, divisors, order):
    """normal_form(f, divisors, order) is the oracle's answer, and over QQ
    every coefficient it returns is a Fraction."""
    result = normal_form(f, divisors, order)
    assert result == full_normal_form(f, divisors, order)
    if f.field == QQ:
        quots, rem = result
        assert all(type(c) is Fraction for p in (*quots, rem) for c in p.terms.values())
    return result


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("kind", KINDS)
def test_division_matches_full_division(field, kind):
    rng = random.Random(f"{field}-{kind}")
    shapes = {"zero f": 0, "constant divisor": 0, "nonzero remainder": 0, "zero remainder": 0}
    for _ in range(300):
        order = random_order(rng, kind)
        basis = []
        for _ in range(rng.randint(1, 4)):
            basis.append(random_divisor(rng, field, order, basis))
        f = random_dividend(rng, field, basis)
        quots, rem = normal_form(f, basis, order)
        assert (quots, rem) == full_normal_form(f, basis, order)
        shapes["zero f"] += f.is_zero
        shapes["constant divisor"] += any(g.leading_term(order)[0].is_one for g in basis)
        shapes["nonzero remainder"] += not rem.is_zero
        shapes["zero remainder"] += rem.is_zero and not f.is_zero
    assert all(shapes.values()), shapes


@pytest.mark.parametrize("field", (QQ, GF(7)), ids=str)
def test_division_matches_on_chordal_bases(field):
    """The divisions verify-gb makes: S-polynomials and ideal generators
    reduced by a chordal basis, whose heads are pure powers."""
    for seed in range(3):
        g = random_chordal(12, 3, seed)
        result = build_groebner_basis(g, 3, field)
        polys, order = result.basis.polys, result.basis.order
        divisors = Divisors(polys, order)
        assert divisors.integral == (field == QQ)
        for gen in build_ideal(g, 3, field).generators():
            assert_matches_full_division(gen, divisors, order)
        for a in range(len(polys)):
            for b in range(a + 1, len(polys)):
                s = s_polynomial(polys[a], polys[b], order)
                assert s == subtracted_s_polynomial(polys[a], polys[b], order)
                assert_matches_full_division(s, divisors, order)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_one_divisors_reused_across_dividends(field):
    """One Divisors, built once, divides many dividends, and every answer is
    the oracle's: no division leaves state behind for the next one."""
    rng = random.Random(f"reuse-{field}")
    for _ in range(40):
        order = random_order(rng, rng.choice(KINDS))
        divisors = Divisors(random_basis(rng, field, order), order)
        assert Divisors(divisors, order) is divisors
        for _ in range(10):
            assert_matches_full_division(random_dividend(rng, field, divisors), divisors, order)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_divisors_passed_with_another_order_divide_under_that_order(field):
    """A Divisors built under one order is rebuilt for the order passed, also
    for an equal order that is another object."""
    rng = random.Random(f"orders-{field}")
    differ = 0
    for _ in range(100):
        built = random_order(rng, rng.choice(KINDS))
        passed = random_order(rng, rng.choice(KINDS))
        basis = random_basis(rng, field, built)
        divisors = Divisors(basis, built)
        f = random_dividend(rng, field, basis)
        result = normal_form(f, divisors, passed)
        assert result == full_normal_form(f, basis, passed)
        assert normal_form(f, divisors, TermOrder(built.kind, built.ranks)) == \
            full_normal_form(f, basis, built)
        differ += result != full_normal_form(f, basis, built)
    assert differ


def test_division_over_zz_and_over_qq_match_full_division():
    """Over QQ the division runs on ints exactly when every head coefficient
    is 1 or -1 and every coefficient of the divisors and of the dividend is
    an integer.  Both sides of that rule give the oracle's answer, with
    Fraction coefficients."""
    rng = random.Random("zz")
    shapes = {"over ZZ": 0, "head coefficient 3": 0, "tail coefficient 1/2": 0,
              "fractional dividend": 0}
    for _ in range(400):
        order = random_order(rng, rng.choice(KINDS))
        basis = []
        for g in random_basis(rng, QQ, order):
            head = g.leading_term(order)[0]
            basis.append(Polynomial(QQ, {m: rng.choice((1, -1)) if m is head else c
                                         for m, c in g.terms.items()}))
        spoil = rng.choice(tuple(shapes))
        i = rng.randrange(len(basis))
        head = basis[i].leading_term(order)[0]
        if spoil == "head coefficient 3":
            basis[i] = basis[i] + Polynomial(QQ, {head: 3 - basis[i].terms[head]})
        elif spoil == "tail coefficient 1/2":
            basis[i] = basis[i] + Polynomial(QQ, {random_monomial(rng): Fraction(1, 2)})
            if basis[i].leading_term(order)[0] != head:
                continue
        f = random_dividend(rng, QQ, basis)
        if spoil == "fractional dividend":
            f = f + Polynomial(QQ, {random_monomial(rng): Fraction(1, 3)})
        heads_unit = all(g.leading_term(order)[1] in (1, -1) for g in basis)
        integral = all(c.denominator == 1 for g in basis for c in g.terms.values())
        f_integral = all(c.denominator == 1 for c in f.terms.values())
        divisors = Divisors(basis, order)
        assert divisors.integral == (heads_unit and integral)
        assert_matches_full_division(f, divisors, order)
        shapes["over ZZ"] += heads_unit and integral and f_integral
        shapes["head coefficient 3"] += not heads_unit
        shapes["tail coefficient 1/2"] += heads_unit and not integral
        shapes["fractional dividend"] += heads_unit and integral and not f_integral
    assert all(shapes.values()), shapes


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_s_polynomial_matches_subtracted_construction(field):
    """The S-polynomial built from exps tuples equals the one built from
    full products and a subtraction, on random pairs, on a polynomial paired
    with itself or a multiple, and on pairs with coprime heads."""
    rng = random.Random(f"spoly-{field}")
    shapes = {"zero": 0, "nonzero": 0, "self": 0}
    for _ in range(300):
        order = random_order(rng, rng.choice(KINDS))
        f = random_poly(rng, field, rng.randint(1, 5))
        g = random_poly(rng, field, rng.randint(1, 5))
        if f.is_zero or g.is_zero:
            continue
        if rng.random() < 0.1:
            g = f.scale(rng.choice(UNITS))
            shapes["self"] += 1
        s = s_polynomial(f, g, order)
        assert s == subtracted_s_polynomial(f, g, order)
        if field == QQ:
            assert all(type(c) is Fraction for c in s.terms.values())
        shapes["zero" if s.is_zero else "nonzero"] += 1
    assert all(shapes.values()), shapes


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_buchberger_criterion_matches_full_division(field, monkeypatch):
    rng = random.Random(str(field))
    verdicts = []
    for _ in range(40):
        order = random_order(rng, rng.choice(KINDS))
        gens = [random_poly(rng, field, rng.randint(1, 3)) for _ in range(rng.randint(2, 3))]
        gens = [p for p in gens if not p.is_zero] or [Polynomial.constant(field, 1)]
        polys = gens
        if rng.random() < 0.5:
            try:
                polys = list(buchberger(gens, order, budget=50).polys)
            except OracleBudgetExceeded:
                pass
        verdict = buchberger_criterion(polys, order)
        with monkeypatch.context() as m:
            m.setattr(chromideal.oracle, "normal_form", full_normal_form)
            assert buchberger_criterion(polys, order) == verdict
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts
