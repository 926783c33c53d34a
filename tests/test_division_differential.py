"""The production division returns what rescanning division returns.

poly.normal_form keeps its terms in a heap of order keys and indexes the
divisors' cached leading terms by variable.  None of this may change the
answer: these tests compare the quotient lists and the remainder (not just
the validity of the division) with the oracle in full_division.py, on seeded
random divisions, on chordal bases, and through buchberger_criterion.
"""

import random

import pytest

import chromideal.oracle
from chromideal.chordal import build_groebner_basis
from chromideal.fields import GF, QQ
from chromideal.graphs import random_chordal
from chromideal.ideals import build_ideal
from chromideal.oracle import OracleBudgetExceeded, buchberger, buchberger_criterion
from chromideal.poly import GRLEX, LEX, Monomial, Polynomial, TermOrder, normal_form, s_polynomial
from full_division import full_normal_form

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
        if rng.random() < 0.1:
            f = Polynomial.zero(field)
        elif rng.random() < 0.3:
            # A combination of the divisors plus a few terms.
            f = random_poly(rng, field, 2)
            for g in basis:
                f = f + random_poly(rng, field, 2) * g
        else:
            f = random_poly(rng, field, rng.randint(1, 8))
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
        for gen in build_ideal(g, 3, field).generators():
            assert normal_form(gen, polys, order) == full_normal_form(gen, polys, order)
        for a in range(len(polys)):
            for b in range(a + 1, len(polys)):
                s = s_polynomial(polys[a], polys[b], order)
                assert normal_form(s, polys, order) == full_normal_form(s, polys, order)


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
