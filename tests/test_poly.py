import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chromideal.fields import GF, QQ, kth_roots_of_unity
from chromideal.ideals import quotient_reduce
from chromideal.poly import (
    GRLEX,
    LEX,
    FieldMismatchError,
    Monomial,
    Polynomial,
    TermOrder,
    ZeroPolynomialError,
    complete_homogeneous,
    normal_form,
    parse_poly,
    render,
    s_polynomial,
)
from dict_product import (
    dict_complete_homogeneous,
    dict_monomial_divides,
    dict_monomial_product,
    term_by_term_product,
)
from oracles import elementary_symmetric, evaluate, grlex_descending, lex_descending, substitute

F5 = GF(5)
F7 = GF(7)
LEX_XY = lex_descending([1, 2])  # x1 > x2
GRLEX_XY = grlex_descending([1, 2])


def P(text, field=QQ):
    return parse_poly(text, field)


# --- monomials ----------------------------------------------------------------

def test_monomial_canonical_form():
    assert Monomial({1: 2, 3: 0}) == Monomial([(1, 2)])
    assert Monomial({2: 1, 1: 1}).exps == ((1, 1), (2, 1))
    assert Monomial().is_one
    assert Monomial({1: 2, 2: 3}).degree == 5
    with pytest.raises(ValueError):
        Monomial({1: -1})


def test_monomial_division():
    a = Monomial({1: 2, 2: 1})
    b = Monomial({1: 1})
    assert dict_monomial_divides(b, a)
    assert not dict_monomial_divides(a, b)


# --- arithmetic ---------------------------------------------------------------

def test_product_difference_of_squares():
    assert P("x1 + 1") * P("x1 - 1") == P("x1^2 - 1")


def test_freshman_dream_in_characteristic_two():
    f2 = GF(2)
    square = P("x1 + x2", f2) * P("x1 + x2", f2)
    assert square == P("x1^2 + x2^2", f2)


def test_additive_inverse():
    f = P("x1^2 - 3/2*x1 + 1")
    assert (f + (-f)).is_zero


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatchError):
        P("x1", QQ) + P("x1", F5)
    with pytest.raises(FieldMismatchError):
        P("x1", QQ) - P("x1", F5)


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_distributive_law(a, b, c):
    x, y = Polynomial.variable(QQ, 1), Polynomial.variable(QQ, 2)
    f = a * x + b * y
    g = c * x * y + 1 * x
    h = y * y + (-1) * x
    assert f * (g + h) == f * g + f * h


# --- leading terms and orders ---------------------------------------------------

def test_leading_term_examples():
    f = P("x1^2*x2 + x1*x2^2")
    assert f.leading_term(LEX_XY) == (Monomial({1: 2, 2: 1}), Fraction(1))
    g = P("x1 + x2^3")
    assert g.leading_monomial(LEX_XY) == Monomial({1: 1})
    assert g.leading_monomial(GRLEX_XY) == Monomial({2: 3})


def test_leading_term_of_zero_raises():
    with pytest.raises(ZeroPolynomialError):
        Polynomial.zero(QQ).leading_term(LEX_XY)


def test_order_requires_ranked_variables():
    with pytest.raises(ValueError):
        P("x9").leading_term(LEX_XY)
    # A leading term cached under one order does not answer for another.
    f = P("x1 + x2")
    assert f.leading_monomial(LEX_XY) == Monomial({1: 1})
    with pytest.raises(ValueError):
        f.leading_term(lex_descending([1]))


def test_cached_leading_term_follows_the_order():
    f = P("x1 + x2^3")
    lex_yx = lex_descending([2, 1])
    for _ in range(2):
        assert f.leading_term(LEX_XY) == (Monomial({1: 1}), Fraction(1))
        assert f.leading_term(GRLEX_XY) == (Monomial({2: 3}), Fraction(1))
        assert f.leading_term(lex_yx) == (Monomial({2: 3}), Fraction(1))
    # An equal order built separately reads the same leading term.
    assert f.leading_term(lex_descending([1, 2])) == (Monomial({1: 1}), Fraction(1))


def test_equality_and_hash_ignore_the_cached_leading_term():
    f, g = P("x1^2 - x2"), P("x1^2 - x2")
    f.leading_term(LEX_XY)
    assert f == g and g == f
    assert hash(f) == hash(g)
    assert len({f, g}) == 1
    g.leading_term(GRLEX_XY)
    assert f == g and hash(f) == hash(g)


mono_st = st.builds(
    Monomial,
    st.dictionaries(st.integers(1, 3), st.integers(0, 4), max_size=3),
)


@given(mono_st, mono_st, mono_st)
def test_order_total_and_multiplicative(a, b, c):
    for order in (lex_descending([1, 2, 3]), grlex_descending([1, 2, 3])):
        ka, kb = order.sort_key(a), order.sort_key(b)
        assert (ka == kb) == (a == b)
        if ka > kb:
            assert order.sort_key(a * c) > order.sort_key(b * c)


@given(mono_st, mono_st)
@example(Monomial(), Monomial({2: 1}))
@example(Monomial({1: 2}), Monomial({3: 1}))
@example(Monomial({1: 2, 3: 1}), Monomial({3: 4}))
def test_monomial_product_matches_dict_oracle(a, b):
    """The merged product equals the dict-built one, hash included, on empty,
    disjoint and shared variables."""
    product, expected = a * b, dict_monomial_product(a, b)
    assert product == expected and hash(product) == hash(expected)


@st.composite
def polynomial_pairs(draw):
    field = draw(st.sampled_from([F7, QQ]))
    terms = st.lists(st.tuples(mono_st, st.integers(-3, 3)), max_size=4)
    return Polynomial(field, draw(terms)), Polynomial(field, draw(terms))


@given(polynomial_pairs())
@example((P("x1 + x2", F7), P("x1 - x2", F7)))
@example((P("x1 + x2"), P("x1 - x2")))
def test_polynomial_product_matches_term_by_term_oracle(pair):
    f, g = pair
    assert f * g == term_by_term_product(f, g)


@given(polynomial_pairs())
@example((P("x1 + x2", F7), P("x1 + 3*x2", F7)))
def test_difference_is_the_sum_with_the_negation(pair):
    """Subtraction adds the negated terms in one pass; it must equal the sum
    with the negated polynomial, cancellations included."""
    f, g = pair
    assert f - g == f + (-g)
    assert (f - f).is_zero


def dense_sort_key(order, m):
    """Reference key: the exponent vector over every ranked variable, largest
    rank first, prefixed by the degree under grlex."""
    rank = order.ranks
    exps = dict(m.exps)
    assert set(exps) <= set(rank)
    vec = tuple(exps.get(v, 0) for v in sorted(rank, key=rank.__getitem__, reverse=True))
    return vec if order.kind == LEX else (m.degree,) + vec


@st.composite
def order_and_monomials(draw):
    """An order with permuted, non-contiguous, possibly negative ranks, and
    monomials over its variables."""
    size = draw(st.integers(1, 6))
    variables = draw(st.lists(st.integers(1, 40), min_size=size, max_size=size, unique=True))
    ranks = draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size, unique=True))
    order = TermOrder(draw(st.sampled_from([LEX, GRLEX])), dict(zip(variables, ranks)))
    exps = st.dictionaries(st.sampled_from(variables), st.integers(0, 3))
    return order, draw(st.lists(st.builds(Monomial, exps), min_size=2, max_size=10))


@given(order_and_monomials())
def test_sort_key_orders_as_the_dense_exponent_vector(case):
    order, monos = case
    for a in monos:
        for b in monos:
            ka, kb = order.sort_key(a), order.sort_key(b)
            da, db = dense_sort_key(order, a), dense_sort_key(order, b)
            assert (ka < kb) == (da < db) and (ka == kb) == (da == db)


# --- division -----------------------------------------------------------------

def test_division_examples():
    quots, rem = normal_form(P("x1^2"), [P("x1^2 - 1")], LEX_XY)
    assert rem == P("1")
    assert quots == [P("1")]

    quots, rem = normal_form(P("x1^2 + x1*x2 + x2^2"), [P("x1 + x2")], LEX_XY)
    assert rem == P("x2^2")
    assert quots == [P("x1")]


def test_division_by_groebner_basis_detects_membership():
    basis = [P("x1 + x2"), P("x2^2 - 2")]
    f = P("x1*x2 + 3") * basis[0] + P("x2") * basis[1]
    _, rem = normal_form(f, basis, LEX_XY)
    assert rem.is_zero


def test_division_zero_divisor_rejected():
    with pytest.raises(ZeroPolynomialError):
        normal_form(P("x1"), [Polynomial.zero(QQ)], LEX_XY)
    with pytest.raises(ZeroPolynomialError):
        normal_form(P("x1"), [P("x1 - 1"), Polynomial.zero(QQ)], LEX_XY)


def test_division_field_mismatch_rejected():
    with pytest.raises(FieldMismatchError):
        normal_form(P("x1", F5), [P("x1 + 1", F7)], LEX_XY)
    with pytest.raises(FieldMismatchError):
        normal_form(P("x1", QQ), [P("x1 + 1", QQ), P("x2", F5)], LEX_XY)


def test_division_requires_ranked_variables():
    x1_only = lex_descending([1])
    # In any term of f, reducible or not.
    for f in ("x2", "x1^2 + x2", "x1 + x2^5"):
        with pytest.raises(ValueError):
            normal_form(P(f), [P("x1")], x1_only)
    # In a divisor, even in a term below its head; also after its leading
    # term was cached under an order that ranks every variable.
    g = P("x1 + x2")
    with pytest.raises(ValueError):
        normal_form(P("x1"), [g], x1_only)
    normal_form(P("x1"), [g], LEX_XY)
    with pytest.raises(ValueError):
        normal_form(P("x1"), [g], x1_only)


small_poly = st.builds(
    lambda terms: Polynomial(QQ, {m: c for m, c in terms}),
    st.lists(st.tuples(mono_st, st.integers(-3, 3)), max_size=4),
)


@given(small_poly, st.lists(small_poly.filter(lambda p: not p.is_zero), min_size=1, max_size=3))
def test_division_reconstructs_input(f, basis):
    order = lex_descending([1, 2, 3])
    quots, rem = normal_form(f, basis, order)
    total = rem
    for q, g in zip(quots, basis):
        total = total + q * g
    assert total == f
    heads = [g.leading_monomial(order) for g in basis]
    for m in rem.terms:
        assert not any(dict_monomial_divides(h, m) for h in heads)


# --- S-polynomials --------------------------------------------------------------

def test_s_polynomial_examples():
    assert s_polynomial(P("x1"), P("x2"), LEX_XY).is_zero
    s = s_polynomial(P("x1^2 - x2"), P("x1*x2 - 1"), LEX_XY)
    assert s == P("x1 - x2^2")
    f = P("x1^2 - x2")
    assert s_polynomial(f, f, LEX_XY).is_zero
    with pytest.raises(ZeroPolynomialError):
        s_polynomial(f, Polynomial.zero(QQ), LEX_XY)


# --- symmetric polynomials -------------------------------------------------------

def test_elementary_symmetric_values():
    assert elementary_symmetric(2, [1, 2, 3], QQ) == 11
    assert elementary_symmetric(0, [1, 2], QQ) == 1
    with pytest.raises(ValueError):
        elementary_symmetric(3, [1, 2], QQ)


def test_complete_homogeneous_examples():
    assert complete_homogeneous(2, [1, 2], QQ) == P("x1^2 + x1*x2 + x2^2")
    assert complete_homogeneous(1, [1, 2, 3], QQ) == P("x1 + x2 + x3")
    with pytest.raises(ValueError):
        complete_homogeneous(1, [], QQ)


def test_complete_homogeneous_rejects_bad_arguments():
    with pytest.raises(ValueError, match="nonnegative"):
        complete_homogeneous(-1, [1, 2], QQ)
    with pytest.raises(ValueError, match="at least one variable"):
        complete_homogeneous(2, [], QQ)
    with pytest.raises(ValueError, match="distinct"):
        complete_homogeneous(2, [3, 1, 3], QQ)


@pytest.mark.parametrize("field", [QQ, GF(2), F7], ids=str)
def test_complete_homogeneous_matches_dict_oracle(field):
    rng = random.Random(27)
    for _ in range(200):
        variables = rng.sample(range(1, 40), rng.randint(1, 6))  # any order
        d = rng.randint(0, 6)
        f = complete_homogeneous(d, variables, field)
        assert f == dict_complete_homogeneous(d, variables, field)
        assert all(isinstance(m, Monomial) and m == Monomial(dict(m.exps)) for m in f.terms)


def binom(n, r):
    import math

    return math.comb(n, r)


@pytest.mark.parametrize("d,nvars", [(2, 3), (3, 2), (4, 3), (0, 2), (5, 4)])
def test_complete_homogeneous_term_count_and_degree(d, nvars):
    f = complete_homogeneous(d, list(range(1, nvars + 1)), QQ)
    assert len(f.terms) == binom(d + nvars - 1, nvars - 1)
    assert all(m.degree == d for m in f.terms)


def first_prime_with_kth_roots(k):
    from chromideal.fields import is_prime

    p = 2
    while (p - 1) % k != 0 or not is_prime(p):
        p += 1
    return p


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_root_product_identity_and_recursion(k):
    """S_{k-r} at r roots of unity plugs the remaining roots into a product
    that recovers x^k - 1; the evaluated S_d equals (-1)^d sigma_d of the
    complementary roots."""
    p = first_prime_with_kth_roots(k)
    field = GF(p)
    roots = kth_roots_of_unity(p, k)
    x = k + 1  # variable index clear of the root slots
    for r in range(1, k):
        zs = roots[:r]
        s = complete_homogeneous(k - r, list(range(1, r + 1)) + [x], field)
        s_univ = substitute(s, {i + 1: zs[i] for i in range(r)})
        prod = Polynomial.constant(field, 1)
        for z in zs:
            prod = prod * (Polynomial.variable(field, x) - Polynomial.constant(field, z))
        lhs = s_univ * prod
        expected = Polynomial.variable(field, x, k) - Polynomial.constant(field, 1)
        assert lhs == expected
        for point in range(p):  # the same identity, checked by evaluation
            assert evaluate(lhs, {x: point}) == (pow(point, k, p) - 1) % p
        for d in range(0, k - r + 1):
            s_val = evaluate(
                complete_homogeneous(d, list(range(1, r + 1)), field),
                {i + 1: zs[i] for i in range(r)},
            ) if d > 0 else field.one
            sigma = elementary_symmetric(d, roots[r:], field)
            sign = field.one if d % 2 == 0 else field.neg(field.one)
            assert s_val == field.mul(sign, sigma)


# --- evaluation and substitution --------------------------------------------------

def test_evaluate_examples():
    f = parse_poly("x1^3 - 1", QQ)
    f7 = Polynomial(F7, f.terms)
    assert evaluate(f7, {1: 2}) == 0
    edge = parse_poly("x1^2 + x1*x2 + x2^2", F7)
    assert evaluate(edge, {1: 2, 2: 4}) == 0
    assert evaluate(edge, {1: 2, 2: 2}) == 5


def test_evaluate_missing_variable():
    with pytest.raises(ValueError, match="unbound"):
        evaluate(P("x1 + x2"), {1: 1})


def test_substitute_partial():
    f = P("x1^2*x2 + x2 + 1")
    assert substitute(f, {1: 2}) == P("5*x2 + 1")
    assert substitute(f, {}) == f


def test_rationals_and_gf_p_agree_under_reduction():
    # integer-only computation commutes with the mod-p coefficient map
    f = P("3*x1^2 - 2*x1*x2 + 7")
    g = P("x2^2 + 5*x1 - 1")
    over_q = f * g + f
    reduced = Polynomial(F5, over_q.terms)
    f5, g5 = Polynomial(F5, f.terms), Polynomial(F5, g.terms)
    assert reduced == f5 * g5 + f5


# --- rendering and parsing ----------------------------------------------------------

def test_render_examples():
    assert render(P("x1^2 - 1")) == "x1^2 - 1"
    assert render(Polynomial.zero(QQ)) == "0"
    assert render(P("-2*x1 + 1/2")) == "-2*x1 + 1/2"
    assert render(parse_poly("x1^3 + 6", F7)) == "x1^3 + 6"
    # order-sensitive rendering
    assert render(P("x1 + x2^3"), LEX_XY) == "x1 + x2^3"


def test_parse_rejects_garbage():
    for bad in ["", "x0", "x1 +", "x1^", "1..2*x1"]:
        with pytest.raises(ValueError):
            parse_poly(bad, QQ)


@given(small_poly)
def test_render_parse_round_trip_rationals(f):
    assert parse_poly(render(f), QQ) == f


@given(small_poly)
def test_render_parse_round_trip_gf7(f):
    f7 = Polynomial(F7, f.terms)
    assert parse_poly(render(f7), F7) == f7


# --- canonical term dicts -------------------------------------------------------

crowded_terms = st.lists(
    st.tuples(st.dictionaries(st.integers(1, 2), st.integers(0, 2), max_size=2),
              st.integers(-3, 3)),
    max_size=4,
)


@given(st.sampled_from([GF(2), F7, QQ]), crowded_terms)
def test_constructor_adds_repeated_monomials(field, terms):
    pairs = [(Monomial(e), c) for e, c in terms]
    total = Polynomial.zero(field)
    for m, c in pairs:
        total = total + Polynomial(field, [(m, c)])
    assert Polynomial(field, pairs) == total


def test_constructor_cancels_repeated_monomial():
    x1 = Monomial({1: 1})
    assert Polynomial(F7, [(x1, 3), (x1, 4)]).is_zero
    assert Polynomial(F7, [(x1, 3), (x1, 4)]) == Polynomial.zero(F7)


def _stores_no_zero(p):
    return all(not p.field.is_zero(c) for c in p.terms.values())


@given(st.sampled_from([GF(2), F7, QQ]), crowded_terms, crowded_terms, st.integers(-2, 2))
def test_no_zero_coefficient_is_ever_stored(field, a_terms, b_terms, value):
    """Few variables and small exponents make terms collide and cancel; no
    operation may keep a cancelled term, or equality and rendering break."""
    a = Polynomial(field, [(Monomial(e), c) for e, c in a_terms])
    b = Polynomial(field, [(Monomial(e), c) for e, c in b_terms])
    assert (a - a).is_zero
    outputs = [a + b, a - b, a * b, substitute(a, {1: value}),
               parse_poly(render(a), field), quotient_reduce(a * b, 2)]
    if not b.is_zero:
        quots, rem = normal_form(a * b + a, [b], TermOrder.natural([1, 2], LEX))
        outputs += quots + [rem]
    assert all(_stores_no_zero(p) for p in outputs)
