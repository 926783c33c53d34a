from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import chromideal.fields
from chromideal.fields import (
    GF,
    QQ,
    PrimeField,
    RootsUnavailable,
    is_prime,
    kth_roots_of_unity,
    multiplicative_generator,
)

PRIMES = [2, 3, 5, 7, 11, 13, 7919]


def test_is_prime_small_table():
    primes_below_50 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes_below_50)


def test_modulus_validation(monkeypatch):
    with pytest.raises(ValueError):
        PrimeField(9)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(2**31 + 11)

    # trial division of the prime 2^61 - 1 would not end: the bound comes first
    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(chromideal.fields, "is_prime", no_trial_division)
    with pytest.raises(ValueError, match="too large"):
        PrimeField(2**61 - 1)


def test_basic_ops():
    f5 = GF(5)
    assert f5.mul(3, 4) == 2
    f7 = GF(7)
    assert f7.inv(3) == 5
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_every_nonzero_element_has_inverse(p):
    f = GF(p)
    for a in range(1, p):
        assert f.mul(a, f.inv(a)) == 1


@given(st.sampled_from(PRIMES), st.integers(), st.integers())
def test_add_sub_cancels_canonically(p, a, b):
    f = GF(p)
    ca, cb = f.element(a), f.element(b)
    assert f.sub(f.add(ca, cb), cb) == ca
    assert 0 <= ca < p


@given(st.fractions(), st.fractions())
def test_rational_cancellation(a, b):
    assert QQ.sub(QQ.add(a, b), b) == a


def test_element_coerces_fractions_mod_p():
    f7 = GF(7)
    # 1/2 = 4 mod 7 since 2*4 = 8 = 1
    assert f7.element(Fraction(1, 2)) == 4
    with pytest.raises(ZeroDivisionError):
        f7.element(Fraction(1, 7))


def test_kth_roots_examples():
    assert kth_roots_of_unity(7, 3) == [1, 2, 4]
    assert kth_roots_of_unity(5, 4) == [1, 2, 3, 4]
    with pytest.raises(RootsUnavailable):
        kth_roots_of_unity(5, 3)


def first_prime_with_kth_roots(k):
    p = 2
    while (p - 1) % k != 0 or not is_prime(p):
        p += 1
    return p


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_kth_roots_are_distinct_roots_of_x_k_minus_1(k):
    p = first_prime_with_kth_roots(k)
    roots = kth_roots_of_unity(p, k)
    assert len(roots) == k == len(set(roots))
    assert roots == sorted(roots)
    assert all(pow(z, k, p) == 1 for z in roots)


@pytest.mark.parametrize("p", PRIMES)
def test_multiplicative_generator_has_full_order(p):
    g = multiplicative_generator(p)
    seen = {pow(g, e, p) for e in range(p - 1)}
    assert len(seen) == p - 1


def test_roots_helpers_refuse_large_moduli_before_trial_division(monkeypatch):
    # trial division of the prime 2^61 - 1 would not end: the bound comes first
    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(chromideal.fields, "is_prime", no_trial_division)
    with pytest.raises(ValueError, match="too large"):
        kth_roots_of_unity(2**61 - 1, 2)
    with pytest.raises(ValueError, match="too large"):
        multiplicative_generator(2**61 - 1)
