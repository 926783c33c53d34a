"""Exact coefficient arithmetic over prime fields GF(p) and the rationals.

Elements are plain Python values: canonical ints in [0, p) for GF(p),
`fractions.Fraction` for the rationals.  The field objects hold the
arithmetic; they are immutable and cheap to pass around.
"""

from __future__ import annotations

from fractions import Fraction


class RootsUnavailable(ValueError):
    """GF(p) does not contain k distinct k-th roots of unity (p is not 1 mod k)."""


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for moduli below 2**31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _check_modulus(p) -> None:
    """Raise ValueError unless p is an int prime below 2**31.  The bound is
    tested first: trial division of a large prime takes minutes."""
    if isinstance(p, int) and p >= 1 << 31:
        raise ValueError(f"modulus {p} too large; must be < 2**31")
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"modulus {p!r} is not prime")


class PrimeField:
    """The field GF(p) for a prime p < 2**31.

    Elements are canonical ints in [0, p), so products of two elements fit
    comfortably in machine-assisted big ints and equality is structural.
    """

    __slots__ = ("p",)

    zero = 0
    one = 1

    def __init__(self, p: int):
        _check_modulus(p)
        self.p = p

    @property
    def char(self) -> int:
        return self.p

    def element(self, v) -> int:
        """Canonicalize an int (or a Fraction with denominator invertible mod p)."""
        if isinstance(v, Fraction):
            return self.div(v.numerator % self.p, v.denominator % self.p)
        return v % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inversion of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def is_zero(self, a: int) -> bool:
        return a == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The rational numbers with exact Fraction arithmetic."""

    __slots__ = ()

    zero = Fraction(0)
    one = Fraction(1)
    char = 0

    def element(self, v) -> Fraction:
        return v if isinstance(v, Fraction) else Fraction(v)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("inversion of zero")
        return Fraction(a) / b

    def is_zero(self, a) -> bool:
        return a == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


GF = PrimeField
QQ = RationalField()


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def multiplicative_generator(p: int) -> int:
    """Smallest generator of the cyclic group GF(p)*, by exhaustive order
    check, for a prime p < 2**31."""
    _check_modulus(p)
    if p == 2:
        return 1
    order = p - 1
    factors = _prime_factors(order)
    for g in range(2, p):
        if all(pow(g, order // q, p) != 1 for q in factors):
            return g
    raise AssertionError("unreachable: GF(p)* is cyclic")


def kth_roots_of_unity(p: int, k: int) -> list[int]:
    """All k-th roots of unity in GF(p), ascending, for a prime p < 2**31.

    Requires p = 1 (mod k) so that the full set of k distinct roots exists;
    otherwise raises RootsUnavailable.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    _check_modulus(p)
    if (p - 1) % k != 0:
        raise RootsUnavailable(f"GF({p}) has no full set of {k}-th roots of unity")
    g = multiplicative_generator(p)
    z = pow(g, (p - 1) // k, p)
    return sorted(pow(z, j, p) for j in range(k))
