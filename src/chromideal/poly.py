"""Sparse multivariate polynomials over an exact field.

Monomials map 1-indexed variable numbers to positive exponents; polynomials
map monomials to nonzero coefficients.  Term orders (lex and graded lex) are
explicit objects passed to every order-sensitive operation, so one polynomial
can be read under several orders.  Includes multivariate division with
quotient tracking, S-polynomials, and a canonical text rendering with a
round-trip parser.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from collections.abc import Iterable, Mapping, Sequence


class FieldMismatchError(ValueError):
    """Operands live over different coefficient fields."""


class ZeroPolynomialError(ValueError):
    """The zero polynomial has no leading term."""


class Monomial:
    """A power product, stored sparsely as sorted (variable, exponent) pairs."""

    __slots__ = ("exps", "_hash")

    def __init__(self, exps: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = exps.items() if isinstance(exps, (dict, Mapping)) else exps
        pairs = []
        for v, e in items:
            if e == 0:
                continue
            if e < 0:
                raise ValueError(f"negative exponent {e} for x{v}")
            if v < 1:
                raise ValueError(f"variable index {v} must be >= 1")
            pairs.append((v, e))
        pairs.sort()
        self.exps = tuple(pairs)
        self._hash = hash(self.exps)

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    @property
    def is_one(self) -> bool:
        return not self.exps

    def vars(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        d = dict(self.exps)
        for v, e in other.exps:
            d[v] = d.get(v, 0) + e
        return Monomial(d)

    def divides(self, other: "Monomial") -> bool:
        o = dict(other.exps)
        return all(o.get(v, 0) >= e for v, e in self.exps)

    def divide(self, other: "Monomial") -> "Monomial":
        """Exact quotient self / other; raises if not divisible."""
        d = dict(self.exps)
        for v, e in other.exps:
            r = d.get(v, 0) - e
            if r < 0:
                raise ValueError(f"{other} does not divide {self}")
            d[v] = r
        return Monomial(d)

    def lcm(self, other: "Monomial") -> "Monomial":
        d = dict(self.exps)
        for v, e in other.exps:
            d[v] = max(d.get(v, 0), e)
        return Monomial(d)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and other.exps == self.exps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return _monomial_str(self)


MONOMIAL_ONE = Monomial()

LEX = "lex"
GRLEX = "grlex"


class TermOrder:
    """A monomial order: lex or graded lex over explicitly ranked variables.

    `ranks` maps each active variable to a distinct integer rank; a higher
    rank means a larger variable.  Comparisons are only defined for monomials
    whose variables are all ranked.
    """

    __slots__ = ("kind", "_rank")

    def __init__(self, kind: str, ranks: Mapping[int, int]):
        if kind not in (LEX, GRLEX):
            raise ValueError(f"unknown order kind {kind!r}")
        rank = dict(ranks)
        if len(set(rank.values())) != len(rank):
            raise ValueError("variable ranks must be distinct")
        self.kind = kind
        self._rank = rank

    @classmethod
    def lex_descending(cls, variables: Sequence[int]) -> "TermOrder":
        """Lex order with the listed variables largest-first."""
        n = len(variables)
        return cls(LEX, {v: n - i for i, v in enumerate(variables)})

    @classmethod
    def grlex_descending(cls, variables: Sequence[int]) -> "TermOrder":
        n = len(variables)
        return cls(GRLEX, {v: n - i for i, v in enumerate(variables)})

    @classmethod
    def natural(cls, variables: Iterable[int], kind: str = GRLEX) -> "TermOrder":
        """Order where the variable index itself is the rank (x2 > x1)."""
        return cls(kind, {v: v for v in variables})

    @property
    def ranks(self) -> dict[int, int]:
        return dict(self._rank)

    def sort_key(self, m: Monomial):
        """A key ordering monomials as this term order does: the (rank,
        exponent) pairs of m's variables by descending rank, after the degree
        for grlex.  It is order-equivalent to, not equal to, the exponent
        vector over all ranked variables: a variable missing from one key has
        exponent 0 there, so the first differing pair decides as the first
        differing vector entry would.  Its size is that of m, not of the order.
        """
        rank = self._rank
        try:
            key = tuple(sorted(((rank[v], e) for v, e in m.exps), reverse=True))
        except KeyError as exc:
            raise ValueError(f"variable x{exc.args[0]} is not ranked by this order") from None
        return key if self.kind == LEX else (m.degree, key)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TermOrder)
            and other.kind == self.kind
            and other._rank == self._rank
        )

    def __hash__(self):
        return hash((self.kind, tuple(sorted(self._rank.items()))))

    def __repr__(self):
        desc = sorted(self._rank, key=self._rank.__getitem__, reverse=True)
        vs = " > ".join(f"x{v}" for v in desc)
        return f"TermOrder({self.kind}: {vs})"


class Polynomial:
    """A sparse polynomial: a map from monomials to nonzero coefficients.

    Instances are treated as immutable values; all arithmetic returns new
    polynomials.  Coefficients are canonicalized through the field on
    construction, the coefficients of a repeated monomial are added, and
    zero sums are dropped.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field, terms: Mapping[Monomial, object] = ()):
        items = terms.items() if isinstance(terms, (dict, Mapping)) else terms
        self.field = field
        self.terms = _add_terms(field, {}, ((m, field.element(c)) for m, c in items))

    @classmethod
    def zero(cls, field) -> "Polynomial":
        return cls(field, {})

    @classmethod
    def constant(cls, field, c) -> "Polynomial":
        return cls(field, {MONOMIAL_ONE: c})

    @classmethod
    def variable(cls, field, v: int, exp: int = 1) -> "Polynomial":
        return cls(field, {Monomial({v: exp}): field.one})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        return max((m.degree for m in self.terms), default=-1)

    def vars(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for m in self.terms:
            seen.update(m.vars())
        return tuple(sorted(seen))

    def _check_field(self, other: "Polynomial"):
        if other.field != self.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_field(other)
        return _raw(self.field, _add_terms(self.field, dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        f = self.field
        return _raw(f, {m: f.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_field(other)
        f = self.field
        products = ((m1 * m2, f.mul(c1, c2))
                    for m1, c1 in self.terms.items() for m2, c2 in other.terms.items())
        return _raw(f, _add_terms(f, {}, products))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.constant(self.field, self.field.one)
        for _ in range(e):
            out = out * self
        return out

    def scale(self, c) -> "Polynomial":
        f = self.field
        cc = f.element(c)
        if f.is_zero(cc):
            return Polynomial.zero(f)
        return _raw(f, {m: f.mul(v, cc) for m, v in self.terms.items()})

    def leading_term(self, order: TermOrder) -> tuple[Monomial, object]:
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        m = max(self.terms, key=order.sort_key)
        return m, self.terms[m]

    def leading_monomial(self, order: TermOrder) -> Monomial:
        return self.leading_term(order)[0]

    def monic(self, order: TermOrder) -> "Polynomial":
        _, c = self.leading_term(order)
        return self.scale(self.field.inv(c))

    def evaluate(self, assignment: Mapping[int, object]):
        """Exact value at a total assignment of the polynomial's variables."""
        f = self.field
        vals = {v: f.element(x) for v, x in assignment.items()}
        total = f.zero
        for m, c in self.terms.items():
            acc = c
            for v, e in m.exps:
                if v not in vals:
                    raise ValueError(f"unbound variable x{v}")
                acc = f.mul(acc, f.pow(vals[v], e))
            total = f.add(total, acc)
        return total

    def substitute(self, assignment: Mapping[int, object]) -> "Polynomial":
        """Partial evaluation: plug in values for a subset of the variables."""
        f = self.field
        vals = {v: f.element(x) for v, x in assignment.items()}
        plugged = []
        for m, c in self.terms.items():
            for v, e in m.exps:
                if v in vals:
                    c = f.mul(c, f.pow(vals[v], e))
            plugged.append((Monomial([(v, e) for v, e in m.exps if v not in vals]), c))
        return _raw(f, _add_terms(f, {}, plugged))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and other.field == self.field
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def __repr__(self):
        return render(self)


def _raw(field, terms: dict) -> Polynomial:
    """Internal constructor for already-canonical term dicts."""
    p = Polynomial.__new__(Polynomial)
    p.field = field
    p.terms = terms
    return p


def _add_terms(field, acc: dict, terms) -> dict:
    """Add (monomial, canonical coefficient) pairs into the term dict acc,
    dropping each monomial whose sum is zero, so acc stays canonical.  A
    monomial not yet in acc keeps its coefficient as given."""
    add, is_zero, get = field.add, field.is_zero, acc.get
    for m, c in terms:
        prev = get(m)
        if prev is not None:
            c = add(prev, c)
        if is_zero(c):
            acc.pop(m, None)
        else:
            acc[m] = c
    return acc


def normal_form(
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
            if gm.divides(lm):
                q = lm.divide(gm)
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


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    """lcm(LM f, LM g)/LT(f) * f - lcm/LT(g) * g."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("S-polynomial of the zero polynomial")
    fm, fc = f.leading_term(order)
    gm, gc = g.leading_term(order)
    lcm = fm.lcm(gm)
    fld = f.field
    left = _mono_mul(f, lcm.divide(fm), fld.inv(fc))
    right = _mono_mul(g, lcm.divide(gm), fld.inv(gc))
    return left - right


def _mono_mul(f: Polynomial, m: Monomial, c) -> Polynomial:
    fld = f.field
    return _raw(fld, {tm * m: fld.mul(tc, c) for tm, tc in f.terms.items()})


def elementary_symmetric(d: int, values: Sequence, field):
    """Value of the elementary symmetric polynomial sigma_d at the given points."""
    if d < 0 or d > len(values):
        raise ValueError(f"degree {d} out of range for {len(values)} values")
    # coefficient DP over prod (1 + v*t), tracking t^0..t^d
    e = [field.one] + [field.zero] * d
    for raw in values:
        v = field.element(raw)
        for j in range(min(d, len(e) - 1), 0, -1):
            e[j] = field.add(e[j], field.mul(v, e[j - 1]))
    return e[d]


def complete_homogeneous(d: int, variables: Sequence[int], field) -> Polynomial:
    """Sum of all degree-d monomials (with repetition) in the given variables."""
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    if not variables:
        raise ValueError("complete_homogeneous requires at least one variable")
    if len(set(variables)) != len(variables):
        raise ValueError("variables must be distinct")
    terms: dict[Monomial, object] = {}
    for combo in itertools.combinations_with_replacement(variables, d):
        exps: dict[int, int] = {}
        for v in combo:
            exps[v] = exps.get(v, 0) + 1
        terms[Monomial(exps)] = field.one
    return Polynomial(field, terms)


# --- canonical text form ----------------------------------------------------

def _monomial_str(m: Monomial) -> str:
    if m.is_one:
        return "1"
    return "*".join(f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in m.exps)


def _term_str(c, m: Monomial, field) -> str:
    if m.is_one:
        return str(c)
    if c == field.one:
        return _monomial_str(m)
    return f"{c}*{_monomial_str(m)}"


def render(f: Polynomial, order: TermOrder | None = None) -> str:
    """Canonical text form, terms sorted descending under the given order.

    Defaults to graded lex with the variable index as rank, so the string
    depends only on the polynomial itself.
    """
    if f.is_zero:
        return "0"
    if order is None:
        order = TermOrder.natural(f.vars() or (1,))
    pieces = []
    for m in sorted(f.terms, key=order.sort_key, reverse=True):
        c = f.terms[m]
        negative = isinstance(c, Fraction) and c < 0
        body = _term_str(-c if negative else c, m, f.field)
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append((" - " if negative else " + ") + body)
    return "".join(pieces)


_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_poly(text: str, field) -> Polynomial:
    """Parse the syntax produced by render(); inverse up to term collection."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return Polynomial.zero(field)
    s = s.replace(" - ", " + -")
    terms: list[tuple[Monomial, object]] = []
    f = field
    for chunk in s.split(" + "):
        t = chunk.strip()
        if not t:
            raise ValueError(f"cannot parse polynomial term in {text!r}")
        coeff = f.one
        if t.startswith("-"):
            coeff = f.neg(coeff)
            t = t[1:]
        exps: dict[int, int] = {}
        for part in t.split("*"):
            part = part.strip()
            m = _FACTOR_RE.match(part)
            if m:
                v = int(m.group(1))
                e = int(m.group(2)) if m.group(2) else 1
                exps[v] = exps.get(v, 0) + e
            else:
                try:
                    coeff = f.mul(coeff, f.element(Fraction(part)))
                except (ValueError, ZeroDivisionError) as exc:
                    raise ValueError(f"cannot parse {part!r} in {text!r}") from exc
        terms.append((Monomial(exps), coeff))
    return _raw(field, _add_terms(field, {}, terms))
