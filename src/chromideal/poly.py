"""Sparse multivariate polynomials over an exact field.

Monomials map 1-indexed variable numbers to positive exponents; polynomials
map monomials to nonzero coefficients.  Term orders (lex and graded lex) are
explicit objects passed to every order-sensitive operation, so one polynomial
can be read under several orders.  Includes multivariate division with
quotient tracking, S-polynomials, and a canonical text rendering with a
round-trip parser.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
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
        return _monomial(_merge_exps(self.exps, other.exps))

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
    zero sums are dropped.  The leading term under the last order asked for
    is cached; equality and hashing ignore the cache.
    """

    __slots__ = ("field", "terms", "_lt")

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
        self._check_field(other)
        f = self.field
        negated = ((m, f.neg(c)) for m, c in other.terms.items())
        return _raw(f, _add_terms(f, dict(self.terms), negated))

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

    def scale(self, c) -> "Polynomial":
        f = self.field
        cc = f.element(c)
        if f.is_zero(cc):
            return Polynomial.zero(f)
        return _raw(f, {m: f.mul(v, cc) for m, v in self.terms.items()})

    def leading_term(self, order: TermOrder) -> tuple[Monomial, object]:
        cached = getattr(self, "_lt", None)
        if cached is not None and cached[0] is order:
            return cached[1]
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        m = max(self.terms, key=order.sort_key)
        lt = m, self.terms[m]
        self._lt = order, lt
        return lt

    def leading_monomial(self, order: TermOrder) -> Monomial:
        return self.leading_term(order)[0]

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


class Divisors(tuple):
    """The divisors of a multivariate division, indexed once under one term
    order so that many divisions by them share the set-up.

    A tuple of the polynomials in the order given, which is the order the
    division tries them in.  Built under `order`, it holds for divisor i:
    heads[i], the exps of its leading monomial; and tails[i], the pair of
    the inverse of its leading coefficient and its other terms as (exps,
    negated coefficient) pairs, so that one reduction step costs one
    multiplication for the quotient coefficient and one per tail term.
    `by_var` maps a variable to the divisors whose head exps start with it,
    ascending; `first_constant` is the first divisor with a constant head
    (len(self) if none); `key` is the order's heap key on exps tuples.
    `integral` is true over QQ when every coefficient is an integer and
    every head coefficient is 1 or -1; the stored coefficients are then
    ints, so that a division can run over ZZ.

    Divisors(d, order) returns d itself when d is a Divisors built under
    this very order object, so callers may pass either a Divisors or a
    sequence of polynomials.  Raises ZeroPolynomialError for a zero divisor,
    FieldMismatchError when the divisors' fields differ, and ValueError when
    the order does not rank a divisor's variable.
    """

    def __new__(cls, polys: Iterable[Polynomial], order: TermOrder):
        if type(polys) is cls and polys.order is order:
            return polys
        self = super().__new__(cls, polys)
        field = self[0].field if self else None
        leading = []
        for g in self:
            if g.is_zero:
                raise ZeroPolynomialError("zero polynomial in division basis")
            if g.field != field:
                raise FieldMismatchError(f"{field} vs {g.field}")
            leading.append(g.leading_term(order))
        integral = (field is not None and field.char == 0
                    and all(gc in (1, -1) for _, gc in leading)
                    and all(c.denominator == 1 for g in self for c in g.terms.values()))
        if integral:
            # 1 and -1 are their own inverses
            inv, neg = int, (lambda c: -c.numerator)
        elif field is not None:
            inv, neg = field.inv, field.neg
        self.order, self.field, self.integral = order, field, integral
        self.key = _heap_key(order)
        self.heads, self.tails, self.by_var = [], [], {}
        self.first_constant = len(self)
        for i, (g, (gm, gc)) in enumerate(zip(self, leading)):
            self.heads.append(gm.exps)
            self.tails.append((inv(gc), tuple(
                [(m.exps, neg(c)) for m, c in g.terms.items() if m is not gm])))
            if gm.exps:
                self.by_var.setdefault(gm.exps[0][0], []).append(i)
            elif self.first_constant == len(self):
                self.first_constant = i
        return self


def normal_form(
    f: Polynomial, basis: Sequence[Polynomial], order: TermOrder
) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division of f by an ordered list of divisors.

    Returns (quotients, remainder) with f = sum(q_i * basis_i) + r and no
    term of r divisible by any divisor's leading monomial.  Deterministic:
    the order-largest reducible term is processed first and divisors are
    tried in list order.

    `basis` is used as given when it is a Divisors built under this `order`
    object; otherwise one is built for this call.  Callers that divide many
    polynomials by one basis build the Divisors once and pass it each time.

    Each term's order key is computed when the term enters the work list,
    and a heap of keys yields the largest term (Monagan & Pearce, CASC
    2007).  A term cancelled while queued stays in the heap and is skipped
    when popped; a term queued twice is processed at its first pop.  No
    popped term comes back: every term a reduction adds is smaller than the
    term it reduces.  A term is tested only against the divisors whose head
    starts with one of its variables.  The work list is keyed by exps
    tuples.  Each step records (divisor, quotient exps, coefficient);
    Monomials and the quotient polynomials are built at the end, and every
    unused divisor's quotient is one shared zero polynomial.

    Over QQ, when the Divisors are integral (see Divisors) and every
    coefficient of f is an integer, the division runs on ints: a head
    coefficient of 1 or -1 never takes a quotient coefficient out of ZZ.
    The returned coefficients are converted back to Fractions, so results
    are the same as over QQ.
    """
    fld = f.field
    divisors = Divisors(basis, order)
    if divisors and divisors.field != fld:
        raise FieldMismatchError(f"{fld} vs {divisors.field}")
    over_zz = divisors.integral and all(c.denominator == 1 for c in f.terms.values())
    if over_zz:
        mul, add, is_zero = operator.mul, operator.add, operator.not_
        work = {m.exps: c.numerator for m, c in f.terms.items()}
    else:
        mul, add, is_zero = fld.mul, fld.add, fld.is_zero
        work = {m.exps: c for m, c in f.terms.items()}
    key, heads, tails, by_var = divisors.key, divisors.heads, divisors.tails, divisors.by_var
    # A constant head divides every term, so no later divisor is ever tried.
    no_divisor = len(divisors)
    first_constant = divisors.first_constant
    heap = [(key(t), t) for t in work]
    heapq.heapify(heap)
    steps = []
    rem = {}
    pop, push, get = heapq.heappop, heapq.heappush, work.get
    while heap:
        lt = pop(heap)[1]
        lc = work.pop(lt, None)
        if lc is None:
            continue
        exps = dict(lt)
        i = first_constant
        for v in exps:
            for j in by_var.get(v, ()):
                if j >= i:
                    break
                for hv, he in heads[j]:
                    if exps.get(hv, 0) < he:
                        break
                else:
                    i = j
                    break
        if i == no_divisor:
            rem[lt] = lc
            continue
        for hv, he in heads[i]:
            exps[hv] -= he
        q = tuple([item for item in exps.items() if item[1]])
        inv_gc, tail = tails[i]
        qc = mul(lc, inv_gc)
        steps.append((i, q, qc))
        # The head's own product is lt, whose coefficient cancels exactly.
        for t2, c2 in tail:
            t = _merge_exps(q, t2)
            c = mul(qc, c2)
            prev = get(t)
            if prev is None:
                work[t] = c
                push(heap, (key(t), t))
            else:
                c = add(prev, c)
                if is_zero(c):
                    del work[t]
                else:
                    work[t] = c
    # Over ZZ, back to QQ's canonical Fractions (render tests for Fraction).
    out = Fraction if over_zz else (lambda c: c)
    used: dict[int, dict] = {}
    for i, q, qc in steps:
        used.setdefault(i, {})[_monomial(q)] = out(qc)
    quots = [_raw(fld, {})] * no_divisor
    for i, terms in used.items():
        quots[i] = _raw(fld, terms)
    return quots, _raw(fld, {_monomial(t): out(c) for t, c in rem.items()})


_KEY_END = (math.inf,)


def _heap_key(order: TermOrder):
    """A key function on exps tuples whose ascending order is the term
    order's descending order: sort_key with every entry negated.  Negation
    alone would rank a key that is a prefix of another first, so every key
    ends in a marker above any negated pair; the marker plays the missing
    variable's exponent 0."""
    rank = order._rank
    graded = order.kind == GRLEX

    def key(exps: tuple) -> list:
        try:
            k = [(-rank[v], -e) for v, e in exps]
        except KeyError as exc:
            raise ValueError(f"variable x{exc.args[0]} is not ranked by this order") from None
        k.sort()
        k.append(_KEY_END)
        if graded:
            k.insert(0, -sum(e for _, e in exps))
        return k

    return key


def _monomial(exps: tuple) -> Monomial:
    """Internal constructor for an already-canonical exps tuple."""
    m = object.__new__(Monomial)
    m.exps = exps
    m._hash = hash(exps)
    return m


def _merge_exps(a: tuple, b: tuple) -> tuple:
    """The exps tuple of the product of two monomials, by merging their
    variable-sorted exps tuples."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va < vb:
            out.append(a[i])
            i += 1
        elif vb < va:
            out.append(b[j])
            j += 1
        else:
            out.append((va, ea + eb))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    """lcm(LM f, LM g)/LT(f) * f - lcm/LT(g) * g.

    Built on exps tuples: the cofactors lcm/LM f and lcm/LM g come from one
    merge of the two heads, the head terms (which cancel exactly) are
    skipped, and the two tails' products go into one term dict."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("S-polynomial of the zero polynomial")
    fld = f.field
    f._check_field(g)
    fm, fc = f.leading_term(order)
    gm, gc = g.leading_term(order)
    fq, gq = _cofactor_exps(fm.exps, gm.exps)
    mul = fld.mul
    a, b = fld.inv(fc), fld.neg(fld.inv(gc))
    terms = {_monomial(_merge_exps(fq, m.exps)): mul(c, a)
             for m, c in f.terms.items() if m is not fm}
    return _raw(fld, _add_terms(fld, terms, ((_monomial(_merge_exps(gq, m.exps)), mul(c, b))
                                             for m, c in g.terms.items() if m is not gm)))


def _cofactor_exps(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """The exps tuples of lcm/A and lcm/B, where a and b are the exps tuples
    of monomials A and B and lcm is their least common multiple."""
    ca, cb = [], []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va < vb:
            cb.append(a[i])
            i += 1
        elif vb < va:
            ca.append(b[j])
            j += 1
        else:
            if ea < eb:
                ca.append((va, eb - ea))
            elif eb < ea:
                cb.append((va, ea - eb))
            i += 1
            j += 1
    cb.extend(a[i:])
    ca.extend(b[j:])
    return tuple(ca), tuple(cb)


def complete_homogeneous(d: int, variables: Sequence[int], field) -> Polynomial:
    """Sum of all degree-d monomials (with repetition) in the given variables."""
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    if not variables:
        raise ValueError("complete_homogeneous requires at least one variable")
    if len(set(variables)) != len(variables):
        raise ValueError("variables must be distinct")
    # Over ascending variables each combination lists its variables in
    # ascending runs, which are the canonical exps tuple's pairs.
    one, groupby = field.one, itertools.groupby
    return _raw(field, {
        _monomial(tuple([(v, len(list(run))) for v, run in groupby(combo)])): one
        for combo in itertools.combinations_with_replacement(sorted(variables), d)})


# --- canonical text form ----------------------------------------------------

def _factor_str(v, e: int) -> str:
    """One factor of a monomial's text: x{v}, or x{v}^{e} for e > 1."""
    return f"x{v}" if e == 1 else f"x{v}^{e}"


def _monomial_str(m: Monomial) -> str:
    if m.is_one:
        return "1"
    return "*".join([_factor_str(v, e) for v, e in m.exps])


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
