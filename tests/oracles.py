"""Completion, reduction and evaluation oracles: test-only helpers.

No verb runs a completion: for chordal graphs the coloring ideal's Groebner
basis comes from one elimination sweep.  The tests check that explicit
basis against the textbook algorithm: buchberger completes a generator list
by reducing S-pairs and skips pairs with relatively prime leading monomials
(Buchberger's first criterion; Cox, Little & O'Shea, Ideals, Varieties,
and Algorithms, ch. 2 sec. 9), and reduce_basis turns a Groebner basis
into the unique reduced one.  Both run on chromideal.poly's normal_form and
s_polynomial and on the dict-built monomial lcm and divisibility of
dict_product.py.  Budgets make the completion fail loudly instead of
hanging.

search_without_core is certificate search on the host graph's own
systems alone, the reference for the clique-core answers of
search_certificate.

The rest evaluate polynomials at points, build lex and graded lex orders
from a variable list, compute elementary symmetric values and test
simpliciality by the definition, for the tests' identities and
cross-checks.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from chromideal.certificates import (
    Certificate,
    admissible_degrees,
    assemble_system,
    solve_system,
    twin_chunks,
)
from chromideal.fields import PrimeField
from chromideal.graphs import EliminationRecord, Graph
from chromideal.oracle import buchberger_criterion
from chromideal.poly import (
    GRLEX,
    LEX,
    Monomial,
    Polynomial,
    TermOrder,
    _add_terms,
    _raw,
    normal_form,
    s_polynomial,
)
from dict_product import dict_monomial_divides, dict_monomial_lcm


class OracleBudgetExceeded(RuntimeError):
    """The completion did not finish within its reduction budget."""


class NotAGroebnerBasis(ValueError):
    """reduce_basis requires input that already passes the S-pair criterion."""


@dataclass(frozen=True)
class GroebnerBasis:
    """Basis polynomials plus the term order they are a basis under.

    `peo` carries the elimination records of a chordal basis that
    reduce_basis reduced; it is None for bases built by buchberger.
    """

    polys: tuple[Polynomial, ...]
    order: TermOrder
    peo: tuple[EliminationRecord, ...] | None = None


def monic(p: Polynomial, order: TermOrder) -> Polynomial:
    """p scaled so that its leading coefficient under `order` is 1."""
    _, c = p.leading_term(order)
    return p.scale(p.field.inv(c))


def buchberger(
    gens: Sequence[Polynomial], order: TermOrder, budget: int = 100_000
) -> GroebnerBasis:
    """Textbook completion: reduce S-pairs until none survive.

    Uses the normal selection strategy (smallest pair lcm under the order
    first).  Each S-pair reduction costs one unit of budget; exceeding it
    raises OracleBudgetExceeded.
    """
    basis = [monic(p, order) for p in gens if not p.is_zero]
    if not basis:
        raise ValueError("no nonzero generators")
    heads = [p.leading_monomial(order) for p in basis]
    pairs = {(a, b) for a in range(len(basis)) for b in range(a + 1, len(basis))}
    steps = 0
    while pairs:
        pick = min(pairs, key=lambda ab: (
            order.sort_key(dict_monomial_lcm(heads[ab[0]], heads[ab[1]])), ab))
        pairs.remove(pick)
        a, b = pick
        if dict_monomial_lcm(heads[a], heads[b]) == heads[a] * heads[b]:
            continue  # relatively prime leading monomials
        steps += 1
        if steps > budget:
            raise OracleBudgetExceeded(f"more than {budget} S-pair reductions")
        s = s_polynomial(basis[a], basis[b], order)
        if s.is_zero:
            continue
        _, r = normal_form(s, basis, order)
        if r.is_zero:
            continue
        basis.append(monic(r, order))
        heads.append(r.leading_monomial(order))
        new = len(basis) - 1
        pairs.update((i, new) for i in range(new))
    return GroebnerBasis(tuple(basis), order, peo=None)


def reduce_basis(basis) -> GroebnerBasis:
    """The unique reduced basis of a GroebnerBasis or ChordalBasis: monic
    elements, no term of any element divisible by another element's leading
    monomial, sorted by leading monomial ascending."""
    order = basis.order
    if not buchberger_criterion(basis.polys, order):
        raise NotAGroebnerBasis("input fails the S-pair criterion")
    polys = [monic(p, order) for p in basis.polys if not p.is_zero]
    polys.sort(key=lambda p: order.sort_key(p.leading_monomial(order)))
    minimal: list[Polynomial] = []
    for p in polys:
        lm = p.leading_monomial(order)
        if not any(dict_monomial_divides(q.leading_monomial(order), lm) for q in minimal):
            minimal.append(p)
    reduced = []
    for i, p in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        if others:
            _, p = normal_form(p, others, order)
        reduced.append(monic(p, order))
    reduced.sort(key=lambda p: order.sort_key(p.leading_monomial(order)))
    return GroebnerBasis(tuple(reduced), order, peo=basis.peo)


def search_without_core(g: Graph, k: int, field: PrimeField,
                        d_max: int | None = None) -> Certificate | None:
    """search_certificate without its (k+1)-clique core: g's own system,
    over g's twin chunks, at each admissible degree up to d_max (default
    3k + 1) until one is feasible."""
    chunks = twin_chunks(g, field.p)
    infeasible = []
    for d in admissible_degrees(k, 3 * k + 1 if d_max is None else d_max):
        solution = solve_system(assemble_system(g, k, field, d, chunks))
        if solution is not None:
            betas = {e: Polynomial(field, terms) for e, terms in sorted(solution.items())}
            return Certificate(field, k, betas, None, tuple(infeasible))
        infeasible.append(d)
    return None


def _power(field, a, e: int):
    """a ** e in field: pow(a, e, p) over GF(p), Fraction ** e over QQ."""
    return pow(a, e, field.p) if isinstance(field, PrimeField) else Fraction(a) ** e


def evaluate(p: Polynomial, assignment: Mapping[int, object]):
    """Exact value of p at a total assignment of its variables."""
    f = p.field
    vals = {v: f.element(x) for v, x in assignment.items()}
    total = f.zero
    for m, c in p.terms.items():
        acc = c
        for v, e in m.exps:
            if v not in vals:
                raise ValueError(f"unbound variable x{v}")
            acc = f.mul(acc, _power(f, vals[v], e))
        total = f.add(total, acc)
    return total


def substitute(p: Polynomial, assignment: Mapping[int, object]) -> Polynomial:
    """Partial evaluation: plug in values for a subset of p's variables."""
    f = p.field
    vals = {v: f.element(x) for v, x in assignment.items()}
    plugged = []
    for m, c in p.terms.items():
        for v, e in m.exps:
            if v in vals:
                c = f.mul(c, _power(f, vals[v], e))
        plugged.append((Monomial([(v, e) for v, e in m.exps if v not in vals]), c))
    return _raw(f, _add_terms(f, {}, plugged))


def lex_descending(variables: Sequence[int]) -> TermOrder:
    """Lex order with the listed variables largest-first."""
    n = len(variables)
    return TermOrder(LEX, {v: n - i for i, v in enumerate(variables)})


def grlex_descending(variables: Sequence[int]) -> TermOrder:
    """Graded lex order with the listed variables largest-first."""
    n = len(variables)
    return TermOrder(GRLEX, {v: n - i for i, v in enumerate(variables)})


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


def is_simplicial(g: Graph, v: int) -> bool:
    """True iff every two neighbors of v are adjacent."""
    nv = sorted(g.neighbors(v))
    return all(g.has_edge(a, b) for a, b in itertools.combinations(nv, 2))
