"""Independent cross-checking machinery: exhaustive coloring enumeration,
the S-pair criterion, a textbook completion algorithm for small instances,
and reduction to the unique reduced basis.

Everything here trades speed for transparency; budgets make the oracles fail
loudly instead of hanging.
"""

from __future__ import annotations

from typing import Sequence

from .chordal import GroebnerBasis
from .graphs import Graph
from .poly import Polynomial, TermOrder, normal_form, s_polynomial


class OracleTooLarge(RuntimeError):
    """The exhaustive enumeration would exceed the configured budget."""


class OracleBudgetExceeded(RuntimeError):
    """The completion did not finish within its reduction budget."""


class NotAGroebnerBasis(ValueError):
    """reduce_basis requires input that already passes the S-pair criterion."""


# Assignments brute_force_colorings may enumerate (k^n).
_ENUMERATION_BUDGET = 10**8


def brute_force_colorings(g: Graph, k: int) -> int:
    """Exact labeled proper-coloring count by backtracking enumeration."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k**g.n > _ENUMERATION_BUDGET:
        raise OracleTooLarge(f"{k}^{g.n} assignments exceed budget {_ENUMERATION_BUDGET}")
    earlier = {v: [u for u in g.neighbors(v) if u < v] for v in g.vertices}
    colors = [0] * (g.n + 1)
    count = 0

    def walk(v: int):
        nonlocal count
        if v > g.n:
            count += 1
            return
        for c in range(k):
            if all(colors[u] != c for u in earlier[v]):
                colors[v] = c
                walk(v + 1)
        colors[v] = 0

    walk(1)
    return count


def buchberger_criterion(
    polys: Sequence[Polynomial], order: TermOrder, skip_coprime: bool = False
) -> bool:
    """True iff every pairwise S-polynomial reduces to zero modulo the list.

    Pairs with relatively prime leading monomials reduce to zero
    automatically and may be skipped; the full check must agree.
    """
    heads = [p.leading_monomial(order) for p in polys]
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            if skip_coprime and heads[a].lcm(heads[b]) == heads[a] * heads[b]:
                continue
            s = s_polynomial(polys[a], polys[b], order)
            if s.is_zero:
                continue
            _, r = normal_form(s, polys, order)
            if not r.is_zero:
                return False
    return True


def buchberger(
    gens: Sequence[Polynomial], order: TermOrder, budget: int = 100_000
) -> GroebnerBasis:
    """Textbook completion: reduce S-pairs until none survive.

    Uses the normal selection strategy (smallest pair lcm under the order
    first).  Each S-pair reduction costs one unit of budget; exceeding it
    raises OracleBudgetExceeded.
    """
    basis = [p.monic(order) for p in gens if not p.is_zero]
    if not basis:
        raise ValueError("no nonzero generators")
    heads = [p.leading_monomial(order) for p in basis]
    pairs = {(a, b) for a in range(len(basis)) for b in range(a + 1, len(basis))}
    steps = 0
    while pairs:
        pick = min(pairs, key=lambda ab: (order.sort_key(heads[ab[0]].lcm(heads[ab[1]])), ab))
        pairs.remove(pick)
        a, b = pick
        if heads[a].lcm(heads[b]) == heads[a] * heads[b]:
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
        basis.append(r.monic(order))
        heads.append(r.leading_monomial(order))
        new = len(basis) - 1
        pairs.update((i, new) for i in range(new))
    return GroebnerBasis(tuple(basis), order, peo=None)


def reduce_basis(basis: GroebnerBasis) -> GroebnerBasis:
    """The unique reduced basis: monic elements, no term of any element
    divisible by another element's leading monomial, sorted by leading
    monomial ascending."""
    order = basis.order
    if not buchberger_criterion(basis.polys, order, skip_coprime=False):
        raise NotAGroebnerBasis("input fails the S-pair criterion")
    monic = [p.monic(order) for p in basis.polys if not p.is_zero]
    monic.sort(key=lambda p: order.sort_key(p.leading_monomial(order)))
    minimal: list[Polynomial] = []
    for p in monic:
        lm = p.leading_monomial(order)
        if not any(q.leading_monomial(order).divides(lm) for q in minimal):
            minimal.append(p)
    reduced = []
    for i, p in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        if others:
            _, p = normal_form(p, others, order)
        reduced.append(p.monic(order))
    reduced.sort(key=lambda p: order.sort_key(p.leading_monomial(order)))
    return GroebnerBasis(tuple(reduced), order, peo=basis.peo)
