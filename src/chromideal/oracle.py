"""The independent checks the verifier verbs run: exhaustive coloring
enumeration (oracle-count) and the S-pair criterion (verify-gb).

Both trade speed for transparency; a budget makes the enumeration fail
loudly instead of hanging.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph
from .poly import Divisors, Polynomial, TermOrder, normal_form, s_polynomial


class OracleTooLarge(RuntimeError):
    """The exhaustive enumeration would exceed the configured budget."""


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


def buchberger_criterion(polys: Sequence[Polynomial], order: TermOrder) -> bool:
    """True iff every pairwise S-polynomial reduces to zero modulo the list.

    Every pair is reduced, coprime leading monomials included.  The list is
    indexed for division once (a Divisors under `order` is used as is), and
    every reduction divides by that one index.
    """
    polys = Divisors(polys, order)
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            s = s_polynomial(polys[a], polys[b], order)
            if s.is_zero:
                continue
            _, r = normal_form(s, polys, order)
            if not r.is_zero:
                return False
    return True
