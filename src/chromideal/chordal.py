"""One-pass Groebner bases for coloring ideals of chordal graphs.

Sweeping a perfect elimination order, each removed vertex v with residual
clique neighborhood U contributes the complete homogeneous polynomial
S_{k-|U|} in the clique variables plus x_v (or x_v^k - 1 when U is empty).
Under the lex order that ranks earlier-removed vertices higher, the leading
monomials are pure powers x_v^{k-|U|} in pairwise distinct variables, which
makes the collection a Groebner basis and makes counting and coloring
extraction direct.

The basis is explicit, so the sweep keeps only the elimination records: a
ChordalBasis builds its polynomials on first read, and the canonical text
of an element with a nonempty clique (every coefficient 1) is written
straight from its record and the elimination ranks, with no Polynomial.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .graphs import EliminationRecord, Graph, NotChordalError, perfect_elimination_order
from .ideals import _check_characteristic, mk_vertex_poly
from .poly import LEX, Polynomial, TermOrder, _factor_str, complete_homogeneous


@dataclass(frozen=True)
class ChordalBasis:
    """The basis of one elimination sweep: one element per record, under the
    elimination term order.  `polys` is built on first read, so a caller
    that only needs the records or the text pays for no polynomial."""

    order: TermOrder
    peo: tuple[EliminationRecord, ...]
    k: int
    field: object

    @functools.cached_property
    def polys(self) -> tuple[Polynomial, ...]:
        return tuple(basis_polynomial(rec, self.k, self.field) for rec in self.peo)


@dataclass(frozen=True)
class BasisResult:
    """Either the basis of an elimination sweep, or infeasibility (the trivial
    basis {1}, basis None) witnessed by a simplicial vertex whose residual
    clique already has k or more members."""

    basis: ChordalBasis | None
    witness: EliminationRecord | None = None

    @property
    def infeasible(self) -> bool:
        return self.basis is None


def elimination_term_order(peo: tuple[EliminationRecord, ...]) -> TermOrder:
    """Lex order ranking the first-removed vertex largest."""
    n = len(peo)
    return TermOrder(LEX, {rec.vertex: n - i for i, rec in enumerate(peo)})


def basis_polynomial(record: EliminationRecord, k: int, field) -> Polynomial:
    """The contribution of one elimination record.

    For a nonempty clique U: S_{k-|U|}(x_u for u in U, x_v), with C(k, |U|)
    terms.  For an empty clique the correct generator is x_v^k - 1 (the bare
    complete homogeneous S_k(x_v) = x_v^k only vanishes at 0, not at the
    roots of unity).
    """
    _check_characteristic(field, k)
    r = len(record.clique)
    if r > k:
        raise ValueError(f"clique of size {r} exceeds k={k}")
    if r == 0:
        return mk_vertex_poly(record.vertex, k, field)
    variables = sorted(record.clique) + [record.vertex]
    return complete_homogeneous(k - r, variables, field)


def clique_element_text(record: EliminationRecord, k: int, rank: dict[int, int]) -> str:
    """render(basis_polynomial(record, k, field), order) for a record whose
    clique U has 1 to k-1 members, over any field, where `rank` maps each
    vertex to its rank under the elimination order `order`.

    Every coefficient of S_{k-|U|} is 1, so the text depends only on the
    variables' ranks and ids: it is a template, one per degree and shape,
    filled in with the variables."""
    variables = sorted([record.vertex, *record.clique], key=rank.__getitem__, reverse=True)
    by_id = tuple(sorted(range(len(variables)), key=variables.__getitem__))
    return _clique_template(k - len(record.clique), by_id).format(*variables)


@functools.lru_cache(maxsize=1024)
def _clique_template(d: int, by_id: tuple[int, ...]) -> str:
    """The text of S_d as a str.format template whose field {j} stands for
    the j-th variable by descending rank; by_id lists the fields by
    ascending variable id.  Combinations over the fields in rank order come
    in lex-descending order, and each term's factors are written in
    variable-id order, as render writes them.  Elements with cliques of up
    to 5 members (k <= 6) have fewer shapes than the cache holds."""
    slot = {j: i for i, j in enumerate(by_id)}
    terms = []
    for combo in itertools.combinations_with_replacement(range(len(by_id)), d):
        runs = sorted([(j, len(list(run))) for j, run in itertools.groupby(combo)],
                      key=lambda run: slot[run[0]])
        terms.append("*".join([_factor_str(f"{{{j}}}", e) for j, e in runs]))
    return " + ".join(terms)


def build_groebner_basis(g: Graph, k: int, field) -> BasisResult | None:
    """Groebner basis of the k-coloring ideal of a chordal graph.

    Returns None when g is not chordal.  Returns an infeasible result (the
    trivial basis) as soon as the sweep removes a simplicial vertex with k or
    more clique neighbors, which certifies a (k+1)-clique; otherwise a
    ChordalBasis with one polynomial per vertex, in removal order, under the
    elimination lex order.
    """
    _check_characteristic(field, k)
    peo = perfect_elimination_order(g)
    if peo is None:
        return None
    for rec in peo:
        if len(rec.clique) >= k:
            return BasisResult(basis=None, witness=rec)
    return BasisResult(basis=ChordalBasis(elimination_term_order(peo), peo, k, field))


def quotient_dimension(result: BasisResult, k: int) -> int:
    """Number of standard monomials: the product of (k - |U_i|) over the
    elimination records, i.e. the dimension of the quotient vector space.
    Zero when the result is infeasible."""
    if result.infeasible:
        return 0
    return count_along_order(result.basis.peo, k)


def extract_coloring(peo: tuple[EliminationRecord, ...], k: int) -> dict[int, int] | None:
    """Back-substitute along a perfect elimination order (last removed
    first), giving each vertex the smallest color unused by its clique
    neighbors.  None when some clique has k or more members (no k-coloring)."""
    if any(len(rec.clique) >= k for rec in peo):
        return None
    coloring: dict[int, int] = {}
    for rec in reversed(peo):
        used = {coloring[u] for u in rec.clique}
        coloring[rec.vertex] = next(c for c in range(k) if c not in used)
    return coloring


def count_along_order(peo: tuple[EliminationRecord, ...], k: int) -> int:
    """Product of the color choices k - |U| along an elimination order; zero
    when some clique has k or more members."""
    return math.prod(max(k - len(rec.clique), 0) for rec in peo)


def count_colorings_chordal(g: Graph, k: int) -> int:
    """Exact number of proper k-colorings of a chordal graph, as the product
    of per-vertex color choices along a perfect elimination order."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    peo = perfect_elimination_order(g)
    if peo is None:
        raise NotChordalError("graph is not chordal")
    return count_along_order(peo, k)
