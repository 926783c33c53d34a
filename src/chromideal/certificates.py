"""Minimal-degree certificates of non-k-colorability over GF(p).

A graph is not k-colorable exactly when some combination of the ideal
generators equals 1.  Working modulo every x_i^k - 1 (exponents reduced mod
k), it suffices to combine the edge generators alone, and the coefficients
can be taken with every monomial degree congruent to 1 mod k; for k > 3 no
degree-1 combination exists.  The search therefore assembles, degree class
by degree class, an exact linear system over GF(p) whose columns are
(edge, coefficient-monomial) pairs and whose rows are quotient-ring
monomials, and solves it with the kernels in linalg.  A found edge-only
certificate can be lifted to a full-ring identity by tracking the quotients
of division by the vertex generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping

from . import linalg
from .fields import PrimeField
from .graphs import Graph
from .ideals import (
    JSON_VERSION,
    ColoringIdeal,
    _check_characteristic,
    field_from_json,
    field_to_json,
    graph_from_json,
    graph_to_json,
    mk_edge_poly,
    mk_vertex_poly,
    quotient_reduce,
)
from .poly import Monomial, Polynomial, _add_terms, parse_poly, render


class InvalidCertificate(ValueError):
    """The coefficients do not combine to the constant 1."""


def _degree_bound(k: int, d_max: int | None) -> int:
    """The search bound: d_max, or 3k + 1 when it is None."""
    return 3 * k + 1 if d_max is None else d_max


def admissible_degrees(k: int, d_max: int) -> list[int]:
    """Degrees at which an edge-coefficient certificate can exist: congruent
    to 1 mod k, starting at 1 for k in {2, 3} and at k + 1 for larger k."""
    if k < 2:
        raise ValueError("k must be at least 2")
    start = 1 if k <= 3 else k + 1
    return list(range(start, d_max + 1, k))


def _coefficient_monomials(n: int, k: int,
                           degrees: set[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    """Sparse exponent tuples ((variable, exponent), ...) over variables 1..n
    with every exponent below k and total degree in the given set.

    Exactly those vectors are generated, degrees in ascending order; within
    a degree, variable 1 takes its largest exponent first, then variable 2,
    and so on (the descending order of the dense exponent vectors).
    """
    for d in sorted(degrees):
        yield from _exponents_of_degree(n, k, 1, d)


def _exponents_of_degree(n: int, k: int, first: int,
                         d: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The degree-d part of _coefficient_monomials on variables first..n."""
    if d == 0:
        yield ()
        return
    # Variable v can be the first nonzero one only if v..n can hold degree d.
    for v in range(first, n + 1):
        if (k - 1) * (n - v + 1) < d:
            return
        for e in range(min(k - 1, d), 0, -1):
            for rest in _exponents_of_degree(n, k, v + 1, d - e):
                yield ((v, e),) + rest


@dataclass
class LinearSystem:
    """The degree-d certificate system for one graph.

    Columns are (edge, monomial) pairs; conceptually there is one row per
    quotient-ring monomial (k^n of them), but only rows touched by some
    column are materialized, plus the constant row carrying the rhs 1.  A
    row is named by its monomial's code: the exponent of x_v is the base-k
    digit of weight k^(v-1), so the constant row is code 0.
    """

    graph: Graph
    k: int
    field: PrimeField
    degree: int
    columns: list[tuple[tuple[int, int], Monomial]]
    col_rows: list[list[int]]
    row_monomials: list[int]
    rhs_row: int

    @property
    def n_cols(self) -> int:
        return len(self.columns)


def assemble_system(g: Graph, k: int, field: PrimeField, d: int) -> LinearSystem:
    """Sparse system whose solutions are the edge-coefficient certificates of
    degree at most d in the quotient ring (monomial degrees = 1 mod k)."""
    if not isinstance(field, PrimeField):
        raise ValueError("certificate systems are assembled over prime fields")
    _check_characteristic(field, k)
    if d < 0:
        raise ValueError("degree bound must be nonnegative")
    degrees = {t for t in range(1, d + 1) if t % k == 1 % k}
    # weight[v] = k^(v-1), the place value of x_v's exponent in a row code.
    weight = [0] + [k ** i for i in range(g.n)]
    monomials = []
    for exps in _coefficient_monomials(g.n, k, degrees):
        code = sum(e * weight[v] for v, e in exps)
        monomials.append((Monomial(exps), dict(exps), code))

    # Row ids in order of first touch; the constant row carrying the rhs is 0.
    row_index = {0: 0}
    columns = []
    col_rows = []
    for u, v in g.edges():
        wu, wv = weight[u], weight[v]
        # shift[a][b]: code offsets of the k rows of a column whose monomial
        # has exponents a at u and b at v.
        shift = [[[((a + l) % k - a) * wu + ((b + k - 1 - l) % k - b) * wv for l in range(k)]
                  for b in range(k)] for a in range(k)]
        for mono, exps, code in monomials:
            col_rows.append([row_index.setdefault(code + s, len(row_index))
                             for s in shift[exps.get(u, 0)][exps.get(v, 0)]])
            columns.append(((u, v), mono))
    return LinearSystem(g, k, field, d, columns, col_rows, list(row_index), 0)


_SUBSET_THRESHOLD = 100_000


def _solve_wide(system: LinearSystem) -> list[int] | None:
    """Odd-p solve through a ladder of growing column subsets.

    Systems of at most _SUBSET_THRESHOLD columns start at full width.  Wider
    ones solve deterministic growing random column subsets first: a
    subsystem solution extends by zeros to the full system, so any hit is
    final, while subset infeasibility just widens the ladder.  Only a
    genuinely infeasible system reaches the full width, and every rung runs
    under the fill budget, which fails loudly rather than exhausting memory.
    """
    n_cols = system.n_cols
    rng = random.Random(0)
    size = n_cols if n_cols <= _SUBSET_THRESHOLD else int(1.35 * len(system.row_monomials))
    while True:
        if size >= n_cols:
            subset = range(n_cols)
        else:
            subset = sorted(rng.sample(range(n_cols), size))
        entries = [[(r, 1) for r in system.col_rows[j]] for j in subset]
        x = linalg.solve_sparse(entries, {system.rhs_row: 1}, system.field)
        if x is not None:
            full = [0] * n_cols
            for jj, j in enumerate(subset):
                full[j] = x[jj]
            return full
        if size >= n_cols:
            return None
        size *= 2


def solve_system(system: LinearSystem) -> dict[tuple[tuple[int, int], Monomial], int] | None:
    """One solution of the system (nonzero entries only), or None if it is
    inconsistent.  Deterministic: bit-packed dense elimination over GF(2),
    sparse Markowitz-pivot elimination for odd p (through a growing ladder
    of column subsets beyond _SUBSET_THRESHOLD columns).  Raises
    linalg.FillBudgetExceeded when a kernel would pass its memory budget."""
    if system.field.p == 2:
        x = linalg.solve_gf2(len(system.row_monomials), system.col_rows, [system.rhs_row])
    else:
        x = _solve_wide(system)
    if x is None:
        return None
    return {system.columns[j]: c for j, c in enumerate(x) if c}


@dataclass
class Certificate:
    """Coefficients combining the generators to 1, witnessing that no proper
    k-coloring exists.

    edge_coeffs holds the quotient-ring coefficients of the edge generators
    (every monomial degree = 1 mod k); vertex_coeffs, when present, completes
    the identity in the full polynomial ring.  infeasible_degrees records the
    smaller admissible degrees that were proven infeasible by the search.
    """

    field: PrimeField
    k: int
    edge_coeffs: dict[tuple[int, int], Polynomial]
    vertex_coeffs: dict[int, Polynomial] | None = None
    infeasible_degrees: tuple[int, ...] = ()

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("certificates need k >= 2")
        for e, beta in self.edge_coeffs.items():
            for m in beta.terms:
                if m.degree % self.k != 1 % self.k:
                    raise ValueError(
                        f"coefficient monomial {m} for edge {e} has degree "
                        f"{m.degree}, not 1 mod {self.k}"
                    )

    @property
    def degree(self) -> int:
        """Max total degree over the edge coefficients."""
        return max((b.degree() for b in self.edge_coeffs.values()), default=-1)

    @property
    def lifted_degree(self) -> int | None:
        """Max degree over all coefficients once lifted; None before lifting."""
        if self.vertex_coeffs is None:
            return None
        return max(
            [self.degree] + [g.degree() for g in self.vertex_coeffs.values()]
        )


def search_certificate(
    g: Graph,
    k: int,
    field: PrimeField,
    d_max: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> Certificate | None:
    """Certificate at the smallest admissible degree <= d_max at which the
    system is consistent; None when every admissible degree fails (the graph
    may be k-colorable, or d_max too small -- this search does not decide).
    Raises ValueError for a field that is not prime or a negative d_max.
    """
    if not isinstance(field, PrimeField):
        raise ValueError("certificate search needs a prime field")
    if d_max is not None and d_max < 0:
        raise ValueError(f"degree bound must be nonnegative, got {d_max}")
    _check_characteristic(field, k)
    infeasible: list[int] = []
    for d in admissible_degrees(k, _degree_bound(k, d_max)):
        system = assemble_system(g, k, field, d)
        solution = solve_system(system)
        if progress is not None:
            status = "infeasible" if solution is None else "certificate found"
            progress(
                f"degree {d}: {status} "
                f"({system.n_cols} columns, {len(system.row_monomials)} rows)"
            )
        if solution is None:
            infeasible.append(d)
            continue
        edge_coeffs: dict[tuple[int, int], dict[Monomial, int]] = {}
        for (edge, mono), c in solution.items():
            edge_coeffs.setdefault(edge, {})[mono] = c
        betas = {e: Polynomial(field, terms) for e, terms in sorted(edge_coeffs.items())}
        return Certificate(field, k, betas, None, tuple(infeasible))
    return None


def verify_certificate(cert: Certificate, ideal: ColoringIdeal) -> bool:
    """True iff the coefficients combine the generators to the constant 1:
    in the quotient ring for edge-only certificates, in the full polynomial
    ring when vertex coefficients are present."""
    if cert.field != ideal.field or cert.k != ideal.k:
        raise ValueError("certificate and ideal disagree on field or k")
    for e in cert.edge_coeffs:
        if e not in ideal.edge_polys:
            raise ValueError(f"certificate names edge {e} not in the graph")
    field = cert.field
    one = Polynomial.constant(field, field.one)
    total = Polynomial.zero(field)
    for e, beta in cert.edge_coeffs.items():
        total = total + beta * ideal.edge_polys[e]
    if cert.vertex_coeffs is None:
        return quotient_reduce(total, cert.k) == one
    for v, gamma in cert.vertex_coeffs.items():
        total = total + gamma * mk_vertex_poly(v, cert.k, field)
    return total == one


def _split_off_vertex_quotients(f: Polynomial, k: int) -> dict[int, dict[Monomial, object]]:
    """The q_i of f = quotient_reduce(f, k) + sum_i q_i * (x_i^k - 1), as
    term dicts keyed by vertex.

    Telescopes each term x^a = x^(a mod k) * prod_i (x_i^k)^(a_i div k)
    through y^q - 1 = (y - 1)(1 + y + ... + y^(q-1)).
    """
    field = f.field
    quotients: dict[int, dict[Monomial, object]] = {}
    for m, c in f.terms.items():
        prefix = {v: e % k for v, e in m.exps}
        for v, e in m.exps:
            if e >= k:
                steps = ((Monomial({**prefix, v: prefix[v] + k * t}), c) for t in range(e // k))
                _add_terms(field, quotients.setdefault(v, {}), steps)
                prefix[v] = e
    return quotients


def lift_certificate(cert: Certificate, g: Graph) -> Certificate:
    """Complete a quotient-ring certificate to a full-ring identity by adding
    vertex-generator coefficients; raises InvalidCertificate when the input
    does not verify in the quotient ring."""
    field, k = cert.field, cert.k
    edges = set(g.edges())
    for e in cert.edge_coeffs:
        if e not in edges:
            raise ValueError(f"certificate names edge {e} not in the graph")
    total = Polynomial.zero(field)
    for e, beta in cert.edge_coeffs.items():
        total = total + beta * mk_edge_poly(e[0], e[1], k, field)
    if quotient_reduce(total, k) != Polynomial.constant(field, field.one):
        raise InvalidCertificate("coefficients do not combine to 1 in the quotient ring")
    vertex_coeffs = {
        v: Polynomial(field, terms).scale(field.neg(field.one))
        for v, terms in sorted(_split_off_vertex_quotients(total, k).items())
    }
    vertex_coeffs = {v: p for v, p in vertex_coeffs.items() if not p.is_zero}
    return replace(cert, vertex_coeffs=vertex_coeffs)


# --- JSON interchange --------------------------------------------------------

def certificate_to_json_dict(cert: Certificate, g: Graph) -> dict:
    return {
        "version": JSON_VERSION,
        "kind": "certificate",
        "field": field_to_json(cert.field),
        "k": cert.k,
        "graph": graph_to_json(g),
        "degree": cert.degree,
        "lifted_degree": cert.lifted_degree,
        "edge_coefficients": {
            f"{u}-{v}": render(p) for (u, v), p in sorted(cert.edge_coeffs.items())
        },
        "vertex_coefficients": None
        if cert.vertex_coeffs is None
        else {str(v): render(p) for v, p in sorted(cert.vertex_coeffs.items())},
        "infeasible_degrees": list(cert.infeasible_degrees),
    }


def certificate_search_to_json_dict(g: Graph, k: int, field: PrimeField,
                                    d_max: int | None = None) -> dict:
    """The document of a search that found no certificate up to d_max
    (default 3k + 1): every admissible degree is infeasible."""
    d_max = _degree_bound(k, d_max)
    return {
        "version": JSON_VERSION,
        "kind": "certificate_search",
        "field": field_to_json(field),
        "k": k,
        "graph": graph_to_json(g),
        "certificate": None,
        "d_max": d_max,
        "infeasible_degrees": admissible_degrees(k, d_max),
    }


def certificate_from_json_dict(data: Mapping) -> tuple[Certificate, Graph]:
    if data.get("kind") != "certificate":
        raise ValueError("not a certificate document")
    field = field_from_json(data["field"])
    if not isinstance(field, PrimeField):
        raise ValueError("certificates are defined over prime fields")
    k = int(data["k"])
    g = graph_from_json(data["graph"])
    edge_coeffs = {}
    for key, text in data["edge_coefficients"].items():
        u, v = sorted(int(x) for x in key.split("-"))
        if (u, v) in edge_coeffs:
            raise ValueError(f"edge {u}-{v} is named twice")
        edge_coeffs[(u, v)] = parse_poly(text, field)
    vertex_coeffs = data.get("vertex_coefficients")
    if vertex_coeffs is not None:
        vertex_coeffs = {int(v): parse_poly(text, field) for v, text in vertex_coeffs.items()}
    infeasible = tuple(data.get("infeasible_degrees", ()))
    return Certificate(field, k, edge_coeffs, vertex_coeffs, infeasible), g
