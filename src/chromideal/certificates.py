"""Minimal-degree certificates of non-k-colorability over GF(p).

A graph is not k-colorable exactly when some combination of the ideal
generators equals 1.  Working modulo every x_i^k - 1 (exponents reduced mod
k), it suffices to combine the edge generators alone, and the coefficients
can be taken with every monomial degree congruent to 1 mod k; for k > 3 no
degree-1 combination exists.  The search therefore assembles, degree class
by degree class, an exact linear system over GF(p) whose columns are
(edge, coefficient-monomial) pairs and whose rows are quotient-ring
monomials, and solves it with the kernels in linalg.  Each system is taken
over the orbits of a group of twin-vertex permutations whose order is prime
to p, which leaves its solvability unchanged (see LinearSystem), and a
solution expands back to a plain certificate.  A graph with a
(k+1)-clique that is not K_{k+1} itself first tries K_{k+1}'s system at
each degree: a certificate for a subgraph is one for the graph.  A found
edge-only certificate can be lifted to a full-ring identity by tracking
the quotients of division by the vertex generators.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import linalg
from .fields import PrimeField
from .graphs import Graph, complete_graph, find_clique
from .ideals import (
    JSON_VERSION,
    ColoringIdeal,
    _check_characteristic,
    _int_key,
    check_json_version,
    field_from_json,
    field_to_json,
    graph_from_json,
    graph_to_json,
    json_int,
    mk_edge_poly,
    quotient_reduce,
)
from .poly import Monomial, Polynomial, _add_terms, _monomial, _raw, parse_poly, render


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


def _coefficient_monomials(n: int, k: int, degrees: set[int],
                           pred: list[int] | None = None) -> Iterator[tuple[tuple[int, int], ...]]:
    """Sparse exponent tuples ((variable, exponent), ...) over variables 1..n
    with every exponent below k and total degree in the given set.

    Exactly those vectors are generated, degrees in ascending order; within
    a degree, variable 1 takes its largest exponent first, then variable 2,
    and so on (the descending order of the dense exponent vectors).  With
    pred, only vectors whose exponent at v is at most the exponent at
    pred[v] < v are generated (pred[v] = 0: no bound but k - 1); they keep
    the same relative order.
    """
    pred = pred or [0] * (n + 1)
    chosen = [0] * (n + 1)  # chosen[v]: the exponent of v in the current prefix
    for d in sorted(degrees):
        yield from _exponents_of_degree(n, k, 1, d, pred, chosen)


def _exponents_of_degree(n: int, k: int, first: int, d: int, pred: list[int],
                         chosen: list[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    """The degree-d part of _coefficient_monomials on variables first..n."""
    if d == 0:
        yield ()
        return
    # Variable v can be the first nonzero one only if v..n can hold degree d.
    for v in range(first, n + 1):
        if (k - 1) * (n - v + 1) < d:
            return
        cap = chosen[pred[v]] if pred[v] else k - 1
        for e in range(min(cap, d), 0, -1):
            chosen[v] = e
            for rest in _exponents_of_degree(n, k, v + 1, d - e, pred, chosen):
                yield ((v, e),) + rest
        chosen[v] = 0


def twin_chunks(g: Graph, p: int) -> tuple[tuple[int, ...], ...]:
    """The blocks of the symmetry group that certificate search reduces by.

    Vertices with equal closed neighborhoods (true twins) or equal open
    neighborhoods (false twins) can be permuted freely: every such swap is a
    graph automorphism, and no vertex has twins of both kinds.  Each twin
    class is cut, in vertex order, into chunks of fewer than p vertices, so
    the product of the symmetric groups on the chunks has order
    prod |chunk|!, prime to p.  Over GF(2) every chunk is one vertex.
    """
    closed: dict[frozenset[int], list[int]] = {}
    open_: dict[frozenset[int], list[int]] = {}
    for v in g.vertices:
        closed.setdefault(g.neighbors(v) | {v}, []).append(v)
        open_.setdefault(g.neighbors(v), []).append(v)
    chunks = []
    for v in g.vertices:
        twins = closed[g.neighbors(v) | {v}]
        if len(twins) == 1:
            twins = open_[g.neighbors(v)]
        if twins[0] == v:
            chunks += [tuple(twins[i:i + p - 1]) for i in range(0, len(twins), p - 1)]
    return tuple(chunks)


def _check_chunks(g: Graph, p: int, chunks: tuple[tuple[int, ...], ...]) -> None:
    """Chunks must partition the vertices in increasing runs of fewer than p,
    and swapping consecutive members of a chunk must preserve the edge set
    (those swaps generate the chunk's symmetric group)."""
    if sorted(w for c in chunks for w in c) != list(g.vertices):
        raise ValueError("chunks must partition the vertices")
    for c in chunks:
        if len(c) >= p or list(c) != sorted(c):
            raise ValueError(f"chunk {c} is not an increasing run of fewer than {p} vertices")
        for a, b in zip(c, c[1:]):
            if g.neighbors(a) - {b} != g.neighbors(b) - {a}:
                raise ValueError(f"swapping {a} and {b} is not an automorphism")


@dataclass
class LinearSystem:
    """The degree-d certificate system for one graph, over the orbits of the
    group generated by swaps within each chunk.

    Columns are representatives of the orbits of (edge, monomial) pairs;
    rows are orbits of quotient-ring monomials (k^n monomials in all), of
    which only rows touched by some column are materialized, plus the
    constant row carrying the rhs 1.  A row is named by the code of its
    canonical monomial, whose exponents do not increase within a chunk: the
    exponent of x_v is the base-k digit of weight k^(v-1), so the constant
    row is code 0 and row id 0.  Each column lists the row orbits of its
    representative's k quotient monomials; a row listed c times carries
    coefficient c.  Under the trivial group (every chunk one vertex) this is
    the plain system with coefficients 1.

    The group order is prime to p, so the Reynolds average of any solution
    of the plain system is constant on column orbits: the orbit system is
    solvable exactly when the plain one is.  A solution z expands to the
    plain system by giving every column of orbit O the value z_O / |O|.
    """

    field: PrimeField
    degree: int
    columns: list[tuple[tuple[int, int], Monomial]]
    col_rows: list[list[int]]
    row_monomials: list[int]
    chunks: tuple[tuple[int, ...], ...]

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def group_order(self) -> int:
        return math.prod(math.factorial(len(c)) for c in self.chunks)


def _stabilizer_chains(n: int, chunks: tuple[tuple[int, ...], ...], ends: set[int]) -> list[int]:
    """pred for _coefficient_monomials selecting one monomial per orbit of the
    stabilizer of the edge `ends`, whose endpoints are the first members of
    their chunks: each chunk splits into the endpoints and the rest, and the
    exponents are non-increasing within each part."""
    pred = [0] * (n + 1)
    for c in chunks:
        cut = sum(w in ends for w in c)  # the endpoints lead their chunk
        for i in range(1, len(c)):
            if i != cut:
                pred[c[i]] = c[i - 1]
    return pred


def assemble_system(g: Graph, k: int, field: PrimeField, d: int,
                    chunks: Sequence[Sequence[int]] | None = None) -> LinearSystem:
    """Sparse system whose solutions are the edge-coefficient certificates of
    degree at most d in the quotient ring (monomial degrees = 1 mod k), over
    the orbits of the swaps within `chunks` (see twin_chunks; None: every
    vertex alone, the plain system).  Raises linalg.FillBudgetExceeded as
    soon as the coefficient monomials show that the system will pass the
    budget of the kernel that would solve it."""
    if not isinstance(field, PrimeField):
        raise ValueError("certificate systems are assembled over prime fields")
    _check_characteristic(field, k)
    if d < 0:
        raise ValueError("degree bound must be nonnegative")
    chunks = tuple((v,) for v in g.vertices) if chunks is None else tuple(map(tuple, chunks))
    _check_chunks(g, field.p, chunks)
    chunk_of = {w: c for c in chunks for w in c}
    degrees = {t for t in range(1, d + 1) if t % k == 1 % k}
    # weight[v] = k^(v-1), the place value of x_v's exponent in a row code.
    weight = [0] + [k ** i for i in range(g.n)]

    def sort_chunks(code: int, movable: list[tuple[int, ...]]) -> int:
        """The code of the canonical monomial: exponents sorted down within
        each movable chunk (the others are sorted already)."""
        for c in movable:
            digits = [code // weight[w] % k for w in c]
            for w, e, s in zip(c, digits, sorted(digits, reverse=True)):
                code += (s - e) * weight[w]
        return code

    # One edge per orbit (the first vertices of two chunks, or the first two
    # of one chunk), keyed by its movable chunks: those of size > 1 holding
    # an endpoint.  The edges of one key share their coefficient monomials.
    reps = []
    for u, v in g.edges():
        cu, cv = chunk_of[u], chunk_of[v]
        if u == cu[0] and v == (cu[1] if cu is cv else cv[0]):
            movable = [c for c in dict.fromkeys((cu, cv)) if len(c) > 1]
            reps.append((u, v, movable, (cu is cv, *movable)))
    uses = collections.Counter(key for *_, key in reps)
    shapes: dict[tuple, list] = {}
    n_cols = 0  # the columns of the keys enumerated so far
    for u, v, _, key in reps:
        if key in shapes:
            continue
        monomials = shapes[key] = []
        for exps in _coefficient_monomials(g.n, k, degrees, _stabilizer_chains(g.n, chunks, {u, v})):
            monomials.append((_monomial(exps), dict(exps), sum(e * weight[w] for w, e in exps)))
            # k rows per column; a plain system has one row per monomial at least
            cols = n_cols + uses[key] * len(monomials)
            linalg.check_size(field.p, len(monomials), cols, k * cols)
        n_cols += uses[key] * len(monomials)

    # Row ids in order of first touch; the constant row carrying the rhs is 0.
    row_index = {0: 0}
    columns = []
    col_rows = []
    for u, v, movable, key in reps:
        edge = (u, v)
        wu, wv = weight[u], weight[v]
        # shift[a][b]: code offsets of the k rows of a column whose monomial
        # has exponents a at u and b at v.
        shift = [[[((a + l) % k - a) * wu + ((b + k - 1 - l) % k - b) * wv for l in range(k)]
                  for b in range(k)] for a in range(k)]
        for mono, exps, code in shapes[key]:
            offsets = shift[exps.get(u, 0)][exps.get(v, 0)]
            if movable:
                offsets = [sort_chunks(code + s, movable) - code for s in offsets]
            col_rows.append([row_index.setdefault(code + s, len(row_index)) for s in offsets])
            columns.append((edge, mono))
    return LinearSystem(field, d, columns, col_rows, list(row_index), chunks)


def _arrangements(labels: list) -> Iterator[tuple]:
    """The distinct orderings of labels, in increasing lexicographic order."""
    a = sorted(labels)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def _expand(system: LinearSystem, x: list[int]) -> dict[tuple[int, int], dict[Monomial, int]]:
    """The plain-system solution of orbit solution x, as term dicts keyed by
    edge: every column of the orbit of column j gets x[j] / |orbit|."""
    p = system.field.p
    moving = [c for c in system.chunks if len(c) > 1]
    moved = {w for c in moving for w in c}
    solution = {}
    for (edge, mono), z in zip(system.columns, x):
        if not z:
            continue
        exps = dict(mono.exps)
        # Each moving chunk's (exponent, endpoint) labels, in every distinct order.
        orders = [list(_arrangements([(exps.get(w, 0), w in edge) for w in c])) for c in moving]
        size = math.prod(map(len, orders))
        if size == 1:  # the column is its own orbit
            solution.setdefault(edge, {})[mono] = z
            continue
        share = z * pow(size, p - 2, p) % p
        fixed = [(w, e) for w, e in mono.exps if w not in moved]
        fixed_ends = [w for w in edge if w not in moved]
        for image in itertools.product(*orders):
            pairs, ends = list(fixed), list(fixed_ends)
            for c, labels in zip(moving, image):
                for w, (e, end) in zip(c, labels):
                    if e:
                        pairs.append((w, e))
                    if end:
                        ends.append(w)
            solution.setdefault(tuple(sorted(ends)), {})[Monomial(pairs)] = share
    return solution


def solve_system(system: LinearSystem) -> dict[tuple[int, int], dict[Monomial, int]] | None:
    """One plain-system solution as term dicts keyed by edge, expanded from
    a solution of the orbit system, or None if the system is inconsistent.
    Deterministic: echelon reduction of int bitsets over GF(2), sparse
    Markowitz-pivot elimination for odd p.  Raises
    linalg.FillBudgetExceeded when a kernel would pass its memory budget."""
    if system.field.p == 2:
        x = linalg.solve_gf2(len(system.row_monomials), system.col_rows, [0])
    else:
        x = linalg.solve_sparse(system.col_rows, [0], system.field)
    return None if x is None else _expand(system, x)


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
        return max([self.degree] + [g.degree() for g in self.vertex_coeffs.values()])


def _relabel(solution: dict[tuple[int, int], dict[Monomial, int]],
             clique: list[int]) -> dict[tuple[int, int], dict[Monomial, int]]:
    """A solution on K_{k+1} with vertex i renamed clique[i - 1]; clique is
    increasing, so edges and monomials keep their order."""
    name = [0, *clique]
    return {(name[u], name[v]): {_monomial(tuple((name[w], e) for w, e in m.exps)): c
                                 for m, c in terms.items()}
            for (u, v), terms in solution.items()}


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

    A certificate for a subgraph is one for g of the same degree, since its
    generators are among g's.  So when g has a (k+1)-clique C and is not
    K_{k+1} itself, each degree first solves K_{k+1}'s system, whose
    vertices are all twins; if that is feasible, its certificate relabelled
    onto C (the lexicographically first such clique) is g's, every smaller
    degree having been proven infeasible on g.  Otherwise g's own system is
    solved at that degree.
    """
    if not isinstance(field, PrimeField):
        raise ValueError("certificate search needs a prime field")
    if d_max is not None and d_max < 0:
        raise ValueError(f"degree bound must be nonnegative, got {d_max}")
    _check_characteristic(field, k)
    # Each degree tries these (graph, chunks, clique to relabel onto) in
    # turn: K_{k+1} onto g's clique, then g itself.
    tries = [(g, twin_chunks(g, field.p), None)]
    clique = find_clique(g, k + 1) if g.n > k + 1 else None
    if clique is not None:
        core = complete_graph(k + 1)
        tries.insert(0, (core, twin_chunks(core, field.p), clique))
    infeasible: list[int] = []
    for d in admissible_degrees(k, _degree_bound(k, d_max)):
        for host, chunks, onto in tries:
            system = assemble_system(host, k, field, d, chunks)
            solution = solve_system(system)
            if solution is not None:
                break
        if progress is not None:
            where = "" if onto is None else " on clique " + "-".join(map(str, onto))
            status = "infeasible" if solution is None else f"certificate found{where}"
            progress(
                f"degree {d}: {status} "
                f"({system.n_cols} column orbits, {len(system.row_monomials)} row orbits, "
                f"group order {system.group_order})"
            )
        if solution is not None:
            if onto is not None:
                solution = _relabel(solution, onto)
            betas = {e: _raw(field, terms) for e, terms in sorted(solution.items())}
            return Certificate(field, k, betas, None, tuple(infeasible))
        infeasible.append(d)
    return None


def _named(coeffs: Mapping, gens: Mapping, what: str) -> Iterator[tuple[Polynomial, Polynomial]]:
    """(coefficient, generator) pairs of coeffs and gens matched by key;
    ValueError for a key that gens lacks."""
    for key, c in coeffs.items():
        if key not in gens:
            raise ValueError(f"certificate names {what} {key} not in the graph")
        yield c, gens[key]


def _combination(field, pairs: Iterable[tuple[Polynomial, Polynomial]]) -> Polynomial:
    """sum of c * g over the (c, g) pairs, accumulated in one term dict."""
    mul, total = field.mul, {}
    for c, g in pairs:
        g_terms = g.terms.items()
        _add_terms(field, total,
                   ((m * n, mul(a, b)) for m, a in c.terms.items() for n, b in g_terms))
    return _raw(field, total)


def verify_certificate(cert: Certificate, ideal: ColoringIdeal) -> bool:
    """True iff the coefficients combine the generators to the constant 1:
    in the quotient ring for edge-only certificates, in the full polynomial
    ring when vertex coefficients are present.  ValueError for an edge or
    vertex the ideal's graph lacks."""
    if cert.field != ideal.field or cert.k != ideal.k:
        raise ValueError("certificate and ideal disagree on field or k")
    one = Polynomial.constant(cert.field, cert.field.one)
    pairs = _named(cert.edge_coeffs, ideal.edge_polys, "edge")
    if cert.vertex_coeffs is None:
        return quotient_reduce(_combination(cert.field, pairs), cert.k) == one
    vertex_polys = dict(zip(ideal.graph.vertices, ideal.vertex_polys))
    pairs = itertools.chain(pairs, _named(cert.vertex_coeffs, vertex_polys, "vertex"))
    return _combination(cert.field, pairs) == one


def _split_off_vertex_quotients(f: Polynomial, k: int) -> tuple[Polynomial, dict[int, dict]]:
    """quotient_reduce(f, k) and the q_i of f = quotient_reduce(f, k) +
    sum_i q_i * (x_i^k - 1), the q_i as term dicts keyed by vertex.

    Telescopes each term x^a = x^(a mod k) * prod_i (x_i^k)^(a_i div k)
    through y^q - 1 = (y - 1)(1 + y + ... + y^(q-1)).
    """
    field, reduced, quotients = f.field, [], {}
    for m, c in f.terms.items():
        prefix = {v: e % k for v, e in m.exps}
        reduced.append((Monomial(prefix), c))
        for v, e in m.exps:
            if e >= k:
                steps = ((Monomial({**prefix, v: prefix[v] + k * t}), c) for t in range(e // k))
                _add_terms(field, quotients.setdefault(v, {}), steps)
                prefix[v] = e
    return _raw(field, _add_terms(field, {}, reduced)), quotients


def lift_certificate(cert: Certificate, g: Graph) -> Certificate:
    """Complete a quotient-ring certificate to a full-ring identity by adding
    vertex-generator coefficients; raises InvalidCertificate when the input
    does not verify in the quotient ring."""
    field, k, neg = cert.field, cert.k, cert.field.neg
    total = _combination(field, _named(
        cert.edge_coeffs, {(u, v): mk_edge_poly(u, v, k, field) for u, v in g.edges()}, "edge"))
    reduced, quotients = _split_off_vertex_quotients(total, k)
    if reduced != Polynomial.constant(field, field.one):
        raise InvalidCertificate("coefficients do not combine to 1 in the quotient ring")
    vertex_coeffs = {v: _raw(field, {m: neg(c) for m, c in terms.items()})
                     for v, terms in sorted(quotients.items()) if terms}
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
    check_json_version(data)
    field = field_from_json(data["field"])
    if not isinstance(field, PrimeField):
        raise ValueError("certificates are defined over prime fields")
    k = json_int(data["k"])
    g = graph_from_json(data["graph"])
    edge_coeffs = {}
    for key, text in data["edge_coefficients"].items():
        u, v = sorted(_int_key(x) for x in key.split("-"))
        if (u, v) in edge_coeffs:
            raise ValueError(f"edge {u}-{v} is named twice")
        edge_coeffs[(u, v)] = parse_poly(text, field)
    vertex_coeffs = data["vertex_coefficients"]
    if vertex_coeffs is not None:
        vertex_coeffs = {_int_key(v): parse_poly(text, field) for v, text in vertex_coeffs.items()}
    infeasible = tuple(data["infeasible_degrees"])
    return Certificate(field, k, edge_coeffs, vertex_coeffs, infeasible), g
