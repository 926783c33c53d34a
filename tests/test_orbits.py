"""Certificate systems over twin-class orbits.

search_certificate solves each degree over the orbits of the group that
permutes twin vertices within chunks of fewer than p (twin_chunks).  The
group tests check that the group is one of automorphisms of order prime to
p; the differential tests check that the orbit system is solvable exactly
when the plain system of the dense oracle assembler is, and that every
expanded solution is a certificate.
"""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromideal.certificates import (
    Certificate,
    _arrangements,
    admissible_degrees,
    assemble_system,
    solve_system,
    twin_chunks,
    verify_certificate,
)
from chromideal.fields import GF
from chromideal.graphs import Graph, complete_graph
from chromideal.ideals import build_ideal
from chromideal.linalg import solve_sparse
from chromideal.poly import Monomial, Polynomial
from oracles import search_without_core
from test_acceptance import SMALL_GRID, congruence_suite
from test_assembly import dense_assembly


def complete_multipartite(*sizes):
    parts, first = [], 1
    for size in sizes:
        parts.append(range(first, first + size))
        first += size
    edges = [(u, v) for a, b in itertools.combinations(parts, 2) for u in a for v in b]
    return Graph(first - 1, edges)


def swapped(g, a, b):
    swap = {a: b, b: a}
    return {tuple(sorted((swap.get(u, u), swap.get(v, v)))) for u, v in g.edges()}


# --- the group ---------------------------------------------------------------

@st.composite
def graphs_and_primes(draw):
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges), draw(st.sampled_from([2, 3, 5, 7]))


@given(graphs_and_primes())
def test_chunks_are_twin_classes_cut_below_p(case):
    g, p = case
    chunks = twin_chunks(g, p)
    assert sorted(w for c in chunks for w in c) == list(g.vertices)
    for c in chunks:
        assert len(c) < p and list(c) == sorted(c)
        for a, b in itertools.combinations(c, 2):
            assert swapped(g, a, b) == set(g.edges())
    assert math.gcd(math.prod(math.factorial(len(c)) for c in chunks), p) == 1
    # uncut (p above n), the chunks are the twin classes
    classes = twin_chunks(g, g.n + 2)
    for a, b in itertools.combinations(g.vertices, 2):
        twins = (g.neighbors(a) | {a} == g.neighbors(b) | {b}
                 or g.neighbors(a) == g.neighbors(b))
        assert twins == any(a in c and b in c for c in classes)


def test_chunk_examples():
    assert twin_chunks(complete_graph(5), 3) == ((1, 2), (3, 4), (5,))
    assert twin_chunks(complete_graph(5), 7) == ((1, 2, 3, 4, 5),)
    assert twin_chunks(complete_graph(7), 5) == ((1, 2, 3, 4), (5, 6, 7))
    assert all(len(c) == 1 for c in twin_chunks(complete_multipartite(3, 3), 2))
    assert twin_chunks(complete_multipartite(2, 3), 3) == ((1, 2), (3, 4), (5,))
    # a path's ends are not twins; a star's leaves are false twins
    assert twin_chunks(Graph(3, [(1, 2), (2, 3)]), 5) == ((1, 3), (2,))


def test_assembler_rejects_chunks_that_are_not_automorphisms():
    g = Graph(3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="not an automorphism"):
        assemble_system(g, 2, GF(3), 1, [(1, 2), (3,)])
    with pytest.raises(ValueError, match="fewer than 3"):
        assemble_system(complete_graph(3), 2, GF(3), 1, [(1, 2, 3)])
    with pytest.raises(ValueError, match="partition"):
        assemble_system(complete_graph(3), 2, GF(3), 1, [(1, 2)])


def test_single_vertex_chunks_give_the_plain_system():
    g = complete_multipartite(2, 2, 3)
    plain = assemble_system(g, 3, GF(2), 7)
    explicit = assemble_system(g, 3, GF(2), 7, twin_chunks(g, 2))
    assert explicit.group_order == 1
    assert (explicit.columns, explicit.col_rows, explicit.row_monomials) == (
        plain.columns, plain.col_rows, plain.row_monomials)


def test_arrangements_are_the_distinct_permutations():
    for labels in [[], [1], [1, 1], [(2, False), (0, True), (2, False), (1, True)], [3, 1, 2, 1]]:
        expected = sorted(set(itertools.permutations(labels)))
        assert list(_arrangements(labels)) == expected


def test_expanded_certificates_are_group_invariant():
    # search_certificate answers this graph from one of its K_4s, so the
    # expansion is checked on the graph's own system at the found degree.
    g, k, p = complete_multipartite(2, 2, 2, 2), 3, 5
    d = search_without_core(g, k, GF(p)).degree
    solution = solve_system(assemble_system(g, k, GF(p), d, twin_chunks(g, p)))
    coeffs = {(e, m): c for e, terms in solution.items() for m, c in terms.items()}
    for c in twin_chunks(g, p):
        for a, b in zip(c, c[1:]):
            swap = {a: b, b: a}
            image = {(tuple(sorted(swap.get(w, w) for w in e)),
                      Monomial({swap.get(w, w): x for w, x in m.exps})): value
                     for (e, m), value in coeffs.items()}
            assert image == coeffs


# --- orbit verdicts against the plain system -------------------------------------

def plain_feasible(g, k, p, d):
    columns, col_rows, rhs_row, _ = dense_assembly(g, k, d)
    return solve_sparse(col_rows, [rhs_row], GF(p)) is not None


def orbit_cells():
    cells = [(f"K{n}/k{k}/GF{p}", complete_graph(n), k, p)
             for n, k, p, _ in SMALL_GRID if p != 2]
    cells += [(f"congruence {i} n{g.n}/k{k}/GF{field.p}", g, k, field.p)
              for i, (g, k, field) in enumerate(congruence_suite()) if field.p != 2]
    cells += [(f"K{'_'.join(map(str, sizes))}/k{k}/GF{p}", complete_multipartite(*sizes), k, p)
              for sizes, k, p in [((2, 3), 2, 3), ((3, 3), 2, 5), ((2, 2, 2), 2, 3),
                                  ((3, 3, 3), 2, 5), ((1, 2, 2), 2, 5), ((2, 2, 2), 3, 5),
                                  ((2, 2, 2, 2), 3, 5), ((1, 1, 1, 3), 3, 7),
                                  ((1, 1, 1, 2), 3, 5)]]
    # seeded random graphs, where twins are incidental
    rng = random.Random(7)
    for i in range(6):
        n, k, p = rng.randint(4, 7), 2, rng.choice([3, 5])
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        g = Graph(n, rng.sample(pairs, rng.randint(n, len(pairs))))
        cells.append((f"random {i} n{n}/k{k}/GF{p}", g, k, p))
    return cells


@pytest.mark.parametrize("label, g, k, p", orbit_cells(), ids=[c[0] for c in orbit_cells()])
def test_orbit_verdicts_match_the_plain_system(label, g, k, p):
    """At every admissible degree up to 3k + 1: the plain system is solved
    up to its first feasible degree (the degree-d columns are among the
    degree-(d + k) ones, so it stays feasible above), the orbit system at
    every degree, and each orbit solution expands to a certificate."""
    field = GF(p)
    chunks = twin_chunks(g, p)
    ideal = build_ideal(g, k, field)
    plain = False
    for d in admissible_degrees(k, 3 * k + 1):
        plain = plain or plain_feasible(g, k, p, d)
        solution = solve_system(assemble_system(g, k, field, d, chunks))
        assert (solution is not None) == plain, f"{label} at degree {d}"
        if solution is not None:
            cert = Certificate(field, k, {e: Polynomial(field, t) for e, t in solution.items()})
            assert verify_certificate(cert, ideal), f"{label} at degree {d}"


def test_orbit_cells_exercise_nontrivial_groups():
    orders = [math.prod(math.factorial(len(c)) for c in twin_chunks(g, p))
              for _, g, _, p in orbit_cells()]
    assert sum(order > 1 for order in orders) >= len(orders) // 2
    assert max(orders) >= 120
