import math

import random

import pytest

from chromideal.chordal import (
    basis_polynomial,
    build_groebner_basis,
    clique_element_text,
    count_colorings_chordal,
    elimination_term_order,
    extract_coloring,
    quotient_dimension,
)
from chromideal.fields import GF, QQ, kth_roots_of_unity
from chromideal.graphs import (
    EliminationRecord,
    Graph,
    NotChordalError,
    complete_graph,
    perfect_elimination_order,
    random_chordal,
)
from chromideal.cli import basis_result_to_json
from chromideal.ideals import CharacteristicDividesK, check_coloring, mk_vertex_poly
from chromideal.oracle import brute_force_colorings, buchberger_criterion
from chromideal.poly import Monomial, parse_poly, render

from dict_product import dict_complete_homogeneous
from oracles import evaluate


def P(text, field=QQ):
    return parse_poly(text, field)


def cycle(n):
    return Graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


# --- per-record basis polynomials ----------------------------------------------

def test_basis_polynomial_examples():
    rec = EliminationRecord(2, frozenset({1}))
    assert basis_polynomial(rec, 3, QQ) == P("x2^2 + x1*x2 + x1^2")
    rec = EliminationRecord(1, frozenset())
    assert basis_polynomial(rec, 3, QQ) == P("x1^3 - 1")
    rec = EliminationRecord(3, frozenset({1, 2}))
    assert basis_polynomial(rec, 3, QQ) == P("x1 + x2 + x3")


def test_basis_polynomial_rejects_oversized_clique():
    with pytest.raises(ValueError, match="exceeds"):
        basis_polynomial(EliminationRecord(5, frozenset({1, 2, 3, 4})), 3, QQ)
    # |U| == k is the constant 1 (callers emit infeasibility before this)
    one = basis_polynomial(EliminationRecord(4, frozenset({1, 2, 3})), 3, QQ)
    assert one == P("1")


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_basis_polynomial_shape(k, r):
    if r > k:
        pytest.skip("caller territory")
    rec = EliminationRecord(9, frozenset(range(1, r + 1)))
    f = basis_polynomial(rec, k, QQ)
    assert len(f.terms) == math.comb(k, r)
    assert f.degree() == k - r


# --- the sweep ------------------------------------------------------------------

def test_triangle_basis_exact():
    res = build_groebner_basis(complete_graph(3), 3, QQ)
    assert not res.infeasible
    basis = res.basis
    assert set(basis.polys) == {
        P("x1 + x2 + x3"),
        P("x2^2 + x2*x3 + x3^2"),
        P("x3^3 - 1"),
    }
    # first-removed vertex is ranked largest
    assert basis.order.ranks == {1: 3, 2: 2, 3: 1}
    heads = [p.leading_monomial(basis.order) for p in basis.polys]
    assert heads == [Monomial({1: 1}), Monomial({2: 2}), Monomial({3: 3})]


def test_single_vertex_basis():
    res = build_groebner_basis(Graph(1), 2, QQ)
    assert [p for p in res.basis.polys] == [P("x1^2 - 1")]


def test_k4_with_three_colors_is_infeasible():
    res = build_groebner_basis(complete_graph(4), 3, QQ)
    assert res.infeasible
    assert res.basis is None
    assert len(res.witness.clique) >= 3


def test_non_chordal_returns_none():
    assert build_groebner_basis(cycle(4), 3, QQ) is None


def test_characteristic_guard():
    with pytest.raises(CharacteristicDividesK):
        build_groebner_basis(complete_graph(3), 3, GF(3))


def test_leading_monomials_are_pure_powers_in_distinct_variables():
    g = random_chordal(8, 4, seed=3)
    res = build_groebner_basis(g, 4, QQ)
    assert not res.infeasible
    basis = res.basis
    seen = set()
    for rec, p in zip(basis.peo, basis.polys):
        lm = p.leading_monomial(basis.order)
        assert lm == Monomial({rec.vertex: 4 - len(rec.clique)})
        assert rec.vertex not in seen
        seen.add(rec.vertex)


def test_basis_passes_s_pair_criterion():
    for seed in range(6):
        g = random_chordal(7, 3, seed)
        res = build_groebner_basis(g, 3, QQ)
        assert not res.infeasible
        assert buchberger_criterion(res.basis.polys, res.basis.order)


# --- counting -------------------------------------------------------------------

def test_quotient_dimension_examples():
    assert quotient_dimension(build_groebner_basis(complete_graph(3), 3, QQ), 3) == 6
    assert quotient_dimension(build_groebner_basis(Graph(1), 3, QQ), 3) == 3
    two_path = Graph(2, [(1, 2)])
    # brute force: colorings 01 and 10
    assert brute_force_colorings(two_path, 2) == 2
    assert quotient_dimension(build_groebner_basis(two_path, 2, QQ), 2) == 2
    assert quotient_dimension(build_groebner_basis(complete_graph(4), 3, QQ), 3) == 0


def test_count_colorings_chordal_examples():
    assert count_colorings_chordal(complete_graph(3), 3) == 6
    with pytest.raises(NotChordalError):
        count_colorings_chordal(cycle(4), 2)
    assert count_colorings_chordal(complete_graph(4), 3) == 0


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k", [2, 3])
def test_tree_counts_match_closed_form(seed, k):
    g = random_chordal(6, 2, seed)
    expected = k * (k - 1) ** (g.n - 1)
    assert count_colorings_chordal(g, k) == expected
    assert brute_force_colorings(g, k) == expected


@pytest.mark.parametrize("seed", range(10))
def test_dimension_matches_brute_force(seed):
    g = random_chordal(7, 4, seed)
    for k in (2, 3, 4):
        res = build_groebner_basis(g, k, QQ)
        expected = brute_force_colorings(g, k)
        if res.infeasible:
            assert expected == 0
        else:
            assert quotient_dimension(res, k) == expected
        assert count_colorings_chordal(g, k) == expected


# --- coloring extraction -----------------------------------------------------------

def test_extract_coloring_examples():
    edge = Graph(2, [(1, 2)])
    coloring = extract_coloring(perfect_elimination_order(edge), 2)
    assert sorted(coloring.values()) == [0, 1]

    tri = extract_coloring(perfect_elimination_order(complete_graph(3)), 3)
    assert sorted(tri.values()) == [0, 1, 2]

    star = Graph(4, [(1, 2), (1, 3), (1, 4)])
    col = extract_coloring(perfect_elimination_order(star), 2)
    assert check_coloring(star, 2, col)
    assert len({col[2], col[3], col[4]}) == 1 and col[1] != col[2]

    assert extract_coloring(perfect_elimination_order(complete_graph(4)), 3) is None


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_extraction_is_proper_and_kills_basis_at_roots(seed, k):
    g = random_chordal(7, k, seed)
    res = build_groebner_basis(g, k, QQ)
    if res.infeasible:
        return
    coloring = extract_coloring(res.basis.peo, k)
    assert check_coloring(g, k, coloring)
    p = {2: 3, 3: 7, 4: 5}[k]
    field = GF(p)
    roots = kth_roots_of_unity(p, k)
    point = {v: roots[c] for v, c in coloring.items()}
    res_p = build_groebner_basis(g, k, field)
    for poly in res_p.basis.polys:
        assert evaluate(poly, point) == 0


def test_elimination_term_order_ranks():
    peo = (
        EliminationRecord(4, frozenset({2})),
        EliminationRecord(2, frozenset({1})),
        EliminationRecord(1, frozenset()),
    )
    order = elimination_term_order(peo)
    assert order.ranks == {4: 3, 2: 2, 1: 1}


# --- the basis as text ------------------------------------------------------------

def relabelled(g, rng):
    """g with its vertices renamed at random, so that ids and ranks disagree."""
    name = dict(zip(g.vertices, rng.sample(list(g.vertices), g.n)))
    return Graph(g.n, [(name[u], name[v]) for u, v in g.edges()])


def text_graphs(k, rng):
    """n = 1, isolated vertices, forests, cliques of k - 1 to k + 1 vertices
    and seeded random chordal graphs with cliques of up to k - 1, k and
    k + 1 vertices, each relabelled."""
    yield Graph(1)
    yield relabelled(Graph(5, [(1, 3)]), rng)
    for size in (k - 1, k, k + 1):
        if size >= 1:
            yield relabelled(complete_graph(size), rng)
    for seed in range(4):
        tree = random_chordal(10, 2, seed)
        yield relabelled(Graph(10, list(tree.edges())[::2]), rng)
        for c in sorted({max(k - 1, 1), k, k + 1}):
            yield relabelled(random_chordal(14, c, seed), rng)


def old_basis_polynomial(rec, k, field):
    """basis_polynomial as it was built when gb rendered every polynomial:
    one exponent dict and one validating Monomial per term."""
    if not rec.clique:
        return mk_vertex_poly(rec.vertex, k, field)
    return dict_complete_homogeneous(k - len(rec.clique), sorted(rec.clique) + [rec.vertex], field)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(11)], ids=str)
def test_basis_text_matches_rendered_polynomials(field):
    rng = random.Random(field.char)
    compared = 0
    for k in range(1, 10):
        if field.char and k % field.char == 0:
            with pytest.raises(CharacteristicDividesK):
                build_groebner_basis(complete_graph(2), k, field)
            continue
        assert build_groebner_basis(cycle(4), k, field) is None
        assert build_groebner_basis(cycle(5), k, field) is None
        for g in text_graphs(k, rng):
            peo = perfect_elimination_order(g)
            result = build_groebner_basis(g, k, field)
            witness = next((rec for rec in peo if len(rec.clique) >= k), None)
            if witness is not None:
                assert result.infeasible and result.witness == witness
                continue
            basis = result.basis
            assert basis.peo == peo and basis.order == elimination_term_order(peo)
            old = tuple(old_basis_polynomial(rec, k, field) for rec in peo)
            assert basis.polys == old and basis.polys is basis.polys
            ranks = basis.order.ranks
            for rec, poly in zip(peo, old):
                if rec.clique:
                    assert clique_element_text(rec, k, ranks) == render(poly, basis.order)
                    compared += 1
            document = basis_result_to_json(result, g, k, field)
            assert document["basis"] == [render(poly, basis.order) for poly in old]
    assert compared > 500
