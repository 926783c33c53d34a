import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromideal.fields import GF, QQ, kth_roots_of_unity
from chromideal.graphs import Graph, complete_graph
from chromideal.ideals import (
    CharacteristicDividesK,
    build_ideal,
    check_coloring,
    mk_edge_poly,
    mk_vertex_poly,
    quotient_reduce,
)
from chromideal.poly import Monomial, Polynomial, parse_poly
from oracles import evaluate


def P(text, field=QQ):
    return parse_poly(text, field)


def test_vertex_poly_examples():
    assert mk_vertex_poly(1, 3, QQ) == P("x1^3 - 1")
    assert mk_vertex_poly(1, 1, QQ) == P("x1 - 1")
    f2 = GF(2)
    assert mk_vertex_poly(1, 2, f2) == P("x1^2 + 1", f2)


def test_edge_poly_examples():
    assert mk_edge_poly(1, 2, 3, QQ) == P("x1^2 + x1*x2 + x2^2")
    assert mk_edge_poly(1, 2, 2, QQ) == P("x1 + x2")
    assert mk_edge_poly(1, 2, 4, QQ) == P("x1^3 + x1^2*x2 + x1*x2^2 + x2^3")
    with pytest.raises(ValueError, match="self-loop"):
        mk_edge_poly(2, 2, 3, QQ)


def test_edge_poly_symmetric():
    for k in range(2, 7):
        assert mk_edge_poly(1, 2, k, QQ) == mk_edge_poly(2, 1, k, QQ)


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("field", [QQ, GF(7), GF(11)])
def test_edge_poly_telescopes(k, field):
    if field.char and k % field.char == 0:
        pytest.skip("characteristic divides k")
    eta = mk_edge_poly(1, 2, k, field)
    xi = Polynomial.variable(field, 1)
    xj = Polynomial.variable(field, 2)
    assert eta * (xi - xj) == Polynomial.variable(field, 1, k) - Polynomial.variable(field, 2, k)


def test_build_ideal_counts():
    tri = build_ideal(complete_graph(3), 3, QQ)
    assert len(tri.vertex_polys) == 3
    assert len(tri.edge_polys) == 3
    assert len(tri.generators()) == 6
    edgeless = build_ideal(Graph(3), 2, QQ)
    assert len(edgeless.generators()) == 3


def test_build_ideal_characteristic_guard():
    with pytest.raises(CharacteristicDividesK):
        build_ideal(complete_graph(4), 2, GF(2))
    with pytest.raises(CharacteristicDividesK):
        build_ideal(complete_graph(3), 6, GF(3))
    build_ideal(complete_graph(3), 3, GF(7))  # coprime is fine


def test_quotient_reduce_examples():
    assert quotient_reduce(P("x1^3"), 3) == P("1")
    assert quotient_reduce(P("x1^4*x2"), 3) == P("x1*x2")
    assert quotient_reduce(mk_vertex_poly(2, 4, QQ), 4).is_zero


small_poly = st.builds(
    lambda terms: Polynomial(QQ, {m: c for m, c in terms}),
    st.lists(
        st.tuples(
            st.builds(Monomial, st.dictionaries(st.integers(1, 3), st.integers(0, 7), max_size=3)),
            st.integers(-3, 3),
        ),
        max_size=4,
    ),
)


@given(small_poly, st.integers(1, 5))
def test_quotient_reduce_idempotent(f, k):
    once = quotient_reduce(f, k)
    assert quotient_reduce(once, k) == once
    assert all(e < k for m in once.terms for _, e in m.exps)


@given(small_poly, small_poly, st.integers(1, 5))
def test_quotient_reduce_is_multiplicative(f, g, k):
    direct = quotient_reduce(f * g, k)
    staged = quotient_reduce(quotient_reduce(f, k) * quotient_reduce(g, k), k)
    assert direct == staged


def test_check_coloring_examples():
    tri = complete_graph(3)
    assert check_coloring(tri, 3, {1: 0, 2: 1, 3: 2})
    edge = Graph(2, [(1, 2)])
    assert not check_coloring(edge, 2, {1: 1, 2: 1})
    k4 = complete_graph(4)
    for combo in itertools.product(range(3), repeat=4):
        assert not check_coloring(k4, 3, dict(zip(range(1, 5), combo)))


def test_check_coloring_validation():
    edge = Graph(2, [(1, 2)])
    with pytest.raises(ValueError, match="out of range"):
        check_coloring(edge, 2, {1: 0, 2: 5})
    with pytest.raises(ValueError, match="not colored"):
        check_coloring(edge, 2, {1: 0})
    # a color must be an int: these would pass as proper colorings otherwise
    path = Graph(3, [(1, 2), (2, 3)])
    for coloring in ({1: 0, 2: 0.5, 3: 1}, {1: 0, 2: True, 3: 0}, {1: 0.0, 2: 1, 3: 0}):
        with pytest.raises(ValueError, match="out of range"):
            check_coloring(path, 2, coloring)


@pytest.mark.parametrize(
    "graph", [complete_graph(3), Graph(3, [(1, 2), (2, 3)]), complete_graph(4)]
)
@pytest.mark.parametrize("k", [2, 3])
def test_generators_vanish_exactly_on_proper_colorings(graph, k):
    """Mapping colors through the k-th roots of unity kills every generator
    iff the coloring is proper."""
    p = {2: 5, 3: 7}[k]
    field = GF(p)
    roots = kth_roots_of_unity(p, k)
    ideal = build_ideal(graph, k, field)
    for combo in itertools.product(range(k), repeat=graph.n):
        coloring = dict(zip(graph.vertices, combo))
        point = {v: roots[c] for v, c in coloring.items()}
        vanishes = all(evaluate(g, point) == 0 for g in ideal.generators())
        assert vanishes == check_coloring(graph, k, coloring)
