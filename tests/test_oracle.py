import pytest

import chromideal.oracle
from chromideal.chordal import GroebnerBasis, build_groebner_basis
from chromideal.fields import GF, QQ
from chromideal.graphs import Graph, complete_graph
from chromideal.oracle import (
    NotAGroebnerBasis,
    OracleBudgetExceeded,
    OracleTooLarge,
    brute_force_colorings,
    buchberger,
    buchberger_criterion,
    reduce_basis,
)
from chromideal.poly import TermOrder, normal_form, parse_poly

LEX_XY = TermOrder.lex_descending([1, 2])


def P(text, field=QQ):
    return parse_poly(text, field)


# --- brute force ---------------------------------------------------------------

def test_brute_force_examples():
    assert brute_force_colorings(complete_graph(3), 3) == 6
    assert brute_force_colorings(complete_graph(4), 3) == 0
    assert brute_force_colorings(Graph(3), 2) == 8


def test_brute_force_budget_guard(monkeypatch):
    with pytest.raises(OracleTooLarge):
        brute_force_colorings(Graph(40), 2)
    monkeypatch.setattr(chromideal.oracle, "_ENUMERATION_BUDGET", 2**10)
    brute_force_colorings(Graph(10), 2)  # exactly at budget is fine
    with pytest.raises(OracleTooLarge):
        brute_force_colorings(Graph(11), 2)


# --- S-pair criterion -------------------------------------------------------------

def test_criterion_examples():
    tri = build_groebner_basis(complete_graph(3), 3, QQ).basis
    assert buchberger_criterion(tri.polys, tri.order)
    assert not buchberger_criterion([P("x1^2 - x2"), P("x1*x2 - 1")], LEX_XY)
    assert buchberger_criterion([P("x1^3 - x2")], LEX_XY)


def test_criterion_coprime_skip_agrees():
    tri = build_groebner_basis(complete_graph(3), 3, QQ).basis
    cases = [
        ([P("x1^2 - x2"), P("x1*x2 - 1")], LEX_XY),
        ([P("x1 - x2^2"), P("x2^3 - 1")], LEX_XY),
        (list(tri.polys), tri.order),
        ([P("x1*x2 - x2"), P("x2^2 - x1")], LEX_XY),
    ]
    for polys, order in cases:
        assert buchberger_criterion(polys, order, skip_coprime=True) == buchberger_criterion(
            polys, order, skip_coprime=False
        )


# --- completion -------------------------------------------------------------------

def test_buchberger_completes_textbook_pair():
    gb = buchberger([P("x1^2 - x2"), P("x1*x2 - 1")], LEX_XY)
    assert buchberger_criterion(gb.polys, gb.order)
    heads = [p.leading_monomial(gb.order) for p in gb.polys]
    assert any(m.vars() == (2,) for m in heads)  # an eliminant in x2 alone appears


def test_buchberger_on_existing_basis_is_criterion_equivalent():
    gens = [P("x1 - 1"), P("x2^2 - 2")]
    gb = buchberger(gens, LEX_XY)
    assert buchberger_criterion(gb.polys, gb.order)
    for g in gens:
        _, r = normal_form(g, gb.polys, gb.order)
        assert r.is_zero


def test_buchberger_agrees_with_elimination_sweep_on_triangle():
    """Completion of the raw coloring ideal equals the sweep's basis as an ideal."""
    field = QQ
    from chromideal.ideals import build_ideal

    res = build_groebner_basis(complete_graph(3), 3, field)
    order = res.basis.order
    ideal = build_ideal(complete_graph(3), 3, field)
    gb = buchberger(ideal.generators(), order)
    for p in res.basis.polys:
        _, r = normal_form(p, gb.polys, order)
        assert r.is_zero
    for p in gb.polys:
        _, r = normal_form(p, res.basis.polys, order)
        assert r.is_zero


def test_buchberger_budget():
    with pytest.raises(OracleBudgetExceeded):
        buchberger([P("x1^3 - 2*x2"), P("x1*x2^2 - x1 - 1"), P("x2^4 - x1^2")], LEX_XY, budget=1)


# --- reduced bases -----------------------------------------------------------------

def test_reduce_basis_examples():
    gb = GroebnerBasis((P("x1 + x2"), P("2*x2")), LEX_XY)
    reduced = reduce_basis(gb)
    assert list(reduced.polys) == [P("x2"), P("x1")]
    again = reduce_basis(reduced)
    assert list(again.polys) == list(reduced.polys)


def test_reduce_basis_rejects_non_groebner_input():
    with pytest.raises(NotAGroebnerBasis):
        reduce_basis(GroebnerBasis((P("x1^2 - x2"), P("x1*x2 - 1")), LEX_XY))


def test_chordal_sweep_output_is_already_reduced():
    res = build_groebner_basis(complete_graph(3), 3, QQ)
    reduced = reduce_basis(res.basis)
    assert set(reduced.polys) == set(res.basis.polys)


def test_reduce_basis_invariant_under_permutation():
    gens = [P("x1^2 + x2"), P("x1*x2 - x2"), P("x2^3 - 1")]
    base = reduce_basis(buchberger(gens, LEX_XY))
    flipped = reduce_basis(buchberger(list(reversed(gens)), LEX_XY))
    assert list(base.polys) == list(flipped.polys)
    permuted = reduce_basis(GroebnerBasis(tuple(reversed(base.polys)), LEX_XY))
    assert list(permuted.polys) == list(base.polys)


def test_disjoint_variable_generators_reduce_independently():
    order = TermOrder.lex_descending([1, 2, 3, 4])
    f1 = [P("x1^2 - x2"), P("x1*x2 - 1")]
    f2 = [P("x3^2 + x4"), P("x4^2 - 2")]
    joint = reduce_basis(buchberger(f1 + f2, order))
    left = reduce_basis(buchberger(f1, order))
    right = reduce_basis(buchberger(f2, order))
    assert set(joint.polys) == set(left.polys) | set(right.polys)
