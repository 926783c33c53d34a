"""Certificates answered from a (k+1)-clique core.

A certificate for a subgraph is a certificate for the graph, so
search_certificate tries K_{k+1}'s system before the graph's own at each
degree when the graph has a (k+1)-clique and is not K_{k+1} itself.  These
tests compare it with search_without_core, which solves only the graph's
own systems: the found degree and the infeasible degrees agree, both
certificates verify against the graph, and an answer from the core names
only the clique's edges.
"""

import functools
import random

import pytest

import chromideal.certificates
from chromideal.certificates import search_certificate, verify_certificate
from chromideal.fields import GF
from chromideal.graphs import Graph, complete_graph, find_clique
from chromideal.ideals import build_ideal
from oracles import search_without_core
from test_acceptance import congruence_suite
from test_kernel_differential import planted_cells


def relabelled(g, rng):
    image = list(g.vertices)
    rng.shuffle(image)
    name = dict(zip(g.vertices, image))
    return Graph(g.n, [(name[u], name[v]) for u, v in g.edges()])


def core_cells():
    """The congruence suite's graphs with a proper (k+1)-clique and the
    planted kernel-differential cells, then a relabelled copy of each, where
    the clique is no longer on vertices 1..k+1."""
    cells = [(f"congruence {i} n{g.n}/k{k}/GF{field.p}", g, k, field)
             for i, (g, k, field) in enumerate(congruence_suite()) if g.n > k + 1]
    cells += [(f"planted {i} n{g.n}/k{k}/GF{p}", g, k, GF(p))
              for i, (g, k, p) in enumerate(planted_cells())]
    rng = random.Random(20)
    cells += [(f"{label} relabelled", relabelled(g, rng), k, field)
              for label, g, k, field in cells]
    return cells


@functools.cache
def core_degree(k, field):
    return search_certificate(complete_graph(k + 1), k, field).degree


@pytest.mark.parametrize("label, g, k, field", core_cells(), ids=[c[0] for c in core_cells()])
def test_core_answers_match_the_search_without_core(label, g, k, field):
    cert = search_certificate(g, k, field)
    plain = search_without_core(g, k, field)
    assert (cert.degree, cert.infeasible_degrees) == (plain.degree, plain.infeasible_degrees)
    ideal = build_ideal(g, k, field)
    assert verify_certificate(cert, ideal) and verify_certificate(plain, ideal)
    if cert.degree == core_degree(k, field):  # the core is tried first at each degree
        clique = set(find_clique(g, k + 1))
        assert all(u in clique and v in clique for u, v in cert.edge_coeffs)


def test_core_cells_put_the_clique_off_the_first_vertices():
    cliques = [find_clique(g, k + 1) for _, g, k, _ in core_cells()]
    assert sum(c != list(range(1, len(c) + 1)) for c in cliques) >= len(cliques) // 4


def test_progress_names_the_clique():
    g = Graph(6, [(2, 3), (2, 5), (2, 6), (3, 5), (3, 6), (5, 6), (1, 2), (4, 5)])
    lines = []
    cert = search_certificate(g, 3, GF(7), progress=lines.append)
    assert lines[-1] == ("degree 4: certificate found on clique 2-3-5-6 "
                         "(10 column orbits, 5 row orbits, group order 24)")
    assert len(lines) == 2 and lines[0].startswith("degree 1: infeasible (")
    assert {v for e in cert.edge_coeffs for v in e} == {2, 3, 5, 6}


def test_an_infeasible_core_leaves_the_degree_to_the_graph(monkeypatch):
    """With the core's edges taken away, its systems are infeasible at every
    degree, and the graph's own systems give the answer."""
    g, k, field = planted_cells()[0][0], 3, GF(5)
    monkeypatch.setattr(chromideal.certificates, "complete_graph", Graph)
    cert = search_certificate(g, k, field)
    plain = search_without_core(g, k, field)
    assert (cert.degree, cert.infeasible_degrees) == (plain.degree, plain.infeasible_degrees)
    assert cert.edge_coeffs == plain.edge_coeffs


def test_the_complete_graph_itself_is_searched_as_before():
    for n, k, p in [(4, 3, 5), (5, 4, 7), (4, 3, 2)]:
        cert = search_certificate(complete_graph(n), k, GF(p))
        plain = search_without_core(complete_graph(n), k, GF(p))
        assert cert.edge_coeffs == plain.edge_coeffs
        assert cert.infeasible_degrees == plain.infeasible_degrees
