from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromideal.certificates import (
    Certificate,
    InvalidCertificate,
    admissible_degrees,
    assemble_system,
    certificate_from_json_dict,
    certificate_to_json_dict,
    lift_certificate,
    search_certificate,
    solve_system,
    verify_certificate,
    _split_off_vertex_quotients,
)
from chromideal.fields import GF, QQ
from chromideal.graphs import Graph, complete_graph
from chromideal.ideals import CharacteristicDividesK, build_ideal, mk_vertex_poly, quotient_reduce
import chromideal.linalg
from chromideal.linalg import solve_gf2, solve_sparse
from chromideal.oracle import brute_force_colorings
from chromideal.poly import Monomial, Polynomial, parse_poly
from full_elimination import listed

F2, F3, F5, F7 = GF(2), GF(3), GF(5), GF(7)


def P(text, field):
    return parse_poly(text, field)


# --- degree schedule -----------------------------------------------------------

def test_admissible_degrees_examples():
    assert admissible_degrees(3, 10) == [1, 4, 7, 10]
    assert admissible_degrees(6, 19) == [7, 13, 19]
    assert admissible_degrees(2, 3) == [1, 3]
    assert admissible_degrees(5, 5) == []
    with pytest.raises(ValueError):
        admissible_degrees(1, 5)


# --- system assembly -----------------------------------------------------------

def test_assemble_k4_degree1_shape():
    system = assemble_system(complete_graph(4), 3, F2, 1)
    assert system.n_cols == 6 * 4  # six edges, four linear monomials
    assert all(0 <= code < 3**4 for code in system.row_monomials)
    assert all(len(rows) == 3 == len(set(rows)) for rows in system.col_rows)
    assert system.degree == 1


def test_assemble_degree_zero_is_unsolvable():
    system = assemble_system(complete_graph(4), 3, F2, 0)
    assert system.n_cols == 0
    assert solve_system(system) is None


def test_assemble_rejects_bad_field():
    with pytest.raises(CharacteristicDividesK):
        assemble_system(complete_graph(4), 4, F2, 1)
    with pytest.raises(ValueError):
        assemble_system(complete_graph(4), 3, QQ, 1)


def test_two_vertex_graph_has_no_certificate():
    system = assemble_system(Graph(2, [(1, 2)]), 2, F3, 1)
    assert [c for _, c in system.columns] == [Monomial({1: 1}), Monomial({2: 1})]
    assert solve_system(system) is None


# --- raw solvers ----------------------------------------------------------------

def test_solve_gf2_identity_and_contradiction():
    # x0=1, x1=0 from an identity matrix
    assert solve_gf2(2, [[0], [1]], [0]) == [1, 0]
    # 0 = 1 is inconsistent
    assert solve_gf2(1, [], [0]) is None
    # duplicate equations are harmless
    assert solve_gf2(2, [[0, 1]], [0, 1]) == [1]
    # a row listed twice has coefficient 0, in a column and in the rhs
    assert solve_gf2(1, [[0, 0]], [0]) is None
    assert solve_gf2(1, [[0, 0, 0]], [0, 0, 0]) == [1]


def test_solve_sparse_identity_and_contradiction():
    # a row listed c times has coefficient c, in a column and in the rhs
    assert solve_sparse([[0], [1]], [0] * 5 + [1] * 2, F7) == [5, 2]
    assert solve_sparse([], [0], F7) is None
    assert solve_sparse([[0], [0, 0]], [1], F7) is None  # row 1: 0 = 1
    assert solve_sparse([[0, 0]], [0], F7) == [4]  # a repeated row adds up
    assert solve_sparse([[0] * 7], [0], F7) is None  # ... to 0 when listed p times
    assert solve_sparse([[0] * 7], [0] * 7, F7) == [0]  # so does the rhs


@pytest.mark.parametrize("p", [3, 5, 7])
def test_solve_sparse_satisfies_random_consistent_systems(p):
    import random

    field = GF(p)
    rng = random.Random(p)
    for _ in range(20):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
        cols = [
            [(i, rng.randrange(p)) for i in range(n_rows) if rng.random() < 0.5]
            for _ in range(n_cols)
        ]
        x0 = [rng.randrange(p) for _ in range(n_cols)]
        b = {}
        for j, entries in enumerate(cols):
            for i, c in entries:
                b[i] = (b.get(i, 0) + c * x0[j]) % p
        x = solve_sparse(*listed(cols, b, p), field)
        assert x is not None
        residual = dict(b)
        for j, entries in enumerate(cols):
            for i, c in entries:
                residual[i] = (residual.get(i, 0) - c * x[j]) % p
        assert all(v % p == 0 for v in residual.values())


def test_gf2_kernels_agree_on_feasibility():
    import random

    rng = random.Random(2)
    for _ in range(40):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(0, 7)
        cols = [
            sorted(rng.sample(range(n_rows), rng.randint(0, n_rows)))
            for _ in range(n_cols)
        ]
        rhs_rows = sorted(rng.sample(range(n_rows), rng.randint(0, n_rows)))
        dense = solve_gf2(n_rows, cols, rhs_rows)
        sparse = solve_sparse(cols, rhs_rows, F2)
        assert (dense is None) == (sparse is None)
        for x in (dense, sparse):
            if x is None:
                continue
            residual = [0] * n_rows
            for j, rows in enumerate(cols):
                for i in rows:
                    residual[i] ^= x[j]
            for i in rhs_rows:
                residual[i] ^= 1
            assert not any(residual)


def test_fill_budget_fails_loudly(monkeypatch):
    import itertools
    import random

    rng = random.Random(3)
    n = 30
    cols = [
        [(i, rng.randrange(1, 7)) for i in sorted(rng.sample(range(n), 6))]
        for _ in range(n)
    ]
    rhs = {i: rng.randrange(7) for i in range(n)}
    monkeypatch.setattr(chromideal.linalg, "_FILL_BUDGET", 10)
    with pytest.raises(RuntimeError, match="fill-in exceeded"):
        solve_sparse(*listed(cols, rhs, 7), F7)


C7 = Graph(7, [(i, i % 7 + 1) for i in range(1, 8)])  # no twins: the plain system


@pytest.mark.parametrize("p, budget, limit", [(5, "_FILL_BUDGET", 3 * 7 * 10),
                                               (2, "_DENSE_BYTES", 170)])
def test_assembly_stops_while_enumerating_monomials(monkeypatch, p, budget, limit):
    """Each of C_7's 7 edges gets a column per coefficient monomial, so the
    11th monomial makes 77 columns: 231 entries over GF(5), and over GF(2)
    at least 11 rows of two 64-bit words (176 bytes).  Assembly raises
    there, before it builds any column."""
    import chromideal.certificates

    enumerate_monomials = chromideal.certificates._coefficient_monomials
    seen = []

    def counted(*args):
        for exps in enumerate_monomials(*args):
            seen.append(exps)
            yield exps

    monkeypatch.setattr(chromideal.certificates, "_coefficient_monomials", counted)
    monkeypatch.setattr(chromideal.linalg, budget, limit)
    with pytest.raises(chromideal.linalg.FillBudgetExceeded):
        assemble_system(C7, 3, GF(p), 4)
    assert len(seen) == 11
    monkeypatch.undo()
    assert assemble_system(C7, 3, GF(p), 4).n_cols == 7 * 168


def test_assembly_budget_refuses_only_past_the_kernel_budget(monkeypatch):
    """At a budget equal to the finished system's size the system assembles
    (and over GF(2) solves); one below, the odd-p system is refused by
    assembly and the GF(2) one by solve_gf2 at the latest."""
    sizes = {}
    for p in (2, 5):
        system = assemble_system(C7, 3, GF(p), 4)
        rows, cols = len(system.row_monomials), system.n_cols
        sizes[p] = rows * ((cols + 64) // 64) * 8 if p == 2 else 3 * cols
    monkeypatch.setattr(chromideal.linalg, "_DENSE_BYTES", sizes[2])
    monkeypatch.setattr(chromideal.linalg, "_FILL_BUDGET", sizes[5])
    assert solve_system(assemble_system(C7, 3, F2, 4)) is None
    assert assemble_system(C7, 3, F5, 4).n_cols == 7 * 168
    monkeypatch.setattr(chromideal.linalg, "_DENSE_BYTES", sizes[2] - 1)
    monkeypatch.setattr(chromideal.linalg, "_FILL_BUDGET", sizes[5] - 1)
    with pytest.raises(chromideal.linalg.FillBudgetExceeded, match="dense GF"):
        solve_system(assemble_system(C7, 3, F2, 4))
    with pytest.raises(chromideal.linalg.FillBudgetExceeded, match="entries exceed"):
        assemble_system(C7, 3, F5, 4)


@pytest.mark.parametrize("p, kernel", [(2, "solve_gf2"), (5, "solve_sparse")])
def test_solve_system_hands_the_kernel_the_assembled_columns(monkeypatch, p, kernel):
    """Both kernels read the system as assembled: solve_system passes the
    col_rows list itself and the rhs [0], and the kernel leaves it as it was."""
    system = assemble_system(complete_graph(4), 3, GF(p), 4)
    before = [list(rows) for rows in system.col_rows]
    solve = getattr(chromideal.linalg, kernel)
    calls = []

    def recorded(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(chromideal.linalg, kernel, recorded)
    assert solve_system(system) is not None
    (args,) = calls
    expected = ((len(system.row_monomials), system.col_rows, [0]) if p == 2
                else (system.col_rows, [0], system.field))
    assert args == expected
    assert (args[1] if p == 2 else args[0]) is system.col_rows
    assert system.col_rows == before


def test_colorable_edge_system_is_infeasible():
    """One edge is 2-colorable, so its degree-3 system over GF(3) says None."""
    assert solve_system(assemble_system(Graph(2, [(1, 2)]), 2, F3, 3)) is None


def test_solvers_are_deterministic():
    system = assemble_system(complete_graph(4), 3, F7, 4)
    assert solve_system(system) == solve_system(system)
    system2 = assemble_system(complete_graph(4), 3, F2, 1)
    assert solve_system(system2) == solve_system(system2)


# --- search ----------------------------------------------------------------------

def test_k4_over_gf2_has_degree_one_certificate():
    cert = search_certificate(complete_graph(4), 3, F2)
    assert cert.degree == 1
    assert cert.infeasible_degrees == ()
    assert verify_certificate(cert, build_ideal(complete_graph(4), 3, F2))


def test_k4_over_gf7_needs_degree_four():
    cert = search_certificate(complete_graph(4), 3, F7)
    assert cert.degree == 4
    assert cert.infeasible_degrees == (1,)


def test_colorable_graph_yields_no_certificate():
    assert search_certificate(complete_graph(3), 3, F2, d_max=10) is None


def test_colorable_graphs_never_certify():
    """Spot check against the brute-force colorability oracle."""
    import random

    from chromideal.graphs import random_chordal

    field_for_k = {2: F3, 3: F2, 4: F3}
    for seed in range(8):
        rng = random.Random(seed)
        k = rng.choice([2, 3, 4])
        g = random_chordal(rng.randint(1, 6), k, seed)
        if brute_force_colorings(g, k) == 0:
            continue
        assert search_certificate(g, k, field_for_k[k]) is None


@st.composite
def small_graphs_k_p(draw):
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    k = draw(st.sampled_from([2, 3]))
    p = draw(st.sampled_from([3, 5] if k == 2 else [2, 5, 7]))
    return Graph(n, edges), k, GF(p)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_graphs_k_p())
def test_search_agrees_with_brute_force(case):
    """A found certificate means no coloring exists, and it lifts to a
    full-ring identity; a colorable graph never certifies."""
    g, k, field = case
    cert = search_certificate(g, k, field, d_max=k + 1)
    colorable = brute_force_colorings(g, k) > 0
    if cert is not None:
        assert not colorable
        assert verify_certificate(lift_certificate(cert, g), build_ideal(g, k, field))
    if colorable:
        assert cert is None


def test_monomial_degree_classes_are_one_mod_k():
    cert = search_certificate(complete_graph(4), 3, F7)
    for beta in cert.edge_coeffs.values():
        assert all(m.degree % 3 == 1 for m in beta.terms)


def test_degree_one_system_infeasible_for_k_above_three():
    assert solve_system(assemble_system(complete_graph(5), 4, F3, 1)) is None
    assert solve_system(assemble_system(complete_graph(6), 5, F2, 1)) is None


def test_certificate_invariant_rejects_wrong_degree_class():
    with pytest.raises(ValueError, match="not 1 mod"):
        Certificate(F2, 3, {(1, 2): P("x1^2", F2)})


def test_search_characteristic_guard():
    with pytest.raises(CharacteristicDividesK):
        search_certificate(complete_graph(4), 4, F2)


def test_progress_lines_report_each_degree():
    lines = []
    search_certificate(complete_graph(4), 3, F7, progress=lines.append)
    assert lines == [
        "degree 1: infeasible (2 column orbits, 3 row orbits, group order 24)",
        "degree 4: certificate found (10 column orbits, 5 row orbits, group order 24)",
    ]


# --- verification ------------------------------------------------------------------

def test_all_zero_certificate_is_invalid():
    cert = Certificate(F2, 3, {(1, 2): Polynomial.zero(F2)})
    assert not verify_certificate(cert, build_ideal(complete_graph(4), 3, F2))


def test_perturbed_certificate_fails():
    g = complete_graph(4)
    cert = search_certificate(g, 3, F7)
    ideal = build_ideal(g, 3, F7)
    assert verify_certificate(cert, ideal)
    edge, beta = next(iter(cert.edge_coeffs.items()))
    m = next(iter(beta.terms))
    perturbed = dict(cert.edge_coeffs)
    perturbed[edge] = beta + Polynomial(F7, {m: 1})
    assert not verify_certificate(Certificate(F7, 3, perturbed), ideal)


def test_verify_rejects_mismatched_ideal():
    cert = search_certificate(complete_graph(4), 3, F2)
    with pytest.raises(ValueError, match="field or k"):
        verify_certificate(cert, build_ideal(complete_graph(4), 3, F7))
    with pytest.raises(ValueError, match="not in the graph"):
        verify_certificate(cert, build_ideal(Graph(4, [(1, 2)]), 3, F2))
    with pytest.raises(ValueError, match="not in the graph"):
        lift_certificate(cert, Graph(4, [(1, 2)]))


@pytest.mark.parametrize("v", [0, 5])
def test_verify_rejects_a_vertex_outside_the_graph(v):
    g = complete_graph(4)
    lifted = lift_certificate(search_certificate(g, 3, F5), g)
    extra = replace(lifted, vertex_coeffs={**lifted.vertex_coeffs, v: Polynomial.zero(F5)})
    with pytest.raises(ValueError, match=f"vertex {v} not in the graph"):
        verify_certificate(extra, build_ideal(g, 3, F5))


# --- lifting ------------------------------------------------------------------------

def test_split_off_vertex_quotients_reconstructs():
    f = P("x1^7*x2 + 3*x2^4 + x1*x2 + 2", F5)
    reduced, quotients = _split_off_vertex_quotients(f, 3)
    assert reduced == quotient_reduce(f, 3)
    total = reduced
    for v, terms in quotients.items():
        total = total + Polynomial(F5, terms) * mk_vertex_poly(v, 3, F5)
    assert total == f
    assert all(e < 3 for m in reduced.terms for _, e in m.exps)


def test_split_off_nothing_when_exponents_are_small():
    f = P("x1^2*x2 + 4", F5)
    assert quotient_reduce(f, 3) == f
    assert _split_off_vertex_quotients(f, 3) == (f, {})


@pytest.mark.parametrize("p,expected_degree", [(2, 1), (5, 4), (7, 4)])
def test_lift_round_trip_k4(p, expected_degree):
    g = complete_graph(4)
    field = GF(p)
    cert = search_certificate(g, 3, field)
    assert cert.degree == expected_degree
    lifted = lift_certificate(cert, g)
    assert lifted.vertex_coeffs is not None
    ideal = build_ideal(g, 3, field)
    assert verify_certificate(lifted, ideal)
    # the full-ring identity, expanded by hand
    total = Polynomial.zero(field)
    for (u, v), beta in lifted.edge_coeffs.items():
        total = total + beta * ideal.edge_polys[(u, v)]
    for v, gamma in lifted.vertex_coeffs.items():
        total = total + gamma * mk_vertex_poly(v, 3, field)
    assert total == Polynomial.constant(field, 1)
    assert lifted.lifted_degree >= lifted.degree


def test_lift_rejects_invalid_certificate():
    bad = Certificate(F2, 3, {(1, 2): P("x1", F2)})
    with pytest.raises(InvalidCertificate):
        lift_certificate(bad, complete_graph(4))


# --- JSON ---------------------------------------------------------------------------

def test_certificate_json_round_trip():
    g = complete_graph(4)
    cert = lift_certificate(search_certificate(g, 3, F7), g)
    doc = certificate_to_json_dict(cert, g)
    back, g2 = certificate_from_json_dict(doc)
    assert g2 == g
    assert back.edge_coeffs == cert.edge_coeffs
    assert back.vertex_coeffs == cert.vertex_coeffs
    assert back.infeasible_degrees == cert.infeasible_degrees
    assert verify_certificate(back, build_ideal(g2, 3, F7))
